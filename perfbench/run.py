"""MixNN benchmark: training and test throughput of one cascade, end to end.

    python3 perfbench/run.py --workload mlp_sim --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one designer and exactly one packet in
flight (`Designer.train` and `Designer.predict` are strictly sequential). A
run sets up the cascade several times, trains one epoch at batch size 64,
runs a `predict` sweep over a held-out split and then checks every output
bitwise against the single-process oracle (`harness.run_baseline`). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 repeats the run with
spans around every layer (see spans.py) and reports the per-layer metrics
instead. The exit code is nonzero if any check fails. See README.md.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_mixnn():
    """Make this checkout's src/ importable, and refuse any other mixnn."""
    if not (SRC / "mixnn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mixnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixnn
    if Path(mixnn.__file__).resolve().parent != SRC / "mixnn":
        sys.exit(f"perfbench: imported mixnn from {mixnn.__file__}, not {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_mixnn()
    import bench
    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
