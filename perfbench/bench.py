"""Workloads, inputs, the measured passes and the gates of the benchmark.

Imported by run.py once `mixnn` is importable from this checkout's src/.
"""

import gc
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from mixnn import cli, crypto, harness, nn, node, onion
from mixnn.designer import Designer, ProvisionPlan, TrainingConfig
from mixnn.directory import Directory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"

BATCH = 64
DIM = 784  # MNIST shape
MIN_ITERS = 100  # ten samples beyond p90
MIN_TEST_BATCHES = 20
TRAIN_SHARE = 0.75  # of --seconds, at the nominal rates below
SETUPS = 7  # set-ups per untraced run; setup_s is their median
TIME_BOUND_T = 60.0  # explicit crash deadline (virtual seconds on SimNet)
L = onion.DEFAULT_PACKET_LEN

WIDE_MODEL = ("linear:784x2048,relu,linear:2048x2048,relu,linear:2048x256,relu"
              " | linear:256x2048,relu,linear:2048x2048,relu,linear:2048x10,"
              "logsoftmax,nllloss")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str | None  # None: the paper's MNIST MLP, cli.TABLE_MODEL
    n: int
    p: int
    r: int
    socket: bool
    # measured baseline cost, used only to size a run to about --seconds
    iter_ms: float
    batch_ms: float


WORKLOADS = {w.name: w for w in [
    # the paper's configuration: padding and RSA opens dominate, NN is under 5%
    Workload("mlp_sim", None, 5, 5, 0, False, 61.0, 31.0),
    # the same inputs over loopback TCP: adds the transport that mlp_sim bypasses
    Workload("mlp_socket", None, 5, 5, 0, True, 78.0, 39.0),
    # NN kernels dominate; the dummy hop runs the relay path
    Workload("wide_sim", WIDE_MODEL, 3, 2, 1, False, 138.0, 38.0),
]}


# ---------------------------------------------------------------------------
# inputs and worlds

@dataclass
class Inputs:
    model: list  # nn.LayerSpec per layer
    config: TrainingConfig
    plan: ProvisionPlan
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    net_seed: int


def make_inputs(workload: Workload, seed: int, seconds: int) -> Inputs:
    """Everything the program receives, derived from the seed alone (and the
    run length, which sets the sizes)."""
    data_seed, model_seed, selection_seed, shuffle_seed, net_seed = (
        int(v) for v in np.random.SeedSequence([seed, 0x6D69786E]).generate_state(5))
    iters = max(MIN_ITERS, round(TRAIN_SHARE * seconds * 1e3 / workload.iter_ms))
    batches = max(MIN_TEST_BATCHES,
                  round((1 - TRAIN_SHARE) * seconds * 1e3 / workload.batch_ms))
    images, labels = _synthetic_data(iters + batches, data_seed)
    split = BATCH * iters
    chains = cli.parse_model(workload.model or cli.TABLE_MODEL)
    return Inputs(
        model=nn.make_layer_specs(chains, model_seed),
        config=TrainingConfig(epochs=1, batch_size=BATCH, seed=shuffle_seed,
                              time_bound_T=TIME_BOUND_T),
        plan=ProvisionPlan(n=workload.n, p=workload.p, r=workload.r,
                           selection_seed=selection_seed),
        train_x=images[:split], train_y=labels[:split],
        test_x=images[split:], net_seed=net_seed,
    )


def _synthetic_data(batches: int, seed: int):
    """`batches` batches of `harness.synthetic_two_gaussians`, one call per
    batch, written into arrays allocated once. One call for the whole set
    would hold a float64 copy of it for a moment, a transient larger than
    the cascade's own memory that would then set peak_rss_mib."""
    images = np.empty((batches * BATCH, DIM), dtype=np.float32)
    labels = np.empty(batches * BATCH, dtype=np.int64)
    for i, batch_seed in enumerate(np.random.SeedSequence(seed).generate_state(batches)):
        rows = slice(i * BATCH, (i + 1) * BATCH)
        data = harness.synthetic_two_gaussians(n=BATCH, dim=DIM, seed=int(batch_seed))
        images[rows], labels[rows] = data.images, data.labels
    return images, labels


class World:
    """A directory, a pool of exactly n layer servers and one designer.

    The directory (and its server, over sockets) exists before set-up
    starts; `setup` is the timed part."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self.pool = self.channel = self.designer = self.net = self.dir_server = None
        if workload.socket:
            self.dir_server = harness.DirectoryServer(Directory())
            self.dir_server.start()
            self.directory = harness.DirectoryClient(self.dir_server.address)
        else:
            self.net = harness.SimNet(seed=inputs.net_seed)
            self.directory = Directory()

    def setup(self):
        inp = self.inputs
        fabric = "socket" if self.workload.socket else self.net
        self.pool = harness.spawn_pool(fabric, inp.plan.n, self.directory, packet_len=L)
        self.channel = (harness.SocketChannel(packet_len=L)
                        if self.workload.socket else self.net.designer_channel())
        self.designer = Designer(self.channel, crypto.gen_keypair())
        records = self.directory.list()
        cascade = self.designer.provision(records, inp.model, inp.plan, config=inp.config,
                                          packet_len=L)
        self.designer.send_designer_loop(cascade, timeout=TIME_BOUND_T)
        self.designer.initialize_model(cascade, inp.config)
        return cascade

    def close(self):
        if self.pool is not None:
            self.pool.stop()
        if self.workload.socket:
            if self.channel is not None:
                self.channel.stop()
            self.dir_server.stop()


# ---------------------------------------------------------------------------
# always-on probes: iteration timing and the exactly-L check

class Probe:
    """Times every training iteration and counts the packets, at the nodes
    and at the designer, that are not exactly L bytes."""

    def __init__(self):
        self.iter_s = []
        self.packets = 0
        self.wrong_len = 0
        self._lock = threading.Lock()

    def _check(self, data):
        with self._lock:
            self.packets += 1
            self.wrong_len += len(data) != L

    def timed_iteration(self):
        orig = Designer._iteration

        def iteration(*args, **kwargs):
            t0 = time.perf_counter()
            loss = orig(*args, **kwargs)
            self.iter_s.append(time.perf_counter() - t0)
            return loss

        return iteration

    def patches(self):
        handle = node.handle_packet

        def checked_handle(state, packet, *args, **kwargs):
            self._check(packet)
            return handle(state, packet, *args, **kwargs)

        def checked_recv(orig):
            def recv(channel, timeout):
                data = orig(channel, timeout)
                self._check(data)
                return data
            return recv

        return [
            (node, "handle_packet", checked_handle),
            (harness.SimChannel, "recv", checked_recv(harness.SimChannel.recv)),
            (harness.SocketChannel, "recv", checked_recv(harness.SocketChannel.recv)),
        ]


# ---------------------------------------------------------------------------
# one pass: set-ups, one training epoch, one predict sweep

@dataclass
class Pass:
    setup_s: list = field(default_factory=list)
    iter_s: list = field(default_factory=list)
    train_s: float = 0.0
    test_s: float = 0.0
    losses: list = field(default_factory=list)
    params: list | None = None
    logp: np.ndarray | None = None
    packets: int = 0
    wrong_len: int = 0
    error: str | None = None


def run_pass(workload: Workload, inputs: Inputs, setups: int, tracer=None) -> Pass:
    """Set up `setups` times, then train and test on the last set-up."""
    out = Pass()
    probe = Probe()
    patches = probe.patches()
    timed = probe.timed_iteration()
    with spans.patched(patches):
        if tracer is None:
            patches = [(Designer, "_iteration", timed)]
        else:
            patches = tracer.patches() + [tracer.iteration_patch(timed)]
        with spans.patched(patches):
            for k in range(setups):
                world = World(workload, inputs)
                try:
                    if tracer is not None:
                        tracer.op = ("setup", k)
                    gc.collect()
                    t0 = time.perf_counter()
                    cascade = world.setup()
                    out.setup_s.append(time.perf_counter() - t0)
                    if k == setups - 1:
                        _measure(world, cascade, inputs, out, tracer)
                        out.params = harness.collect_cascade_params(cascade, world.pool)
                except Exception as exc:  # any raising operation fails the run
                    out.error = f"{type(exc).__name__}: {exc}"
                    break
                finally:
                    world.close()
    out.iter_s = probe.iter_s
    out.packets, out.wrong_len = probe.packets, probe.wrong_len
    return out


def _measure(world: World, cascade, inputs: Inputs, out: Pass, tracer):
    gc.collect()
    t0 = time.perf_counter()
    metrics = world.designer.train(cascade, inputs.train_x, inputs.train_y, inputs.config)
    out.train_s = time.perf_counter() - t0
    out.losses = metrics.losses
    if tracer is not None:
        tracer.op = ("test", 0)
    t0 = time.perf_counter()
    out.logp = world.designer.predict(cascade, inputs.test_x, batch_size=BATCH,
                                      config=inputs.config)
    out.test_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = ("idle", 0)


# ---------------------------------------------------------------------------
# the oracle gate

@dataclass
class Oracle:
    losses: np.ndarray
    params: list
    logp: np.ndarray
    train_s: float


def run_oracle(inputs: Inputs) -> Oracle:
    """Single-process run from the specs, data and config only."""
    t0 = time.perf_counter()
    params, metrics = harness.run_baseline(inputs.model, inputs.train_x, inputs.train_y,
                                           inputs.config)
    train_s = time.perf_counter() - t0
    logp = harness.baseline_predict(inputs.model, params, inputs.test_x, batch_size=BATCH)
    return Oracle(np.asarray(metrics.losses, dtype=np.float32), params, logp, train_s)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_params(got, want):
    if len(got) != len(want):
        return False
    for layer_got, layer_want in zip(got, want):
        if len(layer_got) != len(layer_want):
            return False
        for g, w in zip(layer_got, layer_want):
            if (g is None) != (w is None):
                return False
            if g is not None and not all(_same_array(x, y) for x, y in zip(g, w)):
                return False
    return True


def check_pass(p: Pass, oracle: Oracle, iters: int) -> list:
    """Everything that makes a pass incorrect, as messages."""
    problems = []
    if p.wrong_len or not p.packets:
        problems.append(f"{p.wrong_len} of {p.packets} packets were not exactly L bytes")
    if p.error:
        return problems + [f"run raised {p.error}"]
    if len(p.losses) != iters:
        problems.append(f"{len(p.losses)} losses for {iters} iterations")
    elif not _same_array(np.asarray(p.losses, dtype=np.float32), oracle.losses):
        problems.append("losses differ from the oracle")
    if not _same_params(p.params, oracle.params):
        problems.append("parameters differ from the oracle")
    if p.logp is None or not _same_array(p.logp, oracle.logp):
        problems.append("predictions differ from the oracle")
    return problems


# ---------------------------------------------------------------------------
# trace checks

def _code_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "mixnn").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_trace(workload: Workload, tracer, metrics: dict, iters: int) -> list:
    """Completeness, protocol invariants, per-iteration uniformity and drift
    of the exact counts against earlier traced runs of the same code."""
    STATE_DIR.mkdir(exist_ok=True)
    problems = []
    n = workload.n
    every = spans.Totals(tracer.spans)
    if every.calls["crypto.seal"] != every.calls["crypto.open"]:
        problems.append(f"trace saw {every.calls['crypto.seal']} seals but "
                        f"{every.calls['crypto.open']} opens")
    expect = {
        "node.handle_calls_per_iter": 2 * n,
        "harness.packets_per_iter": 2 * n + 2,
    }
    for name, want in expect.items():
        got = metrics[name][1]
        if got != want:
            problems.append(f"{name} = {got:g} over {iters} iterations, expected {want}")
    sigs = spans.iteration_signatures(tracer.spans)
    if len(sigs) != iters:
        problems.append(f"spans cover {len(sigs)} of {iters} iterations")
    first = sigs.get(0)
    odd = [i for i, s in sigs.items() if s != first]
    if odd:
        problems.append(f"iterations {odd[:5]} made other calls than iteration 0")

    # the counts the wire format v1 fixes today; later formats may change them
    v1 = {"crypto.seal": 4 * n + 3, "crypto.open": 4 * n + 3,
          "onion.build_packet": 4 * n, "onion.unwrap:next_built": 2 * (n - 1)}
    for key, want in v1.items():
        got = (first or {}).get(key)
        if got != want:
            print(f"note: {key} = {got} per iteration, the v1 protocol makes {want}",
                  file=sys.stderr)

    if first is not None and not odd:
        state_path = STATE_DIR / "counts.json"
        state = json.loads(state_path.read_text()) if state_path.exists() else {}
        key = f"{_code_hash()}:{workload.name}"
        # socket routing records carry ephemeral ports, so byte totals there
        # are exact only while every port has the same number of digits
        counts = {k: v for k, v in sorted(first.items())
                  if not (workload.socket and k.endswith((":bytes", ":padding")))}
        if key in state and state[key] != counts:
            drift = sorted(k for k in set(state[key]) | set(counts)
                           if state[key].get(k) != counts.get(k))
            problems.append(f"exact counts drifted from an earlier run of this code: {drift}")
        state[key] = counts
        state_path.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")
    return problems


# ---------------------------------------------------------------------------
# reporting

def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(p: Pass, inputs: Inputs, rss_mib: float) -> dict:
    ms = [s * 1e3 for s in p.iter_s]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "train_iter_per_s": ("iter/s", len(p.losses) / p.train_s),
        "iter_p50_ms": ("ms", statistics.median(ms)),
        "iter_p90_ms": ("ms", deciles[8]),
        "test_samples_per_s": ("samples/s", len(inputs.test_x) / p.test_s),
        "setup_s": ("s", statistics.median(p.setup_s)),
        "peak_rss_mib": ("MiB", rss_mib),
    }


def print_table(metrics: dict, notes):
    for name, (unit, value) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for line in notes:
        print(line)


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> int:
    """One benchmark run; prints the report and returns the exit code."""
    inputs = make_inputs(workload, seed, seconds)
    inputs_rss_mib = _peak_rss_mib()  # interpreter, imports and the inputs
    iters = len(inputs.train_x) // BATCH
    batches = len(inputs.test_x) // BATCH
    attempted = iters + batches

    untraced = run_pass(workload, inputs, 1 if trace else SETUPS)
    rss_mib = _peak_rss_mib()
    passes = [untraced]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        passes.append(run_pass(workload, inputs, 1, tracer))
    oracle = run_oracle(inputs)
    problems = [msg for p in passes for msg in check_pass(p, oracle, iters)]

    notes = [f"workload={workload.name} seed={seed} iterations={iters} "
             f"test_batches={batches} iteration_samples={len(untraced.iter_s)} "
             f"setups={len(untraced.setup_s)} packets_checked={sum(p.packets for p in passes)} "
             f"peak_rss_before_setup_mib={inputs_rss_mib:.1f}"]
    metrics = {}
    if not trace and not problems:
        metrics = end_to_end_metrics(untraced, inputs, rss_mib)
    elif trace and not problems:
        traced = passes[1]
        metrics, tr = spans.per_layer_metrics(tracer.spans, iters, batches,
                                               len(traced.setup_s), workload.socket)
        problems += check_trace(workload, tracer, metrics, iters)
        tracer.dump(STATE_DIR / f"spans_{workload.name}.jsonl")
        dist_rate = iters / untraced.train_s
        oracle_rate = iters / oracle.train_s
        metrics.update({
            "harness.dist_iter_per_s": ("iter/s", dist_rate),
            "harness.oracle_iter_per_s": ("iter/s", oracle_rate),
            "harness.overhead_x": ("x", oracle_rate / dist_rate),
            "trace.overhead_frac": ("ratio", traced.train_s / untraced.train_s - 1.0),
        })
        layers = spans.layer_self_ms(tr)
        wall = tr.ms("designer.iteration")
        notes.append("self time per iteration by layer (share of traced iteration wall): "
                     + ", ".join(f"{k} {v / iters:.2f} ms ({v / wall:.1%})"
                                 for k, v in layers.most_common()))
    for msg in problems:
        print(f"FAIL: {msg}", file=sys.stderr)
    correct = not problems
    print_table(metrics, notes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0 if correct else 1

