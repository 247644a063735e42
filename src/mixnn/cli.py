"""Operator entry points.

Exit codes: 0 ok, 2 usage/config error, 3 crash detected, 4 validation
failed, 5 I/O error. Config files are `key = value` lines; # comments and
blank lines are ignored.
"""

import base64
import contextlib
import logging
import os
import signal
import stat
import sys

import click
import numpy as np

from . import harness, nn, onion
from .crypto import KEY_LEN, Address, KeyPair, KeyRecord, gen_keypair
from .designer import CrashDetected, Designer, ProvisionPlan, TrainingConfig
from .directory import Directory
from .harness import (DirectoryClient, DirectoryServer, NodeRuntime, SimNet,
                      SocketNodeServer, load_mnist_idx, run_baseline,
                      spawn_pool, synthetic_two_gaussians)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CRASH = 3
EXIT_VALIDATION = 4
EXIT_IO = 5


class ConfigFileError(Exception):
    pass


def parse_config(path: str) -> dict:
    """key = value lines; every error names its line number."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigFileError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigFileError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        values[key.strip()] = value.strip()
    return values


def parse_model(text: str):
    """Layer chains like: linear:784x128,relu | linear:128x64,relu | ...

    Layers are separated by '|', primitives inside a layer by ','.
    """
    chains = []
    for layer_text in text.split("|"):
        chain = []
        for prim in layer_text.split(","):
            prim = prim.strip().lower()
            if prim.startswith(nn.LINEAR + ":"):
                dims = prim.split(":", 1)[1]
                in_dim, _, out_dim = dims.partition("x")
                chain.append(nn.linear(int(in_dim), int(out_dim)))
            elif prim != nn.LINEAR and prim in nn.PRIMITIVE_KINDS:
                chain.append(nn.PrimitiveOp(prim))
            else:
                raise ConfigFileError(f"unknown primitive {prim!r} in model")
        chains.append(chain)
    return chains


TABLE_MODEL = "linear:784x128,relu | linear:128x64,relu | linear:64x10 | logsoftmax | nllloss"


def _load_dataset(cfg: dict, prefix: str, seed: int) -> harness.Dataset:
    kind = cfg.get(prefix + "data", "synthetic")
    limit = int(cfg[prefix + "limit"]) if prefix + "limit" in cfg else None
    if limit is not None and limit < 1:
        raise ConfigFileError(f"{prefix}limit = {limit}: must be at least 1")
    if kind == "mnist":
        ds = load_mnist_idx(cfg[prefix + "images"], cfg[prefix + "labels"], limit=limit)
    elif kind == "synthetic":
        ds = synthetic_two_gaussians(
            n=512 if limit is None else limit,
            dim=int(cfg.get("input_dim", 784)),
            seed=seed,
        )
    else:
        raise ConfigFileError(f"unknown data kind {kind!r}")
    return ds


def _datasets(cfg: dict, seed: int):
    """(training set, test set or None); scoring uses the test set if any. A
    synthetic test set comes from a seed stream the training set never uses."""
    train = _load_dataset(cfg, "", seed)
    if "test_data" not in cfg:
        return train, None
    holdout_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    return train, _load_dataset(cfg, "test_", holdout_seed)


def _flag(text: str) -> bool:
    value = text.lower()
    if value not in ("true", "false"):
        raise ConfigFileError(f"expected true or false, got {text!r}")
    return value == "true"


def _given(**fields) -> dict:
    """Parse each (parse, text) field whose text the config file sets; the
    callee's own defaults cover the fields it leaves out."""
    return {name: parse(text) for name, (parse, text) in fields.items() if text is not None}


def _training_config(cfg: dict) -> TrainingConfig:
    return TrainingConfig(**_given(
        epochs=(int, cfg.get("epochs")),
        batch_size=(int, cfg.get("batch_size")),
        learning_rate=(float, cfg.get("learning_rate")),
        momentum=(float, cfg.get("momentum")),
        seed=(int, cfg.get("seed")),
        shuffle=(_flag, cfg.get("shuffle")),
        time_bound_T=(float, cfg.get("time_bound")),
        hold_first_layer=(_flag, cfg.get("hold_first_layer")),
        hold_last_layer=(_flag, cfg.get("hold_last_layer")),
    ))


@click.group()
@click.option("--verbose", is_flag=True, help="log node/designer events to stderr")
def main(verbose):
    """MixNN: decentralized layer-per-server training behind onion routing."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s",
    )


@main.command()
@click.option("--out", required=True, type=click.Path(), help="basename for .pk/.sk files")
@click.option("--seed", default=None,
              help="hex seed for reproducible test keys: the X25519 private key is SHA-256(seed)")
def keygen(out, seed):
    """Generate a key pair; the secret key file is mode 0600 from the start."""
    kp = gen_keypair(bytes.fromhex(seed) if seed else None)
    try:
        with open(out + ".pk", "w", encoding="utf-8") as f:
            f.write(base64.b64encode(kp.pk).decode() + "\n")
        private = stat.S_IRUSR | stat.S_IWUSR
        fd = os.open(out + ".sk", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, private)
        with open(fd, "w", encoding="utf-8") as f:
            os.fchmod(fd, private)  # an existing file keeps its mode through O_CREAT
            f.write(base64.b64encode(kp.sk).decode() + "\n")
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    click.echo(f"wrote {out}.pk and {out}.sk")


def _read_keypair(basename: str) -> KeyPair:
    """The pair keygen wrote. Raises ValueError unless both keys are
    KEY_LEN bytes and the secret key derives the public key."""
    with open(basename + ".pk", encoding="utf-8") as f:
        pk = base64.b64decode(f.read().strip())
    with open(basename + ".sk", encoding="utf-8") as f:
        sk = base64.b64decode(f.read().strip())
    if len(pk) != KEY_LEN or len(sk) != KEY_LEN:
        raise ValueError(f"keys must be {KEY_LEN} bytes, got {len(pk)} (.pk) and {len(sk)} (.sk)")
    kp = KeyPair(pk=pk, sk=sk)
    if kp.private.public_key().public_bytes_raw() != pk:
        raise ValueError(".pk is not the public key of .sk")
    return kp


def _serve_until_signalled(server, banner: str):
    """Serve until SIGINT or SIGTERM, then stop and exit 0. The handlers are
    set before the banner and also replace an inherited SIG_IGN."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, frame: sys.exit(EXIT_OK))
    server.start()
    click.echo(banner)
    try:
        server.join()
    finally:
        server.stop()


@main.command("directory")
@click.option("--listen", default="127.0.0.1", help="host to bind (ephemeral port)")
@click.option("--store", default=None, type=click.Path(), help="append-only record store")
def directory_cmd(listen, store):
    """Run the registration authority until SIGINT or SIGTERM."""
    server = DirectoryServer(Directory(store_path=store), host=listen)
    _serve_until_signalled(server, f"directory listening on {server.address}")


@main.command("node")
@click.option("--listen", default="127.0.0.1", help="host to bind (ephemeral port)")
@click.option("--key", "key_path", required=True, help="key file basename from keygen")
@click.option("--directory", "directory_addr", required=True, help="directory host:port")
@click.option("--node-id", default=None, help="defaults to host:port")
@click.option("--packet-len", default=onion.DEFAULT_PACKET_LEN, show_default=True)
def node_cmd(listen, key_path, directory_addr, node_id, packet_len):
    """Run one layer server: register, then serve until SIGINT or SIGTERM."""
    try:
        kp = _read_keypair(key_path)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except ValueError as exc:  # binascii.Error too
        click.echo(f"bad key pair {key_path}: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    runtime = NodeRuntime(node_id or "pending", kp, packet_len=packet_len)
    server = SocketNodeServer(runtime, host=listen)
    if node_id is None:
        runtime.state.node_id = str(server.address)
    try:
        client = DirectoryClient(Address.parse(directory_addr))
        client.register(KeyRecord(runtime.state.node_id, server.address, kp.pk, {}))
    except Exception as exc:
        click.echo(f"registration failed: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    _serve_until_signalled(server, f"node {runtime.state.node_id} listening on {server.address}")


@contextlib.contextmanager
def _exit_codes(out: str | None = None):
    """Turn a command's failure into its exit code; on a crash, the partial
    metrics go to `out` when given."""
    try:
        yield
    except (ConfigFileError, ValueError) as exc:  # ConfigError and CapacityError too
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except CrashDetected as exc:
        click.echo(f"crash detected: {exc}", err=True)
        if out and exc.metrics is not None:  # partial rows plus the crash event
            harness.write_metrics(out, exc.metrics)
        sys.exit(EXIT_CRASH)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_IO)


@contextlib.contextmanager
def _initialized_cascade(cfg: dict):
    """Pool (simulated unless mode=socket) and designer per the config; then
    provision, arm the fault plan, send the loop message and initialize the
    model. Yields (designer, cascade, config) and tears the world down."""
    config = _training_config(cfg)
    packet_len = int(cfg.get("packet_len", onion.DEFAULT_PACKET_LEN))
    chains = parse_model(cfg.get("model", TABLE_MODEL))
    model = nn.make_layer_specs(chains, config.seed)
    remote = len(model) - int(config.hold_first_layer) - int(config.hold_last_layer)
    r = int(cfg.get("r", 0))
    plan = ProvisionPlan(n=remote + r, p=remote, r=r,
                         selection_seed=int(cfg.get("selection_seed", config.seed)))
    mode = cfg.get("mode", "simulated")
    if mode == "simulated":
        net = SimNet(**_given(latency=(float, cfg.get("latency")),
                              proc_delay=(float, cfg.get("proc_delay"))))
        dir_obj = Directory()
        pool = spawn_pool(net, int(cfg.get("pool_size", plan.n * 2 + 2)), dir_obj,
                          packet_len=packet_len)
        channel = net.designer_channel()
        cleanup = pool.stop
    elif mode == "socket":
        if "fault_plan" in cfg:
            raise ConfigFileError("fault_plan needs mode = simulated")
        dir_obj = DirectoryClient(Address.parse(cfg["directory"]))
        pool = None
        channel = harness.SocketChannel(packet_len=packet_len)
        cleanup = channel.stop
    else:
        raise ConfigFileError(f"unknown mode {mode!r}")
    try:
        designer = Designer(channel, gen_keypair())
        cascade = designer.provision(dir_obj.list(), model, plan, config=config,
                                     packet_len=packet_len)
        if "fault_plan" in cfg:
            with open(cfg["fault_plan"], encoding="utf-8") as f:
                harness.inject_fault(harness.parse_fault_plan(f.read()), pool, cascade)
        designer.send_designer_loop(cascade, **_given(timeout=(float, cfg.get("time_bound"))))
        designer.initialize_model(cascade, config)
        yield designer, cascade, config
    finally:
        cleanup()


def _run_training(cfg: dict):
    with _initialized_cascade(cfg) as (designer, cascade, config):
        train_ds, test_ds = _datasets(cfg, config.seed)
        metrics = designer.train(
            cascade, train_ds.images, train_ds.labels, config,
            test_data=test_ds.images if test_ds else None,
            test_labels=test_ds.labels if test_ds else None,
        )
        holdout = test_ds or train_ds
        verdict = True
        if "threshold" in cfg:
            verdict = designer.validate_model(cascade, holdout.images, holdout.labels,
                                              float(cfg["threshold"]), config=config)
        return metrics, verdict


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=None, type=click.Path(), help="metrics CSV path")
def train_cmd(config_path, out):
    """Provision a cascade and run the training loop per the config file."""
    with _exit_codes(out):
        metrics, verdict = _run_training(parse_config(config_path))
    if out:
        harness.write_metrics(out, metrics)
    else:
        click.echo(metrics.to_csv(), nl=False)
    if not verdict:
        click.echo("validation failed: model below threshold", err=True)
        sys.exit(EXIT_VALIDATION)


@main.command("test")
@click.option("--config", "config_path", required=True, type=click.Path())
def test_cmd(config_path):
    """Train per config, then report test-set (else training-set) accuracy."""
    with _exit_codes():
        cfg = parse_config(config_path)
        with _initialized_cascade(cfg) as (designer, cascade, config):
            train_ds, test_ds = _datasets(cfg, config.seed)
            designer.train(cascade, train_ds.images, train_ds.labels, config)
            holdout = test_ds or train_ds
            accuracy = designer.test(cascade, holdout.images, holdout.labels,
                                     batch_size=config.batch_size, config=config)
    click.echo(f"accuracy={accuracy!r}")


@main.command("baseline")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=None, type=click.Path(), help="metrics CSV path")
def baseline_cmd(config_path, out):
    """Run the same model/config in a single process (the oracle)."""
    with _exit_codes():
        cfg = parse_config(config_path)
        config = _training_config(cfg)
        model = nn.make_layer_specs(parse_model(cfg.get("model", TABLE_MODEL)), config.seed)
        train_ds, test_ds = _datasets(cfg, config.seed)
        _, metrics = run_baseline(
            model, train_ds.images, train_ds.labels, config,
            test_data=test_ds.images if test_ds else None,
            test_labels=test_ds.labels if test_ds else None,
        )
    if out:
        harness.write_metrics(out, metrics)
    else:
        click.echo(metrics.to_csv(), nl=False)


def read_metrics_csv(path: str):
    """(epoch, accuracy) pairs from a metrics CSV, ignoring comments. A row
    without an integer epoch and a numeric accuracy raises ValueError."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("epoch,"):
                continue
            parts = line.split(",")
            try:
                rows.append((int(parts[0]), float(parts[2])))
            except (IndexError, ValueError):
                raise ValueError(
                    f"malformed metrics file {path}: line {lineno}: {line!r}") from None
    return rows


@main.command("compare")
@click.option("--metrics", "paths", nargs=2, required=True, type=click.Path())
@click.option("--threshold", default=0.001, show_default=True)
def compare_cmd(paths, threshold):
    """Per-epoch accuracy deltas between two runs; exit 0 iff max |delta| is
    below the threshold."""
    try:
        a, b = read_metrics_csv(paths[0]), read_metrics_csv(paths[1])
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_USAGE)
    if len(a) != len(b) or any(ra[0] != rb[0] for ra, rb in zip(a, b)):
        click.echo(f"epoch mismatch: {len(a)} vs {len(b)} rows", err=True)
        sys.exit(EXIT_USAGE)
    deltas = [abs(ra[1] - rb[1]) for ra, rb in zip(a, b)]
    for (epoch, acc_a), (_, acc_b), d in zip(a, b, deltas):
        click.echo(f"epoch {epoch}: {acc_a:.6f} vs {acc_b:.6f} delta={d:.6f}")
    max_delta = max(deltas) if deltas else 0.0
    click.echo(f"max_delta={max_delta:.6f}")
    if max_delta >= threshold:
        sys.exit(1)


if __name__ == "__main__":
    main()
