"""Everything around the protocol: transports, node runtimes, fault
injection, dataset ingestion, and the single-process baseline oracle.

Two transports expose identical send/receive-with-deadline semantics:

* SimNet - a deterministic single-threaded scheduler with virtual time
  whose only events are packet deliveries. Per-hop latency and processing
  delay are fixed, so whole runs are reproducible bit for bit.
* SocketFabric - real TCP on loopback. Each connection is served on its
  own thread and carries only fixed-length packets, each opening with the
  magic and version that parse_packet checks. A packet is read with
  recv_into into its own L-byte bytearray and handed on without a copy; a
  node handles one at a time under a lock and dials the next hop outside it.
"""

import heapq
import itertools
import logging
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import directory as directory_mod
from . import nn, node, onion
from .crypto import Address, KeyRecord, gen_keypair
from .designer import RunMetrics, EpochRow, Session, TrainingConfig
from .directory import Directory
from .node import NodeState, Send

log = logging.getLogger("mixnn.harness")

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049
MAX_FRAME = 1 << 20  # bytes in one directory frame, checked before allocating


# ---------------------------------------------------------------------------
# node runtime: the transport-independent glue around NodeState

class NodeRuntime:
    """One layer server: packet handling plus fault hooks the simulated
    harness can arm (kill/delay/tamper)."""

    def __init__(self, node_id: str, keypair, packet_len: int = onion.DEFAULT_PACKET_LEN):
        self.state = NodeState(node_id=node_id, keypair=keypair, packet_len=packet_len)
        self.killed = False
        self.kill_at_iteration = None
        self.kill_at_time = None
        self.tamper_at_iteration = None
        self.extra_delay = 0.0

    @property
    def node_id(self):
        return self.state.node_id

    def on_packet(self, src, data: bytes, now: float | None = None):
        if self.killed:
            return None
        if self.kill_at_time is not None and now is not None and now >= self.kill_at_time:
            self.killed = True
            return None
        if (self.kill_at_iteration is not None
                and self.state.forward_count >= self.kill_at_iteration):
            self.killed = True
            log.info("node=%s outcome=killed", self.node_id)
            return None
        if (self.tamper_at_iteration is not None
                and self.state.backward_count >= self.tamper_at_iteration - 1):
            self.state.tamper_gradients = True
        action = node.handle_packet(self.state, data, src)
        return action if isinstance(action, Send) else None


# ---------------------------------------------------------------------------
# simulated transport

@dataclass(order=True)
class _Event:
    """One packet delivery, ordered by arrival time, then by send order."""
    at: float
    seq: int
    dst: object = field(compare=False)
    src: object = field(compare=False)
    data: bytes = field(compare=False)


class _SimNode:
    def __init__(self, runtime: NodeRuntime):
        self.runtime = runtime
        self.free_at = 0.0


class SimNet:
    """Deterministic virtual-time network whose only events are packet
    deliveries: in-order per-channel delivery, sequential per-node
    processing. `seed` seeds nothing; nothing here is random."""

    def __init__(self, latency: float = 0.001, proc_delay: float = 0.0005, seed: int = 0):
        self.latency = latency
        self.proc_delay = proc_delay
        self.now = 0.0
        self._seq = itertools.count()
        self._events: list[_Event] = []
        self._nodes: dict[Address, _SimNode] = {}
        self._mailboxes: dict[Address, deque] = {}

    def add_runtime(self, addr: Address, runtime: NodeRuntime):
        self._nodes[addr] = _SimNode(runtime)

    def designer_channel(self, addr: Address | None = None) -> "SimChannel":
        addr = addr or Address("designer.sim", 1)
        self._mailboxes[addr] = deque()
        return SimChannel(self, addr)

    def send(self, src, dst: Address, data: bytes, at: float | None = None):
        at = self.now if at is None else at
        heapq.heappush(self._events, _Event(at + self.latency, next(self._seq), dst, src, data))

    def _process(self, ev: _Event):
        if ev.dst in self._mailboxes:
            self._mailboxes[ev.dst].append(ev.data)
            return
        simnode = self._nodes.get(ev.dst)
        if simnode is None:
            log.warning("sim: packet for unknown address %s dropped", ev.dst)
            return
        start = max(ev.at, simnode.free_at)
        done = start + self.proc_delay + simnode.runtime.extra_delay
        simnode.free_at = done
        action = simnode.runtime.on_packet(ev.src, ev.data, now=ev.at)
        if action is not None:
            self.send(ev.dst, action.dst, action.data, at=done)

    def run_until_mailbox(self, addr: Address, deadline: float) -> bool:
        """Advance virtual time until a message lands in addr's mailbox or the
        deadline passes. Returns True when mail is waiting."""
        box = self._mailboxes[addr]
        while not box:
            if not self._events or self._events[0].at > deadline:
                self.now = deadline
                return False
            ev = heapq.heappop(self._events)
            self.now = ev.at
            self._process(ev)
        return True


class SimChannel:
    """Designer endpoint on a SimNet."""

    def __init__(self, net: SimNet, addr: Address):
        self._net = net
        self.address = addr

    def send(self, dst: Address, data: bytes):
        self._net.send(self.address, dst, data)

    def recv(self, timeout: float) -> bytes:
        if self._net.run_until_mailbox(self.address, self._net.now + timeout):
            return self._net._mailboxes[self.address].popleft()
        raise TimeoutError(f"no message within {timeout}")

    def now(self) -> float:
        return self._net.now


# ---------------------------------------------------------------------------
# socket transport

def _recv_exact(conn: socket.socket, n: int):
    """Read exactly n bytes with recv_into into one fresh bytearray; None if
    the peer closes first."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = conn.recv_into(view[got:])
        if not k:
            return None
        got += k
    return buf


def _recv_frame(conn: socket.socket):
    """One directory frame (u32 BE length, then UTF-8 text) as a str; None
    if the peer closes first or the header claims more than MAX_FRAME bytes."""
    header = _recv_exact(conn, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        return None
    body = _recv_exact(conn, length)
    return None if body is None else body.decode("utf-8")


def _send_frame(conn: socket.socket, text: str):
    body = text.encode("utf-8")
    conn.sendall(struct.pack(">I", len(body)) + body)


def _dial(dst: Address, data: bytes):
    with socket.create_connection((dst.host, dst.port), timeout=10.0) as s:
        s.sendall(data)


def _read_packets(conn: socket.socket, packet_len: int):
    """The packets of one connection, packet_len bytes each, until EOF."""
    while (data := _recv_exact(conn, packet_len)) is not None:
        yield data


class _AcceptLoop(threading.Thread):
    """One listening socket; each connection is served on its own daemon
    thread by the subclass's _serve(conn, peer), so an idle client delays no
    other. A connection that fails (10 s without bytes, bad bytes, a handler
    error) is logged and closed. stop() closes the listener; connections
    already accepted run to their end."""

    def __init__(self, host: str, name: str):
        super().__init__(daemon=True, name=name)
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.1)
        self.address = Address(host, self._listener.getsockname()[1])
        self._stop_requested = threading.Event()

    def run(self):
        while not self._stop_requested.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_one, args=(conn, Address(peer[0], peer[1])),
                             daemon=True, name=f"{self.name}-conn").start()
        self._listener.close()

    def _serve_one(self, conn, src):
        with conn:
            conn.settimeout(10.0)
            try:
                self._serve(conn, src)
            except Exception:
                log.exception("%s: dropped connection from %s", self.name, src)

    def stop(self):
        self._stop_requested.set()
        self.join(timeout=5.0)


class SocketNodeServer(_AcceptLoop):
    """One node over TCP: packets are handled one at a time under a lock, so
    NodeState stays single-threaded; the next hop is dialled outside it."""

    def __init__(self, runtime: NodeRuntime, host: str = "127.0.0.1"):
        super().__init__(host, name=f"node-{runtime.node_id}")
        self.runtime = runtime
        self._lock = threading.Lock()

    def _serve(self, conn, peer):
        for data in _read_packets(conn, self.runtime.state.packet_len):
            with self._lock:
                action = self.runtime.on_packet(peer, data, now=time.monotonic())
            if action is not None:
                try:
                    _dial(action.dst, action.data)
                except OSError as exc:
                    log.warning("node=%s outcome=send-failed dst=%s err=%s",
                                self.runtime.node_id, action.dst, exc)


class SocketChannel(_AcceptLoop):
    """Designer endpoint over real sockets; connection threads feed a queue."""

    def __init__(self, packet_len: int = onion.DEFAULT_PACKET_LEN, host: str = "127.0.0.1"):
        super().__init__(host, name="designer-recv")
        self.packet_len = packet_len
        self._queue: queue.Queue = queue.Queue()
        self.start()

    def _serve(self, conn, peer):
        for data in _read_packets(conn, self.packet_len):
            self._queue.put(data)

    def send(self, dst: Address, data: bytes):
        _dial(dst, data)

    def recv(self, timeout: float) -> bytes:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no message within {timeout}") from None

    def now(self) -> float:
        return time.monotonic()


class DirectoryServer(_AcceptLoop):
    """Length-prefixed text frames in front of a Directory."""

    def __init__(self, directory: Directory, host: str = "127.0.0.1"):
        super().__init__(host, name="directory")
        self.directory = directory

    def _serve(self, conn, peer):
        request = _recv_frame(conn)
        if request is not None:
            _send_frame(conn, directory_mod.handle_frame(self.directory, request))


class DirectoryClient:
    """Speaks the REGISTER/LIST frame protocol; same interface as Directory."""

    def __init__(self, addr: Address):
        self.addr = addr

    def _request(self, text: str) -> str:
        with socket.create_connection((self.addr.host, self.addr.port), timeout=10.0) as s:
            _send_frame(s, text)
            response = _recv_frame(s)
        if response is None:
            raise RuntimeError(f"directory reply missing, cut short or over {MAX_FRAME} bytes")
        return response

    def register(self, rec: KeyRecord):
        response = self._request(f"REGISTER {rec.to_line()}")
        if response != "OK":
            raise RuntimeError(response)

    def list(self, metadata_filter: dict | None = None) -> list:
        text = "LIST"
        if metadata_filter:
            text += " " + ";".join(f"{k}={v}" for k, v in sorted(metadata_filter.items()))
        return directory_mod.parse_records_response(self._request(text))


# ---------------------------------------------------------------------------
# pools: spawn m registered, listening nodes on either transport

class Pool:
    def __init__(self, runtimes, records, servers=None):
        self.runtimes = {rt.node_id: rt for rt in runtimes}
        self.records = records
        self._servers = servers or []

    def runtime(self, node_id: str) -> NodeRuntime:
        return self.runtimes[node_id]

    def stop(self):
        for server in self._servers:
            server.stop()


def spawn_pool(fabric, m: int, directory, packet_len: int = onion.DEFAULT_PACKET_LEN) -> Pool:
    """Create m layer servers with fresh key pairs, register them, and leave
    them listening on the given fabric (SimNet or "socket")."""
    runtimes, records, servers = [], [], []
    for k in range(m):
        node_id = f"n{k:03d}"
        runtime = NodeRuntime(node_id, gen_keypair(), packet_len=packet_len)
        if isinstance(fabric, SimNet):
            addr = Address(f"{node_id}.sim", 9000)
            fabric.add_runtime(addr, runtime)
        else:
            server = SocketNodeServer(runtime)
            server.start()
            servers.append(server)
            addr = server.address
        rec = KeyRecord(node_id, addr, runtime.state.keypair.pk, {})
        directory.register(rec)
        runtimes.append(runtime)
        records.append(rec)
    return Pool(runtimes, records, servers)


def collect_cascade_params(cascade: Session, pool: Pool):
    """Parameter lists for every actual layer, in model order, including any
    designer-held boundary layers. Shapes match run_baseline's output."""
    out = [cascade.first_state[0]] if cascade.first_state is not None else []
    for e in cascade.entries:
        if e.layer is not None:
            out.append(pool.runtime(e.node_id).state.params)
    if cascade.last_state is not None:
        out.append(cascade.last_state[0])
    return out


# ---------------------------------------------------------------------------
# fault injection (simulated mode)

@dataclass
class FaultAction:
    node: str  # node_id or "slot:<k>" (1-based cascade slot)
    action: str  # kill | delay | tamper
    at_iteration: int | None = None
    at_time: float | None = None
    delay: float = 0.0


@dataclass
class FaultPlan:
    actions: list = field(default_factory=list)


def inject_fault(plan: FaultPlan, pool: Pool, cascade=None):
    """Arm the plan's actions on the pool's runtimes."""
    for act in plan.actions:
        node_id = act.node
        if node_id.startswith("slot:"):
            if cascade is None:
                raise ValueError("slot-based fault needs a cascade")
            slot = int(node_id.split(":", 1)[1])
            if not 1 <= slot <= cascade.n:
                raise ValueError(
                    f"fault plan entry node={act.node}: slots run 1..{cascade.n}")
            node_id = cascade.entries[slot - 1].node_id
        if node_id not in pool.runtimes:
            raise ValueError(f"fault plan entry node={act.node}: unknown node_id")
        rt = pool.runtimes[node_id]
        if act.action == "kill":
            if act.at_iteration is None and act.at_time is None:
                rt.killed = True
            rt.kill_at_iteration = act.at_iteration
            rt.kill_at_time = act.at_time
        elif act.action == "delay":
            rt.extra_delay = act.delay
        elif act.action == "tamper":
            rt.tamper_at_iteration = act.at_iteration or 1
        else:
            raise ValueError(f"unknown fault action {act.action!r}")


def parse_fault_plan(text: str) -> FaultPlan:
    """One action per line: node=<id|slot:k> action=<kill|delay|tamper>
    [at_iteration=N] [at_time=S] [delay=S]. Blank lines and # comments ok."""
    plan = FaultPlan()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kv = {}
        for item in line.split():
            k, sep, v = item.partition("=")
            if not sep:
                raise ValueError(f"fault plan line {lineno}: bad token {item!r}")
            kv[k] = v
        try:
            plan.actions.append(FaultAction(
                node=kv["node"],
                action=kv["action"],
                at_iteration=int(kv["at_iteration"]) if "at_iteration" in kv else None,
                at_time=float(kv["at_time"]) if "at_time" in kv else None,
                delay=float(kv.get("delay", 0.0)),
            ))
        except KeyError as exc:
            raise ValueError(f"fault plan line {lineno}: missing {exc}") from None
    return plan


# ---------------------------------------------------------------------------
# datasets

@dataclass
class Dataset:
    images: np.ndarray  # N x dim float32 in [0, 1]
    labels: np.ndarray  # N int64


def _read_idx_header(f, expected_magic: int, path: str):
    header = f.read(4)
    if len(header) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", header)
    if magic != expected_magic:
        raise ValueError(f"{path}: bad IDX magic {magic:#010x}, expected {expected_magic:#010x}")
    ndim = magic & 0xFF
    dims = []
    for _ in range(ndim):
        raw = f.read(4)
        if len(raw) < 4:
            raise ValueError(f"{path}: truncated IDX dimensions")
        dims.append(struct.unpack(">I", raw)[0])
    return dims


def load_mnist_idx(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Load IDX-format images/labels, flattened to N x (rows*cols) and scaled
    to [0, 1] by dividing by 255."""
    with open(images_path, "rb") as f:
        dims = _read_idx_header(f, MNIST_IMAGE_MAGIC, images_path)
        count, rows, cols = dims
        n = count if limit is None else min(limit, count)
        raw = f.read(n * rows * cols)
        if len(raw) < n * rows * cols:
            raise ValueError(f"{images_path}: expected {n * rows * cols} pixel bytes")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as f:
        (label_count,) = _read_idx_header(f, MNIST_LABEL_MAGIC, labels_path)
        if label_count != count:
            raise ValueError(
                f"image file has {count} items but label file has {label_count}"
            )
        raw = f.read(n)
        if len(raw) < n:
            raise ValueError(f"{labels_path}: expected {n} label bytes")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return Dataset(images=(images.astype(np.float32) / np.float32(255.0)), labels=labels)


def synthetic_two_gaussians(n: int = 512, dim: int = 784, seed: int = 0) -> Dataset:
    """Offline stand-in for MNIST: two Gaussian classes, each lighting up its
    own block of pixels over a near-zero background, clipped to [0, 1].
    Labels are 0/1. dim must be at least 2, one pixel per class."""
    if dim < 2:
        raise ValueError(f"dim = {dim}: two classes need at least 2 pixels")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A55]))
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    images = rng.uniform(0.0, 0.05, size=(n, dim)).astype(np.float32)
    block = max(1, dim // 8)
    for c in (0, 1):
        rows = np.where(labels == c)[0]
        patch = rng.normal(0.6, 0.15, size=(len(rows), block))
        images[rows[:, None], np.arange(c * block, (c + 1) * block)[None, :]] = patch
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images=images, labels=labels)


# ---------------------------------------------------------------------------
# single-process baseline: the distributed run's arithmetic oracle

def run_baseline(model_specs, data, labels, config: TrainingConfig,
                 test_data=None, test_labels=None):
    """Train the same model in one process, with the same per-layer calls in
    the same order as the cascade performs them. Returns (params, metrics):
    params is one parameter list per layer, metrics matches designer.train's.
    """
    data = nn.as_matrix(data)
    labels = np.asarray(labels)
    params = [nn.init_layer_params(spec) for spec in model_specs]
    opts = [nn.OptimizerState(p, config.learning_rate, config.momentum) for p in params]
    metrics = RunMetrics()
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_losses = []
        for idx in nn.batch_indices(len(data), config.batch_size,
                                    config.shuffle, config.seed, epoch):
            x, y = data[idx], labels[idx]
            caches = []
            out = x
            for spec, p in zip(model_specs, params):
                out, cache = nn.layer_forward(
                    spec, p, out, labels=y if spec.ends_in_loss() else None
                )
                caches.append(cache)
            loss = out
            g = None
            for i in range(len(model_specs) - 1, -1, -1):
                g = nn.layer_backward(model_specs[i], params[i], opts[i], caches[i], g,
                                      input_grad=i > 0)
            epoch_losses.append(loss)
            metrics.losses.append(loss)
        accuracy = float("nan")
        if test_data is not None:
            logp = baseline_predict(model_specs, params, test_data,
                                    batch_size=config.batch_size)
            accuracy = float(np.mean(np.argmax(logp, axis=1) == np.asarray(test_labels)))
        loss_mean = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        metrics.rows.append(EpochRow(epoch + 1, loss_mean, accuracy,
                                     time.perf_counter() - t0))
    return params, metrics


def baseline_predict(model_specs, params, data, batch_size: int = 64) -> np.ndarray:
    """Test-mode forward pass (loss steps pass through), chunked exactly like
    the designer's test sweeps so results stay bitwise comparable."""
    data = nn.as_matrix(data)
    outs = []
    for start in range(0, len(data), batch_size):
        out = data[start:start + batch_size]
        for spec, p in zip(model_specs, params):
            out, _ = nn.layer_forward(spec, p, out, train=False)
        outs.append(out)
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, 0), dtype=np.float32)


def write_metrics(path: str, metrics: RunMetrics):
    """Metrics CSV plus a run summary as trailing comments."""
    total = sum(r.wall_seconds for r in metrics.rows)
    with open(path, "w", encoding="utf-8") as f:
        f.write(metrics.to_csv())
        f.write(f"# total_seconds={total!r}\n")
        f.write(f"# crashes={len(metrics.crash_events)}\n")
