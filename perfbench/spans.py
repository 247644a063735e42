"""Spans around the public functions of every mixnn layer, recorded from
outside the package.

Each wrapped call records one span: its name, the operation it belongs to
(a training iteration, the test sweep or a set-up), its parent span on the
same thread, start and end, the time its children took and a few measured
quantities (bytes, flops). Span stacks are thread-local because socket hops
run in `SocketNodeServer` threads; the operation id is shared, which is
correct because exactly one packet is in flight at any time. Spans stay in
memory until the run ends.

Functions that other modules bind by name are wrapped at every binding:
`node.py` imports `seal` and `harness.py` imports `gen_keypair` directly, so
wrapping only the `crypto` attributes would miss those calls.
"""

import contextlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

from mixnn import crypto, designer, directory, harness, nn, node, onion

MIB = 1024 * 1024


@contextlib.contextmanager
def patched(patches):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Span:
    __slots__ = ("name", "op", "parent", "thread", "start", "end", "child_ns", "failed", "qty")

    def __init__(self, name, op, parent, thread):
        self.name = name
        self.op = op
        self.parent = parent
        self.thread = thread
        self.child_ns = 0
        self.failed = False
        self.qty = None

    @property
    def ns(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.ns - self.child_ns


def _linear_flop(spec, rows):
    return sum(2 * rows * op.in_dim * op.out_dim for op in spec.chain if op.kind == nn.LINEAR)


def _first_linear_rows(spec, cache):
    for op, saved in zip(spec.chain, cache.saved):
        if op.kind == nn.LINEAR:
            return saved.shape[0]
    return 0


class Tracer:
    """Records spans while installed; `op` names the operation in progress."""

    def __init__(self):
        self.spans = []
        self.op = ("setup", 0)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None):
        """fn wrapped in a span; measure(span, args, kwargs, result) may fill span.qty."""
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer.op, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                tracer.spans.append(span)
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        """One JSON line per span, in the order they ended."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "op": s.op[0], "op_index": s.op[1], "thread": s.thread,
                    "parent": index.get(id(s.parent)), "start_ns": s.start, "ns": s.ns,
                    "self_ns": s.self_ns, "failed": s.failed, **(s.qty or {}),
                }) + "\n")

    # -- what to wrap -------------------------------------------------------

    def patches(self):
        """(owner, attribute, traced function) for every layer boundary."""
        local = self._local

        def forward_qty(span, args, kwargs, result):
            spec, _, x = args[:3]
            train = kwargs.get("train", True)
            span.name = "nn.forward" if train else "nn.test_forward"
            span.qty = {"flop": _linear_flop(spec, x.shape[0])}

        def backward_qty(span, args, kwargs, result):
            spec, cache = args[0], args[3]
            span.qty = {"flop": 2 * _linear_flop(spec, _first_linear_rows(spec, cache))}

        def sealed_qty(span, args, kwargs, result):
            span.qty = {"bytes": len(args[1])}

        def opened_qty(span, args, kwargs, result):
            span.qty = {"bytes": len(result)}

        def packet_qty(span, args, kwargs, result):
            payload_ct, onion_ct, packet_len = args
            body = onion.HEADER_LEN + len(payload_ct) + len(onion_ct)
            span.qty = {"padding": packet_len - body}

        def unwrap_qty(span, args, kwargs, result):
            record, _, next_packet = result
            local.unwrapped = (record, next_packet)
            span.qty = {"next_built": int(next_packet is not None)}

        def handle_qty(span, args, kwargs, result):
            record, next_packet = getattr(local, "unwrapped", (None, None))
            local.unwrapped = (None, None)
            if isinstance(result, node.Drop):
                span.qty = {"drop": 1}
                return
            op = "cover" if record is None or record.cover else record.op.name.lower()
            span.name = f"node.handle_{op}"
            used = next_packet is not None and result.data is next_packet
            span.qty = {"next_used": int(used)}

        def received_qty(span, args, kwargs, result):
            # the read that meets the peer's close can start after the designer
            # has begun the next operation, so it is kept apart
            if result is None:
                span.name = "harness.recv_eof"

        def sim_sent_qty(span, args, kwargs, result):
            span.qty = {"bytes": len(args[3])}  # SimNet.send(self, src, dst, data)

        def dialed_qty(span, args, kwargs, result):
            span.qty = {"bytes": len(args[1])}  # _dial(dst, data)

        handle = self.wrap("node.handle", node.handle_packet, handle_qty)
        seal = self.wrap("crypto.seal", crypto.seal, sealed_qty)
        keygen = self.wrap("crypto.keygen", crypto.gen_keypair)
        w = self.wrap
        D = designer.Designer
        return [
            (nn, "layer_forward", w("nn.forward", nn.layer_forward, forward_qty)),
            (nn, "layer_backward", w("nn.backward", nn.layer_backward, backward_qty)),
            (crypto, "seal", seal),
            (node, "seal", seal),
            (crypto, "open_sealed", w("crypto.open", crypto.open_sealed, opened_qty)),
            (crypto, "gen_keypair", keygen),
            (harness, "gen_keypair", keygen),
            (onion, "build_packet", w("onion.build_packet", onion.build_packet, packet_qty)),
            (onion, "unwrap", w("onion.unwrap", onion.unwrap, unwrap_qty)),
            *[(onion, f, w("onion.pack", getattr(onion, f)))
              for f in ("pack_init", "pack_forward", "pack_backward", "pack_test",
                        "pack_cover_loop", "pack_single_cover", "pack_reply")],
            (onion, "encode_matrix", w("onion.matrix_codec", onion.encode_matrix)),
            (onion, "decode_matrix", w("onion.matrix_codec", onion.decode_matrix)),
            (node, "handle_packet", handle),
            (node, "_relay_or_drop", w("node.relay", node._relay_or_drop)),
            (D, "_await", w("designer.await", D._await)),
            (harness.SimNet, "_process", w("harness.sim_process", harness.SimNet._process)),
            (harness.SimNet, "send", w("harness.sim_send", harness.SimNet.send, sim_sent_qty)),
            (harness, "_dial", w("harness.dial", harness._dial, dialed_qty)),
            (harness, "_recv_exact", w("harness.recv_exact", harness._recv_exact, received_qty)),
            (harness.SocketChannel, "recv",
             w("harness.recv_wait", harness.SocketChannel.recv)),
            (directory.Directory, "register",
             w("directory.register", directory.Directory.register)),
            (directory.Directory, "list", w("directory.list", directory.Directory.list)),
            (harness.DirectoryClient, "register",
             w("directory.client_register", harness.DirectoryClient.register)),
            (harness.DirectoryClient, "list",
             w("directory.client_list", harness.DirectoryClient.list)),
        ]

    def iteration_patch(self, timed_iteration):
        """Designer._iteration as a span that also opens a new operation id."""
        traced = self.wrap("designer.iteration", timed_iteration)
        index = itertools.count()

        def iteration(*args, **kwargs):
            self.op = ("train", next(index))
            return traced(*args, **kwargs)

        return (designer.Designer, "_iteration", iteration)


# ---------------------------------------------------------------------------
# reducing spans to per-layer metrics

class Totals:
    """Span totals of one phase: calls, time, self time and quantities by name."""

    def __init__(self, spans):
        self.calls = Counter()
        self.ns = Counter()
        self.self_ns = Counter()
        self.qty = defaultdict(Counter)
        self.failed = Counter()
        self.under = Counter()  # (child name, parent name) -> ns
        for s in spans:
            self.calls[s.name] += 1
            self.ns[s.name] += s.ns
            self.self_ns[s.name] += s.self_ns
            self.failed[s.name] += s.failed
            if s.qty:
                self.qty[s.name].update(s.qty)
            if s.parent is not None:
                self.under[(s.name, s.parent.name)] += s.ns

    def ms(self, *names, self_time=False):
        table = self.self_ns if self_time else self.ns
        return sum(table[n] for n in names) / 1e6

    def prefixed(self, prefix):
        return [n for n in self.calls if n.startswith(prefix)]


def phase_spans(spans, kind):
    return [s for s in spans if s.op[0] == kind]


def iteration_signatures(spans):
    """Per training iteration: the calls and quantities it made, which must
    be identical for every iteration of a run (all batches have one shape)."""
    by_iter = defaultdict(Counter)
    for s in spans:
        if s.op[0] != "train" or s.name == "harness.recv_eof":
            continue
        sig = by_iter[s.op[1]]
        sig[s.name] += 1
        if s.qty:
            for k, v in s.qty.items():
                sig[f"{s.name}:{k}"] += v
    return by_iter


WAITS = ("harness.recv_wait", "harness.recv_eof")  # blocked, not working


def layer_self_ms(totals):
    """Self time by layer (the module prefix of the span name), waits left out."""
    out = Counter()
    for name, ns in totals.self_ns.items():
        if name not in WAITS:
            out[name.split(".", 1)[0]] += ns / 1e6
    return out


def per_layer_metrics(spans, iters, batches, setups, is_socket):
    """Every per-layer metric, normalized per training iteration, per test
    batch or per set-up."""
    tr = Totals(phase_spans(spans, "train"))
    te = Totals(phase_spans(spans, "test"))
    su = Totals(phase_spans(spans, "setup"))
    every = Totals(spans)
    nn_s = tr.ms("nn.forward", "nn.backward") / 1e3
    gflop = (tr.qty["nn.forward"]["flop"] + tr.qty["nn.backward"]["flop"]) / 1e9
    built = tr.qty["onion.unwrap"]["next_built"]
    forwarded = sum(tr.qty[n]["next_used"] for n in tr.prefixed("node.handle"))
    handles = sum(tr.calls[n] for n in tr.prefixed("node.handle"))
    send = "harness.dial" if is_socket else "harness.sim_send"
    reg = "directory.client_register" if is_socket else "directory.register"
    lst = "directory.client_list" if is_socket else "directory.list"
    designer_pack = tr.under[("onion.pack", "designer.iteration")]
    reply_open = tr.under[("onion.unwrap", "designer.await")]
    m = {
        "nn.forward_ms_per_iter": ("ms", tr.ms("nn.forward") / iters),
        "nn.backward_ms_per_iter": ("ms", tr.ms("nn.backward") / iters),
        "nn.test_forward_ms_per_batch": ("ms", te.ms("nn.test_forward") / batches),
        "nn.gflop_per_iter": ("GFLOP", gflop / iters),
        "nn.gflops": ("GFLOP/s", gflop / nn_s if nn_s else 0.0),
        "crypto.seal_calls_per_iter": ("count", tr.calls["crypto.seal"] / iters),
        "crypto.seal_ms_per_iter": ("ms", tr.ms("crypto.seal") / iters),
        "crypto.sealed_mib_per_iter": ("MiB", tr.qty["crypto.seal"]["bytes"] / MIB / iters),
        "crypto.open_calls_per_iter": ("count", tr.calls["crypto.open"] / iters),
        "crypto.open_ms_per_iter": ("ms", tr.ms("crypto.open") / iters),
        "crypto.opened_mib_per_iter": ("MiB", tr.qty["crypto.open"]["bytes"] / MIB / iters),
        "crypto.open_failed": ("count", every.failed["crypto.open"]),
        "crypto.keygen_calls": ("count", su.calls["crypto.keygen"] / setups),
        "crypto.keygen_s": ("s", su.ms("crypto.keygen") / 1e3 / setups),
        "onion.build_packet_calls_per_iter": ("count", tr.calls["onion.build_packet"] / iters),
        "onion.build_packet_ms_per_iter": ("ms", tr.ms("onion.build_packet") / iters),
        "onion.padding_mib_per_iter":
            ("MiB", tr.qty["onion.build_packet"]["padding"] / MIB / iters),
        "onion.unwrap_calls_per_iter": ("count", tr.calls["onion.unwrap"] / iters),
        "onion.unwrap_self_ms_per_iter": ("ms", tr.ms("onion.unwrap", self_time=True) / iters),
        "onion.pack_self_ms_per_iter": ("ms", tr.ms("onion.pack", self_time=True) / iters),
        "onion.matrix_codec_ms_per_iter": ("ms", tr.ms("onion.matrix_codec") / iters),
        "onion.next_packet_built_per_iter": ("count", built / iters),
        "onion.next_packet_forwarded_per_iter": ("count", forwarded / iters),
        "onion.next_packet_used_ratio": ("ratio", forwarded / built if built else 1.0),
        "node.handle_calls_per_iter": ("count", handles / iters),
        "node.handle_forward_calls_per_iter": ("count", tr.calls["node.handle_forward"] / iters),
        "node.handle_backward_calls_per_iter":
            ("count", tr.calls["node.handle_backward"] / iters),
        "node.handle_test_calls_per_batch": ("count", te.calls["node.handle_test"] / batches),
        "node.handle_ms_per_iter": ("ms", tr.ms(*tr.prefixed("node.handle")) / iters),
        "node.handle_self_ms_per_iter":
            ("ms", tr.ms(*tr.prefixed("node.handle"), self_time=True) / iters),
        "node.relay_ms_per_iter": ("ms", tr.ms("node.relay") / iters),
        "node.drops": ("count", sum(t.qty[n]["drop"] for t in (tr, te)
                                    for n in t.prefixed("node.handle"))),
        "designer.pack_ms_per_iter": ("ms", designer_pack / 1e6 / iters),
        "designer.reply_open_ms_per_iter": ("ms", reply_open / 1e6 / iters),
        "designer.await_ms_per_iter": ("ms", tr.ms("designer.await") / iters),
        "harness.packets_per_iter": ("count", tr.calls[send] / iters),
        "harness.wire_mib_per_iter": ("MiB", tr.qty[send]["bytes"] / MIB / iters),
        "harness.sim_events_per_iter": ("count", tr.calls["harness.sim_process"] / iters),
        "harness.sim_self_ms_per_iter":
            ("ms", tr.ms("harness.sim_process", "harness.sim_send", self_time=True) / iters),
        "harness.dial_calls_per_iter": ("count", tr.calls["harness.dial"] / iters),
        "harness.dial_ms_per_iter": ("ms", tr.ms("harness.dial") / iters),
        "harness.recv_exact_ms_per_iter": ("ms", tr.ms("harness.recv_exact") / iters),
        "harness.recv_wait_ms_per_iter": ("ms", tr.ms("harness.recv_wait") / iters),
        "harness.send_failed": ("count", every.failed["harness.dial"]),
        "directory.register_ms": ("ms", su.ms(reg) / setups),
        "directory.list_ms": ("ms", su.ms(lst) / setups),
        "trace.unattributed_ms_per_iter":
            ("ms", tr.ms("designer.iteration", self_time=True) / iters),
    }
    return m, tr
