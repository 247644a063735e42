"""Layer-server packet handling.

A node unwraps one onion layer, checks the op against its state once, in
handle_packet, performs its DL or relay role, re-seals whatever it must
forward, and hands back a single outbound (address, packet) action. Every
route, INIT and the loop message included, ends at a last hop that answers
the designer; a record that names neither a next hop nor a return address,
or names a key that is not KEY_LEN bytes, is dropped before any state
changes. All state lives in NodeState; nothing here touches a transport, so
the same logic runs under the simulated scheduler and real sockets.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import nn, onion
from .crypto import KEY_LEN, Address, KeyPair, DecryptionError, seal
from .onion import OpCode, OnionRecord, FramingError, ROLE_ACTUAL, ROLE_DUMMY

log = logging.getLogger("mixnn.node")


class ProtocolError(RuntimeError):
    """A validly decrypted packet that the node's state machine must reject."""


@dataclass
class Send:
    dst: Address
    data: bytearray


@dataclass
class Drop:
    reason: str


ROLE_UNINIT = "uninitialized"


@dataclass
class NodeState:
    node_id: str
    keypair: KeyPair
    packet_len: int = onion.DEFAULT_PACKET_LEN
    role: str = ROLE_UNINIT
    spec: nn.LayerSpec | None = None
    params: list | None = None
    opt: nn.OptimizerState | None = None
    cache: nn.LayerCache | None = None
    compute_count: int = 0  # DL kernel invocations, for instrumentation
    forward_count: int = 0
    backward_count: int = 0
    tamper_gradients: bool = False


def handle_packet(state: NodeState, packet: bytes, src: Address | None = None):
    """Process one inbound packet; returns Send or Drop and logs the outcome."""
    try:
        record, payload, _ = onion.unwrap(state.keypair.private, packet,
                                          expected_len=state.packet_len, build_next=False)
    except (DecryptionError, FramingError) as exc:
        log.warning("node=%s op=? outcome=dropped src=%s err=%s", state.node_id, src, exc)
        return Drop("tamper-or-misroute")

    op = record.op.name.lower()
    try:
        if not _has_next_hop(record) and None in (record.return_addr, record.return_pk):
            raise ProtocolError(f"{op} record with nowhere to send")
        if any(k is not None and len(k) != KEY_LEN for k in (record.next_pk, record.return_pk)):
            raise ProtocolError(f"{op} record with a key that is not {KEY_LEN} bytes")
        if record.cover:
            action = _send_on_or_reply(state, record, onion.REPLY_COVER, None)
        elif record.op == OpCode.INIT:
            action = do_init(state, record)
        elif state.role == ROLE_UNINIT:
            raise ProtocolError(f"{op} before init")
        elif payload is None and record.op in (OpCode.FORWARD, OpCode.TEST):
            raise ProtocolError(f"{op} without payload")
        elif state.role == ROLE_DUMMY:
            action = _relay_or_drop(state, record, payload, op)
        elif record.op == OpCode.FORWARD:
            action = do_forward(state, record, payload)
        elif record.op == OpCode.BACKWARD:
            action = do_backward(state, record, payload)
        else:
            action = do_test(state, record, payload)
    except (ProtocolError, nn.ProtocolOrderError, ValueError, IndexError) as exc:
        # ValueError covers shape/framing trouble in decoded payloads, which a
        # byzantine predecessor controls; the node drops rather than dies
        log.warning("node=%s op=%s outcome=protocol-error src=%s err=%s",
                    state.node_id, record.op.name, src, exc)
        return Drop(f"protocol-error: {exc}")

    outcome = f"sent dst={action.dst}" if isinstance(action, Send) else action.reason
    log.info("node=%s op=%s outcome=%s src=%s",
             state.node_id, record.op.name, outcome, src)
    return action


def _has_next_hop(record: OnionRecord) -> bool:
    return record.next is not None and record.next_pk is not None and record.inner is not None


def _seal_on(state: NodeState, record: OnionRecord, payload):
    """Seal the payload (if any) to the next hop and pass the inner onion on."""
    payload_ct = seal(record.next_pk, payload) if payload is not None else b""
    return Send(record.next, onion.build_packet(payload_ct, record.inner, state.packet_len))


def _send_on_or_reply(state: NodeState, record: OnionRecord, kind: str, payload: bytes):
    """Pass the result on to the next hop. The last hop of a route instead
    replies `kind` to the return address, which handle_packet has checked."""
    if _has_next_hop(record):
        return _seal_on(state, record, payload)
    return Send(record.return_addr, onion.pack_reply(record.op, kind, record.return_pk,
                                                     payload, state.packet_len))


def _relay_or_drop(state: NodeState, record: OnionRecord, payload, what: str):
    """Re-seal the payload (if any) to the next hop and forward the inner
    onion; no model computation happens here. Terminal records are dropped."""
    if not _has_next_hop(record):
        return Drop(f"{what}-terminal")
    return _seal_on(state, record, payload)


def do_init(state: NodeState, record: OnionRecord):
    """Build this hop's part of the model and optimizer, replacing any prior
    state entirely; then pass the onion on, or acknowledge to the designer."""
    if record.role == ROLE_DUMMY:
        state.role = ROLE_DUMMY
        state.spec = state.params = state.opt = None
    elif record.role == ROLE_ACTUAL:
        if None in (record.chain, record.seed, record.learning_rate, record.momentum):
            raise ProtocolError("init record missing chain, seed, learning_rate or momentum")
        spec = nn.LayerSpec(record.chain, seed=record.seed)
        params = nn.init_layer_params(spec)
        state.role = ROLE_ACTUAL
        state.spec = spec
        state.params = params
        state.opt = nn.OptimizerState(params, learning_rate=record.learning_rate,
                                      momentum=record.momentum)
    else:
        raise ProtocolError(f"init record with role {record.role!r}")
    state.cache = None
    state.forward_count = 0
    state.backward_count = 0
    return _send_on_or_reply(state, record, onion.REPLY_ACK, None)


def do_forward(state: NodeState, record: OnionRecord, payload):
    if state.cache is not None:
        raise ProtocolError("forward with an unconsumed cache")
    x = onion.decode_matrix(payload)
    state.forward_count += 1
    state.compute_count += 1
    if record.labels is not None:
        # final actual layer: compute the training loss and return it
        loss, state.cache = nn.layer_forward(state.spec, state.params, x, labels=record.labels)
        return _send_on_or_reply(state, record, onion.REPLY_LOSS,
                                 onion.encode_matrix(np.array([[loss]], dtype=np.float32)))
    out, state.cache = nn.layer_forward(state.spec, state.params, x)
    # with no next hop the designer holds the loss layer: hand the activations back
    return _send_on_or_reply(state, record, onion.REPLY_OUTPUT, onion.encode_matrix(out))


def do_backward(state: NodeState, record: OnionRecord, payload):
    if state.cache is None:
        raise ProtocolError("backward before forward")
    if payload is None and not state.spec.ends_in_loss():
        raise ProtocolError("backward without a gradient payload")
    dy = None
    if payload is not None:
        dy = onion.decode_matrix(payload)
        if state.tamper_gradients:
            dy = -dy
    elif state.tamper_gradients and state.spec.ends_in_loss():
        # byzantine loss layer: flip the stored loss gradient
        idx = len(state.spec.chain) - 1
        state.cache.saved[idx] = -state.cache.saved[idx]
    state.backward_count += 1
    state.compute_count += 1
    # the first hop's ack carries the input gradient only when asked, because
    # only a designer-held first layer reads it
    dx = nn.layer_backward(state.spec, state.params, state.opt, state.cache, dy,
                           input_grad=_has_next_hop(record) or record.input_grad)
    state.cache = None
    return _send_on_or_reply(state, record, onion.REPLY_ACK,
                             None if dx is None else onion.encode_matrix(dx))


def do_test(state: NodeState, record: OnionRecord, payload):
    x = onion.decode_matrix(payload)
    state.compute_count += 1
    out, _ = nn.layer_forward(state.spec, state.params, x, train=False)
    return _send_on_or_reply(state, record, onion.REPLY_OUTPUT, onion.encode_matrix(out))
