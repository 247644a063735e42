"""Fixed-length packet codec and per-phase onion packing.

Wire layout of every packet (bit-exact):

    magic "MXNN" | version 0x02 | payload_ct_len u32 BE | payload_ct
    | onion_ct_len u32 BE | onion_ct | padding to the cascade length L

payload_ct and onion_ct are crypto.seal ciphertexts, each
[ephemeral X25519 public key 32][AES-GCM body][tag 16], 48 bytes over the
plaintext. Every packet in a cascade is exactly L bytes no matter the phase,
hop, or payload. A hop opens only its own routing record; the record's inner
ciphertext is sealed to the next hop and is indecipherable here.

The padding is an AES-256-CTR keystream under a 32-byte key and a 16-byte
initial counter drawn from os.urandom for each packet and discarded once the
packet is built, so no two packets share padding. build_packet writes every
byte of the packet into one L-byte bytearray, which it takes from a small
free list: a buffer is rewritten only when nothing else refers to it, so a
packet is never mutated while anyone holds it, and parse_packet returns
memoryview slices of it rather than copies. A hop builds only the packet it
sends; unwrap builds the next hop's packet only for callers that peel an
onion hop by hop.

Records are encoded as tag-length-value fields, [tag u8][len u32 BE][value],
in ascending tag order. A field that is None, and a flag that is false, is
left out:

    tag  field          value
    1    op             u8 OpCode (required)
    2    cover          flag, 0x01
    3    next           UTF-8 "host:port"
    4    next_pk        X25519 public key, 32 bytes
    5    inner          sealed inner onion
    6    role           UTF-8 "actual" | "dummy"
    7    chain          count u16 BE, then per op kind u8 | in_dim u32 BE | out_dim u32 BE
    8    learning_rate  f64 BE
    9    momentum       f64 BE
    10   seed           u64 BE
    11   labels         count u32 BE, then int64 LE each
    12   return_addr    UTF-8 "host:port"
    13   return_pk      X25519 public key, 32 bytes
    15   reply          UTF-8 "loss" | "ack" | "output" | "cover"
    17   input_grad     flag, 0x01

Tags 14 and 16 are retired. Only the first cascade hop reads input_grad, in
the last record of a BACKWARD route: set, its ack carries the gradient with
respect to its input, which the designer needs only when it holds a layer in
front of that hop, so the flag tells that hop whether it does. Unknown tags
are ignored. A record that fails to decode raises FramingError, so a node
drops the packet that carried it.
"""

import os
import struct
import sys
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import crypto
from .crypto import Address
from .nn import LINEAR, PRIMITIVE_KINDS, PrimitiveOp, LayerSpec

MAGIC = b"MXNN"
VERSION = 2
DEFAULT_PACKET_LEN = 524288
HEADER_LEN = len(MAGIC) + 1 + 4 + 4


class FramingError(ValueError):
    """Bad magic/version, truncation, or a packet of unexpected length."""


class CapacityError(ValueError):
    def __init__(self, needed: int, limit: int):
        super().__init__(
            f"serialized packet needs {needed} bytes but the cascade length is {limit}"
        )
        self.needed = needed
        self.limit = limit


class OpCode(IntEnum):
    INIT = 0
    FORWARD = 1
    BACKWARD = 2
    TEST = 3


ROLE_ACTUAL = "actual"
ROLE_DUMMY = "dummy"

REPLY_LOSS = "loss"
REPLY_ACK = "ack"
REPLY_OUTPUT = "output"
REPLY_COVER = "cover"


@dataclass
class OnionRecord:
    """The plaintext a single hop sees after opening its onion layer."""

    op: OpCode
    cover: bool = False
    next: Address | None = None
    next_pk: bytes | None = None
    inner: bytes | None = None
    # init fields
    role: str | None = None
    chain: list | None = None
    learning_rate: float | None = None
    momentum: float | None = None
    seed: int | None = None
    # forward/test fields
    labels: np.ndarray | None = None
    return_addr: Address | None = None
    return_pk: bytes | None = None
    # designer-bound replies
    reply: str | None = None
    # backward: the first hop's ack carries its input gradient
    input_grad: bool = False


# wire codes 1, 2, ... follow the order of nn.PRIMITIVE_KINDS
_KIND_CODES = {kind: code for code, kind in enumerate(PRIMITIVE_KINDS, 1)}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def encode_chain(chain) -> bytes:
    out = struct.pack(">H", len(chain))
    for op in chain:
        out += struct.pack(">BII", _KIND_CODES[op.kind], op.in_dim, op.out_dim)
    return out


def decode_chain(data: bytes):
    (count,) = struct.unpack(">H", data[:2])
    chain = []
    off = 2
    for _ in range(count):
        code, in_dim, out_dim = struct.unpack(">BII", data[off:off + 9])
        off += 9
        kind = _CODE_KINDS[code]
        chain.append(PrimitiveOp(kind, in_dim, out_dim) if kind == LINEAR else PrimitiveOp(kind))
    return chain


def encode_matrix(m: np.ndarray) -> bytes:
    """[rows u32 BE][cols u32 BE][row-major float32 LE data]."""
    m = np.ascontiguousarray(m, "<f4")
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    return struct.pack(">II", m.shape[0], m.shape[1]) + m.tobytes()


def decode_matrix(data: bytes) -> np.ndarray:
    """Inverse of encode_matrix. On a little-endian host the result is a
    read-only view of data, not a copy; no kernel writes to its input."""
    if len(data) < 8:
        raise FramingError("matrix header truncated")
    rows, cols = struct.unpack(">II", data[:8])
    if len(data) - 8 != rows * cols * 4:
        raise FramingError(
            f"matrix body is {len(data) - 8} bytes, header says {rows}x{cols}"
        )
    body = np.frombuffer(data, dtype="<f4", offset=8)
    return body.reshape(rows, cols).astype(np.float32, copy=False)


def encode_labels(labels: np.ndarray) -> bytes:
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    return struct.pack(">I", labels.shape[0]) + labels.astype("<i8").tobytes()


def decode_labels(data: bytes) -> np.ndarray:
    (count,) = struct.unpack(">I", data[:4])
    body = data[4:]
    if len(body) != count * 8:
        raise FramingError("label vector length mismatch")
    return np.frombuffer(body, dtype="<i8").astype(np.int64)


def _fixed(fmt: str):
    return (lambda v: struct.pack(fmt, v), lambda b: struct.unpack(fmt, b)[0])


_FLAG = (lambda _: b"\x01", lambda _: True)
_RAW = (lambda v: v, lambda v: v)
_TEXT = (lambda s: s.encode(), lambda b: b.decode())
_ADDR = (lambda a: str(a).encode(), lambda b: Address.parse(b.decode()))

# tag -> (OnionRecord field, encode, decode), in the order fields are written
_FIELDS = {
    1: ("op", lambda op: bytes([int(op)]), lambda b: OpCode(b[0])),
    2: ("cover", *_FLAG),
    3: ("next", *_ADDR),
    4: ("next_pk", *_RAW),
    5: ("inner", *_RAW),
    6: ("role", *_TEXT),
    7: ("chain", encode_chain, decode_chain),
    8: ("learning_rate", *_fixed(">d")),
    9: ("momentum", *_fixed(">d")),
    10: ("seed", *_fixed(">Q")),
    11: ("labels", encode_labels, decode_labels),
    12: ("return_addr", *_ADDR),
    13: ("return_pk", *_RAW),
    15: ("reply", *_TEXT),
    17: ("input_grad", *_FLAG),
}


def encode_record(rec: OnionRecord) -> bytes:
    parts = []
    for tag, (name, encode, _) in _FIELDS.items():
        value = getattr(rec, name)
        if value is not None and value is not False:
            value = encode(value)
            parts.append(struct.pack(">BI", tag, len(value)) + value)
    return b"".join(parts)


def decode_record(data: bytes) -> OnionRecord:
    """Inverse of encode_record; raises FramingError for any malformed field."""
    fields = {}
    off = 0
    while off < len(data):
        if off + 5 > len(data):
            raise FramingError("truncated record field header")
        tag, length = struct.unpack(">BI", data[off:off + 5])
        off += 5
        if off + length > len(data):
            raise FramingError("truncated record field value")
        fields[tag] = data[off:off + length]
        off += length
    try:
        values = {name: decode(fields[tag])
                  for tag, (name, _, decode) in _FIELDS.items() if tag in fields}
    except (KeyError, IndexError, ValueError, struct.error) as exc:
        raise FramingError(f"malformed record field: {exc!r}") from None
    if "op" not in values:
        raise FramingError("record missing op code")
    return OnionRecord(**values)


@dataclass
class CascadeEntry:
    node_id: str
    address: Address
    pk: bytes
    layer: LayerSpec | None  # None marks a dummy relay


@dataclass
class CascadeSpec:
    """Ordered node assignments for one model, plus the designer endpoint.

    held_first/held_last keep a boundary layer in the designer process; those
    specs never appear in any packed onion.
    """

    entries: list
    designer_addr: Address
    designer_pk: bytes
    packet_len: int = DEFAULT_PACKET_LEN
    learning_rate: float = 0.01
    momentum: float = 0.9
    held_first: LayerSpec | None = None
    held_last: LayerSpec | None = None

    def __post_init__(self):
        if not any(e.layer is not None for e in self.entries):
            raise ValueError("cascade needs at least one actual layer")
        if self.entries[0].layer is None or self.entries[-1].layer is None:
            raise ValueError("first and last cascade slots must hold actual layers")
        last = self.held_last if self.held_last is not None else self.entries[-1].layer
        if not last.ends_in_loss():
            raise ValueError("final actual layer must end in nllloss")

    @property
    def n(self) -> int:
        return len(self.entries)


# Packet buffers build_packet may rewrite; the empty ones are free slots.
_buffers = [bytearray() for _ in range(4)]
_zeros = b""  # the keystream source: all zero, grown to the longest padding


def _sole_refs() -> int:
    """What sys.getrefcount reads, in _packet_buffer's code shape, for a
    buffer that only its list and the reading frame's local refer to.
    Whether the call's argument counts as a reference differs between
    interpreters (3.14 can lend a local to a call without a new reference),
    so the value is measured here rather than assumed."""
    pool = [bytearray()]
    buf = pool[0]
    return sys.getrefcount(buf)


_SOLE_REFS = _sole_refs()


def _packet_buffer(packet_len: int) -> bytearray:
    """A packet_len buffer that nothing outside _buffers refers to.

    A pooled buffer is handed out only when sys.getrefcount reads
    _SOLE_REFS, the count measured at import for a buffer held by its list
    and the local `buf` alone. Any other holder, a memoryview from
    parse_packet included, raises the count and keeps the buffer out of use,
    so callers never release a packet. This is safe under socket threads: a
    thread checks a buffer only while its own `buf` refers to it, and the
    interpreter lock makes each refcount read whole, so once one thread has
    seen itself as the only holder, every other thread counts that thread's
    reference too. Writing a slot races harmlessly: the buffer it replaces
    is simply no longer pooled.

    On an interpreter running without the GIL (a free-threaded build), a
    refcount read from another thread need not be whole, so every call
    returns a fresh buffer and the pool is not used.
    """
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        return bytearray(packet_len)
    free = None
    for i in range(len(_buffers)):
        buf = _buffers[i]
        if sys.getrefcount(buf) == _SOLE_REFS:
            if len(buf) == packet_len:
                return buf
            free = i
    buf = bytearray(packet_len)
    if free is not None:
        _buffers[free] = buf
    return buf


def build_packet(payload_ct: bytes, onion_ct: bytes, packet_len: int) -> bytearray:
    """Assemble a packet in one packet_len buffer, overwriting every byte.
    The tail after the body is an AES-256-CTR keystream under a key and
    initial counter drawn fresh for this packet and dropped on return."""
    global _zeros
    plen, olen = len(payload_ct), len(onion_ct)
    end = HEADER_LEN + plen + olen
    if end > packet_len:
        raise CapacityError(needed=end, limit=packet_len)
    pkt = _packet_buffer(packet_len)
    struct.pack_into(">4sBI", pkt, 0, MAGIC, VERSION, plen)
    off = HEADER_LEN - 4  # past magic, version and payload_ct_len
    pkt[off:off + plen] = payload_ct
    off += plen
    struct.pack_into(">I", pkt, off, olen)
    pkt[off + 4:end] = onion_ct
    zeros = _zeros  # another thread may swap in a shorter one
    if len(zeros) < packet_len - end:
        zeros = _zeros = bytes(packet_len - end)
    key_ctr = os.urandom(48)
    keystream = Cipher(algorithms.AES(key_ctr[:32]), modes.CTR(key_ctr[32:])).encryptor()
    # a reused tail still holds an earlier packet, so encrypt zeros over it
    keystream.update_into(memoryview(zeros)[:packet_len - end], memoryview(pkt)[end:])
    return pkt


def parse_packet(buf: bytes, expected_len: int | None = None):
    """Split a packet into (payload_ct, onion_ct), memoryview slices of buf;
    verifies framing only."""
    if expected_len is not None and len(buf) != expected_len:
        raise FramingError(f"packet is {len(buf)} bytes, expected {expected_len}")
    buf = memoryview(buf)
    if len(buf) < HEADER_LEN or buf[:4] != MAGIC:
        raise FramingError("bad magic")
    if buf[4] != VERSION:
        raise FramingError(f"unsupported version {buf[4]}")
    off = 5
    (plen,) = struct.unpack_from(">I", buf, off)
    off += 4
    if off + plen + 4 > len(buf):
        raise FramingError("payload length exceeds packet")
    payload_ct = buf[off:off + plen]
    off += plen
    (olen,) = struct.unpack_from(">I", buf, off)
    off += 4
    if off + olen > len(buf):
        raise FramingError("onion length exceeds packet")
    return payload_ct, buf[off:off + olen]


def _nest(hops, records) -> bytes:
    """Seal records innermost-out. records[i] is sealed to hops[i] and names
    hops[i + 1] as its next hop; the last record names none."""
    inner = None
    for i in range(len(hops) - 1, -1, -1):
        rec = records[i]
        if i + 1 < len(hops):
            rec.next, rec.next_pk = hops[i + 1].address, hops[i + 1].pk
        rec.inner = inner
        inner = crypto.seal(hops[i].pk, encode_record(rec))
    return inner


def _nest_to_designer(cascade: CascadeSpec, hops, op: OpCode, records=None, **last) -> bytes:
    """A route over hops whose last hop replies to the designer. records
    defaults to one record per hop carrying only op; the last record gets
    the designer's return address and key, and the fields in `last`."""
    records = records or [OnionRecord(op=op) for _ in hops]
    records[-1] = replace(records[-1], return_addr=cascade.designer_addr,
                          return_pk=cascade.designer_pk, **last)
    return _nest(hops, records)


def pack_init(cascade: CascadeSpec) -> bytearray:
    """Model-initialization onion: each hop learns its own role, chain,
    optimizer settings and seed, plus its successor's address; the last hop
    acknowledges to the designer."""
    records = []
    for e in cascade.entries:
        if e.layer is None:
            records.append(OnionRecord(op=OpCode.INIT, role=ROLE_DUMMY))
        else:
            records.append(OnionRecord(op=OpCode.INIT, role=ROLE_ACTUAL, chain=e.layer.chain,
                                       seed=e.layer.seed, learning_rate=cascade.learning_rate,
                                       momentum=cascade.momentum))
    onion = _nest_to_designer(cascade, cascade.entries, OpCode.INIT, records)
    return build_packet(b"", onion, cascade.packet_len)


def pack_forward(cascade: CascadeSpec, data: np.ndarray, labels: np.ndarray | None) -> bytearray:
    """Forward onion plus the input batch sealed to the first hop.

    Labels ride only in the innermost record. labels=None means the designer
    holds the loss layer; the last hop then returns its output to the
    designer instead of computing a loss.
    """
    data = np.ascontiguousarray(data, dtype=np.float32)
    if data.shape[0] < 1:
        raise ValueError("empty batch")
    if labels is not None and len(labels) != data.shape[0]:
        raise ValueError(f"batch {data.shape[0]} vs {len(labels)} labels")
    onion = _nest_to_designer(cascade, cascade.entries, OpCode.FORWARD,
                              labels=None if labels is None else np.asarray(labels))
    payload = crypto.seal(cascade.entries[0].pk, encode_matrix(data))
    return build_packet(payload, onion, cascade.packet_len)


def pack_backward(cascade: CascadeSpec, initial_grad: np.ndarray | None = None,
                  input_grad: bool = True) -> bytearray:
    """Backward onion, nested in reverse cascade order; carries no data or
    labels. initial_grad is only present when the designer holds the loss
    layer and must hand the last remote hop its starting gradient.
    input_grad asks the first cascade hop to put its input gradient in its
    ack; without it that hop skips computing it and the ack is empty."""
    onion = _nest_to_designer(cascade, cascade.entries[::-1], OpCode.BACKWARD,
                              input_grad=input_grad)
    payload = b""
    if initial_grad is not None:
        payload = crypto.seal(cascade.entries[-1].pk, encode_matrix(initial_grad))
    return build_packet(payload, onion, cascade.packet_len)


def pack_test(cascade: CascadeSpec, data: np.ndarray, end_slot: int) -> bytearray:
    """Test onion: one-way route that stops at end_slot (1-based) and returns
    that hop's activations to the designer. Hops past end_slot are omitted."""
    if not (1 <= end_slot <= cascade.n):
        raise ValueError(f"end slot {end_slot} out of range 1..{cascade.n}")
    if cascade.entries[end_slot - 1].layer is None:
        raise ValueError(f"end slot {end_slot} is a dummy relay")
    data = np.ascontiguousarray(data, dtype=np.float32)
    onion = _nest_to_designer(cascade, cascade.entries[:end_slot], OpCode.TEST)
    payload = crypto.seal(cascade.entries[0].pk, encode_matrix(data))
    return build_packet(payload, onion, cascade.packet_len)


def pack_cover_loop(cascade: CascadeSpec) -> bytearray:
    """A loop message: a forward-shaped cover onion with no payload that
    traverses every hop; the last hop replies `cover` to the designer. Hops
    relay it without any model computation."""
    records = [OnionRecord(op=OpCode.FORWARD, cover=True) for _ in cascade.entries]
    onion = _nest_to_designer(cascade, cascade.entries, OpCode.FORWARD, records)
    return build_packet(b"", onion, cascade.packet_len)


def pack_single_cover(target_pk: bytes, packet_len: int) -> bytearray:
    """One-hop cover packet sealed to `target_pk`; the receiving node drops it."""
    onion = crypto.seal(target_pk, encode_record(OnionRecord(op=OpCode.FORWARD, cover=True)))
    return build_packet(b"", onion, packet_len)


def pack_reply(op: OpCode, kind: str, designer_pk: bytes, payload_plain: bytes,
               packet_len: int) -> bytearray:
    """Designer-bound reply (loss, ack, or activations), full packet length."""
    rec = OnionRecord(op=op, reply=kind)
    onion = crypto.seal(designer_pk, encode_record(rec))
    payload = crypto.seal(designer_pk, payload_plain) if payload_plain else b""
    return build_packet(payload, onion, packet_len)


def unwrap(sk: "bytes | crypto.X25519PrivateKey", packet: bytes,
           expected_len: int | None = None, build_next: bool = True):
    """Open one onion layer with a raw or parsed private key (see
    crypto.open_sealed).

    Returns (record, payload_plain, next_packet). With build_next,
    next_packet is the inner onion repackaged with an empty payload and
    fresh padding at the incoming packet's length, for peeling an onion hop
    by hop; otherwise, and when there is no inner onion, it is None. A node
    passes build_next=False, because it builds the one packet it sends
    itself. Raises DecryptionError for onion or payload material not sealed
    to this key, FramingError for malformed packets.
    """
    payload_ct, onion_ct = parse_packet(packet, expected_len)
    record = decode_record(crypto.open_sealed(sk, onion_ct))
    payload_plain = crypto.open_sealed(sk, payload_ct) if payload_ct else None
    next_packet = None
    if build_next and record.inner is not None:
        next_packet = build_packet(b"", record.inner, len(packet))
    return record, payload_plain, next_packet
