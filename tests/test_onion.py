import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from mixnn import nn, onion
from mixnn.crypto import Address, DecryptionError, gen_keypair
from mixnn.onion import (CascadeEntry, CascadeSpec, CapacityError, FramingError,
                         OpCode, unwrap)

L = 131072


@pytest.fixture(scope="module")
def keys():
    return [gen_keypair() for _ in range(7)]


def make_cascade(keys, chains, packet_len=L, dummies=()):
    """Cascade over len(chains)+len(dummies) slots; dummies lists slot
    indices (0-based) to occupy with relays."""
    specs = nn.make_layer_specs(chains, seed=5)
    slots = []
    spec_iter = iter(specs)
    total = len(chains) + len(dummies)
    for i in range(total):
        slots.append(None if i in dummies else next(spec_iter))
    entries = [
        CascadeEntry(f"n{i}", Address(f"n{i}.test", 7000 + i), keys[i].pk, layer)
        for i, layer in enumerate(slots)
    ]
    return CascadeSpec(entries=entries, designer_addr=Address("designer.test", 6000),
                       designer_pk=keys[-1].pk, packet_len=packet_len)


SMALL = [
    [nn.linear(8, 6), nn.relu()],
    [nn.linear(6, 4)],
    [nn.logsoftmax(), nn.nllloss()],
]


class TestMatrixCodec:
    def test_1x1_is_12_bytes(self):
        data = onion.encode_matrix(np.array([[42.0]], dtype=np.float32))
        assert len(data) == 12
        npt.assert_array_equal(onion.decode_matrix(data), [[42.0]])

    def test_bitwise_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 784)).astype(np.float32)
        back = onion.decode_matrix(onion.encode_matrix(m))
        assert back.tobytes() == m.tobytes()

    def test_header_length_mismatch(self):
        data = onion.encode_matrix(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(FramingError):
            onion.decode_matrix(data[:-4])
        with pytest.raises(FramingError):
            onion.decode_matrix(data + b"\x00" * 4)

    def test_zero_rows(self):
        m = np.zeros((0, 5), dtype=np.float32)
        assert onion.decode_matrix(onion.encode_matrix(m)).shape == (0, 5)

    def test_labels_roundtrip(self):
        labels = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        npt.assert_array_equal(onion.decode_labels(onion.encode_labels(labels)), labels)


class TestPacketFraming:
    def test_exact_length_and_magic(self):
        pkt = onion.build_packet(b"p" * 10, b"o" * 20, 4096)
        assert len(pkt) == 4096
        assert pkt[:4] == b"MXNN" and pkt[4] == 2
        payload, onion_ct = onion.parse_packet(pkt, expected_len=4096)
        assert payload == b"p" * 10 and onion_ct == b"o" * 20

    def test_bit_exact_wire_layout(self):
        import struct
        pkt = onion.build_packet(b"PAY", b"ONIONCT", 256)
        # magic | version | payload len u32 BE | payload | onion len | onion | pad
        assert pkt[0:4] == b"MXNN"
        assert pkt[4] == 0x02
        assert struct.unpack(">I", pkt[5:9]) == (3,)
        assert pkt[9:12] == b"PAY"
        assert struct.unpack(">I", pkt[12:16]) == (7,)
        assert pkt[16:23] == b"ONIONCT"
        assert len(pkt[23:]) == 256 - 23

    def test_fresh_padding_every_build(self):
        a = onion.build_packet(b"", b"x", 1024)
        b = onion.build_packet(b"", b"x", 1024)
        assert a != b  # random padding differs

    def test_padding_shares_no_block_between_builds(self):
        # equal inputs twice: a reused pad key, or padding left unwritten,
        # would repeat or zero the aligned 16-byte blocks
        start = onion.HEADER_LEN + len(b"PAY") + len(b"ONIONCT")

        def blocks():
            pad = bytes(onion.build_packet(b"PAY", b"ONIONCT", 4096)[start:])
            return {pad[i:i + 16] for i in range(0, len(pad) - 15, 16)}

        a, b = blocks(), blocks()
        assert not a & b
        assert bytes(16) not in a | b

    def test_capacity_error_names_required_size(self):
        with pytest.raises(CapacityError) as err:
            onion.build_packet(b"x" * 100, b"y" * 100, 64)
        assert err.value.needed == 13 + 200
        assert "213" in str(err.value) and "64" in str(err.value)

    def test_length_check(self):
        pkt = onion.build_packet(b"", b"x", 1024)
        with pytest.raises(FramingError):
            onion.parse_packet(pkt, expected_len=2048)

    def test_bad_magic_and_version(self):
        pkt = bytearray(onion.build_packet(b"", b"x", 256))
        pkt[0] ^= 0xFF
        with pytest.raises(FramingError):
            onion.parse_packet(bytes(pkt))
        pkt[0] ^= 0xFF
        pkt[4] = 9
        with pytest.raises(FramingError):
            onion.parse_packet(bytes(pkt))


class TestPackInit:
    def test_single_node_cascade(self, keys):
        cascade = make_cascade(keys, [[nn.linear(4, 2), nn.logsoftmax(), nn.nllloss()]])
        record, payload, nxt = unwrap(keys[0].sk, onion.pack_init(cascade), L)
        assert record.op == OpCode.INIT
        assert record.inner is None and record.next is None and nxt is None
        assert payload is None

    def test_three_node_unwrap_chain(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_init(cascade)
        rec1, _, nxt = unwrap(keys[0].sk, pkt, L)
        assert rec1.next == cascade.entries[1].address
        # the inner blob is opaque to hop 1
        with pytest.raises(DecryptionError):
            unwrap(keys[0].sk, nxt, L)
        rec2, _, nxt2 = unwrap(keys[1].sk, nxt, L)
        assert rec2.next == cascade.entries[2].address
        rec3, _, nxt3 = unwrap(keys[2].sk, nxt2, L)
        assert rec3.next is None and nxt3 is None

    def test_recovers_all_init_fields(self, keys):
        chains = [
            [nn.linear(784, 128), nn.relu()],
            [nn.linear(128, 64), nn.relu()],
            [nn.linear(64, 10)],
            [nn.logsoftmax()],
            [nn.nllloss()],
        ]
        cascade = make_cascade(keys, chains, packet_len=onion.DEFAULT_PACKET_LEN)
        pkt = onion.pack_init(cascade)
        assert len(pkt) == onion.DEFAULT_PACKET_LEN  # fits the default length
        for i, entry in enumerate(cascade.entries):
            record, _, pkt = unwrap(keys[i].sk, pkt, onion.DEFAULT_PACKET_LEN)
            assert record.role == "actual"
            assert record.chain == entry.layer.chain
            assert record.seed == entry.layer.seed
            assert record.learning_rate == cascade.learning_rate
            assert record.momentum == cascade.momentum
        assert pkt is None

    def test_dummy_slots_flagged(self, keys):
        cascade = make_cascade(keys, SMALL, dummies=(1,))
        pkt = onion.pack_init(cascade)
        _, _, pkt = unwrap(keys[0].sk, pkt, L)
        record, _, _ = unwrap(keys[1].sk, pkt, L)
        assert record.role == "dummy"
        assert record.chain is None and record.seed is None


class TestPackForward:
    def test_labels_only_at_innermost(self, keys):
        cascade = make_cascade(keys, SMALL)
        labels = np.array([1, 0, 3], dtype=np.int64)
        data = np.zeros((3, 8), dtype=np.float32)
        pkt = onion.pack_forward(cascade, data, labels)
        seen = []
        for i in range(3):
            record, _, pkt = unwrap(keys[i].sk, pkt, L)
            seen.append(record.labels)
        assert seen[0] is None and seen[1] is None
        npt.assert_array_equal(seen[2], labels)

    def test_innermost_carries_designer_return(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                 np.array([0]))
        for i in range(2):
            record, _, pkt = unwrap(keys[i].sk, pkt, L)
            assert record.return_addr is None
        record, _, _ = unwrap(keys[2].sk, pkt, L)
        assert record.return_addr == cascade.designer_addr
        assert record.return_pk == cascade.designer_pk

    def test_payload_sealed_to_first_hop(self, keys):
        cascade = make_cascade(keys, SMALL)
        data = np.arange(16, dtype=np.float32).reshape(2, 8)
        pkt = onion.pack_forward(cascade, data, np.array([0, 1]))
        _, payload, _ = unwrap(keys[0].sk, pkt, L)
        npt.assert_array_equal(onion.decode_matrix(payload), data)

    def test_mnist_batch_fits_default_length(self, keys):
        chains = [
            [nn.linear(784, 128), nn.relu()],
            [nn.linear(128, 64), nn.relu()],
            [nn.linear(64, 10)],
            [nn.logsoftmax()],
            [nn.nllloss()],
        ]
        cascade = make_cascade(keys, chains, packet_len=onion.DEFAULT_PACKET_LEN)
        data = np.random.default_rng(1).random((64, 784), dtype=np.float32)
        pkt = onion.pack_forward(cascade, data, np.zeros(64, dtype=np.int64))
        assert len(pkt) == onion.DEFAULT_PACKET_LEN

    def test_empty_batch_rejected(self, keys):
        cascade = make_cascade(keys, SMALL)
        with pytest.raises(ValueError):
            onion.pack_forward(cascade, np.zeros((0, 8), dtype=np.float32),
                               np.zeros(0, dtype=np.int64))

    def test_label_count_mismatch(self, keys):
        cascade = make_cascade(keys, SMALL)
        with pytest.raises(ValueError):
            onion.pack_forward(cascade, np.zeros((2, 8), dtype=np.float32),
                               np.array([1]))


class TestPackBackward:
    def test_route_starts_at_last_layer(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_backward(cascade)
        # only layer n can open the outermost record
        record, payload, _ = unwrap(keys[2].sk, pkt, L)
        assert record.op == OpCode.BACKWARD
        assert record.next == cascade.entries[1].address
        assert payload is None

    def test_unwrap_chain_reverses_cascade(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_backward(cascade)
        hops = []
        for i in (2, 1, 0):
            record, payload, pkt = unwrap(keys[i].sk, pkt, L)
            assert payload is None  # no data, no labels anywhere
            hops.append(record.next or record.return_addr)
        assert hops == [cascade.entries[1].address, cascade.entries[0].address,
                        cascade.designer_addr]

    def test_no_matrix_payload_at_any_hop(self, keys):
        cascade = make_cascade(keys, SMALL)
        payload_ct, _ = onion.parse_packet(onion.pack_backward(cascade), L)
        assert payload_ct == b""

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_input_grad_flag_only_in_first_slot_record(self, keys, input_grad):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_backward(cascade, input_grad=input_grad)
        flags = []
        for i in (2, 1, 0):
            record, _, pkt = unwrap(keys[i].sk, pkt, L)
            flags.append(record.input_grad)
        assert flags == [False, False, input_grad]

    def test_initial_grad_for_held_loss(self, keys):
        chains = [[nn.linear(8, 6), nn.relu()], [nn.linear(6, 4)]]
        specs = nn.make_layer_specs(chains + [[nn.nllloss()]], seed=5)
        entries = [
            CascadeEntry(f"n{i}", Address(f"n{i}.test", 7000 + i), keys[i].pk, specs[i])
            for i in range(2)
        ]
        cascade = CascadeSpec(entries=entries, designer_addr=Address("d.test", 6000),
                              designer_pk=keys[-1].pk, packet_len=L,
                              held_last=specs[2])
        grad = np.ones((2, 4), dtype=np.float32)
        pkt = onion.pack_backward(cascade, initial_grad=grad)
        record, payload, _ = unwrap(keys[1].sk, pkt, L)
        npt.assert_array_equal(onion.decode_matrix(payload), grad)
        assert record.next == entries[0].address


class TestUnwrapBufferTypes:
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_same_result_for_any_buffer_type(self, keys, kind):
        cascade = make_cascade(keys, SMALL)
        data = np.arange(16, dtype=np.float32).reshape(2, 8)
        pkt = bytes(onion.pack_forward(cascade, data, np.array([0, 1])))
        record, payload, nxt = unwrap(keys[0].sk, pkt, L)
        got_record, got_payload, got_nxt = unwrap(keys[0].sk, kind(pkt), L)
        assert got_record == record and got_payload == payload
        # next packets differ only in their fresh padding
        assert onion.parse_packet(got_nxt, L) == onion.parse_packet(nxt, L)


class TestPackTest:
    def test_route_length_equals_end_slot(self, keys):
        cascade = make_cascade(keys, SMALL)
        for end in (1, 2, 3):
            pkt = onion.pack_test(cascade, np.zeros((1, 8), dtype=np.float32), end)
            hops = 0
            for i in range(end):
                record, _, pkt = unwrap(keys[i].sk, pkt, L)
                hops += 1
            assert hops == end
            assert record.next is None and record.return_addr == cascade.designer_addr
            assert pkt is None

    def test_single_hop_route(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_test(cascade, np.zeros((2, 8), dtype=np.float32), 1)
        record, payload, nxt = unwrap(keys[0].sk, pkt, L)
        assert record.next is None and nxt is None and payload is not None

    def test_end_on_dummy_rejected(self, keys):
        cascade = make_cascade(keys, SMALL, dummies=(1,))
        with pytest.raises(ValueError):
            onion.pack_test(cascade, np.zeros((1, 8), dtype=np.float32), 2)

    def test_end_out_of_range(self, keys):
        cascade = make_cascade(keys, SMALL)
        with pytest.raises(ValueError):
            onion.pack_test(cascade, np.zeros((1, 8), dtype=np.float32), 9)


class TestCoverLoop:
    def test_loop_traverses_and_returns(self, keys):
        cascade = make_cascade(keys, SMALL)
        pkt = onion.pack_cover_loop(cascade)
        assert len(pkt) == L
        for i in range(2):
            record, _, _ = unwrap(keys[i].sk, pkt, L)
            assert record.cover and record.op == OpCode.FORWARD
            # relay exactly as a node would: forward the inner onion
            pkt = onion.build_packet(b"", record.inner, L)
        # the last hop replies to the designer
        record, _, _ = unwrap(keys[2].sk, pkt, L)
        assert record.cover and record.return_addr == cascade.designer_addr
        assert record.next is None


class TestUniformLength:
    def test_all_phases_all_hops_exactly_l(self, keys):
        cascade = make_cascade(keys, SMALL)
        data = np.zeros((4, 8), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        packets = {
            "init": (onion.pack_init(cascade), (0, 1, 2)),
            "forward": (onion.pack_forward(cascade, data, labels), (0, 1, 2)),
            "backward": (onion.pack_backward(cascade), (2, 1, 0)),
            "test": (onion.pack_test(cascade, data, 3), (0, 1, 2)),
            "cover": (onion.pack_cover_loop(cascade), (0, 1, 2)),
        }
        for name, (pkt, order) in packets.items():
            assert len(pkt) == L, name
            for i in order:
                record, _, nxt = unwrap(keys[i].sk, pkt, L)
                if nxt is None:
                    break
                assert len(nxt) == L, f"{name} hop {i}"
                pkt = nxt

    def test_reply_packets_are_full_length(self, keys):
        pkt = onion.pack_reply(OpCode.FORWARD, onion.REPLY_LOSS, keys[-1].pk,
                               onion.encode_matrix(np.zeros((1, 1), dtype=np.float32)),
                               L)
        assert len(pkt) == L
        record, payload, _ = unwrap(keys[-1].sk, pkt, L)
        assert record.reply == onion.REPLY_LOSS
        assert onion.decode_matrix(payload).shape == (1, 1)


class TestPerHopKnowledge:
    def test_each_hop_sees_one_next_address_and_opaque_inner(self, keys):
        chains = [
            [nn.linear(8, 8), nn.relu()],
            [nn.linear(8, 8)],
            [nn.linear(8, 8)],
            [nn.linear(8, 4)],
            [nn.logsoftmax(), nn.nllloss()],
        ]
        cascade = make_cascade(keys, chains)
        pkt = onion.pack_forward(cascade, np.zeros((2, 8), dtype=np.float32),
                                 np.array([0, 1]))
        for i in range(5):
            record, _, nxt = unwrap(keys[i].sk, pkt, L)
            if i < 4:
                assert record.next == cascade.entries[i + 1].address
                assert record.return_addr is None  # exactly one address visible
                with pytest.raises(DecryptionError):
                    unwrap(keys[i].sk, nxt, L)  # inner not decryptable here
                pkt = nxt
            else:
                assert record.next is None
                assert record.return_addr == cascade.designer_addr


class TestRecordCodec:
    # one [tag u8][len u32 BE][value] field per line, in ascending tag order
    GOLDEN = bytes.fromhex("".join([
        "01" "00000001" "03",                                  # op TEST
        "02" "00000001" "01",                                  # cover
        "03" "0000000c" "6e312e746573743a37303031",            # next n1.test:7001
        "04" "00000003" "6e706b",                              # next_pk
        "05" "00000005" "696e6e6572",                          # inner
        "06" "00000006" "61637475616c",                        # role actual
        "07" "0000002f" "0005"                                 # chain, 5 ops
        "010000000200000003" "020000000000000000" "030000000000000000"
        "040000000000000000" "050000000000000000",
        "08" "00000008" "3f847ae147ae147b",                    # learning_rate 0.01
        "09" "00000008" "3feccccccccccccd",                    # momentum 0.9
        "0a" "00000008" "0000010000000005",                    # seed 2**40 + 5
        "0b" "0000001c" "00000003"                             # labels [0, 9, 3]
        "0000000000000000" "0900000000000000" "0300000000000000",
        "0c" "0000000b" "642e746573743a36303030",              # return_addr d.test:6000
        "0d" "00000003" "64706b",                              # return_pk
        "0f" "00000004" "6c6f7373",                            # reply loss
    ]))

    def every_field(self):
        return onion.OnionRecord(
            op=OpCode.TEST, cover=True, next=Address("n1.test", 7001), next_pk=b"npk",
            inner=b"inner", role=onion.ROLE_ACTUAL,
            chain=[nn.linear(2, 3), nn.relu(), nn.logsoftmax(), nn.nllloss(), nn.identity()],
            learning_rate=0.01, momentum=0.9, seed=2**40 + 5, labels=np.array([0, 9, 3]),
            return_addr=Address("d.test", 6000), return_pk=b"dpk",
            reply=onion.REPLY_LOSS)

    def test_golden_bytes_every_field(self):
        rec = self.every_field()
        assert onion.encode_record(rec) == self.GOLDEN
        back = onion.decode_record(self.GOLDEN)
        npt.assert_array_equal(back.labels, rec.labels)
        assert back.labels.dtype == np.int64
        back.labels = rec.labels = None
        assert back == rec


    def test_input_grad_is_tag_17_flag(self):
        rec = onion.OnionRecord(op=OpCode.BACKWARD, input_grad=True)
        assert onion.encode_record(rec) == bytes.fromhex("01" "00000001" "02"
                                                         "11" "00000001" "01")
        assert onion.decode_record(onion.encode_record(rec)) == rec
        assert onion.encode_record(onion.OnionRecord(op=OpCode.BACKWARD)) == \
            bytes.fromhex("01" "00000001" "02")


class TestMatrixCopies:
    def test_float64_input_encodes_like_float32(self):
        m = np.random.default_rng(1).standard_normal((5, 7)).astype(np.float32)
        assert onion.encode_matrix(m) == onion.encode_matrix(m.astype(np.float64))


class TestBufferReuse:
    @pytest.fixture(autouse=True)
    def empty_pool(self, monkeypatch):
        # buffers other tests still hold must not decide what is reused here
        monkeypatch.setattr(onion, "_buffers", [bytearray() for _ in range(4)], raising=False)

    def test_dropped_packet_is_rebuilt_in_place_with_a_clean_tail(self, monkeypatch):
        key_ctr = bytes(range(48))
        monkeypatch.setattr(onion.os, "urandom", lambda n: key_ctr[:n])
        first = onion.build_packet(b"p" * 1000, b"o" * 2000, 4096)
        first_id = id(first)
        del first
        # while alive, these hold the memory a freed packet object would leave
        spacers = [bytearray(4096) for _ in range(4)]  # noqa: F841
        second = onion.build_packet(b"", b"x", 4096)
        assert id(second) == first_id
        end = onion.HEADER_LEN + 1
        keystream = Cipher(algorithms.AES(key_ctr[:32]), modes.CTR(key_ctr[32:])).encryptor()
        assert bytes(second[end:]) == keystream.update(bytes(4096 - end))

    def test_held_packets_are_never_rewritten(self):
        held = onion.build_packet(b"a", b"b", 1024)
        _, view = onion.parse_packet(onion.build_packet(b"c", b"d", 1024))
        held_bytes, viewed_bytes = bytes(held), bytes(view.obj)
        # both sit in the pool, so only their holders keep them from reuse
        assert any(b is held for b in onion._buffers)
        assert any(b is view.obj for b in onion._buffers)
        for _ in range(8):
            pkt = onion.build_packet(b"", b"e", 1024)
            assert pkt is not held and pkt is not view.obj
        assert bytes(held) == held_bytes and bytes(view.obj) == viewed_bytes
        assert view == b"d"

    def test_no_reuse_without_the_gil(self, monkeypatch):
        # refcount reads are whole only under the GIL; a free-threaded
        # interpreter gets a fresh buffer every time
        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
        # free buffers of the right length that only the pool holds
        monkeypatch.setattr(onion, "_buffers", [bytearray(1024) for _ in range(4)])
        pooled = {id(b) for b in onion._buffers}
        for _ in range(3):  # build, drop, build again
            pkt = onion.build_packet(b"a", b"b", 1024)
            assert id(pkt) not in pooled
            assert not any(pkt is b for b in onion._buffers)
            del pkt

    def test_threads_never_share_a_buffer(self):
        deadline = time.monotonic() + 0.5
        torn = []

        def build_and_check(k):
            body = bytes([k]) * 64
            while time.monotonic() < deadline:
                pkt = onion.build_packet(body, body, 1024)
                time.sleep(0)  # let the other threads build meanwhile
                if bytes(pkt[9:73]) != body or bytes(pkt[77:141]) != body:
                    torn.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build_and_check, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not torn
