import logging
import struct

import numpy as np
import numpy.testing as npt
import pytest

from mixnn import nn, node, onion
from mixnn.crypto import Address, gen_keypair, open_sealed, seal
from mixnn.node import Drop, NodeState, Send, handle_packet
from mixnn.onion import CascadeEntry, CascadeSpec, OpCode

L = 131072


@pytest.fixture(scope="module")
def keys():
    return [gen_keypair() for _ in range(6)]


def build(keys, chains, dummies=(), model_seed=5):
    specs = nn.make_layer_specs(chains, seed=model_seed)
    slots, it = [], iter(specs)
    for i in range(len(chains) + len(dummies)):
        slots.append(None if i in dummies else next(it))
    entries = [
        CascadeEntry(f"n{i}", Address(f"n{i}.test", 7000 + i), keys[i].pk, layer)
        for i, layer in enumerate(slots)
    ]
    cascade = CascadeSpec(entries=entries, designer_addr=Address("d.test", 6000),
                          designer_pk=keys[-1].pk, packet_len=L)
    states = [NodeState(node_id=f"n{i}", keypair=keys[i], packet_len=L)
              for i in range(len(slots))]
    return cascade, states


def run_chain(cascade, states, pkt, order):
    """Push a packet through the given hop order; returns the final action."""
    action = None
    for i in order:
        action = handle_packet(states[i], pkt)
        if isinstance(action, Drop):
            return action
        pkt = action.data
    return action


SMALL = [
    [nn.linear(8, 6), nn.relu()],
    [nn.linear(6, 4)],
    [nn.logsoftmax(), nn.nllloss()],
]


def init_all(cascade, states, order=None):
    pkt = onion.pack_init(cascade)
    for i in order or range(len(states)):
        action = handle_packet(states[i], pkt)
        if isinstance(action, Drop):
            break
        pkt = action.data


class TestInit:
    def test_allocates_parameters_per_chain(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        assert states[0].role == node.ROLE_ACTUAL
        w, b = states[0].params[0]
        assert w.shape == (6, 8) and b.shape == (1, 6)
        assert states[0].opt.learning_rate == cascade.learning_rate

    def test_mnist_second_server_shapes(self, keys):
        chains = [
            [nn.linear(784, 128), nn.relu()],
            [nn.linear(128, 64), nn.relu()],
            [nn.linear(64, 10), nn.logsoftmax(), nn.nllloss()],
        ]
        cascade, states = build(keys, chains)
        init_all(cascade, states)
        w, _ = states[1].params[0]
        assert w.shape == (64, 128)

    def test_dummy_has_no_parameters(self, keys):
        cascade, states = build(keys, SMALL, dummies=(1,))
        init_all(cascade, states)
        assert states[1].role == node.ROLE_DUMMY
        assert states[1].params is None and states[1].opt is None

    def test_reinit_replaces_state_entirely(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        fresh = [p[0].copy() for p in states[0].params if p]
        # train a bit so parameters drift
        x = np.random.default_rng(0).random((4, 8), dtype=np.float32)
        fwd = onion.pack_forward(cascade, x, np.array([0, 1, 2, 3]))
        run_chain(cascade, states, fwd, (0, 1, 2))
        bwd = onion.pack_backward(cascade)
        run_chain(cascade, states, bwd, (2, 1, 0))
        drifted = [p[0] for p in states[0].params if p]
        assert not np.array_equal(fresh[0], drifted[0])
        init_all(cascade, states)  # back to the seeded values
        again = [p[0] for p in states[0].params if p]
        npt.assert_array_equal(fresh[0], again[0])

    def test_last_hop_acknowledges_init(self, keys):
        cascade, states = build(keys, SMALL, dummies=(1,))
        pkt = onion.pack_init(cascade)
        for state in states:
            action = handle_packet(state, pkt)
            assert isinstance(action, Send)
            pkt = action.data
        assert action.dst == cascade.designer_addr
        record, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert record.op == OpCode.INIT and record.reply == onion.REPLY_ACK
        assert payload is None


    @pytest.mark.parametrize("missing", ["learning_rate", "momentum"])
    def test_init_without_optimizer_setting_dropped(self, keys, missing):
        # pack_init always writes both, so a node has no value to fall back on
        _, states = build(keys, SMALL)
        settings = {"learning_rate": 0.05, "momentum": 0.5}
        del settings[missing]
        record = onion.OnionRecord(op=OpCode.INIT, role=onion.ROLE_ACTUAL,
                                   chain=[nn.linear(8, 6), nn.relu()], seed=1,
                                   return_addr=Address("d.test", 6000),
                                   return_pk=keys[-1].pk, **settings)
        pkt = onion.build_packet(b"", seal(keys[0].pk, onion.encode_record(record)), L)
        action = handle_packet(states[0], pkt)
        assert isinstance(action, Drop) and "protocol-error" in action.reason
        assert states[0].role == node.ROLE_UNINIT
        assert states[0].params is None and states[0].opt is None


class TestStateMachine:
    def test_forward_before_init_rejected(self, keys):
        cascade, states = build(keys, SMALL)
        pkt = onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                 np.array([0]))
        action = handle_packet(states[0], pkt)
        assert isinstance(action, Drop) and "protocol-error" in action.reason

    def test_backward_before_forward_rejected(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        action = handle_packet(states[2], onion.pack_backward(cascade))
        assert isinstance(action, Drop) and "protocol-error" in action.reason

    def test_double_forward_rejected(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        pkt = onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                 np.array([0]))
        assert isinstance(handle_packet(states[0], pkt), Send)
        pkt2 = onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                  np.array([0]))
        assert isinstance(handle_packet(states[0], pkt2), Drop)

    def test_tampered_packet_dropped_not_answered(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        pkt = bytearray(onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                           np.array([0])))
        pkt[100] ^= 0xFF
        action = handle_packet(states[0], bytes(pkt))
        assert isinstance(action, Drop) and action.reason == "tamper-or-misroute"

    def test_misrouted_packet_dropped(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        pkt = onion.pack_forward(cascade, np.ones((1, 8), dtype=np.float32),
                                 np.array([0]))
        action = handle_packet(states[1], pkt)  # sealed to node 0, not node 1
        assert isinstance(action, Drop)

    def test_wrong_length_packet_dropped(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        action = handle_packet(states[0], b"MXNN" + b"\x01" + b"\x00" * 100)
        assert isinstance(action, Drop)

    @pytest.mark.parametrize("fields", [
        pytest.param([(1, b"\x00"), (6, b"actual"), (7, struct.pack(">HBII", 1, 99, 1, 1)),
                      (10, struct.pack(">Q", 1))], id="unknown-primitive-code"),
        pytest.param([(1, b"\x00"), (6, b"actual"), (7, struct.pack(">HBII", 1, 2, 0, 0)),
                      (10, b"\x01")], id="one-byte-seed"),
        pytest.param([(1, b"\x09")], id="op-byte-9"),
        pytest.param([(1, b"")], id="empty-op"),
        pytest.param([(1, b"\x01"), (3, b"nonsense")], id="unparseable-next"),
        pytest.param([(1, b"\x00"), (6, b"\xff")], id="non-utf8-role"),
        pytest.param([(1, b"\x01"), (11, onion.encode_labels(np.array([0, 1])))],
                     id="labels-without-return-address"),
    ])
    def test_hostile_record_sealed_to_own_key_dropped(self, keys, fields):
        # public keys are published, so anyone can seal a record to a node
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        record = b"".join(struct.pack(">BI", tag, len(v)) + v for tag, v in fields)
        payload = onion.encode_matrix(np.zeros((2, 4), dtype=np.float32))
        pkt = onion.build_packet(seal(keys[2].pk, payload), seal(keys[2].pk, record), L)
        assert isinstance(handle_packet(states[2], pkt), Drop)


def _snapshot(state):
    params = [a.copy() for layer in state.params if layer for a in layer]
    return params, state.role, state.cache


class TestNowhereToSend:
    """A record that names neither a next hop nor a return address is
    dropped before the hop changes any state."""

    def assert_dropped_unchanged(self, state, pkt):
        params, role, cache = _snapshot(state)
        action = handle_packet(state, pkt)
        assert isinstance(action, Drop) and "nowhere to send" in action.reason
        for before, after in zip(params, _snapshot(state)[0], strict=True):
            npt.assert_array_equal(before, after)
        assert state.role == role and state.cache is cache

    def test_outsider_init_leaves_parameters(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        record = onion.OnionRecord(op=OpCode.INIT, role=onion.ROLE_ACTUAL,
                                   chain=[nn.linear(8, 6), nn.relu()], seed=99)
        pkt = onion.build_packet(b"", seal(keys[0].pk, onion.encode_record(record)), L)
        self.assert_dropped_unchanged(states[0], pkt)

    def test_backward_after_forward_leaves_parameters_and_cache(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        run_chain(cascade, states, onion.pack_forward(
            cascade, np.ones((2, 8), dtype=np.float32), np.array([0, 1])), (0, 1, 2))
        assert states[1].cache is not None
        record = onion.encode_record(onion.OnionRecord(op=OpCode.BACKWARD))
        grad = onion.encode_matrix(np.full((2, 4), 0.5, dtype=np.float32))
        pkt = onion.build_packet(seal(keys[1].pk, grad), seal(keys[1].pk, record), L)
        self.assert_dropped_unchanged(states[1], pkt)


NEXT = Address("next.test", 7100)
F, B, T = OpCode.FORWARD, OpCode.BACKWARD, OpCode.TEST


class TestDispatch:
    """One row per distinct outcome of handle_packet for the compute ops:
    a Send to the next hop, a Send to the designer, or a Drop whose reason
    starts with the given text. The cascade is SMALL with a dummy in slot 1:
    0 linear 8x6 + relu, 1 dummy, 2 linear 6x4, 3 logsoftmax + nllloss."""

    @pytest.mark.parametrize("op,slot,prep,route,cols,expected", [
        pytest.param(F, 0, "uninit", "on", 8, "protocol-error: forward before init",
                     id="forward-before-init"),
        pytest.param(F, 0, "uninit", "on", None, "protocol-error: forward before init",
                     id="forward-before-init-without-payload"),
        pytest.param(B, 0, "uninit", "on", 6, "protocol-error: backward before init",
                     id="backward-before-init"),
        pytest.param(T, 0, "uninit", "on", 8, "protocol-error: test before init",
                     id="test-before-init"),
        pytest.param(F, 0, "init", "on", None, "protocol-error: forward without payload",
                     id="forward-without-payload"),
        pytest.param(F, 1, "init", "on", None, "protocol-error: forward without payload",
                     id="forward-without-payload-dummy"),
        pytest.param(T, 0, "init", "on", None, "protocol-error: test without payload",
                     id="test-without-payload"),
        pytest.param(T, 1, "init", "on", None, "protocol-error: test without payload",
                     id="test-without-payload-dummy"),
        pytest.param(F, 1, "init", "on", 6, "next", id="forward-dummy-relay"),
        pytest.param(B, 1, "init", "on", 6, "next", id="backward-dummy-relay"),
        pytest.param(B, 1, "init", "on", None, "next", id="backward-dummy-relay-without-payload"),
        pytest.param(T, 1, "init", "on", 6, "next", id="test-dummy-relay"),
        pytest.param(F, 1, "init", "reply", 6, "forward-terminal", id="forward-dummy-terminal"),
        pytest.param(B, 1, "init", "reply", 6, "backward-terminal", id="backward-dummy-terminal"),
        pytest.param(T, 1, "init", "reply", 6, "test-terminal", id="test-dummy-terminal"),
        pytest.param(B, 2, "init", "on", 4, "protocol-error: backward before forward",
                     id="backward-before-forward"),
        pytest.param(B, 2, "forwarded", "on", None,
                     "protocol-error: backward without a gradient payload",
                     id="backward-without-gradient"),
        pytest.param(F, 0, "forwarded", "on", 8, "protocol-error: forward with an unconsumed",
                     id="forward-with-unconsumed-cache"),
        pytest.param(F, 0, "init", "on", 8, "next", id="forward-pass-on"),
        pytest.param(B, 2, "forwarded", "on", 4, "next", id="backward-pass-on"),
        pytest.param(T, 0, "init", "on", 8, "next", id="test-pass-on"),
        pytest.param(F, 2, "init", "reply", 6, "designer", id="forward-reply-output"),
        pytest.param(F, 3, "init", "loss", 4, "designer", id="forward-reply-loss"),
        pytest.param(B, 0, "forwarded", "reply", 6, "designer", id="backward-reply"),
        pytest.param(T, 2, "init", "reply", 6, "designer", id="test-reply"),
        pytest.param(F, 0, "init", "nowhere", 8,
                     "protocol-error: forward record with nowhere to send", id="forward-nowhere"),
        pytest.param(B, 2, "forwarded", "nowhere", 4,
                     "protocol-error: backward record with nowhere to send", id="backward-nowhere"),
        pytest.param(T, 0, "init", "nowhere", 8,
                     "protocol-error: test record with nowhere to send", id="test-nowhere"),
    ])
    def test_outcome(self, keys, op, slot, prep, route, cols, expected):
        cascade, states = build(keys, SMALL, dummies=(1,))
        if prep != "uninit":
            init_all(cascade, states)
        if prep == "forwarded":
            run_chain(cascade, states, onion.pack_forward(
                cascade, np.ones((2, 8), dtype=np.float32), np.array([0, 1])), (0, 1, 2, 3))
        fields = {
            "on": dict(next=NEXT, next_pk=keys[4].pk, inner=b"inner onion"),
            "reply": dict(return_addr=cascade.designer_addr, return_pk=cascade.designer_pk),
            "loss": dict(return_addr=cascade.designer_addr, return_pk=cascade.designer_pk,
                         labels=np.array([0, 1])),
            "nowhere": {},
        }[route]
        record = onion.encode_record(onion.OnionRecord(op=op, **fields))
        payload = b"" if cols is None else seal(
            keys[slot].pk, onion.encode_matrix(np.full((2, cols), 0.5, dtype=np.float32)))
        pkt = onion.build_packet(payload, seal(keys[slot].pk, record), L)
        action = handle_packet(states[slot], pkt)
        if isinstance(action, Send):
            assert {NEXT: "next", cascade.designer_addr: "designer"}.get(action.dst) == expected
        else:
            assert action.reason.startswith(expected)


class TestForward:
    def test_five_node_sweep_is_five_invocations(self, keys):
        chains = [
            [nn.linear(8, 8), nn.relu()],
            [nn.linear(8, 8)],
            [nn.linear(8, 6)],
            [nn.linear(6, 4)],
            [nn.logsoftmax(), nn.nllloss()],
        ]
        cascade, states = build(keys, chains)
        init_all(cascade, states)
        calls = [0] * 5

        pkt = onion.pack_forward(cascade, np.ones((2, 8), dtype=np.float32),
                                 np.array([0, 1]))
        action = None
        for i in range(5):
            action = handle_packet(states[i], pkt)
            calls[i] += 1
            if isinstance(action, Send):
                pkt = action.data
        assert calls == [1, 1, 1, 1, 1]
        assert action.dst == cascade.designer_addr

    def test_loss_reply_reaches_designer(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        x = np.random.default_rng(1).random((4, 8), dtype=np.float32)
        y = np.array([0, 1, 2, 3])
        action = run_chain(cascade, states, onion.pack_forward(cascade, x, y), (0, 1, 2))
        record, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert record.reply == onion.REPLY_LOSS
        loss = onion.decode_matrix(payload)[0, 0]

        # oracle: the same three-layer forward in-process
        specs = [e.layer for e in cascade.entries]
        params = [nn.init_layer_params(s) for s in specs]
        out = x
        for s, p in zip(specs[:-1], params[:-1]):
            out, _ = nn.layer_forward(s, p, out)
        expect, _ = nn.layer_forward(specs[-1], params[-1], out, labels=y)
        assert loss == expect

    def test_perfect_logp_gives_zero_loss(self, keys):
        chains = [[nn.identity()], [nn.logsoftmax(), nn.nllloss()]]
        cascade, states = build(keys, chains)
        init_all(cascade, states)
        x = np.full((2, 3), -1000.0, dtype=np.float32)
        x[0, 1] = x[1, 2] = 1000.0  # softmax saturates at the target
        action = run_chain(cascade, states,
                           onion.pack_forward(cascade, x, np.array([1, 2])), (0, 1))
        _, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert onion.decode_matrix(payload)[0, 0] == 0.0

    def test_dummy_passes_payload_bitwise(self, keys):
        cascade, states = build(keys, SMALL, dummies=(1,))
        init_all(cascade, states)
        x = np.random.default_rng(2).random((3, 8), dtype=np.float32)
        pkt = onion.pack_forward(cascade, x, np.array([0, 1, 2]))
        a0 = handle_packet(states[0], pkt)
        sent_by_0 = a0.data
        a1 = handle_packet(states[1], sent_by_0)  # the dummy
        before, _ = onion.parse_packet(sent_by_0, L)
        # dummy re-seals, so ciphertext differs but plaintext must be identical
        _, p_in, _ = onion.unwrap(keys[1].sk, sent_by_0, L)
        p_out = open_sealed(keys[2].sk, onion.parse_packet(a1.data, L)[0])
        assert p_in == p_out
        assert states[1].compute_count == 0

    def test_forwarded_packet_carries_no_inbound_padding(self, keys):
        # a link observer must not match the packets of two hops: no run of
        # the inbound padding may reappear anywhere in the outbound packet.
        # Any copied run of 63 bytes or more holds one of these windows.
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        x = np.random.default_rng(4).random((3, 8), dtype=np.float32)
        pkt = bytes(onion.pack_forward(cascade, x, np.array([0, 1, 2])))
        action = handle_packet(states[0], pkt)
        assert isinstance(action, Send)
        payload_ct, onion_ct = onion.parse_packet(pkt, L)
        pad = pkt[onion.HEADER_LEN + len(payload_ct) + len(onion_ct):]
        windows = {pad[i:i + 32] for i in range(0, len(pad) - 31, 32)}
        out = bytes(action.data)
        assert not any(out[i:i + 32] in windows for i in range(len(out) - 31))


class TestBackward:
    def _one_iteration(self, keys, tamper_slot=None, input_grad=True):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        if tamper_slot is not None:
            states[tamper_slot].tamper_gradients = True
        x = np.random.default_rng(3).random((4, 8), dtype=np.float32)
        y = np.array([0, 1, 2, 3])
        run_chain(cascade, states, onion.pack_forward(cascade, x, y), (0, 1, 2))
        action = run_chain(cascade, states,
                           onion.pack_backward(cascade, input_grad=input_grad), (2, 1, 0))
        return cascade, states, action, x, y

    def test_ack_reaches_designer_with_input_grad(self, keys):
        cascade, states, action, x, _ = self._one_iteration(keys)
        record, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert record.reply == onion.REPLY_ACK
        assert onion.decode_matrix(payload).shape == x.shape

    def test_ack_without_input_grad_flag_has_no_payload(self, keys):
        _, _, action, _, _ = self._one_iteration(keys, input_grad=False)
        assert len(action.data) == L
        payload_ct, _ = onion.parse_packet(action.data, L)
        record, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert record.reply == onion.REPLY_ACK
        assert payload is None and payload_ct == b""

    def test_skipped_input_grad_leaves_parameter_updates_unchanged(self, keys):
        _, with_dx, _, _, _ = self._one_iteration(keys)
        _, without, _, _, _ = self._one_iteration(keys, input_grad=False)
        for a, b in zip(with_dx, without):
            for pa, pb in zip(a.params, b.params):
                if pa is not None:
                    assert pa[0].tobytes() == pb[0].tobytes()
                    assert pa[1].tobytes() == pb[1].tobytes()

    def test_cache_cleared_after_backward(self, keys):
        _, states, _, _, _ = self._one_iteration(keys)
        assert all(s.cache is None for s in states)

    def test_params_match_inprocess_oracle(self, keys):
        cascade, states, _, x, y = self._one_iteration(keys)
        specs = [e.layer for e in cascade.entries]
        params = [nn.init_layer_params(s) for s in specs]
        opts = [nn.OptimizerState(p, cascade.learning_rate, cascade.momentum)
                for p in params]
        caches, out = [], x
        for s, p in zip(specs, params):
            out, c = nn.layer_forward(s, p, out, labels=y if s.ends_in_loss() else None)
            caches.append(c)
        g = None
        for s, p, o, c in zip(reversed(specs), reversed(params), reversed(opts),
                              reversed(caches)):
            g = nn.layer_backward(s, p, o, c, g)
        for state, p_expect in zip(states, params):
            for got, expect in zip(state.params, p_expect):
                if got is None:
                    continue
                npt.assert_array_equal(got[0], expect[0])
                npt.assert_array_equal(got[1], expect[1])

    def test_zero_incoming_gradient_keeps_params(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        x = np.ones((2, 8), dtype=np.float32)
        run_chain(cascade, states, onion.pack_forward(cascade, x, np.array([0, 1])),
                  (0, 1, 2))
        w_before = states[0].params[0][0].copy()
        # hand node 0 a crafted zero gradient directly
        rec = onion.OnionRecord(op=OpCode.BACKWARD,
                                return_addr=cascade.designer_addr,
                                return_pk=cascade.designer_pk)
        from mixnn.crypto import seal
        onion_ct = seal(keys[0].pk, onion.encode_record(rec))
        payload_ct = seal(keys[0].pk, onion.encode_matrix(np.zeros((2, 6), np.float32)))
        pkt = onion.build_packet(payload_ct, onion_ct, L)
        action = handle_packet(states[0], pkt)
        assert isinstance(action, Send)
        npt.assert_array_equal(states[0].params[0][0], w_before)

    def test_dummy_relays_gradient_bitwise(self, keys):
        cascade, states = build(keys, SMALL, dummies=(1,))
        init_all(cascade, states)
        x = np.random.default_rng(4).random((2, 8), dtype=np.float32)
        run_chain(cascade, states, onion.pack_forward(cascade, x, np.array([0, 1])),
                  (0, 1, 2, 3))
        pkt = onion.pack_backward(cascade)
        a3 = handle_packet(states[3], pkt)
        a2 = handle_packet(states[2], a3.data)
        grad_in = onion.unwrap(keys[1].sk, a2.data, L)[1]
        a1 = handle_packet(states[1], a2.data)  # dummy
        grad_out = open_sealed(keys[0].sk, onion.parse_packet(a1.data, L)[0])
        assert grad_in == grad_out

    def test_tampered_node_flips_gradient_sign(self, keys):
        _, honest_states, _, x, y = self._one_iteration(keys)
        _, tampered_states, _, _, _ = self._one_iteration(keys, tamper_slot=1)
        w_honest = honest_states[0].params[0][0]
        w_tampered = tampered_states[0].params[0][0]
        assert not np.array_equal(w_honest, w_tampered)


class TestTest:
    def test_end_layer_returns_logp(self, keys):
        chains = [
            [nn.linear(8, 6), nn.relu()],
            [nn.linear(6, 10)],
            [nn.logsoftmax()],
            [nn.nllloss()],
        ]
        cascade, states = build(keys, chains)
        init_all(cascade, states)
        x = np.random.default_rng(5).random((4, 8), dtype=np.float32)
        action = run_chain(cascade, states, onion.pack_test(cascade, x, 3), (0, 1, 2))
        record, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert record.reply == onion.REPLY_OUTPUT
        logp = onion.decode_matrix(payload)
        assert logp.shape == (4, 10)
        npt.assert_allclose(np.exp(logp).sum(axis=1), np.ones(4), atol=1e-5)

    def test_sweep_leaves_params_untouched(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        snapshot = [[(w.copy(), b.copy()) if p else None for p in s.params
                     for (w, b) in ([p] if p else [])] if s.params else None
                    for s in states]
        x = np.random.default_rng(6).random((4, 8), dtype=np.float32)
        run_chain(cascade, states, onion.pack_test(cascade, x, 3), (0, 1, 2))
        for s, snap in zip(states, snapshot):
            if snap is None:
                continue
            live = [p for p in s.params if p]
            for (w0, b0), (w1, b1) in zip(snap, live):
                npt.assert_array_equal(w0, w1)
                npt.assert_array_equal(b0, b1)
        assert all(s.cache is None for s in states)

    def test_loss_step_passes_through_in_test_mode(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        x = np.random.default_rng(7).random((2, 8), dtype=np.float32)
        action = run_chain(cascade, states, onion.pack_test(cascade, x, 3), (0, 1, 2))
        _, payload, _ = onion.unwrap(keys[-1].sk, action.data, L)
        assert onion.decode_matrix(payload).shape == (2, 4)  # logp, not a scalar


class TestCover:
    def test_cover_relays_without_compute(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        pkt = onion.pack_cover_loop(cascade)
        for i in range(3):
            action = handle_packet(states[i], pkt)
            assert isinstance(action, Send)
            pkt = action.data
        assert all(s.compute_count == 0 for s in states)
        # the last hop replies cover to the designer
        record, _, _ = onion.unwrap(keys[-1].sk, pkt, L)
        assert record.reply == onion.REPLY_COVER

    def test_loop_carries_no_payload_at_any_hop(self, keys):
        cascade, states = build(keys, SMALL)
        pkt = onion.pack_cover_loop(cascade)
        for i in range(3):
            assert len(onion.parse_packet(pkt, L)[0]) == 0, f"hop {i}"
            pkt = handle_packet(states[i], pkt).data
        assert len(onion.parse_packet(pkt, L)[0]) == 0, "reply"

    def test_cover_relays_even_before_init(self, keys):
        cascade, states = build(keys, SMALL)
        action = handle_packet(states[0], onion.pack_cover_loop(cascade))
        assert isinstance(action, Send)

    def test_single_hop_cover_dropped_without_state_change(self, keys):
        cascade, states = build(keys, SMALL)
        init_all(cascade, states)
        pkt = onion.pack_single_cover(keys[1].pk, L)
        assert len(pkt) == L
        before = states[1].params[0][0].copy()
        action = handle_packet(states[1], pkt)
        assert isinstance(action, Drop)
        npt.assert_array_equal(states[1].params[0][0], before)
        assert states[1].cache is None and states[1].compute_count == 0


class TestLogging:
    def test_outcome_lines_have_fields(self, keys, caplog):
        cascade, states = build(keys, SMALL)
        with caplog.at_level(logging.INFO, logger="mixnn.node"):
            init_all(cascade, states)
        messages = [r.getMessage() for r in caplog.records]
        assert any("node=n0" in m and "op=INIT" in m and "outcome=" in m
                   for m in messages)


class TestRepr:
    def test_secret_key_never_printed(self):
        kp = gen_keypair()
        assert repr(kp.sk) not in repr(kp)
        assert repr(kp.sk) not in repr(NodeState("n0", kp))
