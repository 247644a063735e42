import dataclasses
import logging
import os
import re
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from mixnn import crypto, nn, node, onion
from mixnn.cli import TABLE_MODEL, parse_model
from mixnn.crypto import gen_keypair
from mixnn.designer import (ConfigError, CrashDetected, ProvisionPlan,
                            TrainingConfig)
from mixnn.harness import (FaultAction, FaultPlan, baseline_predict,
                           collect_cascade_params, inject_fault, run_baseline,
                           synthetic_two_gaussians)
from mixnn.onion import OpCode, unwrap

from conftest import (SimWorld, params_equal, plan_np, small_config,
                      small_dataset, small_model)


class TestProvision:
    def test_five_actual_layers_five_remote_nodes(self, sim_world):
        cascade = sim_world.cascade(small_model(), plan_np(5, 5), small_config())
        assert cascade.n == 5
        assert all(e.layer is not None for e in cascade.entries)

    def test_selection_is_seeded(self, sim_world):
        model, config = small_model(), small_config()
        a = sim_world.cascade(model, plan_np(5, 5, seed=3), config)
        b = sim_world.cascade(model, plan_np(5, 5, seed=3), config)
        c = sim_world.cascade(model, plan_np(5, 5, seed=4), config)
        assert [e.node_id for e in a.entries] == [e.node_id for e in b.entries]
        assert [e.node_id for e in a.entries] != [e.node_id for e in c.entries]

    def test_dummies_interior_only(self):
        world = SimWorld(m=12)
        for seed in range(6):
            cascade = world.cascade(small_model(), plan_np(8, 5, r=3, seed=seed),
                                    small_config())
            assert cascade.entries[0].layer is not None
            assert cascade.entries[-1].layer is not None
            assert sum(e.layer is None for e in cascade.entries) == 3

    def test_insufficient_pool(self, sim_world):
        with pytest.raises(ConfigError):
            sim_world.cascade(small_model(), plan_np(50, 50), small_config())

    def test_plan_arithmetic_validated(self):
        with pytest.raises(ConfigError):
            ProvisionPlan(n=5, p=3, r=1)

    def test_negative_dummy_count_rejected(self):
        # n = p + r holds, so only the sign check can catch it
        with pytest.raises(ConfigError, match="r=-1"):
            ProvisionPlan(n=4, p=5, r=-1)

    def test_hold_last_keeps_labels_out_of_every_onion(self):
        world = SimWorld()
        config = small_config(hold_last_layer=True)
        cascade = world.train_ready(small_model(), plan_np(4, 4), config)
        ds = small_dataset(n=8)
        labels = ds.labels[:8]
        pkt = onion.pack_forward(cascade, ds.images[:8],
                                 None)  # what the designer sends under hold_last
        for e in cascade.entries:
            rt = world.pool.runtime(e.node_id)
            record, _, pkt_next = unwrap(rt.state.keypair.sk, pkt, cascade.packet_len)
            assert record.labels is None
            pkt = pkt_next
        # and a real training iteration works without labels on the wire
        metrics = world.designer.train(cascade, ds.images, ds.labels,
                                       small_config(hold_last_layer=True, epochs=1))
        assert len(metrics.losses) > 0

    def test_hold_first_keeps_raw_data_off_the_wire(self):
        world = SimWorld()
        config = small_config(hold_first_layer=True)
        cascade = world.train_ready(small_model(), plan_np(4, 4), config)
        ds = small_dataset(n=8)
        raw = ds.images[:8]
        sent = []
        original_send = world.designer.channel.send

        def spy(dst, data):
            sent.append(data)
            original_send(dst, data)

        world.designer.channel.send = spy
        world.designer.train(cascade, raw, ds.labels[:8], config)
        raw_bytes = onion.encode_matrix(raw)[8:]  # the pixel payload
        assert sent and all(raw_bytes not in pkt for pkt in sent)


class TestInitialize:
    def test_post_init_probe_succeeds(self, sim_world):
        cascade = sim_world.cascade(small_model(), plan_np(5, 5), small_config())
        sim_world.designer.initialize_model(cascade, small_config())
        # no exception: every hop answered the zero-batch sweep

    def test_double_init_restores_fresh_params(self, sim_world):
        config, model = small_config(), small_model()
        cascade = sim_world.train_ready(model, plan_np(5, 5), config)
        ds = small_dataset(n=32)
        sim_world.designer.train(cascade, ds.images, ds.labels, config)
        trained = collect_cascade_params(cascade, sim_world.pool)
        assert not params_equal(trained, [nn.init_layer_params(s) for s in model])
        sim_world.designer.initialize_model(cascade, config)
        fresh = collect_cascade_params(cascade, sim_world.pool)
        assert params_equal(fresh, [nn.init_layer_params(s) for s in model])

    def test_one_packet_in_flight_and_n_plus_1_packets(self, sim_world):
        config = small_config()
        cascade = sim_world.cascade(small_model(), plan_np(5, 5), config)
        sim_world.designer.send_designer_loop(cascade)
        outstanding = {"n": 0, "max": 0}
        sent = []
        channel, net = sim_world.designer.channel, sim_world.net
        real_send, real_recv, real_net_send = channel.send, channel.recv, net.send

        def send(dst, data):
            outstanding["n"] += 1
            outstanding["max"] = max(outstanding["max"], outstanding["n"])
            real_send(dst, data)

        def recv(timeout):
            data = real_recv(timeout)
            outstanding["n"] -= 1
            return data

        def net_send(src, dst, data, at=None):
            sent.append(dst)
            real_net_send(src, dst, data, at=at)

        channel.send, channel.recv, net.send = send, recv, net_send
        sim_world.designer.initialize_model(cascade, config)
        assert outstanding["max"] == 1
        assert len(sent) == cascade.n + 1
        assert sent[-1] == cascade.designer_addr

    def test_uninitialized_cascade_rejects_forward(self, sim_world):
        config = small_config(time_bound_T=0.5)
        cascade = sim_world.cascade(small_model(), plan_np(5, 5), config)
        ds = small_dataset(n=8)
        with pytest.raises(CrashDetected):
            sim_world.designer.train(cascade, ds.images, ds.labels, config)


class TestSession:
    @pytest.mark.parametrize("hold_first,hold_last",
                             [(True, False), (False, True), (True, True)],
                             ids=["first", "last", "both"])
    def test_held_layers_match_oracle(self, hold_first, hold_last):
        config = small_config(epochs=2, hold_first_layer=hold_first,
                              hold_last_layer=hold_last)
        model = small_model()
        remote = 5 - hold_first - hold_last
        world = SimWorld()
        cascade = world.train_ready(model, plan_np(remote, remote), config)
        ds = small_dataset(n=64)
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        params, base = run_baseline(model, ds.images, ds.labels, config)
        assert metrics.losses == base.losses
        assert params_equal(collect_cascade_params(cascade, world.pool), params)
        out = world.designer.predict(cascade, ds.images, batch_size=32, config=config)
        npt.assert_array_equal(out, baseline_predict(model, params, ds.images,
                                                     batch_size=32))
        world.designer.initialize_model(cascade, config)
        assert params_equal(collect_cascade_params(cascade, world.pool),
                            [nn.init_layer_params(s) for s in model])

    def test_session_has_only_declared_attributes(self):
        config = small_config(hold_first_layer=True, hold_last_layer=True)
        world = SimWorld()
        session = world.train_ready(small_model(), plan_np(3, 3), config)
        ds = small_dataset(n=32)
        world.designer.train(session, ds.images, ds.labels, config)
        assert set(vars(session)) == {f.name for f in dataclasses.fields(session)}


class TestTrain:
    def test_empty_data_changes_nothing(self, sim_world):
        config, model = small_config(epochs=0), small_model()
        cascade = sim_world.train_ready(model, plan_np(5, 5), config)
        before = collect_cascade_params(cascade, sim_world.pool)
        snapshot = [[(w.copy(), b.copy()) if p else None for p in layer
                     for (w, b) in ([p] if p else [])] for layer in before]
        ds = small_dataset(n=16)
        metrics = sim_world.designer.train(cascade, ds.images, ds.labels, config)
        assert metrics.losses == [] and metrics.rows == []
        after = collect_cascade_params(cascade, sim_world.pool)
        for layer_before, layer_after in zip(snapshot, after):
            live = [p for p in layer_after if p]
            for (w0, b0), (w1, b1) in zip(layer_before, live):
                npt.assert_array_equal(w0, w1)

    def test_one_packet_in_flight(self, sim_world):
        config = small_config()
        cascade = sim_world.train_ready(small_model(), plan_np(5, 5), config)
        ds = small_dataset(n=64)
        outstanding = {"n": 0, "max": 0}
        channel = sim_world.designer.channel
        real_send, real_recv = channel.send, channel.recv

        def send(dst, data):
            outstanding["n"] += 1
            outstanding["max"] = max(outstanding["max"], outstanding["n"])
            real_send(dst, data)

        def recv(timeout):
            data = real_recv(timeout)
            outstanding["n"] -= 1
            return data

        channel.send, channel.recv = send, recv
        sim_world.designer.train(cascade, ds.images, ds.labels, config)
        assert outstanding["max"] == 1

    def test_losses_match_baseline(self, sim_world):
        config, model = small_config(epochs=2), small_model()
        cascade = sim_world.train_ready(model, plan_np(5, 5), config)
        ds = small_dataset(n=64)
        metrics = sim_world.designer.train(cascade, ds.images, ds.labels, config)
        _, base = run_baseline(model, ds.images, ds.labels, config)
        assert metrics.losses == base.losses


class TestTestPhase:
    def test_untrained_accuracy_matches_baseline_and_stays_low(self, sim_world):
        # an untrained seeded model scores at chance level; the exact value is
        # whatever the baseline oracle says, bitwise
        config = small_config()
        cascade = sim_world.train_ready(small_model(), plan_np(5, 5), config)
        ds = small_dataset(n=256)
        acc = sim_world.designer.test(cascade, ds.images, ds.labels,
                                      batch_size=32, config=config)
        model = small_model()
        params = [nn.init_layer_params(s) for s in model]
        from mixnn.harness import baseline_predict
        logp = baseline_predict(model, params, ds.images, batch_size=32)
        expect = float(np.mean(np.argmax(logp, axis=1) == ds.labels))
        assert acc == expect
        assert acc <= 0.6  # nowhere near a trained model on this data

    def test_accuracy_equals_baseline_exactly(self, sim_world):
        config, model = small_config(epochs=1), small_model()
        cascade = sim_world.train_ready(model, plan_np(5, 5), config)
        ds = small_dataset(n=64)
        sim_world.designer.train(cascade, ds.images, ds.labels, config)
        acc = sim_world.designer.test(cascade, ds.images, ds.labels,
                                      batch_size=config.batch_size, config=config)
        params, _ = run_baseline(model, ds.images, ds.labels, config)
        from mixnn.harness import baseline_predict
        logp = baseline_predict(model, params, ds.images, batch_size=config.batch_size)
        assert acc == float(np.mean(np.argmax(logp, axis=1) == ds.labels))


class TestDeadline:
    def test_t_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainingConfig(time_bound_T=0.0)

    def test_kill_triggers_crash_within_bound(self):
        world = SimWorld(m=8)
        config = small_config(time_bound_T=2.0)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        inject_fault(FaultPlan([FaultAction(node="slot:3", action="kill")]),
                     world.pool, cascade)
        ds = small_dataset(n=32)
        t0 = world.net.now
        with pytest.raises(CrashDetected) as err:
            world.designer.train(cascade, ds.images, ds.labels, config)
        elapsed = world.net.now - t0
        assert elapsed <= 2.0 + 0.1  # T plus scheduling slack
        # blameless: the message names no node
        assert not re.search(r"n\d{3}", str(err.value))

    def test_healthy_cascade_never_times_out_over_100_iterations(self):
        world = SimWorld(m=8)
        config = small_config(time_bound_T=None, epochs=2, batch_size=4)
        model = small_model()
        cascade = world.cascade(model, plan_np(5, 5), config)
        rtt = world.designer.send_designer_loop(cascade)
        assert rtt > 0  # T defaults to 100x the measured loop round trip
        world.designer.initialize_model(cascade, config)
        ds = small_dataset(n=224)  # 56 batches x 2 epochs = 112 iterations
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        assert len(metrics.losses) == 112
        assert metrics.crash_events == []


class TestReplace:
    def test_disjoint_node_set(self):
        world = SimWorld(m=12)
        config, model, plan = small_config(), small_model(), plan_np(5, 5)
        old = world.cascade(model, plan, config)
        new = world.designer.replace_cascade(old, world.directory.list(), model,
                                             plan, config=config)
        assert not ({e.node_id for e in old.entries}
                    & {e.node_id for e in new.entries})

    def test_pool_exhausted(self):
        world = SimWorld(m=8)
        config, model, plan = small_config(), small_model(), plan_np(5, 5)
        old = world.cascade(model, plan, config)
        with pytest.raises(ConfigError):
            world.designer.replace_cascade(old, world.directory.list(), model,
                                           plan, config=config)

    def test_replacement_reaches_same_results(self):
        world = SimWorld(m=12)
        config, model, plan = small_config(), small_model(), plan_np(5, 5)
        old = world.cascade(model, plan, config)
        new = world.designer.replace_cascade(old, world.directory.list(), model,
                                             plan, config=config)
        world.designer.send_designer_loop(new)
        world.designer.initialize_model(new, config)
        ds = small_dataset(n=64)
        metrics = world.designer.train(new, ds.images, ds.labels, config)
        _, base = run_baseline(model, ds.images, ds.labels, config)
        assert metrics.losses == base.losses


class TestValidate:
    def test_threshold_zero_always_passes(self, sim_world):
        config = small_config()
        cascade = sim_world.train_ready(small_model(), plan_np(5, 5), config)
        ds = small_dataset(n=32)
        assert sim_world.designer.validate_model(cascade, ds.images, ds.labels,
                                                 0.0, config=config)

    def test_honest_run_passes_09(self):
        world = SimWorld(m=8)
        config = small_config(epochs=4, batch_size=64)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        ds = synthetic_two_gaussians(n=512, dim=784, seed=3)
        world.designer.train(cascade, ds.images, ds.labels, config)
        assert world.designer.validate_model(cascade, ds.images, ds.labels,
                                             0.9, config=config)


class TestLoop:
    def test_loop_returns_on_healthy_cascade(self, sim_world):
        cascade = sim_world.cascade(small_model(), plan_np(5, 5), small_config())
        rtt = sim_world.designer.send_designer_loop(cascade)
        # 5 hops at latency+proc plus the return leg, in virtual time
        assert 0 < rtt < 1.0

    def test_loop_detects_dead_node(self):
        world = SimWorld(m=8)
        cascade = world.cascade(small_model(), plan_np(5, 5), small_config())
        inject_fault(FaultPlan([FaultAction(node="slot:2", action="kill")]),
                     world.pool, cascade)
        with pytest.raises(CrashDetected):
            world.designer.send_designer_loop(cascade, timeout=1.0)

    def test_nodes_see_at_most_two_peer_addresses(self, caplog):
        world = SimWorld(m=8)
        cascade = world.cascade(small_model(), plan_np(5, 5), small_config())
        with caplog.at_level(logging.INFO, logger="mixnn.node"):
            world.designer.send_designer_loop(cascade)
        per_node = {}
        for record in caplog.records:
            message = record.getMessage()
            m = re.search(r"node=(\S+)", message)
            if not m:
                continue
            addrs = set(re.findall(r"[\w.]+\.sim:\d+|designer\.sim:\d+", message))
            addrs.discard(f"{m.group(1)}.sim:9000")  # a node's own address
            per_node.setdefault(m.group(1), set()).update(addrs)
        assert per_node
        for node_id, addrs in per_node.items():
            assert len(addrs) <= 2, f"{node_id} saw {addrs}"


class TestReplyFilter:
    def test_await_skips_undecipherable_and_wrong_kind_replies(self, caplog):
        world = SimWorld()
        config = small_config()
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        x = small_dataset(n=8).images
        want = world.designer.predict(cascade, x, config=config)
        L = cascade.packet_len
        # wrong kind, with a payload the right kind could carry
        wrong_kind = onion.pack_reply(OpCode.TEST, onion.REPLY_ACK, cascade.designer_pk,
                                      onion.encode_matrix(np.zeros_like(want)), L)
        stranger = onion.pack_reply(OpCode.TEST, onion.REPLY_OUTPUT, gen_keypair().pk,
                                    onion.encode_matrix(np.zeros_like(want)), L)
        for junk in (os.urandom(L), stranger, wrong_kind):
            # delivered after one link latency, long before the real reply
            world.net.send(None, world.designer.channel.address, junk)
        with caplog.at_level(logging.WARNING, logger="mixnn.designer"):
            got = world.designer.predict(cascade, x, config=config)
        assert got.tobytes() == want.tobytes()
        messages = [r.getMessage() for r in caplog.records]
        assert sum("undecipherable reply" in m for m in messages) == 2
        assert sum("unexpected reply kind=ack" in m for m in messages) == 1


class TestPerIterationWork:
    """Once a cascade is set up, a hop builds only the packet it sends and no
    private key is parsed again."""

    def test_builds_and_key_parses(self, monkeypatch):
        world = SimWorld()
        config = small_config(batch_size=8)
        model = nn.make_layer_specs(parse_model(TABLE_MODEL), config.seed)
        cascade = world.train_ready(model, plan_np(5, 5), config)
        ds = small_dataset(n=8)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(onion, "build_packet", counted("build", onion.build_packet))
        monkeypatch.setattr(X25519PrivateKey, "from_private_bytes",
                            counted("parse", X25519PrivateKey.from_private_bytes))
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        assert len(metrics.losses) == 1
        assert (calls["build"], calls["parse"]) == (2 * cascade.n + 2, 0)
        calls.clear()
        world.designer.predict(cascade, ds.images, batch_size=8, config=config)
        assert (calls["build"], calls["parse"]) == (cascade.n + 1, 0)

    @pytest.mark.parametrize("hold_first,n,seals", [
        pytest.param(False, 5, 22, id="all-remote"),
        # a held first layer needs the first hop's input gradient in its ack
        pytest.param(True, 4, 19, id="hold-first"),
    ])
    def test_seals_per_iteration(self, monkeypatch, hold_first, n, seals):
        world = SimWorld()
        config = small_config(batch_size=8, hold_first_layer=hold_first)
        model = nn.make_layer_specs(parse_model(TABLE_MODEL), config.seed)
        cascade = world.train_ready(model, plan_np(n, n), config)
        ds = small_dataset(n=8)
        count = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                count["seal"] += 1
                return fn(*args, **kwargs)
            return wrapper

        # onion packs through crypto.seal; a hop re-seals through node.seal
        monkeypatch.setattr(crypto, "seal", counted(crypto.seal))
        monkeypatch.setattr(node, "seal", counted(node.seal))
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        assert len(metrics.losses) == 1
        assert count["seal"] == seals
