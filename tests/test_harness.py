import hashlib
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from mixnn import nn
from mixnn.crypto import gen_keypair
from mixnn.designer import Designer, TrainingConfig
from mixnn.directory import Directory
from mixnn.harness import (FaultAction, FaultPlan, NodeRuntime, SocketChannel,
                           SocketNodeServer, _recv_exact, baseline_predict,
                           inject_fault, load_mnist_idx, run_baseline, spawn_pool,
                           synthetic_two_gaussians, write_metrics)

from conftest import (SMALL_L, SimWorld, plan_np, small_config,
                      small_dataset, small_model)


def write_idx_pair(tmp_path, images, labels):
    """Craft IDX files: u32 magic, big-endian dims, then raw bytes."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.tobytes())
    lbl_path = tmp_path / "labels.idx"
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return str(img_path), str(lbl_path)


class TestIdxLoader:
    def test_load_and_scale(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_mnist_idx(img, lbl)
        assert ds.images.shape == (10, 784)
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        npt.assert_array_equal(ds.labels, labels)
        npt.assert_allclose(ds.images[0], images[0].reshape(784) / 255.0, atol=1e-7)

    def test_limit(self, tmp_path):
        images = np.zeros((30, 28, 28), dtype=np.uint8)
        labels = np.arange(30, dtype=np.uint8) % 10
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_mnist_idx(img, lbl, limit=7)
        assert len(ds.images) == 7 and len(ds.labels) == 7

    def test_single_record_roundtrip(self, tmp_path):
        images = np.full((3, 28, 28), 100, dtype=np.uint8)
        labels = np.array([7, 1, 2], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_mnist_idx(img, lbl, limit=1)
        assert ds.labels.tolist() == [7]

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        blob = bytearray(Path(img).read_bytes())
        blob[3] = 0x99
        Path(img).write_bytes(blob)
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(img, lbl)

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((4, 28, 28), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(4, dtype=np.uint8))
        blob = Path(img).read_bytes()
        Path(img).write_bytes(blob[:-100])
        with pytest.raises(ValueError, match="pixel"):
            load_mnist_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        img, _ = write_idx_pair(a, np.zeros((4, 28, 28), dtype=np.uint8),
                                np.zeros(4, dtype=np.uint8))
        _, lbl = write_idx_pair(b, np.zeros((6, 28, 28), dtype=np.uint8),
                                np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError, match="label file has"):
            load_mnist_idx(img, lbl)


class TestSynthetic:
    def test_shapes_and_range(self):
        ds = synthetic_two_gaussians(n=100, dim=784, seed=1)
        assert ds.images.shape == (100, 784) and ds.labels.shape == (100,)
        assert ds.images.min() >= 0 and ds.images.max() <= 1
        assert set(ds.labels.tolist()) == {0, 1}

    def test_deterministic(self):
        a = synthetic_two_gaussians(n=64, seed=9)
        b = synthetic_two_gaussians(n=64, seed=9)
        assert a.images.tobytes() == b.images.tobytes()
        npt.assert_array_equal(a.labels, b.labels)

    def test_classes_separable(self):
        ds = synthetic_two_gaussians(n=200, seed=2)
        mean0 = ds.images[ds.labels == 0].mean(axis=0)
        mean1 = ds.images[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) > 1.0

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_fewer_than_two_pixels_rejected(self, dim):
        with pytest.raises(ValueError, match="dim"):
            synthetic_two_gaussians(n=8, dim=dim)

    def test_two_pixels_one_per_class(self):
        ds = synthetic_two_gaussians(n=64, dim=2, seed=5)
        for c in (0, 1):
            assert (ds.images[ds.labels == c].argmax(axis=1) == c).all()

    def test_mnist_shape_output_pinned(self):
        # perfbench generates its data here, so the 784-pixel output is fixed
        ds = synthetic_two_gaussians(n=64, dim=784, seed=5)
        digest = hashlib.sha256(ds.images.tobytes() + ds.labels.tobytes()).hexdigest()
        assert digest == "46a73ce6ade2f32e8b7999e4181792b5b15757831f97fe90c2d95b30464aabde"


class TestBaseline:
    def test_loss_decreases_over_first_epochs(self):
        config = TrainingConfig(epochs=3, batch_size=64, seed=1)
        ds = synthetic_two_gaussians(n=512, seed=4)
        _, metrics = run_baseline(small_model(), ds.images, ds.labels, config)
        means = [r.loss_mean for r in metrics.rows]
        assert means[0] > means[1] > means[2]

    def test_metrics_rows_per_epoch(self):
        config = TrainingConfig(epochs=4, batch_size=32, seed=1)
        ds = synthetic_two_gaussians(n=64, seed=4)
        _, metrics = run_baseline(small_model(), ds.images, ds.labels, config,
                                  test_data=ds.images, test_labels=ds.labels)
        assert len(metrics.rows) == 4
        assert all(np.isfinite(r.accuracy) for r in metrics.rows)
        assert len(metrics.losses) == 4 * 2  # 2 batches per epoch

    def test_predict_matches_manual_forward(self):
        model = small_model()
        params = [nn.init_layer_params(s) for s in model]
        ds = synthetic_two_gaussians(n=8, seed=5)
        logp = baseline_predict(model, params, ds.images, batch_size=8)
        out = ds.images
        for spec, p in zip(model, params):
            out, _ = nn.layer_forward(spec, p, out, train=False)
        npt.assert_array_equal(logp, out)


class TestSimDeterminism:
    def _run(self):
        world = SimWorld(m=8, seed=1)
        config = small_config(epochs=1)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        ds = small_dataset(n=64)
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        return metrics, world.net.now

    def test_bitwise_identical_metrics(self):
        (m1, t1), (m2, t2) = self._run(), self._run()
        assert m1.losses == m2.losses
        assert t1 == t2  # virtual clock is part of the determinism contract
        assert [r.loss_mean for r in m1.rows] == [r.loss_mean for r in m2.rows]

    def test_empty_fault_plan_changes_nothing(self):
        world = SimWorld(m=8, seed=1)
        config = small_config(epochs=1)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        inject_fault(FaultPlan([]), world.pool, cascade)
        ds = small_dataset(n=64)
        metrics = world.designer.train(cascade, ds.images, ds.labels, config)
        reference, _ = self._run()
        assert metrics.losses == reference.losses


class TestFaults:
    def test_unknown_node_rejected(self):
        world = SimWorld(m=4)
        with pytest.raises(ValueError, match="ghost"):
            inject_fault(FaultPlan([FaultAction(node="ghost", action="kill")]),
                         world.pool)

    def test_delay_slows_but_does_not_break(self):
        world = SimWorld(m=8, seed=1)
        config = small_config(epochs=1, time_bound_T=50.0)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        inject_fault(FaultPlan([FaultAction(node="slot:2", action="delay", delay=0.05)]),
                     world.pool, cascade)
        ds = small_dataset(n=32)
        t0 = world.net.now
        world.designer.train(cascade, ds.images, ds.labels, config)
        slowed = world.net.now - t0

        reference = SimWorld(m=8, seed=1)
        cascade2 = reference.train_ready(small_model(), plan_np(5, 5), config)
        t0 = reference.net.now
        reference.designer.train(cascade2, ds.images, ds.labels, config)
        assert slowed > reference.net.now - t0

    def test_kill_only_disables_target(self):
        world = SimWorld(m=8, seed=1)
        config = small_config()
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        inject_fault(FaultPlan([FaultAction(node="slot:3", action="kill")]),
                     world.pool, cascade)
        killed_id = cascade.entries[2].node_id
        for node_id, rt in world.pool.runtimes.items():
            assert rt.killed == (node_id == killed_id)

    def test_parse_fault_plan(self):
        plan = FaultPlan([])
        from mixnn.harness import parse_fault_plan
        plan = parse_fault_plan(
            "# a comment\n"
            "node=slot:3 action=kill at_iteration=5\n"
            "node=n001 action=delay delay=0.5\n"
            "node=n002 action=tamper\n"
        )
        assert len(plan.actions) == 3
        assert plan.actions[0].at_iteration == 5
        assert plan.actions[1].delay == 0.5

    def test_parse_fault_plan_bad_line(self):
        from mixnn.harness import parse_fault_plan
        with pytest.raises(ValueError, match="line 1"):
            parse_fault_plan("nonsense without equals")


class TestSocketFabric:
    def test_spawn_loop_teardown(self):
        directory = Directory()
        pool = spawn_pool("socket", 3, directory, packet_len=SMALL_L)
        channel = SocketChannel(packet_len=SMALL_L)
        designer = Designer(channel, gen_keypair())
        config = small_config(time_bound_T=30.0)
        chains = [[nn.linear(8, 4), nn.relu()],
                  [nn.linear(4, 2)],
                  [nn.logsoftmax(), nn.nllloss()]]
        model = nn.make_layer_specs(chains, 1)
        cascade = designer.provision(directory.list(), model, plan_np(3, 3),
                                     config=config, packet_len=SMALL_L)
        rtt = designer.send_designer_loop(cascade)
        assert rtt > 0
        addr = pool.records[0].address
        pool.stop()
        channel.stop()
        with pytest.raises(OSError):
            socket.create_connection((addr.host, addr.port), timeout=0.5)

    def test_idle_client_does_not_stall_a_hop(self):
        # a client that connects to a hop and sends nothing must not hold up
        # the cascade's packets past T, or a healthy cascade reads as crashed
        directory = Directory()
        pool = spawn_pool("socket", 5, directory, packet_len=SMALL_L)
        channel = SocketChannel(packet_len=SMALL_L)
        try:
            designer = Designer(channel, gen_keypair())
            config = small_config(time_bound_T=3.0)
            model = small_model()
            cascade = designer.provision(directory.list(), model, plan_np(5, 5),
                                         config=config, packet_len=SMALL_L)
            designer.send_designer_loop(cascade)
            designer.initialize_model(cascade, config)
            addr = cascade.entries[2].address
            with socket.create_connection((addr.host, addr.port)):
                ds = small_dataset()
                metrics = designer.train(cascade, ds.images, ds.labels, config)
            assert len(metrics.rows) == 1
        finally:
            pool.stop()
            channel.stop()

    def test_packets_from_many_connections_are_handled_one_at_a_time(self):
        # 8 clients (more than the cores) send 4 packets each; on_packet does
        # a read-modify-write that yields in the middle, so without the
        # node's lock concurrent connections would lose updates
        runtime = NodeRuntime("n000", gen_keypair(), packet_len=1024)
        handled = [0]

        def on_packet(src, data, now=None):
            seen = handled[0]
            time.sleep(0.0005)
            handled[0] = seen + 1

        runtime.on_packet = on_packet
        server = SocketNodeServer(runtime)
        server.start()

        def client():
            with socket.create_connection((server.address.host, server.address.port)) as s:
                s.sendall(bytes(4 * 1024))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=10.0)
                assert not t.is_alive()
            deadline = time.monotonic() + 5.0
            while handled[0] < 32 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(switch)
            server.stop()
        assert handled[0] == 32


class TestRecvExact:
    def test_reads_exactly_n_across_chunks(self):
        # two packets' worth in 3 chunks that straddle the packet boundary;
        # the first packet must survive the second read
        a, b = socket.socketpair()
        with a, b:
            data = bytes(i % 251 for i in range(2560))
            sender = threading.Thread(target=_send_chunks, args=(a, data, (500, 1300, 760)))
            sender.start()
            first = _recv_exact(b, 1280)
            second = _recv_exact(b, 1280)
            sender.join()
        assert len(first) == 1280 and first == data[:1280]
        assert second == data[1280:]

    def test_none_when_peer_closes_early(self):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(b"x" * 10)
            assert _recv_exact(b, 11) is None


def _send_chunks(conn, data, sizes):
    off = 0
    for size in sizes:
        conn.sendall(data[off:off + size])
        off += size
        time.sleep(0.02)


class TestMetricsFile:
    def test_write_and_summary(self, tmp_path):
        config = TrainingConfig(epochs=2, batch_size=32, seed=1)
        ds = synthetic_two_gaussians(n=64, seed=4)
        _, metrics = run_baseline(small_model(), ds.images, ds.labels, config)
        path = str(tmp_path / "m.csv")
        write_metrics(path, metrics)
        text = Path(path).read_text()
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "epoch,loss_mean,accuracy,wall_seconds"
        assert len(lines) == 3
        assert "# total_seconds=" in text and "# crashes=0" in text

    def test_aborted_run_keeps_partial_rows(self, tmp_path):
        world = SimWorld(m=8, seed=1)
        config = small_config(epochs=3, time_bound_T=2.0)
        cascade = world.train_ready(small_model(), plan_np(5, 5), config)
        inject_fault(FaultPlan([FaultAction(node="slot:2", action="kill",
                                            at_iteration=3)]),
                     world.pool, cascade)
        ds = small_dataset(n=64)
        from mixnn.designer import CrashDetected
        with pytest.raises(CrashDetected) as err:
            world.designer.train(cascade, ds.images, ds.labels, config)
        partial = err.value.metrics
        assert partial is not None
        # the node dies on its 3rd backward, so two iterations completed
        assert len(partial.losses) == 2
        assert len(partial.crash_events) == 1
        path = str(tmp_path / "aborted.csv")
        write_metrics(path, partial)
        assert "# crashes=1" in Path(path).read_text()
