import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mixnn import nn


def f32(x):
    return np.asarray(x, dtype=np.float32)


class TestLinear:
    def test_identity_weights(self):
        w = f32(np.eye(2))
        b = f32([[0.0, 0.0]])
        out = nn.linear_forward(w, b, f32([[3.0, 5.0]]))
        npt.assert_array_equal(out, f32([[3.0, 5.0]]))

    def test_hand_computed(self):
        # y[c] = sum_k x[k] * w[c][k] + b[c]
        w = f32([[1, 2], [3, 4]])
        b = f32([[0.5, -0.5]])
        out = nn.linear_forward(w, b, f32([[1, 1]]))
        npt.assert_allclose(out, f32([[3.5, 6.5]]), rtol=0)

    def test_reference_matmul_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch, din, dout = rng.integers(1, 9, size=3)
            x = rng.standard_normal((batch, din)).astype(np.float32)
            w = rng.standard_normal((dout, din)).astype(np.float32)
            b = rng.standard_normal((1, dout)).astype(np.float32)
            expect = np.zeros((batch, dout), dtype=np.float64)
            for r in range(batch):
                for c in range(dout):
                    expect[r, c] = sum(float(x[r, k]) * float(w[c, k]) for k in range(din)) \
                        + float(b[0, c])
            npt.assert_allclose(nn.linear_forward(w, b, x), expect, rtol=1e-5, atol=1e-5)

    def test_table_shape(self):
        # first cascade server of the MNIST MLP: batch x 784 -> batch x 128
        rng = np.random.default_rng(1)
        w = rng.standard_normal((128, 784)).astype(np.float32)
        b = np.zeros((1, 128), dtype=np.float32)
        out = nn.linear_forward(w, b, rng.standard_normal((64, 784)).astype(np.float32))
        assert out.shape == (64, 128)

    def test_shape_mismatch(self):
        w = f32([[1, 2], [3, 4]])
        b = f32([[0, 0]])
        with pytest.raises(nn.ShapeError) as err:
            nn.linear_forward(w, b, f32([[1, 2, 3]]))
        assert "(1, 3)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_backward_zero_gradient(self):
        x = f32([[1, 2], [3, 4]])
        w = f32([[1, 0], [0, 1]])
        dw, db, dx = nn.linear_backward(x, w, np.zeros((2, 2), dtype=np.float32))
        assert not dw.any() and not db.any() and not dx.any()

    def test_backward_hand_case(self):
        dw, db, dx = nn.linear_backward(f32([[1, 1]]), f32([[1, 2], [3, 4]]), f32([[1, 0]]))
        npt.assert_array_equal(dx, f32([[1, 2]]))
        npt.assert_array_equal(dw, f32([[1, 1], [0, 0]]))
        npt.assert_array_equal(db, f32([[1, 0]]))

    def test_backward_missing_cache(self):
        with pytest.raises(nn.ProtocolOrderError):
            nn.linear_backward(None, f32([[1.0]]), f32([[1.0]]))


class TestReLU:
    def test_sign_cases(self):
        npt.assert_array_equal(nn.relu_forward(f32([[-1, 0, 2]])), f32([[0, 0, 2]]))

    def test_identity_on_positives(self):
        x = f32([[0.5, 1.5], [2.0, 3.0]])
        npt.assert_array_equal(nn.relu_forward(x), x)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7)).astype(np.float32)
        npt.assert_array_equal(nn.relu_forward(x), x * (x > 0))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4)).astype(np.float32)
        once = nn.relu_forward(x)
        npt.assert_array_equal(nn.relu_forward(once), once)

    def test_backward_masks_and_zero_point(self):
        out = nn.relu_backward(f32([[-1, 0, 2]]), f32([[5, 7, 9]]))
        npt.assert_array_equal(out, f32([[0, 0, 9]]))

    def test_backward_passthrough(self):
        dy = f32([[1, 2], [3, 4]])
        npt.assert_array_equal(nn.relu_backward(f32([[1, 1], [2, 2]]), dy), dy)

    def test_backward_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.relu_backward(f32([[1, 2]]), f32([[1, 2, 3]]))


class TestLogSoftmax:
    def test_uniform_row(self):
        out = nn.logsoftmax_forward(f32([[0.0, 0.0]]))
        npt.assert_allclose(out, [[-np.log(2), -np.log(2)]], atol=1e-7)

    def test_no_overflow_on_huge_inputs(self):
        out = nn.logsoftmax_forward(f32([[1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        npt.assert_allclose(out, [[-np.log(2), -np.log(2)]], atol=1e-6)

    def test_rows_normalize(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = (rng.standard_normal((6, 10)) * rng.uniform(0.1, 50)).astype(np.float32)
            sums = np.exp(nn.logsoftmax_forward(x)).sum(axis=1)
            npt.assert_allclose(sums, np.ones(6), atol=1e-6)

    def test_table_shape(self):
        x = np.zeros((64, 10), dtype=np.float32)
        assert nn.logsoftmax_forward(x).shape == (64, 10)

    def test_backward_zero(self):
        out = nn.logsoftmax_forward(f32([[1.0, 2.0, 3.0]]))
        npt.assert_array_equal(nn.logsoftmax_backward(out, np.zeros_like(out)),
                               np.zeros_like(out))


class TestNLL:
    def test_perfect_prediction(self):
        logp = np.zeros((3, 4), dtype=np.float32)  # logp[target]=0 everywhere
        loss, _ = nn.nll_loss(logp, np.array([0, 1, 2]))
        assert loss == 0.0

    def test_direct_formula(self):
        loss, dlogp = nn.nll_loss(f32([[-0.5, -1.0]]), np.array([0]))
        assert abs(float(loss) - 0.5) < 1e-7
        npt.assert_array_equal(dlogp, f32([[-1.0, 0.0]]))

    def test_scalar_output_shape(self):
        # last cascade server of the MNIST MLP: 10 log-probs in, one real out
        rng = np.random.default_rng(5)
        logp = nn.logsoftmax_forward(rng.standard_normal((64, 10)).astype(np.float32))
        loss, dlogp = nn.nll_loss(logp, rng.integers(0, 10, 64))
        assert np.isscalar(float(loss)) and dlogp.shape == (64, 10)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            nn.nll_loss(f32([[-0.1, -0.2]]), np.array([2]))

    def test_batch_averaging(self):
        logp = f32([[-1.0, -2.0], [-3.0, -4.0]])
        loss, dlogp = nn.nll_loss(logp, np.array([0, 1]))
        assert abs(float(loss) - 2.5) < 1e-6
        npt.assert_allclose(dlogp, f32([[-0.5, 0], [0, -0.5]]))


class TestSGDMomentum:
    def test_momentum_free_reduction(self):
        p = f32([[1.0]])
        v = np.zeros_like(p)
        nn.sgd_momentum_step(p, f32([[0.5]]), v, learning_rate=0.01, momentum=0.0)
        npt.assert_allclose(p, [[0.995]], atol=1e-7)

    def test_hand_iterated_recurrence(self):
        p = f32([[1.0]])
        v = np.zeros_like(p)
        g = f32([[0.1]])
        nn.sgd_momentum_step(p, g, v, 0.01, 0.9)
        npt.assert_allclose(v, [[0.1]], atol=1e-7)
        npt.assert_allclose(p, [[0.999]], atol=1e-7)
        nn.sgd_momentum_step(p, g, v, 0.01, 0.9)
        npt.assert_allclose(v, [[0.19]], atol=1e-7)
        npt.assert_allclose(p, [[0.9971]], atol=1e-6)

    def test_zero_grad_zero_velocity_fixed_point(self):
        p = f32([[2.0, 3.0]])
        before = p.copy()
        nn.sgd_momentum_step(p, np.zeros_like(p), np.zeros_like(p), 0.01, 0.9)
        npt.assert_array_equal(p, before)

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.sgd_momentum_step(f32([[1.0]]), f32([[1.0, 2.0]]), f32([[0.0]]), 0.01, 0.9)


class TestLayerForward:
    def test_identity_chain(self):
        spec = nn.LayerSpec([nn.identity()], seed=0)
        params = nn.init_layer_params(spec)
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        out, cache = nn.layer_forward(spec, params, x)
        npt.assert_array_equal(out, x)
        assert cache is not None

    def test_mnist_first_server_chain(self):
        spec = nn.LayerSpec([nn.linear(784, 128), nn.relu()], seed=1)
        params = nn.init_layer_params(spec)
        out, _ = nn.layer_forward(spec, params, np.zeros((4, 784), dtype=np.float32))
        assert out.shape == (4, 128)
        assert (out >= 0).all()

    def test_composition_equals_separate_layers(self):
        rng = np.random.default_rng(6)
        composed = nn.LayerSpec([nn.linear(5, 4), nn.linear(4, 3)], seed=9)
        params = nn.init_layer_params(composed)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        out_composed, _ = nn.layer_forward(composed, params, x)

        first = nn.LayerSpec([nn.linear(5, 4)], seed=0)
        second = nn.LayerSpec([nn.linear(4, 3)], seed=0)
        mid, _ = nn.layer_forward(first, [params[0]], x)
        out_split, _ = nn.layer_forward(second, [params[1]], mid)
        npt.assert_array_equal(out_composed, out_split)

    def test_dimension_mismatch_inside_chain(self):
        spec = nn.LayerSpec([nn.linear(3, 4), nn.linear(5, 2)], seed=0)
        params = nn.init_layer_params(spec)
        with pytest.raises(nn.ShapeError):
            nn.layer_forward(spec, params, np.zeros((1, 3), dtype=np.float32))

    def test_nllloss_only_final(self):
        with pytest.raises(ValueError):
            nn.LayerSpec([nn.nllloss(), nn.relu()], seed=0)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        spec = nn.LayerSpec([nn.linear(16, 8), nn.relu(), nn.linear(8, 4)], seed=5)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 16)).astype(np.float32)
        a, _ = nn.layer_forward(spec, nn.init_layer_params(spec), x)
        b, _ = nn.layer_forward(spec, nn.init_layer_params(spec), x)
        assert a.tobytes() == b.tobytes()

    def test_init_depends_on_seed(self):
        s1 = nn.init_layer_params(nn.LayerSpec([nn.linear(4, 4)], seed=1))
        s2 = nn.init_layer_params(nn.LayerSpec([nn.linear(4, 4)], seed=2))
        assert not np.array_equal(s1[0][0], s2[0][0])

    def test_init_bound(self):
        spec = nn.LayerSpec([nn.linear(100, 50)], seed=3)
        w, b = nn.init_layer_params(spec)[0]
        bound = 1.0 / np.sqrt(100)
        assert (np.abs(w) <= bound).all() and (np.abs(b) <= bound).all()
        assert w.dtype == np.float32 and b.dtype == np.float32

    def test_outputs_stay_finite(self):
        rng = np.random.default_rng(8)
        spec = nn.LayerSpec(
            [nn.linear(12, 8), nn.relu(), nn.linear(8, 6), nn.logsoftmax()], seed=4
        )
        params = nn.init_layer_params(spec)
        x = (rng.standard_normal((5, 12)) * 100).astype(np.float32)
        out, _ = nn.layer_forward(spec, params, x)
        assert np.isfinite(out).all()

    def test_make_layer_specs_reproducible(self):
        a = nn.make_layer_specs([[nn.linear(3, 2)], [nn.nllloss()]], seed=42)
        b = nn.make_layer_specs([[nn.linear(3, 2)], [nn.nllloss()]], seed=42)
        assert [s.seed for s in a] == [s.seed for s in b]
        assert a[0].seed != a[1].seed


class TestBatchIndices:
    def test_covers_everything_once(self):
        idx = nn.batch_indices(10, 3, shuffle=True, seed=1, epoch=0)
        flat = np.concatenate(idx)
        assert sorted(flat.tolist()) == list(range(10))
        assert [len(b) for b in idx] == [3, 3, 3, 1]

    def test_no_shuffle_is_sequential(self):
        idx = nn.batch_indices(6, 2, shuffle=False, seed=1, epoch=3)
        npt.assert_array_equal(np.concatenate(idx), np.arange(6))

    def test_epoch_changes_order(self):
        a = nn.batch_indices(50, 10, True, seed=1, epoch=0)
        b = nn.batch_indices(50, 10, True, seed=1, epoch=1)
        assert not np.array_equal(np.concatenate(a), np.concatenate(b))


class TestReadOnlyInputs:
    def test_kernels_never_write_their_inputs(self):
        # decode_matrix hands the kernels read-only views of packet plaintext
        rng = np.random.default_rng(4)
        hidden = nn.LayerSpec([nn.linear(6, 5), nn.relu(), nn.linear(5, 4)], seed=2)
        loss_layer = nn.LayerSpec([nn.logsoftmax(), nn.nllloss()], seed=0)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        dy = rng.standard_normal((3, 4)).astype(np.float32)
        labels = np.array([0, 3, 1])

        def run(writeable):
            def given(a):
                a = a.copy()
                a.setflags(write=writeable)
                return a

            params = nn.init_layer_params(hidden)
            opt = nn.OptimizerState(params)
            out, cache = nn.layer_forward(hidden, params, given(x))
            dx = nn.layer_backward(hidden, params, opt, cache, given(dy))
            loss, loss_cache = nn.layer_forward(loss_layer, [None, None], given(out),
                                                labels=labels)
            dz = nn.layer_backward(loss_layer, [None, None], None, loss_cache)
            return [out, dx, loss, dz, *[p for pair in params if pair for p in pair]]

        for a, b in zip(run(True), run(False)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBufferedBackward:
    """layer_backward writes dw and the SGD step into the optimizer's one
    scratch buffer; the bits must match the plain expressions."""

    WIDE = [nn.linear(784, 2048), nn.relu(), nn.linear(2048, 2048), nn.relu(),
            nn.linear(2048, 256)]

    @staticmethod
    def plain_backward(spec, params, velocity, cache, dy, lr, momentum):
        g = dy
        for j in range(len(spec.chain) - 1, -1, -1):
            if spec.chain[j].kind == nn.LINEAR:
                x, (w, b), (vw, vb) = cache.saved[j], params[j], velocity[j]
                dw, db, dx = g.T @ x, g.sum(axis=0, keepdims=True), g @ w
                for p, grad, v in ((w, dw, vw), (b, db, vb)):
                    v *= np.float32(momentum)
                    v += grad
                    p -= np.float32(lr) * v
                g = dx
            elif spec.chain[j].kind == nn.RELU:
                g = nn.relu_backward(cache.saved[j], g)
        return g

    def test_wide_chain_bitwise_equal_to_plain_expressions(self):
        spec = nn.LayerSpec(self.WIDE, seed=21)
        rng = np.random.default_rng(8)
        buffered, plain = nn.init_layer_params(spec), nn.init_layer_params(spec)
        opt = nn.OptimizerState(buffered, learning_rate=0.01, momentum=0.9)
        velocity = nn.OptimizerState(plain).velocity
        for _ in range(3):
            x = rng.random((64, 784), dtype=np.float32)
            dy = rng.standard_normal((64, 256)).astype(np.float32)
            _, cache_a = nn.layer_forward(spec, buffered, x)
            _, cache_b = nn.layer_forward(spec, plain, x)
            dx_a = nn.layer_backward(spec, buffered, opt, cache_a, dy)
            dx_b = self.plain_backward(spec, plain, velocity, cache_b, dy, 0.01, 0.9)
            assert dx_a.tobytes() == dx_b.tobytes()
        for got, expect in zip(buffered, plain):
            if got is not None:
                assert got[0].tobytes() == expect[0].tobytes()
                assert got[1].tobytes() == expect[1].tobytes()

    def test_second_backward_allocates_no_weight_sized_array(self):
        spec = nn.LayerSpec([nn.linear(2048, 2048)], seed=3)
        params = nn.init_layer_params(spec)
        opt = nn.OptimizerState(params)
        rng = np.random.default_rng(2)
        x = rng.random((64, 2048), dtype=np.float32)
        dy = rng.standard_normal((64, 2048)).astype(np.float32)
        _, cache = nn.layer_forward(spec, params, x)
        nn.layer_backward(spec, params, opt, cache, dy)  # makes the scratch
        _, cache = nn.layer_forward(spec, params, x)
        tracemalloc.start()
        try:
            nn.layer_backward(spec, params, opt, cache, dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params[0][0].nbytes

    def test_scratch_is_made_at_first_backward(self):
        spec = nn.LayerSpec([nn.linear(6, 5), nn.relu(), nn.linear(5, 4)], seed=2)
        params = nn.init_layer_params(spec)
        opt = nn.OptimizerState(params)
        assert opt._scratch is None
        _, cache = nn.layer_forward(spec, params, np.ones((3, 6), dtype=np.float32))
        nn.layer_backward(spec, params, opt, cache, np.ones((3, 4), dtype=np.float32))
        assert opt._scratch.size == 30 and opt._scratch.dtype == nn.DTYPE

    def test_step_out_may_be_grad(self):
        p, v = f32([[1.0, 2.0]]), f32([[0.5, 0.0]])
        p2, v2 = p.copy(), v.copy()
        g = f32([[0.1, -0.2]])
        nn.sgd_momentum_step(p, g.copy(), v, 0.01, 0.9)
        scratch = g.copy()
        nn.sgd_momentum_step(p2, scratch, v2, 0.01, 0.9, step_out=scratch)
        assert p.tobytes() == p2.tobytes() and v.tobytes() == v2.tobytes()
        assert scratch.tobytes() == (np.float32(0.01) * v2).tobytes()


class TestSkipInputGradient:
    @pytest.mark.parametrize("chain", [
        pytest.param([nn.linear(6, 5), nn.relu(), nn.linear(5, 4)], id="hidden"),
        pytest.param([nn.relu(), nn.linear(6, 4), nn.logsoftmax(), nn.nllloss()],
                     id="relu-first-with-loss"),
    ])
    def test_same_parameter_bits_and_no_gradient(self, chain):
        spec = nn.LayerSpec(chain, seed=4)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        labels = np.array([0, 3, 1]) if spec.ends_in_loss() else None
        dy = None if labels is not None else rng.standard_normal((3, 4)).astype(np.float32)

        def run(input_grad):
            params = nn.init_layer_params(spec)
            opt = nn.OptimizerState(params)
            results = []
            for _ in range(3):
                _, cache = nn.layer_forward(spec, params, x, labels=labels)
                results.append(nn.layer_backward(spec, params, opt, cache, dy,
                                                 input_grad=input_grad))
            return params, results

        with_dx, dxs = run(True)
        without, nones = run(False)
        assert all(d.shape == x.shape for d in dxs)
        assert nones == [None, None, None]
        for a, b in zip(with_dx, without):
            if a is not None:
                assert a[0].tobytes() == b[0].tobytes()
                assert a[1].tobytes() == b[1].tobytes()

    def test_first_linear_computes_no_input_gradient(self, monkeypatch):
        asked = []
        real = nn.linear_backward

        def spy(*args, input_grad=True, **kwargs):
            asked.append(input_grad)
            return real(*args, input_grad=input_grad, **kwargs)

        monkeypatch.setattr(nn, "linear_backward", spy)
        spec = nn.LayerSpec([nn.linear(6, 5), nn.relu(), nn.linear(5, 4)], seed=2)
        params = nn.init_layer_params(spec)
        _, cache = nn.layer_forward(spec, params, np.ones((3, 6), dtype=np.float32))
        nn.layer_backward(spec, params, nn.OptimizerState(params), cache,
                          np.ones((3, 4), dtype=np.float32), input_grad=False)
        assert asked == [True, False]  # the last linear first
