import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtar.errors import ContractViolationError
from rtar.nn import tensorops as T
from rtar.nn.layers import BatchNorm, Conv2D


def conv2d_naive(x, w, stride, padding):
    """Six-nested-loop oracle; inner accumulation order is (ky, kx, ci)."""
    kh, kw, cin, cout = w.shape
    h, w_in = x.shape[:2]
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w_in + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    out = np.zeros((ho, wo, cout), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for co in range(cout):
                acc = x.dtype.type(0)
                for ky in range(kh):
                    for kx in range(kw):
                        for ci in range(cin):
                            acc = acc + xp[i * stride + ky, j * stride + kx, ci] * w[ky, kx, ci, co]
                out[i, j, co] = acc
    return out


def conv2d_backward_oracle(x, w, dy, stride, padding):
    """float64 (dx, dw) of conv2d_naive, one output position and tap at a time."""
    x, w, dy = (a.astype(np.float64) for a in (x, w, dy))
    kh, kw = w.shape[:2]
    h, w_in = x.shape[:2]
    ho, wo = dy.shape[:2]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            for ky in range(kh):
                for kx in range(kw):
                    r, c = i * stride + ky, j * stride + kx
                    dw[ky, kx] += np.outer(xp[r, c], dy[i, j])
                    dxp[r, c] += w[ky, kx] @ dy[i, j]
    return dxp[padding : padding + h, padding : padding + w_in], dw


class TestConv2d:
    def test_scalar_product(self):
        x = np.array([[[5.0]]], dtype=np.float32)
        w = np.array([[[[2.0]]]], dtype=np.float32)
        assert T.conv2d_gemm(x, w).tolist() == [[[10.0]]]

    def test_delta_kernel_identity(self, rng):
        x = rng.random((6, 7, 2), dtype=np.float32)
        w = np.zeros((3, 3, 2, 2), dtype=np.float32)
        w[1, 1, 0, 0] = 1.0
        w[1, 1, 1, 1] = 1.0
        assert np.array_equal(T.conv2d_gemm(x, w), x)

    def test_channel_mismatch(self, rng):
        x = rng.random((4, 4, 3), dtype=np.float32)
        w = rng.random((3, 3, 2, 1), dtype=np.float32)
        with pytest.raises(ContractViolationError):
            T.conv2d_gemm(x, w)

    def test_rejects_unsupported_kernel(self, rng):
        x = rng.random((6, 6, 1), dtype=np.float32)
        w = rng.random((5, 5, 1, 1), dtype=np.float32)
        with pytest.raises(ContractViolationError):
            T.conv2d_gemm(x, w)


CONV_CONTRACT_CASES = [
    ((4, 4), (3, 3, 1, 1)),  # x is not (H, W, Cin)
    ((6, 6, 1), (5, 5, 1, 1)),  # unsupported kernel
    ((4, 4, 1), (1, 3, 1, 1)),  # non-square kernel
    ((4, 4, 3), (3, 3, 2, 1)),  # channel mismatch
    ((0, 4, 1), (3, 3, 1, 1)),  # empty input
]


class TestConv2dGemm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        h=st.integers(1, 8), w=st.integers(1, 8),
        cin=st.integers(1, 4), cout=st.integers(1, 3),
        k=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
    )
    def test_close_to_oracle_property(self, dtype, h, w, cin, cout, k, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((h, w, cin)).astype(dtype)
        wt = gen.standard_normal((k, k, cin, cout)).astype(dtype)
        got = T.conv2d_gemm(x, wt)
        want = conv2d_naive(x, wt, 1, k // 2)
        assert got.dtype == want.dtype and got.shape == want.shape == (h, w, cout)
        # Both sums carry at most n*eps*sum|x*w| rounding error over n = k*k*cin terms.
        magnitude = conv2d_naive(np.abs(x), np.abs(wt), 1, k // 2)
        tol = 2 * k * k * cin * np.finfo(dtype).eps * magnitude
        assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("x_shape,w_shape", CONV_CONTRACT_CASES)
    def test_contract_violations_match_oracle(self, rng, x_shape, w_shape):
        # conv2d_naive checks nothing, so the oracle here is the case table.
        x = rng.random(x_shape, dtype=np.float32)
        wt = rng.random(w_shape, dtype=np.float32)
        with pytest.raises(ContractViolationError):
            T.conv2d_gemm(x, wt)

    def test_unpadded_1x1_reads_its_input_in_place(self, rng):
        x = rng.random((5, 4, 3), dtype=np.float32)
        assert np.shares_memory(T._flat_padded(x, 1)[0], x)

    def test_conv2d_layer_runs_gemm_in_both_modes(self, rng):
        layer = Conv2D(3, 2, 4, rng=rng)
        x = rng.random((6, 5, 2), dtype=np.float32)
        want = T.conv2d_gemm(x, layer.params["w"])
        assert np.array_equal(layer.forward(x, train=False), want)
        assert np.array_equal(layer.forward(x, train=True), want)


class TestConv2dBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        h=st.integers(1, 8), w=st.integers(1, 8),
        cin=st.integers(1, 4), cout=st.integers(1, 3),
        k=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
    )
    def test_close_to_oracle_property(self, dtype, h, w, cin, cout, k, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((h, w, cin)).astype(dtype)
        wt = gen.standard_normal((k, k, cin, cout)).astype(dtype)
        dy = gen.standard_normal((h, w, cout)).astype(dtype)
        dx, dw = T.conv2d_backward(x, wt, dy)
        want_dx, want_dw = conv2d_backward_oracle(x, wt, dy, 1, k // 2)
        assert dx.dtype == dw.dtype == dtype
        assert dx.shape == x.shape and dw.shape == wt.shape
        # Each sum carries at most n*eps*sum|terms| rounding error over its n terms.
        mag_dx, mag_dw = conv2d_backward_oracle(np.abs(x), np.abs(wt), np.abs(dy), 1, k // 2)
        eps = np.finfo(dtype).eps
        assert np.all(np.abs(dx - want_dx) <= 2 * k * k * cout * eps * mag_dx)
        assert np.all(np.abs(dw - want_dw) <= 2 * h * w * eps * mag_dw)

    @pytest.mark.parametrize("x_shape,w_shape", CONV_CONTRACT_CASES)
    def test_contract_violations_match_forward(self, rng, x_shape, w_shape):
        x = rng.random(x_shape, dtype=np.float32)
        wt = rng.random(w_shape, dtype=np.float32)
        dy = np.zeros((1, 1, 1), dtype=np.float32)
        with pytest.raises(ContractViolationError) as forward_err:
            T.conv2d_gemm(x, wt)
        with pytest.raises(ContractViolationError) as backward_err:
            T.conv2d_backward(x, wt, dy)
        assert str(backward_err.value) == str(forward_err.value)

    @pytest.mark.parametrize("dy_shape,dtype", [
        ((5, 1, 2), np.float32),  # would broadcast across the output columns
        ((5, 4, 1), np.float32),  # would broadcast across the output channels
        ((4, 4, 2), np.float32),  # one output row short
        ((5, 4, 2), np.float64),  # dtype differs from x
    ])
    def test_rejects_mismatched_dy(self, rng, dy_shape, dtype):
        x = rng.random((5, 4, 3), dtype=np.float32)
        wt = rng.random((3, 3, 3, 2), dtype=np.float32)
        with pytest.raises(ContractViolationError, match="expects dy of shape"):
            T.conv2d_backward(x, wt, np.zeros(dy_shape, dtype=dtype))


class TestBatchNorm:
    def test_constant_channel_is_zero(self):
        x = np.full((4, 4, 2), 7.0, dtype=np.float32)
        y, _, _, _ = T.batch_norm_train(x, np.ones(2, np.float32), np.zeros(2, np.float32), 1e-5)
        assert np.allclose(y, 0.0)

    def test_gamma_zero_gives_beta(self, rng):
        x = rng.random((3, 5, 2), dtype=np.float32)
        beta = np.array([1.5, -2.0], dtype=np.float32)
        y, _, _, _ = T.batch_norm_train(x, np.zeros(2, np.float32), beta, 1e-5)
        assert np.allclose(y, np.broadcast_to(beta, y.shape))

    def test_two_point_channel(self):
        # values {1, 3}: mean 2, population variance 1 -> normalized {-1, +1}
        x = np.array([[[1.0], [3.0]]], dtype=np.float64)
        y, _, _, _ = T.batch_norm_train(x, np.ones(1), np.zeros(1), 1e-12)
        assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_eval_deterministic_bitwise(self, rng):
        x = rng.random((4, 4, 3), dtype=np.float32)
        args = (x, np.ones(3, np.float32), np.zeros(3, np.float32),
                rng.random(3).astype(np.float32), rng.random(3).astype(np.float32) + 0.5, 1e-5)
        a = T.batch_norm_eval_folded(*args)
        b = T.batch_norm_eval_folded(*args)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        h=st.integers(1, 6), w=st.integers(1, 6), c=st.integers(1, 8),
        min_log_var=st.floats(-12, 0), eps=st.sampled_from([1e-8, 1e-5, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folded_eval_close_to_oracle_property(self, dtype, h, w, c, min_log_var, eps, seed):
        gen = np.random.default_rng(seed)
        x = (gen.standard_normal((h, w, c)) * 10.0 ** gen.uniform(-2, 2)).astype(dtype)
        gamma = gen.uniform(-2, 2, c).astype(dtype)
        beta = gen.normal(0, 1, c).astype(dtype)
        mean = (gen.normal(0, 1, c) * 10.0 ** gen.uniform(-2, 2)).astype(dtype)
        var = 10.0 ** gen.uniform(min_log_var, 2, c)
        var[gen.random(c) < 0.25] = 0.0
        var = var.astype(dtype)
        got = T.batch_norm_eval_folded(x, gamma, beta, mean, var, eps)
        want = gamma * (x - mean) / np.sqrt(var + eps) + beta
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        # Both share r = sqrt(var + eps), so with S = gamma / r the formula
        # rounds (x - m), * gamma, / r and + beta, and the fold rounds
        # gamma / r, x * s, m * s, beta - m*s and the final add. Each
        # rounding is a relative error of at most eps/2, which bounds both to
        # first order by 4 * eps/2 * (|x S| + |m S| + |beta|): at most 4 eps
        # times that magnitude apart, plus one eps for second-order terms.
        scale = np.abs(gamma.astype(np.float64)) / np.sqrt(var.astype(np.float64) + eps)
        magnitude = (np.abs(x) + np.abs(mean)) * scale + np.abs(beta)
        assert np.all(np.abs(got - want) <= 5 * np.finfo(dtype).eps * magnitude)

    @pytest.mark.parametrize("eps", [0.0, -1e-5])
    def test_folded_eval_rejects_eps_like_oracle(self, eps):
        # The formula has no check; eval must refuse eps as train does.
        x, ones = np.ones((2, 3, 2), np.float32), np.ones(2, np.float32)
        with pytest.raises(ContractViolationError) as train_err:
            T.batch_norm_train(x, ones, ones, eps)
        with pytest.raises(ContractViolationError) as eval_err:
            T.batch_norm_eval_folded(x, ones, ones, ones, ones, eps)
        assert str(eval_err.value) == str(train_err.value)

    def test_batchnorm_layer_eval_runs_folded(self, rng):
        layer = BatchNorm(3)
        layer.running_mean[...] = rng.normal(0, 1, 3)
        layer.running_var[...] = rng.uniform(0.1, 2, 3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"][...] = rng.normal(0, 1, 3)
        x = rng.standard_normal((4, 5, 3)).astype(np.float32)
        want = T.batch_norm_eval_folded(x, layer.params["gamma"], layer.params["beta"],
                                        layer.running_mean, layer.running_var, layer.eps)
        assert np.array_equal(layer.forward(x, train=False), want)


class TestFullyConnected:
    def test_identity_weights(self):
        x = np.arange(4, dtype=np.float32)
        assert np.array_equal(T.fully_connected(x, np.eye(4, dtype=np.float32), np.zeros(4, np.float32)), x)

    def test_zero_input_gives_bias(self, rng):
        b = rng.random(3).astype(np.float32)
        y = T.fully_connected(np.zeros(5, np.float32), rng.random((5, 3)).astype(np.float32), b)
        assert np.array_equal(y, b)

    def test_matches_dot_oracle(self, rng):
        x = rng.random(8).astype(np.float64)
        w = rng.random((8, 3)).astype(np.float64)
        b = rng.random(3).astype(np.float64)
        want = np.array([sum(x[i] * w[i, k] for i in range(8)) + b[k] for k in range(3)])
        assert np.allclose(T.fully_connected(x, w, b), want, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            T.fully_connected(np.zeros(4, np.float32), np.zeros((5, 2), np.float32), np.zeros(2, np.float32))


class TestSoftmax:
    def test_uniform_over_12(self):
        p = T.softmax(np.zeros(12))
        assert np.allclose(p, 1 / 12)

    def test_single_class(self):
        assert T.softmax(np.array([3.7])).tolist() == [1.0]

    def test_closed_form(self):
        p = T.softmax(np.array([np.log(2.0), 0.0, 0.0]))
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            T.softmax(np.array([1.0, np.inf]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.floats(-30, 30))
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        v = np.array(logits)
        p = T.softmax(v)
        assert abs(p.sum() - 1.0) <= 1e-6
        assert np.all(p > 0)
        assert np.allclose(p, T.softmax(v + shift), atol=1e-6)


class TestPooling:
    def test_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        y = T.avg_pool2x2(x)
        assert y.shape == (2, 2, 1)
        assert y[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_odd_rejected(self):
        with pytest.raises(ContractViolationError):
            T.avg_pool2x2(np.zeros((3, 4, 1), dtype=np.float32))

    def test_global_pool(self, rng):
        x = rng.random((5, 7, 3)).astype(np.float64)
        assert np.allclose(T.global_avg_pool(x), x.mean(axis=(0, 1)))
