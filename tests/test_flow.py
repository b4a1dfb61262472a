import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtar.errors import ContractViolationError
from rtar.preprocess import FlowParams, compute_flow
from rtar.preprocess.flow import _jacobi

SWEEP_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scripts", "flow_accuracy.py")

# (dy, dx, weight) of Horn-Schunck's neighbourhood average, in summation order.
AVG_WEIGHTS = [(-1, -1, 1 / 12), (-1, 0, 1 / 6), (-1, 1, 1 / 12),
               (0, -1, 1 / 6), (0, 1, 1 / 6),
               (1, -1, 1 / 12), (1, 0, 1 / 6), (1, 1, 1 / 12)]


def neighbour_avg(f):
    """u-bar: the weighted average of f's edge-replicated 8-neighbourhood."""
    p = np.pad(f, 1, mode="edge")
    h, w = f.shape
    out = np.zeros_like(f)
    for dy, dx, weight in AVG_WEIGHTS:
        out += np.asarray(weight, dtype=f.dtype) * p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    return out


def horn_schunck_step(u, v, fx, fy, ft, alpha):
    """One Jacobi update, one pad per average: the reference for ``_jacobi``.

    u <- u_bar - fx (fx u_bar + fy v_bar + ft) / (alpha^2 + fx^2 + fy^2)
    and symmetrically for v.
    """
    u_bar = neighbour_avg(u)
    v_bar = neighbour_avg(v)
    common = (fx * u_bar + fy * v_bar + ft) / (alpha * alpha + fx * fx + fy * fy)
    return u_bar - fx * common, v_bar - fy * common


def smooth_periodic_texture(size, seed, cutoff=6):
    """Band-limited periodic random texture in [0, 1]; exact under np.roll."""
    rng = np.random.default_rng(seed)
    spectrum = np.zeros((size, size), dtype=complex)
    for ky in range(-cutoff, cutoff + 1):
        for kx in range(-cutoff, cutoff + 1):
            if ky == 0 and kx == 0:
                continue
            spectrum[ky % size, kx % size] = rng.normal() + 1j * rng.normal()
    img = np.fft.ifft2(spectrum).real
    img -= img.min()
    img /= img.max()
    return img


class TestHornSchunckStep:
    def test_matches_hand_formula(self):
        u = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
        v = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        fx = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [1.0, 0.0, 0.0]])
        fy = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.5]])
        ft = np.array([[0.2, -0.1, 0.0], [0.3, 0.1, -0.2], [0.0, 0.2, 0.1]])
        alpha = 1.0

        def avg(f, y, x):
            total = 0.0
            for dy, dx, wgt in AVG_WEIGHTS:
                yy = min(max(y + dy, 0), 2)
                xx = min(max(x + dx, 0), 2)
                total += wgt * f[yy, xx]
            return total

        want_u = np.zeros((3, 3))
        want_v = np.zeros((3, 3))
        for y in range(3):
            for x in range(3):
                ub, vb = avg(u, y, x), avg(v, y, x)
                common = (fx[y, x] * ub + fy[y, x] * vb + ft[y, x]) / (
                    alpha**2 + fx[y, x] ** 2 + fy[y, x] ** 2
                )
                want_u[y, x] = ub - fx[y, x] * common
                want_v[y, x] = vb - fy[y, x] * common

        got_u, got_v = horn_schunck_step(u, v, fx, fy, ft, alpha)
        assert np.allclose(got_u, want_u, atol=1e-12)
        assert np.allclose(got_v, want_v, atol=1e-12)


class TestJacobiLoop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        h=st.integers(1, 20), w=st.integers(1, 20), iterations=st.integers(1, 60),
        alpha=st.floats(0.5, 30), seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_chained_steps(self, dtype, h, w, iterations, alpha, seed):
        gen = np.random.default_rng(seed)
        fx, fy, ft = (gen.normal(0, 40, (h, w)).astype(dtype) for _ in range(3))
        fx[gen.random((h, w)) < 0.2] = 0  # flat regions, as in real frames
        du = dv = np.zeros((h, w), dtype=dtype)
        for _ in range(iterations):
            du, dv = horn_schunck_step(du, dv, fx, fy, ft, alpha)
        got = _jacobi(fx, fy, ft, alpha, iterations)
        assert got.dtype == dtype and got.shape == (2, h, w)
        assert got[0].tobytes() == du.tobytes() and got[1].tobytes() == dv.tobytes()


class TestComputeFlow:
    def test_no_motion_is_zero_flow(self, rng):
        img = rng.random((48, 48))
        flow = compute_flow(img, img)
        assert np.abs(flow).max() <= 1e-6

    def test_unit_translation(self):
        img = smooth_periodic_texture(64, seed=3)
        moved = np.roll(img, 1, axis=1)  # content moves 1 px rightward
        flow = compute_flow(img, moved)
        assert abs(flow[..., 0].mean() - 1.0) < 0.25
        assert abs(flow[..., 1].mean()) < 0.25

    def test_two_pixel_diagonal_translation(self):
        img = smooth_periodic_texture(64, seed=11)
        moved = np.roll(np.roll(img, 2, axis=1), -1, axis=0)
        flow = compute_flow(img, moved)
        assert abs(flow[..., 0].mean() - 2.0) < 0.3
        assert abs(flow[..., 1].mean() + 1.0) < 0.3

    def test_mirror_equivariance(self):
        img = smooth_periodic_texture(48, seed=9)
        moved = np.roll(img, 1, axis=1)
        flow = compute_flow(img, moved)
        flow_m = compute_flow(img[:, ::-1], moved[:, ::-1])
        assert np.allclose(flow_m[..., 0], -flow[..., 0][:, ::-1], atol=1e-3)
        assert np.allclose(flow_m[..., 1], flow[..., 1][:, ::-1], atol=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            compute_flow(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_finite_output(self, rng):
        flow = compute_flow(rng.random((32, 32)), rng.random((32, 32)))
        assert np.all(np.isfinite(flow))

    def test_param_validation(self):
        with pytest.raises(ContractViolationError):
            FlowParams(scale=1.5)
        with pytest.raises(ContractViolationError):
            FlowParams(alpha=0.0)


class TestFlowStack:
    @given(
        n=st.integers(1, 5), h=st.integers(8, 64), w=st.integers(8, 64),
        levels=st.integers(1, 4), iterations=st.integers(1, 30),
        dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
    )
    def test_each_slice_equals_its_own_solve(self, n, h, w, levels, iterations, dtype, seed):
        gen = np.random.default_rng(seed)
        prev = gen.random((n, h, w)).astype(dtype)
        nxt = np.clip(prev + gen.normal(0, 0.05, prev.shape), 0, 1).astype(dtype)
        params = FlowParams(pyramid_levels=levels, iterations=iterations)
        got = compute_flow(prev, nxt, params)
        assert got.shape == (n, h, w, 2) and got.dtype == np.float32 and got.flags.c_contiguous
        for k in range(n):
            assert got[k].tobytes() == compute_flow(prev[k], nxt[k], params).tobytes()

    @pytest.mark.parametrize("prev_shape, next_shape", [
        ((2, 8, 8), (3, 8, 8)), ((2, 8, 8), (8, 8)), ((0, 8, 8), (0, 8, 8)), ((1, 2, 8, 8),) * 2,
    ], ids=["stack_sizes", "stack_and_pair", "empty_stack", "four_axes"])
    def test_rejects_mismatched_or_empty_stacks(self, prev_shape, next_shape):
        with pytest.raises(ContractViolationError):
            compute_flow(np.zeros(prev_shape), np.zeros(next_shape))


def test_default_iterations_within_accuracy_knee():
    # Gate fixed before measuring: at every displacement, the default step
    # count's mean EPE is at most 0.02 px above 50 steps', on the paired sweep.
    spec = importlib.util.spec_from_file_location("flow_accuracy", SWEEP_SCRIPT)
    flow_accuracy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flow_accuracy)
    assert flow_accuracy.MAGNITUDES == (0.5, 1.0, 1.5, 2.0, 3.0)
    epes = flow_accuracy.sweep(112, cases=20, seed=0,
                               iteration_grid=[FlowParams().iterations, 50])
    for magnitude, (default, fifty) in zip(flow_accuracy.MAGNITUDES, epes):
        assert default <= fifty + 0.02, (magnitude, default, fifty)
