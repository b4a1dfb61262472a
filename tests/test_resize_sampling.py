import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtar.errors import ContractViolationError
from rtar.mediaio import ClipMeta
from rtar.preprocess import bilinear_sample, resize_bilinear, sample_frames


def bilinear_sample_oracle(img, ys, xs):
    """The 2-D fancy-indexed sampler: each corner gathered as img[y, x] on
    the broadcast index arrays, then the lerps in the module's order."""
    h, w = img.shape[:2]
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(img.dtype if img.dtype.kind == "f" else np.float64)
    fx = (xs - x0).astype(fy.dtype)
    if img.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    v00 = img[y0, x0]
    v01 = img[y0, x1]
    v10 = img[y1, x0]
    v11 = img[y1, x1]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    return top + (bot - top) * fy


def resize_on_the_full_grid(img, w, h):
    """resize_bilinear's result from the oracle sampled on the materialized
    (h, w) coordinate grids; uint8 is sampled in float64 and rounded."""
    src_h, src_w = img.shape[:2]
    ys = (np.arange(h, dtype=np.float64) + 0.5) * (src_h / h) - 0.5
    xs = (np.arange(w, dtype=np.float64) + 0.5) * (src_w / w) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    if img.dtype == np.uint8:
        out = bilinear_sample_oracle(img.astype(np.float64), grid_y, grid_x)
        return np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return bilinear_sample_oracle(img, grid_y, grid_x)


def random_image(gen, shape, kind):
    if kind == "uint8_rgb":
        return gen.integers(0, 256, size=shape + (3,), dtype=np.uint8)
    return gen.random(shape, dtype=np.float32 if kind == "float32_gray" else np.float64)


def resize_oracle(img, w, h):
    """Scalar reference bilinear with half-pixel centers and border clamp."""
    src_h, src_w = img.shape[:2]
    out = np.zeros((h, w) + img.shape[2:])
    for y in range(h):
        for x in range(w):
            sy = min(max((y + 0.5) * src_h / h - 0.5, 0.0), src_h - 1.0)
            sx = min(max((x + 0.5) * src_w / w - 0.5, 0.0), src_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, src_h - 1), min(x0 + 1, src_w - 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[y, x] = top * (1 - fy) + bot * fy
    return out


class TestResize:
    def test_identity_size(self, rng):
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        assert np.array_equal(resize_bilinear(img, 7, 5), img)

    def test_constant_any_size(self):
        img = np.full((4, 4), 93, dtype=np.uint8)
        for w, h in [(2, 2), (9, 3), (1, 1)]:
            out = resize_bilinear(img, w, h)
            assert out.shape == (h, w)
            assert np.all(out == 93)

    def test_ramp_matches_oracle(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)
        got = resize_bilinear(img, 2, 2)
        want = resize_oracle(img, 2, 2)
        assert np.allclose(got, want, atol=1e-12)

    @given(
        sh=st.integers(1, 6), sw=st.integers(1, 6),
        h=st.integers(1, 6), w=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    def test_matches_oracle_property(self, sh, sw, h, w, seed):
        img = np.random.default_rng(seed).random((sh, sw))
        assert np.allclose(resize_bilinear(img, w, h), resize_oracle(img, w, h), atol=1e-12)

    def test_preserves_bounds(self, rng):
        img = rng.random((8, 9))
        out = resize_bilinear(img, 5, 13)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_rejects_zero_extent(self):
        with pytest.raises(ContractViolationError):
            resize_bilinear(np.zeros((2, 2)), 0, 2)

    # the last four: the 224 px RGB frame to 112, the flow pyramid's
    # 112 -> 56 and 56 -> 112, and a 1x1 source
    @pytest.mark.parametrize("src, dst", [((120, 160), (112, 112)), ((28, 28), (56, 56)),
                                          ((64, 48), (16, 40)), ((5, 7), (9, 3)),
                                          ((1, 6), (4, 1)), ((224, 224), (112, 112)),
                                          ((112, 112), (56, 56)), ((56, 56), (112, 112)),
                                          ((1, 1), (3, 5))])
    @pytest.mark.parametrize("kind", ["uint8_rgb", "float32_gray"])
    def test_equals_sampling_the_full_grid(self, rng, src, dst, kind):
        # resize gathers separable row and column taps; sampling the
        # materialized (h, w) coordinate grids must give the same bytes
        img = random_image(rng, src, kind)
        h, w = dst
        want = resize_on_the_full_grid(img, w, h)
        got = resize_bilinear(img, w, h)
        assert got.dtype == img.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(sh=st.integers(1, 40), sw=st.integers(1, 40), h=st.integers(1, 40),
           w=st.integers(1, 40),
           kind=st.sampled_from(["uint8_rgb", "float32_gray", "float64_gray"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_sampling_the_full_grid_property(self, sh, sw, h, w, kind, seed):
        img = random_image(np.random.default_rng(seed), (sh, sw), kind)
        got = resize_bilinear(img, w, h)
        want = resize_on_the_full_grid(img, w, h)
        assert got.dtype == img.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBilinearSample:
    @given(h=st.integers(1, 9), w=st.integers(1, 9), channels=st.sampled_from([None, 1, 3]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_equals_two_index_gather_property(self, h, w, channels, dtype, seed):
        # coordinates reach 3 px past every border, so each side clamps;
        # ys is a column and xs a full grid, so they broadcast
        gen = np.random.default_rng(seed)
        img = gen.random((h, w) if channels is None else (h, w, channels)).astype(dtype)
        ys = gen.uniform(-3, h + 2, (6, 1)).astype(dtype)
        xs = gen.uniform(-3, w + 2, (6, 5)).astype(dtype)
        xs[0, :] = np.round(xs[0, :])  # whole-pixel positions, where f is 0
        got = bilinear_sample(img, ys, xs)
        want = bilinear_sample_oracle(img, ys, xs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSampleFrames:
    def test_exhaustive_one_second(self):
        meta = ClipMeta(fps=30, width=8, height=8, frame_count=30)
        pairs = sample_frames(meta, 30, seed=0)
        assert pairs == [(i, i + 1) for i in range(29)]

    def test_counts_per_second(self):
        meta = ClipMeta(fps=30, width=8, height=8, frame_count=60)
        pairs = sample_frames(meta, 3, seed=5)
        assert len(pairs) == 6
        first = [p for p in pairs if p[0] < 30]
        second = [p for p in pairs if 30 <= p[0] < 60]
        assert len(first) == 3 and len(second) == 3
        assert all(j == i + 1 for i, j in pairs)
        assert all(i < 59 for i, _ in pairs)

    def test_deterministic(self):
        meta = ClipMeta(fps=30, width=8, height=8, frame_count=90)
        assert sample_frames(meta, 4, seed=77) == sample_frames(meta, 4, seed=77)

    def test_sorted_within_second(self):
        meta = ClipMeta(fps=10, width=8, height=8, frame_count=40)
        pairs = sample_frames(meta, 5, seed=3)
        starts = [i for i, _ in pairs]
        per_second = [sorted(s for s in starts if lo <= s < lo + 10) for lo in range(0, 40, 10)]
        assert starts == [s for sec in per_second for s in sec]

    def test_trailing_partial_second(self):
        # 2.5 s at 8 fps: two full seconds plus 4 trailing frames -> ceil(0.5*2)=1 extra
        meta = ClipMeta(fps=8, width=8, height=8, frame_count=20)
        pairs = sample_frames(meta, 2, seed=1)
        assert len(pairs) == 5
        tail = [p for p in pairs if p[0] >= 16]
        assert len(tail) == 1
        assert tail[0][0] < 19

    def test_partial_second_with_one_frame_skipped(self):
        meta = ClipMeta(fps=10, width=8, height=8, frame_count=21)
        pairs = sample_frames(meta, 2, seed=1)
        assert all(i < 20 for i, _ in pairs)
        assert len(pairs) == 4

    def test_rejects_oversampling(self):
        meta = ClipMeta(fps=10, width=8, height=8, frame_count=20)
        with pytest.raises(ContractViolationError):
            sample_frames(meta, 11, seed=0)

    @given(fps=st.integers(2, 30), seconds=st.integers(1, 4), sfps=st.integers(1, 8),
           seed=st.integers(0, 10**6))
    def test_pair_validity_property(self, fps, seconds, sfps, seed):
        if sfps > fps:
            return
        meta = ClipMeta(fps=fps, width=8, height=8, frame_count=fps * seconds)
        pairs = sample_frames(meta, sfps, seed)
        assert all(0 <= i < meta.frame_count - 1 and j == i + 1 for i, j in pairs)
        seen = [i for i, _ in pairs]
        assert len(set(seen)) == len(seen)
