import numpy as np
import pytest

from rtar.errors import ContractViolationError
from rtar.preprocess import compute_hog, render_hog
from rtar.preprocess.hog import cell_strengths


def hog_cell_hist_oracle(image, cell=8, bins=9):
    """Scalar reference: per-pixel votes accumulated with explicit loops."""
    h, w = image.shape
    img = image.astype(np.float64)
    hist = np.zeros((h // cell, w // cell, bins))
    for y in range(h):
        for x in range(w):
            xl = img[y, max(x - 1, 0)]
            xr = img[y, min(x + 1, w - 1)]
            yu = img[max(y - 1, 0), x]
            yd = img[min(y + 1, h - 1), x]
            gx, gy = xr - xl, yd - yu
            mag = np.hypot(gx, gy)
            ang = np.degrees(np.arctan2(gy, gx)) % 180.0
            t = ang / (180.0 / bins)
            lo = int(np.floor(t)) % bins
            frac = t - np.floor(t)
            hist[y // cell, x // cell, lo] += mag * (1 - frac)
            hist[y // cell, x // cell, (lo + 1) % bins] += mag * frac
    return hist


class TestComputeHog:
    def test_constant_image_all_zero(self):
        d = compute_hog(np.full((16, 16), 0.5))
        assert np.all(d.cell_hist == 0)
        assert np.all(d.blocks == 0)

    def test_vertical_step_edge_votes_bin_zero(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0  # horizontal gradient, orientation 0 in unsigned terms
        d = compute_hog(img)
        affected = d.cell_hist[d.cell_hist.sum(axis=2) > 0]
        assert affected.size > 0
        assert np.all(affected[:, 1:] == 0)
        assert np.all(affected[:, 0] > 0)

    def test_matches_scalar_oracle(self, rng):
        img = rng.random((24, 16))
        d = compute_hog(img)
        want = hog_cell_hist_oracle(img)
        assert np.allclose(d.cell_hist, want, atol=1e-10)

    def test_intensity_offset_invariance(self, rng):
        img = rng.random((16, 16))
        a = compute_hog(img)
        b = compute_hog(img + 3.0)
        assert np.allclose(a.cell_hist, b.cell_hist, atol=1e-9)
        assert np.allclose(a.blocks, b.blocks, atol=1e-9)

    def test_block_norm_bound_and_nonnegative(self, rng):
        d = compute_hog(rng.random((32, 32)))
        norms = np.sqrt((d.blocks**2).sum(axis=(2, 3, 4)))
        assert np.all(norms <= 1 + 1e-6)
        assert np.all(d.cell_hist >= 0)
        assert np.all(d.blocks >= 0)

    def test_transpose_preserves_cell_mass(self, rng):
        img = rng.random((16, 24))
        a = compute_hog(img).cell_hist.sum(axis=2)
        b = compute_hog(img.T).cell_hist.sum(axis=2)
        assert np.allclose(a, b.T, atol=1e-9)

    def test_rejects_nondivisible(self):
        with pytest.raises(ContractViolationError):
            compute_hog(np.zeros((15, 16)))


class TestRenderHog:
    def test_zero_descriptor_black(self):
        d = compute_hog(np.zeros((16, 16)))
        img = render_hog(d)
        assert img.dtype == np.uint8
        assert np.all(img == 0)

    def test_single_bin_locality(self):
        d = compute_hog(np.zeros((32, 32)))
        strengths = np.zeros_like(d.blocks)
        strengths[1, 1, 0, 0, 2] = 0.7  # only cell (1,1) carries weight
        d = d.__class__(cell_hist=d.cell_hist, blocks=strengths)
        img = render_hog(d)
        mask = np.zeros((32, 32), dtype=bool)
        mask[8:16, 8:16] = True
        assert img[~mask].max() == 0
        assert img[mask].max() > 0

    def test_deterministic(self, rng):
        d = compute_hog(rng.random((16, 16)))
        assert np.array_equal(render_hog(d), render_hog(d))

    def test_render_has_the_image_shape(self, rng):
        img = rng.random((24, 40))
        assert render_hog(compute_hog(img)).shape == img.shape

    def test_cell_strengths_max_of_blocks(self, rng):
        d = compute_hog(rng.random((24, 24)))
        s = cell_strengths(d)
        # cell (1,1) belongs to blocks (0,0),(0,1),(1,0),(1,1)
        candidates = [d.blocks[0, 0, 1, 1], d.blocks[0, 1, 1, 0],
                      d.blocks[1, 0, 0, 1], d.blocks[1, 1, 0, 0]]
        assert np.allclose(s[1, 1], np.max(candidates, axis=0))
