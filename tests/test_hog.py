import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtar.errors import ContractViolationError
from rtar.preprocess import HogDescriptor, compute_hog, render_hog
from rtar.preprocess.hog import _EPS, _HYS_CLIP, BINS, CELL, cell_strengths


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


def compute_hog_loops(image):
    """Reference (cell_hist, blocks): the votes go in through two np.add.at
    calls, lo bins then hi bins, and each block is normalized on its own."""
    h, w = image.shape
    cells_y, cells_x = h // CELL, w // CELL
    img = image.astype(np.float64)
    px = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    py = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    gx = px[:, 2:] - px[:, :-2]
    gy = py[2:, :] - py[:-2, :]
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    t = ang / (180.0 / BINS)
    lo = np.floor(t).astype(np.intp) % BINS
    frac = t - np.floor(t)
    hi = (lo + 1) % BINS
    cell_y = (np.arange(h) // CELL)[:, None]
    cell_x = (np.arange(w) // CELL)[None, :]
    flat_cell = (cell_y * cells_x + cell_x) * BINS
    hist = np.zeros(cells_y * cells_x * BINS)
    np.add.at(hist, (flat_cell + lo).ravel(), (mag * (1.0 - frac)).ravel())
    np.add.at(hist, (flat_cell + hi).ravel(), (mag * frac).ravel())
    cell_hist = hist.reshape(cells_y, cells_x, BINS)

    blocks = np.empty((cells_y - 1, cells_x - 1, 2, 2, BINS))
    for by in range(cells_y - 1):
        for bx in range(cells_x - 1):
            v = cell_hist[by : by + 2, bx : bx + 2, :]
            v = v / np.sqrt((v * v).sum() + _EPS * _EPS)
            v = np.minimum(v, _HYS_CLIP)
            blocks[by, bx] = v / np.sqrt((v * v).sum() + _EPS * _EPS)
    return cell_hist, blocks


def cell_strengths_loops(d):
    """Reference cell_strengths: every block's four cells, one at a time."""
    out = np.zeros(d.cell_hist.shape)
    cells_y, cells_x = out.shape[:2]
    for by in range(cells_y - 1):
        for bx in range(cells_x - 1):
            for i in range(2):
                for j in range(2):
                    np.maximum(out[by + i, bx + j], d.blocks[by, bx, i, j], out=out[by + i, bx + j])
    return out


def render_hog_loops(d):
    """Reference render_hog: one np.maximum.at per drawn cell and bin."""
    strengths = cell_strengths_loops(d)
    cells_y, cells_x = strengths.shape[:2]
    canvas = np.zeros((cells_y * CELL, cells_x * CELL))
    half = (CELL - 1) / 2.0
    steps = np.linspace(-half, half, 2 * CELL)
    bin_width = 180.0 / BINS
    for cy in range(cells_y):
        for cx in range(cells_x):
            center_y = cy * CELL + half
            center_x = cx * CELL + half
            for b in range(BINS):
                s = strengths[cy, cx, b]
                if s <= 0:
                    continue
                theta = np.deg2rad(b * bin_width + 90.0)
                ys = np.rint(center_y + steps * np.sin(theta)).astype(int)
                xs = np.rint(center_x + steps * np.cos(theta)).astype(int)
                keep = (
                    (ys >= cy * CELL) & (ys < (cy + 1) * CELL)
                    & (xs >= cx * CELL) & (xs < (cx + 1) * CELL)
                )
                np.maximum.at(canvas, (ys[keep], xs[keep]), s)
    peak = canvas.max()
    if peak > 0:
        canvas = canvas * (255.0 / peak)
    return np.rint(canvas).astype(np.uint8)


def hog_test_image(kind, cells_y, cells_x, dtype, seed):
    gen = np.random.default_rng(seed)
    shape = (cells_y * CELL, cells_x * CELL)
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "binary":
        return (gen.random(shape) < 0.5).astype(dtype)
    return gen.random(shape).astype(dtype)


hog_cases = dict(
    cells_y=st.integers(1, 20), cells_x=st.integers(1, 20),
    dtype=st.sampled_from([np.float32, np.float64]),
    kind=st.sampled_from(["noise", "zeros", "binary"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestMatchesLoops:
    @given(**hog_cases)
    def test_compute_hog_bytes_equal_loops(self, cells_y, cells_x, dtype, kind, seed):
        image = hog_test_image(kind, cells_y, cells_x, dtype, seed)
        d = compute_hog(image)
        want_hist, want_blocks = compute_hog_loops(image)
        assert d.cell_hist.tobytes() == want_hist.tobytes()
        assert d.blocks.shape == want_blocks.shape == (cells_y - 1, cells_x - 1, 2, 2, BINS)
        assert d.blocks.tobytes() == want_blocks.tobytes()

    @given(**hog_cases, zero_share=st.sampled_from([0.0, 0.5, 1.0]))
    def test_render_hog_bytes_equal_loops(self, cells_y, cells_x, dtype, kind, seed, zero_share):
        d = compute_hog(hog_test_image(kind, cells_y, cells_x, dtype, seed))
        # strengths exactly zero in some bins, as in flat or one-edge cells
        gone = np.random.default_rng(seed + 1).random(d.blocks.shape) < zero_share
        d = HogDescriptor(cell_hist=d.cell_hist, blocks=np.where(gone, 0.0, d.blocks))
        assert cell_strengths(d).tobytes() == cell_strengths_loops(d).tobytes()
        got = render_hog(d)
        assert got.dtype == np.uint8 and got.shape == (cells_y * CELL, cells_x * CELL)
        assert got.tobytes() == render_hog_loops(d).tobytes()


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
