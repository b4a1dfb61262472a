"""Histogram of oriented gradients with block normalization and rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolationError


# the textbook geometry (Dalal & Triggs, 2005): 8x8-pixel cells, 9 unsigned
# orientation bins, and blocks of 2x2 cells
CELL = 8
BINS = 9


@dataclass(frozen=True)
class HogDescriptor:
    """Per-cell orientation histograms plus L2-Hys-normalized block vectors.

    cell_hist: (cells_y, cells_x, bins) raw magnitude-weighted votes.
    blocks: (cells_y-1, cells_x-1, 2, 2, bins) normalized 2x2-cell blocks,
    block stride one cell.
    """

    cells_x: int
    cells_y: int
    bins: int
    cell_hist: np.ndarray
    blocks: np.ndarray


_HYS_CLIP = 0.2
_EPS = 1e-6


def compute_hog(image: np.ndarray) -> HogDescriptor:
    """HOG of a real-valued grayscale image whose extents divide the cell size.

    Gradients are centered [-1, 0, 1] differences with replicated borders;
    orientations are unsigned (in [0, 180)) with bin centers at 0, 20, ...
    degrees, and each pixel's magnitude is split linearly between the two
    nearest bins.
    """
    if image.ndim != 2:
        raise ContractViolationError(f"expected 2-D grayscale image, got shape {image.shape}")
    h, w = image.shape
    if h % CELL or w % CELL:
        raise ContractViolationError(f"image {h}x{w} not divisible by cell size {CELL}")
    cells_y, cells_x = h // CELL, w // CELL

    img = image.astype(np.float64)
    px = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    py = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    gx = px[:, 2:] - px[:, :-2]
    gy = py[2:, :] - py[:-2, :]
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0

    bin_width = 180.0 / BINS
    t = ang / bin_width
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
    return HogDescriptor(cells_x=cells_x, cells_y=cells_y, bins=BINS,
                         cell_hist=cell_hist, blocks=blocks)


def cell_strengths(d: HogDescriptor) -> np.ndarray:
    """(cells_y, cells_x, bins) per-cell maxima of the normalized block values."""
    out = np.zeros((d.cells_y, d.cells_x, d.bins))
    for by in range(d.cells_y - 1):
        for bx in range(d.cells_x - 1):
            for i in range(2):
                for j in range(2):
                    np.maximum(out[by + i, bx + j], d.blocks[by, bx, i, j], out=out[by + i, bx + j])
    return out


def render_hog(d: HogDescriptor, w: int, h: int) -> np.ndarray:
    """Draw the descriptor as a gray (h, w) uint8 image.

    Each cell shows one line segment per orientation bin, drawn along the
    edge direction (bin center + 90 degrees), with intensity proportional
    to the cell's normalized bin strength; the whole image is scaled so
    the strongest response maps to 255.
    """
    if w % d.cells_x or h % d.cells_y:
        raise ContractViolationError(
            f"render target {w}x{h} must be a multiple of the {d.cells_x}x{d.cells_y} cell grid"
        )
    tile_w, tile_h = w // d.cells_x, h // d.cells_y
    strengths = cell_strengths(d)
    canvas = np.zeros((h, w))
    half = (min(tile_w, tile_h) - 1) / 2.0
    steps = np.linspace(-half, half, 2 * max(tile_w, tile_h))
    bin_width = 180.0 / d.bins
    for cy in range(d.cells_y):
        for cx in range(d.cells_x):
            center_y = cy * tile_h + (tile_h - 1) / 2.0
            center_x = cx * tile_w + (tile_w - 1) / 2.0
            for b in range(d.bins):
                s = strengths[cy, cx, b]
                if s <= 0:
                    continue
                theta = np.deg2rad(b * bin_width + 90.0)
                ys = np.rint(center_y + steps * np.sin(theta)).astype(int)
                xs = np.rint(center_x + steps * np.cos(theta)).astype(int)
                keep = (
                    (ys >= cy * tile_h) & (ys < (cy + 1) * tile_h)
                    & (xs >= cx * tile_w) & (xs < (cx + 1) * tile_w)
                )
                np.maximum.at(canvas, (ys[keep], xs[keep]), s)
    peak = canvas.max()
    if peak > 0:
        canvas = canvas * (255.0 / peak)
    return np.rint(canvas).astype(np.uint8)
