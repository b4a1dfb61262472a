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

    cell_hist: (cells_y, cells_x, BINS) raw magnitude-weighted votes.
    blocks: (cells_y-1, cells_x-1, 2, 2, BINS) normalized 2x2-cell blocks,
    block stride one cell.
    """

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
    return HogDescriptor(cell_hist=cell_hist, blocks=blocks)


def cell_strengths(d: HogDescriptor) -> np.ndarray:
    """(cells_y, cells_x, BINS) per-cell maxima of the normalized block values."""
    out = np.zeros(d.cell_hist.shape)
    cells_y, cells_x = out.shape[:2]
    for by in range(cells_y - 1):
        for bx in range(cells_x - 1):
            for i in range(2):
                for j in range(2):
                    np.maximum(out[by + i, bx + j], d.blocks[by, bx, i, j], out=out[by + i, bx + j])
    return out


def render_hog(d: HogDescriptor) -> np.ndarray:
    """Draw the descriptor as a gray uint8 image at its own cell grid, one
    CELL x CELL tile per cell, so the render has the described image's size.

    Each cell shows one line segment per orientation bin, drawn along the
    edge direction (bin center + 90 degrees), with intensity proportional
    to the cell's normalized bin strength; the whole image is scaled so
    the strongest response maps to 255.
    """
    strengths = cell_strengths(d)
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
