"""Histogram of oriented gradients with block normalization and rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolationError
from .flow import _centered_diff


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

    Gradients are flow's ``_centered_diff``, [-1, 0, 1] with replicated borders;
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

    gx, gy = _centered_diff(image.astype(np.float64))
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

    # all lo votes, then all hi votes: each bin sums its votes in pixel order
    hist = np.bincount(
        np.concatenate([(flat_cell + lo).ravel(), (flat_cell + hi).ravel()]),
        weights=np.concatenate([(mag * (1.0 - frac)).ravel(), (mag * frac).ravel()]),
        minlength=cells_y * cells_x * BINS,
    )
    cell_hist = hist.reshape(cells_y, cells_x, BINS)

    # every 2x2-cell block as one 4*BINS vector, in (row, column, bin) order
    v = np.concatenate(
        [cell_hist[i : cells_y - 1 + i, j : cells_x - 1 + j] for i in range(2) for j in range(2)],
        axis=-1,
    )
    v = v / np.sqrt((v * v).sum(axis=-1, keepdims=True) + _EPS * _EPS)
    v = np.minimum(v, _HYS_CLIP)
    v = v / np.sqrt((v * v).sum(axis=-1, keepdims=True) + _EPS * _EPS)
    blocks = v.reshape(cells_y - 1, cells_x - 1, 2, 2, BINS)
    return HogDescriptor(cell_hist=cell_hist, blocks=blocks)


def cell_strengths(d: HogDescriptor) -> np.ndarray:
    """(cells_y, cells_x, BINS) per-cell maxima of the normalized block values."""
    out = np.zeros(d.cell_hist.shape)
    cells_y, cells_x = out.shape[:2]
    for i in range(2):
        for j in range(2):
            tile = out[i : cells_y - 1 + i, j : cells_x - 1 + j]
            np.maximum(tile, d.blocks[:, :, i, j], out=tile)
    return out


def render_hog(d: HogDescriptor) -> np.ndarray:
    """Draw the descriptor as a gray uint8 image at its own cell grid, one
    CELL x CELL tile per cell, so the render has the described image's size.

    Each cell shows one line segment per orientation bin, drawn along the
    edge direction (bin center + 90 degrees), with intensity proportional
    to the cell's normalized bin strength; the whole image is scaled so
    the strongest response maps to 255. Where segments cross, a pixel
    keeps the largest strength.
    """
    strengths = cell_strengths(d)
    cells_y, cells_x = strengths.shape[:2]
    canvas = np.zeros((cells_y * CELL, cells_x * CELL))
    half = (CELL - 1) / 2.0
    steps = np.linspace(-half, half, 2 * CELL)
    theta = np.deg2rad(np.arange(BINS) * (180.0 / BINS) + 90.0)[:, None]
    # one (cells_y, cells_x, BINS, 2*CELL) grid of segment pixels; a segment
    # reaches at most `half` px from its tile's center, so it stays in its
    # tile, and a zero strength leaves the zero canvas as it is
    top = (np.arange(cells_y) * CELL)[:, None, None, None]
    left = (np.arange(cells_x) * CELL)[None, :, None, None]
    ys = np.rint(top + half + steps * np.sin(theta)).astype(int)
    xs = np.rint(left + half + steps * np.cos(theta)).astype(int)
    np.maximum.at(canvas, (ys, xs), strengths[..., None])
    peak = canvas.max()
    if peak > 0:
        canvas = canvas * (255.0 / peak)
    return np.rint(canvas).astype(np.uint8)
