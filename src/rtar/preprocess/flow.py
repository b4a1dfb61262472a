"""Coarse-to-fine pyramidal Horn-Schunck optical flow.

The estimator builds Gaussian pyramids of both frames, then from the
coarsest level to the finest: upsamples and rescales the flow carried so
far, warps the second frame back by it, and runs a fixed number of
Jacobi updates of the Horn-Schunck equations on the residual motion.
Every level runs the same count, 25 by default: the accuracy knee of the
paired sweep in ``scripts/flow_accuracy.py``, where 25 steps stay within
0.02 px mean endpoint error of 50 at every displacement from 0.5 to 3 px
(gated in tests/test_flow.py) and 20 do not.
Derivatives are centered differences (``_centered_diff``, which HOG shares)
averaged over the frame pair, which keeps the estimate equivariant under
horizontal mirroring. The flow is one float32 (H, W, 2) field throughout.

The Jacobi loop (``_jacobi``) smooths u and v as one stacked array inside
one preallocated edge-padded buffer, refreshing only its border on each
update (Horn & Schunck, 1981). Tests hold it bit for bit to a chain of
single updates that each edge-pad u and v afresh.

Intensities are expected in [0, 1] and are scaled by 255 internally so
the default smoothness weight sits at the classic operating point for
8-bit imagery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolationError
from .resize import bilinear_sample, resize_bilinear


@dataclass(frozen=True)
class FlowParams:
    pyramid_levels: int = 4
    scale: float = 0.5
    alpha: float = 15.0
    iterations: int = 25

    def __post_init__(self):
        if not 0 < self.scale < 1:
            raise ContractViolationError(f"pyramid scale must be in (0,1), got {self.scale}")
        if self.pyramid_levels < 1 or self.iterations < 1:
            raise ContractViolationError("pyramid_levels and iterations must be positive")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ContractViolationError(f"alpha must be finite and > 0, got {self.alpha}")


# Weights of the Jacobi neighbourhood average (Horn-Schunck's u-bar / v-bar).
_AVG_OFFSETS = (
    (-1, -1, 1 / 12), (-1, 0, 1 / 6), (-1, 1, 1 / 12),
    (0, -1, 1 / 6), (0, 1, 1 / 6),
    (1, -1, 1 / 12), (1, 0, 1 / 6), (1, 1, 1 / 12),
)


def _centered_diff(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw [-1, 0, 1] differences of a 2-D f along x and y, from one edge pad."""
    p = np.pad(f, 1, mode="edge")
    return p[1:-1, 2:] - p[1:-1, :-2], p[2:, 1:-1] - p[:-2, 1:-1]


def _jacobi(fx: np.ndarray, fy: np.ndarray, ft: np.ndarray, alpha: float,
            iterations: int) -> np.ndarray:
    """``iterations`` Horn-Schunck steps from zero flow; returns (du, dv) stacked (2, H, W).

    A step is u <- u_bar - fx (fx u_bar + fy v_bar + ft) / (alpha^2 + fx^2
    + fy^2), and symmetrically for v; the bars are ``_AVG_OFFSETS``
    averages over edge-replicated neighbours. du and dv live in the
    interior of one edge-padded (2, H+2, W+2) buffer: each step writes
    that interior, then copies the edge rows and columns by slice. Every
    element sees the same operations in the same order as in a step that
    pads u and v afresh, and the denominator is computed once.
    """
    h, w = ft.shape
    padded = np.zeros((2, h + 2, w + 2), dtype=ft.dtype)
    d = padded[:, 1 : h + 1, 1 : w + 1]
    grad = np.stack([fx, fy])
    denom = alpha * alpha + fx * fx + fy * fy
    taps = [(np.asarray(weight, dtype=ft.dtype),
             padded[:, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w])
            for dy, dx, weight in _AVG_OFFSETS]
    bar, term = np.empty_like(d), np.empty_like(d)
    common, tmp = np.empty_like(ft), np.empty_like(ft)
    for _ in range(iterations):
        padded[:, 0, 1 : w + 1] = d[:, 0]
        padded[:, h + 1, 1 : w + 1] = d[:, h - 1]
        padded[:, :, 0] = padded[:, :, 1]
        padded[:, :, w + 1] = padded[:, :, w]
        bar.fill(0)  # averages start at +0.0, and 0 + (-0.0) is +0.0: it shows in the bytes
        for weight, view in taps:
            np.multiply(weight, view, out=term)
            bar += term
        np.multiply(fx, bar[0], out=common)
        np.multiply(fy, bar[1], out=tmp)
        common += tmp
        common += ft
        common /= denom
        np.multiply(grad, common, out=d)
        np.subtract(bar, d, out=d)
    return d


def _gaussian_blur(img: np.ndarray) -> np.ndarray:
    # separable binomial [1, 4, 6, 4, 1] / 16, edge-replicated
    kernel = np.array([1, 4, 6, 4, 1], dtype=img.dtype) / np.asarray(16, dtype=img.dtype)
    p = np.pad(img, ((2, 2), (0, 0)), mode="edge")
    img = sum(kernel[i] * p[i : i + img.shape[0], :] for i in range(5))
    p = np.pad(img, ((0, 0), (2, 2)), mode="edge")
    return sum(kernel[i] * p[:, i : i + img.shape[1]] for i in range(5))


def _build_pyramid(img: np.ndarray, levels: int, scale: float) -> list[np.ndarray]:
    """Finest level first; stops early once an extent would drop below 4 px."""
    pyramid = [img]
    for _ in range(levels - 1):
        prev = pyramid[-1]
        h = int(round(prev.shape[0] * scale))
        w = int(round(prev.shape[1] * scale))
        if h < 4 or w < 4:
            break
        pyramid.append(resize_bilinear(_gaussian_blur(prev), w, h))
    return pyramid


def _warp(img: np.ndarray, flow: np.ndarray) -> np.ndarray:
    h, w = img.shape
    return bilinear_sample(img, np.arange(h, dtype=img.dtype)[:, None] + flow[..., 1],
                           np.arange(w, dtype=img.dtype) + flow[..., 0])


def compute_flow(prev: np.ndarray, next: np.ndarray, params: FlowParams = FlowParams()) -> np.ndarray:
    """Dense float32 flow (H, W, 2) from prev to next; channel 0 is u, channel 1 is v.

    u is positive rightward and v positive downward, both in pixels per
    frame. Inputs are real-valued grayscale images in [0, 1] with equal
    shapes.
    """
    if prev.shape != next.shape or prev.ndim != 2:
        raise ContractViolationError(
            f"frames must be equal-shaped 2-D grayscale, got {prev.shape} vs {next.shape}"
        )
    f1 = prev.astype(np.float32) * np.float32(255)
    f2 = next.astype(np.float32) * np.float32(255)
    pyr1 = _build_pyramid(f1, params.pyramid_levels, params.scale)
    pyr2 = _build_pyramid(f2, params.pyramid_levels, params.scale)
    alpha = float(params.alpha)

    flow = np.zeros(pyr1[-1].shape + (2,), dtype=np.float32)
    for p1, p2 in zip(reversed(pyr1), reversed(pyr2)):
        h, w = p1.shape
        if flow.shape[:2] != (h, w):
            ratio = np.array([w / flow.shape[1], h / flow.shape[0]], dtype=np.float32)
            flow = resize_bilinear(flow, w, h) * ratio
        warped = _warp(p2, flow)
        (gx1, gy1), (gx2, gy2) = _centered_diff(p1), _centered_diff(warped)
        quarter = np.float32(0.25)  # the mean of two half-differences
        d = _jacobi(quarter * (gx1 + gx2), quarter * (gy1 + gy2), warped - p1, alpha,
                    params.iterations)
        flow += d.transpose(1, 2, 0)
    return flow
