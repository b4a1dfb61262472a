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

``compute_flow`` solves a stack of N pairs at once: every pyramid, warp,
gradient and Jacobi call covers the (N, H, W) stack, and a single pair is
the stack of one. The solve is a few thousand small numpy calls whatever
N is, so a stack pays the interpreter's per-call cost once for all its
pairs, and cache workers on threads hold the interpreter lock for fewer,
longer calls. Every step is elementwise or per image, so each pair's flow
equals its own solve byte for byte.

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
from .resize import _mix, _taps, resize_bilinear


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


def _edge_pad(f: np.ndarray, y: int, x: int) -> np.ndarray:
    """f (..., H, W) edge-padded by y rows and x columns on each side: np.pad's
    "edge" mode as five slice copies, since at these extents np.pad's own
    bookkeeping costs several times the copy."""
    *lead, h, w = f.shape
    p = np.empty((*lead, h + 2 * y, w + 2 * x), dtype=f.dtype)
    p[..., y : y + h, x : x + w] = f
    p[..., :y, x : x + w] = f[..., :1, :]
    p[..., y + h :, x : x + w] = f[..., -1:, :]
    p[..., :x] = p[..., x : x + 1]
    p[..., x + w :] = p[..., x + w - 1 : x + w]
    return p


def _centered_diff(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw [-1, 0, 1] differences of f (..., H, W) along x and y, from one edge pad."""
    p = _edge_pad(f, 1, 1)
    return p[..., 1:-1, 2:] - p[..., 1:-1, :-2], p[..., 2:, 1:-1] - p[..., :-2, 1:-1]


def _jacobi(fx: np.ndarray, fy: np.ndarray, ft: np.ndarray, alpha: float,
            iterations: int) -> np.ndarray:
    """``iterations`` Horn-Schunck steps from zero flow on (..., H, W) gradients;
    returns (du, dv) stacked (2, ..., H, W).

    A step is u <- u_bar - fx (fx u_bar + fy v_bar + ft) / (alpha^2 + fx^2
    + fy^2), and symmetrically for v; the bars are ``_AVG_OFFSETS``
    averages over edge-replicated neighbours. du and dv live in the
    interior of one edge-padded (2, ..., H+2, W+2) buffer: each step writes
    that interior, then copies the edge rows and columns by slice. Every
    element sees the same operations in the same order as in a step that
    pads u and v afresh, and the denominator is computed once.
    """
    *lead, h, w = ft.shape
    padded = np.zeros((2, *lead, h + 2, w + 2), dtype=ft.dtype)
    d = padded[..., 1 : h + 1, 1 : w + 1]
    grad = np.stack([fx, fy])
    denom = alpha * alpha + fx * fx + fy * fy
    taps = [(np.asarray(weight, dtype=ft.dtype),
             padded[..., 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w])
            for dy, dx, weight in _AVG_OFFSETS]
    bar, term = np.empty_like(d), np.empty_like(d)
    common, tmp = np.empty_like(ft), np.empty_like(ft)
    for _ in range(iterations):
        padded[..., 0, 1 : w + 1] = d[..., 0, :]
        padded[..., h + 1, 1 : w + 1] = d[..., h - 1, :]
        padded[..., 0] = padded[..., 1]
        padded[..., w + 1] = padded[..., w]
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
    # separable binomial [1, 4, 6, 4, 1] / 16 over the last two axes, edge-replicated
    kernel = np.array([1, 4, 6, 4, 1], dtype=img.dtype) / np.asarray(16, dtype=img.dtype)
    h, w = img.shape[-2:]
    p = _edge_pad(img, 2, 0)
    img = sum(kernel[i] * p[..., i : i + h, :] for i in range(5))
    p = _edge_pad(img, 0, 2)
    return sum(kernel[i] * p[..., i : i + w] for i in range(5))


def _resize_stack(stack: np.ndarray, w: int, h: int) -> np.ndarray:
    """``resize_bilinear`` of every (H, W[, 2]) map of an (N, H, W[, 2]) stack,
    the stack riding the channel axis, where each element is resampled alone."""
    rest = tuple(range(3, stack.ndim))
    out = resize_bilinear(stack.transpose(1, 2, 0, *rest), w, h)
    return np.ascontiguousarray(out.transpose(2, 0, 1, *rest))


def _build_pyramid(stack: np.ndarray, levels: int, scale: float) -> list[np.ndarray]:
    """Finest level first; stops early once an extent would drop below 4 px."""
    pyramid = [stack]
    for _ in range(levels - 1):
        prev = pyramid[-1]
        h = int(round(prev.shape[1] * scale))
        w = int(round(prev.shape[2] * scale))
        if h < 4 or w < 4:
            break
        pyramid.append(_resize_stack(_gaussian_blur(prev), w, h))
    return pyramid


def _warp(stack: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Each (H, W) image of the stack sampled at (y + v, x + u) of its own flow,
    clamped to its own borders: ``bilinear_sample``'s taps, with each image's
    flat offset added to its row offsets."""
    n, h, w = stack.shape
    y0, y1, fy = _taps(np.arange(h, dtype=stack.dtype)[:, None] + flow[..., 1], h, stack.dtype)
    x0, x1, fx = _taps(np.arange(w, dtype=stack.dtype) + flow[..., 0], w, stack.dtype)
    base = np.arange(0, n * h * w, h * w)[:, None, None]
    for rows in (y0, y1):
        rows *= w
        rows += base
    return _mix(stack.reshape(-1), y0, y1, fy, x0, x1, fx)


def compute_flow(prev: np.ndarray, next: np.ndarray, params: FlowParams = FlowParams()) -> np.ndarray:
    """Dense float32 flow from prev to next; channel 0 is u, channel 1 is v.

    Inputs are real-valued grayscale images in [0, 1] with equal shapes:
    one pair of (H, W) images gives (H, W, 2), and a stack of N pairs,
    (N, H, W) each, gives (N, H, W, 2). A single pair is solved as a stack
    of one, and every pyramid, warp, gradient and Jacobi call covers the
    whole stack; each pair's flow equals its own solve byte for byte. u is
    positive rightward and v positive downward, both in pixels per frame.
    """
    if prev.shape != next.shape or prev.ndim not in (2, 3) or 0 in prev.shape:
        raise ContractViolationError(
            f"frames must be equal-shaped non-empty 2-D grayscale images or stacks of them, "
            f"got {prev.shape} vs {next.shape}"
        )
    stacked = prev.ndim == 3
    if not stacked:
        prev, next = prev[None], next[None]
    f1 = prev.astype(np.float32) * np.float32(255)
    f2 = next.astype(np.float32) * np.float32(255)
    pyr1 = _build_pyramid(f1, params.pyramid_levels, params.scale)
    pyr2 = _build_pyramid(f2, params.pyramid_levels, params.scale)
    alpha = float(params.alpha)

    flow = np.zeros(pyr1[-1].shape + (2,), dtype=np.float32)
    for p1, p2 in zip(reversed(pyr1), reversed(pyr2)):
        h, w = p1.shape[1:]
        if flow.shape[1:3] != (h, w):
            ratio = np.array([w / flow.shape[2], h / flow.shape[1]], dtype=np.float32)
            flow = _resize_stack(flow, w, h) * ratio
        warped = _warp(p2, flow)
        (gx1, gy1), (gx2, gy2) = _centered_diff(p1), _centered_diff(warped)
        quarter = np.float32(0.25)  # the mean of two half-differences
        d = _jacobi(quarter * (gx1 + gx2), quarter * (gy1 + gy2), warped - p1, alpha,
                    params.iterations)
        flow += d.transpose(1, 2, 3, 0)
    return flow if stacked else flow[0]
