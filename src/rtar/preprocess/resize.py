"""Bilinear resampling with half-pixel centers and border clamping."""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError

# ITU-R BT.601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


def grayscale_bt601(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) real RGB -> (H, W) luma with BT.601 weights."""
    return rgb @ _LUMA.astype(rgb.dtype)


def bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample img at real-valued (ys, xs) positions, clamping to borders.

    img is (H, W) or (H, W, C); ys/xs share a common broadcast shape and
    the result has that shape (plus the channel axis when present).
    """
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


def resize_bilinear(image: np.ndarray, w: int, h: int) -> np.ndarray:
    """Resize to (h, w) with align-corners-false bilinear sampling.

    Source coordinates use half-pixel centers: src = (dst + 0.5)*scale - 0.5.
    uint8 images are resampled in float64 and rounded back to uint8; float
    images keep their dtype.
    """
    if w < 1 or h < 1 or image.shape[0] < 1 or image.shape[1] < 1:
        raise ContractViolationError(f"extents must be >= 1, got {image.shape} -> {w}x{h}")
    src_h, src_w = image.shape[:2]
    if (src_h, src_w) == (h, w):
        return image.copy()
    was_uint8 = image.dtype == np.uint8
    img = image.astype(np.float64) if was_uint8 else image
    sy = src_h / h
    sx = src_w / w
    ys = (np.arange(h, dtype=np.float64) + 0.5) * sy - 0.5
    xs = (np.arange(w, dtype=np.float64) + 0.5) * sx - 0.5
    out = bilinear_sample(img, ys[:, None], xs[None, :])
    if was_uint8:
        return np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out.astype(image.dtype)
