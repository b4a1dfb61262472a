"""Bilinear resampling with half-pixel centers and border clamping.

Each output element is top = v00 + (v01 - v00)*fx, bot = v10 + (v11 - v10)*fx,
top + (bot - top)*fy over its four corners, in that order and dtype, so both
samplers equal a 2-D fancy-indexed gather (the tests' oracle) byte for byte.
``resize_bilinear`` is separable: it lerps every source row across its column
pairs, then pairs of those rows, each pass a 1-D ``np.take`` (channels ride
the column axis; uint8 widens to float64 after the gather, which is exact).
``bilinear_sample`` gathers each corner by one flat index.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError

# ITU-R BT.601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


def grayscale_bt601(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) real RGB -> (H, W) luma with BT.601 weights."""
    return rgb @ _LUMA.astype(rgb.dtype)


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a + (b - a)*f in f's dtype, written into b, a new array."""
    b = b.astype(f.dtype, copy=False)
    b -= a
    b *= f
    b += a
    return b


def _taps(coords: np.ndarray, n: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped taps (i0, i1, f) on an axis of n; f in dtype, or float64 for ints."""
    coords = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(coords).astype(np.intp)
    f = (coords - i0).astype(dtype if np.dtype(dtype).kind == "f" else np.float64)
    return i0, np.minimum(i0 + 1, n - 1), f


def bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample img at real-valued (ys, xs) positions, clamping to borders.

    img is (H, W) or (H, W, C); ys/xs share a common broadcast shape and
    the result has that shape (plus the channel axis when present).
    """
    h, w = img.shape[:2]
    y0, y1, fy = _taps(ys, h, img.dtype)
    x0, x1, fx = _taps(xs, w, img.dtype)
    if img.ndim == 3:
        fy, fx = fy[..., None], fx[..., None]
    y0 *= w  # row offsets, in place: one corner's flat index at a time
    y1 *= w
    return _mix(img.reshape((h * w,) + img.shape[2:]), y0, y1, fy, x0, x1, fx)


def _mix(flat: np.ndarray, r0: np.ndarray, r1: np.ndarray, fy: np.ndarray,
         x0: np.ndarray, x1: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """The bilinear mix of flat's four corners at flat row offsets r0, r1 and columns x0, x1."""
    top = _lerp(flat[r0 + x0], flat[r0 + x1], fx)
    return _lerp(top, _lerp(flat[r1 + x0], flat[r1 + x1], fx), fy)


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
    y0, y1, fy = _taps((np.arange(h) + 0.5) * (src_h / h) - 0.5, src_h, image.dtype)
    x0, x1, fx = _taps((np.arange(w) + 0.5) * (src_w / w) - 0.5, src_w, image.dtype)
    c = image[0, 0].size  # channels per pixel
    x0, x1 = ((x[:, None] * c + np.arange(c)).ravel() for x in (x0, x1))
    src = image.reshape(src_h, src_w * c)
    cols = _lerp(np.take(src, x0, axis=1), np.take(src, x1, axis=1), np.repeat(fx, c))
    out = _lerp(np.take(cols, y0, axis=0), np.take(cols, y1, axis=0), fy[:, None])
    out = out.reshape((h, w) + image.shape[2:])
    if image.dtype == np.uint8:
        return np.clip(np.rint(out, out=out), 0, 255, out=out).astype(np.uint8)
    return out.astype(image.dtype, copy=False)
