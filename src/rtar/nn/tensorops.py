"""Functional forward passes for the fixed layer set.

All functions are pure and dtype-preserving (float32 for normal use,
float64 for gradient-check runs).

``conv2d_gemm`` lowers the convolution to one BLAS matrix product per
kernel tap (Chellapilla et al., 2006). The input is zero-padded once
into one flat (Hp*Wp + kw-1, Cin) buffer and the stride-1 output is
computed at the full padded width Wp, so tap (ky, kx) reads the
contiguous rows starting at ky*Wp + kx: every product reads a view, no
patch or im2col matrix is copied, and the kw-1 columns that wrap into
the next row are dropped on return. An unpadded 1x1 conv reads x itself.
``conv2d_backward`` runs the same tap views. BLAS reorders the
floating-point sums, so the output is float32-close to, not
bit-identical with, a naive loop.

Eval-mode batch norm, ``batch_norm_eval_folded``, is one per-channel
scale and shift, float-close to the term-by-term formula.

The naive references these kernels are tested against live in the tests.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError


def _conv_output_extents(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple[int, int]:
    """Check the conv argument contract; returns the output extents (Ho, Wo)."""
    if x.ndim != 3 or w.ndim != 4:
        raise ContractViolationError(
            f"conv2d expects (H,W,Cin) and (kh,kw,Cin,Cout), got {x.shape} and {w.shape}"
        )
    kh, kw, cin, _ = w.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ContractViolationError(f"kernel extents must be 1 or 3, got {kh}x{kw}")
    if stride < 1:
        raise ContractViolationError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ContractViolationError(f"padding must be >= 0, got {padding}")
    if x.shape[2] != cin:
        raise ContractViolationError(
            f"input has {x.shape[2]} channels but weights expect {cin}"
        )
    h, w_in = x.shape[:2]
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w_in + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ContractViolationError(
            f"non-positive output extents {ho}x{wo} for input {h}x{w_in}"
        )
    return ho, wo


def _flat_padded(x: np.ndarray, kh: int, kw: int, padding: int) -> tuple[np.ndarray, int, int]:
    """conv2d_gemm's input layout; returns (xp, Wp, n).

    xp is x zero-padded on both spatial axes and flattened to
    (Hp*Wp + kw-1, Cin) rows, with Wp = W + 2p. The stride-1 output at the
    full padded width has n = (Hp-kh+1)*Wp rows, and tap (ky, kx) reads
    the contiguous rows xp[ky*Wp+kx : ky*Wp+kx+n]. The kw-1 trailing zero
    rows let the last tap read past the padded image. An unpadded 1x1
    conv needs neither, so xp is then x itself as a view.
    """
    h, w_in, cin = x.shape
    hp, wp = h + 2 * padding, w_in + 2 * padding
    n = (hp - kh + 1) * wp
    if not padding and kw == 1:
        return x.reshape(h * w_in, cin), wp, n
    xp = np.zeros((hp * wp + kw - 1, cin), dtype=x.dtype)
    xp[: hp * wp].reshape(hp, wp, cin)[padding : padding + h, padding : padding + w_in] = x
    return xp, wp, n


def _output_grid(full: np.ndarray, ho: int, wo: int, stride: int) -> np.ndarray:
    """The (Ho, Wo) strided output positions within a stride-1, padded-width
    output (rows, Wp, C); the wrapped columns past the last valid one drop out."""
    return full[: (ho - 1) * stride + 1 : stride, : (wo - 1) * stride + 1 : stride]


def conv2d_gemm(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution (cross-correlation), channel-last, no bias.

    x: (H, W, Cin); w: (kh, kw, Cin, Cout) with kh, kw in {1, 3}.
    Output (Ho, Wo, Cout) with Ho = (H + 2p - kh) // stride + 1.

    x is zero-padded once into one flat buffer and the stride-1 output is
    computed at the full padded width (see ``_flat_padded``), so each tap's
    product reads a contiguous view of that buffer and the taps accumulate
    into one (n, Cout) buffer; the wrapped columns are dropped on return.
    An unpadded 1x1 conv reads x itself, so nothing is copied. A stride
    above 1 subsamples the stride-1 result.
    """
    ho, wo = _conv_output_extents(x, w, stride, padding)
    kh, kw, _, cout = w.shape
    xp, wp, n = _flat_padded(x, kh, kw, padding)
    out = xp[:n] @ w[0, 0]
    for ky in range(kh):
        for kx in range(kw):
            if ky or kx:
                o = ky * wp + kx
                out += xp[o : o + n] @ w[ky, kx]
    return _output_grid(out.reshape(-1, wp, cout), ho, wo, stride)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_gemm: returns (dx, dw) for upstream dy (Ho, Wo, Cout).

    Uses conv2d_gemm's layout. dy is zero-filled into the stride-1,
    padded-width output rows, so the wrapped columns add nothing; then
    dw[ky, kx] = xp[o:o+n].T @ dyf, dxp[o:o+n] += dyf @ w[ky, kx].T, and dx
    is the interior of dxp.
    """
    ho, wo = _conv_output_extents(x, w, stride, padding)
    kh, kw, cin, cout = w.shape
    if dy.shape != (ho, wo, cout) or dy.dtype != x.dtype:
        raise ContractViolationError(
            f"conv2d_backward expects dy of shape {(ho, wo, cout)} and dtype {x.dtype}, "
            f"got {dy.shape} {dy.dtype}"
        )
    xp, wp, n = _flat_padded(x, kh, kw, padding)
    dyf = np.zeros((n, cout), dtype=dy.dtype)
    _output_grid(dyf.reshape(-1, wp, cout), ho, wo, stride)[...] = dy
    dxp = np.empty_like(xp)
    np.matmul(dyf, w[0, 0].T, out=dxp[:n])
    dxp[n:] = 0
    dw = np.empty_like(w)
    for ky in range(kh):
        for kx in range(kw):
            o = ky * wp + kx
            np.matmul(xp[o : o + n].T, dyf, out=dw[ky, kx])
            if ky or kx:
                dxp[o : o + n] += dyf @ w[ky, kx].T
    h, w_in = x.shape[:2]
    dx = dxp[: (h + 2 * padding) * wp].reshape(-1, wp, cin)
    return dx[padding : padding + h, padding : padding + w_in], dw


def batch_norm_train(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel normalization over the spatial axes of one sample.

    Returns (y, mean, var, x_hat); mean/var feed the running statistics,
    x_hat is cached for the backward pass. Variance is the population
    variance, guarded by eps, so constant channels normalize to zero.
    """
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    mean = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    x_hat = (x - mean) / np.sqrt(var + eps)
    return gamma * x_hat + beta, mean, var, x_hat


def batch_norm_eval_folded(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Eval-mode batch norm as one per-channel affine map (Ioffe & Szegedy, 2015).

    scale = gamma / sqrt(var + eps) and shift = beta - mean * scale are
    length-C vectors, folded on every call, so nothing is cached and a
    shared model stays safe to evaluate from several threads. The tensor
    takes one multiply into a new buffer and one add in place. The terms
    round in another order, so the result is float-close to, not
    bit-identical with, gamma * (x - mean) / sqrt(var + eps) + beta.
    """
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    scale = gamma / np.sqrt(running_var + eps)
    y = x * scale
    y += beta - running_mean * scale
    return y


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.asarray(0, dtype=x.dtype))


def avg_pool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling, stride 2. Requires even spatial extents."""
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ContractViolationError(f"avg_pool2x2 needs even extents, got {h}x{w}")
    pooled = x.reshape(h // 2, 2, w // 2, 2, c)
    quarter = np.asarray(0.25, dtype=x.dtype)
    return (pooled[:, 0, :, 0] + pooled[:, 0, :, 1] + pooled[:, 1, :, 0] + pooled[:, 1, :, 1]) * quarter


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over H and W; (H, W, C) -> (C,)."""
    return x.mean(axis=(0, 1), dtype=x.dtype)


def fully_connected(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (N,) @ w (N, K) + bias (K,)."""
    if x.ndim != 1 or w.ndim != 2 or x.shape[0] != w.shape[0]:
        raise ContractViolationError(
            f"fully_connected shapes do not agree: x {x.shape}, w {w.shape}"
        )
    if bias.shape != (w.shape[1],):
        raise ContractViolationError(
            f"bias shape {bias.shape} does not match {w.shape[1]} outputs"
        )
    return x @ w + bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over a length-K vector (max subtraction)."""
    if logits.ndim != 1 or logits.shape[0] < 1:
        raise ContractViolationError(f"softmax expects a non-empty vector, got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ContractViolationError("softmax received non-finite logits")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()
