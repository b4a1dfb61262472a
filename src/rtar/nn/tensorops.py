"""Functional forward passes for the fixed layer set.

All functions are pure and dtype-preserving (float32 for normal use,
float64 for gradient-check runs).

``conv2d_gemm`` is the one conv the model runs: "same", stride 1, with a
square 1x1 or 3x3 kernel padded by k//2. It lowers the convolution to one
BLAS matrix product per kernel tap (Chellapilla et al., 2006). The input
is zero-padded once into one flat (Hp*Wp + k-1, Cin) buffer and the
output is computed at the full padded width Wp, so tap (ky, kx) reads the
contiguous rows starting at ky*Wp + kx: every product reads a view, no
patch or im2col matrix is copied, and the k-1 columns that wrap into the
next row are dropped on return. A 1x1 conv reads x itself.
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


def _check_conv_args(x: np.ndarray, w: np.ndarray) -> None:
    """Check the conv argument contract: (H, W, Cin) input, non-empty, and a
    (k, k, Cin, Cout) kernel with k in {1, 3}."""
    if x.ndim != 3 or w.ndim != 4:
        raise ContractViolationError(
            f"conv2d expects (H,W,Cin) and (k,k,Cin,Cout), got {x.shape} and {w.shape}"
        )
    kh, kw, cin, _ = w.shape
    if kh != kw or kh not in (1, 3):
        raise ContractViolationError(f"kernel must be 1x1 or 3x3, got {kh}x{kw}")
    if x.shape[2] != cin:
        raise ContractViolationError(
            f"input has {x.shape[2]} channels but weights expect {cin}"
        )
    if x.size == 0:
        raise ContractViolationError(f"empty input {x.shape}")


def _flat_padded(x: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """conv2d_gemm's input layout; returns (xp, Wp, n).

    xp is x zero-padded by p = k//2 on both spatial axes and flattened to
    (Hp*Wp + k-1, Cin) rows, with Wp = W + 2p. The output at the full
    padded width has n = H*Wp rows, and tap (ky, kx) reads the contiguous
    rows xp[ky*Wp+kx : ky*Wp+kx+n]. The k-1 trailing zero rows let the
    last tap read past the padded image. A 1x1 conv needs neither, so xp
    is then x itself as a view.
    """
    h, w_in, cin = x.shape
    p = k // 2
    hp, wp = h + 2 * p, w_in + 2 * p
    n = h * wp
    if k == 1:
        return x.reshape(n, cin), wp, n
    xp = np.zeros((hp * wp + k - 1, cin), dtype=x.dtype)
    xp[: hp * wp].reshape(hp, wp, cin)[p : p + h, p : p + w_in] = x
    return xp, wp, n


def conv2d_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """"Same" 2-D convolution (cross-correlation), stride 1, channel-last, no bias.

    x: (H, W, Cin); w: (k, k, Cin, Cout) with k in {1, 3}, padded by k//2.
    Output (H, W, Cout).

    x is zero-padded once into one flat buffer and the output is computed
    at the full padded width (see ``_flat_padded``), so each tap's product
    reads a contiguous view of that buffer and the taps accumulate into
    one (n, Cout) buffer; the wrapped columns are dropped on return. A 1x1
    conv reads x itself, so nothing is copied.
    """
    _check_conv_args(x, w)
    k, _, _, cout = w.shape
    xp, wp, n = _flat_padded(x, k)
    out = xp[:n] @ w[0, 0]
    for ky in range(k):
        for kx in range(k):
            if ky or kx:
                o = ky * wp + kx
                out += xp[o : o + n] @ w[ky, kx]
    return out.reshape(-1, wp, cout)[:, : x.shape[1]]


def conv2d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_gemm: returns (dx, dw) for upstream dy (H, W, Cout).

    Uses conv2d_gemm's layout. dy is zero-filled into the padded-width
    output rows, so the wrapped columns add nothing; then
    dw[ky, kx] = xp[o:o+n].T @ dyf, dxp[o:o+n] += dyf @ w[ky, kx].T, and dx
    is the interior of dxp.
    """
    _check_conv_args(x, w)
    k, _, cin, cout = w.shape
    h, w_in = x.shape[:2]
    if dy.shape != (h, w_in, cout) or dy.dtype != x.dtype:
        raise ContractViolationError(
            f"conv2d_backward expects dy of shape {(h, w_in, cout)} and dtype {x.dtype}, "
            f"got {dy.shape} {dy.dtype}"
        )
    xp, wp, n = _flat_padded(x, k)
    dyf = np.zeros((n, cout), dtype=dy.dtype)
    dyf.reshape(-1, wp, cout)[:, :w_in] = dy
    dxp = np.empty_like(xp)
    np.matmul(dyf, w[0, 0].T, out=dxp[:n])
    dxp[n:] = 0
    dw = np.empty_like(w)
    for ky in range(k):
        for kx in range(k):
            o = ky * wp + kx
            np.matmul(xp[o : o + n].T, dyf, out=dw[ky, kx])
            if ky or kx:
                dxp[o : o + n] += dyf @ w[ky, kx].T
    p = k // 2
    dx = dxp[: (h + 2 * p) * wp].reshape(-1, wp, cin)
    return dx[p : p + h, p : p + w_in], dw


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
