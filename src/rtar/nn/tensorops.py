"""Functional forward passes for the fixed layer set.

All functions are pure and dtype-preserving (float32 for normal use,
float64 for gradient-check runs).

Convolution has two forward implementations sharing one argument check.
``conv2d_gemm`` is the one the layers run: it lowers the convolution to
one BLAS matrix product per kernel tap (Chellapilla et al., 2006),
accumulated into a single (Ho*Wo, Cout) buffer, so no full im2col matrix
is ever materialised. BLAS reorders the floating-point sums, so its
output is float32-close to, not bit-identical with, a naive loop.
``conv2d`` is the reference oracle: it accumulates the receptive field
strictly in (ky, kx, cin) order, one fused multiply-add per term, so its
output is bit-identical to a naive six-nested-loop evaluation with the
same inner order. Tests hold ``conv2d_gemm`` to ``conv2d``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError


def _conv_output_extents(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple[int, int]:
    """Check conv2d's argument contract; returns the output extents (Ho, Wo)."""
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


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution (cross-correlation), channel-last, no bias.

    x: (H, W, Cin); w: (kh, kw, Cin, Cout) with kh, kw in {1, 3}.
    Output (Ho, Wo, Cout) with Ho = (H + 2p - kh) // stride + 1.
    """
    ho, wo = _conv_output_extents(x, w, stride, padding)
    kh, kw, cin, cout = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0))) if padding else x
    out = np.zeros((ho, wo, cout), dtype=x.dtype)
    tmp = np.empty_like(out)
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[ky : ky + (ho - 1) * stride + 1 : stride,
                       kx : kx + (wo - 1) * stride + 1 : stride, :]
            for ci in range(cin):
                np.multiply(patch[:, :, ci : ci + 1], w[ky, kx, ci], out=tmp)
                np.add(out, tmp, out=out)
    return out


def conv2d_gemm(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """conv2d as one BLAS product per kernel tap; same contract, float-close output.

    Each tap (ky, kx) adds patch (Ho*Wo, Cin) @ w[ky, kx] (Cin, Cout) into
    one accumulator. An unpadded 1x1 stride-1 patch is x itself, so the
    reshape is a view and nothing is copied.
    """
    ho, wo = _conv_output_extents(x, w, stride, padding)
    kh, kw, cin, cout = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0))) if padding else x
    out = np.zeros((ho * wo, cout), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[ky : ky + (ho - 1) * stride + 1 : stride,
                       kx : kx + (wo - 1) * stride + 1 : stride, :]
            out += patch.reshape(-1, cin) @ w[ky, kx]
    return out.reshape(ho, wo, cout)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d: returns (dx, dw) for upstream dy (Ho, Wo, Cout)."""
    kh, kw, cin, cout = w.shape
    ho, wo = dy.shape[:2]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0))) if padding else x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ky in range(kh):
        for kx in range(kw):
            sl_y = slice(ky, ky + (ho - 1) * stride + 1, stride)
            sl_x = slice(kx, kx + (wo - 1) * stride + 1, stride)
            patch = xp[sl_y, sl_x, :]
            dw[ky, kx] = np.tensordot(patch, dy, axes=([0, 1], [0, 1]))
            dxp[sl_y, sl_x, :] += dy @ w[ky, kx].T
    if padding:
        h, w_in = x.shape[:2]
        return dxp[padding : padding + h, padding : padding + w_in, :], dw
    return dxp, dw


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


def batch_norm_eval(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> np.ndarray:
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    return gamma * (x - running_mean) / np.sqrt(running_var + eps) + beta


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
