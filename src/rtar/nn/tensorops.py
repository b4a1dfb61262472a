"""Functional forward passes for the fixed layer set.

Feature maps are channel-major, (C, H, W), so one channel's map is one
contiguous run. All functions are dtype-preserving (float32 for normal
use, float64 for gradient-check runs) and write nothing but their
result. The eval-mode kernels ``conv2d_gemm`` and ``avg_pool2x2`` take
their memory, scratch and result, from a ``layers.Workspace`` in one
request, or use new arrays without one; a conv can instead write its
result into the caller's ``out``. Each runs the same operations in the
same order either way, so where the result lives changes no bit.

``conv2d_gemm`` is the one conv the model runs: "same", stride 1, with a
square 1x1 or 3x3 kernel padded by k//2. A 1x1 conv is one BLAS product,
(Cout, Cin) @ (Cin, H*W). A 3x3 conv zero-pads x once into one flat (Cin,
Hp*Wp + k-1) buffer and takes one of two forms (Vasudevan, Anderson &
Gregg, 2017), picked from the shapes alone. Where Cin > Cout (a dense
layer's 3x3) it runs kn2row: one product with the (k*k*Cout, Cin)
tap-stacked weights gives every tap's contribution at every padded
position, and the output, at the full padded width Wp, adds each tap's
rows shifted by ky*Wp + kx, taps in order. Where Cin <= Cout (a stream's
first conv) it runs im2col: the k*k tap-shifted windows of the padded
input are stacked as one (k*k*Cin, H*W) matrix, and one (Cout, k*k*Cin)
product over it writes the output. Either form expands one matrix k*k
times, by its smaller channel count; a map whose expanded matrix would
exceed ``_BAND_FLOATS`` values runs in bands of output rows, one product
each. ``conv2d_backward`` runs two products on one stack of the upstream
gradient shifted by every tap. BLAS reorders the floating-point sums,
so the output is float32-close to, not bit-identical with, a naive
loop.

Eval-mode batch norm has no kernel here: ``layers.BatchNorm`` applies
the per-channel scale and shift of ``batch_norm_fold``, and
``layers.Conv2D`` can fold them into its weights instead.

The naive references these kernels are tested against live in the tests.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError

# Most values one band's expanded matrix holds (1 MB at float32): the
# kn2row product or the im2col stack.
_BAND_FLOATS = 1 << 18


def _check_conv_args(x: np.ndarray, w: np.ndarray) -> None:
    """Check the conv argument contract: (Cin, H, W) input, non-empty, and a
    (k, k, Cin, Cout) kernel with k in {1, 3}."""
    if x.ndim != 3 or w.ndim != 4:
        raise ContractViolationError(
            f"conv2d expects (Cin,H,W) and (k,k,Cin,Cout), got {x.shape} and {w.shape}"
        )
    kh, kw, cin, _ = w.shape
    if kh != kw or kh not in (1, 3):
        raise ContractViolationError(f"kernel must be 1x1 or 3x3, got {kh}x{kw}")
    if x.shape[0] != cin:
        raise ContractViolationError(
            f"input has {x.shape[0]} channels but weights expect {cin}"
        )
    if x.size == 0:
        raise ContractViolationError(f"empty input {x.shape}")


def _flat_padded(x: np.ndarray, k: int, xp: np.ndarray | None = None,
                 relu: bool = False) -> tuple[np.ndarray, int, int]:
    """conv2d_gemm's input layout; returns (xp, Wp, n).

    xp is x zero-padded by p = k//2 on both spatial axes and flattened to
    (Cin, Hp*Wp + k-1), with Wp = W + 2p; it is written into the given
    ``xp`` buffer of that shape, whose border and tail alone are zeroed
    (the interior is overwritten whole), or into a new one zeroed alike.
    ``relu`` writes max(x, 0) in place of x. The output at the full
    padded width has n = H*Wp columns, and tap (ky, kx) pairs output
    column q with input column q + ky*Wp + kx. The k-1 trailing zero
    columns let the last tap read past the padded image. A 1x1 conv
    needs neither, so xp is then x itself, reshaped to (Cin, H*W).
    """
    cin, h, w_in = x.shape
    p = k // 2
    hp, wp = h + 2 * p, w_in + 2 * p
    n = h * wp
    if k == 1:
        return x.reshape(cin, n), wp, n
    if xp is None:
        xp = np.empty((cin, hp * wp + k - 1), dtype=x.dtype)
    xp[:, : p * wp + p] = 0  # the top rows, then the first row's left pad
    xp[:, (p + h) * wp - p :] = 0  # the last row's right pad, the bottom rows, the tail
    # each row's right pad and the next row's left pad are one flat run of 2p
    s = p * wp + p + w_in
    xp[:, s : s + (h - 1) * wp].reshape(cin, h - 1, wp)[:, :, : 2 * p] = 0
    inner = xp[:, : hp * wp].reshape(cin, hp, wp)[:, p : p + h, p : p + w_in]
    if relu:
        np.maximum(x, np.asarray(0, dtype=x.dtype), out=inner)
    else:
        inner[...] = x
    return xp, wp, n


def _bands(h: int, w_in: int, k: int, c: int) -> tuple[int, int, int]:
    """(Wp, halo, rows): the padded width, the taps' reach past a band, and
    the output rows per band, for a form that expands c channels k*k
    times. The H rows split evenly into the fewest bands whose expanded
    matrix, k*k*c rows of rows*Wp + halo, holds at most ``_BAND_FLOATS``
    values."""
    wp = w_in + k - 1
    halo = (k - 1) * wp + k - 1
    most = max(1, (_BAND_FLOATS // (k * k * c) - halo) // wp)
    bands = -(-h // most)
    return wp, halo, -(-h // bands)


def conv2d_gemm(x: np.ndarray, w: np.ndarray, ws=None, relu: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
    """"Same" 2-D convolution (cross-correlation), stride 1, channel-major, no bias.

    x: (Cin, H, W); w: (k, k, Cin, Cout) with k in {1, 3}, padded by k//2.
    Output (Cout, H, W). ``relu`` (3x3 only) convolves max(x, 0), written
    as x is padded.

    A 1x1 conv is one product, w[0, 0].T @ x. A 3x3 conv pads x once (see
    ``_flat_padded``) and runs one product per band of output rows. Where
    Cin > Cout (kn2row) the product goes into a contiguous (k*k*Cout, B)
    block, in which tap t's rows start t*Cout*B values in. Shifted by its
    ky*Wp + kx, tap t's run of the flat block lines up with tap 0's across
    all Cout rows, so each tap is one contiguous add, in tap order, into
    tap 0's rows; the band's output rows are copied out without the
    wrapped columns. Where Cin <= Cout (im2col) the band's k*k
    tap-shifted windows of the padded input are copied into one (k*k*Cin,
    rows*W) stack, tap-major, and one product with the (Cout, k*k*Cin)
    weights writes the band's output rows. A 3x3's scratch is the flat
    padded input and one band's work area, room for the expanded matrix
    (see ``_bands``). It and the output, unless the caller gives ``out``
    (C-contiguous, (Cout, H, W), x's dtype), come from one ``take`` of the
    ``layers.Workspace`` ``ws``, or are new arrays without one. Where they
    live changes no bit of the result.
    """
    _check_conv_args(x, w)
    k, _, cin, cout = w.shape
    h, w_in = x.shape[1:]
    if out is not None and (out.shape != (cout, h, w_in) or out.dtype != x.dtype
                            or not out.flags.c_contiguous):
        raise ContractViolationError(
            f"conv2d_gemm out must be a C-contiguous {x.dtype} array of shape {(cout, h, w_in)}, "
            f"got {out.shape} {out.dtype}"
        )
    if k == 1 and relu:
        raise ContractViolationError("relu is applied in a 3x3 conv's pad step; a 1x1 has none")
    shapes = []
    if k == 3:
        wp, halo, rows = _bands(h, w_in, k, min(cin, cout))
        shapes = [(cin, (h + k - 1) * wp + k - 1), (k * k * min(cin, cout) * (rows * wp + halo),)]
    if out is None:
        shapes.append((cout, h, w_in))
    buffers = [np.empty(s, dtype=x.dtype) for s in shapes] if ws is None else ws.take(x, *shapes)
    if out is None:
        out = buffers.pop()
    if k == 1:
        np.matmul(w[0, 0].T, x.reshape(cin, h * w_in), out=out.reshape(cout, -1))
        return out
    pad, work = buffers
    xp = _flat_padded(x, k, pad, relu)[0]
    if cin <= cout:
        grid = xp[:, : (h + k - 1) * wp].reshape(cin, -1, wp)
        wk = w.reshape(k * k * cin, cout).T
    else:
        # the (ky, kx, Cout) rows of one product, built on each call so a
        # shared model holds no derived state
        wk = w.transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        if cin <= cout:
            n = (r1 - r0) * w_in
            stack = work[: k * k * cin * n].reshape(k, k, cin, r1 - r0, w_in)
            for ky in range(k):
                for kx in range(k):
                    stack[ky, kx] = grid[:, r0 + ky : r1 + ky, kx : kx + w_in]
            np.matmul(wk, stack.reshape(-1, n), out=out.reshape(cout, -1)[:, r0 * w_in : r1 * w_in])
        else:
            n = (r1 - r0) * wp
            b = n + halo
            y = np.matmul(wk, xp[:, r0 * wp : r0 * wp + b],
                          out=work[: k * k * cout * b].reshape(-1, b))
            acc = work[: (cout - 1) * b + n]
            for t in range(1, k * k):
                o = t * cout * b + t // k * wp + t % k
                acc += work[o : o + acc.size]
            out[:, r0:r1] = y[:cout, :n].reshape(cout, r1 - r0, wp)[:, :, :w_in]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_gemm: returns (dx, dw) for upstream dy (Cout, H, W).

    Uses conv2d_gemm's layout. dy, zero at the wrapped columns, is copied
    at each tap's shift into one (k*k*Cout, Hp*Wp + k-1) stack D; then
    dw = xp @ D.T and dxp = W @ D, with W the (Cin, k*k*Cout) tap-stacked
    weights, and dx is the interior of dxp.
    """
    _check_conv_args(x, w)
    k, _, cin, cout = w.shape
    _, h, w_in = x.shape
    if dy.shape != (cout, h, w_in) or dy.dtype != x.dtype:
        raise ContractViolationError(
            f"conv2d_backward expects dy of shape {(cout, h, w_in)} and dtype {x.dtype}, "
            f"got {dy.shape} {dy.dtype}"
        )
    xp, wp, n = _flat_padded(x, k)
    dyf = np.zeros((cout, h, wp), dtype=dy.dtype)
    dyf[:, :, :w_in] = dy
    d = np.zeros((k * k, cout, xp.shape[1]), dtype=dy.dtype)
    for t in range(k * k):
        o = t // k * wp + t % k
        d[t, :, o : o + n] = dyf.reshape(cout, n)
    d = d.reshape(k * k * cout, -1)
    dw = (xp @ d.T).reshape(cin, k, k, cout).transpose(1, 2, 0, 3)
    dxp = w.transpose(2, 0, 1, 3).reshape(cin, k * k * cout) @ d
    p = k // 2
    dx = dxp[:, : (h + 2 * p) * wp].reshape(cin, -1, wp)
    return dx[:, p : p + h, p : p + w_in], dw


def batch_norm_train(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel normalization over the spatial axes of one (C, H, W) sample.

    Returns (y, mean, var, x_hat); mean/var feed the running statistics,
    x_hat is cached for the backward pass. Variance is the population
    variance, guarded by eps, so constant channels normalize to zero.
    """
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    mean = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    x_hat = (x - mean) / np.sqrt(var + eps)
    return gamma[:, None, None] * x_hat + beta[:, None, None], mean.ravel(), var.ravel(), x_hat


def batch_norm_fold(
    gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch norm's per-channel (scale, shift): scale = gamma /
    sqrt(var + eps) and shift = beta - mean * scale, in the arguments'
    common shape."""
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    scale = gamma / np.sqrt(running_var + eps)
    return scale, beta - running_mean * scale


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, np.asarray(0, dtype=x.dtype), out=out)


def avg_pool2x2(x: np.ndarray, ws=None) -> np.ndarray:
    """2x2 average pooling of a (C, H, W) map, stride 2. Requires even
    spatial extents. The four taps are summed left to right into a buffer
    ``ws.take`` gives, or a new array, then scaled by 0.25."""
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolationError(f"avg_pool2x2 needs even extents, got {h}x{w}")
    pooled = x.reshape(c, h // 2, 2, w // 2, 2)
    out = None if ws is None else ws.take(x, (c, h // 2, w // 2))[0]
    y = np.add(pooled[:, :, 0, :, 0], pooled[:, :, 0, :, 1], out=out)
    y += pooled[:, :, 1, :, 0]
    y += pooled[:, :, 1, :, 1]
    y *= np.asarray(0.25, dtype=x.dtype)
    return y


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over H and W; (H, W, C) -> (C,). It reads a stream's output,
    which is channel-last (see ``network.StreamNet.forward``)."""
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
