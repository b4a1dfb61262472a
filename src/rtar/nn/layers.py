"""Stateful layers with recorded activations and backward passes.

Each layer owns its parameters (``params``) and matching gradient
accumulators (``grads``). ``forward(x, train=True)`` records whatever the
backward rule needs; ``backward(dy)`` adds into ``grads`` and returns the
input gradient, so mini-batch gradients accumulate across samples until
``zero_grad``. Eval-mode forward records nothing and changes no layer
state. It runs one sequence of operations, given a ``Workspace`` or not:
with one it writes its activations only into that workspace's buffers,
which belong to one thread; without one its output is a new array. So
shared-model inference is safe from multiple threads.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ContractViolationError
from . import tensorops as T


class Workspace:
    """Reused activation buffers for eval-mode forward passes of (C, H, W)
    maps; one per model and thread, so it needs no lock.

    A slot is one flat array that grows to the largest request, so after
    the first pass a forward pass of the same shapes allocates no
    activation. ``take`` lays a kernel's buffers, its scratch and its
    output, end to end in whichever of slots ``a`` and ``b`` its input
    does not occupy, and BN and ReLU run in place on an input that
    already lies there. A dense block's running map lives in a third
    slot, ``block``, into which each dense layer writes its new channels;
    channels lead, so the map's first c channels are one contiguous
    prefix. Every view handed out is overwritten
    by a later layer or pass: nothing that leaves the model may alias one.
    An eval call given no workspace runs the same operations: a layer writes
    a new array, and a whole stream takes one fresh ``Workspace``.
    """

    def __init__(self):
        self._slots: dict[str, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._slots.values())

    def _lay(self, slot: str, dtype, shapes) -> list[np.ndarray]:
        """Views of the given shapes laid end to end from the start of
        ``slot``, which grows to hold them."""
        sizes = [math.prod(shape) for shape in shapes]
        need = sum(sizes)
        buf = self._slots.get(slot)
        if buf is None or buf.size < need or buf.dtype != dtype:
            buf = self._slots[slot] = np.empty(need, dtype=dtype)
        views, at = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(buf[at : at + size].reshape(shape))
            at += size
        return views

    def _slot_of(self, x: np.ndarray) -> str | None:
        """The slot x is a view of (numpy points every view at the array
        that owns the memory), or None."""
        if x.base is not None:
            for slot, buf in self._slots.items():
                if x.base is buf:
                    return slot
        return None

    def take(self, x: np.ndarray, *shapes: tuple) -> list[np.ndarray]:
        """Buffers of x's dtype and the given shapes, laid end to end in
        whichever of slots ``a`` and ``b`` x does not occupy."""
        return self._lay("b" if self._slot_of(x) == "a" else "a", x.dtype, shapes)

    def elementwise_out(self, x: np.ndarray) -> np.ndarray:
        """Where an elementwise layer writes: x itself when x lies in slot
        ``a`` or ``b``, which no later layer reads, else the other slot."""
        return x if self._slot_of(x) in ("a", "b") else self.take(x, x.shape)[0]

    def block(self, x: np.ndarray, width: int) -> np.ndarray:
        """The (width, H, W) dense block map whose first channels are x.
        x already lives there when the block's previous dense layer
        returned it; otherwise, at the block's first layer, it is copied in."""
        buf, = self._lay("block", x.dtype, [(width,) + x.shape[1:]])
        if self._slot_of(x) != "block":
            buf[: x.shape[0]] = x
        return buf


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def zero_grad(self):
        for g in self.grads.values():
            g.fill(0)

    def state(self) -> list[np.ndarray]:
        """Persistent tensors in a fixed order (trainable params, name-sorted);
        a checkpoint saves them and loads into them in place."""
        return [self.params[k] for k in sorted(self.params)]

    def forward(self, x: np.ndarray, train: bool = False,
                ws: Workspace | None = None) -> np.ndarray:
        """``ws``, in eval mode only, holds the output; without one the
        same operations write a new array."""
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise ContractViolationError(
                f"{type(self).__name__}.backward called without a recorded forward pass"
            )
        return self._cache

    def _init_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}


class Conv2D(Layer):
    """"Same" convolution of a (Cin, H, W) map at stride 1, weights (k, k,
    Cin, Cout) with k in {1, 3}, no bias."""

    def __init__(self, k, cin, cout, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        # fixed by the kernels; kept as attributes for perfbench's flop count
        self.stride, self.padding = 1, k // 2
        fan_in = k * k * cin
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(k, k, cin, cout))
        self.params = {"w": w.astype(dtype)}
        self._init_grads()

    def forward(self, x, train=False, ws=None, *, bn=None, relu=False, out=None):
        """Eval mode can fuse its neighbours: ``bn``, the BatchNorm that
        follows, is folded in on every call (its scale into the weights'
        output channels, its shift added to the result); ``relu``
        convolves max(x, 0), written as x is padded (3x3 only); ``out`` is
        where the (Cout, H, W) result goes, in place of ``ws`` or a new
        array."""
        if train and (bn is not None or relu or out is not None):
            raise ContractViolationError("Conv2D fuses its neighbours in eval mode only")
        w = self.params["w"]
        if bn is not None:
            scale, shift = bn.folded()
            w = w * scale
        y = T.conv2d_gemm(x, w, ws, relu, out)
        if bn is not None:
            y += shift[:, None, None]
        if train:
            self._cache = x
        return y

    def backward(self, dy):
        x = self._take_cache()
        dx, dw = T.conv2d_backward(x, self.params["w"], dy)
        self.grads["w"] += dw
        return dx


class BatchNorm(Layer):
    """Per-channel batch normalization over the spatial axes of one (C, H,
    W) sample.

    Train mode normalizes with the sample's own spatial statistics and
    folds them into the running estimates (``running = m*running +
    (1-m)*batch``). Eval mode applies the scale and shift that ``folded()``
    derives from the running estimates on each call, caching nothing: one
    multiply, into the workspace or a new array, then one add in place. It
    is bit-deterministic and float-close to gamma * (x - mean) / sqrt(var
    + eps) + beta, whose terms round in another order.
    """

    momentum = 0.9
    eps = 1e-5

    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self._init_grads()

    def forward(self, x, train=False, ws=None):
        if train:
            y, mean, var, x_hat = T.batch_norm_train(
                x, self.params["gamma"], self.params["beta"], self.eps
            )
            m = self.momentum
            self.running_mean = (m * self.running_mean + (1 - m) * mean).astype(x.dtype)
            self.running_var = (m * self.running_var + (1 - m) * var).astype(x.dtype)
            self._cache = (x_hat, var)
            return y
        scale, shift = self.folded()
        y = np.multiply(x, scale[:, None, None], out=None if ws is None else ws.elementwise_out(x))
        y += shift[:, None, None]
        return y

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode's per-channel (scale, shift), as (C,) vectors."""
        return T.batch_norm_fold(self.params["gamma"], self.params["beta"], self.running_mean,
                                 self.running_var, self.eps)

    def state(self):
        return super().state() + [self.running_mean, self.running_var]

    def backward(self, dy):
        x_hat, var = self._take_cache()
        gamma = self.params["gamma"]
        n = x_hat.shape[1] * x_hat.shape[2]
        sum_dy = dy.sum(axis=(1, 2), keepdims=True)
        sum_dy_xhat = (dy * x_hat).sum(axis=(1, 2), keepdims=True)
        self.grads["gamma"] += sum_dy_xhat.ravel()
        self.grads["beta"] += sum_dy.ravel()
        inv_std = 1.0 / np.sqrt(var + self.eps)
        dx = (gamma * inv_std / n)[:, None, None] * (n * dy - sum_dy - x_hat * sum_dy_xhat)
        return dx.astype(dy.dtype)


class ReLU(Layer):
    def forward(self, x, train=False, ws=None):
        if train:
            self._cache = x > 0
        return T.relu(x, None if ws is None else ws.elementwise_out(x))

    def backward(self, dy):
        return dy * self._take_cache()


class AvgPool2(Layer):
    """2x2 average pooling of a (C, H, W) map with stride 2."""

    def forward(self, x, train=False, ws=None):
        if train:
            self._cache = x.shape
        return T.avg_pool2x2(x, ws)

    def backward(self, dy):
        dx = np.empty(self._take_cache(), dtype=dy.dtype)
        spread = dy * np.asarray(0.25, dtype=dy.dtype)
        dx[:, 0::2, 0::2] = spread
        dx[:, 0::2, 1::2] = spread
        dx[:, 1::2, 0::2] = spread
        dx[:, 1::2, 1::2] = spread
        return dx


class GlobalAvgPool(Layer):
    """Pools a stream's channel-last (H, W, C) output. Its (C,) output is
    always a new array, as is Dense's: both leave the streams, so they
    never use a workspace."""

    def forward(self, x, train=False, ws=None):
        if train:
            self._cache = x.shape
        return T.global_avg_pool(x)

    def backward(self, dy):
        h, w, c = self._take_cache()
        return np.broadcast_to(dy / (h * w), (h, w, c)).astype(dy.dtype)


class Dense(Layer):
    """Fully connected layer on a flat vector: y = x @ w + b."""

    def __init__(self, n, k, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        w = rng.normal(0.0, np.sqrt(2.0 / n), size=(n, k))
        self.params = {"w": w.astype(dtype), "b": np.zeros(k, dtype=dtype)}
        self._init_grads()

    def forward(self, x, train=False, ws=None):
        if train:
            self._cache = x
        return T.fully_connected(x, self.params["w"], self.params["b"])

    def backward(self, dy):
        x = self._take_cache()
        self.grads["w"] += np.outer(x, dy)
        self.grads["b"] += dy
        return self.params["w"] @ dy


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Returns (loss, probabilities, dloss/dlogits) for one sample.

    Loss uses the log-sum-exp form so a vanishing true-class probability
    cannot produce an infinite float32 loss; the gradient is the classic
    p - onehot.
    """
    if not 0 <= label < logits.shape[0]:
        raise ContractViolationError(f"label {label} out of range for {logits.shape[0]} classes")
    probs = T.softmax(logits)
    shifted = logits - logits.max()
    loss = float(np.log(np.exp(shifted).sum()) - shifted[label])
    dlogits = probs.copy()
    dlogits[label] -= 1
    return loss, probs, dlogits


def forward(layers: Sequence[Layer], x: np.ndarray, train: bool = False,
            ws: Workspace | None = None) -> np.ndarray:
    """Run x through a layer chain in order; ``train`` records each layer's
    activations for ``backward``, and in eval mode ``ws`` holds them."""
    for layer in layers:
        x = layer.forward(x, train, ws)
    return x


def backward(layers: Sequence[Layer], dy: np.ndarray) -> np.ndarray:
    """Backpropagate dy through a forward-ordered layer chain.

    Every layer must have run ``forward(..., train=True)`` first, in the
    same order. Parameter gradients accumulate into each layer's
    ``grads``; returns the input gradient.
    """
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return dy


class SGDMomentum:
    """SGD with classical momentum: v = mu*v - lr*g; w += v."""

    def __init__(self, layers: Sequence[Layer], lr: float, momentum: float = 0.9):
        self.layers = list(layers)
        self.lr, self.momentum = lr, momentum
        self._velocity: dict[tuple[int, str], np.ndarray] = {}

    def step(self, scale: float = 1.0):
        """Apply one update; ``scale`` multiplies the accumulated gradients
        (pass 1/batch_size to average a batch)."""
        for i, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                g = layer.grads[name] * np.asarray(scale, dtype=param.dtype)
                v = self._velocity.get((i, name))
                if v is None:
                    v = np.zeros_like(param)
                    self._velocity[(i, name)] = v
                v *= np.asarray(self.momentum, dtype=param.dtype)
                v -= np.asarray(self.lr, dtype=param.dtype) * g
                param += v

    def zero_grad(self):
        for layer in self.layers:
            layer.zero_grad()
