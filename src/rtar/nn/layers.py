"""Stateful layers with recorded activations and backward passes.

Each layer owns its parameters (``params``) and matching gradient
accumulators (``grads``). ``forward(x, train=True)`` records whatever the
backward rule needs; ``backward(dy)`` adds into ``grads`` and returns the
input gradient, so mini-batch gradients accumulate across samples until
``zero_grad``. Eval-mode forward records nothing and mutates nothing,
which is what makes shared-model inference safe from multiple threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ContractViolationError
from . import tensorops as T


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

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
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
    """Channel-last convolution, weights (kh, kw, Cin, Cout), no bias."""

    def __init__(self, kh, kw, cin, cout, stride=1, padding=0, *,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        self.stride, self.padding = stride, padding
        fan_in = kh * kw * cin
        if rng is None:
            w = np.zeros((kh, kw, cin, cout))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(kh, kw, cin, cout))
        self.params = {"w": w.astype(dtype)}
        self._init_grads()

    def forward(self, x, train=False):
        y = T.conv2d_gemm(x, self.params["w"], self.stride, self.padding)
        if train:
            self._cache = x
        return y

    def backward(self, dy):
        x = self._take_cache()
        dx, dw = T.conv2d_backward(x, self.params["w"], dy, self.stride, self.padding)
        self.grads["w"] += dw
        return dx


class BatchNorm(Layer):
    """Per-channel batch normalization over the spatial axes of one sample.

    Train mode normalizes with the sample's own spatial statistics and
    folds them into the running estimates (``running = m*running +
    (1-m)*batch``); eval mode applies the running estimates, folded into
    one scale and shift per channel on each call, and is bit-deterministic.
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

    def forward(self, x, train=False):
        if train:
            y, mean, var, x_hat = T.batch_norm_train(
                x, self.params["gamma"], self.params["beta"], self.eps
            )
            m = self.momentum
            self.running_mean = (m * self.running_mean + (1 - m) * mean).astype(x.dtype)
            self.running_var = (m * self.running_var + (1 - m) * var).astype(x.dtype)
            self._cache = (x_hat, var)
            return y
        return T.batch_norm_eval_folded(
            x, self.params["gamma"], self.params["beta"],
            self.running_mean, self.running_var, self.eps,
        )

    def state(self):
        return super().state() + [self.running_mean, self.running_var]

    def backward(self, dy):
        x_hat, var = self._take_cache()
        gamma = self.params["gamma"]
        n = x_hat.shape[0] * x_hat.shape[1]
        self.grads["gamma"] += (dy * x_hat).sum(axis=(0, 1))
        self.grads["beta"] += dy.sum(axis=(0, 1))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        sum_dy = dy.sum(axis=(0, 1))
        sum_dy_xhat = (dy * x_hat).sum(axis=(0, 1))
        dx = (gamma * inv_std / n) * (n * dy - sum_dy - x_hat * sum_dy_xhat)
        return dx.astype(dy.dtype)


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x > 0
        return T.relu(x)

    def backward(self, dy):
        return dy * self._take_cache()


class AvgPool2(Layer):
    """2x2 average pooling with stride 2."""

    def forward(self, x, train=False):
        if train:
            self._cache = x.shape
        return T.avg_pool2x2(x)

    def backward(self, dy):
        h, w, c = self._take_cache()
        dx = np.empty((h, w, c), dtype=dy.dtype)
        spread = dy * np.asarray(0.25, dtype=dy.dtype)
        dx[0::2, 0::2] = spread
        dx[0::2, 1::2] = spread
        dx[1::2, 0::2] = spread
        dx[1::2, 1::2] = spread
        return dx


class GlobalAvgPool(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x.shape
        return T.global_avg_pool(x)

    def backward(self, dy):
        h, w, c = self._take_cache()
        return np.broadcast_to(dy / (h * w), (h, w, c)).astype(dy.dtype)


class Dense(Layer):
    """Fully connected layer on a flat vector: y = x @ w + b."""

    def __init__(self, n, k, *, rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        if rng is None:
            w = np.zeros((n, k))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / n), size=(n, k))
        self.params = {"w": w.astype(dtype), "b": np.zeros(k, dtype=dtype)}
        self._init_grads()

    def forward(self, x, train=False):
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


def forward(layers: Sequence[Layer], x: np.ndarray, train: bool = False) -> np.ndarray:
    """Run x through a layer chain in order; ``train`` records each layer's
    activations for ``backward``."""
    for layer in layers:
        x = layer.forward(x, train)
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
