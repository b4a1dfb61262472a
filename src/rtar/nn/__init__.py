"""Minimal dense-tensor math for the classifier's fixed layer set.

Tensors are plain numpy arrays, row-major and channel-last: an image
feature map has shape (H, W, C). The functional forms live in
:mod:`rtar.nn.tensorops`; stateful layers with recorded activations and
backward passes live in :mod:`rtar.nn.layers`.
"""

from .tensorops import (
    avg_pool2x2,
    batch_norm_eval,
    batch_norm_train,
    conv2d,
    conv2d_gemm,
    fully_connected,
    global_avg_pool,
    relu,
    softmax,
)
from .layers import (
    AvgPool2,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    ReLU,
    SGDMomentum,
    softmax_cross_entropy,
)

__all__ = [
    "avg_pool2x2",
    "batch_norm_eval",
    "batch_norm_train",
    "conv2d",
    "conv2d_gemm",
    "fully_connected",
    "global_avg_pool",
    "relu",
    "softmax",
    "AvgPool2",
    "BatchNorm",
    "Conv2D",
    "Dense",
    "GlobalAvgPool",
    "ReLU",
    "SGDMomentum",
    "softmax_cross_entropy",
]
