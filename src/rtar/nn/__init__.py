"""Minimal dense-tensor math for the classifier's fixed layer set.

Tensors are plain numpy arrays, row-major and channel-major: an image
feature map has shape (C, H, W); a stream's input and output, at
``network.StreamNet.forward``, are channel-last (H, W, C). The
functional forms live in :mod:`rtar.nn.tensorops`; stateful layers with
recorded activations and backward passes live in :mod:`rtar.nn.layers`.
"""
