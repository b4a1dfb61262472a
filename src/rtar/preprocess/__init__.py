"""Raw frames to stream inputs: resize, optical flow, HOG, frame sampling."""

from .resize import bilinear_sample, grayscale_bt601, resize_bilinear
from .flow import FlowParams, compute_flow
from .hog import HogDescriptor, compute_hog, render_hog
from .pipeline import (PREPROCESS_VERSION, PreprocessConfig, pair_maps, preprocess_pair,
                       sample_frames, stream_inputs, unit_scale)

__all__ = [
    "PREPROCESS_VERSION",
    "FlowParams",
    "HogDescriptor",
    "PreprocessConfig",
    "bilinear_sample",
    "compute_flow",
    "compute_hog",
    "grayscale_bt601",
    "pair_maps",
    "preprocess_pair",
    "render_hog",
    "resize_bilinear",
    "sample_frames",
    "stream_inputs",
    "unit_scale",
]
