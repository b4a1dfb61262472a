"""Frame sampling and the per-pair preprocessing pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractViolationError
from ..mediaio import ClipMeta
from .flow import FlowParams, compute_flow
from .hog import CELL, compute_hog, render_hog
from .resize import grayscale_bt601, resize_bilinear


@dataclass(frozen=True)
class PreprocessConfig:
    target_size: int = 112
    sample_frames_per_second: int = 3
    flow: FlowParams = field(default_factory=FlowParams)
    rng_seed: int = 0

    def __post_init__(self):
        if self.target_size < 16:
            raise ContractViolationError(f"target_size must be >= 16, got {self.target_size}")
        if self.sample_frames_per_second < 1:
            raise ContractViolationError("sample_frames_per_second must be positive")
        if self.target_size % CELL:
            raise ContractViolationError(
                f"target_size {self.target_size} must divide by the HOG cell {CELL}"
            )


def sample_frames(meta: ClipMeta, sample_fps: int, seed: int) -> list[tuple[int, int]]:
    """Pick frame-index pairs (i, i+1) for flow, a fixed count per second.

    Each whole second contributes sample_fps indices drawn uniformly
    without replacement from that second's frames (fewer when the second
    cannot supply that many), sorted ascending; a trailing partial second
    holding at least two frames contributes ceil(fraction * sample_fps).
    The clip's final frame is never selected since it has no successor.
    Deterministic for a given (meta, sample_fps, seed).
    """
    if sample_fps > meta.fps:
        raise ContractViolationError(
            f"sample_fps {sample_fps} exceeds clip fps {meta.fps}"
        )
    if sample_fps < 1:
        raise ContractViolationError("sample_fps must be positive")
    rng = np.random.default_rng(seed)
    last = meta.frame_count - 1
    pairs: list[tuple[int, int]] = []
    for start in range(0, meta.frame_count, meta.fps):
        stop = min(start + meta.fps, meta.frame_count)
        n_frames = stop - start
        if n_frames < meta.fps:  # trailing partial second
            if n_frames < 2:
                break
            want = math.ceil(n_frames / meta.fps * sample_fps)
        else:
            want = sample_fps
        eligible = [i for i in range(start, stop) if i != last]
        k = min(want, len(eligible))
        if k == 0:
            continue
        chosen = rng.choice(len(eligible), size=k, replace=False)
        pairs.extend((eligible[c], eligible[c] + 1) for c in sorted(chosen.tolist()))
    return pairs


def unit_scale(image: np.ndarray) -> np.ndarray:
    """uint8 image -> float32 in [0, 1]."""
    return image.astype(np.float32) / np.float32(255)


# Recorded in every cache; bump it on any change to sample_frames' choices or
# to the bytes pair_maps returns, so that older caches are refused.
PREPROCESS_VERSION = 2


def pair_maps(
    prev_frame: np.ndarray, next_frame: np.ndarray, config: PreprocessConfig = PreprocessConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled pairs -> (frame, flow, hog_img) at S = config.target_size.

    For one pair of (H, W, 3) frames, frame is the earlier frame resized
    to (S, S, 3) uint8, flow the (S, S, 2) float32 Horn-Schunck flow in
    raw pixel displacements, and hog_img the (S, S) uint8 HOG render of
    the earlier frame. Flow and HOG are what the cache stores. Stacks of
    N pairs, (N, H, W, 3) each, give the same maps stacked on a leading
    axis: resize, gray conversion and HOG run per frame, and flow runs
    once for the whole stack, so each pair's maps equal its own call's.
    """
    if prev_frame.shape != next_frame.shape:
        raise ContractViolationError(
            f"pair frames differ in shape: {prev_frame.shape} vs {next_frame.shape}"
        )
    stacked = prev_frame.ndim == 4
    if not stacked:
        prev_frame, next_frame = prev_frame[None], next_frame[None]
    s = config.target_size
    frames = np.stack([resize_bilinear(f, s, s) for f in prev_frame])
    gray_prev = np.stack([grayscale_bt601(unit_scale(f)) for f in frames])
    gray_next = np.stack([grayscale_bt601(unit_scale(resize_bilinear(f, s, s))) for f in next_frame])
    flow = compute_flow(gray_prev, gray_next, config.flow)
    hog_img = np.stack([render_hog(compute_hog(g)) for g in gray_prev])
    return (frames, flow, hog_img) if stacked else (frames[0], flow[0], hog_img[0])


def stream_inputs(
    frame: np.ndarray, flow: np.ndarray, hog_img: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pair_maps' outputs -> the (rgb, flow, hog) stream inputs.

    rgb (S, S, 3) and hog (S, S, 1) are float32 scaled to [0, 1]; flow
    passes through unchanged.
    """
    return unit_scale(frame), flow, unit_scale(hog_img)[:, :, None]


def preprocess_pair(
    prev_frame: np.ndarray, next_frame: np.ndarray, config: PreprocessConfig = PreprocessConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sampled pair -> the three stream inputs (see pair_maps and
    stream_inputs). The spatial and HOG streams see the earlier frame."""
    return stream_inputs(*pair_maps(prev_frame, next_frame, config))
