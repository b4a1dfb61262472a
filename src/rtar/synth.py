"""Synthetic fine-grained-action clips for verifiable training.

Every clip shows the same kind of scene: one smooth random texture patch
over a static per-group background, with the patch centered in frame.
Classes differ only in the patch's micro-motion:

* ``horizontal`` - the patch slides left-right on a triangle wave
* ``vertical``   - the same wave along the vertical axis
* ``cw`` / ``ccw`` - the patch spins about its center at a constant rate,
  clockwise or counter-clockwise

Washes share their texture, phase and starting angle across all classes,
so frame 0 of a cw clip and frame 0 of the matching ccw clip are
pixel-identical and single frames are near-uninformative; the classes
are separable only through motion. The triangle wave keeps per-frame
displacement at constant magnitude (sign flips at the folds), which
makes almost every sampled pair carry a full-strength motion cue.

Everything derives from one seed, so generated trees are byte-reproducible.
``fusion_ablation`` runs the fusion-vs-single-stream experiment on such a set.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from . import dataset, mediaio, network
from .dataset import ClipId, SplitManifest, format_clip_name, save_split, write_labels
from .preprocess import PreprocessConfig
from .preprocess.flow import _gaussian_blur
from .preprocess.resize import bilinear_sample

MOTIONS = ("horizontal", "vertical", "cw", "ccw")

_TRI_PERIOD_S = 1.6
_OMEGA_RAD_S = 1.4
_AMP_FRAC = 0.09      # translation amplitude as a fraction of resolution
_RADIUS_FRAC = 0.30   # patch radius as a fraction of resolution
_EDGE_BAND_PX = 2.0   # soft patch border width


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 4
    clips_per_class: int = 10
    fps: int = 8
    duration_s: float = 2.0
    resolution: int = 64
    groups: int = 5
    motions: tuple[str, ...] = MOTIONS

    def __post_init__(self):
        if self.resolution < 32:
            raise ContractViolationError(f"resolution {self.resolution} below 32x32")
        if not 1 <= self.num_classes <= len(self.motions):
            raise ContractViolationError(
                f"num_classes must be in [1, {len(self.motions)}]"
            )
        if any(m not in MOTIONS for m in self.motions):
            raise ContractViolationError(f"motions must be drawn from {MOTIONS}")
        if not 0 < self.duration_s < math.inf:
            raise ContractViolationError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if self.clips_per_class < 1 or self.groups < 2 or self.fps < 2:
            raise ContractViolationError("need clips_per_class >= 1, groups >= 2, fps >= 2")
        if self.num_classes > 12:
            raise ContractViolationError("clip naming supports at most 12 classes")

    @property
    def frame_count(self) -> int:
        return max(2, round(self.fps * self.duration_s))


def _tri(u: np.ndarray | float):
    """Triangle wave with period 1 and range [-1, 1]; tri(0) = -1."""
    frac = np.mod(u, 1.0)
    return np.where(frac < 0.5, 4.0 * frac - 1.0, 3.0 - 4.0 * frac)


def _smooth_noise(rng: np.random.Generator, h: int, w: int, channels: int, passes: int = 3):
    """Blurred random field per channel, normalized to [0, 1]."""
    out = np.empty((h, w, channels))
    for c in range(channels):
        field = rng.standard_normal((h, w))
        for _ in range(passes):
            field = _gaussian_blur(field)
        lo, hi = field.min(), field.max()
        out[:, :, c] = (field - lo) / (hi - lo) if hi > lo else 0.5
    return out


# The 0 in both seed sequences is a fixed slot: changing it would change the
# bytes of every generated tree.
def _wash_rng(seed: int, wash: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0, 1, wash]))


def _group_rng(seed: int, group: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0, 2, group]))


def _wash_params(rng: np.random.Generator) -> tuple[float, float]:
    """(triangle-wave phase in [0,1), starting angle in [0, 2pi)); the first
    two draws of a fresh ``_wash_rng``, shared by every class of the wash."""
    return float(rng.random()), float(rng.random() * 2 * math.pi)


def _motion_at(config: SynthConfig, motion: str, phase0: float, theta0: float,
               frame: int) -> tuple[float, float, float]:
    """Patch state (offset_x, offset_y, angle) at a frame index."""
    t = frame / config.fps
    amp = _AMP_FRAC * config.resolution
    wave = float(_tri(t / _TRI_PERIOD_S + phase0)) * amp
    if motion == "horizontal":
        return wave, 0.0, theta0
    if motion == "vertical":
        return 0.0, wave, theta0
    if motion == "cw":
        return 0.0, 0.0, theta0 - _OMEGA_RAD_S * t
    if motion == "ccw":
        return 0.0, 0.0, theta0 + _OMEGA_RAD_S * t
    raise ContractViolationError(f"unknown motion {motion!r}")


def pair_motion(config: SynthConfig, seed: int, wash: int, class_index: int,
                frame: int) -> tuple[float, float, float]:
    """Analytic (du, dv, dtheta) of the patch between frames (frame, frame+1)."""
    motion = config.motions[class_index]
    phase0, theta0 = _wash_params(_wash_rng(seed, wash))
    x0, y0, a0 = _motion_at(config, motion, phase0, theta0, frame)
    x1, y1, a1 = _motion_at(config, motion, phase0, theta0, frame + 1)
    return x1 - x0, y1 - y0, a1 - a0


def _render_frame(res: int, background: np.ndarray, texture: np.ndarray,
                  offset: tuple[float, float], angle: float) -> np.ndarray:
    radius = _RADIUS_FRAC * res
    center = (res - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(res, dtype=np.float64),
                         np.arange(res, dtype=np.float64), indexing="ij")
    rel_x = xs - center - offset[0]
    rel_y = ys - center - offset[1]
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    tex_c = (texture.shape[0] - 1) / 2.0
    tex_x = cos_a * rel_x + sin_a * rel_y + tex_c
    tex_y = -sin_a * rel_x + cos_a * rel_y + tex_c
    patch = bilinear_sample(texture, tex_y, tex_x)
    r = np.hypot(rel_x, rel_y)
    weight = np.clip((radius - r) / _EDGE_BAND_PX, 0.0, 1.0)[:, :, None]
    frame = background * (1.0 - weight) + patch * weight
    return np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)


@dataclass
class SynthResult:
    out_dir: str
    clip_names: list[str]
    labels_path: str
    split_path: str
    manifest: SplitManifest


def generate_synthetic(config: SynthConfig, seed: int, out_dir: str | os.PathLike) -> SynthResult:
    """Render the clip tree plus labels file and group-disjoint 80/20 split.

    Clips live in directories named by the HandWash convention with the
    class in field Y (class index + 1) and the background group in field
    Z; washes are numbered in field X and appear once per class.
    """
    os.makedirs(out_dir, exist_ok=True)
    res = config.resolution
    tex_n = int(2 * _RADIUS_FRAC * res) + 6

    backgrounds = {
        g: 0.3 + 0.2 * _smooth_noise(_group_rng(seed, g), res, res, 3)
        for g in range(config.groups)
    }

    names: list[str] = []
    labels: dict[str, int] = {}
    manifest = SplitManifest()
    test_groups = dataset.held_out_groups(range(config.groups), dataset.TEST_FRACTION)

    for wash in range(config.clips_per_class):
        group = wash % config.groups
        rng = _wash_rng(seed, wash)
        phase0, theta0 = _wash_params(rng)
        texture = _smooth_noise(rng, tex_n, tex_n, 3, passes=2)
        for class_index in range(config.num_classes):
            motion = config.motions[class_index]
            cid = ClipId(wash_id=wash, action_class=class_index + 1, group=group)
            name = format_clip_name(cid)
            frames = []
            for f in range(config.frame_count):
                ox, oy, angle = _motion_at(config, motion, phase0, theta0, f)
                frames.append(_render_frame(res, backgrounds[group], texture, (ox, oy), angle))
            meta = mediaio.ClipMeta(fps=config.fps, width=res, height=res,
                                    frame_count=config.frame_count)
            mediaio.write_clip(frames, meta, os.path.join(out_dir, name))
            names.append(name)
            labels[name] = class_index
            (manifest.test if group in test_groups else manifest.train).append(name)

    labels_path = os.path.join(out_dir, "labels.tsv")
    split_path = os.path.join(out_dir, "split.txt")
    write_labels(labels, labels_path)
    save_split(manifest, split_path)
    return SynthResult(out_dir=str(out_dir), clip_names=names, labels_path=labels_path,
                       split_path=split_path, manifest=manifest)


@dataclass
class AblationRun:
    model: network.FusionModel
    report: network.EvalReport  # on the test section
    seconds: float  # training plus test evaluation


def fusion_ablation(config: SynthConfig, pre: PreprocessConfig, model: network.ModelConfig,
                    hyper: network.TrainConfig, out_dir: str | os.PathLike):
    """Acceptance criterion 1's experiment: generate the set into ``out_dir``,
    load both split sections, then train ``model`` on the fused and on each
    single stream set and evaluate it on the test section. Each run's model
    records ``pre.flow``, the flow it was trained on. ``hyper.seed``
    also draws the clips and initialises every model. Returns ``(manifest,
    train_clips, test_clips, runs)``, ``runs`` keyed by stream set."""
    result = generate_synthetic(config, seed=hyper.seed, out_dir=out_dir)
    train, test = result.manifest.train, result.manifest.test
    if not train or not test:
        raise ContractViolationError(
            f"clips_per_class={config.clips_per_class} and groups={config.groups} give "
            f"{len(train)} train and {len(test)} test clips; both sections need a clip")
    labels = dataset.read_labels(result.labels_path)
    train_clips = dataset.load_clip_samples(out_dir, train, labels, pre)
    test_clips = dataset.load_clip_samples(out_dir, test, labels, pre)
    samples = dataset.flatten_samples(train_clips)
    runs = {}
    for streams in (("rgb", "flow", "hog"), ("rgb",), ("flow",), ("hog",)):
        t0 = time.monotonic()
        trained = network.FusionModel(replace(model, streams=streams, flow=pre.flow),
                                      seed=hyper.seed)
        network.train(trained, samples, hyper)
        report = network.evaluate(trained, test_clips)
        runs[streams] = AblationRun(trained, report, time.monotonic() - t0)
    return result.manifest, train_clips, test_clips, runs
