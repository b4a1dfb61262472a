"""Three-stream classifier with channel-interleaved concatenation fusion.

Each stream is an identical DenseNet-BC-style feature extractor (only the
input-channel count differs): an initial 3x3 convolution to 2k channels,
dense blocks whose layers run BN-ReLU-1x1 conv (to 4k) then BN-ReLU-3x3
conv (to k) and concatenate onto their input, a compressing 1x1
convolution plus 2x2 average pooling between blocks, and a final BN-ReLU.
The three feature maps fuse channel-interleaved, are globally average
pooled, and feed one fully connected softmax head.

Ablation models with a subset of the streams share the same machinery;
with fewer than three streams the fusion degenerates to plain channel
concatenation in stream order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, FormatError
from .nn.layers import (
    AvgPool2,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Layer,
    ReLU,
    SGDMomentum,
    backward,
    forward,
    softmax_cross_entropy,
)
from .nn.tensorops import softmax
from .runtime import plurality_vote

STREAM_CHANNELS = {"rgb": 3, "flow": 2, "hog": 1}
STREAM_ORDER = ("rgb", "flow", "hog")
_STREAM_CODES = {"rgb": 0, "flow": 1, "hog": 2}
_CODE_STREAMS = {v: k for k, v in _STREAM_CODES.items()}

CHECKPOINT_MAGIC = b"TSM1"


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    growth_rate: int = 12
    blocks: tuple[int, ...] = (4, 4)
    bottleneck_factor: int = 4
    compression: float = 0.5
    input_size: int = 112
    bn_enabled: bool = True
    streams: tuple[str, ...] = STREAM_ORDER

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractViolationError("need at least two classes")
        if not self.streams or any(s not in STREAM_CHANNELS for s in self.streams):
            raise ContractViolationError(f"streams must be drawn from {sorted(STREAM_CHANNELS)}")
        if len(set(self.streams)) != len(self.streams):
            raise ContractViolationError("duplicate stream names")
        if self.growth_rate < 1 or self.bottleneck_factor < 1:
            raise ContractViolationError("growth_rate and bottleneck_factor must be >= 1")
        if not self.blocks or any(n < 1 for n in self.blocks):
            raise ContractViolationError("need at least one dense block with >= 1 layers")
        if not 0 < self.compression <= 1:
            raise ContractViolationError(f"compression must be in (0, 1], got {self.compression}")
        size = self.input_size
        for _ in range(len(self.blocks) - 1):
            if size % 2:
                raise ContractViolationError(
                    f"input_size {self.input_size} does not survive {len(self.blocks) - 1} poolings"
                )
            size //= 2


def _stream_plan(config: ModelConfig, input_channels: int) -> tuple[list, tuple[int, int, int]]:
    """One stream's nodes in build order and its output (H, W, D): the only
    place that derives per-layer channel counts. A node is a layer spec,
    ``("conv", kernel, cin, cout)``, ``("bn", c)``, ``("relu",)`` or
    ``("pool",)``, or a dense layer's list of specs."""
    k, size, c = config.growth_rate, config.input_size, 2 * config.growth_rate
    mid = config.bottleneck_factor * k

    def bn_relu(channels: int) -> list[tuple]:
        return ([("bn", channels)] if config.bn_enabled else []) + [("relu",)]

    nodes: list = [("conv", 3, input_channels, c)]
    for b, n in enumerate(config.blocks):
        for _ in range(n):
            nodes.append(bn_relu(c) + [("conv", 1, c, mid)] + bn_relu(mid) + [("conv", 3, mid, k)])
            c += k
        if b < len(config.blocks) - 1:
            cout = math.ceil(config.compression * c)
            nodes += bn_relu(c) + [("conv", 1, c, cout), ("pool",)]
            c, size = cout, size // 2
    return nodes + bn_relu(c), (size, size, c)


def stream_feature_shape(config: ModelConfig) -> tuple[int, int, int]:
    """(H, W, D) of every stream's output (input channels change only the first conv)."""
    return _stream_plan(config, 1)[1]


@dataclass(frozen=True)
class Prediction:
    class_id: int
    confidence: float
    probabilities: np.ndarray


# ---------------------------------------------------------------------------
# Stream subnetwork
# ---------------------------------------------------------------------------

def _build(node, rng, dtype):
    """The layer for one plan node; a list of specs becomes a _DenseLayer."""
    if isinstance(node, list):
        return _DenseLayer([_build(spec, rng, dtype) for spec in node])
    if node[0] == "conv":
        _, kernel, cin, cout = node
        return Conv2D(kernel, cin, cout, rng=rng, dtype=dtype)
    if node[0] == "bn":
        return BatchNorm(node[1], dtype=dtype)
    return ReLU() if node[0] == "relu" else AvgPool2()


class _DenseLayer:
    """BN-ReLU-1x1 conv (bottleneck) then BN-ReLU-3x3 conv; concatenates k
    new channels onto its input."""

    def __init__(self, chain: list[Layer]):
        self.chain = chain
        self.k = chain[-1].params["w"].shape[3]

    def forward(self, x, train=False):
        return np.concatenate([x, forward(self.chain, x, train)], axis=2)

    def backward(self, dy):
        return dy[:, :, : -self.k] + backward(self.chain, dy[:, :, -self.k :])


class StreamNet:
    """One stream: initial conv, dense blocks with transitions (BN-ReLU-1x1
    conv to ceil(compression * channels), then 2x2 avg pool), final BN-ReLU."""

    def __init__(self, config: ModelConfig, input_channels: int, rng, dtype):
        self.nodes = [_build(node, rng, dtype) for node in _stream_plan(config, input_channels)[0]]

    def layers(self) -> list[Layer]:
        flat: list[Layer] = []
        for node in self.nodes:
            flat.extend(node.chain if isinstance(node, _DenseLayer) else [node])
        return flat

    def forward(self, x, train=False):
        return forward(self.nodes, x, train)

    def backward(self, dy):
        return backward(self.nodes, dy)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def concat_fuse(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Channel-interleaved fusion of three equal-shaped feature maps.

    For each source channel d, the output carries (b_d, c_d, a_d) at
    channels (3d, 3d+1, 3d+2) zero-based, i.e. the temporal stream first,
    then the object stream, then the spatial stream.
    """
    if not (a.shape == b.shape == c.shape):
        raise ContractViolationError(
            f"fusion requires identical shapes, got {a.shape}, {b.shape}, {c.shape}"
        )
    h, w, d = a.shape
    fused = np.empty((h, w, 3 * d), dtype=a.dtype)
    fused[:, :, 0::3] = b
    fused[:, :, 1::3] = c
    fused[:, :, 2::3] = a
    return fused


def deinterleave(fused: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of concat_fuse: returns (a, b, c)."""
    if fused.shape[2] % 3:
        raise ContractViolationError(f"fused channel count {fused.shape[2]} not divisible by 3")
    return fused[:, :, 2::3], fused[:, :, 0::3], fused[:, :, 1::3]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class FusionModel:
    """Streams plus fused softmax head; owns all trainable state."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.streams = {
            name: StreamNet(config, STREAM_CHANNELS[name], rng, dtype)
            for name in config.streams
        }
        self.feature_shape = stream_feature_shape(config)
        self.gap = GlobalAvgPool()
        self.head = Dense(len(config.streams) * self.feature_shape[2], config.num_classes,
                          rng=rng, dtype=dtype)

    def layers(self) -> list[Layer]:
        return [layer for name in self.config.streams
                for layer in self.streams[name].layers()] + [self.head]

    def _gather_inputs(self, rgb, flow, hog) -> dict[str, np.ndarray]:
        available = {"rgb": rgb, "flow": flow, "hog": hog}
        inputs = {}
        for name in self.config.streams:
            x = available[name]
            if x is None:
                raise ContractViolationError(f"model needs the {name} input")
            x = np.asarray(x, dtype=self.dtype)
            s = self.config.input_size
            if x.shape != (s, s, STREAM_CHANNELS[name]):
                raise ContractViolationError(
                    f"{name} input must be {(s, s, STREAM_CHANNELS[name])}, got {x.shape}"
                )
            inputs[name] = x
        return inputs

    def fuse(self, maps: dict[str, np.ndarray]) -> np.ndarray:
        if set(self.config.streams) == set(STREAM_ORDER):
            return concat_fuse(maps["rgb"], maps["flow"], maps["hog"])
        return np.concatenate([maps[n] for n in self.config.streams], axis=2)

    def _unfuse(self, dfused: np.ndarray) -> dict[str, np.ndarray]:
        if set(self.config.streams) == set(STREAM_ORDER):
            da, db, dc = deinterleave(dfused)
            return {"rgb": da, "flow": db, "hog": dc}
        d = self.feature_shape[2]
        return {name: dfused[:, :, i * d : (i + 1) * d]
                for i, name in enumerate(self.config.streams)}

    def forward_logits(self, rgb=None, flow=None, hog=None, train: bool = False) -> np.ndarray:
        inputs = self._gather_inputs(rgb, flow, hog)
        maps = {name: self.streams[name].forward(inputs[name], train) for name in self.config.streams}
        fused = self.fuse(maps)
        pooled = self.gap.forward(fused, train)
        return self.head.forward(pooled, train)

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        dpooled = self.head.backward(dlogits)
        dfused = self.gap.backward(dpooled)
        dmaps = self._unfuse(dfused)
        for name in self.config.streams:
            self.streams[name].backward(np.ascontiguousarray(dmaps[name]))

    def predict(self, rgb=None, flow=None, hog=None) -> Prediction:
        logits = self.forward_logits(rgb, flow, hog, train=False)
        probs = softmax(logits)
        class_id = int(np.argmax(probs))
        return Prediction(class_id=class_id, confidence=float(probs[class_id]),
                          probabilities=probs)


def parameter_count(model: FusionModel) -> int:
    """Exact number of trainable scalars (conv kernels, BN gamma/beta, FC)."""
    return sum(p.size for layer in model.layers() for p in layer.params.values())


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    batch: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ContractViolationError(
                f"epochs and batch must be >= 1, got {self.epochs} and {self.batch}"
            )


@dataclass
class ClipSamples:
    """One clip's sampled pairs, preprocessed: label plus (rgb, flow, hog) triples
    in temporal order."""

    name: str
    label: int
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def train(model: FusionModel, samples: Sequence[tuple], hyper: TrainConfig) -> list[float]:
    """SGD with momentum on softmax cross-entropy over (rgb, flow, hog, label)
    samples; returns the per-epoch mean loss history. Deterministic for a
    fixed seed."""
    if len(samples) == 0:
        raise ContractViolationError("training needs a non-empty dataset")
    for _, _, _, label in samples:
        if not 0 <= label < model.config.num_classes:
            raise ContractViolationError(f"label {label} out of range")
    rng = np.random.default_rng(hyper.seed)
    opt = SGDMomentum(model.layers(), lr=hyper.lr, momentum=hyper.momentum)
    history: list[float] = []
    n = len(samples)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, hyper.batch):
            batch = order[start : start + hyper.batch]
            opt.zero_grad()
            for idx in batch:
                rgb, flow, hog, label = samples[idx]
                logits = model.forward_logits(rgb, flow, hog, train=True)
                loss, _, dlogits = softmax_cross_entropy(logits, label)
                model.backward_from_logits(dlogits)
                total_loss += loss
            opt.step(scale=1.0 / len(batch))
        history.append(total_loss / n)
    return history


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    frame_accuracy: float
    per_class: dict[int, float]
    below_threshold_rate: float
    clip_count: int


def evaluate(model: FusionModel, clips: Sequence[ClipSamples],
             threshold_confidence: float = 0.0) -> EvalReport:
    """Clip-level accuracy by majority vote over sampled frames.

    The vote mirrors the runtime poll: frames below the threshold do not
    vote and ties break toward the most recent voting frame. A clip with
    no voting frame counts as wrong. Also reports plain frame-level
    accuracy and the fraction of frames below the threshold.
    """
    correct = 0
    frame_correct = 0
    frame_total = 0
    below = 0
    per_class_hits: dict[int, int] = {}
    per_class_total: dict[int, int] = {}
    for clip in clips:
        votes = []
        for rgb, flow, hog in clip.pairs:
            pred = model.predict(rgb, flow, hog)
            votes.append((pred.class_id, pred.confidence))
            frame_total += 1
            frame_correct += pred.class_id == clip.label
            below += pred.confidence < threshold_confidence
        winner, _ = plurality_vote(votes, threshold_confidence)
        hit = winner == clip.label
        correct += hit
        per_class_hits[clip.label] = per_class_hits.get(clip.label, 0) + hit
        per_class_total[clip.label] = per_class_total.get(clip.label, 0) + 1
    n = len(clips)
    return EvalReport(
        accuracy=correct / n if n else 0.0,
        frame_accuracy=frame_correct / frame_total if frame_total else 0.0,
        per_class={c: per_class_hits[c] / per_class_total[c] for c in sorted(per_class_total)},
        below_threshold_rate=below / frame_total if frame_total else 0.0,
        clip_count=n,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _model_state(model: FusionModel) -> list[np.ndarray]:
    return [t for layer in model.layers() for t in layer.state()]


def save_model(model: FusionModel, path) -> None:
    """Serialize config and tensors; little-endian, float32 payloads.

    The compression factor travels as the raw bit pattern of its float64
    value so reconstruction is exact.
    """
    cfg = model.config
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", 1)  # version
    out += struct.pack("<III", cfg.num_classes, cfg.growth_rate, cfg.bottleneck_factor)
    out += struct.pack("<Q", np.float64(cfg.compression).view(np.uint64).item())
    out += struct.pack("<II", int(cfg.bn_enabled), cfg.input_size)
    out += struct.pack("<I", len(cfg.blocks))
    for n in cfg.blocks:
        out += struct.pack("<I", n)
    out += struct.pack("<I", len(cfg.streams))
    for name in cfg.streams:
        out += struct.pack("<I", _STREAM_CODES[name])
    tensors = _model_state(model)
    out += struct.pack("<I", len(tensors))
    for t in tensors:
        out += struct.pack("<I", t.ndim)
        for dim in t.shape:
            out += struct.pack("<I", dim)
        out += t.astype("<f4", copy=False).tobytes()
    with open(path, "wb") as f:
        f.write(bytes(out))


def _state_scalar_count(config: ModelConfig) -> int:
    """Total scalars in the checkpoint's tensor payload (params plus BN
    running stats), summed over the stream plans without building the
    model so absurd fuzzed configs are rejected before any allocation."""
    total = 0
    for name in config.streams:
        nodes, (_, _, d) = _stream_plan(config, STREAM_CHANNELS[name])
        for node in nodes:
            for spec in node if isinstance(node, list) else [node]:
                if spec[0] == "conv":
                    total += spec[1] * spec[1] * spec[2] * spec[3]
                elif spec[0] == "bn":
                    total += 4 * spec[1]  # gamma, beta, running mean and var
    return total + len(config.streams) * d * config.num_classes + config.num_classes


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.at = 0

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.raw):
            raise FormatError("checkpoint truncated", field="payload")
        chunk = self.raw[self.at : self.at + n]
        self.at += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_model(path) -> FusionModel:
    with open(path, "rb") as f:
        raw = f.read()
    r = _Reader(raw)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("not a model checkpoint", field="magic")
    version = r.u32()
    if version != 1:
        raise FormatError(f"unsupported checkpoint version {version}", field="version")
    num_classes, growth, bottleneck = r.u32(), r.u32(), r.u32()
    compression = np.uint64(r.u64()).view(np.float64).item()
    bn_enabled, input_size = bool(r.u32()), r.u32()
    n_blocks = r.u32()
    if n_blocks < 1 or n_blocks > 64:
        raise FormatError(f"implausible block count {n_blocks}", field="blocks")
    blocks = tuple(r.u32() for _ in range(n_blocks))
    # The stream plan walks every dense layer, so a mutated block count
    # near 2**32 would stall the loader before the size check below. Each
    # dense layer stores two 4-d conv tensors of at least 24 bytes each.
    if 48 * sum(blocks) > len(raw):
        raise FormatError(f"blocks {blocks} need more bytes than the checkpoint has",
                          field="blocks")
    n_streams = r.u32()
    if n_streams < 1 or n_streams > 3:
        raise FormatError(f"implausible stream count {n_streams}", field="streams")
    codes = [r.u32() for _ in range(n_streams)]
    if any(c not in _CODE_STREAMS for c in codes):
        raise FormatError(f"unknown stream code in {codes}", field="streams")
    streams = tuple(_CODE_STREAMS[c] for c in codes)
    if num_classes > 2**20 or growth > 2**16 or bottleneck > 2**16 or input_size > 2**16:
        raise FormatError("implausible checkpoint config values", field="config")
    try:
        config = ModelConfig(num_classes=num_classes, growth_rate=growth,
                             bottleneck_factor=bottleneck, compression=compression,
                             input_size=input_size, bn_enabled=bn_enabled,
                             blocks=blocks, streams=streams)
    except ContractViolationError as e:
        raise FormatError(f"checkpoint config invalid: {e}", field="config") from None
    payload = _state_scalar_count(config)
    if 4 * payload > len(raw) - r.at:
        raise FormatError(
            f"checkpoint too small for its config ({payload} scalars declared)",
            field="payload",
        )
    model = FusionModel(config, seed=0)

    expected = _model_state(model)
    count = r.u32()
    if count != len(expected):
        raise FormatError(
            f"checkpoint has {count} tensors, model needs {len(expected)}", field="tensors"
        )
    for target in expected:  # the model's own state arrays, filled in place
        ndim = r.u32()
        if ndim > 8:
            raise FormatError(f"implausible tensor rank {ndim}", field="tensors")
        shape = tuple(r.u32() for _ in range(ndim))
        if shape != target.shape:
            raise FormatError(
                f"tensor shape {shape} does not match model shape {target.shape}",
                field="tensors",
            )
        target[...] = np.frombuffer(r.take(4 * target.size), dtype="<f4").reshape(shape)
    if r.at != len(raw):
        raise FormatError("trailing bytes after checkpoint payload", field="payload")
    return model
