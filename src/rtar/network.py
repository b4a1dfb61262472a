"""Three-stream classifier with channel-interleaved concatenation fusion.

Each stream is an identical DenseNet-BC-style feature extractor (only the
input-channel count differs): an initial 3x3 convolution to 2k channels,
dense blocks whose layers run BN-ReLU-1x1 conv (to 4k) then BN-ReLU-3x3
conv (to k) and concatenate onto their input, a compressing 1x1
convolution plus 2x2 average pooling between blocks, and a final BN-ReLU.
Each stream's feature map is globally average pooled to a length-D
vector, and the three vectors fuse channel-interleaved, (flow_d, hog_d,
rgb_d) for each channel d, into one fully connected softmax head. Pooling
acts per channel, so pooling before fusing equals pooling the fused map,
and a fusion layout only permutes the head's input rows.

Ablation models with a subset of the streams share the same machinery;
with fewer than three streams the fusion degenerates to plain channel
concatenation in stream order.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
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
    Workspace,
    backward,
    forward,
    softmax_cross_entropy,
)
from .nn.tensorops import softmax
from .preprocess import PREPROCESS_VERSION, FlowParams
from .runtime import plurality_vote

STREAM_CHANNELS = {"rgb": 3, "flow": 2, "hog": 1}
STREAM_ORDER = ("rgb", "flow", "hog")
_STREAM_CODES = {"rgb": 0, "flow": 1, "hog": 2}
_CODE_STREAMS = {v: k for k, v in _STREAM_CODES.items()}

CHECKPOINT_MAGIC = b"TSM1"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """The architecture, and the maps it reads: ``input_size`` is the
    preprocessing target size and ``flow`` the Horn-Schunck parameters its
    flow stream was trained on. A checkpoint records both, so ``eval`` and
    ``run`` compute the maps the model was trained on."""

    num_classes: int
    growth_rate: int = 12
    blocks: tuple[int, ...] = (4, 4)
    bottleneck_factor: int = 4
    compression: float = 0.5
    input_size: int = 112
    bn_enabled: bool = True
    streams: tuple[str, ...] = STREAM_ORDER
    flow: FlowParams = FlowParams()

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
        if self.input_size < 1:
            raise ContractViolationError(f"input_size must be >= 1, got {self.input_size}")
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
    ``("pool",)``, or a dense layer, ``("dense", width, specs)``, whose
    block ends at ``width`` channels."""
    k, size, c = config.growth_rate, config.input_size, 2 * config.growth_rate
    mid = config.bottleneck_factor * k

    def bn_relu(channels: int) -> list[tuple]:
        return ([("bn", channels)] if config.bn_enabled else []) + [("relu",)]

    nodes: list = [("conv", 3, input_channels, c)]
    for b, n in enumerate(config.blocks):
        width = c + n * k
        for _ in range(n):
            specs = bn_relu(c) + [("conv", 1, c, mid)] + bn_relu(mid) + [("conv", 3, mid, k)]
            nodes.append(("dense", width, specs))
            c += k
        if b < len(config.blocks) - 1:
            cout = math.ceil(config.compression * c)
            nodes += bn_relu(c) + [("conv", 1, c, cout), ("pool",)]
            c, size = cout, size // 2
    return nodes + bn_relu(c), (size, size, c)


def _layer_specs(node) -> list[tuple]:
    """A plan node's layer specs: a dense layer's chain, else the node itself."""
    return node[2] if node[0] == "dense" else [node]


def _flop_midpoint(config: ModelConfig, input_channels: int) -> int:
    """The node boundary of a stream's plan nearest half its conv FLOPs
    (k²·cin·cout·H·W summed over nodes[:cut]), the first on a tie; both
    sides hold at least one node. At the defaults it is 4: the stem and
    three dense layers, 0.53 of the FLOPs."""
    nodes, _ = _stream_plan(config, input_channels)
    size, total, done = config.input_size, 0, []
    for node in nodes:
        if node[0] == "pool":
            size //= 2
        total += sum(s[1] * s[1] * s[2] * s[3] * size * size
                     for s in _layer_specs(node) if s[0] == "conv")
        done.append(total)
    return min(range(1, len(nodes)), key=lambda cut: abs(2 * done[cut - 1] - total))


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
    """The layer for one plan node."""
    if node[0] == "dense":
        return _DenseLayer([_build(spec, rng, dtype) for spec in node[2]], node[1])
    if node[0] == "conv":
        _, kernel, cin, cout = node
        return Conv2D(kernel, cin, cout, rng=rng, dtype=dtype)
    if node[0] == "bn":
        return BatchNorm(node[1], dtype=dtype)
    return ReLU() if node[0] == "relu" else AvgPool2()


class _DenseLayer:
    """BN-ReLU-1x1 conv (bottleneck) then BN-ReLU-3x3 conv; concatenates k
    new channels onto its input.

    Maps are (C, H, W). Training walks the chain layer by layer and
    concatenates. Eval fuses the second half: the mid BN is folded into
    the 1x1 conv and the mid ReLU into the 3x3 conv's pad step (see
    ``Conv2D.forward``). Eval runs in the caller's workspace, which
    ``StreamNet.forward`` supplies, and returns a view of it. The block's
    map is one (width, H, W) buffer: each dense layer reads its first
    channels, one contiguous prefix, and its 3x3 conv writes the k new
    ones after them (Pleiss et al., 2017, "Memory-Efficient
    Implementation of DenseNets"), so nothing is concatenated or copied."""

    def __init__(self, chain: list[Layer], width: int):
        self.chain = chain
        self.k = chain[-1].params["w"].shape[3]
        self.width = width
        # chain: [BN,] ReLU, 1x1 conv, [BN,] ReLU, 3x3 conv
        self.bn_mid = chain[-3] if isinstance(chain[-3], BatchNorm) else None
        cut = -4 if self.bn_mid is not None else -3
        self.pre, self.conv1x1, self.conv3x3 = chain[:cut], chain[cut], chain[-1]

    def forward(self, x, train=False, ws=None):
        if train:
            return np.concatenate([x, forward(self.chain, x, train)])
        if ws is None:
            raise ContractViolationError("a dense layer runs eval mode in a workspace")
        c = x.shape[0]
        block = ws.block(x, self.width)
        h = forward(self.pre, block[:c], ws=ws)
        h = self.conv1x1.forward(h, ws=ws, bn=self.bn_mid)
        self.conv3x3.forward(h, ws=ws, relu=True, out=block[c : c + self.k])
        return block[: c + self.k]

    def backward(self, dy):
        return dy[: -self.k] + backward(self.chain, dy[-self.k :])


class StreamNet:
    """One stream: initial conv, dense blocks with transitions (BN-ReLU-1x1
    conv to ceil(compression * channels), then 2x2 avg pool), final BN-ReLU.
    ``cut`` is the node boundary nearest half its conv FLOPs, where a
    forward or backward pass can split it into a head and a tail that run
    on two threads."""

    def __init__(self, config: ModelConfig, input_channels: int, rng, dtype):
        self.nodes = [_build(node, rng, dtype) for node in _stream_plan(config, input_channels)[0]]
        self.cut = _flop_midpoint(config, input_channels)

    def layers(self) -> list[Layer]:
        flat: list[Layer] = []
        for node in self.nodes:
            flat.extend(node.chain if isinstance(node, _DenseLayer) else [node])
        return flat

    def forward(self, x, train=False, ws: Workspace | None = None):
        """The stream's (H, W, D) map for its (H, W, Cin) input: a new
        array, or in eval mode with ``ws`` a view of it that the next pass
        overwrites (without, the stream runs in one fresh workspace). The
        layers run on (C, H, W) maps, so this is the one transpose each way:
        the first conv pads a transposed view of x, and the last map is
        copied out channel-last, which keeps pooling's summation order."""
        run = ws if ws is not None or train else Workspace()
        end = len(self.nodes)
        return self.tail(self.head(x, end, train, run), end, ws, train)

    def head(self, x, stop: int, train=False, ws: Workspace | None = None):
        """nodes[:stop] on the (H, W, Cin) input: their (C, H, W) map."""
        return forward(self.nodes[:stop], x.transpose(2, 0, 1), train, ws)

    def tail(self, h, start: int, ws: Workspace | None = None, train=False):
        """nodes[start:] on a (C, H, W) map, then the copy out to the (H, W,
        D) map: in ``ws``, or a new array without it."""
        y = forward(self.nodes[start:], h, train, ws).transpose(1, 2, 0)
        out = np.empty(y.shape, y.dtype) if ws is None else ws.take(y, y.shape)[0]
        out[...] = y
        return out

    def backward(self, dy):
        end = len(self.nodes)
        return self.head_backward(self.tail_backward(dy, end), end)

    def tail_backward(self, dy, start: int):
        """``tail``'s backward for the (H, W, D) map's gradient: the (C, H,
        W) gradient of nodes[start]'s input."""
        return backward(self.nodes[start:], dy.transpose(2, 0, 1))

    def head_backward(self, dh, stop: int):
        """``head``'s backward for the (C, H, W) gradient of its map: the
        (H, W, Cin) input's gradient."""
        return backward(self.nodes[:stop], dh).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def concat_fuse(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Channel-interleaved fusion of three equal-shaped (..., D) arrays.

    For each source channel d, the output carries (b_d, c_d, a_d) at
    channels (3d, 3d+1, 3d+2) zero-based, i.e. the temporal stream first,
    then the object stream, then the spatial stream.
    """
    if not (a.shape == b.shape == c.shape):
        raise ContractViolationError(
            f"fusion requires identical shapes, got {a.shape}, {b.shape}, {c.shape}"
        )
    fused = np.empty(a.shape[:-1] + (3 * a.shape[-1],), dtype=a.dtype)
    fused[..., 0::3] = b
    fused[..., 1::3] = c
    fused[..., 2::3] = a
    return fused


def deinterleave(fused: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of concat_fuse: returns (a, b, c)."""
    if fused.shape[-1] % 3:
        raise ContractViolationError(f"fused channel count {fused.shape[-1]} not divisible by 3")
    return fused[..., 2::3], fused[..., 0::3], fused[..., 1::3]


# ---------------------------------------------------------------------------
# Parallel streams
# ---------------------------------------------------------------------------

PARALLEL_MIN_SIZE = 48
"""The smallest ``input_size`` whose eval forward, and training's forward
and backward, share their streams with the stream pool. A sweep of
``predict`` on a 2-core x86_64 VM, in ms (medians of 21, ranges over
four sittings), serial at the default OpenBLAS threads -> the caller and
one pool worker with OpenBLAS at one thread, the first stream cut at its
FLOP midpoint; growth 12 and blocks 4,4 with BN unless noted:

    32 px, growth 6, blocks 2,2, no BN    1.5-2.6 -> 1.6-3.3
    32 px                                 8.1-11.2 -> 6.6-11.2
    48 px                                 14.8-16.7 -> 9.6-12.9
    64 px                                 21.3-30.1 -> 17.5-19.1
    96 px                                 51-55 -> 32-37
    112 px                                63-81 -> 44-45

At 32 px the pool's hand-offs cost about what the second core saves,
and the live pipeline's reader and preprocessing threads want that core:
with each stream whole on two pool workers and the threshold at 32
(BENCH_30), the benchmark's 32 px live replay read a median pair latency
of 6.4-7.2 ms against 5.4-7.0 ms at 48 (three alternated runs each)."""

_BLAS_SYMBOLS = (
    # numpy's bundled OpenBLAS (numpy 2.x wheels), then a plain OpenBLAS
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

class _TurnLock:
    """A reentrant lock taken in the order it was asked for: a thread that
    leaves it and asks again at once queues behind the threads already
    waiting. (A plain lock goes to whichever thread asks first once it is
    free, which is usually the one that just left it.)"""

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._queue: deque[int] = deque()
        self._owner, self._depth = None, 0

    def __enter__(self):
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                self._queue.append(me)
                try:
                    self._cond.wait_for(lambda: self._owner is None and self._queue[0] == me)
                except BaseException:
                    self._queue.remove(me)
                    self._cond.notify_all()
                    raise
                self._queue.popleft()
                self._owner = me
            self._depth += 1

    def __exit__(self, *exc):
        with self._cond:
            self._depth -= 1
            if not self._depth:
                self._owner = None
                self._cond.notify_all()


# Held for the whole of a one-thread section (``_one_blas_thread``), so two
# callers never interleave their counts. A training step holds it around
# the stream schedules of its forward and backward passes, which take it
# again; a predict that waits for it runs before the next step.
_parallel_lock = _TurnLock()
_pool: ThreadPoolExecutor | None = None


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


@cache
def _blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None where no
    mapped OpenBLAS exports them. The library is the mapped file whose
    name holds "openblas" in /proc/self/maps."""
    try:
        with open("/proc/self/maps") as f:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in f)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """A section with OpenBLAS at one thread, under ``_parallel_lock``; its
    previous count is restored on the way out, whether or not the body
    raised. Where ``_blas_threads()`` is None the body runs as it is."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _parallel_lock:
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


def _map_streams(run, names: Sequence[str], input_size: int, head, tail) -> list:
    """``[run(name) for name in names]``, where ``tail(name, head(name))``
    equals ``run(name)``, with the calling thread as one of the workers.

    The caller runs every stream itself unless there are two usable cores
    for two streams, ``input_size`` is at least ``PARALLEL_MIN_SIZE`` and
    OpenBLAS's thread count can be set. Then a process-wide stream pool of
    ``min(3, cores) - 1`` threads (``os.sched_getaffinity``, sized at first
    use) shares the streams with it, by McNaughton's wrap-around rule
    (McNaughton, 1959) for equal streams:

    - as many workers as streams: each runs one whole stream, the caller
      the first;
    - three streams on two workers: the caller runs the first stream's
      head, then the second stream; the pool's worker runs the third
      stream, then the first's tail. Each does about 1.5 streams' work.

    Eval's forward and training's forward and backward all run here; a
    backward passes the cut stream's tail as ``head`` and its head as
    ``tail``. The pool's section runs in ``_one_blas_thread``, since
    OpenBLAS's spinning threads would otherwise oversubscribe the cores,
    and leaves it only after every stream has finished, whether or not
    one raised."""
    if (input_size < PARALLEL_MIN_SIZE or _blas_threads() is None
            or min(len(names), _usable_cores()) < 2):
        return list(map(run, names))
    global _pool
    with _one_blas_thread():
        if _pool is None:
            _pool = ThreadPoolExecutor(min(len(STREAM_ORDER), _usable_cores()) - 1,
                                       thread_name_prefix="rtar-stream")
        mine, theirs = {}, {}
        try:
            if _pool._max_workers + 1 >= len(names):
                for name in names[1:]:
                    theirs[name] = _pool.submit(run, name)
                mine[names[0]] = run(names[0])
            else:
                first, middle, last = names
                theirs[last] = _pool.submit(run, last)
                # The caller runs the head itself, so the tail is queued only
                # once its input exists: it never waits in the pool's queue
                # behind the head it needs.
                h = head(first)
                theirs[first] = _pool.submit(tail, first, h)
                mine[middle] = run(middle)
        finally:
            wait(theirs.values())
    return [mine[name] if name in mine else theirs[name].result() for name in names]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class FusionModel:
    """Streams plus fused softmax head; owns all trainable state.

    Eval's forward and training's forward and backward share the streams
    between the caller and the stream pool (see ``_map_streams``). Eval
    mode runs each stream, or a head or tail of one, in a workspace
    private to the thread that runs it, kept across calls: the caller's
    or a stream pool worker's. A head's map waits for its tail in the
    caller's hand-off buffer, also kept across calls. Training allocates
    its activations, which backward reads; each stream's layers, with
    their grads and BN running statistics, are touched by one thread at a
    time, so they need no lock."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.streams = {
            name: StreamNet(config, STREAM_CHANNELS[name], rng, dtype)
            for name in config.streams
        }
        self.feature_shape = stream_feature_shape(config)
        self.pools = {name: GlobalAvgPool() for name in config.streams}
        self.head = Dense(len(config.streams) * self.feature_shape[2], config.num_classes,
                          rng=rng, dtype=dtype)
        self._local = threading.local()

    def _workspace(self) -> Workspace:
        """The calling thread's workspace."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = Workspace()
        return ws

    def _handoff(self, h: np.ndarray) -> np.ndarray:
        """h copied into the calling thread's hand-off buffer, which grows to
        the largest map it has held, as a workspace slot does. The caller's
        next stream overwrites h in its workspace; the copy lasts until the
        tail has read it."""
        buf = getattr(self._local, "handoff", None)
        if buf is None or buf.size < h.size or buf.dtype != h.dtype:
            buf = self._local.handoff = np.empty(h.size, h.dtype)
        out = buf[: h.size].reshape(h.shape)
        out[...] = h
        return out

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

    def fuse(self, pooled: dict[str, np.ndarray]) -> np.ndarray:
        """The head's input from each stream's pooled (D,) vector."""
        if set(self.config.streams) == set(STREAM_ORDER):
            return concat_fuse(pooled["rgb"], pooled["flow"], pooled["hog"])
        return np.concatenate([pooled[n] for n in self.config.streams])

    def _unfuse(self, dfused: np.ndarray) -> dict[str, np.ndarray]:
        if set(self.config.streams) == set(STREAM_ORDER):
            return dict(zip(("rgb", "flow", "hog"), deinterleave(dfused)))
        return dict(zip(self.config.streams, np.split(dfused, len(self.config.streams))))

    def forward_logits(self, rgb=None, flow=None, hog=None, train: bool = False) -> np.ndarray:
        inputs = self._gather_inputs(rgb, flow, hog)

        # Streams run on one thread share its workspace, so each map is
        # pooled into a new vector, and a head's map copied to the hand-off
        # buffer, before that thread runs another. Training allocates, so
        # its head's map is its own.
        def ws():
            return None if train else self._workspace()

        def pooled(name):
            return self.pools[name].forward(self.streams[name].forward(inputs[name], train, ws()),
                                            train)

        def head(name):
            stream = self.streams[name]
            h = stream.head(inputs[name], stream.cut, train, ws())
            return h if train else self._handoff(h)

        def tail(name, h):
            stream = self.streams[name]
            return self.pools[name].forward(stream.tail(h, stream.cut, ws(), train), train)

        names = self.config.streams
        vectors = _map_streams(pooled, names, self.config.input_size, head, tail)
        return self.head.forward(self.fuse(dict(zip(names, vectors))), train)

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        dpooled = self._unfuse(self.head.backward(dlogits))

        def whole(name):
            self.streams[name].backward(self.pools[name].backward(dpooled[name]))

        # a cut stream's backward runs its tail first, in the schedule's head
        # slot, and then its head
        def tail(name):
            stream = self.streams[name]
            return stream.tail_backward(self.pools[name].backward(dpooled[name]), stream.cut)

        def head(name, dh):
            stream = self.streams[name]
            stream.head_backward(dh, stream.cut)

        _map_streams(whole, self.config.streams, self.config.input_size, tail, head)

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
        for name in ("lr", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite, got {getattr(self, name)}")
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
    samples; returns the per-epoch mean loss history.

    Each minibatch, from ``zero_grad`` to the optimizer's step, runs in
    ``_one_blas_thread``: OpenBLAS at one thread, under the lock that a
    pool ``predict`` takes, so a concurrent ``predict`` waits at most one
    step. Its streams' forward and backward passes go through
    ``_map_streams``, as eval's forward does. So the history and the
    trained bytes depend neither on the OpenBLAS thread count nor on the
    core count or the route, for one OpenBLAS build and CPU kernel. Where ``_blas_threads()`` is None (no OpenBLAS thread
    control), the streams run on the caller at the BLAS library's own
    thread count, and the bytes depend on that count."""
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
            with _one_blas_thread():
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

    The config's floats (the compression factor, the flow's pyramid scale
    and alpha) travel as the bit patterns of their float64 values, so
    reconstruction is exact. After the stream codes come the flow
    parameters and the ``PREPROCESS_VERSION`` whose maps the model reads.
    """
    cfg = model.config
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<III", cfg.num_classes, cfg.growth_rate, cfg.bottleneck_factor)
    out += struct.pack("<d", cfg.compression)
    out += struct.pack("<II", int(cfg.bn_enabled), cfg.input_size)
    out += struct.pack("<I", len(cfg.blocks))
    for n in cfg.blocks:
        out += struct.pack("<I", n)
    out += struct.pack("<I", len(cfg.streams))
    for name in cfg.streams:
        out += struct.pack("<I", _STREAM_CODES[name])
    flow = cfg.flow
    out += struct.pack("<IddII", flow.pyramid_levels, flow.scale, flow.alpha, flow.iterations,
                       PREPROCESS_VERSION)
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
            for spec in _layer_specs(node):
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

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]


def load_model(path) -> FusionModel:
    with open(path, "rb") as f:
        raw = f.read()
    r = _Reader(raw)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("not a model checkpoint", field="magic")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", field="version")
    num_classes, growth, bottleneck = r.u32(), r.u32(), r.u32()
    compression = r.f64()
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
    levels, scale, alpha, iterations = r.u32(), r.f64(), r.f64(), r.u32()
    maps_version = r.u32()
    if maps_version != PREPROCESS_VERSION:
        raise FormatError(f"checkpoint was trained on preprocess version {maps_version} maps, "
                          f"this build computes version {PREPROCESS_VERSION}",
                          field="preprocess_version")
    # a mutated pyramid or iteration count would otherwise spin the flow solver
    if (num_classes > 2**20 or growth > 2**16 or bottleneck > 2**16 or input_size > 2**16
            or levels > 2**16 or iterations > 2**16):
        raise FormatError("implausible checkpoint config values", field="config")
    try:
        config = ModelConfig(num_classes=num_classes, growth_rate=growth,
                             bottleneck_factor=bottleneck, compression=compression,
                             input_size=input_size, bn_enabled=bn_enabled,
                             blocks=blocks, streams=streams,
                             flow=FlowParams(pyramid_levels=levels, scale=scale, alpha=alpha,
                                             iterations=iterations))
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
