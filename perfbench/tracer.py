"""Span tracing of rtar's layers, installed from outside the program.

``Tracer.installed()`` rebinds rtar's public functions and layer methods
to timing wrappers and restores the originals on exit, so untraced runs
execute the unmodified program. A function is rebound in every rtar
module that holds it, which covers names other modules import (such as
``rtar.runtime.preprocess_pair`` or ``rtar.dataset.compute_flow``).

Each span records its id, its parent (the enclosing span on the same
thread, 0 for none), its root (the outermost span on that thread, which
groups the spans of one pair, sample or cached clip), the thread, the
metric key, start and end, conv flops, and for worker-thread spans the
thread's CPU time. Spans stay in memory until ``write``.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time


def _conv_key(direction):
    def key(layer, *args, **kwargs):
        kh = layer.params["w"].shape[0]
        return f"nn.conv{kh}x{kh}_{direction}"
    return key


def _conv_flops(layer, x, *args, **kwargs):
    """Multiply-adds x2 of one conv forward, from the tensor shapes
    (channel-last; leading axes before (H, W, C) count as a batch)."""
    kh, kw, cin, cout = layer.params["w"].shape
    p, s = layer.padding, layer.stride
    h, w = x.shape[-3:-1]
    ho = (h + 2 * p - kh) // s + 1
    wo = (w + 2 * p - kw) // s + 1
    return 2 * math.prod(x.shape[:-3]) * ho * wo * cout * kh * kw * cin


def _conv_bwd_flops(layer, dy, *args, **kwargs):
    """dx and dw each cost one forward's worth of multiply-adds."""
    kh, kw, cin, cout = layer.params["w"].shape
    ho, wo = dy.shape[-3:-1]
    return 4 * math.prod(dy.shape[:-3]) * ho * wo * cout * kh * kw * cin


# Keys whose spans also record the calling thread's CPU time, which
# separates running from waiting for the interpreter lock.
CPU_KEYS = {"dataset.cache_clip"}


def _targets():
    """(owner, attribute, metric key or key function, flop function, rebind).

    ``rebind`` False patches the owner only; a tuple patches every rtar
    module holding the same object except the modules it names."""
    from rtar import dataset, mediaio, network, runtime, synth
    from rtar.nn import layers
    from rtar.preprocess import flow, hog, pipeline, resize

    t = [
        # flow's pyramid resizes stay inside the flow span
        (resize, "resize_bilinear", "preprocess.resize", None, ("rtar.preprocess.flow",)),
        (flow, "compute_flow", "preprocess.flow", None, ()),
        (hog, "compute_hog", "preprocess.hog", None, ()),
        (hog, "render_hog", "preprocess.render", None, ()),
        (pipeline, "preprocess_pair", "preprocess.pair", None, ()),
        (mediaio, "read_frame", "mediaio.read_frame", None, ()),
        (mediaio, "read_flo", "mediaio.read_cache", None, ()),
        # read_pgm is read_ppm, which read_frame also calls: rebind the alias only
        (mediaio, "read_pgm", "mediaio.read_cache", None, False),
        (runtime, "buffer_poll", "runtime.poll", None, ()),
        (runtime.BoundedQueue, "get", "runtime.queue_wait", None, False),
        (runtime, "run_pipeline_offline", "runtime.run_offline", None, ()),
        (runtime, "run_pipeline_live", "runtime.run_live", None, ()),
        (network, "train", "network.train_step", None, ()),
        (network, "evaluate", "network.evaluate", None, ()),
        (network.FusionModel, "predict", "network.predict", None, False),
        (network, "save_model", "network.checkpoint", None, ()),
        (network, "load_model", "network.checkpoint", None, ()),
        (dataset, "_cache_one_clip", "dataset.cache_clip", None, False),
        (dataset, "precompute_cache", "dataset.precompute", None, ()),
        (dataset, "load_clip_samples", "dataset.load_samples", None, ()),
        (synth, "generate_synthetic", "synth.generate", None, ()),
        (layers.Conv2D, "forward", _conv_key("fwd"), _conv_flops, False),
        (layers.Conv2D, "backward", _conv_key("bwd"), _conv_bwd_flops, False),
        (layers.BatchNorm, "forward", "nn.bn_fwd", None, False),
        (layers.BatchNorm, "backward", "nn.other", None, False),
        (layers.SGDMomentum, "step", "nn.other", None, False),
        (network, "softmax_cross_entropy", "nn.other", None, ()),
        (network, "softmax", "nn.other", None, ()),
    ]
    for cls in (layers.ReLU, layers.AvgPool2, layers.GlobalAvgPool, layers.Dense):
        t.append((cls, "forward", "nn.other", None, False))
        t.append((cls, "backward", "nn.other", None, False))
    return t


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, thread, key, start, end, flops, cpu)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.measured_from = 0  # index of the first span of the measured loop

    def _wrap(self, fn, key, flops):
        spans, ids, local = self.spans, self._ids, self._local
        cpu = key in CPU_KEYS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            root = local.root if stack else sid
            if not stack:
                local.root = sid
            name = key(*args, **kwargs) if callable(key) else key
            n = flops(*args, **kwargs) if flops else 0
            stack.append(sid)
            c0 = thread_time() if cpu else 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c = thread_time() - c0 if cpu else 0.0
                stack.pop()
                spans.append((sid, parent, root, threading.get_ident(), name, t0, t1, n, c))

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = []
        rtar_modules = [m for name, m in list(sys.modules.items())
                        if name == "rtar" or name.startswith("rtar.")]
        try:
            for owner, attr, key, flops, rebind in _targets():
                original = owner.__dict__[attr]
                wrapped = self._wrap(original, key, flops)
                holders = [owner]
                if rebind is not False:
                    holders = [m for m in rtar_modules if m.__dict__.get(attr) is original
                               and m.__name__ not in rebind]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def self_times(self, since: int = 0) -> dict[str, tuple[float, int, int]]:
        """key -> (self seconds, calls, flops) over the spans ended after
        the first ``since``."""
        spans = self.spans[since:]
        child = defaultdict(float)
        for sid, parent, _root, _tid, _key, t0, t1, _n, _c in spans:
            if parent:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        for sid, _parent, _root, _tid, key, t0, t1, n, _c in spans:
            acc = out[key]
            acc[0] += (t1 - t0) - child[sid]
            acc[1] += 1
            acc[2] += n
        return {k: tuple(v) for k, v in out.items()}

    def total_time(self, key: str, roots_only: bool = False, since: int = 0) -> float:
        return sum(t1 - t0 for _sid, parent, _root, _tid, k, t0, t1, _n, _c in self.spans[since:]
                   if k == key and not (roots_only and parent))

    def total_cpu(self, key: str, since: int = 0) -> float:
        return sum(s[8] for s in self.spans[since:] if s[4] == key)

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON lines, preceded by one header line."""
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps(header) + "\n")
            for sid, parent, root, tid, key, t0, t1, n, c in sorted(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "root": root, "thread": tid,
                                    "name": key, "start": t0, "end": t1, "flops": n,
                                    "cpu": c}) + "\n")


# Per-layer metrics: every key below is reported on every workload, so a
# layer a workload bypasses reads zero calls.
TIMED_KEYS = (
    "nn.conv3x3_fwd", "nn.conv1x1_fwd", "nn.bn_fwd", "nn.other",
    "nn.conv3x3_bwd", "nn.conv1x1_bwd",
    "preprocess.resize", "preprocess.flow", "preprocess.hog", "preprocess.render",
    "preprocess.pair",
    "network.predict", "network.train_step",
    "runtime.poll", "runtime.queue_wait",
    "mediaio.read_frame", "mediaio.read_cache",
    "dataset.cache_clip",
)


# Waiting, not work: kept in measured seconds, where the others are in
# reference seconds.
WAIT_KEYS = {"runtime.queue_wait"}


def layer_metrics(tracer: Tracer, units: int, since: int, host_factor: float) -> dict[str, float]:
    """Self time per work unit (ms) and calls per unit for each timed key,
    plus conv work computed from tensor shapes, over the spans after
    ``since`` (the measured loop, not its set-up). Times of work are
    divided by ``host_factor``, as the end-to-end figures are."""
    st = tracer.self_times(since)
    out: dict[str, float] = {}
    for key in TIMED_KEYS:
        secs, calls, _ = st.get(key, (0.0, 0, 0))
        scale = 1.0 if key in WAIT_KEYS else host_factor
        out[f"{key}_ms"] = 1e3 * secs / units / scale
        out[f"{key}_calls"] = calls / units
    conv = [st[k] for k in st if k.startswith("nn.conv")]
    flops = sum(c[2] for c in conv)
    secs = sum(c[0] for c in conv) / host_factor
    out["nn.conv_gflop"] = flops / 1e9 / units
    out["nn.conv_gflops_per_s"] = flops / 1e9 / secs if secs else 0.0
    return out
