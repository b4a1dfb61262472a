"""The four rtar workloads: inputs from ``rtar.synth``, the measured loop,
and the output checks.

Every workload reports the same end-to-end names (see README.md for what
each means on each workload) plus workload-specific figures. Inputs come
only from ``rtar.synth`` under the seed the benchmark is given; the
program under test sees only the generated files. Each loop ticks the
host clock between pieces of work and keeps its measured spans as (start,
end); the figures convert them to reference seconds (``hostclock``) at the
end, when every tick around them is known.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from rtar import dataset, mediaio, network, runtime, synth
from rtar.preprocess import FlowParams, PreprocessConfig, preprocess_pair, resize_bilinear, sample_frames

POLL_RE = re.compile(
    r"POLL\t\d+\.\d{3}\t(class\t\d+|noconfident\t-|erroneous\t-)\t(-|\d+=\d+(,\d+=\d+)*)"
)
ERRONEOUS_RE = re.compile(r"ERRONEOUS\t\d+\.\d{3}")


class Checks:
    """Named output checks: name -> [passed, failed]."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool) -> None:
        self.counts.setdefault(name, [0, 0])[0 if ok else 1] += 1

    @property
    def attempted(self) -> int:
        return sum(p + f for p, f in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


@dataclass
class PhaseResult:
    """What one measured phase produced."""

    pairs_per_s: float
    pair_ms: float
    units: int                      # work units, the denominator of per-layer metrics
    named: dict[str, float]         # the workload's own end-to-end figures
    layer: dict[str, float]         # per-layer figures the workload measures itself


def log_lines_parse(lines: list[str]) -> bool:
    return bool(lines) and all(POLL_RE.fullmatch(l) or ERRONEOUS_RE.fullmatch(l) for l in lines)


def expected_polls(duration: float, interval: float) -> int:
    """One POLL per interval up to the clip duration, plus the final poll."""
    k = 0
    while (k + 1) * interval <= duration + 1e-9:
        k += 1
    return k + 1


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _p(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def _loop(seconds: float, step, clock, must_continue=lambda: False, ticks: int = 0):
    """Run ``step`` until the deadline, ticking the host clock ``ticks``
    times after each step (when due, if 0), and stop where the next step
    would overshoot the deadline by more than half its mean duration."""
    start = perf_counter()
    n = 0
    while True:
        step()
        if ticks:
            clock.tick(ticks)
        else:
            clock.maybe_tick()
        n += 1
        elapsed = perf_counter() - start
        if must_continue():
            continue
        if elapsed + 0.5 * elapsed / n >= seconds:
            return


def _wrap_model(model, stamps: list, clock=None):
    """Model wrapper that timestamps every prediction's return, then ticks
    ``clock`` when one is given."""

    class Timed:
        def predict(self, rgb, flow, hog):
            pred = model.predict(rgb, flow, hog)
            stamps.append((perf_counter(), rgb))
            if clock:
                clock.maybe_tick()
            return pred

    return Timed()


def _ckpt_model(cfg: network.ModelConfig, seed: int, work: str) -> network.FusionModel:
    """A random-init model that has been through save_model/load_model."""
    path = os.path.join(work, "model.ckpt")
    network.save_model(network.FusionModel(cfg, seed=seed), path)
    return network.load_model(path)


# ---------------------------------------------------------------------------
# clip_run_112: offline clip -> event log at the CLI defaults
# ---------------------------------------------------------------------------

class ClipRun:
    unit = "pair"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        res, size = (64, 32) if smoke else (224, 112)
        self.synth = synth.SynthConfig(num_classes=1, motions=("cw",), clips_per_class=1,
                                       fps=8, duration_s=1.0, resolution=res, groups=2)
        flow = FlowParams(pyramid_levels=2, iterations=5) if smoke else FlowParams()
        self.pre = PreprocessConfig(target_size=size, sample_frames_per_second=3, flow=flow,
                                    rng_seed=seed)
        self.model_cfg = network.ModelConfig(
            num_classes=4, growth_rate=2 if smoke else 12, blocks=(1, 1) if smoke else (4, 4),
            input_size=size, bn_enabled=True)
        self.rt = runtime.RuntimeConfig()
        self.reference: list[str] | None = None  # first log of the process

    def setup(self, work: str):
        result = synth.generate_synthetic(self.synth, seed=self.seed, out_dir=os.path.join(work, "clips"))
        clip = os.path.join(result.out_dir, result.clip_names[0])
        return clip, _ckpt_model(self.model_cfg, self.seed, work)

    def measure(self, state, seconds: float, checks: Checks, clock, tracer=None) -> PhaseResult:
        clip, model = state
        meta = mediaio.read_clip_meta(os.path.join(clip, "clip.meta"))
        n_pairs = len(sample_frames(meta, self.pre.sample_frames_per_second, self.pre.rng_seed))
        pairs: list[tuple[float, float]] = []
        passes: list[tuple[float, float]] = []

        def one_pass():
            stamps: list = []
            t0 = perf_counter()
            lines = runtime.run_pipeline_offline(clip, _wrap_model(model, stamps, clock), self.rt, self.pre)
            passes.append((t0, perf_counter()))
            ends = [t for t, _ in stamps]
            pairs.extend(zip([t0] + ends, ends))
            checks.record("log_parses", log_lines_parse(lines))
            polls = sum(l.startswith("POLL\t") for l in lines)
            checks.record("poll_count", polls == expected_polls(meta.duration_s, self.rt.poll_interval))
            checks.record("pairs_per_pass", len(stamps) == n_pairs)
            if self.reference is None:
                self.reference = lines
            else:
                checks.record("log_repeats", lines == self.reference)

        _loop(seconds, one_pass, clock, lambda: "log_repeats" not in checks.counts)
        rate = _rate(n_pairs * len(passes), sum(clock.ref(*p) for p in passes))
        pair_s = [clock.ref(*p) for p in pairs]
        return PhaseResult(pairs_per_s=rate, pair_ms=1e3 * statistics.fmean(pair_s),
                           units=n_pairs * len(passes),
                           named={"pairs_per_s": rate, "pair_ms_p50": 1e3 * statistics.median(pair_s)},
                           layer={})


# ---------------------------------------------------------------------------
# train_32: network.train then network.evaluate, criterion-1 configuration
# ---------------------------------------------------------------------------

class _StepTimer:
    """Model wrapper timing each training sample (forward to end of
    backward), ticking ``clock`` between samples."""

    def __init__(self, model, steps: list, clock):
        self._model, self._steps, self._clock, self._t0 = model, steps, clock, 0.0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def forward_logits(self, *args, **kwargs):
        self._t0 = perf_counter()
        return self._model.forward_logits(*args, **kwargs)

    def backward_from_logits(self, dlogits):
        self._model.backward_from_logits(dlogits)
        self._steps.append((self._t0, perf_counter()))
        self._clock.maybe_tick()


class Train:
    unit = "training sample"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.synth = synth.SynthConfig(num_classes=4, clips_per_class=2 if smoke else 4, fps=8,
                                       duration_s=1.0 if smoke else 2.0, resolution=64, groups=2)
        flow = FlowParams(pyramid_levels=2, iterations=5) if smoke else FlowParams(pyramid_levels=3, iterations=30)
        self.pre = PreprocessConfig(target_size=32, sample_frames_per_second=2, flow=flow,
                                    rng_seed=seed)
        self.model_cfg = network.ModelConfig(
            num_classes=4, growth_rate=2 if smoke else 6, blocks=(1, 1) if smoke else (2, 2),
            compression=0.5, input_size=32, bn_enabled=False)
        self.hyper = network.TrainConfig(lr=0.05, momentum=0.9, epochs=2 if smoke else 4,
                                         batch=8, seed=seed)
        self.reference: list[float] | None = None

    def setup(self, work: str):
        result = synth.generate_synthetic(self.synth, seed=self.seed, out_dir=os.path.join(work, "clips"))
        labels = dataset.read_labels(result.labels_path)
        train = dataset.load_clip_samples(result.out_dir, result.manifest.train, labels, self.pre)
        test = dataset.load_clip_samples(result.out_dir, result.manifest.test, labels, self.pre)
        return dataset.flatten_samples(train), test

    def measure(self, state, seconds: float, checks: Checks, clock, tracer=None) -> PhaseResult:
        samples, test = state
        steps: list[tuple[float, float]] = []
        trains: list[tuple[float, float]] = []
        evals: list[tuple[float, float]] = []
        eval_pairs = sum(len(c.pairs) for c in test)

        def one_cycle():
            model = network.FusionModel(self.model_cfg, seed=self.seed)
            t0 = perf_counter()
            history = network.train(_StepTimer(model, steps, clock), samples, self.hyper)
            t1 = perf_counter()
            report = network.evaluate(model, test)
            t2 = perf_counter()
            trains.append((t0, t1))
            evals.append((t1, t2))
            checks.record("losses_finite", all(math.isfinite(x) for x in history))
            checks.record("loss_decreases", history[-1] < history[0])
            checks.record("eval_complete", report.clip_count == len(test) and 0 <= report.accuracy <= 1)
            if self.reference is None:
                self.reference = history
            else:
                checks.record("history_repeats", history == self.reference)

        _loop(seconds, one_cycle, clock)
        trained = len(samples) * self.hyper.epochs * len(trains)
        rate = _rate(trained, sum(clock.ref(*t) for t in trains))
        return PhaseResult(
            pairs_per_s=rate,
            pair_ms=1e3 * statistics.fmean(clock.ref(*t) for t in steps),
            units=trained,
            named={"samples_per_s": rate,
                   "eval_pairs_per_s": _rate(eval_pairs * len(evals), sum(clock.ref(*t) for t in evals))},
            layer={},
        )


# ---------------------------------------------------------------------------
# cache_112: precompute_cache cold, warm, then reload from the cache
# ---------------------------------------------------------------------------

class Cache:
    unit = "cached pair"
    reloads = 5  # reload passes per cycle; one pass is too short to time alone

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        res, size = (64, 32) if smoke else (224, 112)
        self.synth = synth.SynthConfig(num_classes=4, clips_per_class=1 if smoke else 2, fps=8,
                                       duration_s=1.0, resolution=res, groups=2)
        flow = FlowParams(pyramid_levels=2, iterations=5) if smoke else FlowParams()
        self.pre = PreprocessConfig(target_size=size, sample_frames_per_second=3, flow=flow,
                                    rng_seed=seed)
        self.threads = len(os.sched_getaffinity(0))
        self.rng = np.random.default_rng(seed)

    def setup(self, work: str):
        result = synth.generate_synthetic(self.synth, seed=self.seed, out_dir=os.path.join(work, "clips"))
        labels = dataset.read_labels(result.labels_path)
        return result.out_dir, sorted(labels), labels, work

    @staticmethod
    def _index_rows(out: str) -> list[list[str]]:
        with open(os.path.join(out, "cache.index"), encoding="ascii") as f:
            return [line.rstrip("\n").split("\t") for line in f]

    def _index_resolves(self, out: str, names, n_pairs: int) -> bool:
        rows = self._index_rows(out)
        return (len(rows) == n_pairs and {r[0] for r in rows} == set(names)
                and all(len(r) == 4 and r[1] != "FAILED"
                        and os.path.isfile(os.path.join(out, r[2]))
                        and os.path.isfile(os.path.join(out, r[3])) for r in rows))

    def _matches_preprocess(self, clips: str, out: str, name: str) -> bool:
        """One cached pair against a fresh preprocess_pair: HOG exactly,
        flow within float32 tolerance."""
        clip = os.path.join(clips, name)
        meta = mediaio.read_clip_meta(os.path.join(clip, "clip.meta"))
        pairs = sample_frames(meta, self.pre.sample_frames_per_second, self.pre.rng_seed)
        k = int(self.rng.integers(len(pairs)))
        i, j = pairs[k]
        _, flow, hog = preprocess_pair(mediaio.read_frame(clip, i, meta),
                                       mediaio.read_frame(clip, j, meta), self.pre)
        flo_name, pgm_name = dataset.cache_names(name, k)
        cached_flow = mediaio.read_flo(os.path.join(out, flo_name))
        cached_hog = mediaio.read_pgm(os.path.join(out, pgm_name))
        return (np.array_equal(cached_hog.astype(np.float32)[:, :, None] / np.float32(255), hog)
                and np.allclose(cached_flow, flow, rtol=1e-5, atol=1e-4))

    def _alter_one(self, out: str) -> dict:
        """Rewrite one cached pair with values no recomputation gives (flow
        + 1, HOG inverted) and return the (flow, hog) of every cached pair,
        keyed by (clip, pair index): what a reload that reads the cache
        returns, and a reload that recomputes does not."""
        rows = self._index_rows(out)
        pick = int(self.rng.integers(len(rows)))
        cached = {}
        for n, (name, k, flo_name, pgm_name) in enumerate(rows):
            flo_path, pgm_path = os.path.join(out, flo_name), os.path.join(out, pgm_name)
            flow, hog = mediaio.read_flo(flo_path), mediaio.read_pgm(pgm_path)
            if n == pick:
                flow, hog = flow + np.float32(1), 255 - hog
                mediaio.write_flo(flow, flo_path)
                mediaio.write_pgm(hog, pgm_path)
            cached[name, int(k)] = flow, (hog.astype(np.float32) / np.float32(255))[:, :, None]
        return cached

    @staticmethod
    def _reload_matches(run, cached: dict) -> bool:
        got = {(c.name, k): (flow, hog) for c in run for k, (_, flow, hog) in enumerate(c.pairs)}
        return got.keys() == cached.keys() and all(
            np.array_equal(got[key][0], flow) and np.array_equal(got[key][1], hog)
            for key, (flow, hog) in cached.items())

    def measure(self, state, seconds: float, checks: Checks, clock, tracer=None) -> PhaseResult:
        clips, names, labels, work = state
        n_pairs = sum(len(sample_frames(mediaio.read_clip_meta(os.path.join(clips, n, "clip.meta")),
                                        self.pre.sample_frames_per_second, self.pre.rng_seed))
                      for n in names)
        cycles: list[tuple] = []  # (cold, warm, reload) spans
        written = produced = warm_flows = 0
        cycle = 0

        def one_cycle():
            nonlocal written, produced, warm_flows, cycle
            out = os.path.join(work, f"cache{cycle}")
            cycle += 1
            t0 = perf_counter()
            cold = dataset.precompute_cache(clips, names, self.pre, out, threads=self.threads)
            t1 = perf_counter()
            checks.record("cold_index_resolves", not cold.failures and self._index_resolves(out, names, n_pairs))
            clock.tick(3)
            before = len(tracer.spans) if tracer else 0
            t2 = perf_counter()
            warm = dataset.precompute_cache(clips, names, self.pre, out, threads=self.threads)
            t3 = perf_counter()
            if tracer:
                warm_flows += sum(s[4] == "preprocess.flow" for s in tracer.spans[before:])
                before = len(tracer.spans)
            checks.record("cold_writes_all", cold.written == 2 * n_pairs)
            checks.record("warm_index_resolves", not warm.failures and self._index_resolves(out, names, n_pairs))
            checks.record("warm_writes_none", warm.written == 0)
            name = names[int(self.rng.integers(len(names)))]
            checks.record("cache_matches_preprocess", self._matches_preprocess(clips, out, name))
            cached = self._alter_one(out)
            if tracer:
                del tracer.spans[before:]  # the checks' own rtar calls are not measured work
            clock.tick(3)
            t4 = perf_counter()
            loaded = [dataset.load_clip_samples(clips, names, labels, self.pre, cache_dir=out)
                      for _ in range(self.reloads)]
            t5 = perf_counter()
            checks.record("reload_reads_cache", all(self._reload_matches(run, cached) for run in loaded))
            cycles.append(((t0, t1), (t2, t3), (t4, t5)))
            written += cold.written + warm.written
            produced += cold.written + cold.skipped + warm.written + warm.skipped
            shutil.rmtree(out)

        _loop(seconds, one_cycle, clock, ticks=3)
        layer = {"dataset.written_share": written / produced}
        if tracer:
            layer["dataset.warm_recompute_share"] = warm_flows / (n_pairs * len(cycles))
        done = n_pairs * len(cycles)
        cold_s, warm_s, reload_s = (sum(clock.ref(*c[k]) for c in cycles) for k in range(3))
        rates = {"cold_pairs_per_s": _rate(done, cold_s),
                 "warm_pairs_per_s": _rate(done, warm_s),
                 "reload_pairs_per_s": _rate(done * self.reloads, reload_s)}
        return PhaseResult(
            # every phase's relative change counts a third
            pairs_per_s=math.prod(rates.values()) ** (1 / 3),
            # one pair through cold, warm and one reload pass
            pair_ms=1e3 * (cold_s + warm_s + reload_s / self.reloads) / done,
            units=done,
            named=rates,
            layer=layer,
        )


# ---------------------------------------------------------------------------
# live_32: open-loop replay at a fixed frame rate into run_pipeline_live
# ---------------------------------------------------------------------------

class Live:
    unit = "inferred pair"
    fps = 24
    session_s = 3.0     # length of one live session
    ticks_between = 5   # host-clock ticks after each session

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        flow = FlowParams(pyramid_levels=2, iterations=5) if smoke else FlowParams(pyramid_levels=3, iterations=30)
        self.pre = PreprocessConfig(target_size=32, sample_frames_per_second=2, flow=flow,
                                    rng_seed=seed)
        self.model_cfg = network.ModelConfig(
            num_classes=4, growth_rate=2 if smoke else 6, blocks=(1, 1) if smoke else (2, 2),
            compression=0.5, input_size=32, bn_enabled=False)
        # the smoke model keeps up with 24 fps, so smoke replays faster to
        # still overload the queue and exercise dropping
        self.rate = 480 if smoke else self.fps
        self.rt = runtime.RuntimeConfig(fps=self.fps)
        self.clip_s = 1.0 if smoke else 4.0

    def setup(self, work: str):
        # cw rotation turns less than a full circle in the clip (one turn takes
        # ~4.5 s), so each frame's resized rgb identifies it
        cfg = synth.SynthConfig(num_classes=1, motions=("cw",), clips_per_class=1, fps=self.fps,
                                duration_s=self.clip_s, resolution=64, groups=2)
        result = synth.generate_synthetic(cfg, seed=self.seed, out_dir=os.path.join(work, "clips"))
        clip = os.path.join(result.out_dir, result.clip_names[0])
        _, frames = mediaio.read_clip(clip)
        frames = list(frames)
        s = self.pre.target_size
        keys = {resize_bilinear(f, s, s).tobytes(): i for i, f in enumerate(frames)}
        return frames, keys, _ckpt_model(self.model_cfg, self.seed, work)

    def _session(self, frames, keys, model, n_frames: int, checks: Checks):
        """One live session of ``n_frames`` frames; returns its (start,
        end), prediction count, drops, latencies and generator lateness."""
        period = 1.0 / self.rate
        late: list[float] = []
        stamps: list = []
        start = [0.0]

        def replay():
            # loops over the clip; frame k of the session shows clip frame k % len
            start[0] = t0 = perf_counter()
            for k in range(n_frames):
                due = t0 + k * period
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                late.append(perf_counter() - due)
                yield k * period, frames[k % len(frames)]

        t0 = perf_counter()
        lines, dropped = runtime.run_pipeline_live(replay(), _wrap_model(model, stamps), self.rt, self.pre)
        t1 = perf_counter()

        # match each prediction to the session frame that opened its pair
        order, matched = [], True
        for _, rgb in stamps:
            clip_index = keys.get(np.rint(rgb * 255).astype(np.uint8).tobytes())
            if clip_index is None:
                matched = False
                break
            base = order[-1] + 1 if order else 0
            k = base + (clip_index - base) % len(frames)
            order.append(k)
        inferred = len(stamps)
        checks.record("frames_accounted", inferred + dropped + 1 == n_frames)
        checks.record("log_parses", log_lines_parse(lines))
        checks.record("predictions_matched", matched and len(order) == inferred)
        # a pair's second frame is the next pair's first; the last pair ends
        # on the final frame, which drop-oldest never discards
        second_frame = order[1:] + [n_frames - 1]
        lat_ms = [1e3 * (t - start[0] - k * period) for (t, _), k in zip(stamps, second_frame)]
        return (t0, t1), inferred, dropped, lat_ms, late

    def measure(self, state, seconds: float, checks: Checks, clock, tracer=None) -> PhaseResult:
        """Sessions of about ``session_s`` with the host clock ticked between
        them: ticking inside a session would steal the pipeline's CPU."""
        frames, keys, model = state
        checks.record("frames_distinct", len(keys) == len(frames))
        sessions = max(1, round(seconds / self.session_s))
        n_frames = max(2, round(seconds / sessions * self.rate))
        spans: list[tuple[float, float]] = []
        inferred = dropped = 0
        lat_ms: list[float] = []
        late: list[float] = []
        for _ in range(sessions):
            span, i, d, lat, gen = self._session(frames, keys, model, n_frames, checks)
            spans.append(span)
            inferred += i
            dropped += d
            lat_ms += lat
            late += gen
            clock.tick(self.ticks_between)
        rate = _rate(inferred, sum(clock.ref(*span) for span in spans))
        sent = n_frames * sessions
        return PhaseResult(
            pairs_per_s=rate,
            # not in reference seconds: a full drop-oldest queue sets most of it
            pair_ms=_p(lat_ms, 50),
            units=max(1, inferred),
            named={"latency_ms_p50": _p(lat_ms, 50), "latency_ms_p95": _p(lat_ms, 95),
                   "drop_share": (sent - inferred) / sent,
                   "inferred_per_s": rate},
            layer={"runtime.dropped": float(dropped),
                   "runtime.gen_late_ms_p95": _p([1e3 * x for x in late], 95)},
        )


WORKLOADS = {"clip_run_112": ClipRun, "train_32": Train, "cache_112": Cache, "live_32": Live}
