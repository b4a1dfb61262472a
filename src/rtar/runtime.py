"""Real-time loop: circular frame buffer, periodic polling, erroneous spans.

Per-frame predictions enter a fixed-capacity ring whose slots recycle
oldest-first. A poller tallies the buffered records at a regular
interval: records at or above the threshold confidence vote for their
class, plurality wins, and ties break toward the class of the most
recent above-threshold record. When no record clears the threshold for a
stipulated stretch of stream time, one erroneous-action event fires for
the whole low-confidence span.

Both pipelines poll on one schedule in stream time, set by the records'
own timestamps: a poll at every multiple of ``poll_interval``, each
seeing the records stamped at or before it, then a final poll at the
stream's end. Offline clip runs stamp sampled pairs from frame indices
and end at the clip duration, so their event logs are pure functions of
the inputs. Live mode feeds frames through a bounded drop-oldest queue
into one inference worker, stamps each pair with its first frame's
timestamp and ends at ``last_ts + 1/fps``; its log is deterministic
only while nothing is dropped.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import ContractViolationError
from .mediaio import read_clip_meta, read_frame
from .preprocess import PreprocessConfig, preprocess_pair, sample_frames


@dataclass(frozen=True)
class FrameRecord:
    timestamp: float
    class_id: int
    confidence: float


class Verdict(enum.Enum):
    CLASS = "class"
    NO_CONFIDENT = "noconfident"
    ERRONEOUS = "erroneous"


@dataclass(frozen=True)
class WindowDecision:
    verdict: Verdict
    class_id: Optional[int]
    poll_time: float
    vote_counts: dict[int, int]


@dataclass(frozen=True)
class ErroneousEvent:
    time: float


@dataclass(frozen=True)
class ErroneousState:
    """Tracks the running low-confidence span; edge-triggered."""

    last_confident_time: float = 0.0
    triggered: bool = False


@dataclass(frozen=True)
class RuntimeConfig:
    poll_interval: float = 0.5
    threshold_confidence: float = 0.0
    stipulated_time: float = 2.0
    window_seconds: float = 1.0
    fps: int = 30

    def __post_init__(self):
        for name in ("poll_interval", "stipulated_time", "window_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.poll_interval <= 0:
            raise ContractViolationError("poll_interval must be > 0")
        if self.stipulated_time < self.poll_interval:
            raise ContractViolationError("stipulated_time must be >= poll_interval")
        if not 0 <= self.threshold_confidence < 1:
            raise ContractViolationError("threshold_confidence must be in [0, 1)")
        if self.window_seconds <= 0 or self.fps < 1:
            raise ContractViolationError("window_seconds and fps must be positive")


class FrameBuffer:
    """Fixed-capacity ring of FrameRecords; eviction is strictly oldest-first.

    push and poll are each atomic with respect to the other, so one
    producer and one poller may run concurrently.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractViolationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque[FrameRecord] = deque(maxlen=capacity)
        self._last_timestamp = -np.inf
        self._lock = threading.Lock()

    def push(self, record: FrameRecord) -> None:
        with self._lock:
            if record.timestamp < self._last_timestamp:
                raise ContractViolationError(
                    f"timestamp {record.timestamp} decreases below {self._last_timestamp}"
                )
            self._last_timestamp = record.timestamp
            self._records.append(record)

    def records(self) -> list[FrameRecord]:
        """Snapshot in insertion order, oldest first."""
        with self._lock:
            return list(self._records)


def plurality_vote(
    records: Iterable[tuple[int, float]], threshold: float
) -> tuple[Optional[int], dict[int, int]]:
    """Tally (class_id, confidence) pairs given in temporal order.

    Returns (winner, counts) where counts covers only records with
    confidence >= threshold; ties break toward the class of the most
    recent above-threshold record among the tied classes. Winner is None
    when nothing clears the threshold.
    """
    counts: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    for order, (class_id, confidence) in enumerate(records):
        if confidence >= threshold:
            counts[class_id] = counts.get(class_id, 0) + 1
            last_seen[class_id] = order
    if not counts:
        return None, counts
    top = max(counts.values())
    tied = [c for c, n in counts.items() if n == top]
    winner = max(tied, key=lambda c: last_seen[c])
    return winner, counts


def buffer_push(buf: FrameBuffer, record: FrameRecord) -> None:
    buf.push(record)


def buffer_poll(buf: FrameBuffer, threshold: float, poll_time: float = 0.0) -> WindowDecision:
    snapshot = buf.records()
    winner, counts = plurality_vote(
        ((r.class_id, r.confidence) for r in snapshot), threshold
    )
    if winner is None:
        return WindowDecision(Verdict.NO_CONFIDENT, None, poll_time, counts)
    return WindowDecision(Verdict.CLASS, winner, poll_time, counts)


def update_erroneous(
    state: ErroneousState, decision: WindowDecision, config: RuntimeConfig
) -> tuple[ErroneousState, Optional[ErroneousEvent]]:
    """Advance the low-confidence span tracker by one poll.

    A confident decision resets the span; once consecutive low-confidence
    polls cover at least ``stipulated_time`` of stream time, exactly one
    event fires and nothing re-fires until the next confident decision.
    """
    if decision.verdict is Verdict.CLASS:
        return ErroneousState(last_confident_time=decision.poll_time, triggered=False), None
    span = decision.poll_time - state.last_confident_time
    if span >= config.stipulated_time - 1e-9 and not state.triggered:
        return replace(state, triggered=True), ErroneousEvent(decision.poll_time)
    return state, None


class _Poller:
    """The one pair step and the one poll step, for both pipelines.

    Polls fall at k * poll_interval in stream time. ``classify`` polls
    every mark before its pair's timestamp, then pushes the pair's record,
    so a poll at mark m sees exactly the records stamped at or before m.
    The ring holds one window of records arriving at ``rate`` per second.
    """

    def __init__(self, rate: float, config: RuntimeConfig, model, pre_config: PreprocessConfig):
        self.buf = FrameBuffer(max(1, round(rate * config.window_seconds)))
        self.config, self.model, self.pre_config = config, model, pre_config
        self.state = ErroneousState()
        self.lines: list[str] = []
        self.k = 1

    def _poll(self, t: float) -> None:
        """Poll the buffer at stream time t; log the POLL line, then an
        ERRONEOUS line when a low-confidence span completes."""
        decision = buffer_poll(self.buf, self.config.threshold_confidence, t)
        self.state, event = update_erroneous(self.state, decision, self.config)
        # a confident decision clears triggered, so only a low poll reads erroneous
        verdict = Verdict.ERRONEOUS if self.state.triggered else decision.verdict
        class_part = "-" if decision.class_id is None else str(decision.class_id)
        votes = ",".join(f"{c}={n}" for c, n in sorted(decision.vote_counts.items())) or "-"
        self.lines.append(f"POLL\t{t:.3f}\t{verdict.value}\t{class_part}\t{votes}")
        if event is not None:
            self.lines.append(f"ERRONEOUS\t{event.time:.3f}")

    def _poll_marks(self, due: Callable[[float], bool]) -> None:
        while due(mark := self.k * self.config.poll_interval):
            self._poll(mark)
            self.k += 1

    def classify(self, t: float, prev_frame: np.ndarray, next_frame: np.ndarray) -> None:
        """Predict one frame pair and record it at stream time t."""
        rgb, flow, hog = preprocess_pair(prev_frame, next_frame, self.pre_config)
        pred = self.model.predict(rgb, flow, hog)
        self._poll_marks(lambda mark: mark < t)
        self.buf.push(FrameRecord(timestamp=t, class_id=pred.class_id, confidence=pred.confidence))

    def finish(self, end: float) -> list[str]:
        """Poll the marks up to ``end``, then once more at ``end``; returns the log."""
        self._poll_marks(lambda mark: mark <= end + 1e-9)
        self._poll(end)
        return self.lines


# ---------------------------------------------------------------------------
# Offline (virtual-time) pipeline
# ---------------------------------------------------------------------------

def run_pipeline_offline(
    clip_dir: str | os.PathLike,
    model,
    config: RuntimeConfig = RuntimeConfig(),
    pre_config: PreprocessConfig = PreprocessConfig(),
) -> list[str]:
    """Classify a clip directory in virtual time; returns the event log lines.

    Frames are sampled per the preprocess config; each sampled pair is
    predicted and pushed with timestamp i/fps. The poller fires at every
    multiple of poll_interval up to the clip duration, then once more
    after source exhaustion. The buffer holds one window of the
    prediction stream (sample rate x window_seconds slots).
    """
    meta = read_clip_meta(os.path.join(clip_dir, "clip.meta"))
    sample_fps = pre_config.sample_frames_per_second
    poller = _Poller(sample_fps, config, model, pre_config)
    for i, j in sample_frames(meta, sample_fps, pre_config.rng_seed):
        poller.classify(i / meta.fps, read_frame(clip_dir, i, meta), read_frame(clip_dir, j, meta))
    return poller.finish(meta.duration_s)


# ---------------------------------------------------------------------------
# Live pipeline
# ---------------------------------------------------------------------------

class BoundedQueue:
    """Bounded FIFO that drops its oldest item instead of blocking the producer.

    Consumers block on get(); close() wakes them with None once drained.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ContractViolationError("queue maxsize must be >= 1")
        self.maxsize = maxsize
        self.dropped = 0
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, item) -> None:
        with self._cond:
            if self._closed:
                raise ContractViolationError("put on a closed queue")
            if len(self._items) >= self.maxsize:
                self._items.popleft()
                self.dropped += 1
            self._items.append(item)
            self._cond.notify()

    def get(self):
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if self._items:
                return self._items.popleft()
            return None  # closed and drained

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def run_pipeline_live(
    frames: Iterator[tuple[float, np.ndarray]],
    model,
    config: RuntimeConfig = RuntimeConfig(),
    pre_config: PreprocessConfig = PreprocessConfig(),
    queue_size: int = 8,
) -> tuple[list[str], int]:
    """Stream pipeline: frames -> bounded queue -> inference worker -> poller.

    ``frames`` yields (timestamp, HxWx3 uint8) and is read on the caller's
    thread; one worker thread infers each consecutive pair it takes off
    the queue. If inference lags, the oldest queued frames are dropped;
    the drop count is returned alongside the event lines. Polls follow
    the frame timestamps, and the final poll falls at ``last_ts + 1/fps``.
    An inference exception closes the queue, which stops the reading of
    frames, and is re-raised here once the worker has been joined; an
    exception from ``frames`` propagates.
    """
    queue = BoundedQueue(queue_size)
    poller = _Poller(config.fps, config, model, pre_config)
    failures: list[Exception] = []

    def infer():
        prev = None
        try:
            while (item := queue.get()) is not None:
                if prev is not None:
                    poller.classify(prev[0], prev[1], item[1])
                prev = item
        except Exception as exc:  # re-raised on the caller's thread after join
            failures.append(exc)
            queue.close()

    worker = threading.Thread(target=infer, daemon=True)
    worker.start()
    end = 0.0
    try:
        for ts, frame in frames:
            queue.put((ts, frame))  # refused once a failed worker has closed the queue
            end = ts + 1 / config.fps
    finally:
        queue.close()
        worker.join()
        if failures:
            raise failures[0]  # wins over the put the closed queue refused
    return poller.finish(end), queue.dropped
