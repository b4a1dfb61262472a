import threading
import time
from collections import deque

import numpy as np
import pytest

from rtar import mediaio, runtime
from rtar.errors import ContractViolationError, FormatError
from rtar.network import Prediction
from rtar.preprocess import FlowParams, PreprocessConfig
from rtar.runtime import (
    BoundedQueue,
    ErroneousState,
    FrameBuffer,
    FrameRecord,
    RuntimeConfig,
    Verdict,
    WindowDecision,
    buffer_poll,
    buffer_push,
    update_erroneous,
)


def rec(t, cls, conf=0.9):
    return FrameRecord(timestamp=t, class_id=cls, confidence=conf)


class TestFrameBuffer:
    def test_push_into_empty(self):
        buf = FrameBuffer(4)
        buffer_push(buf, rec(0.0, 1))
        assert len(buf.records()) == 1

    def test_fcfs_eviction(self):
        buf = FrameBuffer(3)
        for i in range(4):
            buffer_push(buf, rec(float(i), i))
        kept = [r.class_id for r in buf.records()]
        assert kept == [1, 2, 3]

    def test_rejects_decreasing_timestamp(self):
        buf = FrameBuffer(3)
        buffer_push(buf, rec(1.0, 0))
        with pytest.raises(ContractViolationError):
            buffer_push(buf, rec(0.5, 0))

    def test_matches_fifo_oracle(self, rng):
        buf = FrameBuffer(7)
        oracle = deque(maxlen=7)
        t = 0.0
        for _ in range(10_000):
            t += float(rng.random())
            r = rec(t, int(rng.integers(0, 5)), float(rng.random()))
            buffer_push(buf, r)
            oracle.append(r)
        assert buf.records() == list(oracle)

    def test_concurrent_push_and_poll(self):
        buf = FrameBuffer(16)
        errors = []

        def producer():
            try:
                for i in range(5000):
                    buffer_push(buf, rec(float(i), i % 3))
            except Exception as e:  # pragma: no cover
                errors.append(e)

        def poller():
            try:
                for _ in range(2000):
                    decision = buffer_poll(buf, 0.5)
                    assert sum(decision.vote_counts.values()) <= 16
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=producer), threading.Thread(target=poller)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestBufferPoll:
    def test_plurality(self):
        buf = FrameBuffer(8)
        for t, c in [(0.0, 0), (0.1, 0), (0.2, 1)]:
            buffer_push(buf, rec(t, c, 0.9))
        decision = buffer_poll(buf, 0.5)
        assert decision.verdict is Verdict.CLASS
        assert decision.class_id == 0
        assert decision.vote_counts == {0: 2, 1: 1}

    def test_all_below_threshold(self):
        buf = FrameBuffer(8)
        for t in range(3):
            buffer_push(buf, rec(float(t), 1, 0.3))
        decision = buffer_poll(buf, 0.5)
        assert decision.verdict is Verdict.NO_CONFIDENT
        assert decision.class_id is None
        assert decision.vote_counts == {}

    def test_tie_breaks_to_most_recent(self):
        buf = FrameBuffer(8)
        buffer_push(buf, rec(1.0, 0, 0.9))
        buffer_push(buf, rec(2.0, 1, 0.9))
        decision = buffer_poll(buf, 0.5)
        assert decision.class_id == 1

    def test_empty_buffer(self):
        decision = buffer_poll(FrameBuffer(4), 0.5)
        assert decision.verdict is Verdict.NO_CONFIDENT

    def test_matches_recount_oracle(self, rng):
        for trial in range(300):
            buf = FrameBuffer(int(rng.integers(1, 12)))
            n = int(rng.integers(0, 30))
            t = 0.0
            pushed = []
            for _ in range(n):
                t += float(rng.random())
                r = rec(t, int(rng.integers(0, 4)), float(rng.random()))
                buffer_push(buf, r)
                pushed.append(r)
            threshold = float(rng.random())
            decision = buffer_poll(buf, threshold)

            retained = pushed[-buf.capacity:]
            votes = [r for r in retained if r.confidence >= threshold]
            if not votes:
                assert decision.verdict is Verdict.NO_CONFIDENT
                continue
            counts = {}
            for r in votes:
                counts[r.class_id] = counts.get(r.class_id, 0) + 1
            best = max(counts.values())
            tied = [c for c, k in counts.items() if k == best]
            winner = max(tied, key=lambda c: max(i for i, r in enumerate(votes) if r.class_id == c))
            assert decision.class_id == winner
            assert decision.vote_counts == counts


def poll_decision(verdict, t, cls=None):
    return WindowDecision(verdict=verdict, class_id=cls, poll_time=t, vote_counts={})


class TestErroneous:
    CFG = RuntimeConfig(poll_interval=0.5, stipulated_time=2.0)

    def test_event_on_fourth_low_poll(self):
        state = ErroneousState()
        events = []
        for k in range(1, 5):
            state, event = update_erroneous(
                state, poll_decision(Verdict.NO_CONFIDENT, 0.5 * k), self.CFG
            )
            events.append(event)
        assert events[:3] == [None, None, None]
        assert events[3] is not None
        assert events[3].time == pytest.approx(2.0)

    def test_confident_decision_resets(self):
        state = ErroneousState()
        for k in range(1, 4):
            state, event = update_erroneous(
                state, poll_decision(Verdict.NO_CONFIDENT, 0.5 * k), self.CFG
            )
            assert event is None
        state, event = update_erroneous(
            state, poll_decision(Verdict.CLASS, 2.0, cls=1), self.CFG
        )
        assert event is None
        assert state.last_confident_time == 2.0
        state, event = update_erroneous(
            state, poll_decision(Verdict.NO_CONFIDENT, 2.5), self.CFG
        )
        assert event is None

    def test_no_reemission_within_span(self):
        state = ErroneousState()
        emitted = 0
        for k in range(1, 12):
            state, event = update_erroneous(
                state, poll_decision(Verdict.NO_CONFIDENT, 0.5 * k), self.CFG
            )
            emitted += event is not None
        assert emitted == 1

    def test_threshold_zero_never_fires(self):
        # with threshold 0 every record votes, so polls with any records are
        # confident; feed only confident decisions
        state = ErroneousState()
        for k in range(1, 20):
            state, event = update_erroneous(
                state, poll_decision(Verdict.CLASS, 0.5 * k, cls=0), self.CFG
            )
            assert event is None

    def test_poll_once_logs_each_poll_and_the_span_event_once(self):
        config = RuntimeConfig(threshold_confidence=0.8, stipulated_time=1.0)
        poller = runtime._Poller(2, config, None, PreprocessConfig())  # a 2-slot ring
        poller.buf.push(rec(0.0, 3, conf=0.4))
        for t in (0.5, 1.0, 1.5):
            poller._poll(t)
        assert poller.lines == ["POLL\t0.500\tnoconfident\t-\t-",
                                "POLL\t1.000\terroneous\t-\t-", "ERRONEOUS\t1.000",
                                "POLL\t1.500\terroneous\t-\t-"]
        poller.buf.push(rec(1.6, 3))
        poller._poll(2.0)
        assert poller.lines[-1] == "POLL\t2.000\tclass\t3\t3=1"
        assert poller.state == ErroneousState(last_confident_time=2.0, triggered=False)


class _ScriptedModel:
    """Predicts a fixed class with fixed confidence, ignoring inputs."""

    def __init__(self, class_id=1, confidence=0.9, num_classes=4):
        self.class_id, self.confidence, self.num_classes = class_id, confidence, num_classes
        self.calls = 0

    def predict(self, rgb, flow, hog):
        self.calls += 1
        probs = np.full(self.num_classes, (1 - self.confidence) / (self.num_classes - 1))
        probs[self.class_id] = self.confidence
        return Prediction(self.class_id, self.confidence, probs)


def _make_clip(tmp_path, seconds=2, fps=30, size=16, seed=0):
    rng = np.random.default_rng(seed)
    frames = [rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
              for _ in range(seconds * fps)]
    meta = mediaio.ClipMeta(fps=fps, width=size, height=size, frame_count=seconds * fps)
    clip = tmp_path / "clip"
    mediaio.write_clip(frames, meta, clip)
    return clip


FAST_PRE = PreprocessConfig(target_size=16, sample_frames_per_second=2,
                            flow=FlowParams(pyramid_levels=2, iterations=8))


class TestOfflinePipeline:
    def test_poll_count_two_second_clip(self, tmp_path):
        clip = _make_clip(tmp_path)
        lines = runtime.run_pipeline_offline(clip, _ScriptedModel(), RuntimeConfig(), FAST_PRE)
        polls = [l for l in lines if l.startswith("POLL")]
        assert len(polls) == 5  # 4 in-stream + 1 final
        times = [float(l.split("\t")[1]) for l in polls]
        assert times == [0.5, 1.0, 1.5, 2.0, 2.0]

    def test_confident_model_always_wins(self, tmp_path):
        clip = _make_clip(tmp_path)
        lines = runtime.run_pipeline_offline(
            clip, _ScriptedModel(class_id=2), RuntimeConfig(threshold_confidence=0.5), FAST_PRE
        )
        saw_vote = False
        for line in lines:
            kind, _, verdict, cls, votes = line.split("\t")
            assert kind == "POLL"
            if votes == "-":
                assert verdict == "noconfident"  # poll before any prediction arrived
                continue
            saw_vote = True
            assert verdict == "class"
            assert cls == "2"
        assert saw_vote

    def test_low_confidence_emits_erroneous(self, tmp_path):
        clip = _make_clip(tmp_path, seconds=3)
        config = RuntimeConfig(threshold_confidence=0.8, stipulated_time=2.0)
        lines = runtime.run_pipeline_offline(
            clip, _ScriptedModel(confidence=0.4), config, FAST_PRE
        )
        erroneous = [l for l in lines if l.startswith("ERRONEOUS")]
        assert len(erroneous) == 1
        assert float(erroneous[0].split("\t")[1]) == pytest.approx(2.0)
        late_polls = [l for l in lines if l.startswith("POLL") and float(l.split("\t")[1]) >= 2.0]
        assert all(l.split("\t")[2] == "erroneous" for l in late_polls)

    def test_deterministic_log(self, tmp_path):
        clip = _make_clip(tmp_path)
        a = runtime.run_pipeline_offline(clip, _ScriptedModel(), RuntimeConfig(), FAST_PRE)
        b = runtime.run_pipeline_offline(clip, _ScriptedModel(), RuntimeConfig(), FAST_PRE)
        assert a == b


class _CyclingModel(_ScriptedModel):
    """Predicts by call count: two confident classes, six low-confidence
    calls, then a confident class twice, over and over."""

    CYCLE = ((0, 0.9), (1, 0.9)) + ((2, 0.3),) * 6 + ((3, 0.9),) * 2

    def predict(self, rgb, flow, hog):
        self.class_id, self.confidence = self.CYCLE[self.calls % len(self.CYCLE)]
        return super().predict(rgb, flow, hog)


class TestEventLogPinned:
    """Whole event logs, byte for byte: a tie, a confident class, a
    low-confidence span and its one ERRONEOUS line. No float decides them."""

    def test_offline_log(self, tmp_path):
        clip = _make_clip(tmp_path, seconds=5, fps=8)
        config = RuntimeConfig(threshold_confidence=0.5, stipulated_time=1.0)
        # the sampled pairs fall at 0.625, 0.875, 1.125, 1.25, 2.0, 2.875,
        # 3.625, 3.875, 4.375 and 4.5 s; the ring holds two records
        assert runtime.run_pipeline_offline(clip, _CyclingModel(), config, FAST_PRE) == [
            "POLL\t0.500\tnoconfident\t-\t-",
            "POLL\t1.000\tclass\t1\t0=1,1=1",
            "POLL\t1.500\tnoconfident\t-\t-",
            "POLL\t2.000\terroneous\t-\t-",
            "ERRONEOUS\t2.000",
            "POLL\t2.500\terroneous\t-\t-",
            "POLL\t3.000\terroneous\t-\t-",
            "POLL\t3.500\terroneous\t-\t-",
            "POLL\t4.000\terroneous\t-\t-",
            "POLL\t4.500\tclass\t3\t3=2",
            "POLL\t5.000\tclass\t3\t3=2",
            "POLL\t5.000\tclass\t3\t3=2",
        ]

    def test_live_log_without_drops(self):
        frames = [(i / 8, np.zeros((16, 16, 3), dtype=np.uint8)) for i in range(16)]
        config = RuntimeConfig(fps=8, poll_interval=0.25, threshold_confidence=0.5,
                               stipulated_time=0.5, window_seconds=0.25)
        lines, dropped = runtime.run_pipeline_live(iter(frames), _CyclingModel(), config,
                                                   FAST_PRE, queue_size=len(frames))
        assert dropped == 0
        assert lines == [
            "POLL\t0.250\tclass\t1\t1=1",
            "POLL\t0.500\tnoconfident\t-\t-",
            "POLL\t0.750\terroneous\t-\t-",
            "ERRONEOUS\t0.750",
            "POLL\t1.000\tclass\t3\t3=1",
            "POLL\t1.250\tclass\t0\t0=1,3=1",
            "POLL\t1.500\tclass\t1\t1=1",
            "POLL\t1.750\tnoconfident\t-\t-",
            "POLL\t2.000\terroneous\t-\t-",
            "ERRONEOUS\t2.000",
            "POLL\t2.000\terroneous\t-\t-",
        ]


class TestBoundedQueue:
    def test_drops_oldest_when_full(self):
        q = BoundedQueue(2)
        for i in range(5):
            q.put(i)
        assert q.dropped == 3
        assert q.get() == 3
        assert q.get() == 4

    def test_close_drains_then_none(self):
        q = BoundedQueue(4)
        q.put("a")
        q.close()
        assert q.get() == "a"
        assert q.get() is None

    def test_put_after_close_rejected(self):
        q = BoundedQueue(2)
        q.close()
        with pytest.raises(ContractViolationError):
            q.put(1)


class TestLivePipeline:
    def test_live_run_completes_and_counts_drops(self):
        frames = [(i / 30.0, np.zeros((16, 16, 3), dtype=np.uint8)) for i in range(30)]

        class SlowModel(_ScriptedModel):
            def predict(self, rgb, flow, hog):
                import time

                time.sleep(0.002)
                return super().predict(rgb, flow, hog)

        lines, dropped = runtime.run_pipeline_live(
            iter(frames), SlowModel(), RuntimeConfig(fps=30, poll_interval=0.05),
            FAST_PRE, queue_size=4,
        )
        assert lines[-1].startswith("POLL")
        assert dropped >= 0
        assert all(l.startswith(("POLL", "ERRONEOUS")) for l in lines)

    def test_polls_follow_stream_time(self):
        frames = [(i / 8, np.zeros((16, 16, 3), dtype=np.uint8)) for i in range(8)]

        def run():
            return runtime.run_pipeline_live(iter(frames), _ScriptedModel(),
                                             RuntimeConfig(fps=8, poll_interval=0.25),
                                             FAST_PRE, queue_size=8)

        # pairs are stamped with their first frame, 0 .. 0.75; the 8-slot ring
        # keeps all 7, and the final poll falls at last_ts + 1/fps = 1.0
        lines, dropped = run()
        assert dropped == 0
        assert lines == ["POLL\t0.250\tclass\t1\t1=3", "POLL\t0.500\tclass\t1\t1=5",
                         "POLL\t0.750\tclass\t1\t1=7", "POLL\t1.000\tclass\t1\t1=7",
                         "POLL\t1.000\tclass\t1\t1=7"]
        assert run() == (lines, 0)

    def test_queue_drops_whole_pairs_so_every_pair_is_adjacent(self, monkeypatch):
        # frame i is filled with i; the first predict waits until the source
        # has put all 20 frames, so the 4-slot queue must drop
        n = 20
        predicting, all_sent = threading.Event(), threading.Event()
        seen = []

        def record_pair(prev_frame, next_frame, pre_config):
            seen.append((int(prev_frame[0, 0, 0]), int(next_frame[0, 0, 0])))
            return None, None, None

        class WaitingModel(_ScriptedModel):
            def predict(self, rgb, flow, hog):
                predicting.set()
                assert all_sent.wait(10)
                return super().predict(rgb, flow, hog)

        def frames():
            for i in range(n):
                if i == 2:
                    assert predicting.wait(10)
                yield i / 30, np.full((16, 16, 3), i, dtype=np.uint8)
            all_sent.set()

        monkeypatch.setattr(runtime, "preprocess_pair", record_pair)
        lines, dropped = runtime.run_pipeline_live(frames(), WaitingModel(), RuntimeConfig(fps=30),
                                                   FAST_PRE, queue_size=4)
        assert seen == [(0, 1), (15, 16), (16, 17), (17, 18), (18, 19)]
        assert len(seen) + dropped == n - 1

    def test_inference_failure_is_reraised_and_stops_ingest(self):
        sent = []

        def frames():
            for i in range(5000):
                sent.append(i)
                time.sleep(0.002)
                yield i / 30.0, np.zeros((16, 16, 3), dtype=np.uint8)

        class FailingModel(_ScriptedModel):
            def predict(self, rgb, flow, hog):
                if self.calls == 2:
                    raise FormatError("third predict fails")
                return super().predict(rgb, flow, hog)

        model = FailingModel()
        with pytest.raises(FormatError, match="third predict fails"):
            runtime.run_pipeline_live(frames(), model, RuntimeConfig(fps=30, poll_interval=0.05),
                                      FAST_PRE, queue_size=4)
        assert model.calls == 2
        assert len(sent) < 5000

    def test_frame_source_failure_is_reraised(self):
        def frames():
            yield 0.0, np.zeros((16, 16, 3), dtype=np.uint8)
            raise FormatError("truncated frame")

        with pytest.raises(FormatError, match="truncated frame"):
            runtime.run_pipeline_live(frames(), _ScriptedModel(),
                                      RuntimeConfig(fps=30, poll_interval=0.05), FAST_PRE)
