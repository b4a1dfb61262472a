"""Contract edges that the per-module suites do not already pin down."""

import numpy as np
import pytest

from rtar import mediaio, network, runtime
from rtar.errors import ContractViolationError, FormatError
from rtar.nn import tensorops as T
from rtar.preprocess import preprocess_pair


class TestToyConfigShape:
    def test_stream_forward_matches_closed_form_at_full_size(self):
        # k=12, blocks (4,4), compression 0.5: 112x112 in -> 56x56x84 out,
        # D = ceil(0.5*(24+48)) + 48 = 84
        cfg = network.ModelConfig(num_classes=12, growth_rate=12, blocks=(4, 4),
                                  compression=0.5, input_size=112)
        assert network.stream_feature_shape(cfg) == (56, 56, 84)
        stream = network.StreamNet(cfg, 1, rng=np.random.default_rng(0), dtype=np.float32)
        x = np.random.default_rng(1).random((112, 112, 1)).astype(np.float32)
        assert stream.forward(x).shape == (56, 56, 84)


class TestSmallContracts:
    def test_batch_norm_rejects_nonpositive_eps(self):
        x = np.zeros((2, 2, 1), dtype=np.float32)
        with pytest.raises(ContractViolationError):
            T.batch_norm_train(x, np.ones(1, np.float32), np.zeros(1, np.float32), 0.0)

    def test_preprocess_pair_shape_mismatch(self, rng):
        a = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        b = rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
        with pytest.raises(ContractViolationError):
            preprocess_pair(a, b)

    def test_frame_buffer_rejects_zero_capacity(self):
        with pytest.raises(ContractViolationError):
            runtime.FrameBuffer(0)

    def test_runtime_config_validation(self):
        with pytest.raises(ContractViolationError):
            runtime.RuntimeConfig(poll_interval=0.0)
        with pytest.raises(ContractViolationError):
            runtime.RuntimeConfig(stipulated_time=0.1, poll_interval=0.5)


class TestErroneousProperty:
    def test_never_fires_early(self, rng):
        """Randomized decision streams: no event within stipulated_time of
        stream start or of the last confident decision."""
        config = runtime.RuntimeConfig(poll_interval=0.25, stipulated_time=1.5)
        for _ in range(200):
            state = runtime.ErroneousState()
            last_confident = 0.0
            t = 0.0
            for _ in range(40):
                t += config.poll_interval
                confident = bool(rng.random() < 0.4)
                verdict = runtime.Verdict.CLASS if confident else runtime.Verdict.NO_CONFIDENT
                decision = runtime.WindowDecision(verdict, 0 if confident else None, t, {})
                state, event = runtime.update_erroneous(state, decision, config)
                if confident:
                    last_confident = t
                if event is not None:
                    assert event.time - last_confident >= config.stipulated_time - 1e-9


class TestMegaFuzz:
    def test_readers_survive_one_mebibyte(self, tmp_path, rng):
        blob = rng.integers(0, 256, size=2**20, dtype=np.uint8).tobytes()
        for name, reader in [("big.ppm", mediaio.read_ppm), ("big.flo", mediaio.read_flo),
                             ("clip.meta", mediaio.read_clip_meta)]:
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(FormatError):
                reader(path)

    def test_plausible_flo_header_with_huge_dims(self, tmp_path):
        import struct

        path = tmp_path / "huge.flo"
        path.write_bytes(np.float32(202021.25).tobytes() + struct.pack("<ii", 2**20, 2**20))
        with pytest.raises(FormatError):
            mediaio.read_flo(path)
