import hashlib

import numpy as np
import pytest

from rtar.preprocess import (PREPROCESS_VERSION, FlowParams, PreprocessConfig, compute_flow,
                            compute_hog, pair_maps, preprocess_pair)
from tests.test_flow import smooth_periodic_texture


def texture_frame(size, seed, shift=0):
    base = smooth_periodic_texture(size, seed)
    rolled = np.roll(base, shift, axis=1)
    rgb = np.stack([rolled, rolled, rolled], axis=-1)
    return np.clip(np.rint(rgb * 255), 0, 255).astype(np.uint8)


class TestPreprocessPair:
    def test_output_shapes(self, rng):
        prev = rng.integers(0, 256, size=(90, 120, 3), dtype=np.uint8)
        nxt = rng.integers(0, 256, size=(90, 120, 3), dtype=np.uint8)
        rgb, flow, hog = preprocess_pair(prev, nxt)
        assert rgb.shape == (112, 112, 3)
        assert flow.shape == (112, 112, 2)
        assert hog.shape == (112, 112, 1)
        assert rgb.dtype == flow.dtype == hog.dtype == np.float32

    def test_identical_frames_zero_flow(self, rng):
        frame = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        _, flow, _ = preprocess_pair(frame, frame)
        assert np.abs(flow).max() <= 1e-6

    def test_value_ranges(self, rng):
        prev = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        nxt = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        rgb, _, hog = preprocess_pair(prev, nxt)
        assert 0.0 <= rgb.min() and rgb.max() <= 1.0
        assert 0.0 <= hog.min() and hog.max() <= 1.0

    def test_translation_survives_resize(self):
        # 2 px shift at 224 becomes a 1 px shift after resizing to 112
        prev = texture_frame(224, seed=5, shift=0)
        nxt = texture_frame(224, seed=5, shift=2)
        _, flow, _ = preprocess_pair(prev, nxt)
        assert abs(flow[..., 0].mean() - 1.0) < 0.25
        assert abs(flow[..., 1].mean()) < 0.25

    def test_deterministic(self, rng):
        prev = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        nxt = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        cfg = PreprocessConfig(target_size=32, flow=FlowParams(pyramid_levels=3))
        a = preprocess_pair(prev, nxt, cfg)
        b = preprocess_pair(prev, nxt, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


# sha256 of pair_maps' three outputs for one fixed synthetic pair, taken with
# PREPROCESS_VERSION 2 under numpy 2.4.6. Caches record that version, so any
# change to these bytes must come with a version bump and new digests.
PAIR_MAPS_DIGESTS = {
    32: {
        "frame": "b0718565327610f3e0e119bbf64da1467b003b5766326fa0ceb5be3e1991fa45",
        "flow": "8f8a70c4737f81ae519c029fbe68417ef53acf5db0ab958488aaf36be061af7b",
        "hog_img": "09fb426e61c8497009eeb3f3f83c0bcefa9b1ae01b7d4261fb8fdf4038a79592",
    },
    112: {
        "frame": "77937f0cce3242d476057086456d30a50b0d542d4c2568673b875afd2bf0c7df",
        "flow": "2f1c1249c54676e4f27b171b741f1af07e7f8c73f5667d8870c205151089e79d",
        "hog_img": "c0bdf6d6da7653e78ab7ff5cd42dbebf40578725c02607b8ca9ea8eea4db597f",
    },
}


def pinned_pair():
    """A 120x160 pair of a smooth texture moved 3 px right, plus fixed noise."""
    noise = np.random.default_rng(2024).integers(-12, 13, size=(2, 120, 160, 3))
    frames = [texture_frame(160, seed=21, shift=s)[:120].astype(np.int64) for s in (0, 3)]
    return [np.clip(f + n, 0, 255).astype(np.uint8) for f, n in zip(frames, noise)]


@pytest.mark.parametrize("size", sorted(PAIR_MAPS_DIGESTS))
def test_pair_maps_bytes_pinned_to_preprocess_version(size):
    assert PREPROCESS_VERSION == 2
    outputs = pair_maps(*pinned_pair(), PreprocessConfig(target_size=size))
    got = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
           for name, a in zip(("frame", "flow", "hog_img"), outputs)}
    assert got == PAIR_MAPS_DIGESTS[size]


def test_pair_maps_on_a_stack_equals_single_calls(rng):
    config = PreprocessConfig(target_size=32, flow=FlowParams(pyramid_levels=3))
    prev = rng.integers(0, 256, size=(3, 45, 60, 3), dtype=np.uint8)
    nxt = np.clip(prev.astype(np.int64) + rng.integers(-20, 21, prev.shape), 0, 255).astype(np.uint8)
    stacked = pair_maps(prev, nxt, config)
    for got, shape, dtype in zip(stacked, [(3, 32, 32, 3), (3, 32, 32, 2), (3, 32, 32)],
                                 [np.uint8, np.float32, np.uint8]):
        assert got.shape == shape and got.dtype == dtype
    for k in range(3):
        for got, want in zip(stacked, pair_maps(prev[k], nxt[k], config), strict=True):
            assert got[k].tobytes() == want.tobytes() and got[k].shape == want.shape


def odd_texture(h, w, seed, dy=0, dx=0):
    """An h x w crop of a smooth periodic texture rolled by (dy, dx) px."""
    return np.roll(smooth_periodic_texture(64, seed), (dy, dx), axis=(0, 1))[:h, :w]


# sha256 of compute_flow on a 45x60 pair at 3 levels, whose pyramid rounds
# 45 to 22 (so u's and v's upsample ratios differ at every level), and of
# compute_hog on a 40x64 image; both taken at PREPROCESS_VERSION 2 under
# numpy 2.4.6.
ODD_FLOW_DIGEST = "c298db37386b5ad67b6959417c4ddf2737ce2cd3a79f91e7933de091b6c9e5cf"
ODD_HOG_DIGESTS = {
    "cell_hist": "bfbfff5f9fe317b7cce4034d4df59e352fc4fa65f34f933e8b108710c2ab8f78",
    "blocks": "f262b2afd861f62775076f3f54331338dcb1ca2f09916fdc30cfa8f1eed0285f",
}


def test_flow_bytes_pinned_on_odd_non_square_extents():
    flow = compute_flow(odd_texture(45, 60, seed=31), odd_texture(45, 60, seed=31, dy=1, dx=2),
                        FlowParams(pyramid_levels=3))
    assert flow.shape == (45, 60, 2) and flow.dtype == np.float32 and flow.flags.c_contiguous
    assert hashlib.sha256(flow.tobytes()).hexdigest() == ODD_FLOW_DIGEST


def test_hog_bytes_pinned_on_non_square_extents():
    d = compute_hog(odd_texture(40, 64, seed=32))
    got = {name: hashlib.sha256(getattr(d, name).tobytes()).hexdigest() for name in ODD_HOG_DIGESTS}
    assert got == ODD_HOG_DIGESTS
