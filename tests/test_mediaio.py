import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtar import mediaio
from rtar.errors import FormatError


class TestPpm:
    def test_white_pixel(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = mediaio.read_ppm(path)
        assert img.shape == (1, 1, 3)
        assert img.tolist() == [[[255, 255, 255]]]

    def test_round_trip_bytes(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        mediaio.write_ppm(img, p1)
        mediaio.write_ppm(mediaio.read_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gray_round_trip_bytes(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(4, 9), dtype=np.uint8)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        mediaio.write_pgm(img, p1)
        back = mediaio.read_pgm(p1)
        assert back.shape == (4, 9)
        mediaio.write_pgm(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n 2\t1 \n255\n" + bytes(6))
        img = mediaio.read_ppm(path)
        assert img.shape == (1, 2, 3)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="unsupported maxval") as exc:
            mediaio.read_ppm(path)
        assert exc.value.field == "maxval"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(FormatError) as exc:
            mediaio.read_ppm(path)
        assert exc.value.field == "magic"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="truncated") as exc:
            mediaio.read_ppm(path)
        assert exc.value.field == "payload"

    def test_header_larger_than_file_is_truncated_not_allocated(self, tmp_path):
        # 3e18 payload bytes: more than any host can allocate
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n1000000000 1000000000\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="truncated") as exc:
            mediaio.read_ppm(path)
        assert exc.value.field == "payload"

    @given(
        w=st.integers(1, 6),
        h=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_identity_property(self, tmp_path_factory, w, h, seed):
        tmp = tmp_path_factory.mktemp("ppm")
        img = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        path = tmp / "img.ppm"
        mediaio.write_ppm(img, path)
        assert np.array_equal(mediaio.read_ppm(path), img)


class TestFlo:
    def test_zero_flow_file_is_20_bytes(self, tmp_path):
        path = tmp_path / "zero.flo"
        mediaio.write_flo(np.zeros((1, 1, 2), dtype=np.float32), path)
        raw = path.read_bytes()
        assert len(raw) == 20
        assert raw[:4] == np.float32(202021.25).tobytes()
        assert raw[4:12] == b"\x01\x00\x00\x00\x01\x00\x00\x00"
        assert raw[12:] == bytes(8)

    def test_round_trip_bitwise(self, tmp_path, rng):
        flow = rng.standard_normal((6, 4, 2)).astype(np.float32)
        path = tmp_path / "f.flo"
        mediaio.write_flo(flow, path)
        back = mediaio.read_flo(path)
        assert back.dtype == np.float32
        assert np.array_equal(
            back.view(np.uint32), flow.view(np.uint32)
        ), "round trip must be bit-identical"

    def test_wrong_tag(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(np.float32(0.0).tobytes() + bytes(16))
        with pytest.raises(FormatError, match="not a flow file") as exc:
            mediaio.read_flo(path)
        assert exc.value.field == "tag"

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "trunc.flo"
        import struct

        path.write_bytes(np.float32(202021.25).tobytes() + struct.pack("<ii", 2, 2) + bytes(8))
        with pytest.raises(FormatError, match="size mismatch"):
            mediaio.read_flo(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_read_rejects_nonfinite_payload(self, tmp_path, value):
        path = tmp_path / "bad.flo"
        payload = np.array([0.5, value], dtype="<f4").tobytes()
        path.write_bytes(np.float32(202021.25).tobytes() + struct.pack("<ii", 1, 1) + payload)
        with pytest.raises(FormatError, match="non-finite") as exc:
            mediaio.read_flo(path)
        assert exc.value.field == "payload"
        assert str(path) in str(exc.value)

    def test_rejects_nonfinite(self, tmp_path):
        flow = np.zeros((1, 1, 2), dtype=np.float32)
        flow[0, 0, 0] = np.nan
        with pytest.raises(FormatError):
            mediaio.write_flo(flow, tmp_path / "nan.flo")


def _make_clip(tmp_path, frame_count, fps=30, w=8, h=6, drop=None):
    rng = np.random.default_rng(0)
    clip = tmp_path / "clip"
    frames = [
        rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for _ in range(frame_count)
    ]
    meta = mediaio.ClipMeta(fps=fps, width=w, height=h, frame_count=frame_count)
    mediaio.write_clip(frames, meta, clip)
    if drop is not None:
        (clip / mediaio.FRAME_NAME.format(drop)).unlink()
    return clip, frames


class TestClip:
    def test_iterates_in_order(self, tmp_path):
        clip, frames = _make_clip(tmp_path, 2)
        meta, it = mediaio.read_clip(clip)
        got = list(it)
        assert len(got) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, frames))

    def test_gap_error(self, tmp_path):
        clip, _ = _make_clip(tmp_path, 3, drop=1)
        _, it = mediaio.read_clip(clip)
        next(it)
        with pytest.raises(FormatError, match="gap at index 1"):
            next(it)

    def test_mean_duration_clip(self, tmp_path):
        clip, _ = _make_clip(tmp_path, 354, fps=30, w=2, h=2)
        meta, _ = mediaio.read_clip(clip)
        assert meta.duration_s == pytest.approx(11.8)

    def test_meta_round_trip(self, tmp_path):
        meta = mediaio.ClipMeta(fps=30, width=16, height=9, frame_count=4)
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        mediaio.write_clip_meta(meta, p1)
        mediaio.write_clip_meta(mediaio.read_clip_meta(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().decode() == "fps=30\nwidth=16\nheight=9\nframe_count=4\n"

    def test_dimension_mismatch(self, tmp_path):
        clip, _ = _make_clip(tmp_path, 2, w=8, h=6)
        bad = np.zeros((5, 5, 3), dtype=np.uint8)
        mediaio.write_ppm(bad, clip / mediaio.FRAME_NAME.format(1))
        _, it = mediaio.read_clip(clip)
        next(it)
        with pytest.raises(FormatError, match="meta says"):
            next(it)

    def test_gray_frame_rejected(self, tmp_path):
        clip, frames = _make_clip(tmp_path, 2)
        mediaio.write_ppm(frames[1][:, :, 0], clip / mediaio.FRAME_NAME.format(1))
        meta, _ = mediaio.read_clip(clip)
        assert np.array_equal(mediaio.read_frame(clip, 0, meta), frames[0])
        with pytest.raises(FormatError, match=r"frame 1 is grayscale \(P5\)") as exc:
            mediaio.read_frame(clip, 1, meta)
        assert exc.value.field == "frame"

    def test_meta_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "clip.meta"
        path.write_bytes(b"fps=30\nwidth=1\nheight=1\nframe_count=1\ncodec=raw\n")
        with pytest.raises(FormatError, match="unknown key"):
            mediaio.read_clip_meta(path)


class TestFuzz:
    @given(data=st.binary(min_size=0, max_size=256), seed=st.integers(0, 10**6))
    def test_readers_raise_format_error_only(self, tmp_path_factory, data, seed):
        tmp = tmp_path_factory.mktemp("fuzz")
        for name, reader in [
            ("f.ppm", mediaio.read_ppm),
            ("f.flo", mediaio.read_flo),
            ("clip.meta", mediaio.read_clip_meta),
        ]:
            path = tmp / name
            path.write_bytes(data)
            try:
                reader(path)
            except FormatError:
                pass
