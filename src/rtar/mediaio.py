"""Bit-exact readers and writers for frames, clips, and flow fields.

Formats:

* binary PPM (P6, RGB) and PGM (P5, gray), maxval 255
* Middlebury ``.flo`` flow fields (float32 tag 202021.25, little-endian)
* clip directories: ``clip.meta`` (``key=value`` text) plus
  ``frame_000000.ppm``, ``frame_000001.ppm``, ...

Writers emit one canonical byte layout so every write-read-write
round trip is bit-identical. Readers are tolerant of netpbm whitespace
and ``#`` comments but reject anything structurally malformed with a
:class:`~rtar.errors.FormatError` naming the offending field.
"""

from __future__ import annotations

import io
import os
import re
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FormatError

FLO_TAG = np.float32(202021.25)
META_KEYS = ("fps", "width", "height", "frame_count")
FRAME_NAME = "frame_{:06d}.ppm"


@dataclass(frozen=True)
class ClipMeta:
    fps: int
    width: int
    height: int
    frame_count: int

    def __post_init__(self):
        for name in META_KEYS:
            if getattr(self, name) < 1:
                raise FormatError(f"{name} must be a positive integer", field=name)

    @property
    def duration_s(self) -> float:
        return self.frame_count / self.fps


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------

def _read_header_token(stream: io.BufferedIOBase, field: str) -> bytes:
    """Read one whitespace-delimited netpbm header token, skipping comments."""
    token = b""
    while True:
        ch = stream.read(1)
        if ch == b"":
            raise FormatError(f"truncated header while reading {field}", field=field)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _read_header_int(stream: io.BufferedIOBase, field: str) -> int:
    token = _read_header_token(stream, field)
    if not re.fullmatch(rb"\d+", token):
        raise FormatError(f"{field} is not a decimal integer: {token!r}", field=field)
    return int(token)


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary P6 (RGB) or P5 (gray) file into a uint8 array.

    Returns shape (H, W, 3) for P6 and (H, W) for P5.
    """
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic == b"P6":
            channels = 3
        elif magic == b"P5":
            channels = 1
        else:
            raise FormatError(f"bad magic {magic!r}, expected P5 or P6", field="magic")
        width = _read_header_int(f, "width")
        height = _read_header_int(f, "height")
        if width < 1 or height < 1:
            raise FormatError(f"non-positive dimensions {width}x{height}", field="width")
        maxval = _read_header_int(f, "maxval")
        if maxval != 255:
            raise FormatError(f"unsupported maxval {maxval}", field="maxval")
        n = width * height * channels
        payload = f.read()  # never more than the file holds, whatever n claims
        if len(payload) < n:
            raise FormatError(
                f"truncated payload: expected {n} bytes, got {len(payload)}",
                field="payload",
            )
    data = np.frombuffer(payload, dtype=np.uint8, count=n)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)


def ppm_bytes(image: np.ndarray) -> bytes:
    """Encode a uint8 image as canonical binary P6 (HxWx3) or P5 (HxW)."""
    if image.dtype != np.uint8:
        raise FormatError(f"image dtype must be uint8, got {image.dtype}", field="dtype")
    if image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    elif image.ndim == 2:
        magic = b"P5"
    else:
        raise FormatError(f"unsupported image shape {image.shape}", field="shape")
    h, w = image.shape[:2]
    return magic + b"\n%d %d\n255\n" % (w, h) + image.tobytes()


def write_ppm(image: np.ndarray, path: str | os.PathLike) -> None:
    """Write a uint8 image as canonical binary P6 (HxWx3) or P5 (HxW)."""
    data = ppm_bytes(image)
    with open(path, "wb") as f:
        f.write(data)


# Gray images use the same container with the P5 magic; aliases keep call
# sites honest about what they expect.
read_pgm = read_ppm
write_pgm = write_ppm
pgm_bytes = ppm_bytes


# ---------------------------------------------------------------------------
# Middlebury .flo
# ---------------------------------------------------------------------------

def flo_bytes(flow: np.ndarray) -> bytes:
    """Encode an (H, W, 2) flow field as a little-endian Middlebury file."""
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise FormatError(f"flow must be (H, W, 2), got {flow.shape}", field="shape")
    if not np.all(np.isfinite(flow)):
        raise FormatError("flow contains non-finite values", field="payload")
    h, w = flow.shape[:2]
    return FLO_TAG.tobytes() + struct.pack("<ii", w, h) + flow.astype("<f4", copy=False).tobytes()


def write_flo(flow: np.ndarray, path: str | os.PathLike) -> None:
    """Write an (H, W, 2) flow field as a little-endian Middlebury file."""
    data = flo_bytes(flow)
    with open(path, "wb") as f:
        f.write(data)


def read_flo(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise FormatError("not a flow file: shorter than its 12-byte header", field="tag")
    tag = np.frombuffer(raw[:4], dtype="<f4")[0]
    if tag != FLO_TAG:
        raise FormatError(f"not a flow file: tag {tag!r}", field="tag")
    w, h = struct.unpack("<ii", raw[4:12])
    if w < 1 or h < 1:
        raise FormatError(f"bad flow dimensions {w}x{h}", field="width")
    expected = 12 + 8 * w * h
    if len(raw) != expected:
        raise FormatError(
            f"size mismatch: header says {expected} bytes, file has {len(raw)}",
            field="payload",
        )
    data = np.frombuffer(raw[12:], dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{os.fspath(path)}: flow contains non-finite values", field="payload")
    return data.reshape(h, w, 2).copy()


# ---------------------------------------------------------------------------
# Clip directories
# ---------------------------------------------------------------------------

def write_clip_meta(meta: ClipMeta, path: str | os.PathLike) -> None:
    lines = "".join(f"{k}={getattr(meta, k)}\n" for k in META_KEYS)
    with open(path, "wb") as f:
        f.write(lines.encode("ascii"))


def read_clip_meta(path: str | os.PathLike) -> ClipMeta:
    try:
        with open(path, "rb") as f:
            text = f.read().decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"clip.meta is not ASCII: {e}", field="encoding") from None
    values: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"clip.meta line {lineno} has no '='", field="line")
        key, _, value = line.partition("=")
        if key not in META_KEYS:
            raise FormatError(f"clip.meta line {lineno}: unknown key {key!r}", field=key)
        if key in values:
            raise FormatError(f"clip.meta line {lineno}: duplicate key {key!r}", field=key)
        if not re.fullmatch(r"\d+", value):
            raise FormatError(
                f"clip.meta line {lineno}: {key} is not a positive integer", field=key
            )
        values[key] = int(value)
    missing = [k for k in META_KEYS if k not in values]
    if missing:
        raise FormatError(f"clip.meta missing keys: {missing}", field=missing[0])
    return ClipMeta(**values)


def write_clip(frames, meta: ClipMeta, clip_dir: str | os.PathLike) -> None:
    """Write frames (iterable of HxWx3 uint8) plus clip.meta into a directory."""
    os.makedirs(clip_dir, exist_ok=True)
    count = 0
    for i, frame in enumerate(frames):
        if frame.shape[:2] != (meta.height, meta.width):
            raise FormatError(
                f"frame {i} is {frame.shape[1]}x{frame.shape[0]}, "
                f"meta says {meta.width}x{meta.height}",
                field="frame",
            )
        write_ppm(frame, os.path.join(clip_dir, FRAME_NAME.format(i)))
        count += 1
    if count != meta.frame_count:
        raise FormatError(
            f"wrote {count} frames but meta.frame_count={meta.frame_count}",
            field="frame_count",
        )
    write_clip_meta(meta, os.path.join(clip_dir, "clip.meta"))


def read_clip(clip_dir: str | os.PathLike) -> tuple[ClipMeta, Iterator[np.ndarray]]:
    """Open a clip directory; returns its meta and a frame iterator.

    Frames are validated lazily: a missing index raises
    ``FormatError("gap at index k")`` when the iterator reaches it.
    """
    meta = read_clip_meta(os.path.join(clip_dir, "clip.meta"))

    def frames() -> Iterator[np.ndarray]:
        for i in range(meta.frame_count):
            yield read_frame(clip_dir, i, meta)

    return meta, frames()


def read_frame(clip_dir: str | os.PathLike, index: int, meta: ClipMeta) -> np.ndarray:
    """Random access to one frame of a clip, with the same validation."""
    path = os.path.join(clip_dir, FRAME_NAME.format(index))
    if not os.path.exists(path):
        raise FormatError(f"gap at index {index}", field="frame")
    frame = read_ppm(path)
    if frame.shape[:2] != (meta.height, meta.width):
        raise FormatError(
            f"frame {index} is {frame.shape[1]}x{frame.shape[0]}, "
            f"meta says {meta.width}x{meta.height}",
            field="frame",
        )
    return frame
