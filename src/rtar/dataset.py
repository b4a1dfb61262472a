"""Clip naming and split conventions, labels, and cache precomputation.

Clip names follow ``HandWash_XXX_A_YY_G_ZZ.avi`` with fixed field widths:
X is the 3-digit wash id, Y the 2-digit action class (01-12), Z the
2-digit background group. Split manifests are text files with
``[train]`` and ``[test]`` sections, one clip name per line; labels
files map ``clipname<TAB>class_id`` with zero-based model labels.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, FormatError
from . import mediaio
from .network import ClipSamples
from .preprocess import (PREPROCESS_VERSION, PreprocessConfig, pair_maps,
                         resize_bilinear, sample_frames, stream_inputs)


@dataclass(frozen=True)
class ClipId:
    wash_id: int
    action_class: int
    group: int

    def __post_init__(self):
        if not 0 <= self.wash_id <= 999:
            raise ContractViolationError(f"wash_id {self.wash_id} outside [0, 999]")
        if not 1 <= self.action_class <= 12:
            raise ContractViolationError(f"action_class {self.action_class} outside [1, 12]")
        if not 0 <= self.group <= 99:
            raise ContractViolationError(f"group {self.group} outside [0, 99]")


_NAME_RE = re.compile(r"HandWash_(\d{3})_A_(\d{2})_G_(\d{2})\.avi")


def format_clip_name(cid: ClipId) -> str:
    return f"HandWash_{cid.wash_id:03d}_A_{cid.action_class:02d}_G_{cid.group:02d}.avi"


def parse_clip_name(name: str) -> ClipId:
    """Strict parse of the naming convention; errors name the offending field."""
    if not name.startswith("HandWash_"):
        raise FormatError(f"{name!r}: missing HandWash_ prefix", field="prefix")
    if not name.endswith(".avi"):
        raise FormatError(f"{name!r}: extension must be .avi", field="extension")
    m = _NAME_RE.fullmatch(name)
    if m is None:
        body = name[len("HandWash_"):-len(".avi")]
        parts = body.split("_")
        if len(parts) != 5 or parts[1] != "A" or parts[3] != "G":
            raise FormatError(f"{name!r}: expected HandWash_XXX_A_YY_G_ZZ.avi", field="layout")
        if not re.fullmatch(r"\d{3}", parts[0]):
            raise FormatError(f"{name!r}: field X must be 3 digits", field="X")
        if not re.fullmatch(r"\d{2}", parts[2]):
            raise FormatError(f"{name!r}: field Y must be 2 digits", field="Y")
        raise FormatError(f"{name!r}: field Z must be 2 digits", field="Z")
    x, y, z = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not 1 <= y <= 12:
        raise FormatError(f"{name!r}: field Y must be in [01, 12], got {y:02d}", field="Y")
    return ClipId(wash_id=x, action_class=y, group=z)


# ---------------------------------------------------------------------------
# Split manifests
# ---------------------------------------------------------------------------

@dataclass
class SplitManifest:
    train: list[str] = field(default_factory=list)
    test: list[str] = field(default_factory=list)


def load_split(path: str | os.PathLike) -> SplitManifest:
    """Parse a split manifest; every name must parse, appear once in its
    section, and the sections must be disjoint. An entirely empty file is
    valid but draws a warning."""
    with open(path, "rb") as f:
        try:
            text = f.read().decode("ascii")
        except UnicodeDecodeError as e:
            raise FormatError(f"split file is not ASCII: {e}", field="encoding") from None
    manifest = SplitManifest()
    sections = {"[train]": (manifest.train, set()), "[test]": (manifest.test, set())}
    section: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line in sections:
            section, names = sections[line]
            continue
        if line.startswith("["):
            raise FormatError(f"line {lineno}: unknown section {line!r}", field="section")
        if section is None:
            raise FormatError(f"line {lineno}: clip name before any section", field="section")
        try:
            parse_clip_name(line)
        except FormatError as e:
            raise FormatError(f"line {lineno}: {e}", field=e.field) from None
        if line in names:
            raise FormatError(f"line {lineno}: duplicate clip {line!r}", field="duplicate")
        names.add(line)
        section.append(line)
    if not manifest.train and not manifest.test:
        warnings.warn(f"{path}: empty split manifest", stacklevel=2)
    validate_split(manifest)
    return manifest


def save_split(manifest: SplitManifest, path: str | os.PathLike) -> None:
    with open(path, "wb") as f:
        f.write(b"[train]\n")
        for name in manifest.train:
            f.write(name.encode("ascii") + b"\n")
        f.write(b"[test]\n")
        for name in manifest.test:
            f.write(name.encode("ascii") + b"\n")


TEST_FRACTION = 0.2  # the share of groups a generated or split set holds out


def held_out_groups(groups, fraction: float) -> set[int]:
    """The test groups of a group-disjoint split: the last ``fraction`` of
    the sorted ``groups``, at least one."""
    groups = sorted(groups)
    return set(groups[-max(1, round(fraction * len(groups))):])


def validate_split(
    manifest: SplitManifest, expected_counts: tuple[int | None, int | None] = (None, None)
) -> tuple[int, int]:
    """Re-check disjointness and the expected (train, test) counts, each
    checked only when given; returns the (train, test) sizes."""
    overlap = sorted(set(manifest.train) & set(manifest.test))
    if overlap:
        raise FormatError(
            f"clips present in both sections: {', '.join(overlap)}", field="overlap"
        )
    counts = (len(manifest.train), len(manifest.test))
    if any(e is not None and e != c for c, e in zip(counts, expected_counts)):
        raise FormatError(
            f"split counts {counts} do not match expected {tuple(expected_counts)}",
            field="counts",
        )
    return counts


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def write_labels(labels: dict[str, int], path: str | os.PathLike) -> None:
    with open(path, "wb") as f:
        for name in sorted(labels):
            f.write(f"{name}\t{labels[name]}\n".encode("ascii"))


def read_labels(path: str | os.PathLike) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, "rb") as f:
        try:
            text = f.read().decode("ascii")
        except UnicodeDecodeError as e:
            raise FormatError(f"labels file is not ASCII: {e}", field="encoding") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not re.fullmatch(r"\d+", parts[1]):
            raise FormatError(f"labels line {lineno}: expected name<TAB>class_id", field="label")
        if parts[0] in labels:
            raise FormatError(f"labels line {lineno}: duplicate clip {parts[0]!r}", field="label")
        labels[parts[0]] = int(parts[1])
    return labels


# ---------------------------------------------------------------------------
# Cache precomputation
# ---------------------------------------------------------------------------

def cache_names(clip_name: str, pair_index: int) -> tuple[str, str]:
    stem = clip_name[:-4] if clip_name.endswith(".avi") else clip_name
    return f"{stem}_p{pair_index}.flo", f"{stem}_p{pair_index}.pgm"


@dataclass
class CacheResult:
    index_path: str
    written: int
    skipped: int
    failures: list[tuple[str, str]]


def _write_if_changed(path: str, data: bytes) -> bool:
    """Write only when content differs; returns True when (re)written.

    The bytes go to a temp file next to ``path`` that then replaces it, so
    an interrupted write leaves the old file or the new one, never a
    truncated one.
    """
    if os.path.exists(path):
        with open(path, "rb") as f:
            if f.read() == data:
                return False
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return True


CACHE_CONFIG = "cache.config"
CACHE_SUMS = "cache.sums"


def _config_stamp(config: PreprocessConfig) -> str:
    """What ``cache.config`` holds: the preprocessing version and the config."""
    return f"preprocess_version={PREPROCESS_VERSION} {config!r}"


def _cached_config(cache_dir) -> str | None:
    """The stamp a cache directory was built with, None if unrecorded. A
    byte that is not printable ASCII reads as its backslash escape, so a
    garbled stamp matches no build's and still fits on one line."""
    try:
        with open(os.path.join(cache_dir, CACHE_CONFIG), "rb") as f:
            return f.read().decode("latin-1").encode("unicode_escape").decode("ascii")
    except FileNotFoundError:
        return None


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _frames_digest(*frames) -> str:
    return _sha256(*(part for f in frames for part in (repr(f.shape).encode("ascii"), f.tobytes())))


def _file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return _sha256(f.read())
    except FileNotFoundError:
        return None


def _read_sums(cache_dir) -> dict[str, list[str]]:
    """The ``cache.sums`` rows keyed by flo file name: [frames, flo, pgm]
    digests. A row without four fields is dropped; a garbled digest is
    kept and matches nothing."""
    try:
        with open(os.path.join(cache_dir, CACHE_SUMS), encoding="ascii", errors="replace") as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
    except FileNotFoundError:
        return {}
    return {row[0]: row[1:] for row in rows if len(row) == 4}


# The most sampled pairs one pair_maps call stacks into a single flow solve,
# which holds about 1 MB per pair at 112 px; the measured knee (CHANGES.md).
PAIRS_PER_SOLVE = 8


def _maps_of(todo: list[tuple], config: PreprocessConfig):
    """(key, prev, next) pairs -> (key, frame, flow, hog_img) each, from one
    ``pair_maps`` call on their stacked frames."""
    maps = pair_maps(np.stack([t[1] for t in todo]), np.stack([t[2] for t in todo]), config)
    return zip([t[0] for t in todo], *maps)


def _cache_one_clip(clips_dir, name, config: PreprocessConfig, out_dir, sums):
    clip_dir = os.path.join(clips_dir, name)
    meta = mediaio.read_clip_meta(os.path.join(clip_dir, "clip.meta"))
    pairs = sample_frames(meta, config.sample_frames_per_second, config.rng_seed)
    names = [cache_names(name, k) for k in range(len(pairs))]
    digests: list[list[str]] = []  # per pair: frames, flo and pgm sha256
    todo = []  # (pair index, prev, next) of the pairs to recompute
    written = skipped = 0
    for k, (i, j) in enumerate(pairs):
        prev, nxt = mediaio.read_frame(clip_dir, i, meta), mediaio.read_frame(clip_dir, j, meta)
        digests.append([_frames_digest(prev, nxt)])
        recorded = sums.get(names[k][0])
        if (recorded is not None and recorded[0] == digests[k][0]
                and recorded[1:] == [_file_digest(os.path.join(out_dir, n)) for n in names[k]]):
            digests[k] = recorded
            skipped += 2
        else:
            todo.append((k, prev, nxt))
        if todo and (len(todo) == PAIRS_PER_SOLVE or k == len(pairs) - 1):
            for kk, _, flow, hog_img in _maps_of(todo, config):
                for n, data in zip(names[kk], (mediaio.flo_bytes(flow), mediaio.pgm_bytes(hog_img))):
                    if _write_if_changed(os.path.join(out_dir, n), data):
                        written += 1
                    else:
                        skipped += 1
                    digests[kk].append(_sha256(data))
            todo = []
    rows = [f"{name}\t{k}\t{flo_name}\t{pgm_name}" for k, (flo_name, pgm_name) in enumerate(names)]
    sum_rows = ["\t".join([flo_name, *d]) for (flo_name, _), d in zip(names, digests)]
    # remove the pairs an earlier build sampled past this config's last one
    k = len(pairs)
    while True:
        stale = [os.path.join(out_dir, n) for n in cache_names(name, k)]
        stale = [path for path in stale if os.path.exists(path)]
        if not stale:
            return rows, sum_rows, written, skipped
        for path in stale:
            os.remove(path)
        k += 1


def precompute_cache(
    clips_dir: str | os.PathLike,
    clip_names: list[str],
    config: PreprocessConfig,
    out_dir: str | os.PathLike,
    threads: int = 1,
) -> CacheResult:
    """Write per-pair ``.flo`` and HOG ``.pgm`` files plus a text index.

    Idempotent: files whose bytes already match are not rewritten, and
    files of pair indices past a clip's last sampled pair (left by a
    build at a higher sample rate) are removed; removals count in neither
    ``written`` nor ``skipped``. Every file is replaced atomically. An
    unreadable clip (a missing or malformed file, a gray frame) is recorded
    as FAILED in the index and processing continues. Clips are processed on
    ``threads`` workers; a clip's pairs to recompute run through
    ``pair_maps`` in stacks of up to ``PAIRS_PER_SOLVE``, one flow solve
    per stack.

    ``cache.sums`` records, per indexed pair, the sha256 of its two
    decoded frames and of its ``.flo`` and ``.pgm`` bytes. When the
    ``cache.config`` found at the start equals this build's, a pair whose
    frames and files still hash to its row is read and hashed instead of
    recomputed, and counts as two skipped files; any other pair is
    recomputed, which repairs an edited or damaged file. Deleting
    ``cache.sums`` forces every pair to be recomputed.

    ``cache.config`` records the preprocessing version and the config the
    files were computed with. It is removed while files of another config
    may remain. A single writer writes ``cache.sums``, then
    ``cache.index``, then ``cache.config``, so a build cut short leaves no
    stamp vouching for files it did not finish; none of the three counts
    in ``written`` or ``skipped``.
    """
    if threads < 1:
        raise ContractViolationError(f"threads must be >= 1, got {threads}")
    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, CACHE_CONFIG)
    stamp = _config_stamp(config)
    built = _cached_config(out_dir)
    if built not in (None, stamp):
        os.remove(config_path)
    sums = _read_sums(out_dir) if built == stamp else {}
    results: dict[str, tuple[list[str], list[str]]] = {}
    failures: list[tuple[str, str]] = []
    written = skipped = 0

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {name: pool.submit(_cache_one_clip, clips_dir, name, config, out_dir, sums)
                   for name in clip_names}
        for name, future in futures.items():
            try:
                rows, sum_rows, w, s = future.result()
                results[name] = rows, sum_rows
                written += w
                skipped += s
            except (FormatError, OSError, ContractViolationError) as e:
                failures.append((name, str(e)))

    done = [results[name] for name in clip_names if name in results]
    _write_if_changed(os.path.join(out_dir, CACHE_SUMS),
                      "".join(row + "\n" for _, sum_rows in done for row in sum_rows).encode("ascii"))
    index_path = os.path.join(out_dir, "cache.index")
    lines = [row for rows, _ in done for row in rows]
    for name, reason in sorted(failures):
        safe = reason.replace("\t", " ").replace("\n", " ")
        lines.append(f"{name}\tFAILED\t{safe}\t-")
    _write_if_changed(index_path, "".join(line + "\n" for line in lines).encode("ascii"))
    _write_if_changed(config_path, stamp.encode("ascii"))
    return CacheResult(index_path=index_path, written=written, skipped=skipped,
                       failures=failures)


# ---------------------------------------------------------------------------
# Sample loading for training and evaluation
# ---------------------------------------------------------------------------

def _read_cached(read, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """``read(path)``, refused with a FormatError naming the file when it is
    damaged or is not a map of ``shape``."""
    try:
        data = read(path)
    except FormatError as e:
        reason = str(e)
        if not reason.startswith(f"{path}: "):  # read_flo names the file in one message
            reason = f"{path}: {reason}"
        raise FormatError(f"cached {reason}", field=e.field) from None
    if data.shape != shape:
        raise FormatError(f"cached {path} holds a {data.shape} map, expected {shape}",
                          field="shape")
    return data


def load_clip_samples(
    clips_dir: str | os.PathLike,
    names: list[str],
    labels: dict[str, int],
    config: PreprocessConfig,
    cache_dir: str | os.PathLike | None = None,
) -> list[ClipSamples]:
    """Preprocess every sampled pair of the named clips into memory.

    With a cache directory, flow and HOG come from the cached files and
    missing cache entries fall back to direct computation; pairs computed
    directly run through ``pair_maps`` in stacks of up to
    ``PAIRS_PER_SOLVE``, as in ``precompute_cache``. The RGB input is
    recomputed (a 224 -> 112 px reload pair: 1.2 ms, 0.7 of it the resize,
    on one BLAS thread of a 2-core x86_64 VM). A cache directory that does
    not exist, or was built with another config or preprocessing version,
    or records none, raises FormatError, and so does a cached ``.flo`` that
    is not (S, S, 2) or ``.pgm`` that is not (S, S), naming the file.
    """
    stamp = _config_stamp(config)
    if cache_dir is not None and not os.path.isdir(cache_dir):
        raise FormatError(f"cache {cache_dir} is not a directory", field=CACHE_CONFIG)
    if cache_dir is not None and (built := _cached_config(cache_dir)) != stamp:
        raise FormatError(f"cache {cache_dir} was built with {built or 'an unrecorded config'}, "
                          f"not {stamp}", field=CACHE_CONFIG)
    out: list[ClipSamples] = []
    s = config.target_size
    for name in names:
        if name not in labels:
            raise ContractViolationError(f"no label for clip {name}")
        clip_dir = os.path.join(clips_dir, name)
        meta = mediaio.read_clip_meta(os.path.join(clip_dir, "clip.meta"))
        pairs = sample_frames(meta, config.sample_frames_per_second, config.rng_seed)
        triples: list = [None] * len(pairs)
        todo = []  # (pair index, prev, next) of the pairs the cache lacks
        for k, (i, j) in enumerate(pairs):
            prev = mediaio.read_frame(clip_dir, i, meta)
            flo_name, pgm_name = cache_names(name, k)
            flo_path = cache_dir and os.path.join(cache_dir, flo_name)
            pgm_path = cache_dir and os.path.join(cache_dir, pgm_name)
            if flo_path and os.path.exists(flo_path) and os.path.exists(pgm_path):
                triples[k] = stream_inputs(resize_bilinear(prev, s, s),
                                           _read_cached(mediaio.read_flo, flo_path, (s, s, 2)),
                                           _read_cached(mediaio.read_pgm, pgm_path, (s, s)))
            else:
                todo.append((k, prev, mediaio.read_frame(clip_dir, j, meta)))
            if todo and (len(todo) == PAIRS_PER_SOLVE or k == len(pairs) - 1):
                for kk, *maps in _maps_of(todo, config):
                    triples[kk] = stream_inputs(*maps)
                todo = []
        out.append(ClipSamples(name=name, label=labels[name], pairs=triples))
    return out


def flatten_samples(clips: list[ClipSamples]) -> list[tuple]:
    """ClipSamples -> flat (rgb, flow, hog, label) training samples."""
    return [(rgb, flow, hog, clip.label) for clip in clips for rgb, flow, hog in clip.pairs]
