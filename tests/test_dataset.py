import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtar import dataset, mediaio
from rtar.errors import ContractViolationError, FormatError
from rtar.preprocess import (PREPROCESS_VERSION, FlowParams, PreprocessConfig, compute_flow,
                             sample_frames)
from rtar.preprocess.resize import grayscale_bt601, resize_bilinear


class TestClipNames:
    def test_worked_example(self):
        cid = dataset.parse_clip_name("HandWash_047_A_07_G_03.avi")
        assert (cid.wash_id, cid.action_class, cid.group) == (47, 7, 3)

    def test_boundary_class(self):
        cid = dataset.parse_clip_name("HandWash_001_A_12_G_01.avi")
        assert (cid.wash_id, cid.action_class, cid.group) == (1, 12, 1)

    def test_short_wash_field(self):
        with pytest.raises(FormatError, match="field X must be 3 digits") as exc:
            dataset.parse_clip_name("HandWash_47_A_07_G_03.avi")
        assert exc.value.field == "X"

    def test_class_out_of_range(self):
        with pytest.raises(FormatError, match=r"field Y must be in \[01, 12\]"):
            dataset.parse_clip_name("HandWash_047_A_13_G_03.avi")

    def test_wrong_extension(self):
        with pytest.raises(FormatError) as exc:
            dataset.parse_clip_name("HandWash_047_A_07_G_03.mp4")
        assert exc.value.field == "extension"

    def test_wrong_prefix(self):
        with pytest.raises(FormatError) as exc:
            dataset.parse_clip_name("Handwash_047_A_07_G_03.avi")
        assert exc.value.field == "prefix"

    @given(x=st.integers(0, 999), y=st.integers(1, 12), z=st.integers(0, 99))
    def test_parse_format_round_trip(self, x, y, z):
        cid = dataset.ClipId(wash_id=x, action_class=y, group=z)
        name = dataset.format_clip_name(cid)
        assert dataset.parse_clip_name(name) == cid

    @given(x=st.integers(0, 999), y=st.integers(1, 12), z=st.integers(0, 99))
    def test_format_parse_identity_on_strings(self, x, y, z):
        name = f"HandWash_{x:03d}_A_{y:02d}_G_{z:02d}.avi"
        assert dataset.format_clip_name(dataset.parse_clip_name(name)) == name


def full_dataset_manifest():
    """292 washes x 12 classes = 3504 clips; carve out an 880-clip test split."""
    names = [
        dataset.format_clip_name(dataset.ClipId(w, c, (w // 15) % 100))
        for w in range(292)
        for c in range(1, 13)
    ]
    return dataset.SplitManifest(train=names[:2624], test=names[2624:])


class TestSplits:
    def test_full_dataset_counts(self, tmp_path):
        manifest = full_dataset_manifest()
        path = tmp_path / "split.txt"
        dataset.save_split(manifest, path)
        loaded = dataset.load_split(path)
        assert dataset.validate_split(loaded, (2624, 880)) == (2624, 880)

    def test_overlap_rejected(self, tmp_path):
        name = "HandWash_001_A_01_G_00.avi"
        path = tmp_path / "overlap.txt"
        path.write_text(f"[train]\n{name}\n[test]\n{name}\n")
        with pytest.raises(FormatError, match=name):
            dataset.load_split(path)

    # the second listing is the one named, also when its section was reopened
    @pytest.mark.parametrize("layout, lineno", [("[train]\n{0}\n{0}\n", 3),
                                                ("[test]\n{0}\n[train]\n[test]\n{0}\n", 5)])
    def test_duplicate_in_section_rejected(self, tmp_path, layout, lineno):
        name = "HandWash_001_A_01_G_00.avi"
        path = tmp_path / "dup.txt"
        path.write_text(layout.format(name))
        with pytest.raises(FormatError, match=f"line {lineno}: duplicate clip") as exc:
            dataset.load_split(path)
        assert exc.value.field == "duplicate"

    def test_validate_rejects_overlap(self):
        name = "HandWash_001_A_01_G_00.avi"
        manifest = dataset.SplitManifest(train=[name], test=[name])
        with pytest.raises(FormatError, match="both sections"):
            dataset.validate_split(manifest)

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty split manifest"):
            manifest = dataset.load_split(path)
        assert dataset.validate_split(manifest) == (0, 0)

    def test_bad_name_has_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[train]\nHandWash_001_A_01_G_00.avi\nnot_a_clip\n")
        with pytest.raises(FormatError, match="line 3"):
            dataset.load_split(path)

    def test_count_mismatch(self):
        manifest = dataset.SplitManifest(train=["HandWash_001_A_01_G_00.avi"], test=[])
        with pytest.raises(FormatError, match="counts"):
            dataset.validate_split(manifest, (2, 0))

    def test_name_outside_section(self, tmp_path):
        path = tmp_path / "loose.txt"
        path.write_text("HandWash_001_A_01_G_00.avi\n")
        with pytest.raises(FormatError, match="before any section"):
            dataset.load_split(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = {"HandWash_000_A_01_G_00.avi": 0, "HandWash_001_A_02_G_00.avi": 1}
        path = tmp_path / "labels.tsv"
        dataset.write_labels(labels, path)
        assert dataset.read_labels(path) == labels

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("clip.avi no_tab_here\n")
        with pytest.raises(FormatError):
            dataset.read_labels(path)

    def test_duplicate_clip_names_the_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("HandWash_000_A_01_G_00.avi\t0\nHandWash_001_A_01_G_00.avi\t1\n"
                        "HandWash_000_A_01_G_00.avi\t3\n")
        with pytest.raises(FormatError, match="labels line 3: duplicate clip"):
            dataset.read_labels(path)


def _write_test_clip(root, name, frame_count=30, fps=30, size=16, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.random((size, size, 3))
    frames = []
    for i in range(frame_count):
        shifted = np.roll(base, i % 3, axis=1)
        frames.append(np.clip(np.rint(shifted * 255), 0, 255).astype(np.uint8))
    meta = mediaio.ClipMeta(fps=fps, width=size, height=size, frame_count=frame_count)
    mediaio.write_clip(frames, meta, os.path.join(root, name))
    return meta


FAST_PRE = PreprocessConfig(target_size=16, sample_frames_per_second=3,
                            flow=FlowParams(pyramid_levels=2, iterations=12))


def _count_pair_maps(monkeypatch) -> list:
    """Replace dataset.pair_maps by a pass-through that records each pair of
    the frame stacks it is given."""
    calls = []
    real_pair_maps = dataset.pair_maps

    def counting(prev, nxt, config):
        calls.extend(zip(prev, nxt, strict=True))
        return real_pair_maps(prev, nxt, config)

    monkeypatch.setattr(dataset, "pair_maps", counting)
    return calls


class TestCache:
    def test_file_counts_for_one_second_clip(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir()
        name = "HandWash_000_A_01_G_00.avi"
        _write_test_clip(clips, name)
        out = tmp_path / "cache"
        result = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        flo = sorted(p.name for p in out.glob("*.flo"))
        pgm = sorted(p.name for p in out.glob("*.pgm"))
        assert len(flo) == 3 and len(pgm) == 3
        assert result.written == 6 and not result.failures
        index = (out / "cache.index").read_text().splitlines()
        assert len(index) == 3
        assert index[0].split("\t")[0] == name

    def test_rerun_rewrites_nothing(self, tmp_path, monkeypatch):
        clips, name, out = self._one_clip_cache(tmp_path)
        stamps = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        calls = _count_pair_maps(monkeypatch)
        second = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        assert (second.written, second.skipped, len(calls)) == (0, 6, 0)
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == stamps

    def test_rerun_repairs_an_altered_cache_file(self, tmp_path, monkeypatch):
        clips, name, out = self._one_clip_cache(tmp_path)
        altered = out / dataset.cache_names(name, 1)[0]
        cold = altered.read_bytes()
        altered.write_bytes(cold[:-4] + b"\0\0\0\0")
        calls = _count_pair_maps(monkeypatch)
        result = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        assert (result.written, result.skipped, len(calls)) == (1, 5, 1)
        assert altered.read_bytes() == cold

    def test_rerun_recomputes_the_pairs_of_an_edited_frame(self, tmp_path, monkeypatch):
        clips, name, out = self._one_clip_cache(tmp_path)
        meta = mediaio.read_clip_meta(clips / name / "clip.meta")
        pairs = sample_frames(meta, FAST_PRE.sample_frames_per_second, FAST_PRE.rng_seed)
        edited = pairs[1][1]
        path = clips / name / mediaio.FRAME_NAME.format(edited)
        mediaio.write_ppm(255 - mediaio.read_ppm(path), path)
        before = (out / "cache.sums").read_text().splitlines()
        calls = _count_pair_maps(monkeypatch)
        dataset.precompute_cache(clips, [name], FAST_PRE, out)
        after = (out / "cache.sums").read_text().splitlines()
        touched = [k for k, pair in enumerate(pairs) if edited in pair]
        assert len(calls) == len(touched)
        assert [k for k, (a, b) in enumerate(zip(before, after, strict=True)) if a != b] == touched

    @pytest.mark.parametrize("damage", [
        lambda sums: sums.unlink(),
        lambda sums: sums.write_bytes(b""),
        lambda sums: sums.write_bytes(sums.read_bytes()[:40]),
        lambda sums: sums.write_bytes(b"".join(line.rsplit(b"\t", 1)[0] + b"\n"
                                               for line in sums.read_bytes().splitlines())),
        lambda sums: sums.write_bytes(sums.read_bytes().replace(b"\t", b"\t\xff\xfe")),
    ], ids=["deleted", "emptied", "truncated", "short_rows", "non_ascii"])
    def test_damaged_sums_recompute_every_pair(self, tmp_path, monkeypatch, damage):
        clips, name, out = self._one_clip_cache(tmp_path)
        cold = {p.name: p.read_bytes() for p in out.iterdir()}
        damage(out / "cache.sums")
        calls = _count_pair_maps(monkeypatch)
        result = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        assert (result.written, len(calls)) == (0, 3)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == cold

    @pytest.mark.parametrize("stamp_change", ["another_config", "no_config", "garbled_config"])
    def test_rebuild_without_matching_stamp_recomputes_every_pair(self, tmp_path, monkeypatch,
                                                                    stamp_change):
        clips, name, out = self._one_clip_cache(tmp_path)
        config = FAST_PRE
        if stamp_change == "another_config":
            config = dataclasses.replace(FAST_PRE, flow=dataclasses.replace(FAST_PRE.flow,
                                                                            iterations=1))
        elif stamp_change == "garbled_config":
            (out / "cache.config").write_bytes(b"\xff\xfe")
        else:
            (out / "cache.config").unlink()
        calls = _count_pair_maps(monkeypatch)
        dataset.precompute_cache(clips, [name], config, out)
        assert len(calls) == 3

    def test_failed_index_write_leaves_no_config(self, tmp_path, monkeypatch):
        other = dataclasses.replace(FAST_PRE, rng_seed=5)
        clips, name, out = self._one_clip_cache(tmp_path)
        real_write = dataset._write_if_changed

        def failing_index_write(path, data):
            if os.path.basename(path) == "cache.index":
                raise OSError("no space left on device")
            return real_write(path, data)

        monkeypatch.setattr(dataset, "_write_if_changed", failing_index_write)
        with pytest.raises(OSError, match="no space"):
            dataset.precompute_cache(clips, [name], other, out)
        assert not (out / "cache.config").exists()
        with pytest.raises(FormatError, match="unrecorded"):
            dataset.load_clip_samples(clips, [name], {name: 0}, other, cache_dir=out)

    def test_cached_flow_matches_fresh_bitwise(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir()
        name = "HandWash_000_A_01_G_00.avi"
        meta = _write_test_clip(clips, name)
        out = tmp_path / "cache"
        dataset.precompute_cache(clips, [name], FAST_PRE, out)
        pairs = sample_frames(meta, FAST_PRE.sample_frames_per_second, FAST_PRE.rng_seed)
        i, j = pairs[0]
        clip_dir = clips / name
        prev = resize_bilinear(mediaio.read_frame(clip_dir, i, meta), 16, 16)
        nxt = resize_bilinear(mediaio.read_frame(clip_dir, j, meta), 16, 16)
        fresh = compute_flow(
            grayscale_bt601(prev.astype(np.float32) / np.float32(255)),
            grayscale_bt601(nxt.astype(np.float32) / np.float32(255)),
            FAST_PRE.flow,
        ).astype(np.float32)
        cached = mediaio.read_flo(out / dataset.cache_names(name, 0)[0])
        assert np.array_equal(cached.view(np.uint32), fresh.view(np.uint32))

    def test_unreadable_clip_recorded_and_continues(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir()
        good = "HandWash_000_A_01_G_00.avi"
        bad = "HandWash_001_A_01_G_00.avi"
        _write_test_clip(clips, good)
        (clips / bad).mkdir()  # no clip.meta inside
        out = tmp_path / "cache"
        result = dataset.precompute_cache(clips, [good, bad], FAST_PRE, out)
        assert [f[0] for f in result.failures] == [bad]
        index = (out / "cache.index").read_text()
        assert f"{bad}\tFAILED" in index
        assert index.count(good) == 3

    def test_gray_frame_recorded_and_continues(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir()
        gray, good = "HandWash_000_A_01_G_00.avi", "HandWash_001_A_01_G_00.avi"
        meta = [_write_test_clip(clips, name, seed=seed) for seed, name in enumerate([gray, good])]
        pairs = sample_frames(meta[0], FAST_PRE.sample_frames_per_second, FAST_PRE.rng_seed)
        for index in pairs[1]:  # both frames gray: no shape check can tell the pair apart
            path = clips / gray / mediaio.FRAME_NAME.format(index)
            mediaio.write_ppm(mediaio.read_ppm(path)[:, :, 0], path)
        out = tmp_path / "cache"
        result = dataset.precompute_cache(clips, [gray, good], FAST_PRE, out, threads=2)
        assert [name for name, _ in result.failures] == [gray]
        assert "grayscale" in result.failures[0][1]
        rows = [line.split("\t") for line in (out / "cache.index").read_text().splitlines()]
        assert [r[0] for r in rows if r[1] != "FAILED"] == [good] * 3
        assert [r[:2] for r in rows if r[1] == "FAILED"] == [[gray, "FAILED"]]

    def test_threaded_matches_serial(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir()
        names = []
        for w in range(3):
            name = f"HandWash_{w:03d}_A_01_G_00.avi"
            _write_test_clip(clips, name, seed=w)
            names.append(name)
        out1, out2 = tmp_path / "serial", tmp_path / "threaded"
        dataset.precompute_cache(clips, names, FAST_PRE, out1, threads=1)
        dataset.precompute_cache(clips, names, FAST_PRE, out2, threads=3)
        for p in sorted(out1.iterdir()):
            assert (out2 / p.name).read_bytes() == p.read_bytes()

    def test_rebuild_of_one_damaged_flo_equals_a_fresh_build(self, tmp_path, monkeypatch):
        clips, name, out = self._one_clip_cache(tmp_path)
        fresh = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len([n for n in fresh if n.endswith(".flo")]) == 3
        damaged = out / dataset.cache_names(name, 2)[0]
        damaged.write_bytes(damaged.read_bytes()[:-8])
        calls = _count_pair_maps(monkeypatch)
        result = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        assert (result.written, result.skipped, len(calls)) == (1, 5, 1)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == fresh

    def test_chunked_solves_equal_one_solve(self, tmp_path, monkeypatch):
        clips = tmp_path / "clips"
        clips.mkdir()
        name = "HandWash_000_A_01_G_00.avi"
        meta = _write_test_clip(clips, name, frame_count=50)
        assert len(sample_frames(meta, FAST_PRE.sample_frames_per_second, FAST_PRE.rng_seed)) == 5
        sizes = []
        real_pair_maps = dataset.pair_maps

        def sizing(prev, nxt, config):
            sizes.append(len(prev))
            return real_pair_maps(prev, nxt, config)

        monkeypatch.setattr(dataset, "pair_maps", sizing)
        dataset.precompute_cache(clips, [name], FAST_PRE, tmp_path / "one")
        one_solve = dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE)[0].pairs
        monkeypatch.setattr(dataset, "PAIRS_PER_SOLVE", 2)
        dataset.precompute_cache(clips, [name], FAST_PRE, tmp_path / "chunked")
        chunked = dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE)[0].pairs
        assert sizes == [5, 5, 2, 2, 1, 2, 2, 1]
        assert ({p.name: p.read_bytes() for p in (tmp_path / "one").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "chunked").iterdir()})
        for a, b in zip(one_solve, chunked, strict=True):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))

    def _assert_cached_load_equals_direct(self, clips, name, out):
        direct = dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE)
        cached = dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE, cache_dir=out)
        for (r1, f1, h1), (r2, f2, h2) in zip(direct[0].pairs, cached[0].pairs, strict=True):
            assert np.array_equal(r1, r2)
            assert np.array_equal(f1, f2)
            assert np.array_equal(h1, h2)
        return direct[0].pairs

    def test_load_clip_samples_cache_equals_direct(self, tmp_path):
        self._assert_cached_load_equals_direct(*self._one_clip_cache(tmp_path))

    def test_load_clip_samples_recomputes_a_pair_missing_from_cache(self, tmp_path):
        clips, name, out = self._one_clip_cache(tmp_path)
        missing = out / dataset.cache_names(name, 1)[0]
        missing.unlink()
        assert len(self._assert_cached_load_equals_direct(clips, name, out)) > 2
        assert not missing.exists()

    def _one_clip_cache(self, tmp_path):
        clips = tmp_path / "clips"
        clips.mkdir(exist_ok=True)
        name = "HandWash_000_A_01_G_00.avi"
        _write_test_clip(clips, name)
        out = tmp_path / "cache"
        dataset.precompute_cache(clips, [name], FAST_PRE, out)
        return clips, name, out

    @pytest.mark.parametrize("other", [
        dataclasses.replace(FAST_PRE, flow=dataclasses.replace(FAST_PRE.flow, iterations=1)),
        dataclasses.replace(FAST_PRE, rng_seed=5),
    ], ids=["iterations", "rng_seed"])
    def test_load_rejects_cache_of_another_config(self, tmp_path, other):
        clips, name, out = self._one_clip_cache(tmp_path)
        with pytest.raises(FormatError) as err:
            dataset.load_clip_samples(clips, [name], {name: 0}, other, cache_dir=out)
        assert repr(FAST_PRE) in str(err.value) and repr(other) in str(err.value)
        assert "\n" not in str(err.value)

    def test_load_rejects_cache_without_config(self, tmp_path):
        clips, name, out = self._one_clip_cache(tmp_path)
        (out / "cache.config").unlink()
        with pytest.raises(FormatError, match="unrecorded"):
            dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE, cache_dir=out)

    def test_load_rejects_missing_cache_directory(self, tmp_path):
        clips, name, out = self._one_clip_cache(tmp_path)
        with pytest.raises(FormatError, match="is not a directory"):
            dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE,
                                      cache_dir=tmp_path / "missing")

    def test_load_rejects_garbled_config_in_one_line(self, tmp_path):
        clips, name, out = self._one_clip_cache(tmp_path)
        (out / "cache.config").write_bytes(b"\xff\xfe\npreprocess_version=")
        with pytest.raises(FormatError) as err:
            dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE, cache_dir=out)
        assert "\\xff\\xfe\\npreprocess_version=" in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("kind, damaged", [
        (0, np.zeros((8, 8, 2), dtype=np.float32)),
        (1, np.zeros((8, 8), dtype=np.uint8)),
        (1, np.zeros((16, 16, 3), dtype=np.uint8)),
    ], ids=["flo_8x8", "pgm_8x8", "pgm_rgb"])
    def test_load_rejects_cached_map_of_wrong_shape(self, tmp_path, kind, damaged):
        clips, name, out = self._one_clip_cache(tmp_path)
        path = out / dataset.cache_names(name, 1)[kind]
        (mediaio.write_flo if kind == 0 else mediaio.write_pgm)(damaged, path)
        with pytest.raises(FormatError) as err:
            dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE, cache_dir=out)
        assert str(err.value) == (f"cached {path} holds a {damaged.shape} map, "
                                  f"expected {(16, 16, 2) if kind == 0 else (16, 16)}")

    def test_rebuild_with_another_config_records_it(self, tmp_path):
        other = dataclasses.replace(FAST_PRE, rng_seed=5)
        clips, name, out = self._one_clip_cache(tmp_path)
        stamp = f"preprocess_version={PREPROCESS_VERSION} "
        assert (out / "cache.config").read_text() == stamp + repr(FAST_PRE)
        dataset.precompute_cache(clips, [name], other, out)
        assert (out / "cache.config").read_text() == stamp + repr(other)
        cached = dataset.load_clip_samples(clips, [name], {name: 0}, other, cache_dir=out)
        direct = dataset.load_clip_samples(clips, [name], {name: 0}, other)
        for a, b in zip(cached[0].pairs, direct[0].pairs):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        with pytest.raises(FormatError):
            dataset.load_clip_samples(clips, [name], {name: 0}, FAST_PRE, cache_dir=out)

    def test_rebuild_at_lower_sample_rate_removes_stale_pairs(self, tmp_path):
        clips, name, out = self._one_clip_cache(tmp_path)
        assert len(list(out.glob("*.flo"))) == 3
        lower = dataclasses.replace(FAST_PRE, sample_frames_per_second=2)
        result = dataset.precompute_cache(clips, [name], lower, out)
        rows = [line.split("\t") for line in (out / "cache.index").read_text().splitlines()]
        assert len(rows) == 2
        assert sorted(p.name for p in out.glob("*.flo")) == sorted(r[2] for r in rows)
        assert sorted(p.name for p in out.glob("*.pgm")) == sorted(r[3] for r in rows)
        assert result.written + result.skipped == 4

    def test_non_finite_flow_fails_the_clip(self, tmp_path, monkeypatch):
        clips = tmp_path / "clips"
        clips.mkdir()
        name = "HandWash_000_A_01_G_00.avi"
        _write_test_clip(clips, name)
        real_pair_maps = dataset.pair_maps

        def nan_flow(*args):
            frame, flow, hog_img = real_pair_maps(*args)
            flow[0, 0, 0] = np.nan
            return frame, flow, hog_img

        monkeypatch.setattr(dataset, "pair_maps", nan_flow)
        out = tmp_path / "cache"
        result = dataset.precompute_cache(clips, [name], FAST_PRE, out)
        assert [f[0] for f in result.failures] == [name]
        assert "non-finite" in result.failures[0][1]
        assert not list(out.glob("*.flo"))

    def test_interrupted_write_leaves_target_unchanged(self, tmp_path, monkeypatch):
        target = tmp_path / "a.flo"
        target.write_bytes(b"old bytes")
        real_open = open

        class HalfWriter:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return HalfWriter(f) if "w" in mode else f

        monkeypatch.setattr(dataset, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            dataset._write_if_changed(str(target), b"new bytes that replace the old ones")
        assert target.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["a.flo"]

    def test_nonpositive_threads_rejected(self, tmp_path):
        with pytest.raises(ContractViolationError, match="threads"):
            dataset.precompute_cache(tmp_path, [], FAST_PRE, tmp_path / "cache", threads=0)
