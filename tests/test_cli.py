import argparse
import os
import re
import shutil
import tempfile

import numpy as np
import pytest

from rtar import dataset, mediaio, runtime, synth
from rtar.cli import OPTION_DEFAULTS, Settings, build_parser, main
from rtar.errors import ContractViolationError
from rtar.network import FusionModel
from tests.test_dataset import full_dataset_manifest

SYNTH_ARGS = ["--clips-per-class", "2", "--groups", "2", "--fps", "4",
              "--duration", "1.0", "--resolution", "32", "--seed", "3"]
FAST_FLAGS = ["--target-size", "16", "--sample-fps", "2",
              "--pyramid-levels", "2", "--iterations", "8"]
TINY_MODEL = ["--growth", "2", "--blocks", "2", "--epochs", "1", "--batch", "4",
              "--classes", "4"]
TINY_BENCH = ["bench", "--frames", "1", "--target-size", "32", "--growth", "2", "--blocks", "2",
              "--pyramid-levels", "2", "--iterations", "4"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth") / "data"
    assert main(["dataset", "synth", "--out", str(out)] + SYNTH_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("cli_train") / "run"
    code = main(["train", "--data", str(synth_dir), "--out", str(out), "--seed", "3"]
                + FAST_FLAGS + TINY_MODEL)
    assert code == 0
    return out / "model.ckpt"


class TestDatasetCommands:
    def test_validate_full_counts(self, tmp_path, capsys):
        manifest = full_dataset_manifest()
        path = tmp_path / "split.txt"
        dataset.save_split(manifest, path)
        code = main(["dataset", "validate", "--manifest", str(path),
                     "--expect-train", "2624", "--expect-test", "880"])
        assert code == 0
        out = capsys.readouterr().out
        assert "train clips 2624" in out
        assert "test clips  880" in out

    @pytest.mark.parametrize("flag, count", [("--expect-train", "2624"),
                                             ("--expect-test", "880")])
    def test_validate_one_count(self, tmp_path, capsys, flag, count):
        path = tmp_path / "split.txt"
        dataset.save_split(full_dataset_manifest(), path)
        assert main(["dataset", "validate", "--manifest", str(path), flag, count]) == 0
        assert "train clips 2624" in capsys.readouterr().out

    def test_validate_one_count_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "split.txt"
        dataset.save_split(full_dataset_manifest(), path)
        code = main(["dataset", "validate", "--manifest", str(path), "--expect-test", "881"])
        assert code == 2
        assert "split counts (2624, 880) do not match expected (None, 881)" in (
            capsys.readouterr().err)

    def test_validate_overlap_exits_2(self, tmp_path, capsys):
        name = "HandWash_005_A_03_G_01.avi"
        path = tmp_path / "overlap.txt"
        path.write_text(f"[train]\n{name}\n[test]\n{name}\n")
        code = main(["dataset", "validate", "--manifest", str(path)])
        assert code == 2
        assert name in capsys.readouterr().err

    def test_synth_and_split_roundtrip(self, synth_dir, tmp_path, capsys):
        split_out = tmp_path / "resplit.txt"
        code = main(["dataset", "split", "--clips", str(synth_dir),
                     "--out", str(split_out), "--test-fraction", "0.5"])
        assert code == 0
        manifest = dataset.load_split(split_out)
        assert manifest.train and manifest.test

    @pytest.mark.parametrize("fraction", ["nan", "inf", "-0.5", "0", "1"])
    def test_split_fraction_outside_unit_interval_exits_2(self, synth_dir, tmp_path, capsys,
                                                           fraction):
        split_out = tmp_path / "split.txt"
        code = main(["dataset", "split", "--clips", str(synth_dir), "--out", str(split_out),
                     "--test-fraction", fraction])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: test_fraction must be in (0, 1), got {float(fraction)}\n"
        assert not split_out.exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1", "0"])
    def test_synth_duration_not_finite_and_positive_exits_2(self, tmp_path, capsys, duration):
        out = tmp_path / "data"
        assert main(["dataset", "synth", "--out", str(out), "--duration", duration]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: duration_s must be finite and > 0, got {float(duration)}"]
        assert not out.exists()

    def test_missing_required_flag(self, capsys):
        code = main(["dataset", "validate"])
        assert code == 2
        assert "--manifest" in capsys.readouterr().err


def _leaf_parsers(parser, prefix=""):
    """(command, parser) for every runnable command, ``dataset`` actions included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_every_command_takes_exactly_its_header_keys(monkeypatch):
    monkeypatch.delenv("RTAR_THREADS", raising=False)
    settings = Settings(argparse.Namespace())
    commands = dict(_leaf_parsers(build_parser()))
    assert sorted(commands) == ["ablation", "bench", "dataset split", "dataset synth",
                                "dataset validate", "eval", "preprocess", "run", "train"]
    for command, parser in commands.items():
        flags = {a.dest for a in parser._actions if a.dest in OPTION_DEFAULTS}
        header = [line[2:].partition("=")[0] for line in settings.header(command)]
        assert header[0] == "command" and header[1:3] == ["seed", "threads"]
        assert sorted(header[1:]) == sorted(flags), command


@pytest.mark.parametrize("argv, reason", [
    (["dataset", "synth", "--out", "{file}"], "File exists"),
    (["preprocess", "--clips", "{data}", "--out", "{file}"], "File exists"),
    (["dataset", "validate", "--manifest", "{data}"], "Is a directory"),
], ids=["synth_out_is_a_file", "preprocess_out_is_a_file", "manifest_is_a_directory"])
def test_os_error_exits_2_with_one_line(synth_dir, tmp_path, capsys, argv, reason):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([a.format(file=taken, data=synth_dir) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]


def _readme_commands():
    """Every ``rtar ...`` line in README's code blocks, continuations joined."""
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")) as f:
        blocks = f.read().split("```")[1::2]
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line.split()[1:] for line in lines if line.strip().startswith("rtar ")]


def test_readme_commands_parse():
    commands = [build_parser().parse_args(argv).command for argv in _readme_commands()]
    assert len(commands) >= 6 and "ablation" in commands


class TestAblation:
    def test_prints_four_rows_and_writes_only_under_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["ablation", "--out", "out"] + SYNTH_ARGS + FAST_FLAGS + TINY_MODEL) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# command=ablation" and "# streams=rgb,flow,hog" not in out
        header = out.index(f"{'streams':<16}{'clip_acc':>9}{'frame_acc':>10}{'params':>9}{'secs':>6}")
        rows = [line.split() for line in out[header + 1 : header + 5]]
        assert [row[0] for row in rows] == ["rgb,flow,hog", "rgb", "flow", "hog"]
        for row in rows:
            assert len(row) == 5 and 0 <= float(row[1]) <= 1 and 0 <= float(row[2]) <= 1
            assert int(row[3]) > 0
        assert out[header + 5] == ""
        assert os.listdir(tmp_path) == ["out"]
        assert (tmp_path / "out" / "split.txt").exists()

    def test_empty_section_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        one_clip = SYNTH_ARGS[:1] + ["1"] + SYNTH_ARGS[2:]  # --clips-per-class 1
        assert main(["ablation", "--out", "out"] + one_clip + FAST_FLAGS + TINY_MODEL) == 2
        captured = capsys.readouterr()
        assert all(line.startswith("# ") for line in captured.out.splitlines())
        assert captured.err.startswith(
            "error: clips_per_class=1 and groups=2 give 4 train and 0 test")
        assert len(captured.err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["out"]


class TestPreprocessCommand:
    def test_cache_generation(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cache"
        code = main(["preprocess", "--clips", str(synth_dir), "--out", str(out),
                     "--seed", "3"] + FAST_FLAGS)
        assert code == 0
        assert (out / "cache.index").exists()
        assert list(out.glob("*.flo"))
        text = capsys.readouterr().out
        assert "# command=preprocess" in text
        written = int(re.search(r"(\d+) files written, 0 unchanged", text).group(1))
        assert written > 0
        assert main(["preprocess", "--clips", str(synth_dir), "--out", str(out),
                     "--seed", "3"] + FAST_FLAGS) == 0
        assert f"0 files written, {written} unchanged" in capsys.readouterr().out


class TestTrainEvalRun:
    def test_train_outputs(self, trained):
        out_dir = trained.parent
        assert trained.exists()
        history = (out_dir / "loss_history.tsv").read_text().splitlines()
        assert len(history) == 1
        epoch, loss = history[0].split("\t")
        assert epoch == "0" and float(loss) > 0

    @pytest.mark.parametrize("flag,values", [("--epochs", "0 and 4"), ("--batch", "1 and 0")])
    def test_train_zero_epochs_or_batch_exits_2(self, synth_dir, tmp_path, capsys, flag, values):
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run")]
                    + FAST_FLAGS + TINY_MODEL + [flag, "0"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: epochs and batch must be >= 1, got {values}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--momentum", "inf")])
    def test_train_non_finite_lr_or_momentum_exits_2(self, synth_dir, tmp_path, capsys,
                                                      flag, value):
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run")]
                    + FAST_FLAGS + TINY_MODEL + [flag, value])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag[2:]} must be finite, got {value}"]
        assert not (tmp_path / "run").exists()

    def test_train_on_cache_of_other_iterations_exits_2(self, synth_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["preprocess", "--clips", str(synth_dir), "--out", str(cache),
                     "--seed", "3"] + FAST_FLAGS) == 0
        capsys.readouterr()
        flags = FAST_FLAGS[:-1] + ["1"]  # --iterations 1 instead of 8
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--cache", str(cache), "--seed", "3"] + flags + TINY_MODEL)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cache ")
        assert "iterations=8" in err[0] and "iterations=1" in err[0]
        assert not (tmp_path / "run").exists()

    def test_train_on_missing_cache_exits_2(self, synth_dir, tmp_path, capsys):
        missing = tmp_path / "no" / "cache"
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--cache", str(missing), "--seed", "3"] + FAST_FLAGS + TINY_MODEL)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cache {missing} is not a directory"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("recorded", [
        # what caches recorded before they carried a preprocessing version
        "PreprocessConfig(target_size=16, sample_frames_per_second=2, flow=FlowParams("
        "pyramid_levels=2, scale=0.5, alpha=15.0, iterations=8), hog=HogParams(cell=8, "
        "bins=9, block=2), rng_seed=3)",
        "PreprocessConfig(target_size=16, sample_frames_per_second=2, flow=FlowParams("
        "pyramid_levels=2, scale=0.5, alpha=15.0, iterations=8), rng_seed=3)",
    ], ids=["with_hog_params", "bare_repr"])
    def test_train_on_unversioned_cache_exits_2(self, synth_dir, tmp_path, capsys, recorded):
        cache = tmp_path / "cache"
        assert main(["preprocess", "--clips", str(synth_dir), "--out", str(cache),
                     "--seed", "3"] + FAST_FLAGS) == 0
        (cache / "cache.config").write_text(recorded)
        capsys.readouterr()
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--cache", str(cache), "--seed", "3"] + FAST_FLAGS + TINY_MODEL)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cache ")
        assert recorded in err[0] and "preprocess_version=" in err[0]
        assert not (tmp_path / "run").exists()

    def test_train_on_cache_of_version_2_exits_2(self, synth_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["preprocess", "--clips", str(synth_dir), "--out", str(cache),
                     "--seed", "3"] + FAST_FLAGS) == 0
        stamp = (cache / "cache.config").read_text()
        assert stamp.startswith("preprocess_version=3 ")
        (cache / "cache.config").write_text(stamp.replace("=3 ", "=2 ", 1))
        capsys.readouterr()
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--cache", str(cache), "--seed", "3"] + FAST_FLAGS + TINY_MODEL)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cache ") and "version=2 " in err[0]
        assert not (tmp_path / "run").exists()

    def test_train_on_cache_of_wrong_shaped_hog_exits_2(self, synth_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["preprocess", "--clips", str(synth_dir), "--out", str(cache),
                     "--seed", "3"] + FAST_FLAGS) == 0
        pgm = sorted(cache.glob("*.pgm"))[0]
        mediaio.write_pgm(np.zeros((8, 8), dtype=np.uint8), pgm)
        capsys.readouterr()
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--cache", str(cache), "--seed", "3"] + FAST_FLAGS + TINY_MODEL)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cached {pgm} holds a (8, 8) map, expected (16, 16)"]
        assert not (tmp_path / "run").exists()

    def test_garbled_cache_config_rebuilt_by_preprocess_refused_by_train_and_eval(
            self, synth_dir, trained, tmp_path, capsys):
        cache = tmp_path / "cache"
        preprocess = ["preprocess", "--clips", str(synth_dir), "--out", str(cache),
                      "--seed", "3"] + FAST_FLAGS
        assert main(preprocess) == 0
        stamp = (cache / "cache.config").read_bytes()
        for argv in (["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                      "--cache", str(cache), "--seed", "3"] + FAST_FLAGS + TINY_MODEL,
                     ["eval", "--checkpoint", str(trained), "--data", str(synth_dir),
                      "--cache", str(cache), "--seed", "3"] + FAST_FLAGS):
            (cache / "cache.config").write_bytes(b"\xff\xfe")
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: cache ") and "\\xff\\xfe" in err[0]
        assert not (tmp_path / "run").exists()
        assert main(preprocess) == 0
        assert (cache / "cache.config").read_bytes() == stamp

    def test_non_ascii_labels_exit_2(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "split.txt").write_bytes((synth_dir / "split.txt").read_bytes())
        (data / "labels.tsv").write_bytes((synth_dir / "labels.tsv").read_bytes() + b"\xff\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                    + FAST_FLAGS + TINY_MODEL)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: labels file is not ASCII")

    def test_empty_labels_exit_2(self, synth_dir, trained, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "split.txt").write_bytes((synth_dir / "split.txt").read_bytes())
        (data / "labels.tsv").write_bytes(b"\n")
        labels_path = str(data / "labels.tsv")
        for argv in (["train", "--data", str(data), "--out", str(tmp_path / "run")]
                     + FAST_FLAGS + TINY_MODEL[:-2],
                     ["eval", "--checkpoint", str(trained), "--data", str(data)] + FAST_FLAGS):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {labels_path} has no entries"]
        assert not (tmp_path / "run").exists()

    def test_train_and_bench_headers_list_classes_and_bn(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("classes=5\nbn=0\n")
        assert TINY_MODEL[-2:] == ["--classes", "4"]  # a flag would beat the config file
        assert main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--seed", "3"] + FAST_FLAGS + TINY_MODEL[:-2]) == 0
        header = capsys.readouterr().out.splitlines()
        assert "# classes=5" in header and "# bn=False" in header
        assert main(["bench", "--config", str(cfg), "--frames", "1", "--target-size", "32",
                     "--growth", "2", "--blocks", "2", "--pyramid-levels", "2",
                     "--iterations", "4"]) == 0
        assert "# bn=False" in capsys.readouterr().out.splitlines()

    def test_eval_report(self, synth_dir, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained), "--data", str(synth_dir),
                     "--seed", "3"] + FAST_FLAGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "clip accuracy" in out
        assert "below-threshold rate" in out
        assert "per-class accuracy" in out

    def test_eval_threshold_out_of_range_exits_2(self, synth_dir, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained), "--data", str(synth_dir),
                     "--threshold", "1.5"] + FAST_FLAGS)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold_confidence must be in [0, 1)\n"

    def test_eval_size_mismatch_is_usage_error(self, synth_dir, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained), "--data", str(synth_dir),
                     "--target-size", "32", "--sample-fps", "2"])
        assert code == 2
        assert "target_size" in capsys.readouterr().err

    def test_run_event_log(self, synth_dir, trained, capsys):
        clip = sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--checkpoint", str(trained),
                     "--clip", str(synth_dir / clip), "--seed", "3"] + FAST_FLAGS)
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines
        assert all(l.split("\t")[0] in ("POLL", "ERRONEOUS") for l in lines)
        assert "# command=run" in captured.err  # header on stderr, log on stdout

    @pytest.mark.parametrize("key", ["poll_interval", "stipulated_time", "window_seconds"])
    def test_run_nan_timing_exits_2(self, synth_dir, trained, capsys, key):
        clip = sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--checkpoint", str(trained), "--clip", str(synth_dir / clip),
                     "--" + key.replace("_", "-"), "nan"] + FAST_FLAGS)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"error: {key} must be finite, got nan"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_run_non_finite_alpha_exits_2(self, synth_dir, trained, capsys, value):
        clip = sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--checkpoint", str(trained), "--clip", str(synth_dir / clip),
                     "--alpha", value] + FAST_FLAGS)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"error: alpha must be finite and > 0, got {value}"

    def test_run_gray_frame_exits_2(self, synth_dir, trained, tmp_path, capsys):
        clip = sorted(p for p in synth_dir.iterdir() if p.is_dir())[0]
        gray = tmp_path / clip.name
        shutil.copytree(clip, gray)
        for path in gray.glob("*.ppm"):
            mediaio.write_ppm(mediaio.read_ppm(path)[:, :, 0], path)
        code = main(["run", "--checkpoint", str(trained), "--clip", str(gray)] + FAST_FLAGS)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: frame \d+ is grayscale \(P5\), expected RGB \(P6\)",
                            captured.err.splitlines()[-1])

    def test_run_byte_identical(self, synth_dir, trained, capsys):
        clip = sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        argv = ["run", "--checkpoint", str(trained),
                "--clip", str(synth_dir / clip), "--seed", "3"] + FAST_FLAGS
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_live_inference_failure_exits_2(self, synth_dir, trained, capsys, monkeypatch):
        calls = []
        real_predict = FusionModel.predict

        def predict(self, rgb=None, flow=None, hog=None):
            calls.append(1)
            if len(calls) == 3:
                raise ContractViolationError("third predict fails")
            return real_predict(self, rgb, flow, hog)

        monkeypatch.setattr(FusionModel, "predict", predict)
        clip = sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--live", "--checkpoint", str(trained),
                     "--clip", str(synth_dir / clip), "--seed", "3"] + FAST_FLAGS)
        assert code == 2
        assert "third predict fails" in capsys.readouterr().err

    @pytest.fixture
    def live_configs(self, monkeypatch):
        """Stands in for run_pipeline_live and records the config it gets."""
        configs = []

        def fake_live(frames, model, config, pre):
            configs.append(config)
            return [], 0

        monkeypatch.setattr(runtime, "run_pipeline_live", fake_live)
        return configs

    def test_live_ring_sized_from_clip_fps(self, synth_dir, trained, tmp_path, live_configs):
        cfg = tmp_path / "cfg"
        cfg.write_text("fps=30\n")  # synth's frame rate key must not reach the runtime
        clip = synth_dir / sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--live", "--checkpoint", str(trained), "--clip", str(clip),
                     "--config", str(cfg), "--seed", "3"] + FAST_FLAGS)
        assert code == 0
        clip_fps = mediaio.read_clip_meta(clip / "clip.meta").fps
        assert clip_fps == 4
        assert [c.fps for c in live_configs] == [clip_fps]

    def test_run_header_lists_every_preprocess_setting(self, synth_dir, trained, capsys,
                                                        live_configs):
        clip = synth_dir / sorted(p.name for p in synth_dir.iterdir() if p.is_dir())[0]
        code = main(["run", "--live", "--checkpoint", str(trained), "--clip", str(clip),
                     "--seed", "3", "--alpha", "12.5"] + FAST_FLAGS)
        assert code == 0
        header = capsys.readouterr().err.splitlines()
        for line in ("# target_size=16", "# sample_fps=2", "# pyramid_levels=2",
                     "# iterations=8", "# flow_scale=0.5", "# alpha=12.5"):
            assert line in header


class TestConfigFile:
    def test_flags_beat_config_beat_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("frames=2\ntarget_size=32\n")
        code = main(["bench", "--config", str(cfg), "--frames", "1",
                     "--growth", "2", "--blocks", "2", "--pyramid-levels", "2",
                     "--iterations", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# frames=1" in out        # flag wins
        assert "# target_size=32" in out  # config beats default

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("not_a_key=7\n")
        code = main(["bench", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_ascii_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1 # caf\xe9\n")
        code = main(["dataset", "validate", "--manifest", str(tmp_path / "split.txt"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config file is not ASCII")

    def test_threads_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RTAR_THREADS", "3")
        cfg = tmp_path / "cfg"
        cfg.write_text("frames=1\ntarget_size=32\n")
        code = main(["bench", "--config", str(cfg), "--growth", "2", "--blocks", "2",
                     "--pyramid-levels", "2", "--iterations", "4"])
        assert code == 0
        assert "# threads=3" in capsys.readouterr().out

        split = tmp_path / "split.txt"
        dataset.save_split(dataset.SplitManifest(train=["HandWash_001_A_01_G_00.avi"]), split)
        validate = ["dataset", "validate", "--manifest", str(split)]
        monkeypatch.setenv("RTAR_THREADS", "")
        assert main(validate) == 0
        assert "# threads=1" in capsys.readouterr().out
        monkeypatch.delenv("RTAR_THREADS")
        assert main(validate) == 0
        assert "# threads=1" in capsys.readouterr().out
        assert main(validate + ["--threads", "2"]) == 0
        assert "# threads=2" in capsys.readouterr().out
        for bad in ("0", "-2", "abc"):
            monkeypatch.setenv("RTAR_THREADS", bad)
            assert main(validate) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: RTAR_THREADS must be a positive integer, got {bad!r}\n"

    def test_nonpositive_threads_flag_exits_2(self, tmp_path, capsys):
        validate = ["dataset", "validate", "--manifest", str(tmp_path / "split.txt")]
        for bad in ("0", "-3"):
            assert main(validate + ["--threads", bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: threads must be a positive integer, got {bad}\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=-1\n")
        synth_flag = ["dataset", "synth", "--out", str(tmp_path / "data"), "--seed", "-1"]
        bench_file = TINY_BENCH + ["--config", str(cfg)]
        for argv in (synth_flag, bench_file):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "data").exists()

    def test_section_config_key_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("section=tset\n")
        code = main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(tmp_path),
                     "--config", str(cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: section must be train or test, got 'tset'\n"

    def test_bad_blocks_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("blocks=4,x\n")
        train = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                 "--config", str(cfg)]
        ablation = ["ablation", "--out", str(tmp_path / "ab"), "--blocks", "4,x"]
        for argv in (TINY_BENCH + ["--blocks", "4,x"], train, ablation):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: blocks must be comma-separated integers, got '4,x'\n"

    def test_nonpositive_threads_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("threads=0\n")
        code = main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(tmp_path),
                     "--config", str(cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be a positive integer, got 0\n"


class TestBench:
    def test_reports_all_stages(self, capsys):
        code = main(["bench", "--frames", "2", "--target-size", "32", "--growth", "2",
                     "--blocks", "2", "--pyramid-levels", "2", "--iterations", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        table = lines[next(i for i, line in enumerate(lines) if line.startswith("stage")) + 1 :]
        assert [line.split()[0] for line in table] == [
            "resize", "flow", "hog", "stream_forward_rgb", "stream_forward_flow",
            "stream_forward_hog", "fuse_head", "predict", "pre_combined"]

    @pytest.mark.parametrize("streams", ["rgb", "flow,hog"])
    def test_stream_subsets(self, streams, capsys):
        assert main(TINY_BENCH + ["--streams", streams]) == 0
        out = capsys.readouterr().out
        assert f"# streams={streams}" in out.splitlines()
        assert "fuse_head" in out
        assert [line.split()[0] for line in out.splitlines() if line.startswith("stream_")] == [
            f"stream_forward_{name}" for name in streams.split(",")]

    def test_zero_frames_exits_2(self, capsys):
        assert main(["bench", "--frames", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: frames must be a positive integer, got 0\n"
