"""The ``rtar`` command: preprocessing, training, evaluation, offline and
live runs, dataset tooling, the fusion ablation, and stage benchmarks.

Each command takes exactly the settings it reads, listed once in
``COMMANDS``: they are its flags, the keys its config file (``key=value``
lines) may name, and its ``#``-prefixed header lines (on stderr for
``run``, whose stdout is the event log). Settings resolve as flags > config
file > defaults; ``eval`` and ``run`` take the map settings (target size and
flow) from their checkpoint instead, and list them in their headers too.
All randomness flows from ``--seed``. Commands exit 0 on success and 2
on usage or validation errors (a config key the command does not take, or
one named twice, among them) with a one-line reason.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractViolationError, FormatError
from . import dataset as ds
from . import mediaio, network, runtime, synth
from .preprocess import (FlowParams, PreprocessConfig, compute_flow, compute_hog,
                         grayscale_bt601, pair_maps, preprocess_pair, render_hog,
                         resize_bilinear, stream_inputs, unit_scale)


class UsageError(Exception):
    pass


class Option(NamedTuple):
    default: object
    type: type
    valid: Callable[[object], bool] | None = None  # False, or ValueError, when out of range
    reason: str = ""  # the exit-2 line when ``valid`` fails, formatted with the value


def _block_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(b) for b in text.split(",") if b)


# dest -> Option; config-file keys use the dest name. A setting that a library
# config also has takes that config's default, and that config checks its range.
OPTION_DEFAULTS: dict[str, Option] = {
    "seed": Option(PreprocessConfig.rng_seed, int, lambda v: v >= 0,
                   "seed must be a non-negative integer, got {}"),
    "threads": Option(None, int, lambda v: v >= 1,  # None falls back to RTAR_THREADS, then 1
                      "threads must be a positive integer, got {}"),
    "target_size": Option(PreprocessConfig.target_size, int),
    "sample_fps": Option(PreprocessConfig.sample_frames_per_second, int),
    "pyramid_levels": Option(FlowParams.pyramid_levels, int),
    "flow_scale": Option(FlowParams.scale, float),
    "alpha": Option(FlowParams.alpha, float),
    "iterations": Option(FlowParams.iterations, int),
    "growth": Option(network.ModelConfig.growth_rate, int),
    "blocks": Option(",".join(map(str, network.ModelConfig.blocks)), str,
                     lambda v: _block_sizes(v) is not None,  # or ValueError
                     "blocks must be comma-separated integers, got {!r}"),
    "bottleneck": Option(network.ModelConfig.bottleneck_factor, int),
    "compression": Option(network.ModelConfig.compression, float),
    "streams": Option(",".join(network.ModelConfig.streams), str),
    "bn": Option(network.ModelConfig.bn_enabled, bool),
    "classes": Option(0, int),  # 0 = infer from labels
    "epochs": Option(network.TrainConfig.epochs, int),
    "lr": Option(network.TrainConfig.lr, float),
    "momentum": Option(network.TrainConfig.momentum, float),
    "batch": Option(network.TrainConfig.batch, int),
    "threshold": Option(runtime.RuntimeConfig.threshold_confidence, float,
                        lambda v: 0 <= v < 1, "threshold_confidence must be in [0, 1)"),
    "poll_interval": Option(runtime.RuntimeConfig.poll_interval, float),
    "stipulated_time": Option(runtime.RuntimeConfig.stipulated_time, float),
    "window_seconds": Option(runtime.RuntimeConfig.window_seconds, float),
    "clips_per_class": Option(synth.SynthConfig.clips_per_class, int),
    "fps": Option(synth.SynthConfig.fps, int),
    "duration": Option(synth.SynthConfig.duration_s, float),
    "resolution": Option(synth.SynthConfig.resolution, int),
    "groups": Option(synth.SynthConfig.groups, int),
    "test_fraction": Option(ds.TEST_FRACTION, float, lambda v: 0 < v < 1,
                            "test_fraction must be in (0, 1), got {}"),
    "frames": Option(20, int, lambda v: v >= 1, "frames must be a positive integer, got {}"),
    "expect_train": Option(None, int),  # None = not checked
    "expect_test": Option(None, int),
    "section": Option("test", str, lambda v: v in ("train", "test"),
                      "section must be train or test, got {!r}"),
}

# the settings that shape PreprocessConfig besides its seed
PREPROCESS_KEYS = ["target_size", "sample_fps", "pyramid_levels", "flow_scale", "alpha",
                   "iterations"]
# those that shape the maps rather than choose the pairs: a checkpoint records them, so
# eval and run read them from it and take no flag for them
MAP_KEYS = [key for key in PREPROCESS_KEYS if key != "sample_fps"]
# the settings that shape ModelConfig besides its class count and input size
MODEL_KEYS = ["growth", "blocks", "compression", "bottleneck", "streams", "bn"]
# the settings that shape SynthConfig
SYNTH_KEYS = ["classes", "clips_per_class", "fps", "duration", "resolution", "groups"]
# the settings that shape TrainConfig besides its seed
TRAIN_KEYS = ["epochs", "lr", "momentum", "batch"]


def _coerce(key: str, raw: str):
    typ = OPTION_DEFAULTS[key].type
    if typ is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {raw!r} as {typ.__name__}") from None


def _read_config_file(path: str, command: str) -> dict:
    """The settings a config file names, each one that ``command`` takes, once."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.readlines()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"config file is not ASCII: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTION_DEFAULTS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key not in COMMANDS[command].keys:
            raise UsageError(f"config line {lineno}: rtar {command} takes no setting {key!r}")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, value.strip())
    return values


class Settings:
    """The resolved settings of one command, exactly those it takes: flags beat
    the config file, which beats defaults. With a checkpoint, the map settings
    (``MAP_KEYS``) are the ones it records."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        keys = COMMANDS[self.command].keys
        file_values = (_read_config_file(args.config, self.command)
                       if getattr(args, "config", None) else {})
        for key in keys:
            flag = getattr(args, key, None)
            setattr(self, key, flag if flag is not None
                    else file_values.get(key, OPTION_DEFAULTS[key].default))
        if "threads" in keys and self.threads is None:
            env = os.environ.get("RTAR_THREADS", "")
            if env and not (env.isdigit() and int(env) > 0):
                raise UsageError(f"RTAR_THREADS must be a positive integer, got {env!r}")
            self.threads = int(env) if env else 1
        for key in keys:
            option, value = OPTION_DEFAULTS[key], getattr(self, key)
            if option.valid is None:
                continue
            try:
                valid = option.valid(value)
            except ValueError:
                valid = False
            if not valid:
                raise UsageError(option.reason.format(value))
        self.model = None
        if getattr(args, "checkpoint", None):
            self.model = network.load_model(args.checkpoint)
            cfg = self.model.config
            self.target_size = cfg.input_size
            self.pyramid_levels, self.flow_scale = cfg.flow.pyramid_levels, cfg.flow.scale
            self.alpha, self.iterations = cfg.flow.alpha, cfg.flow.iterations

    def header(self) -> list[str]:
        keys = COMMANDS[self.command].keys
        if self.model is not None:  # eval and run: the maps their checkpoint records
            keys = keys + MAP_KEYS
        return [f"# command={self.command}"] + [f"# {key}={getattr(self, key)}" for key in keys]

    def flow_params(self) -> FlowParams:
        return FlowParams(pyramid_levels=self.pyramid_levels, scale=self.flow_scale,
                          alpha=self.alpha, iterations=self.iterations)

    def preprocess_config(self) -> PreprocessConfig:
        return PreprocessConfig(
            target_size=self.target_size,
            # bench times single pairs, so it takes no pair rate
            sample_frames_per_second=getattr(self, "sample_fps",
                                             OPTION_DEFAULTS["sample_fps"].default),
            flow=self.flow_params(),
            rng_seed=self.seed,
        )

    def model_config(self, num_classes: int) -> network.ModelConfig:
        # ablation trains every stream set, so it takes no stream set
        streams = getattr(self, "streams", OPTION_DEFAULTS["streams"].default)
        return network.ModelConfig(
            num_classes=num_classes, growth_rate=self.growth, blocks=_block_sizes(self.blocks),
            bottleneck_factor=self.bottleneck, compression=self.compression,
            input_size=self.target_size, bn_enabled=self.bn,
            streams=tuple(name.strip() for name in streams.split(",") if name.strip()),
            flow=self.flow_params(),
        )

    def synth_config(self) -> synth.SynthConfig:
        return synth.SynthConfig(
            num_classes=self.classes or synth.SynthConfig.num_classes,
            clips_per_class=self.clips_per_class, fps=self.fps, duration_s=self.duration,
            resolution=self.resolution, groups=self.groups,
        )

    def train_config(self) -> network.TrainConfig:
        return network.TrainConfig(lr=self.lr, momentum=self.momentum, epochs=self.epochs,
                                   batch=self.batch, seed=self.seed)

    def runtime_config(self, fps: int) -> runtime.RuntimeConfig:
        """``fps`` is the source clip's frame rate, at which live mode
        predicts and so sizes its ring."""
        return runtime.RuntimeConfig(
            poll_interval=self.poll_interval, threshold_confidence=self.threshold,
            stipulated_time=self.stipulated_time, window_seconds=self.window_seconds,
            fps=fps,
        )


def _clip_names_in(clips_dir: str) -> list[str]:
    if not os.path.isdir(clips_dir):
        raise UsageError(f"not a directory: {clips_dir}")
    names = []
    for entry in sorted(os.listdir(clips_dir)):
        if os.path.isdir(os.path.join(clips_dir, entry)):
            try:
                ds.parse_clip_name(entry)
            except FormatError:
                continue
            names.append(entry)
    if not names:
        raise UsageError(f"no clip directories found in {clips_dir}")
    return names


def _emit(lines, stream=None):
    stream = stream or sys.stdout
    for line in lines:
        print(line, file=stream)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_preprocess(args, s: Settings) -> int:
    names = _clip_names_in(args.clips)
    result = ds.precompute_cache(args.clips, names, s.preprocess_config(), args.out,
                                 threads=s.threads)
    print(f"cached {len(names) - len(result.failures)} clips: "
          f"{result.written} files written, {result.skipped} unchanged")
    for name, reason in result.failures:
        print(f"failed {name}: {reason}")
    print(f"index: {result.index_path}")
    return 0


def _load_sections(data_dir: str):
    split_path = os.path.join(data_dir, "split.txt")
    labels_path = os.path.join(data_dir, "labels.tsv")
    if not os.path.exists(split_path) or not os.path.exists(labels_path):
        raise UsageError(f"{data_dir} must contain split.txt and labels.tsv")
    manifest = ds.load_split(split_path)
    labels = ds.read_labels(labels_path)
    if not labels:
        raise UsageError(f"{labels_path} has no entries")
    return manifest, labels


def cmd_train(args, s: Settings) -> int:
    manifest, labels = _load_sections(args.data)
    if not manifest.train:
        raise UsageError("split.txt has an empty [train] section")
    hyper = s.train_config()
    num_classes = s.classes or (max(labels.values()) + 1)
    pre = s.preprocess_config()
    clips = ds.load_clip_samples(args.data, manifest.train, labels, pre,
                                 cache_dir=args.cache)
    samples = ds.flatten_samples(clips)
    model = network.FusionModel(s.model_config(num_classes), seed=s.seed)
    history = network.train(model, samples, hyper)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.ckpt")
    network.save_model(model, ckpt)
    with open(os.path.join(args.out, "loss_history.tsv"), "wb") as f:
        for epoch, loss in enumerate(history):
            f.write(f"{epoch}\t{loss:.6f}\n".encode("ascii"))
    print(f"trained on {len(samples)} samples from {len(clips)} clips")
    print(f"final epoch loss: {history[-1]:.6f}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_eval(args, s: Settings) -> int:
    manifest, labels = _load_sections(args.data)
    names = manifest.test if s.section == "test" else manifest.train
    if not names:
        raise UsageError(f"split section [{s.section}] is empty")
    clips = ds.load_clip_samples(args.data, names, labels, s.preprocess_config(),
                                 cache_dir=args.cache)
    report = network.evaluate(s.model, clips, threshold_confidence=s.threshold)
    print(f"clips evaluated      {report.clip_count}")
    print(f"clip accuracy        {report.accuracy:.4f}")
    print(f"frame accuracy       {report.frame_accuracy:.4f}")
    print(f"below-threshold rate {report.below_threshold_rate:.4f}")
    print("per-class accuracy")
    for cls, acc in report.per_class.items():
        print(f"  class {cls:<3d} {acc:.4f}")
    return 0


def cmd_run(args, s: Settings) -> int:
    model, pre = s.model, s.preprocess_config()
    meta = mediaio.read_clip_meta(os.path.join(args.clip, "clip.meta"))
    config = s.runtime_config(fps=meta.fps)
    if args.live:
        def replay():
            start = time.monotonic()
            for i in range(meta.frame_count):
                due = i / meta.fps
                lag = due - (time.monotonic() - start)
                if lag > 0:
                    time.sleep(lag)
                yield due, mediaio.read_frame(args.clip, i, meta)

        lines, dropped = runtime.run_pipeline_live(replay(), model, config, pre)
        _emit(lines)
        print(f"# dropped_pairs={dropped}", file=sys.stderr)
    else:
        _emit(runtime.run_pipeline_offline(args.clip, model, config, pre))
    return 0


def cmd_validate(args, s: Settings) -> int:
    counts = ds.validate_split(ds.load_split(args.manifest), (s.expect_train, s.expect_test))
    print(f"train clips {counts[0]}")
    print(f"test clips  {counts[1]}")
    return 0


def cmd_synth(args, s: Settings) -> int:
    result = synth.generate_synthetic(s.synth_config(), seed=s.seed, out_dir=args.out)
    print(f"generated {len(result.clip_names)} clips in {result.out_dir}")
    print(f"labels: {result.labels_path}")
    print(f"split:  {result.split_path} "
          f"({len(result.manifest.train)} train / {len(result.manifest.test)} test)")
    return 0


def cmd_ablation(args, s: Settings) -> int:
    t0 = time.monotonic()
    config = s.synth_config()
    manifest, train_clips, _, runs = synth.fusion_ablation(
        config, s.preprocess_config(), s.model_config(config.num_classes), s.train_config(),
        args.out)
    print(f"dataset: {len(manifest.train) + len(manifest.test)} clips "
          f"({len(manifest.train)} train / {len(manifest.test)} test) in {args.out}")
    print(f"preprocessed {sum(len(c.pairs) for c in train_clips)} training pairs")
    print(f"\n{'streams':<16}{'clip_acc':>9}{'frame_acc':>10}{'params':>9}{'secs':>6}")
    for streams, run in runs.items():
        print(f"{','.join(streams):<16}{run.report.accuracy:>9.3f}{run.report.frame_accuracy:>10.3f}"
              f"{network.parameter_count(run.model):>9d}{run.seconds:>6.0f}")
    print(f"\ntotal wall time {time.monotonic() - t0:.0f}s")
    return 0


def cmd_split(args, s: Settings) -> int:
    names = _clip_names_in(args.clips)
    groups = {ds.parse_clip_name(n).group for n in names}
    test_groups = ds.held_out_groups(groups, s.test_fraction)
    if len(test_groups) >= len(groups):
        raise UsageError(f"test_fraction {s.test_fraction} leaves no training groups")
    manifest = ds.SplitManifest()
    for name in names:
        section = manifest.test if ds.parse_clip_name(name).group in test_groups else manifest.train
        section.append(name)
    ds.save_split(manifest, args.out)
    print(f"wrote {args.out}: {len(manifest.train)} train / {len(manifest.test)} test "
          f"(test groups: {sorted(test_groups)})")
    return 0


def cmd_bench(args, s: Settings) -> int:
    rng = np.random.default_rng(s.seed)
    size = s.target_size
    n = s.frames
    model = network.FusionModel(s.model_config(num_classes=4), seed=s.seed)
    pre = s.preprocess_config()

    src = [rng.integers(0, 256, (2 * size, 2 * size, 3), dtype=np.uint8) for _ in range(2)]
    gray = [grayscale_bt601(unit_scale(resize_bilinear(f, size, size))) for f in src]
    inputs = dict(zip(("rgb", "flow", "hog"), stream_inputs(*pair_maps(src[0], src[1], pre))))
    ws = network.Workspace()
    pooled = {name: rng.standard_normal(model.feature_shape[2]).astype(np.float32)
              for name in model.config.streams}
    # one training step: one sample, one minibatch; it runs after every row
    # that reads the model's weights
    step = ([(inputs["rgb"], inputs["flow"], inputs["hog"], 0)],
            network.TrainConfig(epochs=1, batch=1, seed=s.seed))

    stages = {
        "resize": lambda: resize_bilinear(src[0], size, size),
        "flow": lambda: compute_flow(gray[0], gray[1], pre.flow),
        "hog": lambda: render_hog(compute_hog(gray[0])),
        **{f"stream_forward_{name}": lambda name=name: model.streams[name].forward(
            inputs[name], ws=ws) for name in model.config.streams},
        "fuse_head": lambda: model.head.forward(model.fuse(pooled)),
        "predict": lambda: model.predict(**inputs),
        "train_step": lambda: network.train(model, *step),
        "pre_combined": lambda: preprocess_pair(src[0], src[1], pre),
    }

    results = {}
    for name, fn in stages.items():
        fn()  # warmup
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1000)
        results[name] = (float(np.mean(times)), float(np.percentile(times, 95)))

    print(f"{'stage':<20}{'mean_ms':>10}{'p95_ms':>10}   ({n} samples each)")
    for name, (mean, p95) in results.items():
        print(f"{name:<20}{mean:>10.2f}{p95:>10.2f}")
    combined = results["pre_combined"][0]
    if combined > 140.0:
        print(f"warning: preprocessing mean {combined:.1f} ms exceeds the 140 ms "
              f"reference budget", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Command table and parser
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    run: Callable[[argparse.Namespace, Settings], int]
    help: str
    args: dict[str, dict]  # path arguments -> add_argument keywords
    # every setting the command reads, in header order: its flags, the keys its
    # config file may name and its header lines (eval and run add MAP_KEYS from the
    # checkpoint)
    keys: list[str]


REQUIRED = {"required": True}

COMMANDS = {
    "preprocess": Command(cmd_preprocess, "precompute flow/HOG cache for clips",
                          {"clips": REQUIRED, "out": REQUIRED},
                          ["seed", "threads"] + PREPROCESS_KEYS),
    "train": Command(cmd_train, "train a model on a clip dataset",
                     {"data": REQUIRED, "out": REQUIRED, "cache": {}},
                     ["seed"] + PREPROCESS_KEYS + ["classes"] + MODEL_KEYS + TRAIN_KEYS),
    "eval": Command(cmd_eval, "evaluate a checkpoint on a split section",
                    {"checkpoint": REQUIRED, "data": REQUIRED, "cache": {}},
                    ["seed", "sample_fps", "threshold", "section"]),
    "run": Command(cmd_run, "classify a clip, emitting the event log",
                   {"checkpoint": REQUIRED, "clip": REQUIRED, "live": {"action": "store_true"}},
                   ["seed", "sample_fps", "threshold", "poll_interval", "stipulated_time",
                    "window_seconds"]),
    "dataset validate": Command(cmd_validate, "check a split manifest",
                                {"manifest": REQUIRED}, ["expect_train", "expect_test"]),
    "dataset synth": Command(cmd_synth, "generate a synthetic clip set", {"out": REQUIRED},
                             ["seed"] + SYNTH_KEYS),
    "dataset split": Command(cmd_split, "write a group-disjoint split manifest",
                             {"clips": REQUIRED, "out": REQUIRED}, ["test_fraction"]),
    # every stream set is trained, so ``streams`` is no flag here
    "ablation": Command(cmd_ablation, "fused vs single-stream accuracy on a synthetic set",
                        {"out": REQUIRED}, ["seed"] + SYNTH_KEYS + PREPROCESS_KEYS
                        + [k for k in MODEL_KEYS if k != "streams"] + TRAIN_KEYS),
    # bench times single pairs, so ``sample_fps`` is no flag here
    "bench": Command(cmd_bench, "per-stage timing table", {},
                     ["seed", "frames"] + MAP_KEYS + MODEL_KEYS),
}

HELP = {
    "config": "key=value settings file",
    "seed": "master random seed",
    "threads": "cache worker threads, each caching one clip, its flow one solve per stack "
               f"of up to {ds.PAIRS_PER_SOLVE} pairs (default: RTAR_THREADS or 1)",
    "checkpoint": "trained model, which also sets the target size and flow it was trained at",
    "data": "dir with clips, labels.tsv, split.txt",
    "cache": "precomputed cache dir",
    "live": "replay at wall-clock speed (non-deterministic)",
    "blocks": "dense block sizes, e.g. 4,4",
    "streams": "subset of rgb,flow,hog",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtar",
        description="three-stream real-time action recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}  # "dataset" -> its nested subparsers
    for name, command in COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=f"{group} tooling").add_subparsers(
                dest="action", required=True)
        p = (groups[group] if group else sub).add_parser(action, help=command.help)
        p.set_defaults(command=name)
        for arg, kwargs in command.args.items():
            p.add_argument(f"--{arg}", help=HELP.get(arg), **kwargs)
        p.add_argument("--config", help=HELP["config"])
        for key in command.keys:
            typ = OPTION_DEFAULTS[key].type
            kind = {"action": argparse.BooleanOptionalAction} if typ is bool else {"type": typ}
            p.add_argument("--" + key.replace("_", "-"), help=HELP.get(key), **kind)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage and its reason
        return e.code
    try:
        s = Settings(args)
        _emit(s.header(), sys.stderr if args.command == "run" else sys.stdout)
        return COMMANDS[args.command].run(args, s)
    except (UsageError, FormatError, ContractViolationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
