#!/usr/bin/env python3
"""Fusion-vs-single-stream ablation on the synthetic fine-grained set.

Generates a group-disjoint 4-class dataset, trains the fused model and
the three single-stream ablations with an identical budget, and prints
clip-level test accuracy for each. This is the experiment behind
acceptance criterion 1 (``rtar.synth.fusion_ablation``), exposed with
knobs for exploration.

Example:
    python scripts/fusion_ablation.py --clips-per-class 40 --epochs 8
"""

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rtar import network, synth
from rtar.preprocess import FlowParams, PreprocessConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clips-per-class", type=int, default=40)
    ap.add_argument("--groups", type=int, default=10)
    ap.add_argument("--fps", type=int, default=8)
    ap.add_argument("--duration", type=float, default=2.0)
    ap.add_argument("--resolution", type=int, default=64)
    ap.add_argument("--target-size", type=int, default=32)
    ap.add_argument("--sample-fps", type=int, default=2)
    ap.add_argument("--growth", type=int, default=6)
    ap.add_argument("--blocks", default="2,2")
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--keep", default=None, help="keep the dataset in this directory")
    args = ap.parse_args()

    t0 = time.monotonic()
    cfg = synth.SynthConfig(num_classes=4, clips_per_class=args.clips_per_class,
                            fps=args.fps, duration_s=args.duration,
                            resolution=args.resolution, groups=args.groups)
    pre = PreprocessConfig(target_size=args.target_size,
                           sample_frames_per_second=args.sample_fps,
                           flow=FlowParams(pyramid_levels=3, iterations=30),
                           rng_seed=args.seed)
    model = network.ModelConfig(num_classes=4, growth_rate=args.growth, compression=0.5,
                                blocks=tuple(int(b) for b in args.blocks.split(",")),
                                input_size=args.target_size, bn_enabled=False)
    hyper = network.TrainConfig(lr=args.lr, momentum=0.9, epochs=args.epochs,
                                batch=args.batch, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="fusion_ablation_") as scratch:
        out = args.keep or scratch
        manifest, train_clips, _, runs = synth.fusion_ablation(cfg, pre, model, hyper, out)
    print(f"dataset: {len(manifest.train) + len(manifest.test)} clips "
          f"({len(manifest.train)} train / {len(manifest.test)} test) in {out}")
    print(f"preprocessed {sum(len(c.pairs) for c in train_clips)} training pairs")

    print(f"\n{'streams':<16}{'clip_acc':>9}{'frame_acc':>10}{'params':>9}{'secs':>6}")
    for streams, run in runs.items():
        print(f"{','.join(streams):<16}{run.report.accuracy:>9.3f}{run.report.frame_accuracy:>10.3f}"
              f"{network.parameter_count(run.model):>9d}{run.seconds:>6.0f}")
    print(f"\ntotal wall time {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
