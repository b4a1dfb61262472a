import hashlib
import os

import numpy as np
import pytest

from rtar import dataset, mediaio, network, synth
from rtar.errors import ContractViolationError
from rtar.preprocess import FlowParams, PreprocessConfig, compute_flow, sample_frames
from rtar.preprocess.resize import grayscale_bt601

SMALL = synth.SynthConfig(num_classes=4, clips_per_class=4, fps=4, duration_s=1.5,
                          resolution=32, groups=2)


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    result = synth.generate_synthetic(SMALL, seed=5, out_dir=out)
    return out, result


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path, small_tree):
        again = tmp_path / "again"
        synth.generate_synthetic(SMALL, seed=5, out_dir=again)
        assert tree_digest(again) == tree_digest(small_tree[0])

    def test_cw_ccw_share_frame_zero(self, small_tree):
        out, result = small_tree
        cw = [n for n in result.clip_names if dataset.parse_clip_name(n).action_class == 3]
        ccw = [n for n in result.clip_names if dataset.parse_clip_name(n).action_class == 4]
        for a, b in zip(sorted(cw), sorted(ccw)):
            fa = (out / a / "frame_000000.ppm").read_bytes()
            fb = (out / b / "frame_000000.ppm").read_bytes()
            assert fa == fb
        later_a = (out / cw[0] / "frame_000003.ppm").read_bytes()
        later_b = (out / ccw[0] / "frame_000003.ppm").read_bytes()
        assert later_a != later_b  # motion does diverge

    def test_horizontal_pairs_have_zero_vertical_truth(self):
        for wash in range(4):
            for frame in range(5):
                du, dv, dtheta = synth.pair_motion(SMALL, 5, wash, 0, frame)
                assert dv == 0.0
                assert dtheta == 0.0

    def test_rotation_pairs_have_constant_dtheta(self):
        step = synth._OMEGA_RAD_S / SMALL.fps
        for frame in range(5):
            _, _, d_cw = synth.pair_motion(SMALL, 5, 0, 2, frame)
            _, _, d_ccw = synth.pair_motion(SMALL, 5, 0, 3, frame)
            assert d_cw == pytest.approx(-step)
            assert d_ccw == pytest.approx(step)

    def test_split_group_disjoint_and_balanced(self, small_tree):
        _, result = small_tree
        manifest = result.manifest
        train_groups = {dataset.parse_clip_name(n).group for n in manifest.train}
        test_groups = {dataset.parse_clip_name(n).group for n in manifest.test}
        assert not (train_groups & test_groups)
        for names in (manifest.train, manifest.test):
            counts = {}
            for n in names:
                c = dataset.parse_clip_name(n).action_class
                counts[c] = counts.get(c, 0) + 1
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_labels_match_names(self, small_tree):
        _, result = small_tree
        labels = dataset.read_labels(result.labels_path)
        for name, label in labels.items():
            assert dataset.parse_clip_name(name).action_class == label + 1

    def test_clips_are_readable(self, small_tree):
        out, result = small_tree
        meta, frames = mediaio.read_clip(out / result.clip_names[0])
        assert meta.frame_count == SMALL.frame_count
        assert len(list(frames)) == SMALL.frame_count

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ContractViolationError):
            synth.SynthConfig(resolution=16)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_duration_not_finite_and_positive(self, duration):
        with pytest.raises(ContractViolationError, match="duration_s must be finite and > 0"):
            synth.SynthConfig(duration_s=duration)

    def test_short_positive_duration_keeps_two_frames(self):
        assert synth.SynthConfig(fps=4, duration_s=0.1).frame_count == 2


class TestFusionAblation:
    def test_empty_test_section_is_an_error_before_training(self, tmp_path, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("trained with an empty section")

        monkeypatch.setattr(network, "train", train)
        # one clip per class over two groups puts every clip in train
        config = synth.SynthConfig(clips_per_class=1, fps=4, duration_s=1.0, resolution=32,
                                   groups=2)
        pre = PreprocessConfig(target_size=16, sample_frames_per_second=2,
                               flow=FlowParams(pyramid_levels=2, iterations=8))
        model = network.ModelConfig(num_classes=4, growth_rate=2, blocks=(1,), input_size=16,
                                    bn_enabled=False)
        hyper = network.TrainConfig(lr=0.05, epochs=1, batch=4, seed=0)
        with pytest.raises(ContractViolationError,
                           match="clips_per_class=1 and groups=2 give 4 train and 0 test"):
            synth.fusion_ablation(config, pre, model, hyper, tmp_path)

    def test_checkpoints_record_the_flow_they_were_trained_on(self, tmp_path):
        config = synth.SynthConfig(clips_per_class=2, fps=4, duration_s=1.0, resolution=32,
                                   groups=2)
        pre = PreprocessConfig(target_size=16, sample_frames_per_second=2,
                               flow=FlowParams(pyramid_levels=2, scale=0.25, alpha=9.0,
                                               iterations=8))
        model = network.ModelConfig(num_classes=4, growth_rate=2, blocks=(1,), input_size=16,
                                    bn_enabled=False)  # the default FlowParams
        hyper = network.TrainConfig(lr=0.05, epochs=1, batch=4, seed=0)
        _, _, _, runs = synth.fusion_ablation(config, pre, model, hyper, tmp_path / "set")
        for streams, run in runs.items():
            path = tmp_path / "model.ckpt"
            network.save_model(run.model, path)
            assert network.load_model(path).config.flow == pre.flow, streams


class TestMotionVsFlow:
    def test_flow_sign_agreement(self, small_tree):
        """compute_flow's direction must agree with the analytic motion on
        nearly all sampled pairs (translation axis sign; curl sign for spins)."""
        out, result = small_tree
        params = FlowParams(pyramid_levels=3, iterations=30)
        agree = total = 0
        for name in result.clip_names:
            cid = dataset.parse_clip_name(name)
            clip_dir = out / name
            meta = mediaio.read_clip_meta(clip_dir / "clip.meta")
            for i, j in sample_frames(meta, 2, seed=3):
                du, dv, dtheta = synth.pair_motion(SMALL, 5, cid.wash_id,
                                                   cid.action_class - 1, i)
                g1 = grayscale_bt601(mediaio.read_frame(clip_dir, i, meta) / 255.0)
                g2 = grayscale_bt601(mediaio.read_frame(clip_dir, j, meta) / 255.0)
                flow = compute_flow(g1, g2, params)
                total += 1
                if dtheta != 0.0:
                    h, w = flow.shape[:2]
                    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
                    ys, xs = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
                    curl = float((xs * flow[..., 1] - ys * flow[..., 0]).mean())
                    agree += (curl > 0) == (dtheta > 0)
                elif abs(du) >= abs(dv):
                    agree += (flow[..., 0].mean() > 0) == (du > 0)
                else:
                    agree += (flow[..., 1].mean() > 0) == (dv > 0)
        assert agree / total >= 0.9
