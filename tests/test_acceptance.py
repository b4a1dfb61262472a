"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test records a pass/fail line that pytest prints in its terminal
summary. Criterion 1 trains four models end to end and dominates the
suite's runtime (about 100 s on a 2-core host).
"""

import hashlib
import os
import struct
import time

import numpy as np
import pytest

from rtar import dataset, mediaio, network, runtime, synth
from rtar.cli import main
from rtar.errors import FormatError
from rtar.nn.layers import softmax_cross_entropy
from rtar.preprocess import FlowParams, PreprocessConfig, compute_flow
from tests._acceptance_report import record_criterion
from tests.test_flow import smooth_periodic_texture
from tests.test_synth import tree_digest


# ---------------------------------------------------------------------------
# Criterion 1: fusion beats the single streams on the fine-grained set
# ---------------------------------------------------------------------------

EXP_SYNTH = synth.SynthConfig(num_classes=4, clips_per_class=40, fps=8,
                              duration_s=2.0, resolution=64, groups=10)
EXP_PRE = PreprocessConfig(target_size=32, sample_frames_per_second=2,
                           flow=FlowParams(pyramid_levels=3, iterations=30),
                           rng_seed=0)
EXP_TRAIN = network.TrainConfig(lr=0.05, momentum=0.9, epochs=8, batch=8, seed=0)
EXP_MODEL = network.ModelConfig(num_classes=4, growth_rate=6, blocks=(2, 2), compression=0.5,
                                input_size=32, bn_enabled=False)


@pytest.mark.slow
def test_criterion_1_fusion_beats_streams(tmp_path):
    t0 = time.monotonic()
    manifest, train_clips, _, runs = synth.fusion_ablation(EXP_SYNTH, EXP_PRE, EXP_MODEL,
                                                           EXP_TRAIN, tmp_path / "data")
    assert len(manifest.train) == 128 and len(manifest.test) == 32
    train_groups = {dataset.parse_clip_name(n).group for n in manifest.train}
    test_groups = {dataset.parse_clip_name(n).group for n in manifest.test}
    assert not (train_groups & test_groups), "split must be group-disjoint"

    accuracy = {streams: run.report.accuracy for streams, run in runs.items()}
    fused_train_accuracy = network.evaluate(runs[("rgb", "flow", "hog")].model, train_clips).accuracy
    elapsed = time.monotonic() - t0

    fused = accuracy[("rgb", "flow", "hog")]
    rgb, flow, hog = accuracy[("rgb",)], accuracy[("flow",)], accuracy[("hog",)]
    ok = (
        fused >= rgb - 0.02 and fused >= flow - 0.02 and fused >= hog - 0.02
        and flow >= rgb
        and fused >= 0.85
        and fused_train_accuracy >= 0.95
        and elapsed <= 1800
    )
    record_criterion(
        1, ok,
        f"fused={fused:.3f} rgb={rgb:.3f} flow={flow:.3f} hog={hog:.3f} "
        f"(need fused>=each-0.02, flow>=rgb, fused>=0.85) "
        f"fused train acc={fused_train_accuracy:.3f}>=0.95 wall={elapsed:.0f}s<=1800s",
    )
    assert fused >= rgb - 0.02 and fused >= flow - 0.02 and fused >= hog - 0.02
    assert flow >= rgb, "temporal stream must dominate the spatial stream"
    assert fused >= 0.85
    assert fused_train_accuracy >= 0.95
    assert elapsed <= 1800


# ---------------------------------------------------------------------------
# Criterion 2: optical flow endpoint error
# ---------------------------------------------------------------------------

def _fourier_shift(img, dx, dy):
    n = img.shape[0]
    ky = np.fft.fftfreq(n)[:, None]
    kx = np.fft.fftfreq(n)[None, :]
    return np.fft.ifft2(np.fft.fft2(img) * np.exp(-2j * np.pi * (kx * dx + ky * dy))).real


def test_criterion_2_flow_endpoint_error():
    params = FlowParams()  # the shipped defaults
    rng = np.random.default_rng(42)
    epes = []
    for case in range(100):
        img = smooth_periodic_texture(112, seed=case, cutoff=8)
        magnitude = rng.uniform(1.0, 2.0)
        angle = rng.uniform(0.0, 2 * np.pi)
        dx, dy = magnitude * np.cos(angle), magnitude * np.sin(angle)
        moved = np.clip(_fourier_shift(img, dx, dy), 0.0, 1.0)
        flow = compute_flow(img, moved, params)
        epes.append(float(np.hypot(flow[..., 0] - dx, flow[..., 1] - dy).mean()))
    mean_epe = float(np.mean(epes))

    still_max = 0.0
    for case in range(5):
        img = smooth_periodic_texture(112, seed=1000 + case, cutoff=8)
        still_max = max(still_max, float(np.abs(compute_flow(img, img, params)).max()))

    ok = mean_epe <= 0.5 and still_max <= 1e-6
    record_criterion(
        2, ok,
        f"mean EPE {mean_epe:.3f}px<=0.5px over 100 translated pairs; "
        f"identical-frame max|flow| {still_max:.1e}<=1e-6",
    )
    assert mean_epe <= 0.5
    assert still_max <= 1e-6


# ---------------------------------------------------------------------------
# Criterion 3: gradient correctness of the tiny fused model
# ---------------------------------------------------------------------------

TINY = network.ModelConfig(num_classes=4, growth_rate=2, blocks=(1,), bottleneck_factor=4,
                           compression=1.0, input_size=8, bn_enabled=False)


def _tiny_inputs():
    rng = np.random.default_rng(3)
    return (rng.random((8, 8, 3)), rng.standard_normal((8, 8, 2)) * 0.5,
            rng.random((8, 8, 1)))


def _analytic_grads(model, inputs, label):
    for layer in model.layers():
        layer.zero_grad()
    logits = model.forward_logits(*inputs, train=True)
    _, _, dlogits = softmax_cross_entropy(logits, label)
    model.backward_from_logits(dlogits)


def test_criterion_3_gradient_correctness():
    t0 = time.monotonic()
    label = 2
    model = network.FusionModel(TINY, seed=5, dtype=np.float64)
    n_params = network.parameter_count(model)
    assert n_params <= 10_000
    inputs = _tiny_inputs()
    _analytic_grads(model, inputs, label)

    def loss():
        return softmax_cross_entropy(model.forward_logits(*inputs), label)[0]

    # step 1e-4 keeps the probe inside the kink-free neighbourhood of this
    # seeded test point (its closest ReLU pre-activation is 6e-4 away)
    step = 1e-4
    worst64 = 0.0
    numeric: dict[tuple[int, str], np.ndarray] = {}
    for li, layer in enumerate(model.layers()):
        for name, p in layer.params.items():
            num = np.zeros_like(p)
            flat, nflat = p.reshape(-1), num.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss()
                flat[i] = orig - step
                lo = loss()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2 * step)
            numeric[(li, name)] = num
            g = layer.grads[name]
            worst64 = max(worst64, np.abs(g - num).max()
                          / max(np.abs(g).max(), np.abs(num).max(), 1e-8))

    # 32-bit mode: the float32 model's analytic gradients against the same
    # float64 central-difference reference at identical weights
    model32 = network.FusionModel(TINY, seed=5, dtype=np.float32)
    for a, b in zip(model.layers(), model32.layers()):
        for name in a.params:
            b.params[name][...] = a.params[name].astype(np.float32)
    _analytic_grads(model32, tuple(x.astype(np.float32) for x in inputs), label)
    worst32 = 0.0
    for li, layer in enumerate(model32.layers()):
        for name in layer.params:
            num = numeric[(li, name)]
            g = layer.grads[name]
            worst32 = max(worst32, np.abs(g - num).max()
                          / max(np.abs(g).max(), np.abs(num).max(), 1e-8))
    elapsed = time.monotonic() - t0

    ok = worst64 <= 1e-5 and worst32 <= 1e-3 and elapsed <= 120
    record_criterion(
        3, ok,
        f"{n_params} params: 64-bit max rel err {worst64:.2e}<=1e-5, "
        f"32-bit {worst32:.2e}<=1e-3, wall {elapsed:.0f}s<=120s",
    )
    assert worst64 <= 1e-5
    assert worst32 <= 1e-3
    assert elapsed <= 120


# ---------------------------------------------------------------------------
# Criterion 4: fusion interleave pattern
# ---------------------------------------------------------------------------

def test_criterion_4_fusion_interleave():
    rng = np.random.default_rng(7)
    failures = 0
    for case in range(1000):
        h, w, d = (int(rng.integers(1, 5)) for _ in range(3))
        a, b, c = (rng.standard_normal((h, w, d)) for _ in range(3))
        fused = network.concat_fuse(a, b, c)
        ra, rb, rc = network.deinterleave(fused)
        pattern_ok = all(
            np.array_equal(fused[:, :, 3 * k], b[:, :, k])
            and np.array_equal(fused[:, :, 3 * k + 1], c[:, :, k])
            and np.array_equal(fused[:, :, 3 * k + 2], a[:, :, k])
            for k in range(d)
        )
        round_trip_ok = (np.array_equal(ra, a) and np.array_equal(rb, b)
                         and np.array_equal(rc, c))
        failures += not (pattern_ok and round_trip_ok and fused.shape == (h, w, 3 * d))
    record_criterion(4, failures == 0,
                     f"interleave pattern + de-interleave round trip on 1000 "
                     f"randomized tensors, {failures} failures")
    assert failures == 0


# ---------------------------------------------------------------------------
# Criterion 5: frame buffer semantics
# ---------------------------------------------------------------------------

def test_criterion_5_frame_buffer_semantics():
    from collections import deque

    rng = np.random.default_rng(11)
    mismatches = 0
    buf = runtime.FrameBuffer(12)
    oracle: deque = deque(maxlen=12)
    t = 0.0
    for step in range(10_000):
        t += float(rng.random())
        r = runtime.FrameRecord(t, int(rng.integers(0, 5)), float(rng.random()))
        runtime.buffer_push(buf, r)
        oracle.append(r)
        if buf.records() != list(oracle):
            mismatches += 1
            continue
        threshold = float(rng.random())
        decision = runtime.buffer_poll(buf, threshold, t)
        votes = [x for x in oracle if x.confidence >= threshold]
        if not votes:
            mismatches += decision.verdict is not runtime.Verdict.NO_CONFIDENT
            continue
        counts: dict[int, int] = {}
        for x in votes:
            counts[x.class_id] = counts.get(x.class_id, 0) + 1
        best = max(counts.values())
        tied = [c for c, k in counts.items() if k == best]
        winner = max(tied, key=lambda c: max(i for i, x in enumerate(votes) if x.class_id == c))
        mismatches += not (decision.class_id == winner and decision.vote_counts == counts)

    # closed-form erroneous timing: poll 0.5s x stipulated 2.0s -> 4th poll
    config = runtime.RuntimeConfig(poll_interval=0.5, stipulated_time=2.0)
    state = runtime.ErroneousState()
    event_polls = []
    for k in range(1, 9):
        decision = runtime.WindowDecision(runtime.Verdict.NO_CONFIDENT, None, 0.5 * k, {})
        state, event = runtime.update_erroneous(state, decision, config)
        if event is not None:
            event_polls.append(k)
    timing_ok = event_polls == [4]

    ok = mismatches == 0 and timing_ok
    record_criterion(
        5, ok,
        f"push/poll vs FIFO+recount oracles over 10^4 randomized steps "
        f"({mismatches} mismatches); erroneous event fires on poll {event_polls}==[4]",
    )
    assert mismatches == 0
    assert timing_ok


# ---------------------------------------------------------------------------
# Criterion 6: dataset conventions
# ---------------------------------------------------------------------------

def test_criterion_6_dataset_conventions(tmp_path):
    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(10_000):
        cid = dataset.ClipId(int(rng.integers(0, 1000)), int(rng.integers(1, 13)),
                             int(rng.integers(0, 100)))
        bad += dataset.parse_clip_name(dataset.format_clip_name(cid)) != cid

    worked = dataset.parse_clip_name("HandWash_047_A_07_G_03.avi")
    worked_ok = (worked.wash_id, worked.action_class, worked.group) == (47, 7, 3)

    names = [dataset.format_clip_name(dataset.ClipId(w, c, (w // 15) % 100))
             for w in range(292) for c in range(1, 13)]
    manifest = dataset.SplitManifest(train=names[:2624], test=names[2624:])
    path = tmp_path / "split.txt"
    dataset.save_split(manifest, path)
    counts = dataset.validate_split(dataset.load_split(path), (2624, 880))

    overlap_rejected = False
    try:
        dataset.validate_split(dataset.SplitManifest(train=[names[0]], test=[names[0]]))
    except FormatError:
        overlap_rejected = True

    ok = bad == 0 and worked_ok and counts == (2624, 880) and overlap_rejected
    record_criterion(
        6, ok,
        f"10^4 name round-trips ({bad} failures); worked example ->(47,7,3); "
        f"split counts {counts}==(2624,880); overlap rejected={overlap_rejected}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: format fidelity and fuzz robustness
# ---------------------------------------------------------------------------

def test_criterion_7_format_fidelity(tmp_path):
    rng = np.random.default_rng(17)

    img = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    mediaio.write_ppm(img, p1)
    mediaio.write_ppm(mediaio.read_ppm(p1), p2)
    ppm_ok = p1.read_bytes() == p2.read_bytes()

    gray = rng.integers(0, 256, (5, 6), dtype=np.uint8)
    g1, g2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    mediaio.write_pgm(gray, g1)
    mediaio.write_pgm(mediaio.read_pgm(g1), g2)
    pgm_ok = g1.read_bytes() == g2.read_bytes()

    flow = rng.standard_normal((6, 8, 2)).astype(np.float32)
    f1, f2 = tmp_path / "a.flo", tmp_path / "b.flo"
    mediaio.write_flo(flow, f1)
    mediaio.write_flo(mediaio.read_flo(f1), f2)
    flo_ok = f1.read_bytes() == f2.read_bytes()

    meta = mediaio.ClipMeta(fps=30, width=8, height=6, frame_count=2)
    m1, m2 = tmp_path / "m1.meta", tmp_path / "m2.meta"
    mediaio.write_clip_meta(meta, m1)
    mediaio.write_clip_meta(mediaio.read_clip_meta(m1), m2)
    meta_ok = m1.read_bytes() == m2.read_bytes()

    model = network.FusionModel(TINY, seed=1)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    network.save_model(model, c1)
    network.save_model(network.load_model(c1), c2)
    ckpt_ok = c1.read_bytes() == c2.read_bytes()

    # 1000 fuzz cases: random bytes plus corrupted valid files, 200 per reader
    readers = [
        ("ppm", mediaio.read_ppm, p1.read_bytes()),
        ("pgm", mediaio.read_pgm, g1.read_bytes()),
        ("flo", mediaio.read_flo, f1.read_bytes()),
        ("meta", mediaio.read_clip_meta, m1.read_bytes()),
        ("ckpt", network.load_model, c1.read_bytes()),
    ]
    crashes = 0
    fuzz_path = tmp_path / "fuzz.bin"
    for name, reader, valid in readers:
        for case in range(200):
            if case % 2 == 0:
                data = rng.integers(0, 256, size=int(rng.integers(0, 400)),
                                    dtype=np.uint8).tobytes()
            else:
                data = bytearray(valid)
                op = case % 4
                if op == 1 and len(data) > 1:
                    data = bytes(data[: int(rng.integers(0, len(data)))])
                else:
                    pos = int(rng.integers(0, len(data)))
                    data[pos] = int(rng.integers(0, 256))
                    data = bytes(data)
            fuzz_path.write_bytes(data)
            try:
                reader(fuzz_path)
            except FormatError:
                pass
            except Exception:
                crashes += 1

    ok = ppm_ok and pgm_ok and flo_ok and meta_ok and ckpt_ok and crashes == 0
    record_criterion(
        7, ok,
        f"bit-identical round trips (ppm={ppm_ok} pgm={pgm_ok} flo={flo_ok} "
        f"meta={meta_ok} ckpt={ckpt_ok}); 1000 fuzz cases, {crashes} crashes",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: throughput (soft, machine-dependent)
# ---------------------------------------------------------------------------

def test_criterion_8_throughput(capsys):
    code = main(["bench", "--frames", "10", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    combined = None
    for line in out.splitlines():
        if line.startswith("pre_combined"):
            combined = float(line.split()[1])
    assert combined is not None, "bench must report the combined preprocessing time"
    within = combined <= 140.0
    record_criterion(
        8, True,
        f"preprocess_pair mean {combined:.1f}ms per 112x112 pair "
        f"({'within' if within else 'EXCEEDS (soft criterion, warning only)'} "
        f"the 140ms reference)",
    )
    if not within:
        import warnings

        warnings.warn(f"preprocessing mean {combined:.1f}ms exceeds the 140ms reference")


# ---------------------------------------------------------------------------
# Criterion 9: determinism under a fixed seed
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, capsys):
    small = synth.SynthConfig(num_classes=4, clips_per_class=2, fps=4, duration_s=1.0,
                              resolution=32, groups=2)
    synth.generate_synthetic(small, seed=9, out_dir=tmp_path / "g1")
    synth.generate_synthetic(small, seed=9, out_dir=tmp_path / "g2")
    synth_ok = tree_digest(tmp_path / "g1") == tree_digest(tmp_path / "g2")

    pre = PreprocessConfig(target_size=16, sample_frames_per_second=2,
                           flow=FlowParams(pyramid_levels=2, iterations=8), rng_seed=9)
    labels = dataset.read_labels(tmp_path / "g1" / "labels.tsv")
    names = sorted(labels)
    clips = dataset.load_clip_samples(tmp_path / "g1", names, labels, pre)
    samples = dataset.flatten_samples(clips)
    ckpts = []
    for run in range(2):
        config = network.ModelConfig(num_classes=4, growth_rate=2, blocks=(1,),
                                     input_size=16, bn_enabled=True, flow=pre.flow)
        model = network.FusionModel(config, seed=9)
        network.train(model, samples, network.TrainConfig(lr=0.05, epochs=2, batch=4, seed=9))
        path = tmp_path / f"train{run}.ckpt"
        network.save_model(model, path)
        ckpts.append(path.read_bytes())
    train_ok = ckpts[0] == ckpts[1]

    clip_dir = tmp_path / "g1" / names[0]
    # the checkpoint records the maps it was trained on, so run takes only the pair choice
    argv = ["run", "--checkpoint", str(tmp_path / "train0.ckpt"), "--clip", str(clip_dir),
            "--sample-fps", "2", "--seed", "9"]
    assert main(argv) == 0
    log1 = capsys.readouterr().out
    assert main(argv) == 0
    log2 = capsys.readouterr().out
    run_ok = log1 == log2 and log1.strip()

    ok = bool(synth_ok and train_ok and run_ok)
    record_criterion(
        9, ok,
        f"byte-reproducible under fixed seed: generate={synth_ok} "
        f"train={train_ok} run={bool(run_ok)}",
    )
    assert ok
