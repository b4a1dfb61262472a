import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtar.errors import ContractViolationError, FormatError
from rtar import mediaio, runtime
from rtar import network as net
from rtar.nn import tensorops as T
from rtar.nn.layers import AvgPool2, BatchNorm, Conv2D, ReLU, Workspace, softmax_cross_entropy
from rtar.preprocess import PREPROCESS_VERSION, FlowParams
from tests.test_tensorops import conv2d_naive


def tiny_config(**kw):
    defaults = dict(num_classes=4, growth_rate=2, blocks=(1,), bottleneck_factor=4,
                    compression=1.0, input_size=8, bn_enabled=False)
    defaults.update(kw)
    return net.ModelConfig(**defaults)


# three blocks with BN; compression 0.5 rounds the odd channel counts 9 and
# 11 up to 5 and 6 at the two transitions
ODD_CEIL_CONFIG = tiny_config(growth_rate=3, blocks=(1, 2, 1), compression=0.5,
                              input_size=16, bn_enabled=True)


def rand_inputs(rng, size, dtype=np.float32):
    return (rng.random((size, size, 3)).astype(dtype),
            rng.random((size, size, 2)).astype(dtype),
            rng.random((size, size, 1)).astype(dtype))


class TestConcatFuse:
    def test_index_pattern_single_channel(self):
        a = np.full((2, 2, 1), 2.0)
        b = np.full((2, 2, 1), 3.0)
        c = np.full((2, 2, 1), 5.0)
        fused = net.concat_fuse(a, b, c)
        assert fused.shape == (2, 2, 3)
        assert fused[0, 0].tolist() == [3.0, 5.0, 2.0]

    def test_zero_inputs(self):
        z = np.zeros((3, 3, 4))
        fused = net.concat_fuse(z, z, z)
        assert fused.shape == (3, 3, 12)
        assert not fused.any()

    def test_deinterleave_round_trip(self, rng):
        a, b, c = (rng.standard_normal((4, 5, 6)) for _ in range(3))
        ra, rb, rc = net.deinterleave(net.concat_fuse(a, b, c))
        assert np.array_equal(ra, a) and np.array_equal(rb, b) and np.array_equal(rc, c)

    @given(lead=st.lists(st.integers(1, 4), max_size=2), d=st.integers(1, 5),
           seed=st.integers(0, 10**6))
    def test_round_trip_property(self, lead, d, seed):
        gen = np.random.default_rng(seed)
        a, b, c = (gen.standard_normal((*lead, d)) for _ in range(3))
        fused = net.concat_fuse(a, b, c)
        assert fused.shape == (*lead, 3 * d)
        ra, rb, rc = net.deinterleave(fused)
        assert np.array_equal(ra, a) and np.array_equal(rb, b) and np.array_equal(rc, c)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolationError):
            net.concat_fuse(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)), np.zeros((2, 2, 1)))


class TestStreamShapes:
    def test_dense_block_channel_arithmetic(self):
        cfg = tiny_config(growth_rate=3, blocks=(4,))
        stream = net.StreamNet(cfg, 3, rng=np.random.default_rng(0), dtype=np.float32)
        assert len(stream.nodes) == 6  # initial conv, 4 dense layers, final ReLU
        x = np.random.default_rng(1).random((3, 8, 8)).astype(np.float32)
        h = stream.nodes[0].forward(x)  # the layers run on (C, H, W) maps
        assert h.shape[0] == 6
        ws = Workspace()
        for n, layer in enumerate(stream.nodes[1:-1], start=1):
            h = layer.forward(h, ws=ws)
            assert h.shape[0] == 6 + n * 3

    def test_toy_config_output_shape(self):
        cfg = net.ModelConfig(num_classes=12, growth_rate=12, blocks=(4, 4),
                              compression=0.5, input_size=112)
        assert net.stream_feature_shape(cfg) == (56, 56, 84)

    @pytest.mark.parametrize("size", [0, -4])
    def test_nonpositive_input_size_rejected(self, size):
        with pytest.raises(ContractViolationError, match="input_size"):
            net.ModelConfig(num_classes=2, input_size=size)

    def test_zero_weights_zero_features(self):
        model = net.FusionModel(tiny_config(), seed=3)
        stream = model.streams["rgb"]
        for layer in stream.layers():
            for p in layer.params.values():
                p.fill(0)
        x = np.random.default_rng(0).random((8, 8, 3)).astype(np.float32)
        assert not stream.forward(x).any()

    def test_streams_share_feature_shape(self):
        for cfg, expected in ((tiny_config(), (8, 8, 6)), (ODD_CEIL_CONFIG, (4, 4, 9))):
            model = net.FusionModel(cfg, seed=0)
            rng = np.random.default_rng(5)
            rgb, flow, hog = rand_inputs(rng, cfg.input_size)
            shapes = {
                model.streams["rgb"].forward(rgb).shape,
                model.streams["flow"].forward(flow).shape,
                model.streams["hog"].forward(hog).shape,
            }
            assert len(shapes) == 1
            assert shapes.pop() == model.feature_shape == expected


class TestPredict:
    def test_probabilities_sum_to_one(self, rng):
        model = net.FusionModel(tiny_config(), seed=1)
        pred = model.predict(*rand_inputs(rng, 8))
        assert abs(pred.probabilities.sum() - 1.0) <= 1e-6
        assert pred.confidence == pytest.approx(pred.probabilities.max())
        assert 0 <= pred.class_id < 4

    def test_head_permutation_equivariance(self, rng):
        model = net.FusionModel(tiny_config(), seed=2)
        inputs = rand_inputs(rng, 8)
        before = model.predict(*inputs).probabilities
        perm = np.array([2, 0, 3, 1])
        model.head.params["w"][:] = model.head.params["w"][:, perm]
        model.head.params["b"][:] = model.head.params["b"][perm]
        after = model.predict(*inputs).probabilities
        assert np.allclose(after, before[perm], atol=1e-6)

    def test_bit_deterministic(self, rng):
        model = net.FusionModel(tiny_config(bn_enabled=True), seed=4)
        inputs = rand_inputs(rng, 8)
        a = model.predict(*inputs).probabilities
        b = model.predict(*inputs).probabilities
        assert np.array_equal(a, b)

    def test_reflects_changed_running_statistics(self, tmp_path, rng):
        # Eval BN folds its statistics on every call; a fold kept from an
        # earlier predict would go stale after a training step or a load.
        samples = [(*rand_inputs(rng, 16), i % 4) for i in range(3)]
        inputs = rand_inputs(rng, 16)
        model = net.FusionModel(ODD_CEIL_CONFIG, seed=5)
        before = model.predict(*inputs).probabilities
        net.train(model, samples, net.TrainConfig(lr=0.0, epochs=1, batch=3, seed=0))
        after = model.predict(*inputs).probabilities
        assert not np.array_equal(before, after), "running statistics moved, predict must follow"
        path = tmp_path / "m.ckpt"
        net.save_model(model, path)
        fresh = net.load_model(path)
        assert np.array_equal(fresh.predict(*inputs).probabilities, after)
        for layer in model.layers() + fresh.layers():
            if isinstance(layer, BatchNorm):
                layer.running_var *= np.float32(3.0)  # in place, as load_model writes
        changed = model.predict(*inputs).probabilities
        assert not np.array_equal(changed, after)
        assert np.array_equal(changed, fresh.predict(*inputs).probabilities)

    def test_concurrent_predict_equals_serial(self, rng):
        model = net.FusionModel(ODD_CEIL_CONFIG, seed=6)
        batches = [[rand_inputs(rng, 16) for _ in range(6)] for _ in range(2)]
        serial = [[model.predict(*x).probabilities for x in b] for b in batches]
        results = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            results[i] = [model.predict(*x).probabilities for x in batches[i] * 3]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(2):
            assert all(np.array_equal(got, want)
                       for got, want in zip(results[i], serial[i] * 3))

    def test_gap_then_fc_equals_fc_on_pooled_concat(self, rng):
        # linearity: pooling the fused map then applying the head must equal
        # the head applied to the interleaved concatenation of pooled vectors
        model = net.FusionModel(tiny_config(num_classes=3), seed=6, dtype=np.float64)
        rgb, flow, hog = rand_inputs(rng, 8, dtype=np.float64)
        maps = {n: model.streams[n].forward(x)
                for n, x in zip(("rgb", "flow", "hog"), (rgb, flow, hog))}
        via_model = model.forward_logits(rgb, flow, hog)
        pooled = {n: m.mean(axis=(0, 1)) for n, m in maps.items()}
        d = model.feature_shape[2]
        vec = np.empty(3 * d)
        vec[0::3] = pooled["flow"]
        vec[1::3] = pooled["hog"]
        vec[2::3] = pooled["rgb"]
        via_vectors = vec @ model.head.params["w"] + model.head.params["b"]
        assert np.allclose(via_model, via_vectors, atol=1e-10)

    def test_missing_input_rejected(self, rng):
        model = net.FusionModel(tiny_config(), seed=0)
        rgb, flow, _ = rand_inputs(rng, 8)
        with pytest.raises(ContractViolationError):
            model.predict(rgb, flow, None)


class TestPoolBeforeFusion:
    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    @pytest.mark.parametrize("streams", [net.STREAM_ORDER, ("flow", "rgb")],
                             ids=["all", "flow_rgb"])
    def test_equals_pooling_the_fused_map(self, rng, streams, bn):
        # oracle: fuse the (H, W, D) maps, pool the fused map, then the head;
        # backward spreads the pooled gradient over the fused map and splits it
        cfg = tiny_config(growth_rate=3, blocks=(1, 2), input_size=16, bn_enabled=bn,
                          streams=streams)
        model, oracle = net.FusionModel(cfg, seed=4), net.FusionModel(cfg, seed=4)
        inputs = dict(zip(("rgb", "flow", "hog"), rand_inputs(rng, 16)))
        logits = model.forward_logits(**inputs, train=True)
        maps = [oracle.streams[n].forward(inputs[n], train=True) for n in streams]
        fused = net.concat_fuse(*maps) if len(streams) == 3 else np.concatenate(maps, axis=2)
        assert np.array_equal(logits, oracle.head.forward(T.global_avg_pool(fused), train=True))

        _, _, dlogits = softmax_cross_entropy(logits, 1)
        model.backward_from_logits(dlogits)
        h, w, _ = fused.shape
        dfused = np.broadcast_to(oracle.head.backward(dlogits) / (h * w), fused.shape)
        dmaps = (net.deinterleave(dfused) if len(streams) == 3
                 else np.split(dfused, len(streams), axis=2))
        for n, dmap in zip(streams, dmaps):
            oracle.streams[n].backward(np.ascontiguousarray(dmap))
        pairs = [(got.grads[k], want.grads[k]) for got, want in zip(model.layers(), oracle.layers())
                 for k in got.grads]
        assert all(g.dtype == np.float32 and np.array_equal(g, o) for g, o in pairs)
        assert all(g.any() for g, _ in pairs)


def _allocating_conv(x, w, relu=False):
    """conv2d_gemm written out with new arrays, on a channel-last map; the
    test's maps are small enough for one band. x, or max(x, 0) with
    ``relu``, is zero-padded. Where Cin <= Cout (im2col) the k*k
    tap-shifted windows of the padded map are stacked tap-major into one
    (k*k*Cin, H*W) matrix, and one product with the (Cout, k*k*Cin)
    weights gives the output. Otherwise (kn2row) the padded map is
    flattened into a (Cin, Hp*Wp + k-1) copy, one product with the
    (k*k*Cout, Cin) tap-stacked weights gives every tap's rows, and each
    tap's rows, shifted by ky*Wp + kx, are added into tap 0's, taps in
    order."""
    k, _, cin, cout = w.shape
    p = k // 2
    h, wd = x.shape[:2]
    xt = np.maximum(x, x.dtype.type(0)) if relu else x
    grid = np.pad(xt.transpose(2, 0, 1), ((0, 0), (p, p), (p, p)))
    if cin <= cout:
        stack = np.stack([grid[:, ky : ky + h, kx : kx + wd] for ky in range(k) for kx in range(k)])
        out = w.reshape(k * k * cin, cout).T @ stack.reshape(k * k * cin, h * wd)
        return np.ascontiguousarray(out.reshape(cout, h, wd).transpose(1, 2, 0))
    wp, n = wd + 2 * p, h * (wd + 2 * p)
    xp = np.zeros((cin, (h + 2 * p) * wp + k - 1), dtype=x.dtype)
    xp[:, : (h + 2 * p) * wp] = grid.reshape(cin, -1)
    taps = (w.transpose(0, 1, 3, 2).reshape(k * k * cout, cin) @ xp).reshape(k * k, cout, -1)
    out = taps[0, :, :n].copy()
    for ky in range(k):
        for kx in range(k):
            if ky or kx:
                out += taps[ky * k + kx, :, ky * wp + kx : ky * wp + kx + n]
    return np.ascontiguousarray(out.reshape(cout, h, wp)[:, :, :wd].transpose(1, 2, 0))


def _allocating_dense(chain, h):
    """A dense layer's new channels, its eval arithmetic written out with
    new arrays: the layers before the 1x1 conv one by one; the mid BN's
    scale folded into the 1x1's weights and its shift added after; then
    the 3x3 conv of max(y, 0)."""
    i = next(i for i, layer in enumerate(chain) if isinstance(layer, Conv2D))
    for layer in chain[:i]:
        h = _allocating_layer(layer, h)
    w, bn = chain[i].params["w"], chain[i + 1]
    if isinstance(bn, BatchNorm):
        scale = bn.params["gamma"] / np.sqrt(bn.running_var + bn.eps)
        h = _allocating_conv(h, w * scale) + (bn.params["beta"] - bn.running_mean * scale)
    else:
        h = _allocating_conv(h, w)
    return _allocating_conv(h, chain[-1].params["w"], relu=True)


def _allocating_layer(layer, h):
    if isinstance(layer, Conv2D):
        return _allocating_conv(h, layer.params["w"])
    if isinstance(layer, BatchNorm):
        scale = layer.params["gamma"] / np.sqrt(layer.running_var + layer.eps)
        return h * scale + (layer.params["beta"] - layer.running_mean * scale)
    if isinstance(layer, ReLU):
        return T.relu(h)
    assert isinstance(layer, AvgPool2)
    q = h.reshape(h.shape[0] // 2, 2, h.shape[1] // 2, 2, h.shape[2])
    return (q[:, 0, :, 0] + q[:, 0, :, 1] + q[:, 1, :, 0] + q[:, 1, :, 1]) * h.dtype.type(0.25)


def _allocating_logits(model, inputs):
    """Oracle: the eval forward with a new array for every layer's output and
    each dense layer's k channels np.concatenate'd onto its input."""
    pooled = {name: T.global_avg_pool(_allocating_stream(model.streams[name], inputs[name]))
              for name in model.config.streams}
    return T.fully_connected(model.fuse(pooled), model.head.params["w"], model.head.params["b"])


def _allocating_stream(stream, h):
    for node in stream.nodes:
        if isinstance(node, net._DenseLayer):
            h = np.concatenate([h, _allocating_dense(node.chain, h)], axis=2)
        else:
            h = _allocating_layer(node, h)
    return h


def _draw_bn_statistics(model, rng):
    """Statistics away from their init, so that each folded BN shift is not zero."""
    for layer in model.layers():
        if isinstance(layer, BatchNorm):
            c = layer.running_var.size
            layer.running_mean[...] = rng.normal(0, 1, c)
            layer.running_var[...] = rng.uniform(0.5, 2, c)
            layer.params["beta"][...] = rng.normal(0, 1, c)


class TestEvalWorkspace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", [(1, 2, 1), (1, 12)], ids=["odd_ceil", "block_grows"])
    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    @pytest.mark.parametrize("streams", [net.STREAM_ORDER, ("flow", "rgb")],
                             ids=["all", "flow_rgb"])
    def test_equals_allocating_forward(self, rng, streams, bn, blocks, dtype):
        # (1, 12): the second block's map outgrows the first's, so the
        # workspace grows during the first call
        cfg = tiny_config(growth_rate=3, blocks=blocks, compression=0.5, input_size=16,
                          bn_enabled=bn, streams=streams)
        model = net.FusionModel(cfg, seed=4, dtype=dtype)
        a, b = (dict(zip(("rgb", "flow", "hog"), rand_inputs(rng, 16, dtype))) for _ in range(2))
        _draw_bn_statistics(model, rng)
        for inputs in (a, a, b, a):  # first call, repeated call, after another input
            want = _allocating_logits(model, inputs)
            assert want.dtype == dtype
            assert np.array_equal(model.forward_logits(**inputs), want)
            assert np.array_equal(model.predict(**inputs).probabilities, T.softmax(want))

    def test_steady_predict_allocates_almost_nothing(self, rng, monkeypatch):
        # the CLI defaults: 112 px, growth 12, blocks 4,4, BN; an allocating
        # forward peaks at 11.25 MB of activations per predict. Every thread
        # that runs a stream keeps its own workspace: the caller's on one
        # core, each stream pool worker's on more (tracemalloc sees them all).
        model = net.FusionModel(net.ModelConfig(num_classes=12), seed=0)
        inputs = rand_inputs(rng, 112)
        take = model._workspace

        def spy():
            ws = take()
            used[id(ws)] = ws
            return ws

        monkeypatch.setattr(model, "_workspace", spy)
        used = {}
        model.predict(*inputs)
        warm, used = used, {}
        handoff = getattr(model._local, "handoff", None)
        tracemalloc.start()
        try:
            model.predict(*inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
        # the second predict ran only in workspaces the first one built
        assert used and used.keys() <= warm.keys()
        assert len(warm) <= min(len(model.config.streams), net._usable_cores())
        assert all(ws.nbytes <= 11.25e6 for ws in used.values())
        # two workspaces for three streams is the cut route, whose caller
        # keeps one head's map for the tail: at most a dense block's (72,
        # 112, 112) map, in a buffer the second predict reuses
        if len(warm) == 2:
            assert handoff is not None and handoff.nbytes <= 72 * 112 * 112 * 4
        assert getattr(model._local, "handoff", None) is handoff

    def test_direct_stream_forward_takes_one_workspace(self, rng, monkeypatch):
        # an eval StreamNet.forward given no workspace runs the whole stream
        # in one fresh one and returns a new array, with the oracle's bytes
        model = net.FusionModel(ODD_CEIL_CONFIG, seed=5)
        _draw_bn_statistics(model, rng)
        made = []

        class CountedWorkspace(Workspace):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(net, "Workspace", CountedWorkspace)
        x = rand_inputs(rng, 16)[0]
        got = model.streams["rgb"].forward(x)
        assert len(made) == 1
        assert got.base is None and got.flags.c_contiguous
        want = _allocating_stream(model.streams["rgb"], x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_results_survive_later_predicts(self, rng):
        model = net.FusionModel(ODD_CEIL_CONFIG, seed=7)
        a, b = rand_inputs(rng, 16), rand_inputs(rng, 16)
        held = [model.streams["rgb"].forward(a[0]), model.forward_logits(*a),
                model.predict(*a).probabilities]
        kept = [h.copy() for h in held]
        for x in (b, a, b):
            model.predict(*x)
            model.streams["rgb"].forward(x[0])
        assert all(np.array_equal(h, k) for h, k in zip(held, kept))

    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    def test_dense_layers_read_the_block_prefix_in_place(self, rng, monkeypatch, bn):
        # each dense layer's chain reads the block's first channels as one
        # contiguous view of the block slot, not a copy
        model = net.FusionModel(dataclasses.replace(ODD_CEIL_CONFIG, bn_enabled=bn), seed=9)
        seen = []
        for stream in model.streams.values():
            for node in stream.nodes:
                if isinstance(node, net._DenseLayer):
                    def spy(x, train=False, ws=None, _forward=node.chain[0].forward):
                        seen.append(x.flags.c_contiguous and x.base is ws._slots["block"])
                        return _forward(x, train, ws)
                    monkeypatch.setattr(node.chain[0], "forward", spy)
        model.predict(*rand_inputs(rng, 16))
        assert seen == [True] * 3 * sum(ODD_CEIL_CONFIG.blocks)

    def test_interleaved_models_match_fresh_ones(self, rng):
        configs = [ODD_CEIL_CONFIG, dataclasses.replace(ODD_CEIL_CONFIG, input_size=32)]
        models = [net.FusionModel(cfg, seed=8) for cfg in configs]
        inputs = [[rand_inputs(rng, cfg.input_size) for _ in range(2)] for cfg in configs]
        for _ in range(2):
            for cfg, model, xs in zip(configs, models, inputs):
                for x in xs:
                    fresh = net.FusionModel(cfg, seed=8).predict(*x).probabilities
                    assert np.array_equal(model.predict(*x).probabilities, fresh)


def _blas():
    """OpenBLAS's (get, set) thread count, without which no stream pool runs."""
    blas = net._blas_threads()
    if blas is None:
        pytest.skip("the stream pool needs OpenBLAS's thread control")
    return blas


# the usable cores that each route sees
_ROUTE_CORES = {"map": 1, "pool": 2, "wide": 3}


def _on_route(route, fn):
    """fn() with the stream schedule, eval's forward and training's
    forward and backward, forced onto ``route`` by the usable cores it
    sees and a fresh stream pool sized for them: "map", the streams one
    after another on the calling thread (one core); "pool", the caller and
    one pool worker (two cores), which cut a model's first stream when it
    has three; or "wide", the caller and two pool workers (three cores),
    each stream whole. Checks that the schedule's pieces ran on the caller
    alone on "map", and on both the caller and a pool worker otherwise."""
    if route != "map":
        _blas()
    on_pool = []
    schedule = net._map_streams

    def recorded(piece):
        def call(*args):
            on_pool.append(threading.current_thread().name.startswith("rtar-stream"))
            return piece(*args)
        return call

    def spy(run, names, input_size, head, tail):
        return schedule(recorded(run), names, input_size, recorded(head), recorded(tail))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net, "_usable_cores", lambda: _ROUTE_CORES[route])
        mp.setattr(net, "_pool", None)
        mp.setattr(net, "_map_streams", spy)
        try:
            out = fn()
        finally:
            if net._pool is not None:
                net._pool.shutdown()
    assert set(on_pool) == ({False} if route == "map" else {False, True})
    return out


class TestParallelStreams:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    @pytest.mark.parametrize("streams", [net.STREAM_ORDER, ("flow", "rgb")],
                             ids=["all", "flow_rgb"])
    def test_routes_give_identical_probabilities(self, rng, streams, bn, dtype):
        size = net.PARALLEL_MIN_SIZE
        cfg = tiny_config(growth_rate=3, blocks=(1, 2), compression=0.5, input_size=size,
                          bn_enabled=bn, streams=streams)
        model = net.FusionModel(cfg, seed=3, dtype=dtype)
        _draw_bn_statistics(model, rng)
        inputs = [dict(zip(("rgb", "flow", "hog"), rand_inputs(rng, size, dtype)))
                  for _ in range(2)]
        got = {route: _on_route(route, lambda: [model.predict(**x).probabilities.tobytes()
                                                for x in inputs + inputs])
               for route in _ROUTE_CORES}
        assert got["pool"] == got["map"] and got["wide"] == got["map"]

    def test_routes_give_identical_logs_at_the_defaults(self, rng, tmp_path):
        model = net.FusionModel(net.ModelConfig(num_classes=4), seed=1)
        _draw_bn_statistics(model, rng)
        meta = mediaio.ClipMeta(fps=8, width=112, height=112, frame_count=16)
        mediaio.write_clip([rng.integers(0, 256, (112, 112, 3), dtype=np.uint8)
                            for _ in range(meta.frame_count)], meta, tmp_path / "clip")

        class Recording:
            def predict(self, rgb, flow, hog):
                pred = model.predict(rgb, flow, hog)
                probabilities.append(pred.probabilities.tobytes())
                return pred

        runs = {}
        for route in ("map", "pool"):
            probabilities = []
            lines = _on_route(route, lambda: runtime.run_pipeline_offline(
                tmp_path / "clip", Recording(), runtime.RuntimeConfig(threshold_confidence=0.3)))
            runs[route] = (lines, probabilities)
        assert runs["pool"][1] and runs["pool"] == runs["map"]

    def test_concurrent_callers_on_the_pool_match_serial(self, rng, monkeypatch):
        # three callers on two workers, switching threads often: each gets
        # its serial bytes, every stream runs with OpenBLAS at one thread,
        # and OpenBLAS ends at the count it started from. Callers whose
        # sections overlapped would break the last two: one restores its
        # count while another's streams run, or takes another's lowered
        # count as its own "before".
        size = net.PARALLEL_MIN_SIZE
        model = net.FusionModel(dataclasses.replace(ODD_CEIL_CONFIG, input_size=size), seed=6)
        batches = [[rand_inputs(rng, size) for _ in range(3)] for _ in range(3)]
        serial = _on_route("map", lambda: [[model.predict(*x).probabilities for x in b]
                                           for b in batches])
        get, put = _blas()
        counts = []
        forward = model.streams["hog"].forward

        def spy(x, train=False, ws=None):
            counts.append(get())
            return forward(x, train, ws)

        monkeypatch.setattr(model.streams["hog"], "forward", spy)
        results = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def worker(i):
            start.wait()
            results[i] = [model.predict(*x).probabilities for x in batches[i] * 4]

        def callers():
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)

        before, interval = get(), sys.getswitchinterval()
        try:
            put(2)
            sys.setswitchinterval(1e-5)
            _on_route("pool", callers)
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(before)
        assert counts == [1] * 4 * sum(map(len, batches))
        for got, want in zip(results, serial):
            assert all(np.array_equal(g, w) for g, w in zip(got, want * 4))

    def test_blas_threads_restored_after_predict_and_after_a_stream_raises(self, rng,
                                                                            monkeypatch):
        get, put = _blas()
        model = net.FusionModel(tiny_config(input_size=net.PARALLEL_MIN_SIZE), seed=0)
        inputs = rand_inputs(rng, net.PARALLEL_MIN_SIZE)
        seen = []
        forward = model.streams["hog"].forward

        def spy(x, train=False, ws=None):
            seen.append(get())
            if len(seen) == 2:
                raise RuntimeError("stream failed")
            return forward(x, train, ws)

        monkeypatch.setattr(model.streams["hog"], "forward", spy)
        before = get()
        try:
            put(2)  # a count the section must lower and then give back
            _on_route("pool", lambda: model.predict(*inputs))
            assert get() == 2
            with pytest.raises(RuntimeError, match="stream failed"):
                _on_route("pool", lambda: model.predict(*inputs))
            assert get() == 2
        finally:
            put(before)
        assert seen == [1, 1]

    def test_training_around_a_pool_predict_is_unchanged(self, rng):
        # training bytes depend on OpenBLAS's thread count, so a predict
        # that left it at one thread would change the second train
        size = net.PARALLEL_MIN_SIZE
        cfg = tiny_config(growth_rate=6, blocks=(2, 2), compression=0.5, input_size=size)
        samples = [(*rand_inputs(rng, size), i % 4) for i in range(8)]
        hyper = net.TrainConfig(lr=0.05, epochs=1, batch=4, seed=0)
        runs = []
        for route in ("map", "pool"):
            model = net.FusionModel(cfg, seed=2)
            history = net.train(model, samples, hyper)
            _on_route(route, lambda: model.predict(*samples[0][:3]))
            history += net.train(model, samples, hyper)
            runs.append((history, [p.tobytes() for layer in model.layers()
                                   for p in layer.params.values()]))
        assert runs[0] == runs[1]


    def test_two_workers_are_the_caller_and_one_pool_thread(self, rng):
        # three streams on two workers: the caller runs the first stream's
        # head, then the second stream; the pool worker runs the third, then
        # the first's tail, only after the head has finished
        size = net.PARALLEL_MIN_SIZE
        model = net.FusionModel(tiny_config(input_size=size), seed=0)
        inputs = rand_inputs(rng, size)
        serial = _on_route("map", lambda: model.predict(*inputs).probabilities.tobytes())
        ran, inside = [], threading.local()

        def spy(name, part):
            original = getattr(model.streams[name], part)

            def run(*args, **kwargs):
                # a whole stream's forward runs its own head and tail: only
                # the outermost call is a step of the schedule
                if getattr(inside, "part", None):
                    return original(*args, **kwargs)
                inside.part = part
                ran.append((threading.current_thread(), name, part, "start"))
                try:
                    return original(*args, **kwargs)
                finally:
                    ran.append((threading.current_thread(), name, part, "end"))
                    inside.part = None
            return run

        with pytest.MonkeyPatch.context() as mp:
            for name in model.config.streams:
                for part in ("forward", "head", "tail"):
                    mp.setattr(model.streams[name], part, spy(name, part))
            got = _on_route("pool", lambda: model.predict(*inputs).probabilities.tobytes())
        assert got == serial
        caller = threading.current_thread()
        threads = {t for t, *_ in ran}
        assert len(threads) == 2 and caller in threads
        worker, = threads - {caller}
        assert worker.name.startswith("rtar-stream")
        steps = [(t is caller, name, part) for t, name, part, edge in ran if edge == "start"]
        assert sorted(steps) == sorted([(True, "rgb", "head"), (True, "flow", "forward"),
                                        (False, "hog", "forward"), (False, "rgb", "tail")])
        assert [s for s in steps if not s[0]] == [(False, "hog", "forward"), (False, "rgb", "tail")]
        assert ran.index((caller, "rgb", "head", "end")) < ran.index((worker, "rgb", "tail", "start"))

    def test_route_follows_the_pool_not_a_later_core_count(self, rng):
        # the pool is sized at first use; a predict splits the streams by the
        # workers that pool has, whatever the core count reads by then
        size = net.PARALLEL_MIN_SIZE
        model = net.FusionModel(tiny_config(input_size=size), seed=0)
        inputs = rand_inputs(rng, size)
        handed_off = []
        handoff = model._handoff

        def spy(h):
            handed_off.append(threading.current_thread())
            return handoff(h)

        def predict_on_more_cores():
            model.predict(*inputs)  # sizes the pool for two cores
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(net, "_usable_cores", lambda: 3)
                mp.setattr(model, "_handoff", spy)
                return model.predict(*inputs).probabilities.tobytes()

        got = _on_route("pool", predict_on_more_cores)
        # only the cut route hands a head's map off, from the caller
        assert handed_off == [threading.current_thread()]
        assert got == _on_route("map", lambda: model.predict(*inputs).probabilities.tobytes())

    @pytest.mark.parametrize("fails", ["head", "whole"])
    def test_a_failed_piece_leaves_no_thread_waiting(self, rng, fails):
        # "head": the first stream's head, which the caller runs; "whole":
        # the third stream, which the pool worker runs before the first
        # stream's tail. Each predict re-raises, OpenBLAS gets its count
        # back, and the next predict gives the serial bytes. The calls run
        # on a thread joined with a timeout, so a section left waiting on a
        # tail or a worker fails the test instead of hanging it.
        get, put = _blas()
        size = net.PARALLEL_MIN_SIZE
        model = net.FusionModel(tiny_config(input_size=size), seed=0)
        inputs = rand_inputs(rng, size)
        serial = _on_route("map", lambda: model.predict(*inputs).probabilities.tobytes())
        name, part = ("rgb", "head") if fails == "head" else ("hog", "forward")
        raised_on = []

        def failing(*args, **kwargs):
            raised_on.append(threading.current_thread().name.startswith("rtar-stream"))
            raise RuntimeError(f"{fails} failed")

        def predicts():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model.streams[name], part, failing)
                for _ in range(2):
                    with pytest.raises(RuntimeError, match=f"{fails} failed"):
                        model.predict(*inputs)
                    counts.append(get())
            got.append(model.predict(*inputs).probabilities.tobytes())

        counts, got = [], []
        before = get()
        try:
            put(2)  # a count the section must lower and then give back
            caller = threading.Thread(target=lambda: _on_route("pool", predicts))
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
            assert get() == 2
        finally:
            put(before)
        assert raised_on == [fails == "whole"] * 2
        assert counts == [2, 2] and got == [serial]


def _state_bytes(model):
    return [t.tobytes() for t in net._model_state(model)]


_TRAIN_AND_SAVE = """
import sys
import numpy as np
from rtar import network as net
rng = np.random.default_rng(0)
samples = [tuple(rng.random((32, 32, c), dtype=np.float32) for c in (3, 2, 1)) + (i % 4,)
           for i in range(8)]
model = net.FusionModel(net.ModelConfig(num_classes=4, growth_rate=6, blocks=(2, 2),
                                        compression=0.5, input_size=32, bn_enabled=False), seed=1)
print(repr(net.train(model, samples, net.TrainConfig(lr=0.05, epochs=2, batch=4, seed=0))))
net.save_model(model, sys.argv[1])
"""


class TestParallelTraining:
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # criterion 1's architecture, whose products OpenBLAS splits across
        # two threads: each minibatch runs at one thread whatever the count
        _blas()
        src = os.path.dirname(os.path.dirname(net.__file__))
        runs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.ckpt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE, str(path)], env=env,
                                 capture_output=True, text=True, timeout=300, check=True).stdout
            runs.append((out, path.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    @pytest.mark.parametrize("streams", [net.STREAM_ORDER, ("flow", "rgb")],
                             ids=["all", "flow_rgb"])
    def test_routes_give_identical_bytes(self, rng, streams, bn):
        size = net.PARALLEL_MIN_SIZE
        cfg = tiny_config(growth_rate=3, blocks=(1, 2), compression=0.5, input_size=size,
                          bn_enabled=bn, streams=streams)
        samples = [(*rand_inputs(rng, size), i % 4) for i in range(4)]
        hyper = net.TrainConfig(lr=0.05, epochs=2, batch=2, seed=0)

        def trained():
            model = net.FusionModel(cfg, seed=3)
            return net.train(model, samples, hyper), _state_bytes(model)

        got = {route: _on_route(route, trained) for route in _ROUTE_CORES}
        assert got["pool"] == got["map"] and got["wide"] == got["map"]

    def test_cut_streams_backward_runs_its_tail_then_its_head(self, rng):
        # on two workers the first stream is cut in both passes: forward runs
        # its head on the caller and its tail on the worker, and backward
        # runs its tail's backward on the caller and then its head's on the
        # worker, which is queued only once the tail's has finished
        size = net.PARALLEL_MIN_SIZE
        samples = [(*rand_inputs(rng, size), i % 4) for i in range(3)]
        hyper = net.TrainConfig(lr=0.05, epochs=1, batch=2, seed=0)
        serial = net.FusionModel(tiny_config(input_size=size), seed=0)
        _on_route("map", lambda: net.train(serial, samples, hyper))
        model = net.FusionModel(tiny_config(input_size=size), seed=0)
        stream, ran = model.streams["rgb"], []

        def spy(part):
            original = getattr(stream, part)

            def run(*args):
                ran.append((threading.current_thread(), part, "start"))
                try:
                    return original(*args)
                finally:
                    ran.append((threading.current_thread(), part, "end"))
            return run

        with pytest.MonkeyPatch.context() as mp:
            for part in ("head", "tail", "tail_backward", "head_backward"):
                mp.setattr(stream, part, spy(part))
            _on_route("pool", lambda: net.train(model, samples, hyper))
        assert _state_bytes(model) == _state_bytes(serial)
        caller = threading.current_thread()
        steps = [(t is caller, part) for t, part, edge in ran if edge == "start"]
        assert steps == [(True, "head"), (False, "tail"),
                         (True, "tail_backward"), (False, "head_backward")] * len(samples)
        for i in range(len(samples)):
            edges = [(part, edge) for _, part, edge in ran[8 * i : 8 * i + 8]]
            assert edges.index(("tail_backward", "end")) < edges.index(("head_backward", "start"))
        assert all(t is not caller and t.name.startswith("rtar-stream")
                   for t, part, _ in ran if part in ("tail", "head_backward"))

    @pytest.mark.parametrize("fails", ["tail_backward", "backward"])
    def test_a_failed_backward_leaves_no_thread_waiting(self, rng, fails):
        # "tail_backward": the first stream's tail's backward, which the
        # caller runs first; "backward": the third stream's, which the pool
        # worker runs before the first stream's head's backward. Each train
        # re-raises, OpenBLAS gets its count back, the lock is free, and the
        # next train gives the serial bytes. The calls run on a thread joined
        # with a timeout, so a section left waiting fails the test instead of
        # hanging it.
        get, put = _blas()
        size = net.PARALLEL_MIN_SIZE
        samples = [(*rand_inputs(rng, size), i % 4) for i in range(2)]
        hyper = net.TrainConfig(lr=0.05, epochs=1, batch=2, seed=0)

        def trained():
            model = net.FusionModel(tiny_config(input_size=size), seed=0)
            net.train(model, samples, hyper)
            return _state_bytes(model)

        serial = _on_route("map", trained)
        name = "rgb" if fails == "tail_backward" else "hog"
        raised_on = []

        def failing(*args):
            raised_on.append(threading.current_thread().name.startswith("rtar-stream"))
            raise RuntimeError(f"{fails} failed")

        def trains():
            for _ in range(2):
                model = net.FusionModel(tiny_config(input_size=size), seed=0)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(model.streams[name], fails, failing)
                    with pytest.raises(RuntimeError, match=f"{fails} failed"):
                        net.train(model, samples, hyper)
                counts.append(get())
            got.append(trained())

        counts, got = [], []
        before = get()
        try:
            put(2)  # a count the section must lower and then give back
            caller = threading.Thread(target=lambda: _on_route("pool", trains))
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
            assert get() == 2
        finally:
            put(before)
        assert raised_on == [fails == "backward"] * 2
        assert counts == [2, 2] and got == [serial]
        assert net._parallel_lock._owner is None

    def test_a_predict_waits_for_one_step_not_the_run(self, rng):
        # the lock is held per minibatch, and handed to a waiting caller in
        # turn: a pool predict asked for during the first of four steps runs
        # its streams before the second step starts
        size = net.PARALLEL_MIN_SIZE
        model = net.FusionModel(tiny_config(input_size=size), seed=0)
        other = net.FusionModel(tiny_config(input_size=size), seed=1)
        samples = [(*rand_inputs(rng, size), i % 4) for i in range(4)]
        inputs = rand_inputs(rng, size)
        events, predicting = [], []
        forward_logits, hog_forward = model.forward_logits, other.streams["hog"].forward

        def step(*args, **kwargs):
            if not predicting:
                predicting.append(threading.Thread(target=other.predict, args=inputs))
                predicting[0].start()
                deadline = time.monotonic() + 60
                while not net._parallel_lock._queue and time.monotonic() < deadline:
                    time.sleep(0.001)
            events.append("step")
            return forward_logits(*args, **kwargs)

        def predicted(x, train=False, ws=None):
            events.append("predict")
            return hog_forward(x, train, ws)

        def run():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "forward_logits", step)
                mp.setattr(other.streams["hog"], "forward", predicted)
                net.train(model, samples, net.TrainConfig(lr=0.05, epochs=1, batch=1, seed=0))
                events.append("trained")
            predicting[0].join(timeout=60)
            assert not predicting[0].is_alive()

        _on_route("pool", run)
        assert events == ["step", "predict", "step", "step", "step", "trained"]


class TestFlopMidpoint:
    @given(growth=st.integers(1, 4), blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           bn=st.booleans(), compression=st.sampled_from([0.5, 1.0]), base=st.integers(1, 3),
           channels=st.sampled_from(sorted(net.STREAM_CHANNELS.values())))
    def test_cut_is_the_nearest_half_flop_boundary(self, growth, blocks, bn, compression, base,
                                                   channels):
        # oracle: each node's conv FLOPs counted from the shapes its convs
        # see in an eval forward, then every boundary tried
        size = base * 2 ** (len(blocks) - 1)
        cfg = tiny_config(growth_rate=growth, blocks=tuple(blocks), bn_enabled=bn,
                          compression=compression, input_size=size)
        stream = net.StreamNet(cfg, channels, np.random.default_rng(0), np.float64)
        per_node, counted = [], []
        conv = Conv2D.forward

        def spy(self, x, *args, **kwargs):
            k, _, cin, cout = self.params["w"].shape
            counted.append(k * k * cin * cout * x.shape[1] * x.shape[2])
            return conv(self, x, *args, **kwargs)

        x = np.random.default_rng(1).random((size, size, channels))
        ws = Workspace()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Conv2D, "forward", spy)
            h = x.transpose(2, 0, 1)
            for node in stream.nodes:
                h = node.forward(h, ws=ws)
                per_node.append(sum(counted))
                counted.clear()
        done, total = np.cumsum(per_node), sum(per_node)
        nearest = min(abs(2 * done[i - 1] - total) for i in range(1, len(stream.nodes)))
        assert 1 <= stream.cut < len(stream.nodes)
        assert abs(2 * done[stream.cut - 1] - total) == nearest
        assert all(abs(2 * done[i - 1] - total) > nearest for i in range(1, stream.cut))
        assert net.StreamNet(cfg, channels, np.random.default_rng(5), np.float64).cut == stream.cut
        whole = stream.forward(x)
        parts = stream.tail(stream.head(x, stream.cut, ws=Workspace()).copy(), stream.cut,
                            Workspace())
        assert parts.tobytes() == whole.tobytes()

    def test_defaults_cut_after_three_dense_layers(self):
        cfg = net.ModelConfig(num_classes=12)
        assert [net._flop_midpoint(cfg, c) for c in sorted(net.STREAM_CHANNELS.values())] == [4] * 3


class TestFusedDenseLayer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bn", [True, False], ids=["bn", "no_bn"])
    @given(h=st.integers(1, 6), w=st.integers(1, 6), c=st.integers(1, 6),
           growth=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_eval_close_to_term_by_term_chain(self, bn, dtype, h, w, c, growth, seed):
        gen = np.random.default_rng(seed)
        mid = 4 * growth
        specs = (([("bn", c)] if bn else []) + [("relu",), ("conv", 1, c, mid)]
                 + ([("bn", mid)] if bn else []) + [("relu",), ("conv", 3, mid, growth)])
        layer = net._build(("dense", c + growth, specs), gen, dtype)
        for b in (node for node in layer.chain if isinstance(node, BatchNorm)):
            n = b.running_var.size
            b.params["gamma"][...] = gen.uniform(-2, 2, n)
            b.params["beta"][...] = gen.normal(0, 1, n)
            b.running_mean[...] = gen.normal(0, 1, n)
            b.running_var[...] = 10.0 ** gen.uniform(-3, 1, n)
        x = gen.standard_normal((c, h, w)).astype(dtype)
        ws = Workspace()
        got = layer.forward(x, ws=ws).copy()
        assert np.array_equal(layer.forward(x, ws=ws), got)  # a reused workspace
        with pytest.raises(ContractViolationError):
            layer.forward(x)
        assert got.dtype == dtype and np.array_equal(got[:c], x)
        # the chain term by term, and the same chain on magnitudes: |x|, BN
        # as (|x| + |mean|) * |gamma| / sqrt(var + eps) + |beta|, |w|
        want, magnitude = x, np.abs(x).astype(np.float64)
        for node in layer.chain:
            if isinstance(node, BatchNorm):
                stats = (node.params["gamma"], node.params["beta"], node.running_mean,
                         node.running_var)
                g, b, m, v = (s[:, None, None] for s in stats)
                want = g * (want - m) / np.sqrt(v + node.eps) + b
                scale = np.abs(g.astype(np.float64)) / np.sqrt(v.astype(np.float64) + node.eps)
                magnitude = (magnitude + np.abs(m)) * scale + np.abs(b)
            elif isinstance(node, ReLU):
                want = np.maximum(want, dtype(0))
            else:
                wt = node.params["w"]
                want = conv2d_naive(want, wt, 1, wt.shape[0] // 2)
                magnitude = conv2d_naive(magnitude, np.abs(wt).astype(np.float64), 1,
                                         wt.shape[0] // 2)
        # Each layer's error bound, carried to the output by the magnitude
        # chain (ReLU is 1-Lipschitz): 5 eps per BN (the BN property), 2 n
        # eps per conv over its n terms (the conv property), one eps for
        # the mid BN's scale rounded into the 1x1's weights, and one for
        # second-order terms.
        eps = np.finfo(dtype).eps
        tol = ((10 if bn else 0) + 2 * c + 2 * 9 * mid + 2) * eps * magnitude
        assert np.all(np.abs(got[c:] - want) <= tol)


class TestParameterCount:
    def test_head_arithmetic(self):
        cfg = net.ModelConfig(num_classes=12, growth_rate=12, blocks=(4, 4),
                              compression=0.5, input_size=112)
        model = net.FusionModel(cfg, seed=0)
        head = model.head
        assert head.params["w"].shape == (252, 12)
        assert head.params["w"].size + head.params["b"].size == 3036

    def test_closed_form_count(self):
        # independent layer-by-layer count for k=2, blocks=(2,), bottleneck 4,
        # compression 1.0, BN on, streams rgb/flow/hog, 4 classes
        cfg = tiny_config(blocks=(2,), bn_enabled=True)
        model = net.FusionModel(cfg, seed=0)
        k, bf = 2, 4
        expected = 0
        for cin in (3, 2, 1):  # initial conv per stream
            expected += 3 * 3 * cin * 2 * k
        for _ in range(3):  # dense layers per stream
            c = 2 * k
            for _ in range(2):
                expected += 2 * c  # bn gamma+beta
                expected += 1 * 1 * c * bf * k
                expected += 2 * bf * k
                expected += 3 * 3 * bf * k * k
                c += k
            expected += 2 * c  # final bn
        d = 2 * k + 2 * k  # 2k initial + 2 layers * k
        expected += (3 * d) * 4 + 4  # head
        assert net.parameter_count(model) == expected

    def test_streams_differ_only_in_first_conv(self):
        model = net.FusionModel(tiny_config(bn_enabled=True), seed=0)

        def stream_count(name):
            return sum(p.size for layer in model.streams[name].layers()
                       for p in layer.params.values())

        def first_conv(name):
            return model.streams[name].nodes[0].params["w"].size

        tails = {stream_count(n) - first_conv(n) for n in ("rgb", "flow", "hog")}
        assert len(tails) == 1


class TestTrain:
    def test_zero_lr_keeps_weights_and_loss(self, rng):
        model = net.FusionModel(tiny_config(), seed=0)
        before = [p.copy() for layer in model.layers() for p in layer.params.values()]
        samples = [(*rand_inputs(rng, 8), 1), (*rand_inputs(rng, 8), 2)]
        history = net.train(model, samples, net.TrainConfig(lr=0.0, epochs=3, batch=2, seed=0))
        after = [p for layer in model.layers() for p in layer.params.values()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert history[0] == pytest.approx(history[-1])

    def test_memorizes_single_sample(self, rng):
        model = net.FusionModel(tiny_config(), seed=1)
        sample = (*rand_inputs(rng, 8), 3)
        history = net.train(model, [sample], net.TrainConfig(lr=0.2, epochs=80, batch=1, seed=0))
        assert history[-1] < 0.01

    def test_bit_reproducible(self, rng):
        samples = [(*rand_inputs(rng, 8), i % 4) for i in range(6)]
        runs = []
        for _ in range(2):
            model = net.FusionModel(tiny_config(bn_enabled=True), seed=7)
            net.train(model, samples, net.TrainConfig(lr=0.05, epochs=2, batch=3, seed=9))
            runs.append(np.concatenate([p.ravel().copy() for layer in model.layers()
                                        for p in layer.params.values()]))
        assert np.array_equal(runs[0], runs[1])

    def test_empty_dataset_rejected(self):
        model = net.FusionModel(tiny_config(), seed=0)
        with pytest.raises(ContractViolationError):
            net.train(model, [], net.TrainConfig())


class _LabelLeakModel:
    """Test stub: reads the class planted in the rgb corner pixel."""

    def __init__(self, num_classes=4, confidence=0.9):
        self.num_classes = num_classes
        self.confidence = confidence

    def predict(self, rgb, flow, hog):
        class_id = int(round(float(rgb[0, 0, 0]) * 100))
        probs = np.full(self.num_classes, (1 - self.confidence) / (self.num_classes - 1))
        probs[class_id] = self.confidence
        return net.Prediction(class_id=class_id, confidence=self.confidence, probabilities=probs)


def _leak_clip(name, label, planted, frames=3):
    pairs = []
    for _ in range(frames):
        rgb = np.zeros((4, 4, 3), dtype=np.float32)
        rgb[0, 0, 0] = planted / 100.0
        pairs.append((rgb, np.zeros((4, 4, 2), np.float32), np.zeros((4, 4, 1), np.float32)))
    return net.ClipSamples(name=name, label=label, pairs=pairs)


class TestEvaluate:
    def test_perfect_predictor(self):
        clips = [_leak_clip(f"c{i}", i % 4, planted=i % 4) for i in range(8)]
        report = net.evaluate(_LabelLeakModel(), clips)
        assert report.accuracy == 1.0
        assert report.frame_accuracy == 1.0
        assert report.per_class == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_constant_predictor_on_balanced_set(self):
        clips = [_leak_clip(f"c{i}", label=i % 12, planted=0) for i in range(12)]
        report = net.evaluate(_LabelLeakModel(num_classes=12), clips)
        assert report.accuracy == pytest.approx(1 / 12)

    def test_below_threshold_rate(self):
        clips = [_leak_clip("c0", 0, planted=0, frames=4)]
        report = net.evaluate(_LabelLeakModel(confidence=0.4), clips, threshold_confidence=0.5)
        assert report.below_threshold_rate == 1.0
        assert report.accuracy == 0.0  # nothing voted

    def test_matches_recount_oracle(self, rng):
        # independent tally over 50 randomized clips
        model = _LabelLeakModel(num_classes=4, confidence=0.6)
        clips = []
        for i in range(50):
            label = int(rng.integers(0, 4))
            frames = [_leak_clip("x", label, planted=int(rng.integers(0, 4))).pairs[0]
                      for _ in range(int(rng.integers(1, 6)))]
            clips.append(net.ClipSamples(name=f"c{i}", label=label, pairs=frames))
        report = net.evaluate(model, clips, threshold_confidence=0.5)

        correct = 0
        for clip in clips:
            tally: dict[int, int] = {}
            last: dict[int, int] = {}
            for order, (rgb, _, _) in enumerate(clip.pairs):
                cid = int(round(float(rgb[0, 0, 0]) * 100))
                tally[cid] = tally.get(cid, 0) + 1
                last[cid] = order
            best = max(tally.values())
            tied = [c for c, n in tally.items() if n == best]
            winner = max(tied, key=lambda c: last[c])
            correct += winner == clip.label
        assert report.accuracy == pytest.approx(correct / 50)


class TestCheckpoint:
    def test_init_checkpoint_digest_pinned(self, tmp_path):
        # Pins the layer order and the order of RNG draws at construction;
        # conv init and checkpoint writing involve no BLAS, so the bytes
        # are platform-stable.
        cfg = net.ModelConfig(num_classes=4, growth_rate=2, blocks=(2, 1), bottleneck_factor=4,
                              compression=0.5, input_size=16, bn_enabled=True)
        path = tmp_path / "init.ckpt"
        net.save_model(net.FusionModel(cfg, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1dc8f07d2ff62c00990dbcc23dd4ad285be747262d81aec78b3c3a70d44c2220")

    def test_round_trip_bit_identical(self, tmp_path, rng):
        model = net.FusionModel(tiny_config(bn_enabled=True), seed=11)
        samples = [(*rand_inputs(rng, 8), 0)]
        net.train(model, samples, net.TrainConfig(epochs=1, batch=1))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_model(model, p1)
        net.save_model(net.load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path, rng):
        model = net.FusionModel(tiny_config(bn_enabled=True), seed=12)
        inputs = rand_inputs(rng, 8)
        path = tmp_path / "m.ckpt"
        net.save_model(model, path)
        loaded = net.load_model(path)
        assert np.array_equal(model.predict(*inputs).probabilities,
                              loaded.predict(*inputs).probabilities)

    def test_single_stream_round_trip(self, tmp_path):
        model = net.FusionModel(tiny_config(streams=("flow",)), seed=0)
        path = tmp_path / "flow.ckpt"
        net.save_model(model, path)
        loaded = net.load_model(path)
        assert loaded.config.streams == ("flow",)
        assert net.parameter_count(loaded) == net.parameter_count(model)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError) as exc:
            net.load_model(path)
        assert exc.value.field == "magic"

    def test_truncation(self, tmp_path):
        model = net.FusionModel(tiny_config(), seed=0)
        path = tmp_path / "m.ckpt"
        net.save_model(model, path)
        (tmp_path / "cut.ckpt").write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError):
            net.load_model(tmp_path / "cut.ckpt")

    @settings(max_examples=30)
    @given(data=st.binary(min_size=0, max_size=200))
    def test_fuzz_structured_errors(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("ckpt")
        path = tmp / "f.ckpt"
        path.write_bytes(data)
        try:
            net.load_model(path)
        except FormatError:
            pass

    def test_state_count_matches_model(self):
        for cfg in (tiny_config(), tiny_config(bn_enabled=True, blocks=(2, 1)),
                    tiny_config(streams=("flow",), compression=0.5, blocks=(1, 1),
                                input_size=16), ODD_CEIL_CONFIG):
            model = net.FusionModel(cfg, seed=0)
            actual = sum(t.size for t in net._model_state(model))
            assert net._state_scalar_count(cfg) == actual

    def test_block_sum_beyond_file_size_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_model(net.FusionModel(tiny_config(), seed=0), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 40, 0xFF000000)  # the first block's layer count
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as exc:
            net.load_model(path)
        assert exc.value.field == "blocks"

    def test_zero_input_size_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_model(net.FusionModel(tiny_config(), seed=0), path)
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", data, 32)[0] == 8  # the input_size word
        struct.pack_into("<I", data, 32, 0)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="input_size") as exc:
            net.load_model(path)
        assert exc.value.field == "config"

    # tiny_config's one block and three streams put the flow words at 60:
    # pyramid_levels, scale, alpha, iterations, then the preprocess version
    FLOW_WORDS = 60

    def _saved(self, tmp_path, **kw) -> bytearray:
        path = tmp_path / "m.ckpt"
        net.save_model(net.FusionModel(tiny_config(**kw), seed=0), path)
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<IddII", data, self.FLOW_WORDS) == (
            4, 0.5, 15.0, 25, PREPROCESS_VERSION)
        return data

    def _load(self, tmp_path, data: bytearray):
        path = tmp_path / "mut.ckpt"
        path.write_bytes(bytes(data))
        return net.load_model(path)

    def test_flow_round_trip(self, tmp_path):
        flow = FlowParams(pyramid_levels=3, scale=0.1 + 0.2, alpha=9.75, iterations=7)
        model = net.FusionModel(tiny_config(flow=flow), seed=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_model(model, p1)
        loaded = net.load_model(p1)
        assert loaded.config == model.config and loaded.config.flow.scale == 0.1 + 0.2
        net.save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_1_refused(self, tmp_path):
        data = self._saved(tmp_path)
        del data[self.FLOW_WORDS : self.FLOW_WORDS + 28]  # version 1 recorded no maps
        struct.pack_into("<I", data, 4, 1)
        with pytest.raises(FormatError, match="^unsupported checkpoint version 1$") as exc:
            self._load(tmp_path, data)
        assert exc.value.field == "version"

    def test_other_preprocess_version_refused(self, tmp_path):
        data = self._saved(tmp_path)
        struct.pack_into("<I", data, self.FLOW_WORDS + 24, PREPROCESS_VERSION + 1)
        with pytest.raises(FormatError) as exc:
            self._load(tmp_path, data)
        assert exc.value.field == "preprocess_version"
        assert str(exc.value) == (f"checkpoint was trained on preprocess version "
                                  f"{PREPROCESS_VERSION + 1} maps, this build computes "
                                  f"version {PREPROCESS_VERSION}")

    @pytest.mark.parametrize("word", [0, 20], ids=["pyramid_levels", "iterations"])
    def test_implausible_flow_counts_rejected(self, tmp_path, word):
        data = self._saved(tmp_path)
        struct.pack_into("<I", data, self.FLOW_WORDS + word, 2**16)
        self._load(tmp_path, data)  # the bound itself loads
        for count in (2**16 + 1, 2**32 - 1):
            struct.pack_into("<I", data, self.FLOW_WORDS + word, count)
            with pytest.raises(FormatError, match="implausible") as exc:
                self._load(tmp_path, data)
            assert exc.value.field == "config"

    @pytest.mark.parametrize("word, value, reason", [
        (4, 1.5, "pyramid scale must be in"),
        (12, float("nan"), "alpha must be finite and > 0"),
        (20, 0, "pyramid_levels and iterations must be positive"),
    ], ids=["scale", "alpha", "iterations"])
    def test_invalid_flow_params_rejected(self, tmp_path, word, value, reason):
        data = self._saved(tmp_path)
        struct.pack_into("<I" if word == 20 else "<d", data, self.FLOW_WORDS + word, value)
        with pytest.raises(FormatError, match=f"^checkpoint config invalid: {reason}") as exc:
            self._load(tmp_path, data)
        assert exc.value.field == "config"

    def test_header_int_mutations_never_allocate_blindly(self, tmp_path):
        # flipping high bytes of header integers must yield FormatError, not
        # an attempted giant model construction
        model = net.FusionModel(tiny_config(), seed=0)
        path = tmp_path / "m.ckpt"
        net.save_model(model, path)
        base = bytearray(path.read_bytes())
        mutant = tmp_path / "mut.ckpt"
        assert struct.unpack_from("<I", base, 88)[0] == len(net._model_state(model))
        for offset in range(4, 92):  # every header word, through the tensor count
            data = bytearray(base)
            data[offset] = 0xFF
            mutant.write_bytes(bytes(data))
            try:
                net.load_model(mutant)
            except FormatError:
                pass
