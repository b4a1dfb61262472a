"""Finite-difference checks for every layer's backward rule."""

import numpy as np
import pytest

from rtar.errors import ContractViolationError
from rtar.nn import layers as L
from rtar.nn import tensorops as T


def central_diff(f, x, step=1e-3):
    """Central finite differences of scalar f with respect to array x.

    The default step matches the layer-level oracle contract; callers must
    keep ReLU inputs clear of the kink by more than the step.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def check_layer(layer, x, tol=1e-6):
    """Compare analytic input/parameter gradients against central differences.

    The scalar objective is sum(forward(x) * r) for a fixed random r, so
    the upstream gradient is simply r.
    """
    rng = np.random.default_rng(7)
    y = layer.forward(x, train=True)
    r = rng.standard_normal(y.shape)

    layer.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(r.copy())

    def objective():
        return float((layer.forward(x, train=False) * r).sum())

    # eval-mode BN would use running stats; freeze them to the cached batch
    # stats so the objective matches the train-mode forward being tested
    if isinstance(layer, L.BatchNorm):
        def objective():  # noqa: F811
            y2, _, _, _ = T.batch_norm_train(x, layer.params["gamma"], layer.params["beta"], layer.eps)
            return float((y2 * r).sum())

    num_dx = central_diff(objective, x)
    assert rel_err(dx, num_dx) <= tol, f"input gradient off by {rel_err(dx, num_dx)}"
    for name, p in layer.params.items():
        num = central_diff(objective, p)
        assert rel_err(layer.grads[name], num) <= tol, f"{name} gradient off"


@pytest.fixture
def gen():
    return np.random.default_rng(42)


class TestLayerGradients:
    def test_conv_gradients(self, gen):
        layer = L.Conv2D(3, 2, 3, rng=gen, dtype=np.float64)
        check_layer(layer, gen.standard_normal((2, 5, 6)))

    def test_conv_1x1_gradients(self, gen):
        layer = L.Conv2D(1, 3, 4, rng=gen, dtype=np.float64)
        check_layer(layer, gen.standard_normal((3, 4, 5)))

    def test_batchnorm_gradients(self, gen):
        layer = L.BatchNorm(3, dtype=np.float64)
        layer.params["gamma"][:] = gen.random(3) + 0.5
        layer.params["beta"][:] = gen.standard_normal(3)
        check_layer(layer, gen.standard_normal((3, 4, 5)), tol=1e-5)

    def test_relu_gradients(self, gen):
        layer = L.ReLU()
        x = gen.standard_normal((5, 5, 2))
        x[np.abs(x) < 0.05] += 0.2  # keep clear of the kink
        check_layer(layer, x)

    def test_avgpool_gradients(self, gen):
        check_layer(L.AvgPool2(), gen.standard_normal((3, 6, 4)))

    def test_globalpool_gradients(self, gen):
        layer = L.GlobalAvgPool()
        x = gen.standard_normal((5, 4, 3))
        y = layer.forward(x, train=True)
        r = np.arange(1.0, 4.0)
        dx = layer.backward(r.copy())
        num = central_diff(lambda: float((T.global_avg_pool(x) * r).sum()), x)
        assert rel_err(dx, num) <= 1e-6

    def test_dense_gradients(self, gen):
        layer = L.Dense(8, 3, rng=gen, dtype=np.float64)
        x = gen.standard_normal(8)
        y = layer.forward(x, train=True)
        r = gen.standard_normal(3)
        layer.zero_grad()
        layer.forward(x, train=True)
        dx = layer.backward(r.copy())

        def obj():
            return float((layer.forward(x) * r).sum())

        assert rel_err(dx, central_diff(obj, x)) <= 1e-7
        assert rel_err(layer.grads["w"], central_diff(obj, layer.params["w"])) <= 1e-7
        assert rel_err(layer.grads["b"], central_diff(obj, layer.params["b"])) <= 1e-7

    def test_dense_closed_form_weight_grad(self, gen):
        # dL/dW for a linear layer is the outer product input x upstream
        layer = L.Dense(4, 2, rng=gen, dtype=np.float64)
        x = gen.standard_normal(4)
        dy = gen.standard_normal(2)
        layer.forward(x, train=True)
        layer.backward(dy)
        assert np.allclose(layer.grads["w"], np.outer(x, dy))


class TestCrossEntropy:
    def test_uniform_logits_gradient(self):
        # gradient is p - onehot; with uniform logits p = 1/K
        loss, probs, dlogits = L.softmax_cross_entropy(np.zeros(4), 1)
        want = np.full(4, 0.25)
        want[1] -= 1
        assert np.allclose(dlogits, want)
        assert loss == pytest.approx(np.log(4))

    def test_gradient_matches_finite_difference(self, gen):
        logits = gen.standard_normal(5)
        _, _, dlogits = L.softmax_cross_entropy(logits, 2)
        num = central_diff(lambda: L.softmax_cross_entropy(logits, 2)[0], logits)
        assert rel_err(dlogits, num) <= 1e-7

    def test_label_out_of_range(self):
        with pytest.raises(ContractViolationError):
            L.softmax_cross_entropy(np.zeros(3), 3)


class TestBackwardChain:
    def test_backward_before_forward_raises(self, gen):
        layer = L.Conv2D(3, 1, 1, rng=gen)
        with pytest.raises(ContractViolationError):
            layer.backward(np.zeros((4, 4, 1), dtype=np.float32))

    def test_chain_matches_finite_difference(self, gen):
        # the (C, H, W) layers, then the channel-last (H, W, C) map pooled, as
        # in a stream followed by its pool and the head
        maps = [
            L.Conv2D(3, 1, 2, rng=gen, dtype=np.float64),
            L.ReLU(),
            L.AvgPool2(),
        ]
        head = [L.GlobalAvgPool(), L.Dense(2, 3, rng=gen, dtype=np.float64)]
        layers = maps + head
        x = gen.standard_normal((1, 4, 4))

        def run(train=False):
            h = x
            for layer in maps:
                h = layer.forward(h, train=train)
            h = h.transpose(1, 2, 0)
            for layer in head:
                h = layer.forward(h, train=train)
            return h

        r = gen.standard_normal(3)
        assert np.array_equal(L.forward(head, L.forward(maps, x).transpose(1, 2, 0)), run())
        run(train=True)
        dx = L.backward(maps, L.backward(head, r.copy()).transpose(2, 0, 1))

        def obj():
            return float((run() * r).sum())

        assert rel_err(dx, central_diff(obj, x)) <= 1e-6
        conv_w_num = central_diff(obj, layers[0].params["w"])
        assert rel_err(layers[0].grads["w"], conv_w_num) <= 1e-6


class TestSgd:
    def test_zero_lr_keeps_weights(self, gen):
        layer = L.Dense(3, 2, rng=gen, dtype=np.float64)
        before = layer.params["w"].copy()
        opt = L.SGDMomentum([layer], lr=0.0, momentum=0.9)
        layer.forward(gen.standard_normal(3), train=True)
        layer.backward(np.ones(2))
        opt.step()
        assert np.array_equal(layer.params["w"], before)

    def test_descends_quadratic(self, gen):
        layer = L.Dense(1, 1, rng=gen, dtype=np.float64)
        layer.params["w"][:] = 4.0
        opt = L.SGDMomentum([layer], lr=0.1, momentum=0.5)
        for _ in range(60):
            opt.zero_grad()
            y = layer.forward(np.ones(1), train=True)
            layer.backward(2 * y)  # d/dy of y^2
            opt.step()
        assert abs(layer.forward(np.ones(1))[0]) < 1e-3
