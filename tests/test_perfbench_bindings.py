"""The benchmark tracer's bindings into rtar, checked without running it.

``perfbench/tracer.py`` rebinds rtar functions and layer methods by name
and counts conv flops from layer attributes; a rename in rtar would
otherwise surface only in the traced benchmark smoke test.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from rtar.nn.layers import Conv2D  # noqa: E402


def test_every_target_is_an_attribute_of_its_owner():
    for owner, attr, *_ in tracer._targets():
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("k", [1, 3])
def test_conv_flops_count_same_conv(k):
    h, w, cin, cout = 6, 5, 3, 4
    layer = Conv2D(k, cin, cout, rng=np.random.default_rng(0))
    x = np.zeros((h, w, cin), dtype=np.float32)
    assert tracer._conv_flops(layer, x) == 2 * h * w * cout * k * k * cin
