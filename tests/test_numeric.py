import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mczsl.numeric import make_rng, softmax


class TestSoftmax:
    def test_symmetric_input(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-12)

    def test_large_values_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999999
        assert out[1] < 1e-6

    def test_matches_direct_evaluation(self):
        out = softmax([1.0, 2.0])
        z = math.exp(1.0) + math.exp(2.0)
        assert abs(out[0] - math.exp(1.0) / z) < 1e-15
        assert abs(out[1] - math.exp(2.0) / z) < 1e-15

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20))
    def test_sums_to_one(self, v):
        assert abs(softmax(v).sum() - 1.0) < 1e-6

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_shift_invariance(self, v, c):
        base = softmax(v)
        shifted = softmax(np.asarray(v) + c)
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_rowwise_axis(self):
        m = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = softmax(m, axis=1)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(out[1], [1 / 3] * 3)


def test_rng_reproducible_sequences():
    a, b = make_rng(123), make_rng(123)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
    assert a.integers(0, 1000) == b.integers(0, 1000)
