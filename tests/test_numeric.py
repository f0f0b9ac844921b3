import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mczsl.data import SynthConfig
from mczsl.errors import ConfigError
from mczsl.evaluate import FusionConfig
from mczsl.losses import LossWeights
from mczsl.numeric import TRANSPOSED_MAX_AXIS, make_rng, row_max, softmax
from mczsl.training import Hyperparams


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

    def test_leaves_its_input_alone(self):
        # the shift, exp and division run in place on the shifted copy
        m = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
        before = m.copy()
        softmax(m, axis=0)
        softmax(m, axis=-1)
        assert np.array_equal(m, before)


class TestRowMax:
    # a max does not round: row_max gives np.max's values bit for bit
    @staticmethod
    def same(x, axis):
        got, want = row_max(x, axis), np.max(x, axis=axis, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_equals_np_max_on_every_axis(self, axis):
        self.same(make_rng(3).standard_normal((6, 9, 12)), axis)

    def test_one_dimensional(self):
        self.same(make_rng(4).standard_normal(9), 0)
        self.same(make_rng(4).standard_normal(9), -1)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_ties_infinities_and_nan(self, axis):
        x = make_rng(5).standard_normal((5, 7, 9))
        x[0, :, 3] = x[0, :, 5] = 7.0  # ties along the last axis
        x[1, 2, :] = 2.5  # a row of equal values
        x[2, 3, 4] = np.inf
        x[2, 4, :] = -np.inf  # a row of -inf only
        x[3, 1, 6] = np.nan
        x[4, 0, 0] = np.nan
        x[4, 0, 1] = np.inf  # NaN and +inf in one row: NaN wins, as in np.max
        self.same(x, axis)

    @pytest.mark.parametrize("n", [TRANSPOSED_MAX_AXIS, TRANSPOSED_MAX_AXIS + 1, 312])
    @pytest.mark.parametrize("axis", [0, -1])
    def test_both_paths_with_infinities_and_nan(self, n, axis):
        x = np.moveaxis(make_rng(6).standard_normal((4, 5, n)), -1, axis)
        rows = np.moveaxis(x, axis, -1)  # a view: writes land in x
        rows[0, 1, 3] = np.inf
        rows[1, 2, :] = -np.inf
        rows[2, 3, n - 1] = np.nan
        rows[3, 0, 0], rows[3, 0, 1] = np.nan, np.inf
        self.same(x, axis)
        # the transposed path hands back a view, np.max a fresh array
        assert (row_max(x, axis).base is None) == (n > TRANSPOSED_MAX_AXIS)


def test_rng_reproducible_sequences():
    a, b = make_rng(123), make_rng(123)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
    assert a.integers(0, 1000) == b.integers(0, 1000)


class TestCheckSettings:
    @pytest.mark.parametrize("cls,field,value", [
        (Hyperparams, "batch_size", 1.5), (Hyperparams, "epochs", True),
        (Hyperparams, "seed", np.int64(3)), (Hyperparams, "intervention_seed", True),
        (Hyperparams, "loss_weights", None), (LossWeights, "lambda_ar", True),
        (FusionConfig, "alpha1", True), (SynthConfig, "classes", 10.0),
        # the type check runs before any rule, which could not compare these
        (Hyperparams, "seed", "3"), (FusionConfig, "alpha2", None),
    ], ids=lambda v: repr(v) if not isinstance(v, type) else v.__name__)
    def test_wrong_type_refused_naming_the_field(self, cls, field, value):
        with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{field} must be "):
            cls(**{field: value})

    def test_int_for_a_float_and_none_for_an_optional_accepted(self):
        assert FusionConfig(alpha1=1, alpha2=0).alpha1 == 1
        assert Hyperparams(intervention_seed=None).intervention_seed is None
        assert LossWeights(lambda_ar=np.float64(0.5)).lambda_ar == 0.5  # a float subclass

    def test_first_broken_rule_is_named(self):
        with pytest.raises(ConfigError, match=r"^FusionConfig settings violate alpha1 >= 0$"):
            FusionConfig(alpha1=-1.0, alpha2=-1.0)
