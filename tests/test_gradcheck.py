import numpy as np
import pytest

from mczsl.errors import NumericError
from mczsl.gradcheck import directional_check, finite_difference_check
from mczsl.numeric import make_rng


def test_quadratic_loss():
    rng = make_rng(1)
    params = {"theta": rng.standard_normal((3, 2))}

    def loss_fn(p):
        return float(np.sum(p["theta"] ** 2)), {"theta": 2.0 * p["theta"]}

    report = finite_difference_check(loss_fn, params, epsilon=1e-5, tolerance=1e-8)
    assert report.max_relative_error < 1e-8
    assert report.passed


def test_constant_loss_all_errors_zero():
    params = {"w": np.ones((2, 2))}

    def loss_fn(p):
        return 5.0, {"w": np.zeros_like(p["w"])}

    report = finite_difference_check(loss_fn, params)
    assert report.max_relative_error == 0.0
    assert report.per_parameter_errors == {"w": 0.0}


def test_wrong_gradient_is_caught():
    params = {"w": np.array([[1.0, 2.0]])}

    def loss_fn(p):
        return float(np.sum(p["w"] ** 2)), {"w": 3.0 * p["w"]}  # wrong factor

    report = finite_difference_check(loss_fn, params, tolerance=1e-4)
    assert not report.passed
    assert report.max_relative_error > 0.3
    assert report.worst_parameter.startswith("w[")


def test_nonfinite_loss_names_parameter():
    params = {"w": np.array([1e-6])}

    def loss_fn(p):
        v = p["w"][0]
        return (float(np.log(v)) if v > 0 else float("nan")), {"w": 1.0 / p["w"]}

    with pytest.raises(NumericError, match=r"w\[0\]"):
        finite_difference_check(loss_fn, params, epsilon=1e-5)


def test_nonfinite_at_base_point():
    params = {"w": np.array([1.0])}
    with pytest.raises(NumericError):
        finite_difference_check(lambda p: (float("inf"), {"w": p["w"]}), params)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        finite_difference_check(lambda p: (0.0, {}), {}, epsilon=0.0)


def test_worst_parameter_identified():
    params = {"good": np.array([1.0]), "bad": np.array([1.0])}

    def loss_fn(p):
        loss = float(p["good"][0] ** 2 + p["bad"][0] ** 2)
        return loss, {"good": 2.0 * p["good"], "bad": 5.0 * p["bad"]}

    report = finite_difference_check(loss_fn, params, tolerance=1e-4)
    assert report.worst_parameter == "bad[0]"
    assert report.per_parameter_errors["good"] < 1e-8


def test_directional_check_passes_and_catches():
    rng = make_rng(5)
    params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    before = {k: v.copy() for k, v in params.items()}

    def loss_fn(p, factor=1.0):
        loss = float(np.sum(p["a"] ** 3) + np.sum(np.sin(p["b"])))
        return loss, {"a": 3.0 * p["a"] ** 2, "b": factor * np.cos(p["b"])}

    report = directional_check(loss_fn, params, directions=4)
    assert report.passed and report.max_relative_error < 1e-8
    assert sorted(report.per_parameter_errors) == ["u0", "u1", "u2", "u3"]
    assert all(np.array_equal(params[k], before[k]) for k in params)  # restored
    wrong = directional_check(lambda p: loss_fn(p, factor=1.5), params, directions=4)
    assert not wrong.passed and wrong.worst_parameter.startswith("u")


def test_directional_check_nonfinite_names_direction():
    params = {"w": np.array([1e-6])}

    def loss_fn(p):
        v = p["w"][0]
        return (float(np.log(v)) if v > 0 else float("nan")), {"w": 1.0 / p["w"]}

    with pytest.raises(NumericError, match="direction u0"):
        directional_check(loss_fn, params, epsilon=1e-5)


@pytest.mark.parametrize("check", [finite_difference_check, directional_check])
def test_nonfinite_analytic_gradient_is_refused(check):
    # a comparison with NaN is false, so a NaN entry would pass unless refused
    params = {"w": np.array([1.0, 2.0]), "v": np.array([0.5])}

    def loss_fn(p):
        grad_v = 2.0 * p["v"]
        grad_v[0] = np.nan
        return float(np.sum(p["w"] ** 2) + np.sum(p["v"] ** 2)), {"w": 2.0 * p["w"], "v": grad_v}

    with pytest.raises(NumericError, match="gradient of v"):
        check(loss_fn, params)
