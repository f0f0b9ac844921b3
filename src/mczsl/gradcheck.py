"""Finite-difference verification of analytic gradients.

Every trainable path in the package must pass this check. Both checks compare,
in float64, the slope <grad f, u> of a scalar loss along unit vectors u with
the central difference (f(p + eps u) - f(p - eps u)) / (2 eps): the entrywise
check along each parameter entry in turn (so it moves that entry alone, to
p +- eps), the directional check along a few seeded random unit vectors over
all parameters. A non-finite analytic gradient is refused: NaN compares false.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError
from .numeric import make_rng

# relative-error denominator floor; keeps near-zero gradients from producing
# spurious huge ratios while still exposing real disagreements
_DENOM_FLOOR = 1e-6

LossAndGradFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter: str
    per_parameter_errors: dict[str, float] = field(default_factory=dict)
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance


def finite_difference_check(
    loss_fn: LossAndGradFn,
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Check loss_fn's analytic gradients one parameter entry at a time.

    loss_fn maps the parameter dict to (loss, grads) and must be deterministic
    for fixed parameters; grads must be keyed and shaped like params. Arrays in
    `params` are moved in place and restored. The report names entries
    ("w1[3]") and keeps the worst error of each parameter.
    """

    def unit_vectors():
        for name, p in params.items():
            for i in range(p.size):
                u = np.zeros(p.shape)
                u.flat[i] = 1.0
                yield f"{name}[{i}]", name, {name: u}

    return _compare(loss_fn, params, "entry", unit_vectors(), epsilon, tolerance)


def directional_check(
    loss_fn: LossAndGradFn,
    params: dict[str, np.ndarray],
    directions: int = 3,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Check loss_fn's analytic gradients along `directions` seeded random unit
    vectors over all parameters jointly, at 2 loss evaluations each whatever
    the shape. loss_fn and `params` are as for finite_difference_check; the
    report names directions ("u0", "u1", ...).
    """
    rng = make_rng(seed)

    def random_units():
        for k in range(directions):
            u = {name: rng.standard_normal(p.shape) for name, p in params.items()}
            norm = math.sqrt(sum(float(np.sum(v * v)) for v in u.values()))
            yield f"u{k}", f"u{k}", {name: v / norm for name, v in u.items()}

    return _compare(loss_fn, params, "direction", random_units(), epsilon, tolerance)


def _compare(loss_fn, params, kind, units, epsilon, tolerance) -> GradCheckReport:
    """Compare <grad f, u> with (f(p + eps u) - f(p - eps u)) / (2 eps) for each
    (label, group, u) of `units`, u mapping parameter names to the direction's
    part in each. A group's error is the worst of its labels'."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    base_loss, analytic = loss_fn(params)
    if not math.isfinite(base_loss):
        raise NumericError("loss is non-finite at the unperturbed parameters")
    grads = {name: np.asarray(analytic[name], dtype=np.float64) for name in params}
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ValueError(f"gradient for {name} has shape {grads[name].shape}, "
                             f"expected {p.shape}")
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"analytic gradient of {name} is non-finite")
    originals = {name: p.copy() for name, p in params.items()}
    errors: dict[str, float] = {}
    worst, worst_err = "", 0.0
    for label, group, u in units:
        slope = sum(float(np.sum(grads[name] * v)) for name, v in u.items())
        values = []
        for step in (epsilon, -epsilon):
            for name, v in u.items():
                params[name][...] = originals[name] + step * v
            values.append(loss_fn(params)[0])
        for name in u:
            params[name][...] = originals[name]
        if not all(math.isfinite(v) for v in values):
            raise NumericError(f"loss non-finite while perturbing {kind} {label}")
        numeric = (values[0] - values[1]) / (2.0 * epsilon)
        err = abs(slope - numeric) / max(abs(slope), abs(numeric), _DENOM_FLOOR)
        errors[group] = max(errors.get(group, 0.0), err)
        if err > worst_err:
            worst, worst_err = label, err
    return GradCheckReport(worst_err, worst, errors, tolerance)
