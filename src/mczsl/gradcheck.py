"""Finite-difference verification of analytic gradients.

Every trainable path in the package must pass this check: the analytic
gradient of a scalar loss is compared entry-by-entry against the central
difference (f(p+eps) - f(p-eps)) / (2 eps), all in float64. The directional
check compares it along a few random unit directions instead, at 2 loss
evaluations per direction whatever the shape.
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
    """Check loss_fn's analytic gradients against central differences.

    loss_fn maps the parameter dict to (loss, grads) and must be deterministic
    for fixed parameters; grads must be keyed and shaped like params. Arrays in
    `params` are perturbed in place and restored.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    base_loss, analytic = loss_fn(params)
    if not math.isfinite(base_loss):
        raise NumericError("loss is non-finite at the unperturbed parameters")

    per_param: dict[str, float] = {}
    worst = ""
    worst_err = 0.0
    for name, p in params.items():
        grad = np.asarray(analytic[name], dtype=np.float64)
        if grad.shape != p.shape:
            raise ValueError(f"gradient for {name} has shape {grad.shape}, expected {p.shape}")
        flat = p.reshape(-1)
        param_worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus, _ = loss_fn(params)
            flat[i] = orig - epsilon
            f_minus, _ = loss_fn(params)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(f"loss non-finite while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = grad.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), _DENOM_FLOOR)
            if err > param_worst:
                param_worst = err
            if err > worst_err:
                worst_err = err
                worst = f"{name}[{i}]"
        per_param[name] = param_worst
    return GradCheckReport(
        max_relative_error=worst_err,
        worst_parameter=worst,
        per_parameter_errors=per_param,
        tolerance=tolerance,
    )


def directional_check(
    loss_fn: LossAndGradFn,
    params: dict[str, np.ndarray],
    directions: int = 3,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Check <grad f, u> against (f(p + eps u) - f(p - eps u)) / (2 eps) along
    `directions` seeded random unit vectors u over all parameters jointly.

    loss_fn is as for finite_difference_check; arrays in `params` are moved in
    place and restored. The report names directions ("u0", "u1", ...) where the
    entrywise check names parameter entries.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    base_loss, analytic = loss_fn(params)
    if not math.isfinite(base_loss):
        raise NumericError("loss is non-finite at the unperturbed parameters")
    for name, p in params.items():
        if np.shape(analytic[name]) != p.shape:
            raise ValueError(f"gradient for {name} has shape {np.shape(analytic[name])}, "
                             f"expected {p.shape}")
    rng = make_rng(seed)
    originals = {name: p.copy() for name, p in params.items()}
    errors: dict[str, float] = {}
    for k in range(directions):
        u = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        norm = math.sqrt(sum(float(np.sum(v * v)) for v in u.values()))
        slope = sum(float(np.sum(np.asarray(analytic[name]) * v)) for name, v in u.items()) / norm
        values = []
        for step in (epsilon, -epsilon):
            for name, p in params.items():
                p[...] = originals[name] + (step / norm) * u[name]
            values.append(loss_fn(params)[0])
        for name, p in params.items():
            p[...] = originals[name]
        if not all(math.isfinite(v) for v in values):
            raise NumericError(f"loss non-finite while moving along direction u{k}")
        numeric = (values[0] - values[1]) / (2.0 * epsilon)
        errors[f"u{k}"] = abs(slope - numeric) / max(abs(slope), abs(numeric), _DENOM_FLOOR)
    worst = max(errors, key=errors.get, default="")
    return GradCheckReport(
        max_relative_error=errors.get(worst, 0.0),
        worst_parameter=worst,
        per_parameter_errors=errors,
        tolerance=tolerance,
    )
