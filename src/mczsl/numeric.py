"""Seeded random streams, the one check of settings dataclasses, an exact row
max and a stable softmax.

All in-memory computation is float64; matrices are plain 2-D numpy arrays in
C (row-major) order. Randomness comes from numpy's PCG64, a named portable
generator: the same seed produces the same stream on every platform.
"""
from __future__ import annotations

import functools
import math
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream. Single-owner: do not share across concurrent users."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child streams derived from one seed, in a fixed order."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


@functools.cache
def field_types(cls) -> dict[str, tuple[type, ...]]:
    """The types each field of a settings dataclass may hold: (T,), or
    (T, NoneType) for `T | None`."""
    return {name: get_args(typ) or (typ,) for name, typ in get_type_hints(cls).items()}


def _is_a(value, typ: type) -> bool:
    if isinstance(value, bool):  # a bool is never a number
        return typ is bool
    if typ is float:  # an int serves as a float; a float never as an int
        return isinstance(value, (int, float))
    return isinstance(value, typ)


def check_settings(settings, *rules) -> None:
    """Refuse a settings dataclass with a ConfigError: a field that does not hold
    its annotated type names `Class.field`, and so does a NaN or +-inf (range
    rules alone let a NaN through, since every comparison with it is false).
    Then each (holds, rule) pair runs in order, and the first whose `holds()`
    is false is refused as "<Class> settings violate <rule>". `holds` is a
    callable, so it runs only once every field has its type."""
    name = type(settings).__name__
    for field, types in field_types(type(settings)).items():
        value = getattr(settings, field)
        if not any(_is_a(value, t) for t in types):
            wanted = " or ".join("None" if t is type(None) else t.__name__ for t in types)
            raise ConfigError(f"{name}.{field} must be {wanted}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name}.{field} must be finite, got {value}")
    for holds, rule in rules:
        if not holds():
            raise ConfigError(f"{name} settings violate {rule}")


# the longest axis row_max reduces through a transposed copy; timed crossover
# 32-48 entries, on many short rows and on a few long ones alike
TRANSPOSED_MAX_AXIS = 32


def row_max(x, axis: int = -1) -> np.ndarray:
    """np.max(x, axis, keepdims=True) with the same values, NaN and +-inf
    included (a max does not round). An axis of up to TRANSPOSED_MAX_AXIS
    entries (the default synthetic shape's K=12, R=9, C=10) is reduced over
    axis 0 of a C-contiguous copy with `axis` swapped to the front: elementwise
    maxima of long rows, where np.max along a short last axis pays a
    reduction's overhead for every row; the result is a view with the axes
    swapped back. A longer axis (the CUB-like K=312 and R=196) goes to np.max,
    which is faster there."""
    x = np.asarray(x)
    if x.shape[axis] > TRANSPOSED_MAX_AXIS:
        return np.max(x, axis=axis, keepdims=True)
    return np.ascontiguousarray(x.swapaxes(axis, 0)).max(axis=0, keepdims=True).swapaxes(0, axis)


def softmax(v, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction), normalized along `axis`."""
    v = np.asarray(v, dtype=np.float64)
    e = v - row_max(v, axis)
    np.exp(e, out=e)  # in place: one fresh array per call, not three
    e /= e.sum(axis=axis, keepdims=True)
    return e

