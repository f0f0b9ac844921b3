"""Seeded random streams, a finiteness check for settings, an exact row max
and a stable softmax.

All in-memory computation is float64; matrices are plain 2-D numpy arrays in
C (row-major) order. Randomness comes from numpy's PCG64, a named portable
generator: the same seed produces the same stream on every platform.
"""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ConfigError


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream. Single-owner: do not share across concurrent users."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child streams derived from one seed, in a fixed order."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def check_finite_settings(settings) -> None:
    """Refuse NaN and +-inf in the float fields of a settings dataclass; range
    checks alone let them through (every comparison with NaN is false)."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(settings).__name__}.{f.name} must be finite, got {value}")


def row_max(x, axis: int = -1) -> np.ndarray:
    """np.max(x, axis, keepdims=True) with the same values, NaN and +-inf
    included (a max does not round). The max runs over axis 0 of a C-contiguous
    copy with `axis` swapped to the front: elementwise maxima of long rows,
    where np.max along a short last axis pays a reduction's overhead for every
    row. The result is a view with the axes swapped back."""
    x = np.asarray(x)
    return np.ascontiguousarray(x.swapaxes(axis, 0)).max(axis=0, keepdims=True).swapaxes(0, axis)


def softmax(v, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction), normalized along `axis`."""
    v = np.asarray(v, dtype=np.float64)
    e = v - row_max(v, axis)
    np.exp(e, out=e)  # in place: one fresh array per call, not three
    e /= e.sum(axis=axis, keepdims=True)
    return e

