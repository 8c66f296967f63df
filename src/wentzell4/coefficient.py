"""Degenerate diffusion coefficients on [0, 1].

Every coefficient is the power law ``a(x) = scale * |x - x0|**K``; K = 0
is the constant ``a(x) = scale``.  A coefficient is *weakly* degenerate when
1/a is integrable across the zero of a (power law with K < 1), *strongly*
degenerate when it is not (K >= 1).  Strong results additionally need a
monotone comparison against a reference power with exponent in [1, 2),
which for the power law is K < 2; see :func:`check_power_comparison`.
"""
from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .powers import PiecewisePower

__all__ = [
    "ConfigError",
    "keyed",
    "is_finite_number",
    "number",
    "only_keys",
    "DegeneracyClass",
    "DegenerateCoefficient",
    "power_profile",
    "constant_profile",
    "classify",
    "check_power_comparison",
    "singular_moment",
]


class ConfigError(ValueError):
    """An invalid config entry or constructor argument; ``key`` names it
    within its :func:`keyed` section, and is empty for the whole section."""

    def __init__(self, key, reason):
        super().__init__(f"{key}: {reason}" if key else reason)
        self.key, self.reason = key, reason


@contextmanager
def keyed(section):
    """Re-raise a ConfigError of the block under ``section``: key ``K``
    becomes ``section.K``, and the empty key becomes ``section``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc.key}" if exc.key else section, exc.reason) from None


def is_finite_number(value):
    """False for the NaN and Infinity that JSON admits, for bools (ints to
    Python) and for anything not a number."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number; an int past float range
        return False


def number(mapping, key, default=None, required=False):
    """``mapping[key]`` as a finite float, ``default`` when it is absent."""
    if key not in mapping:
        if required:
            raise ConfigError(key, "missing required key")
        return default
    if not is_finite_number(mapping[key]):
        raise ConfigError(key, "must be a finite number")
    return float(mapping[key])


def only_keys(mapping, allowed):
    """Refuse the first key of ``mapping``, in sorted order, not in ``allowed``."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(unknown[0], "unknown key")


class DegeneracyClass(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"
    NONDEGENERATE = "nondegenerate"


@dataclass(frozen=True)
class DegenerateCoefficient:
    """Immutable weight function; safe to share between threads."""

    x0: float
    K: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.x0 <= 1.0:
            raise ConfigError("x0", f"must lie in [0, 1], got {self.x0}")
        if not self.K >= 0.0:
            raise ConfigError("K", f"must be >= 0, got {self.K}")
        if not (self.scale > 0.0 and math.isfinite(1.0 / self.scale)):
            raise ConfigError("scale", f"must be > 0 with 1/scale finite, got {self.scale}")

    def __call__(self, x):
        out = self.scale * np.abs(np.asarray(x, dtype=float) - self.x0) ** self.K
        return out if out.ndim else float(out)

    def as_power(self, sign=1):
        """The coefficient (sign=+1) or its reciprocal (sign=-1) as an
        exact piecewise power function."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return PiecewisePower.power_weight(self.x0, sign * self.K, self.scale**sign)

    def boundary_values(self):
        return float(self(0.0)), float(self(1.0))


def power_profile(x0, K, scale=1.0) -> DegenerateCoefficient:
    """a(x) = scale * |x - x0|**K, exact pointwise to machine precision."""
    return DegenerateCoefficient(float(x0), float(K), float(scale))


def constant_profile(value=1.0, x0=0.5) -> DegenerateCoefficient:
    """a(x) = value everywhere, the power law with K = 0; the nondegenerate
    reference case."""
    return power_profile(x0, 0.0, value)


def classify(coeff: DegenerateCoefficient) -> DegeneracyClass:
    """Weak iff 1/a is integrable across the zero of a, strong iff not,
    nondegenerate iff min a > 0.  Exact for the built-in profiles."""
    if coeff.K == 0.0:
        return DegeneracyClass.NONDEGENERATE
    return DegeneracyClass.WEAK if coeff.K < 1.0 else DegeneracyClass.STRONG


def check_power_comparison(coeff: DegenerateCoefficient):
    """ConfigError("K") unless a strong coefficient has K < 2.

    The paper's strong results need |x - x0|**K' / a(x) monotone in |x - x0|
    on each side for some K' in [1, 2).  For a = scale |x - x0|**K the ratio
    is a power of the distance with exponent K' - K, so some K' works iff
    K < 2.
    """
    if classify(coeff) is DegeneracyClass.STRONG and coeff.K >= 2.0:
        raise ConfigError("K", f"must be < 2 for a strong degeneracy, got {coeff.K}")


def singular_moment(coeff, interval, m, sign):
    """Exact ``integral of x**m * a(x)**sign`` over ``interval``.

    Closed-form antiderivatives of distance powers times the binomial
    re-expansion of x**m about x0.  Raises DivergentIntegralError when the
    integral does not converge (reciprocal weight across a strong zero).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("interval must satisfy 0 <= l <= r <= 1")
    if m < 0 or int(m) != m:
        raise ValueError("moment order m must be a nonnegative integer")
    coeffs = [0.0] * int(m) + [1.0]
    monomial = PiecewisePower.from_sides(coeffs, coeffs, coeff.x0)
    return (monomial * coeff.as_power(sign)).integrate(lo, hi)
