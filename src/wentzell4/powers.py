"""Exact algebra for piecewise power sums around one breakpoint.

Functions of the form ``sum_q c_q * d**p_q``, where ``d`` is the distance
to a fixed point ``x0`` and the terms may differ on the two sides of
``x0``, are closed under products, differentiation and antidifferentiation.
All integrals, one-sided limits and boundary values used by the
verification battery therefore come out in closed form; residuals of the
integration-by-parts identities are limited by floating-point rounding
only, never by quadrature error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergentIntegralError",
    "PiecewisePower",
    "polyder",
    "polyint",
    "polymul",
    "polyroots",
    "polysub",
    "polytrim",
    "polyval",
]

# exponents are combined with a tolerance: they arise as j + s*K for small
# integers j, s, so distinct values are well separated
_EXP_TOL = 1e-9


class DivergentIntegralError(ArithmeticError):
    """A requested weighted integral does not converge."""


def _merge(terms):
    out: list[list[float]] = []
    for p, c in sorted(terms):
        if c == 0.0:
            continue
        if out and abs(out[-1][0] - p) < _EXP_TOL:
            out[-1][1] += c
        else:
            out.append([float(p), float(c)])
    return tuple((p, c) for p, c in out if c != 0.0)


def _trim(coeffs):
    # numpy's trimseq: drop trailing zeros, keep at least one coefficient
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def _poly_in_distance(coeffs, x0, side):
    """Re-expand a polynomial in x as a polynomial in the distance to x0.

    Horner's scheme in plain floats with the arithmetic of numpy's
    ``Polynomial(coeffs)(Polynomial([x0, sign]))``, so the coefficients
    come out bit for bit: every coefficient of a product by the linear
    factor is a dot product summed from +0.0, and trailing zeros are
    trimmed after each product and each sum.
    """
    x0, sign = float(x0), -1.0 if side == "left" else 1.0
    c = np.array(coeffs, dtype=float, ndmin=1)
    if c.ndim != 1 or not c.size:
        raise ValueError("polynomial coefficients must be a non-empty 1-d sequence")
    c = c.tolist()
    out = [c[-1] + 0.0]
    for a in reversed(c[:-1]):
        out = _trim(
            [0.0 + out[0] * x0]
            + [0.0 + (hi * x0 + lo * sign) for lo, hi in zip(out, out[1:])]
            + [0.0 + out[-1] * sign]
        )
        out[0] += a
        _trim(out)
    return tuple((float(j), c) for j, c in enumerate(out))


# ---- coefficient arrays ------------------------------------------------
# The functions of numpy.polynomial.polynomial the package calls, for 1-d
# float arrays of ascending coefficients, in numpy 2.4's order of
# operations, so that every result has numpy's bits; importing
# numpy.polynomial would cost each start about 0.9 MB for them.


def _series(c, trim=True):
    """numpy's ``as_series`` of one array: a 1-d float copy of ``c``, its
    trailing zeros trimmed by ``trimseq`` (at least one coefficient kept)."""
    c = np.array(c, dtype=float, ndmin=1)
    if c.ndim != 1 or not c.size:
        raise ValueError("polynomial coefficients must be a non-empty 1-d sequence")
    if not trim:
        return c
    nonzero = np.flatnonzero(c != 0.0)
    return c[: nonzero[-1] + 1 if nonzero.size else 1]


def polyval(x, c):
    """The polynomial of coefficients ``c`` at x (a float or an array) by
    Horner's scheme from ``c[-1] + x*0``."""
    c = _series(c, trim=False)
    value = c[-1] + x * 0
    for a in c[-2::-1]:
        value = a + value * x
    return value


def polyder(c, m=1):
    """Coefficients of the m-th derivative; ``c[:1] * 0`` from order
    ``len(c)`` on."""
    c = _series(c, trim=False)
    if m >= len(c):
        return c[:1] * 0
    for _ in range(m):
        c = c[1:] * np.arange(1, len(c))
    return c


def polyint(c):
    """Coefficients of the antiderivative that vanishes at 0."""
    c = _series(c, trim=False)
    if len(c) == 1 and c[0] == 0:
        return c + 0
    out = np.empty(len(c) + 1)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / np.arange(2, len(c) + 1)
    out[0] += 0 - polyval(0, out)
    return out


def polymul(c1, c2):
    """Coefficients of the product, trimmed."""
    return _series(np.convolve(_series(c1), _series(c2)))


def polysub(c1, c2):
    """Coefficients of the difference, trimmed."""
    c1, c2 = _series(c1), _series(c2)
    if len(c1) > len(c2):
        c1[: len(c2)] -= c2
        return _series(c1)
    c2 = -c2
    c2[: len(c1)] += c1
    return _series(c2)


def polytrim(c):
    """``c`` without its trailing coefficients of magnitude not above 0
    (zeros and nans); ``c[:1] * 0`` when none is left."""
    c = _series(c)
    kept = np.flatnonzero(np.abs(c) > 0)
    return c[: kept[-1] + 1].copy() if kept.size else c[:1] * 0


def polyroots(c):
    """Roots of the polynomial, the sorted eigenvalues of its companion
    matrix (complex where one is not real)."""
    c = _series(c)
    if len(c) < 2:
        return np.array([])
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1
    companion[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(companion)
    roots.sort()
    return roots


def _side_value(terms, d, power=pow):
    # a running sum from int 0, the arithmetic of sum() over floats up to
    # Python 3.11 (3.12 compensates a float sum): the same for a float d
    # and, with power=_pow_each, for an array of them
    total = 0
    for p, c in terms:
        total = total + c * power(d, p)
    return total


def _pow_each(d, p):
    """d**p for each entry of the float array d by the C library's pow, as
    Python's float power takes it; numpy's vectorized power rounds
    differently on some CPUs.  d**1 is d itself: a pow that errs by less
    than an ulp cannot return anything else."""
    if p == 1.0:
        return d
    return (d.astype(object) ** p).astype(float)


def _side_integral(terms, lo, hi):
    """Integrate sum c*d**p over d in [lo, hi], 0 <= lo <= hi."""
    if hi <= lo:
        return 0.0
    total = 0.0
    for p, c in terms:
        q = p + 1.0
        if abs(q) < _EXP_TOL:
            if lo <= 0.0:
                raise DivergentIntegralError(
                    f"integral of d**{p} diverges logarithmically at the breakpoint"
                )
            total += c * math.log(hi / lo)
        elif q < 0.0 and lo <= 0.0:
            raise DivergentIntegralError(
                f"integral of d**{p} diverges at the breakpoint"
            )
        else:
            lo_pow = 0.0 if lo == 0.0 else lo**q
            total += c * (hi**q - lo_pow) / q
    return total


@dataclass(frozen=True)
class PiecewisePower:
    """Two-sided sum of real powers of the distance to ``x0``.

    ``left`` holds (exponent, coefficient) pairs in s = x0 - x, valid on
    [0, x0]; ``right`` holds pairs in t = x - x0, valid on [x0, 1].  A side
    may be empty when x0 sits on the corresponding end of the interval.
    """

    x0: float
    left: tuple[tuple[float, float], ...]
    right: tuple[tuple[float, float], ...]

    # ---- constructors -------------------------------------------------
    @classmethod
    def from_sides(cls, left_coeffs, right_coeffs, x0):
        """Separate polynomials in x on each side of x0."""
        return cls(
            float(x0),
            _poly_in_distance(left_coeffs, x0, "left") if x0 > 0.0 else (),
            _poly_in_distance(right_coeffs, x0, "right") if x0 < 1.0 else (),
        )

    @classmethod
    def power_weight(cls, x0, exponent, amplitude=1.0):
        """amplitude * d**exponent on both sides (the weight prototype)."""
        term = ((float(exponent), float(amplitude)),)
        return cls(
            float(x0),
            term if x0 > 0.0 else (),
            term if x0 < 1.0 else (),
        )

    # ---- algebra ------------------------------------------------------
    def _check_compatible(self, other):
        if abs(self.x0 - other.x0) > 1e-14:
            raise ValueError("operands have different breakpoints")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            constant = [float(other)]
            other = PiecewisePower.from_sides(constant, constant, self.x0)
        self._check_compatible(other)
        return PiecewisePower(
            self.x0, _merge(self.left + other.left), _merge(self.right + other.right)
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return PiecewisePower(
                self.x0,
                _merge((p, c * a) for p, a in self.left),
                _merge((p, c * a) for p, a in self.right),
            )
        self._check_compatible(other)

        def conv(a, b):
            return _merge((pa + pb, ca * cb) for pa, ca in a for pb, cb in b)

        return PiecewisePower(
            self.x0, conv(self.left, other.left), conv(self.right, other.right)
        )

    __rmul__ = __mul__

    def derivative(self, order=1):
        f = self
        for _ in range(order):
            # on the left side d/dx = -d/ds
            f = PiecewisePower(
                f.x0,
                _merge((p - 1.0, -c * p) for p, c in f.left if p != 0.0),
                _merge((p - 1.0, c * p) for p, c in f.right if p != 0.0),
            )
        return f

    # ---- evaluation ---------------------------------------------------
    def __call__(self, x):
        x = float(x)
        if x < self.x0:
            return _side_value(self.left, self.x0 - x)
        if x > self.x0:
            return _side_value(self.right, x - self.x0)
        if not self.left:
            return self.limit("right")
        if not self.right:
            return self.limit("left")
        lv, rv = self.limit("left"), self.limit("right")
        if not math.isclose(lv, rv, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("two-sided values disagree at the breakpoint")
        return 0.5 * (lv + rv)

    def side_values(self, side, d):
        """One side's sum at each positive distance of the array ``d``,
        bit for bit what ``__call__`` gives point by point."""
        terms = self.left if side == "left" else self.right
        d = np.asarray(d, dtype=float)
        return _side_value(terms, d, _pow_each) if terms else np.zeros_like(d)

    def limit(self, side):
        """One-sided limit at the breakpoint; raises if unbounded."""
        terms = self.left if side == "left" else self.right
        value = 0.0
        for p, c in terms:
            if p < -_EXP_TOL:
                raise ValueError(f"{side} limit at the breakpoint is unbounded")
            if abs(p) < _EXP_TOL:
                value += c
        return value

    def jump(self):
        """Right limit minus left limit at the breakpoint."""
        return self.limit("right") - self.limit("left")

    def min_exponent(self, side):
        terms = self.left if side == "left" else self.right
        return min((p for p, _ in terms), default=math.inf)

    # ---- integrals ----------------------------------------------------
    def integrate(self, lo=0.0, hi=1.0):
        if not lo <= hi:
            raise ValueError("empty interval")
        total = 0.0
        cut_hi = min(hi, self.x0)
        if lo < cut_hi:
            total += _side_integral(self.left, self.x0 - cut_hi, self.x0 - lo)
        cut_lo = max(lo, self.x0)
        if cut_lo < hi:
            total += _side_integral(self.right, cut_lo - self.x0, hi - self.x0)
        return total

    def l2_norm_sq(self, lo=0.0, hi=1.0):
        return (self * self).integrate(lo, hi)
