"""CSV rows with the bytes of CPython's ``'%.17g' % v``, formatted by numpy.

:func:`rows` returns a block of rows ``i,v_1,...,v_k`` (the row index, then
each value to 17 significant digits) with the bytes of the ``%`` format
``("%d" + ",%.17g" * k + "\\n") * m``.  Each value is formatted in three
steps, all vectorized over the block:

1. **Digits.**  e = floor(log10 |x|), and ``64 |x| 10^(16 - e)`` is one
   x87 ``longdouble`` product with a power of ten that is exact
   (10^0 ... 10^27) or one rounding of a product or quotient of two.  It
   is within 2^-63 relative of the exact value, which is at most 0.011 of
   a unit in the 17th digit, and its integer part, the 17 digits and six
   bits of their fraction, fits in int64.  The digits are rounded by that
   fraction, which settles them when it is not in [31/64, 33/64): the
   exact value is then more than 1/64 from the half, on the same side,
   and the digits are the correctly rounded ones CPython writes.  The
   integer part must also hold 17 digits short of the largest (10^16 to
   10^17 - 2), else e misjudged the decade.
2. **Text.**  Each field is four little-endian words, 32 bytes: ``,``
   and the sign, the zeros of fixed notation below 1 (-4 <= e < 0), the
   digits from a table of 4-digit groups, the point inserted after digit
   e (fixed notation, e < 17) or after the first digit, and the exponent
   ``e+dd``.  Trailing fractional zeros, and a point with nothing after
   it, are NUL.  Tables indexed by e hold each decade's layout.  The row
   index is one more word (two from row 10^8 on).
3. **Fallback.**  Every value the digits step did not settle is written
   by ``'%.17g' % v`` into its field: zeros, infinities, nan, |x| < 1e-38
   or >= 1e43, values near a tie and misjudged decades.  On march's
   trajectory that is 3% of the values, nearly all of them near a tie.

One ``bytes.translate`` deletes the NULs of a block.  The kernel needs
the x87 80-bit ``longdouble`` (:data:`X87`); ``evolution.write_csv``
formats with ``%`` where it is not.
"""
from __future__ import annotations

import numpy as np

__all__ = ["X87", "rows"]


def _x87():
    """Whether ``longdouble`` products carry the 64-bit significand the
    exact powers, the error bound and the fraction bits rest on: in the
    format (nmant leaves out the explicit integer bit) and in the FPU's
    rounding, which a precision set to 53 bits would cut."""
    if np.finfo(np.longdouble).nmant != 63:
        return False
    a = np.array([2.0**31 + 1])
    return int(np.multiply(a, a, dtype=np.longdouble).astype(np.int64)[0]) == (2**31 + 1) ** 2


X87 = _x87()

_U = np.uint64
# the decades of the tables: 64 * 10^(16 - e) is one exact power of ten
# (10^0 ... 10^27 have at most 64 significant bits) or one rounding of a
# product or quotient of two; values settle from 1e-38 up to 1e43, and 43
# is there for a log10 that rounds up to it
_EMIN, _EMAX = -38, 43


def _layouts():
    """Per decade e (column e - _EMIN): the scaled power 64 * 10^(16 - e),
    p, the digit the point follows, and (4, decades) words of the field's
    layout: ``low`` and ``high``, the bytes below and above the point, and
    ``constant``, every byte that is not a digit, once the point is in."""
    e = np.arange(_EMIN, _EMAX + 1)
    exact = np.cumprod([1] + [10] * 27, dtype=np.longdouble)  # 10^0 ... 10^27
    k = 16 - e
    power = np.where(k < 0, 1 / exact[np.clip(-k, 0, 27)],
                     exact[np.clip(k, 0, 27)] * exact[np.clip(k - 27, 0, 27)])
    fixed = (e >= -4) & (e < 17)
    p = np.where(fixed, e, 0)
    q = 8 + p  # the point's byte; before it is inserted, digit j is byte 7 + j
    byte = np.arange(32)[:, None]
    # before the insertion: the zeros of fixed notation below 1 (bytes 3-6)
    # and digits 1..p, which are integer digits and never blanked
    zeros = (fixed & (e < 0) & (byte >= 7 + e) & (byte <= 6)) | ((byte >= 8) & (byte <= 7 + p))
    zeros = np.where(zeros, np.uint8(ord("0")), np.uint8(0))
    constant = np.where(byte < q, zeros, np.roll(zeros, 1, axis=0) * (byte > q))
    constant[0] = ord(",")
    scientific = e[~fixed]  # e+dd after the 17 digits and the point
    constant[25:29, ~fixed] = [np.full_like(scientific, ord("e")),
                               np.where(scientific < 0, ord("-"), ord("+")),
                               ord("0") + np.abs(scientific) // 10,
                               ord("0") + np.abs(scientific) % 10]
    planes = {
        "low": (byte < q) * np.uint8(0xFF),
        "high": (byte > q) * np.uint8(0xFF),
        # column e without the point, column e + decades with it
        "constant": np.hstack([constant, constant | (byte == q) * np.uint8(ord("."))]),
    }
    # (32, columns) bytes -> (4, columns) little-endian words
    words = {name: np.ascontiguousarray(plane.T).view("<u8").T.copy()
             for name, plane in planes.items()}
    words["p"] = p
    words["pow"] = 64 * power
    return words


_LAYOUT = _layouts() if X87 else None
_ZEROS = _U(0x0F0F0F0F0F0F0F0F)
_TENS = _U(0x1010101010101010)
_MINUS, _NEWLINE = _U(ord("-") << 16), _U(ord("\n") << 56)


def _digit_table():
    """The 4 decimal digits of 0..9999 as byte values 0-9, the most
    significant in the lowest byte."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.zeros((10000, 8), np.uint8)
    for j in range(4):
        digits[:, j] = i // 10**(3 - j) % 10
    return digits.view("<u8")[:, 0].astype(_U)


_DIGITS4 = _digit_table()


def _digits8(x):
    """The 8 decimal digits of each x < 10^8 as byte values 0-9, the most
    significant in the lowest byte."""
    upper = x // _U(10000)
    return _DIGITS4.take(upper) | (_DIGITS4.take(x - upper * _U(10000)) << _U(32))


def _kept_below(w):
    """0x10 in each byte of w at or below its highest nonzero byte."""
    w = w | (w >> _U(8))
    w |= w >> _U(16)
    w |= w >> _U(32)
    return (w + _ZEROS) & _TENS


def _kept_above(w):
    """0x10 in each byte of w at or above its lowest nonzero byte."""
    w = w | (w << _U(8))
    w |= w << _U(16)
    w |= w << _U(32)
    return (w + _ZEROS) & _TENS


def _fields(x):
    """(4, n) words of ``,%.17g`` for each of the floats x, and the mask of
    those settled; the words of the others are undefined."""
    a = np.abs(x)
    settled = (a >= 1e-38) & (a < 1e43)  # false on nan
    a[~settled] = 1.0
    # floor(log10 |x|) - _EMIN, truncated as it is (nearly) nonnegative; next
    # to a power of ten it may be one off, which the checks below catch
    e = (np.log10(a) - _EMIN).astype(np.intp)
    scaled = np.multiply(a, _LAYOUT["pow"].take(e), dtype=np.longdouble).astype(np.int64)
    d = scaled >> 6
    fraction = scaled & 63
    settled &= (fraction < 31) | (fraction > 32)
    settled &= (d >= 10**16) & (d < 10**17 - 1)
    d += fraction > 32
    d = d.astype(_U)
    first = d // _U(10**16)
    d -= first * _U(10**16)
    w = np.empty((4, len(x)), _U)
    w[0] = (first + _U(ord("0"))) << _U(56)
    w[1] = d // _U(10**8)
    w[2] = d - w[1] * _U(10**8)
    w[3] = 0
    digits = w[1:3]
    digits[...] = _digits8(digits)
    # digits 1-8 are all kept while one of digits 9-16 is not zero
    kept = digits.copy()
    kept[0] |= (digits[1] != 0).astype(_U) << _U(56)
    kept = _kept_below(kept)
    point = np.bitwise_count(kept).sum(axis=0, dtype=np.intp) > _LAYOUT["p"].take(e)
    digits |= kept * _U(3)  # 0x10 * 3 = "0"
    # insert the point at its byte: the bytes above it move up by one
    shifted = w << _U(8)
    shifted[1:] |= w[:-1] >> _U(56)
    out = _LAYOUT["low"].take(e, axis=1)
    out &= w
    shifted &= _LAYOUT["high"].take(e, axis=1)
    out |= shifted
    np.add(e, _EMAX - _EMIN + 1, out=e, where=point)
    out |= _LAYOUT["constant"].take(e, axis=1)
    out[0] |= (x < 0).astype(_U) * _MINUS
    return out, settled


def _index(start, m):
    """The words that start the rows start..start+m-1: the index ``%d``,
    its leading zeros NUL, in one word below 10^8 and two from there."""
    i = np.arange(start, start + m, dtype=_U)
    if start + m <= 10**8:
        w = _digits8(i)
        return (w | _kept_above(w) * _U(3) | _U(ord("0") << 56))[:, None]
    upper = i // _U(10**8)
    hi, lo = _digits8(upper), _digits8(i - upper * _U(10**8))
    kept_hi = _kept_above(hi)
    kept_lo = _kept_above(lo | (upper != 0).astype(_U))
    return np.stack([hi | kept_hi * _U(3), lo | kept_lo * _U(3) | _U(ord("0") << 56)], axis=1)


def rows(values, start=0):
    """The text ``("%d" + ",%.17g" * k + "\\n") % (i, *row)`` of the rows
    i = start, start + 1, ... of ``values``, a (k, m) float64 array of k
    columns."""
    k, m = values.shape
    flat = values.reshape(-1)
    words, settled = _fields(flat)
    rest = np.flatnonzero(~settled)
    if len(rest):
        # 32 bytes each: the comma, the text padded by spaces (deleted with
        # the NULs) and a NUL, the byte a last column's newline goes in
        text = (",%-30.17g\0" * len(rest)) % tuple(flat[rest].tolist())
        words[:, rest] = np.frombuffer(text.encode("ascii"), _U).reshape(-1, 4).T
    index = _index(start, m)
    w = index.shape[1]
    out = np.empty((m, w + 4 * k), _U)
    out[:, :w] = index
    out[:, w:].reshape(m, k, 4)[...] = words.reshape(4, k, m).transpose(2, 1, 0)
    out[:, -1] |= _NEWLINE
    return out.tobytes().translate(None, b"\0 ").decode("ascii")
