"""Exact rational scalars.

gmpy2's mpq is used when available (it is several times faster on the hot
paths); fractions.Fraction is the fallback.  Both expose the arithmetic
surface the engine needs; the engine never touches floating point.
"""

from __future__ import annotations

from math import lcm

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is an optional extra
    from fractions import Fraction as Q

ONE = Q(1)


def qstr(x) -> str:
    """Format a rational canonically as 'p' or 'p/q', no whitespace."""
    return str(Q(x))


def parse_q(s):
    """Parse 'p' or 'p/q'; plain ints pass through."""
    if isinstance(s, int):
        return Q(s)
    txt = str(s).strip()
    if "/" in txt:
        num, den = txt.split("/")
        if not int(den):
            raise ValueError(f"rational {txt!r} has a zero denominator")
        return Q(int(num), int(den))
    return Q(int(txt))


def integer_lift(values):
    """(den, nums): the least common denominator of the rationals and their
    numerators over it, so that values[i] == nums[i] / den."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]
