"""Exact rational scalars.

gmpy2's mpq is used when available (it is several times faster on the hot
paths); fractions.Fraction is the fallback.  Both expose the arithmetic
surface the engine needs; the engine never touches floating point.
"""

from __future__ import annotations

import json
import sys
from math import lcm

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is an optional extra
    from fractions import Fraction as Q

ONE = Q(1)


def qstr(x) -> str:
    """Format a rational canonically as 'p' or 'p/q', no whitespace."""
    return str(Q(x))


def parse_int(text, what):
    """int(text), but a text of more digits than Python converts is refused
    by its digit count, in a message that names what."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and sum(map(str.isdigit, text)) > limit:
        raise ValueError(f"{what} has a number of more than {limit} digits")
    return int(text)


def parse_q(s, what="rational"):
    """Parse 'p' or 'p/q', named what in errors; plain ints pass through."""
    if isinstance(s, int):
        return Q(s)
    txt = str(s).strip()
    num, *den = txt.split("/")
    if len(den) > 1:
        raise ValueError(f"{what} {txt!r} is neither p nor p/q")
    d = parse_int(den[0], what) if den else 1
    if not d:
        raise ValueError(f"rational {txt!r} has a zero denominator")
    return Q(parse_int(num, what), d)


def load_json(text, what):
    """json.loads, but integer literals of more digits than Python converts
    and nesting past its recursion limit are refused naming what."""
    try:
        return json.loads(text, parse_int=lambda t: parse_int(t, what))
    except RecursionError:
        raise ValueError(f"{what} holds JSON nested too deeply") from None


def integer_lift(values):
    """(den, nums): the least common denominator of the rationals and their
    numerators over it, so that values[i] == nums[i] / den."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]
