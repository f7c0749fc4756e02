"""Sparse exact-rational linear combinations and Gaussian elimination.

Every sparse vector in the engine (Fock vectors, polynomials, classes,
elimination rows) is a dict mapping hashable keys to nonzero rationals, and
row_add_scaled is the one place that adds them; combine adds integer term
dicts with rational scales over one common denominator.  An Echelon keeps
normalized rows keyed by pivot column (the smallest key in the row);
inserting a row reduces it first, so rank and span-membership queries are
incremental.  memoized is the one memo of the engine methods.
"""

from __future__ import annotations

from bisect import insort
from functools import wraps
from math import lcm

from .rational import ONE, Q


def memoized(method):
    """Memoize a method per object on its positional arguments.  The table
    lives in the object's __dict__, so each engine or model owns its memo
    and a fresh object starts empty; a call that raises stores nothing.
    The method never returns None."""
    name = "_memo_" + method.__name__

    @wraps(method)
    def wrapper(self, *args):
        memo = self.__dict__.setdefault(name, {})
        got = memo.get(args)
        if got is None:
            got = memo[args] = method(self, *args)
        return got
    return wrapper


def row_scaled(row, s):
    return {k: v * s for k, v in row.items()}


def row_add_scaled(dst, src, s):
    """dst += s*src in place, dropping cancelled entries; returns dst."""
    if not s:
        return dst
    for k, v in src.items():
        cur = dst.get(k)
        if cur is None:
            dst[k] = v * s
        else:
            cur = cur + v * s
            if cur:
                dst[k] = cur
            else:
                del dst[k]
    return dst


def combine(pieces):
    """(out, lcm): the sum of num / den * terms over triples (terms, num, den)
    of integer term dicts and scales, in ints over the lcm of the dens."""
    common = lcm(*(den for _, _, den in pieces))
    out = {}
    for terms, num, den in pieces:
        row_add_scaled(out, terms, num * (common // den))
    return out, common


class LinearCombination:
    """Immutable sparse combination: `terms` maps keys to nonzero rationals.

    Arithmetic is type-strict: two combinations are equal only when they
    have the same class and the same terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def scaled(self, s):
        return type(self)(row_scaled(self.terms, Q(s)))

    def __add__(self, other):
        return type(self)(row_add_scaled(dict(self.terms), other.terms, ONE))

    def __sub__(self, other):
        return type(self)(row_add_scaled(dict(self.terms), other.terms, -ONE))

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms


class Echelon:
    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """Remainder of row after elimination against the stored rows."""
        row = dict(row)
        pending = sorted(row)
        seen = set(pending)
        i = 0
        while i < len(pending):
            p = pending[i]
            i += 1
            if p not in row:
                continue
            piv = self.rows.get(p)
            if piv is None:
                continue
            c = -row[p]
            for k, v in piv.items():
                cur = row.get(k)
                if cur is None:
                    row[k] = v * c
                    if k not in seen:
                        # pivot is the min of its row, so new keys sort after p
                        seen.add(k)
                        insort(pending, k, lo=i)
                else:
                    cur = cur + v * c
                    if cur:
                        row[k] = cur
                    else:
                        del row[k]
        return row

    def insert(self, row):
        """Insert a row; returns the new pivot key, or None if dependent."""
        rem = self.reduce(row)
        if not rem:
            return None
        p = min(rem)
        self.rows[p] = row_scaled(rem, Q(1) / rem[p])
        return p

    def contains(self, row):
        return not self.reduce(row)

    def rank(self):
        return len(self.rows)

    def back_reduce(self):
        """Full reduced row-echelon form (each pivot column cleared everywhere)."""
        for p in sorted(self.rows, reverse=True):
            prow = self.rows[p]
            for q, qrow in self.rows.items():
                if q < p and p in qrow:
                    row_add_scaled(qrow, prow, -qrow[p])

