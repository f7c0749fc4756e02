"""Partitions, generalized partitions, and partition-valued functions.

A generalized partition has parts drawn from the nonzero integers, stored as
a finitely supported multiplicity map.  Partition-valued functions assign an
ordinary partition to each surface basis class and index the Nakajima-style
linear bases.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, prod

from .rational import ONE, Q


def partitions_of(n, max_part=None):
    """Yield the partitions of n as descending tuples of positive parts."""
    if n < 0:
        return
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@cache
def partitions_with_length(n, k):
    """All partitions of n with exactly k parts, as descending tuples."""
    return tuple(p for p in partitions_of(n) if len(p) == k)


def strict_partitions_of(n):
    """Yield the partitions of n with pairwise distinct parts."""
    return (p for p in partitions_of(n) if len(set(p)) == len(p))


class GenPartition:
    """Generalized partition: multiplicity map over nonzero integer parts."""

    __slots__ = ("mult", "_key")

    def __init__(self, mult):
        self.mult = {i: m for i, m in mult.items() if m}
        for i, m in self.mult.items():
            if i == 0 or m < 0:
                raise ValueError("parts are nonzero integers with multiplicity >= 0")
        self._key = tuple(sorted(self.mult.items()))

    @classmethod
    def from_parts(cls, parts):
        return cls(Counter(parts))

    def moment(self):
        """s(.) = sum of i^2 over parts."""
        return sum(i * i * m for i, m in self.mult.items())

    def sym_factor(self):
        """The product of the factorials of the multiplicities."""
        return prod(map(factorial, self.mult.values()))

    def word(self):
        """Operator indices in the fixed order: ascending part value, so
        creation indices (negative) come before annihilation indices."""
        return tuple(i for i in sorted(self.mult) for _ in range(self.mult[i]))

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GenPartition({dict(self._key)!r})"


class PartitionFunction:
    """A partition-valued function on surface basis classes.

    parts maps a basis index to a descending tuple of positive parts; empty
    partitions are not stored.  Instances are immutable and hashable.
    """

    __slots__ = ("parts", "_key", "_hash")

    def __init__(self, parts):
        norm = {}
        for c, p in parts.items():
            p = tuple(p)
            if not p:
                continue
            if any(x <= 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
                raise ValueError("each value must be a descending tuple of positive parts")
            norm[c] = p
        self.parts = norm
        self._key = tuple(sorted(norm.items()))
        self._hash = hash(self._key)

    EMPTY: "PartitionFunction"

    def total(self):
        """The sum of all part sizes over all classes."""
        return sum(sum(p) for p in self.parts.values())

    def length_at(self, c):
        return len(self.parts.get(c, ()))

    def cost(self, unit):
        """total + number of parts on the unit class; the least level where
        the associated basis class is nonzero."""
        return self.total() + self.length_at(unit)

    def degree(self, model):
        """Cohomological degree of the associated basis class (level-free)."""
        deg = 0
        for c, p in self.parts.items():
            if c == model.unit:
                deg += sum(2 * r for r in p)
            else:
                deg += sum(2 * (r - 1) + model.degrees[c] for r in p)
        return deg

    def key(self):
        return self._key

    def to_json(self, model):
        return {model.basis[c].name: list(p) for c, p in self._key}

    @classmethod
    def from_json(cls, model, obj):
        if not isinstance(obj, dict):
            raise ValueError("a partition function is a JSON object {class: [parts..]}")
        parts = {}
        for name, p in obj.items():
            if not isinstance(p, list) or any(type(r) is not int for r in p):
                raise ValueError(f"the parts of {name!r} must be a list of integers")
            parts[model.index_of(name)] = tuple(sorted(p, reverse=True))
        return cls(parts)

    def __eq__(self, other):
        return isinstance(other, PartitionFunction) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PartitionFunction({dict(self._key)!r})"


PartitionFunction.EMPTY = PartitionFunction({})


def unit_normalization(unit_parts):
    """1 / prod(r^m_r * m_r!) over the multiplicities of a unit-class part list."""
    return Q(ONE, prod(r**m * factorial(m) for r, m in Counter(unit_parts).items()))


def enumerate_partition_functions(model, n, working=None):
    """All rho over the working classes with cost(rho) <= n, deterministically
    ordered by (cost, canonical key).  Odd classes get strict partitions."""
    if working is None:
        working = model.working_classes()
    out = []

    def rec(i, budget, acc):
        if i == len(working):
            out.append(PartitionFunction(dict(acc)))
            return
        c = working[i]
        gen = strict_partitions_of if model.parities[c] else partitions_of
        for w in range(0, budget + 1):
            for p in gen(w):
                cost = w + len(p) * (c == model.unit)  # a part r on the unit costs r + 1
                if cost > budget:
                    continue
                if p:
                    acc[c] = p
                rec(i + 1, budget - cost, acc)
                acc.pop(c, None)

    rec(0, n, {})
    out.sort(key=lambda r: (r.cost(model.unit), r.key()))
    return out
