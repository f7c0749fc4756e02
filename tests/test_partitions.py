"""Partition combinatorics and the partition-valued index objects."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.partitions import (GenPartition, PartitionFunction,
                                 enumerate_partition_functions, partitions_of,
                                 partitions_with_length, strict_partitions_of,
                                 unit_normalization)
from hilbfock.rational import Q

P_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partition_counts():
    for n, want in enumerate(P_COUNTS):
        assert len(list(partitions_of(n))) == want
        assert sum(len(partitions_with_length(n, k)) for k in range(n + 1)) == want


def test_strict_partitions():
    assert sorted(strict_partitions_of(6)) == [(3, 2, 1), (4, 2), (5, 1), (6,)]
    for p in strict_partitions_of(9):
        assert len(set(p)) == len(p)


mults = st.dictionaries(
    st.integers(min_value=-4, max_value=4).filter(lambda i: i != 0),
    st.integers(min_value=0, max_value=3), max_size=5)


@settings(max_examples=200, deadline=None)
@given(mults)
def test_gen_partition_invariants(m):
    lam = GenPartition(m)
    parts = []
    for i, k in m.items():
        parts.extend([i] * k)
    word = lam.word()
    assert len(word) == len(parts)
    assert sum(word) == sum(parts)
    assert lam.moment() == sum(i * i for i in parts)
    fact = 1
    for i in set(parts):
        fact *= factorial(parts.count(i))
    assert lam.sym_factor() == fact
    assert sorted(word) == list(word)
    assert GenPartition.from_parts(word) == lam


def test_gen_partition_rejects_zero_part():
    with pytest.raises(ValueError):
        GenPartition({0: 1})


def test_partition_function_basics(models):
    model = models("c2")
    rho = PartitionFunction({0: (2, 1), 1: (3,)})
    assert rho.total() == 6
    assert rho.length_at(0) == 2
    assert rho.cost(model.unit) == 8
    # degree: unit parts contribute 2r, others 2(r-1)+deg
    assert rho.degree(model) == (4 + 2) + (2 * 2 + 2)
    back = PartitionFunction.from_json(model, rho.to_json(model))
    assert back == rho


def test_partition_function_normalizes_and_validates():
    assert PartitionFunction({0: ()}) == PartitionFunction({})
    with pytest.raises(ValueError):
        PartitionFunction({0: (1, 2)})
    with pytest.raises(ValueError):
        PartitionFunction({0: (0,)})


def test_unit_normalization():
    assert unit_normalization([1, 1, 1]) == Q(1, 6)
    assert unit_normalization([2]) == Q(1, 2)
    assert unit_normalization([2, 1, 1]) == Q(1, 4)
    assert unit_normalization([]) == Q(1)


def test_enumeration_examples(models):
    # the affine-plane quotient at level 2: empty and one class
    got = enumerate_partition_functions(models("c2"), 2)
    assert [r.key() for r in got] == [(), ((0, (1,)),)]
    # a projective toy surface at level 1 has the full cohomology
    got = enumerate_partition_functions(models("toy_b2_1"), 1)
    assert len(got) == 3
    assert got[0] == PartitionFunction({})
    # level 0 only carries the empty function
    assert enumerate_partition_functions(models("k3_like"), 0) == [PartitionFunction({})]


def test_enumeration_strictness_and_order(models):
    cot = models("cotangent_g1")
    rhos = enumerate_partition_functions(cot, 4)
    seen = set()
    last = None
    for rho in rhos:
        key = (rho.cost(cot.unit), rho.key())
        assert last is None or last <= key
        last = key
        assert rho not in seen
        seen.add(rho)
        for c, parts in rho.parts.items():
            assert c not in cot.ideal_pivots
            if cot.parities[c]:
                assert len(set(parts)) == len(parts)
    assert len(rhos) == 76


def test_enumeration_dimensions(models):
    # level-n dimensions of the quotient for the affine plane are partition counts
    c2 = models("c2")
    for n in range(7):
        got = len(enumerate_partition_functions(c2, n))
        want = sum(1 for w in range(n + 1) for p in partitions_of(w)
                   if w + len(p) <= n)
        assert got == want
