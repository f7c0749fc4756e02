"""The plan kernel and the index-coordinate ring against a Fraction reference.

The reference below is the lambda-sum as it was computed before the plan
kernel: one Fraction word application per generalized partition, with the
weights of TermFamily.weight_of.  Its word application runs the slot tuples
of diagonal_pushforward through the raw operators and multiplies by
ann_scale at each annihilation, so it shares neither FockSpace.word_plan nor
the integer Kuenneth tensors with the kernel.
"""

from math import factorial

import pytest

from conftest import reduce
from hilbfock.errors import UnknownCoefficientsError
from hilbfock.fock import FockSpace, FockVector, lift
from hilbfock.linalg import row_add_scaled
from hilbfock.models import BUILTIN
from hilbfock.partitions import (GenPartition, PartitionFunction,
                                 partitions_with_length, unit_normalization)
from hilbfock.rational import ONE, Q
from hilbfock.ring import RingEngine
from hilbfock.vertex import apply_operator, chern_operator, operator_int

SIDES = [None, Q(2), Q(-7, 2)]


def word_reference(fock, word, cls, v, drop=frozenset()):
    """a_word(tau_{k*} cls) on v in Fractions; with drop, the slot tuples that
    create a label of drop left of the first annihilation are skipped."""
    lead = next((j for j, i in enumerate(word) if i > 0), len(word)) if drop else 0
    out = {}
    for w, slots in fock.model.diagonal_pushforward(cls, len(word)):
        if not drop.isdisjoint(slots[:lead]):
            continue
        cur = dict(v.terms)
        for i, c in zip(reversed(word), reversed(slots)):
            if i < 0:
                cur = fock.create_raw(-i, c, cur)
            else:
                cur = fock.annihilate_raw(i, c, cur)
                cur = {m: x * fock.ann_scale for m, x in cur.items()}
        row_add_scaled(out, cur, w)
    return FockVector(out)


def _groups(v):
    """v's terms by the part multiset of their monomials."""
    groups = {}
    for mono, w in v.terms.items():
        mult = {}
        for n, _ in mono:
            mult[n] = mult.get(n, 0) + 1
        groups.setdefault(tuple(sorted(mult.items())), {})[mono] = w
    return groups


def operator_reference(fock, op, v, drop=frozenset()):
    """(known, markers) of apply_operator, one word per generalized partition."""
    out = {}
    markers = []
    for parts, terms in _groups(v).items():
        group = FockVector(terms)
        subsets = [()]
        for part, cnt in parts:
            subsets = [base + (part,) * t for base in subsets for t in range(cnt + 1)]
        for fam in op.families:
            for pos in (tuple(sorted(s, reverse=True)) for s in subsets if s):
                if fam.ell - len(pos) < 1:
                    continue
                for neg in partitions_with_length(sum(pos), fam.ell - len(pos)):
                    lam = GenPartition.from_parts([-r for r in neg] + list(pos))
                    weight = fam.weight_of(lam)
                    word = tuple(sorted([-r for r in neg] + list(pos)))
                    if weight is None:
                        val = word_reference(fock, word, fam.cls, group)
                        if not val.is_zero():
                            markers.append(val)
                    elif weight:
                        val = word_reference(fock, word, fam.cls, group, drop)
                        row_add_scaled(out, val.terms, weight)
    return FockVector(out), markers


def operator_filtered(fock, op, v, drop):
    """(known, markers) of the kernel operator_int with the label filter
    drop, run on each part multiset of v and read back in Fractions."""
    out = {}
    markers = []
    for terms in _groups(v).values():
        terms, _, den_v = lift(FockVector(terms))
        known, den, marks = operator_int(fock, op, terms, drop)
        row_add_scaled(out, known, Q(1, den * den_v))
        markers += [FockVector({mono: Q(c * num, d * den_v) for mono, c in mv.items()})
                    for mv, num, d in marks]
    return FockVector(out), markers


def generator_reference(eng, factor, v):
    """The generator on v: the reference lambda-sum with the engine's label
    filter, every marker checked under reduction, then reduced."""
    fock = eng.fock
    known, markers = operator_reference(fock, eng.operator(*factor), v,
                                        eng.model.ideal_pivots)
    assert all(fock.in_ideal(mv.terms) for mv in markers)
    return reduce(fock, known) if eng.quotient else known


def _mixed(vectors):
    """One vector with every monomial of the given vectors, distinct weights."""
    return FockVector({mono: Q(i, 7) for i, v in enumerate(vectors, 1)
                       for mono in v.terms})


@pytest.mark.parametrize("s", SIDES, ids=["hilbert", "s=2", "s=-7/2"])
@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_apply_operator_matches_fraction_reference(models, name, s):
    """apply_operator equals the reference on every monomial of levels 1..3
    and on their sum, for every degree-shift operator, markers included;
    with the label filter, so does operator_int per part multiset."""
    model = models(name)
    fock = FockSpace(model, s)
    drops = {frozenset(), model.ideal_pivots}
    checked = marked = 0
    for n in range(1, 4):
        monos = [FockVector({m: ONE}) for m in fock.enumerate_monomials(n)]
        for k in range(n):
            for c in range(model.dim):
                op = chern_operator(fock, k, model.basis_class(c))
                for v in [_mixed(monos)] + monos:
                    for drop in drops:
                        got = (operator_filtered(fock, op, v, drop) if drop
                               else apply_operator(fock, op, v))
                        assert got == operator_reference(fock, op, v, drop), (n, k, c, v)
                        checked += 1
                        marked += bool(got[1])
    assert checked
    if s is None and not model.canonical.is_zero():
        assert marked


@pytest.mark.parametrize("s", SIDES, ids=["hilbert", "s=2", "s=-7/2"])
@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_apply_generator_matches_fraction_reference(models, name, s):
    """The engine's generator rows, summed over a vector, equal the reference
    generator on each basis class of levels 1..3 and on their sum."""
    model = models(name)
    eng = RingEngine(model, s)
    checked = 0
    for n in range(1, 4):
        basis = [eng.fock.b_class(rho, n) for rho in eng.basis(n)]
        for k in range(n):
            for c in model.working_classes():
                try:
                    eng.operator(k, c)
                except UnknownCoefficientsError:
                    continue
                for v in [_mixed(basis)] + basis:
                    got = eng.generator_on((k, c), eng.index_vector(v, n), n)
                    assert eng.fock_vector(got, n) == \
                        generator_reference(eng, (k, c), v), (n, k, c)
                    checked += 1
    assert checked


def expand_reference(model, v, n):
    """The coordinates of a reduced level-n vector in the basis {b_rho(n)},
    read off each monomial without the engine's basis index: a unit part r
    is the entry (r + 1, unit), and b_rho(n) carries unit_normalization."""
    unit = model.unit
    coords = {}
    for mono, w in v.terms.items():
        assert sum(nj for nj, _ in mono) == n
        assert not any(cj in model.ideal_pivots for _, cj in mono)
        parts = {}
        for nj, cj in mono:
            if cj != unit or nj >= 2:
                parts.setdefault(cj, []).append(nj - (cj == unit))
        rho = PartitionFunction({c: sorted(p, reverse=True) for c, p in parts.items()})
        unit_parts = [nj for nj, cj in mono if cj == unit]
        row_add_scaled(coords, {rho: w}, ONE / unit_normalization(unit_parts))
    return coords


def _product_reference(eng, n):
    """b_product at level n from the reference generator alone: the
    triangular elimination and the products, expanded by expand_reference."""
    fock = eng.fock
    model = eng.model
    unit = model.unit
    exprs = {}

    def apply_word(word, v):
        for f in reversed(word):
            v = generator_reference(eng, f, v)
        return v

    def express(rho):
        if rho not in exprs:
            word = eng.generator_word(rho)
            coords = expand_reference(model, apply_word(word, fock.unit(n)), n)
            lead = coords.pop(rho)
            assert all(nu.cost(unit) < rho.cost(unit) for nu in coords)
            expr = {word: ONE / lead}
            for nu, c in coords.items():
                row_add_scaled(expr, express(nu), -c / lead)
            exprs[rho] = expr
        return exprs[rho]

    def product(rho, sigma):
        out = {}
        for word, w in express(rho).items():
            row_add_scaled(out, apply_word(word, fock.b_class(sigma, n)).terms, w)
        return expand_reference(model, FockVector(out), n)

    return product


@pytest.mark.parametrize("name,s", [("odd_toy", None), ("cotangent_g1", None),
                                    ("c2", None), ("ale_2", Q(2, 3))])
def test_index_products_match_rational_path(models, name, s):
    """b_product in index coordinates equals the expansion of the product
    built from the reference generator, for every pair at levels 1..3."""
    eng = RingEngine(models(name), s)
    for n in range(1, 4):
        product = _product_reference(eng, n)
        basis = eng.basis(n)
        for rho in basis:
            for sigma in basis:
                assert eng.b_product(rho, sigma, n) == product(rho, sigma), \
                    (n, rho, sigma)


def test_reference_normalisations(models):
    """The reference reproduces the unit and the degree-0 generator on it:
    G_0(1) on 1_{-n} is n times the unit, at s = None."""
    model = models("toy_b2_1")
    fock = FockSpace(model)
    op = chern_operator(fock, 0, model.basis_class(model.unit))
    for n in range(1, 4):
        known, markers = operator_reference(fock, op, fock.unit(n))
        assert not markers
        mono = ((1, model.unit),) * n
        assert known == FockVector({mono: Q(n, factorial(n))})
        assert expand_reference(model, known, n) == {PartitionFunction.EMPTY: Q(n)}
