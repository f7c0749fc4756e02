"""Normal ordering, basis classes, reduction, and the bracket relation."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduce
from hilbfock.errors import EngineError, ModelError, WeightError
from hilbfock.fock import FockSpace, FockVector, heisenberg_witnesses, mono_weight
from hilbfock.models import builtin_model
from hilbfock.partitions import (GenPartition, PartitionFunction,
                                 enumerate_partition_functions)
from hilbfock.rational import Q, parse_q
from hilbfock.surface import GradedClass


def test_single_contraction(models):
    model = models("toy_b2_1")
    f = FockSpace(model)
    one, h, x = (model.basis_class(i) for i in range(3))
    v = f.apply_heisenberg(-1, h, f.vacuum())
    # [a_1(h), a_{-1}(h)] = -int(h.h) = -1 on the vacuum
    assert f.apply_heisenberg(1, h, v) == f.vacuum().scaled(-1)
    # mismatched indices annihilate through
    assert f.apply_heisenberg(2, h, v).is_zero()
    # a_1(x) on the level-2 unit eats one pool factor
    got = f.apply_heisenberg(1, x, f.unit(2))
    assert got == f.apply_heisenberg(-1, one, f.vacuum()).scaled(-1)


def test_index_zero_rejected(models):
    f = FockSpace(models("toy_b2_1"))
    with pytest.raises(EngineError):
        f.apply_heisenberg(0, models("toy_b2_1").basis_class(0), f.vacuum())


def test_odd_square_vanishes(models):
    model = models("odd_toy")
    f = FockSpace(model)
    u = model.basis_class(1)
    v = f.apply_heisenberg(-1, u, f.apply_heisenberg(-1, u, f.vacuum()))
    assert v.is_zero()


def test_koszul_sign_on_reorder(models):
    model = models("odd_toy")
    f = FockSpace(model)
    u, v = model.basis_class(1), model.basis_class(2)
    a = f.apply_heisenberg(-1, u, f.apply_heisenberg(-1, v, f.vacuum()))
    b = f.apply_heisenberg(-1, v, f.apply_heisenberg(-1, u, f.vacuum()))
    assert a == b.scaled(-1)
    # even labels with the same index commute on the nose
    h = model.basis_class(0)
    c = f.apply_heisenberg(-2, h, f.apply_heisenberg(-1, u, f.vacuum()))
    d = f.apply_heisenberg(-1, u, f.apply_heisenberg(-2, h, f.vacuum()))
    assert c == d


def test_number_operator_example(models):
    """The two-slot weight-zero word with the unit acts as minus the number
    operator on weight-one states."""
    model = models("toy_b2_1")
    f = FockSpace(model)
    lam = GenPartition({-1: 1, 1: 1})
    target = f.apply_heisenberg(-1, model.basis_class(1), f.vacuum())
    got = f.apply_word_tau(lam.word(), model.basis_class(0), target)
    assert got == target.scaled(-1)


def test_gen_partition_single_part(models):
    model = models("toy_b2_1")
    f = FockSpace(model)
    lam = GenPartition({-2: 1})
    got = f.apply_word_tau(lam.word(), model.basis_class(0), f.vacuum())
    assert got == f.apply_heisenberg(-2, model.basis_class(0), f.vacuum())


def test_b_class_examples(models):
    c2 = models("c2")
    f = FockSpace(c2)
    # the empty function gives the normalized pool monomial
    assert f.b_class(PartitionFunction({}), 3) == f.unit(3)
    # one unit part shifts up by one
    rho = PartitionFunction({c2.unit: (1,)})
    got = f.b_class(rho, 2)
    assert got == FockVector({((2, c2.unit),): Q(1, 2)})
    # a non-unit part is not shifted
    toy = models("toy_b2_1")
    ft = FockSpace(toy)
    rho_h = PartitionFunction({1: (2,)})
    got = ft.b_class(rho_h, 5)
    want = ft.apply_heisenberg(-2, toy.basis_class(1), ft.unit(3))
    assert got == want
    # below the threshold the class is zero
    assert ft.b_class(rho_h, 1).is_zero()


def test_expand_roundtrip(models, engines):
    """Basis property at every level n <= 5: the classes are pairwise distinct
    monomial multiples (cardinality = admissible functions) and expansion
    inverts construction exactly."""
    from hilbfock.models import BUILTIN
    for name in BUILTIN:
        eng = engines(name)
        f = eng.fock
        for n in range(6):
            basis = enumerate_partition_functions(models(name), n)
            monos = set()
            for rho in basis:
                vec = f.b_class(rho, n)
                (mono,) = vec.terms
                monos.add(mono)
                coords = eng.coordinates(eng.index_vector(vec, n), n)
                assert coords == {rho: Q(1)}, (name, n, rho)
            assert len(monos) == len(basis)


def test_expand_examples(engines):
    toy = engines("toy_b2_1")
    f, model = toy.fock, toy.model
    v = f.apply_heisenberg(-1, model.basis_class(1),
                           f.apply_heisenberg(-1, model.basis_class(0), f.vacuum()))
    coords = toy.coordinates(toy.index_vector(v, 2), 2)
    assert coords == {PartitionFunction({1: (1,)}): Q(1)}
    c2 = engines("c2")
    fc, model = c2.fock, c2.model
    v = fc.apply_heisenberg(-2, model.basis_class(0), fc.vacuum())
    assert c2.coordinates(c2.index_vector(v, 2), 2) == {PartitionFunction({0: (1,)}): Q(2)}
    with pytest.raises(WeightError):
        c2.index_vector(v, 3)
    # a monomial with a label of the restriction ideal has no basis index
    h = fc.apply_heisenberg(-2, model.basis_class(model.index_of("h")), fc.vacuum())
    with pytest.raises(EngineError, match="not reduced"):
        c2.index_vector(h, 2)


def test_reduce_examples(models):
    cot = models("cotangent_g1")
    f = FockSpace(cot)
    s = cot.index_of("s")
    fidx = cot.index_of("f")
    one = cot.basis_class(cot.unit)
    g = cot.basis_class(s)
    # kernel monomial dies
    dead = f.apply_heisenberg(-1, g, f.vacuum())
    assert reduce(f, dead).is_zero()
    # the pool is untouched
    assert reduce(f, f.unit(4)) == f.unit(4)
    # multilinear label expansion then drop
    mixed = f.apply_heisenberg(-1, one + g,
                               f.apply_heisenberg(-2, cot.basis_class(fidx), f.vacuum()))
    kept = f.apply_heisenberg(-1, one,
                              f.apply_heisenberg(-2, cot.basis_class(fidx), f.vacuum()))
    assert reduce(f, mixed) == kept
    with pytest.raises(ModelError):
        reduce(FockSpace(models("p2")), f.unit(1))


def test_annihilate_point(models, engines):
    for name in ("c2", "cotangent_g1"):
        eng = engines(name)
        f = eng.fock
        for n in range(0, 4):
            for rho in eng.basis(n):
                assert f.annihilate_point(f.b_class(rho, n + 1)) == f.b_class(rho, n)
    # a lone higher creation operator commutes with the point annihilator
    c2 = models("c2")
    f = FockSpace(c2)
    v = f.apply_heisenberg(-2, c2.basis_class(0), f.vacuum())
    assert f.annihilate_point(v).is_zero()
    assert f.annihilate_point(f.unit(3)) == f.unit(2)


def test_weight_and_degree_shift(models):
    model = models("cotangent_g1")
    f = FockSpace(model)
    base = f.unit(3)
    for c in range(model.dim):
        for n in (1, 2, 3):
            out = f.apply_heisenberg(-n, model.basis_class(c), base)
            assert out.constant_weight() == 3 + n
            assert {f.monomial_degree(m) for m in out.terms} == \
                {2 * (n - 1) + model.degrees[c]}


def test_in_ideal(models):
    cot = models("cotangent_g1")
    f = FockSpace(cot)
    s = cot.index_of("s")
    v = f.apply_heisenberg(-1, cot.basis_class(s), f.unit(2))
    assert f.in_ideal(v.terms)
    assert not f.in_ideal(f.unit(3).terms)


def test_enumerate_monomials(models):
    toy = models("toy_b2_1")
    f = FockSpace(toy)
    monos = f.enumerate_monomials(2)
    assert len(set(monos)) == len(monos)
    for m in monos:
        assert mono_weight(m) == 2
        assert list(m) == sorted(m, key=lambda e: (-e[0], e[1]))
    # weight 2 over 3 labels: (2,c) and multisets of two (1,c)
    assert len(monos) == 3 + 6
    odd = models("odd_toy")
    fo = FockSpace(odd)
    for m in fo.enumerate_monomials(3):
        labels = {}
        for n, c in m:
            labels[(n, c)] = labels.get((n, c), 0) + 1
            if odd.parities[c]:
                assert labels[(n, c)] == 1


def test_vector_json_roundtrip(models):
    model = models("cotangent_g1")
    f = FockSpace(model)
    v = f.apply_heisenberg(-2, model.basis_class(1), f.unit(2)).scaled(Q(3, 7)) \
        + f.unit(4).scaled(-2)
    doc = v.to_json(model)
    back = FockVector({tuple((n, model.index_of(name)) for n, name in item["monomial"]):
                       parse_q(item["coeff"]) for item in doc})
    assert back == v


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_bracket_relation_random(n, c1, m, c2, w):
    model = builtin_model("odd_toy")
    f = FockSpace(model)
    a, b = model.basis_class(c1), model.basis_class(c2)
    v = f.unit(w)
    sign = (-1) ** (model.parities[c1] * model.parities[c2])
    lhs = f.apply_heisenberg(m, b, f.apply_heisenberg(-n, a, v)) \
        - f.apply_heisenberg(-n, a, f.apply_heisenberg(m, b, v)).scaled(sign)
    want = v.scaled(Q(-m) * model.pairing[c2][c1]) if m == n else FockVector.zero()
    assert lhs == want


def test_heisenberg_sweep_small(models):
    for name in ("toy_b2_1", "odd_toy"):
        assert heisenberg_witnesses(FockSpace(models(name)),
                                    max_weight=3, max_index=3) == []


# -- the integer word kernel against a rational reference ----------------------------


def _rational_pairing_model():
    """1, u, h, v, x with h*h = x/2 and u*v = x: pair_den = 2, odd classes."""
    from hilbfock.surface import SurfaceModel
    basis = [{"name": n, "degree": d}
             for n, d in (("1", 0), ("u", 1), ("h", 2), ("v", 3), ("x", 4))]
    products = [
        {"left": "h", "right": "h", "result": [{"name": "x", "coeff": "1/2"}]},
        {"left": "u", "right": "v", "result": [{"name": "x", "coeff": "1"}]},
    ]
    return SurfaceModel.from_json({
        "name": "half_pairing", "basis": basis, "products": products,
        "unit": "1", "point": "x", "euler": [], "canonical": []})


def _reference_create(model, n, c, terms):
    """a_{-n}(e_c) by moving the new entry rightward into canonical order."""
    out = {}
    for mono, w in terms.items():
        entries = [(n, c)] + list(mono)
        sign = 1
        pos = 0
        while pos + 1 < len(entries) and \
                (-entries[pos + 1][0], entries[pos + 1][1]) < (-n, c):
            if model.parities[c] and model.parities[entries[pos + 1][1]]:
                sign = -sign
            entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
            pos += 1
        if model.parities[c] and pos + 1 < len(entries) and entries[pos + 1] == (n, c):
            continue
        key = tuple(entries)
        out[key] = out.get(key, Fraction(0)) + sign * w
    return out


def _reference_annihilate(model, kappa, m, c, terms):
    """a_m(e_c): each contraction with a_{-m}(e_j) costs kappa m int(e_c e_j)."""
    out = {}
    for mono, w in terms.items():
        sign = 1
        for pos, (nj, cj) in enumerate(mono):
            if nj == m and model.pairing[c][cj]:
                rest = mono[:pos] + mono[pos + 1:]
                add = Fraction(sign) * kappa * m * model.pairing[c][cj] * w
                out[rest] = out.get(rest, Fraction(0)) + add
            if model.parities[c] and model.parities[cj]:
                sign = -sign
    return out


def _reference_word_tau(fock, indices, cls, v):
    """a_{i_1}..a_{i_k}(tau_{k*} cls) v with Fraction weights throughout."""
    model = fock.model
    kappa = Fraction(fock.kappa)
    total = {}
    for w, slots in model.diagonal_pushforward(cls, len(indices)):
        cur = {mono: Fraction(c) for mono, c in v.terms.items()}
        for idx, c in reversed(list(zip(indices, slots))):
            if idx < 0:
                cur = _reference_create(model, -idx, c, cur)
            else:
                cur = _reference_annihilate(model, kappa, idx, c, cur)
        for mono, c in cur.items():
            total[mono] = total.get(mono, Fraction(0)) + Fraction(w) * c
    return {mono: c for mono, c in total.items() if c}


@pytest.mark.parametrize("setup", ["ale_2", "cotangent_g1 s=2/3", "half_pairing"])
def test_word_kernel_matches_rational_reference(setup, models):
    """Every word of weight <= 4, the empty word and the empty vector, both
    through apply_word_tau and as out * num / den of the integer kernel,
    against the probe family, on a model whose Gram inverse has thirds, a
    deformed space and a pairing with pair_den 2."""
    from hilbfock.vertex import _class_reps, _probe_vectors, _signed_tuples
    if setup == "half_pairing":
        fock = FockSpace(_rational_pairing_model())
        assert fock.model.pair_den == 2
    elif setup == "ale_2":
        fock = FockSpace(models("ale_2"))
        assert any(g.denominator == 3 for row in fock.model.gram_inv for g in row)
    else:
        fock = FockSpace(models("cotangent_g1"), Q(2, 3))
    model = fock.model
    reps = _class_reps(model)
    classes = [model.basis_class(c) for c in reps]
    classes.append(model.basis_class(reps[0]).scaled(Q(3, 5))
                   + model.basis_class(reps[-1]).scaled(Q(-7, 2)))
    vecs = _probe_vectors(fock, 4)
    words = [w for length in range(1, 5) for w in _signed_tuples(length, 4, 4)]
    assert len(words) == 80
    for word in words:
        for cls in classes:
            for v in vecs:
                want = _reference_word_tau(fock, word, cls, v)
                got = fock.apply_word_tau(word, cls, v)
                assert got.terms == want, (word, cls, v)
                assert _kernel_image(fock, word, cls, v) == want, (word, cls, v)
    # k = 0 multiplies by the integral; an empty input stays empty
    for cls in classes:
        integral = Fraction(model.integrate(cls))
        for v in vecs:
            want = {mono: integral * c for mono, c in v.terms.items() if integral}
            assert fock.apply_word_tau((), cls, v).terms == want
            assert _kernel_image(fock, (), cls, v) == want
        for word in [()] + words:
            assert fock.word_int(word, cls, ({}, 1, 1))[0] == {}
            assert fock.apply_word_tau(word, cls, FockVector.zero()).is_zero()


def _kernel_image(fock, word, cls, v):
    """out * num / den of the integer kernel on v as its numerators over
    their common denominator, in plain Fractions."""
    den_v = lcm(*(c.denominator for c in v.terms.values()))
    terms = {mono: int(c * den_v) for mono, c in v.terms.items()}
    out, num, den = fock.word_int(word, cls, (terms, 1, den_v))
    assert all(type(c) is int for c in out.values())
    scale = Fraction(num, den)
    return {mono: c * scale for mono, c in out.items() if c}


def test_word_plan_filters_the_whole_tensor():
    """With a label set drop, word_plan leaves out the slot tuples of the
    memoized whole tensor that carry a dropped label before the first
    annihilation, over the whole tensor's denominator."""
    model = builtin_model("ale_2")
    fock = FockSpace(model)
    cls = GradedClass({1: Q(2), 3: Q(-1, 3)})
    whole = model.int_tensor(cls, 3)[1]
    drop = frozenset({1})
    word = (-2, -1, 3)  # the two creations act last
    ops, tensor, num, den = fock.word_plan(word, cls)
    assert tensor is whole
    kept = fock.word_plan(word, cls, drop)
    assert kept == (ops, [(w, slots) for w, slots in whole if 1 not in slots[:2]], num, den)
    assert 0 < len(kept[1]) < len(whole)
    # an annihilation acts last: no slot creates a label that stays
    assert fock.word_plan((3, -2, -1), cls, drop)[1] == whole


def test_heisenberg_sweep_rational_pairing():
    model = _rational_pairing_model()
    for s in (None, Q(2, 3)):
        assert heisenberg_witnesses(FockSpace(model, s), max_weight=3, max_index=3) == []
