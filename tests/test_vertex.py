"""Degree-shift operators, their oracles, and the polynomial-side operators."""

from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduce
from hilbfock import vertex
from hilbfock.errors import EngineError, UnknownCoefficientsError
from hilbfock.fock import FockSpace, FockVector
from hilbfock.linalg import row_add_scaled
from hilbfock.partitions import (GenPartition, PartitionFunction,
                                 partitions_with_length)
from hilbfock.rational import Q
from hilbfock.ring import RingEngine
from hilbfock.vertex import (EULER, K_IDEAL, MAIN, SparsePolynomial,
                             apply_operator, chern_class, chern_operator,
                             lehn_apply, lemma_ks_part_i, lemma_ks_part_ii,
                             nonsense1_expansion, operator_int, phi_map,
                             verify_lemma_ks, verify_nonsense1)


def known_part(fock, op, v):
    """The operator on v when it has no canonical-class marker terms."""
    known, markers = apply_operator(fock, op, v)
    assert not markers
    return known


def test_operator_families(models):
    toy = models("toy_b2_1")
    ft = FockSpace(toy)
    op = chern_operator(ft, 2, toy.basis_class(toy.unit))
    tags = sorted(f.tag for f in op.families)
    assert tags == [EULER, MAIN]          # K = 0: no unevaluated families
    assert not op.has_unknown_terms
    # a degree-2 argument kills the Euler family on degree grounds
    assert [f.tag for f in chern_operator(ft, 2, toy.basis_class(1)).families] \
        == [MAIN]
    # e = 0 and K = 0 leaves only the main sum
    odd = models("odd_toy")
    op = chern_operator(FockSpace(odd), 1, odd.basis_class(1))
    assert [f.tag for f in op.families] == [MAIN]
    # nonzero canonical class brings tagged families with unknown weights,
    # of lengths k + 1 (K alpha) and k (K^2 alpha); families of length below
    # 2 do not act and are left out (here Euler and K^2 alpha at k = 1)
    c2 = models("c2")
    op = chern_operator(FockSpace(c2), 1, c2.basis_class(0))
    assert op.has_unknown_terms
    assert [(f.ell, f.tag) for f in op.families] == [(3, MAIN), (2, K_IDEAL)]


def test_gate_rejection(models):
    p2 = models("p2")
    f = FockSpace(p2)
    with pytest.raises(UnknownCoefficientsError):
        chern_class(f, 1, p2.basis_class(0), 2)
    # the engine refuses the operator itself, before any application
    with pytest.raises(UnknownCoefficientsError, match="does not contain"):
        RingEngine(p2).operator(1, 0)
    # the raw application leaves the markers to the caller
    known, markers = apply_operator(f, chern_operator(f, 1, p2.basis_class(0)),
                                    f.unit(2))
    assert markers


def test_marker_check_path(models):
    c2 = models("c2")
    eng = RingEngine(c2)
    f = eng.fock
    out = eng.fock_vector(eng.word_on_basis(((1, 0),), PartitionFunction.EMPTY, 3), 3)
    assert not out.is_zero()
    known, marks = apply_operator(f, eng.operator(1, 0), f.unit(3))
    assert marks  # the canonical family acted nontrivially upstairs
    for mv in marks:
        assert reduce(f, mv).is_zero()
    assert out == reduce(f, known)


def test_label_filter_leaves_markers_unpruned(models):
    """The engine's label filter prunes only the rational-weight families:
    the markers come back as without it, and after reduction so does the
    known part."""
    c2 = models("c2")
    eng = RingEngine(c2)
    f = eng.fock
    n = 3
    marked = pruned = 0
    for k in range(n):
        for c in c2.working_classes():
            op = eng.operator(k, c)
            for rho in eng.basis(n):
                ((mono, _),) = eng.fock.b_class(rho, n).terms.items()
                out, den, marks = operator_int(f, op, {mono: 1}, c2.ideal_pivots)
                whole, den_whole, full_marks = operator_int(f, op, {mono: 1})
                known = FockVector({m: Q(w, den) for m, w in out.items()})
                full = FockVector({m: Q(w, den_whole) for m, w in whole.items()})
                assert marks == full_marks
                assert reduce(f, known) == reduce(f, full)
                marked += bool(marks)
                pruned += known != full
    # the markers are nonzero upstairs, and the filter did skip terms
    assert marked and pruned


def test_chern_class_examples(models):
    toy = models("toy_b2_1")
    f = FockSpace(toy)
    one, h, x = (toy.basis_class(i) for i in range(3))
    for n in (1, 2, 4):
        for cls in (one, h, x):
            want = f.apply_heisenberg(-1, cls, f.unit(n - 1))
            assert chern_class(f, 0, cls, n) == want
    assert chern_class(f, 2, h, 0).is_zero()
    # the level count is the degree-zero operator on the unit argument
    assert chern_class(f, 0, one, 5) == f.unit(5).scaled(5)


def test_chern_class_mod_full_ideal(models):
    k3 = models("k3_like")
    quot = k3.with_ideal([i for i in range(k3.dim) if k3.degrees[i] > 0])
    f = FockSpace(quot)
    for n in (2, 3, 4):
        for k in range(n):
            got = reduce(f, chern_class(f, k, quot.basis_class(quot.unit), n))
            mono = tuple(sorted([(k + 1, quot.unit)] + [(1, quot.unit)] * (n - k - 1),
                                key=lambda e: (-e[0], e[1])))
            want = FockVector(
                {mono: Q((-1) ** k, factorial(k + 1) * factorial(n - k - 1))})
            assert got == want, (n, k)


def chern_class_partition_sums(fock, k, alpha, n):
    """Independent route to G_k(alpha, n): the closed creation-only partition
    sums (no canonical families; exact when K alpha = 0 = K^2 alpha), a
    cross-check oracle against the operator route."""
    model = fock.model
    out = {}
    e_alpha = model.mul(model.euler, alpha)
    for j in range(0, k + 1):
        base = fock.unit(n - j - 1)
        if base.is_zero():
            continue
        for lam in partitions_with_length(j + 1, k - j + 1):
            sym = GenPartition.from_parts(lam).sym_factor()
            coeff = Q((-1) ** j, sym * factorial(j + 1))
            word = tuple(sorted(-r for r in lam))
            row_add_scaled(out, fock.apply_word_tau(word, alpha, base).terms, coeff)
        if e_alpha.is_zero():
            continue
        for lam in partitions_with_length(j + 1, k - j - 1):
            gp = GenPartition.from_parts(lam)
            coeff = Q((-1) ** (j + 1) * (j + 1 + gp.moment() - 2),
                      24 * gp.sym_factor() * factorial(j + 1))
            word = tuple(sorted(-r for r in lam))
            row_add_scaled(out, fock.apply_word_tau(word, e_alpha, base).terms, coeff)
    return FockVector(out)


@pytest.mark.parametrize("name", ["toy_b2_1", "odd_toy", "k3_like"])
def test_partition_sum_cross_check(name, models):
    model = models(name)
    f = FockSpace(model)
    for k in range(4):
        for n in range(1, 6):
            for c in range(model.dim):
                direct = chern_class(f, k, model.basis_class(c), n)
                sums = chern_class_partition_sums(f, k, model.basis_class(c), n)
                assert direct == sums, (name, k, n, c)


def test_degree_shift_homogeneous(models):
    model = models("odd_toy")
    f = FockSpace(model)
    for k in range(3):
        for c in range(model.dim):
            for n in (1, 2, 3):
                g = chern_class(f, k, model.basis_class(c), n)
                if g.is_zero():
                    continue
                assert {f.monomial_degree(m) for m in g.terms} == \
                    {2 * k + model.degrees[c]}
                assert g.constant_weight() == n


def test_operator_commutativity(models):
    model = models("odd_toy")
    f = FockSpace(model)
    vecs = [f.unit(3), f.apply_heisenberg(-1, model.basis_class(1), f.unit(2)),
            f.apply_heisenberg(-2, model.basis_class(2), f.unit(1))]
    for k1 in range(2):
        for k2 in range(2):
            for c1 in range(model.dim):
                for c2 in range(model.dim):
                    op1 = chern_operator(f, k1, model.basis_class(c1))
                    op2 = chern_operator(f, k2, model.basis_class(c2))
                    sign = (-1) ** (model.parities[c1] * model.parities[c2])
                    for v in vecs:
                        ab = known_part(f, op1, known_part(f, op2, v))
                        ba = known_part(f, op2, known_part(f, op1, v))
                        assert ab == ba.scaled(sign)


def test_lemma_ks_base_case(models):
    model = models("odd_toy")
    f = FockSpace(model)
    u = model.basis_class(1)
    v3 = model.basis_class(2)
    diff = lemma_ks_part_i(f, (1,), (-1,), u, v3)
    for vec in (f.vacuum(), f.unit(2), f.apply_heisenberg(-1, u, f.unit(1))):
        assert diff(vec).is_zero()
    # no matching indices: pure super-commutation
    diff = lemma_ks_part_i(f, (2,), (3,), u, u)
    assert diff(f.unit(4)).is_zero()


def test_lemma_ks_part_ii_euler_correction(models):
    model = models("toy_b2_1")   # e = 3x: the correction term is visible
    f = FockSpace(model)
    one = model.basis_class(0)
    diff = lemma_ks_part_ii(f, (1, -1), 0, one)
    for vec in (f.vacuum(), f.unit(1), f.unit(3)):
        assert diff(vec).is_zero()
    # and the correction really is nonzero: dropping it breaks the identity
    swapped = f.apply_word_tau((-1, 1), one, f.unit(2))
    plain = f.apply_word_tau((1, -1), one, f.unit(2))
    assert plain != swapped


def test_lemma_ks_sweeps_small(models):
    rep = verify_lemma_ks(models("toy_b2_1"), ksum_max=3, weight_max=3)
    assert rep["ok"] and rep["instances_checked"] > 0
    rep = verify_lemma_ks(models("odd_toy"), ksum_max=3, weight_max=4)
    assert rep["ok"]


@pytest.mark.parametrize("name, s, checked", [("cotangent_g1", Q(2, 3), 38388),
                                               ("odd_toy", Q(-7, 2), 11320),
                                               ("ale_2", None, 9080)])
def test_lemma_ks_sweeps_with_rational_scales(models, name, s, checked):
    """A deformed bracket (kappa = s) and a Gram inverse with thirds give
    the words and the contraction coefficients denominators of their own,
    which the defect meets over one lcm."""
    model = models(name)
    if s is None:
        assert any(g.denominator == 3 for row in model.gram_inv for g in row)
    rep = verify_lemma_ks(model, ksum_max=3, weight_max=3, s=s)
    assert rep == {"ok": True, "instances_checked": checked, "witnesses": []}


def test_lemma_ks_sweep_catches_injected_faults(models, monkeypatch):
    """Through the probe memo the sweep still fails on a wrong contraction
    scale (part i) and on a wrong Euler correction (part ii)."""
    toy = models("toy_b2_1")
    real_init = FockSpace.__init__

    def doubled_kappa(self, model, s=None):
        real_init(self, model, s)
        self.kappa = 2 * self.kappa   # the brackets keep the true ann_scale

    with monkeypatch.context() as patch:
        patch.setattr(FockSpace, "__init__", doubled_kappa)
        rep = verify_lemma_ks(toy, ksum_max=3, weight_max=3)
    assert not rep["ok"] and rep["witnesses"][0]["part"] == "i"
    monkeypatch.setattr(toy, "euler", toy.euler.scaled(2))
    rep = verify_lemma_ks(toy, ksum_max=3, weight_max=3)
    assert not rep["ok"] and {w["part"] for w in rep["witnesses"]} == {"ii"}


def test_lemma_ks_applies_each_probe_word_once(models, monkeypatch):
    """No (word, class, probe vector) triple goes through the integer word
    kernel twice in one sweep, and the memo leaves the instance count as it
    was without it."""
    probes = []
    real_lift = vertex.lift

    def recording_lift(v):
        got = real_lift(v)
        probes.append(got)
        return got

    on_probes = Counter()
    calls = Counter()
    real_kernel = FockSpace.word_int

    def counting_kernel(self, word, cls, vec):
        calls["all"] += 1
        for vi, probe in enumerate(probes):
            if vec is probe:
                on_probes[(word, cls.key(), vi)] += 1
        return real_kernel(self, word, cls, vec)

    monkeypatch.setattr(vertex, "lift", recording_lift)
    monkeypatch.setattr(FockSpace, "word_int", counting_kernel)
    # instances as counted without the memo, which made 17,316 and 47,848
    # word calls; every word call, on a probe or not, is one kernel call
    for name, checked, applied in (("toy_b2_1", 4200, 7351),
                                   ("odd_toy", 11320, 20318)):
        probes.clear()
        on_probes.clear()
        calls.clear()
        rep = verify_lemma_ks(models(name), ksum_max=5, weight_max=3)
        assert rep["ok"] and rep["instances_checked"] == checked
        assert on_probes and max(on_probes.values()) == 1
        assert calls["all"] == applied


def test_nonsense1_two_term_case(models):
    model = models("odd_toy")
    f = FockSpace(model)
    op = chern_operator(f, 0, model.basis_class(1))

    def op_apply(v):
        return known_part(f, op, v)

    creations = [(2, model.basis_class(2))]
    direct = op_apply(f.apply_heisenberg(-2, model.basis_class(2), f.vacuum()))
    expanded = nonsense1_expansion(f, op_apply, op.parity, creations)
    assert direct == expanded
    # the empty word case: both sides are g on the vacuum
    assert nonsense1_expansion(f, op_apply, op.parity, []) == op_apply(f.vacuum())


def test_nonsense1_sweep_small(models):
    rep = verify_nonsense1(models("toy_b2_1"), k_max=1, b_max=2, n_max=3)
    assert rep["ok"] and rep["instances_checked"] > 0
    with pytest.raises(UnknownCoefficientsError):
        verify_nonsense1(models("p2"))


def test_lehn_examples():
    for m in (1, 2, 5):
        qm = SparsePolynomial.monomial({m: 1})
        assert lehn_apply(0, qm) == qm.scaled(m)
    q1sq = SparsePolynomial.monomial({1: 2})
    assert lehn_apply(1, q1sq) == SparsePolynomial.monomial({2: 1}, -1)
    assert lehn_apply(1, SparsePolynomial.monomial({2: 1})).is_zero()


def brute_lehn(k, poly, cap=8):
    """Direct evaluation of the finite-sum definition with an explicit cut."""
    out = SparsePolynomial()
    from itertools import product
    from math import factorial
    lead = Q((-1) ** k, factorial(k + 1))
    for tup in product(range(1, cap + 1), repeat=k + 1):
        cur = poly
        for nv in tup:
            nxt = SparsePolynomial()
            for mono, w in cur.terms.items():
                exps = dict(mono)
                e = exps.get(nv, 0)
                if e:
                    exps[nv] = e - 1
                    nxt = nxt + SparsePolynomial.monomial(exps, w * nv * e)
            cur = nxt
            if cur.is_zero():
                break
        if cur.is_zero():
            continue
        tot = sum(tup)
        lifted = SparsePolynomial()
        for mono, w in cur.terms.items():
            exps = dict(mono)
            exps[tot] = exps.get(tot, 0) + 1
            lifted = lifted + SparsePolynomial.monomial(exps, w)
        out = out + lifted.scaled(lead)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2),
       st.dictionaries(st.integers(min_value=1, max_value=4),
                       st.integers(min_value=1, max_value=3), max_size=3),
       st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0))
def test_lehn_matches_brute_force(k, exps, coeff):
    poly = SparsePolynomial.monomial(exps, coeff)
    assert lehn_apply(k, poly) == brute_lehn(k, poly)


def test_lehn_grading():
    poly = SparsePolynomial.monomial({1: 2, 3: 1})
    image = lehn_apply(1, poly)

    def grading(p):
        return {sum(v * e for v, e in m) for m in p.terms}

    assert grading(image) <= grading(poly)


def test_phi_map(models):
    model = models("toy_b2_1")
    f = FockSpace(model)
    from math import factorial
    for n in (0, 1, 3):
        assert phi_map(f.unit(n), model) == SparsePolynomial.monomial(
            {1: n}, Q(1, factorial(n)))
    v = f.apply_heisenberg(-2, model.basis_class(0), f.vacuum())
    assert phi_map(v, model) == SparsePolynomial.monomial({2: 1})
    assert phi_map(FockVector.zero(), model).is_zero()
    with pytest.raises(EngineError):
        phi_map(f.apply_heisenberg(-1, model.basis_class(1), f.vacuum()), model)


def test_polynomial_json_roundtrip():
    poly = SparsePolynomial.monomial({2: 1, 1: 3}, Q(5, 3)) \
        + SparsePolynomial.monomial({4: 2}, -2)
    assert SparsePolynomial.from_json(poly.to_json()) == poly


def test_sparse_containers_compare_by_type():
    """The shared base keeps equality type-strict: same terms, other class."""
    from hilbfock.surface import GradedClass
    assert SparsePolynomial.monomial({}) != FockVector.vacuum()
    assert FockVector.vacuum() != SparsePolynomial.monomial({})
    assert GradedClass({0: 1}) != SparsePolynomial({0: Q(1)})
    assert FockVector.vacuum() - FockVector.vacuum() == FockVector.zero()


def test_orbifold_operator_is_canonical_free(models):
    c2 = models("c2")
    op = chern_operator(FockSpace(c2, Q(1, 2)), 2, c2.basis_class(0))
    assert not op.has_unknown_terms
    assert {f.tag for f in op.families} <= {MAIN, EULER}
