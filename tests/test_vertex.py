"""Degree-shift operators, their oracles, and the polynomial-side operators."""

import gc
import weakref
from collections import Counter
from functools import wraps
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduce
from hilbfock import fock as fock_module
from hilbfock import ring as ring_module
from hilbfock import vertex
from hilbfock.errors import EngineError, UnknownCoefficientsError
from hilbfock.fock import FockSpace, FockVector
from hilbfock.linalg import combine, memoized, row_add_scaled
from hilbfock.partitions import (GenPartition, PartitionFunction,
                                 partitions_with_length)
from hilbfock.rational import Q
from hilbfock.ring import RingEngine
from hilbfock.vertex import (EULER, K_IDEAL, MAIN, SparsePolynomial,
                             apply_operator, chern_class, chern_operator,
                             lehn_apply, nonsense1_expansion, operator_int,
                             phi_map, verify_lemma_ks, verify_nonsense1)


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
    with pytest.raises(UnknownCoefficientsError,
                       match="projective model with nonzero canonical class"):
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
    """The weight-5 sweep on odd_toy decides the base instances
    ((1,), (-1,), u, v) on the vacuum, on 1_{-2} and on a_{-1}(u) 1_{-1},
    and the pure super-commutation ((2,), (3,), u, u), whose indices do not
    match, on every probe of weight 5."""
    model = models("odd_toy")
    f = FockSpace(model)
    u = model.basis_class(1)
    assert {1, 2} <= set(vertex._class_reps(model))
    assert {(1, -1), (2, 3)} <= set(vertex._signed_tuples(2, 5, 5))
    probes = vertex._probe_vectors(f, 5)
    for vec in (f.vacuum(), f.unit(2), f.apply_heisenberg(-1, u, f.unit(1)), f.unit(5)):
        assert vec in probes
    assert verify_lemma_ks(model, 2, 5) == {
        "ok": True, "instances_checked": 15200, "witnesses": []}


def test_lemma_ks_part_ii_euler_correction(models):
    """The sweep decides the transposition of a_1 a_{-1}(1), which needs
    the Euler-class correction, on the vacuum, 1_{-1} and 1_{-3}."""
    model = models("toy_b2_1")   # e = 3x: the correction term is visible
    f = FockSpace(model)
    one = model.basis_class(0)
    assert 0 in vertex._class_reps(model)
    assert (1, -1) in set(vertex._signed_tuples(2, 3, 3))
    probes = vertex._probe_vectors(f, 3)
    for vec in (f.vacuum(), f.unit(1), f.unit(3)):
        assert vec in probes
    assert verify_lemma_ks(model, 2, 3) == {
        "ok": True, "instances_checked": 1776, "witnesses": []}
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


def _part_i_witness(ns, ms, alpha, beta):
    return {"ns": ns, "ms": ms, "alpha": alpha, "beta": beta, "part": "i"}


# the first part (i) failures of toy_b2_1, in sweep order, when the
# contraction terms are off by their own value
_CONTRACTION_FAULT_WITNESSES = [_part_i_witness((1,), (-1,), "1", "x"),
                                _part_i_witness((1,), (-1,), "h", "h"),
                                _part_i_witness((1,), (-1,), "x", "1"),
                                _part_i_witness((-1,), (1,), "1", "x"),
                                _part_i_witness((-1,), (1,), "h", "h")]


def test_lemma_ks_failing_report_keeps_sweep_order(models, monkeypatch):
    """Part (i) decides each instance with its swap, yet a failing sweep
    reports its witnesses and counts exactly as a one-instance-at-a-time
    sweep does.  A sweep that noted a swap's failure as soon as it decided
    the pair would list ([-1], [1], x, 1) second, right after its partner
    ([1], [-1], 1, x)."""
    toy = models("toy_b2_1")
    real_init = FockSpace.__init__

    def doubled_kappa(self, model, s=None):
        real_init(self, model, s)
        self.kappa = 2 * self.kappa

    monkeypatch.setattr(FockSpace, "__init__", doubled_kappa)
    witnesses = _CONTRACTION_FAULT_WITNESSES
    assert verify_lemma_ks(toy, 3, 3) == {
        "ok": False, "instances_checked": 3162, "witnesses": witnesses}
    assert verify_lemma_ks(toy, 5, 4) == {
        "ok": False, "instances_checked": 15356, "witnesses": witnesses}


def _outside_the_kernel(monkeypatch):
    """Wrap FockSpace.word_int so that the returned list is nonempty exactly
    while a word_int call runs: a run_word call made while it is empty fills
    the sweep's table of outer-word images."""
    inside = []
    real_kernel = FockSpace.word_int

    def marking_kernel(self, word, cls, vec):
        inside.append(word)
        try:
            return real_kernel(self, word, cls, vec)
        finally:
            inside.pop()

    monkeypatch.setattr(FockSpace, "word_int", marking_kernel)
    return inside


def test_a_fault_in_the_outer_images_fails_part_i(models, monkeypatch):
    """The composed products of part (i) are summed from the table of
    per-monomial outer-word images, so a fault in the images it is filled
    from still fails the sweep.  With every filled image doubled, the two
    products stop cancelling against the contraction terms exactly where
    those terms are nonzero, as under a doubled contraction scale: part (i)
    reports the same witnesses in the same order.  Part (ii) reads no
    composed product, so it checks every probe and the count differs."""
    toy = models("toy_b2_1")
    inside = _outside_the_kernel(monkeypatch)
    real_run = FockSpace.run_word

    def doubled_fill(self, ops, tensor, terms, out, scale=1):
        return real_run(self, ops, tensor, terms, out, scale if inside else 2 * scale)

    monkeypatch.setattr(FockSpace, "run_word", doubled_fill)
    for bounds, checked in (((3, 3), 3288), ((5, 4), 15888)):
        assert verify_lemma_ks(toy, *bounds) == {
            "ok": False, "instances_checked": checked,
            "witnesses": _CONTRACTION_FAULT_WITNESSES}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.dictionaries(st.sampled_from("ab"), st.sampled_from([-2, -1, 1])),
                          st.sampled_from([1, 2]),
                          st.sampled_from([(-1, 1), (1, 1), (-1, 2), (2, 1)])),
                max_size=3))
def test_defect_reads_zero_where_the_integer_sum_does(pieces):
    """_defect's shortcuts (no nonempty piece; two of one coefficient
    magnitude over one denominator) agree with linalg.combine's sum."""
    pieces = [((terms, den), c) for terms, den, c in pieces]
    total, _ = combine([(terms, cn, den * cd) for (terms, den), (cn, cd) in pieces])
    assert vertex._defect(pieces) == bool(total)


def test_a_broken_commutation_fails_the_two_piece_checks(models, monkeypatch):
    """A fault that only a commutation sees, a_{-2}(1) on the vacuum at
    twice its value, fails just the checks that _defect decides by
    comparing two term dicts: part (i) instances without a contraction and
    part (ii) transpositions without the Euler word."""
    real_raw = FockSpace.raw

    def doubled_on_vacuum(self, i, c, terms):
        got = real_raw(self, i, c, terms)
        if i == -2 and c == self.model.unit and terms == {(): 1}:
            return {mono: 2 * x for mono, x in got.items()}
        return got

    monkeypatch.setattr(FockSpace, "raw", doubled_on_vacuum)
    monkeypatch.setattr(vertex, "MAX_WITNESSES", 100)
    rep = verify_lemma_ks(models("toy_b2_1"), 3, 3)
    assert not rep["ok"] and rep["instances_checked"] == 4048
    part_i = [w for w in rep["witnesses"] if w["part"] == "i"]
    assert len(part_i) == 8
    assert not any(n == -m for w in part_i for n in w["ns"] for m in w["ms"])
    assert [w for w in rep["witnesses"] if w["part"] == "ii"] == [
        {"ns": ns, "j": 0, "alpha": "1", "part": "ii"}
        for ns in ((1, -2), (-1, -2), (-2, 1), (-2, -1))]


@pytest.mark.parametrize("name, s, bounds", [("toy_b2_1", None, (4, 3)),
                                             ("odd_toy", None, (4, 3)),
                                             ("cotangent_g1", Q(2, 3), (3, 2))])
def test_composed_products_equal_the_word_kernel(models, monkeypatch, name, s, bounds):
    """Every composed product W_ns(alpha) W_ms(beta) v that the sweep sums
    from its per-monomial image table equals FockSpace.word_int of the
    outer word on the inner image, term for term and in its denominator:
    with odd signs (odd_toy) and with a deformed bracket (cotangent_g1 at
    s = 2/3) too."""
    real_compose = vertex._compose
    inners = Counter()

    def checked_compose(fock, plan, images, vec):
        got = real_compose(fock, plan, images, vec)
        ((word, cls),) = [key for key, resolved in FockSpace.word_plan.table(fock).items()
                          if resolved is plan]
        assert got == fock.word_int(word, cls, vec)
        inners[bool(vec[0])] += 1
        return got

    monkeypatch.setattr(vertex, "_compose", checked_compose)
    assert verify_lemma_ks(models(name), *bounds, s=s)["ok"]
    assert inners[True] > 100 and inners[False]


def test_lemma_ks_applies_each_probe_word_once(models, monkeypatch):
    """No (word, class, probe vector) triple goes through the integer word
    kernel twice in one sweep, no outer word's image of a monomial (outer
    word, class, monomial) is filled twice, word_plan resolves each (word,
    class) once per sweep, and neither the probe memo nor the pairing of
    each part (i) instance with its swap moves the instance count."""
    probes = []
    real_lift = vertex.lift

    def recording_lift(v):
        got = real_lift(v)
        probes.append(got)
        return got

    on_probes = Counter()
    fills = Counter()
    resolved = Counter()
    calls = Counter()
    owner = {}      # id of a resolved plan's factors -> (word, class key)
    real_kernel = FockSpace.word_int
    real_run = FockSpace.run_word
    real_plan = FockSpace.word_plan.__wrapped__

    def counting_kernel(self, word, cls, vec):
        calls["all"] += 1
        for vi, probe in enumerate(probes):
            if vec is probe:
                on_probes[(word, cls.key(), vi)] += 1
        return real_kernel(self, word, cls, vec)

    def counting_run(self, ops, tensor, terms, out, scale=1):
        if not inside:
            # a fill of the outer-word table: one monomial's image alone
            ((mono, x),) = terms.items()
            assert x == 1 and out == {}
            fills[owner[id(ops)] + (mono,)] += 1
        return real_run(self, ops, tensor, terms, out, scale)

    @wraps(real_plan)
    def counting_plan(self, indices, cls, drop=frozenset()):
        resolved[(indices, cls.key(), drop)] += 1
        got = real_plan(self, indices, cls, drop)
        owner[id(got[0])] = (indices, cls.key())
        return got

    monkeypatch.setattr(vertex, "lift", recording_lift)
    monkeypatch.setattr(FockSpace, "word_int", counting_kernel)
    inside = _outside_the_kernel(monkeypatch)
    monkeypatch.setattr(FockSpace, "run_word", counting_run)
    monkeypatch.setattr(FockSpace, "word_plan", memoized(counting_plan))
    # instances as counted without the probe memo, which made 17,316 and
    # 47,848 word calls, before the pairing, which made 7,351 and 20,318, and
    # before the outer-word table, which made 4,201 and 11,262; the word_int
    # calls are now the probes' own construction and the words on the
    # probes, and every composed product is summed from the fills
    for name, checked, applied, filled, plans in (("toy_b2_1", 4200, 1051, 1257, 76),
                                                  ("odd_toy", 11320, 2206, 2828, 100)):
        for memo in (probes, on_probes, fills, resolved, calls, owner):
            memo.clear()
        rep = verify_lemma_ks(models(name), ksum_max=5, weight_max=3)
        assert rep["ok"] and rep["instances_checked"] == checked
        assert on_probes and max(on_probes.values()) == 1
        assert fills and max(fills.values()) == 1
        assert resolved and max(resolved.values()) == 1
        assert calls["all"] == applied and sum(fills.values()) == filled
        assert sum(resolved.values()) == plans


def test_a_dropped_fock_space_is_freed_without_the_collector(models, monkeypatch):
    """The plan and raw-image memos name raw operators by their signed
    indices and hold no method bound to the space, so neither a dropped
    engine nor a finished sweep leaves a reference cycle: reference
    counting alone frees every Fock space."""
    spaces = []
    real_init = FockSpace.__init__

    def recording_init(self, model, s=None):
        real_init(self, model, s)
        spaces.append(weakref.ref(self))

    monkeypatch.setattr(FockSpace, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = RingEngine(models("c2"))
        engine.structure_constants(3)
        del engine
        assert verify_lemma_ks(models("toy_b2_1"), 3, 3)["ok"]
        # read before the collector is back: its first allocation may run it
        alive = [ref() is not None for ref in spaces]
    finally:
        if enabled:
            gc.enable()
    assert alive == [False, False]


def test_raw_images_are_never_mutated(models, monkeypatch):
    """A snapshot of the raw-image memo, taken after a lemma-ks sweep and a
    structure table on one Fock space, is unchanged after both run again
    on that space: no caller mutates a shared image, and the second run
    finds every image it needs."""
    model = models("toy_b2_1")
    fock = FockSpace(model)

    class Shared(FockSpace):
        def __new__(cls, *args):
            return fock

    # every Fock space that the sweep and the engines build is this one
    monkeypatch.setattr(fock_module, "FockSpace", Shared)
    monkeypatch.setattr(ring_module, "FockSpace", Shared)

    def run():
        assert verify_lemma_ks(model, 3, 4)["ok"]
        assert RingEngine(model).fock is fock
        RingEngine(model).structure_constants(3)

    run()
    memo = fock.__dict__["_memo_raw_image"]
    snapshot = {key: dict(image) for key, image in memo.items()}
    assert len(snapshot) > 100
    run()
    assert {key: dict(image) for key, image in memo.items()} == snapshot


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
    # k + 1 = 3 derivatives need a total exponent of at least 3
    assert lehn_apply(2, q1sq).is_zero()
    assert lehn_apply(2, SparsePolynomial.monomial({1: 3})) == \
        SparsePolynomial.monomial({3: 1})
    assert lehn_apply(2, q1sq + SparsePolynomial.monomial({1: 3})) == \
        SparsePolynomial.monomial({3: 1})


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
