"""Cup products, generator expressions, stable-ring structure, verifiers."""

import json

import pytest

from conftest import reduce
from hilbfock.errors import EngineError, ModelError, UnknownCoefficientsError
from hilbfock.fock import FockSpace, FockVector
from hilbfock.linalg import row_add_scaled
from hilbfock.partitions import PartitionFunction
from hilbfock.rational import Q
from hilbfock.ring import (FHRing, LehnEngine, RingEngine,
                           fit_polynomial_in_n, lagrange_coefficients,
                           monomial_vectors, poly_eval,
                           verify_a_homomorphism,
                           verify_affine_plane_quotient, verify_fh_ring,
                           verify_ideal_suite, verify_mod_h4_independence,
                           verify_n_independence, verify_polynomiality)
from hilbfock.vertex import apply_operator


def test_express_unit(engines):
    eng = engines("c2")
    assert eng.express(PartitionFunction({}), 3) == {(): Q(1)}


def test_express_single_part(engines):
    eng = engines("c2")
    rho = PartitionFunction({0: (1,)})
    for n in (2, 3, 5):
        # one word, pivot coefficient -1 with this normalization
        assert eng.express(rho, n) == {((1, 0),): Q(-1)}
        assert eng.product_vector(rho, PartitionFunction.EMPTY, n) == \
            eng.fock.b_class(rho, n)


def test_express_roundtrip_everywhere(engines):
    for name, nmax in (("toy_b2_1", 4), ("ale_2", 3), ("c2", 5), ("odd_toy", 4)):
        eng = engines(name)
        for n in range(nmax + 1):
            for rho in eng.basis(n):
                # the words of the expression, applied to the unit, give b_rho(n)
                assert eng.product_vector(rho, PartitionFunction.EMPTY, n) == \
                    eng.fock.b_class(rho, n), (name, n, rho)


def test_unit_row(engines):
    eng = engines("ale_2")
    empty = PartitionFunction({})
    basis = eng.basis(3)
    for sigma in basis:
        assert eng.b_product(empty, sigma, 3) == {sigma: Q(1)}
    # and bilinearly on a vector that mixes every basis class
    v = FockVector({mono: Q(i, 7) for i, rho in enumerate(basis, 1)
                    for mono in eng.fock.b_class(rho, 3).terms})
    coords = eng.coordinates(eng.index_vector(v, 3), 3)
    assert len(coords) == len(basis)
    assert _cup(eng, {empty: Q(1)}, coords, 3) == coords
    assert eng.fock_vector(eng.index_vector(v, 3), 3) == v


def test_level_one_collapses_to_surface(models, engines):
    """At level one the ring is the (quotient) surface algebra itself: the
    strongest independent anchor for the whole pipeline."""
    for name in ("toy_b2_1", "odd_toy", "k3_like", "ale_2", "c2", "cotangent_g1"):
        model = models(name)
        eng = engines(name)
        working = model.working_classes()
        for ca in working:
            for cb in working:
                ra = PartitionFunction({ca: (1,)}) if ca != model.unit \
                    else PartitionFunction({})
                rb = PartitionFunction({cb: (1,)}) if cb != model.unit \
                    else PartitionFunction({})
                got = eng.b_product(ra, rb, 1)
                prod = model.mul(model.basis_class(ca), model.basis_class(cb))
                if model.has_ideal:
                    prod = model.reduce_class(prod)
                want = {}
                for c, coeff in prod.items():
                    nu = PartitionFunction({c: (1,)}) if c != model.unit \
                        else PartitionFunction({})
                    want[nu] = coeff
                assert got == want, (name, ca, cb)


def test_c2_square_vanishes_by_degree(engines, models):
    """Independent degree audit: the quotient at level 2 has no degree-4
    component, so this square must vanish."""
    eng = engines("c2")
    model = models("c2")
    rho = PartitionFunction({0: (1,)})
    degrees = {r.degree(model) for r in eng.basis(2)}
    assert 2 * rho.degree(model) not in degrees
    assert eng.b_product(rho, rho, 2) == {}


def test_k3_point_class_square(engines, models):
    """Degree audit at level 2: the square has degree 8, which IS the top
    degree of the level-2 component; that component is one-dimensional and
    the square hits it with coefficient one (hand contraction: the degree-0
    shift operator of the point class eats the single pool factor)."""
    eng = engines("k3_like")
    model = models("k3_like")
    x = model.point
    rho = PartitionFunction({x: (1,)})
    top = [m for m in eng.fock.enumerate_monomials(2)
           if eng.fock.monomial_degree(m) == 8]
    assert top == [((1, x), (1, x))]
    assert eng.b_product(rho, rho, 2) == {PartitionFunction({x: (1, 1)}): Q(1)}
    # at level 1 the square does vanish: weight-1 monomials top out in degree 4
    assert eng.b_product(rho, rho, 1) == {}


def _generator_on_whole_vector(eng, factor, v):
    """The reference body of one generator: the whole vector through
    apply_operator with no label filter, the marker check, then reduce."""
    fock = eng.fock
    known, markers = apply_operator(fock, eng.operator(*factor), v)
    assert all(reduce(fock, mv).is_zero() for mv in markers)
    return reduce(fock, known)


@pytest.mark.parametrize("s", [None, 2])
@pytest.mark.parametrize("name", ["c2", "ale_1", "ale_2", "cotangent_g1"])
def test_memoized_generator_matches_whole_vector_reference(models, name, s):
    """Summing the per-monomial memo over a vector gives what the operator
    gives on the whole vector, cold (a multi-term vector first) and warm."""
    model = models(name)
    for n in range(1, 4):
        eng = RingEngine(model, s)
        basis = [eng.fock.b_class(rho, n) for rho in eng.basis(n)]
        mixed = FockVector({mono: Q(i, 7) for i, b in enumerate(basis, 1)
                            for mono in b.terms})
        assert len(mixed.terms) == len(basis)
        for k in range(n):
            for c in model.working_classes():
                for v in [mixed] + basis:
                    got = eng.generator_on((k, c), eng.index_vector(v, n), n)
                    assert (eng.fock_vector(got, n)
                            == _generator_on_whole_vector(eng, (k, c), v))


@pytest.mark.parametrize("name,nmax", [("toy_b2_1", 3), ("ale_2", 3), ("c2", 3)])
def test_associativity_full_triples(name, nmax, engines):
    eng = engines(name)
    for n in range(1, nmax + 1):
        basis = eng.basis(n)
        prods = {(r, s): eng.b_product(r, s, n) for r in basis for s in basis}

        def combine(coords, t):
            out = {}
            for mu, c in coords.items():
                for nu, c2 in prods[(mu, t)].items():
                    cur = out.get(nu, Q(0)) + c * c2
                    if cur:
                        out[nu] = cur
                    else:
                        out.pop(nu, None)
            return out

        for r in basis:
            for s in basis:
                rs = prods[(r, s)]
                for t in basis:
                    left = combine(rs, t)
                    st_ = prods[(s, t)]
                    right = {}
                    for nu, c in st_.items():
                        for out_nu, c2 in prods[(r, nu)].items():
                            cur = right.get(out_nu, Q(0)) + c * c2
                            if cur:
                                right[out_nu] = cur
                            else:
                                right.pop(out_nu, None)
                    assert left == right, (name, n, r, s, t)


def _cup(eng, u, v, n):
    """u . v for level-n coordinate dicts: b_product extended bilinearly."""
    out = {}
    for rho, a in u.items():
        for sigma, b in v.items():
            row_add_scaled(out, eng.b_product(rho, sigma, n), a * b)
    return out


def _assert_sampled_associativity(eng, n, rs, ss, ts):
    """(b_r . b_s) . b_t = b_r . (b_s . b_t), each product through b_product."""
    for r in rs:
        for s in ss:
            for t in ts:
                u = _cup(eng, eng.b_product(r, s, n), {t: Q(1)}, n)
                v = _cup(eng, {r: Q(1)}, eng.b_product(s, t, n), n)
                assert u == v, (r, s, t)


def test_associativity_sampled_cotangent(engines):
    eng = engines("cotangent_g1")
    n = 3
    basis = eng.basis(n)
    sample = basis[:6] + basis[-4:]
    _assert_sampled_associativity(eng, n, sample[:5], sample[:5], sample[:3])


def test_associativity_sampled_level_four(engines):
    eng = engines("ale_2")
    n = 4
    basis = eng.basis(n)
    sample = [basis[1], basis[4], basis[len(basis) // 2], basis[-1]]
    _assert_sampled_associativity(eng, n, sample, sample[:3], sample[:2])


def test_fit_polynomial_insufficient_range(engines):
    eng = engines("toy_b2_1")
    rho = PartitionFunction({1: (1,)})
    with pytest.raises(EngineError):
        fit_polynomial_in_n(eng, rho, rho, PartitionFunction({}), [3, 4, 5])


def test_structure_table_shape_and_json(engines, models):
    eng = engines("ale_2")
    model = models("ale_2")
    table = eng.structure_constants(2)
    basis = eng.basis(2)
    assert set(table.entries) == {(r, s) for r in basis for s in basis}
    obj = json.loads(table.render(model))
    assert obj["n"] == 2 and obj["side"] == "hilbert" and "s" not in obj
    assert len(obj["table"]) == len(basis) ** 2


def test_memos_are_per_engine(models):
    """A repeated call returns the memoized object itself, and two engines
    on one model keep separate memos."""
    model = models("ale_2")
    first, second = RingEngine(model), RingEngine(model)
    rho = PartitionFunction({model.index_of("h1"): (1,)})
    expr = first.express(rho, 3)
    prod = first.b_product(rho, rho, 3)
    assert first.express(rho, 3) is expr
    assert first.b_product(rho, rho, 3) is prod
    again = second.b_product(rho, rho, 3)
    assert again == prod and again is not prod
    assert second.express(rho, 3) is not expr
    lehn = LehnEngine()
    unit = PartitionFunction({model.unit: (1,)})
    assert lehn.express(unit, 3, model.unit) is lehn.express(unit, 3, model.unit)
    assert LehnEngine().express(unit, 3, model.unit) is not \
        lehn.express(unit, 3, model.unit)


def test_failed_call_is_not_memoized(models):
    """A memoized method that raises stores nothing: the gate raises on
    every call."""
    eng = RingEngine(models("p2"))
    for _ in range(2):
        with pytest.raises(UnknownCoefficientsError):
            eng.operator(1, 0)


def test_n_independence_small(engines):
    rep = verify_n_independence(engines("c2"), [2, 3, 4])
    assert rep["ok"] and rep["triples_checked"] == 8
    rep = verify_n_independence(engines("ale_2"), [2, 3])
    assert rep["ok"]


def test_mod_h4_gates(models):
    with pytest.raises(ModelError):
        verify_mod_h4_independence(models("c2"), [2, 3])
    with pytest.raises(UnknownCoefficientsError):
        verify_mod_h4_independence(models("p2"), [2, 3])
    rep = verify_mod_h4_independence(models("toy_b2_1"), [2, 3])
    assert rep["ok"]


def test_lagrange_exact():
    pts = [(1, Q(1)), (2, Q(4)), (3, Q(9)), (5, Q(25))]
    coeffs = lagrange_coefficients(pts)
    assert coeffs == [Q(0), Q(0), Q(1)]
    assert poly_eval(coeffs, Q(7)) == Q(49)


def test_fit_polynomial_unit_row(engines, models):
    eng = engines("toy_b2_1")
    empty = PartitionFunction({})
    sigma = PartitionFunction({1: (1,)})
    rep = fit_polynomial_in_n(eng, empty, sigma, sigma, range(3, 10))
    assert rep["ok"] and rep["coefficients"] == ["1"]
    # degree-additivity mismatch gives the zero polynomial
    nu = PartitionFunction({2: (1,)})
    rep = fit_polynomial_in_n(eng, empty, sigma, nu, range(3, 10))
    assert rep["ok"] and rep["coefficients"] == []


def test_fit_polynomial_nontrivial(engines):
    eng = engines("toy_b2_1")
    rho = PartitionFunction({1: (1,)})
    empty = PartitionFunction({})
    rep = fit_polynomial_in_n(eng, rho, rho, empty, range(3, 10))
    assert rep["ok"]
    assert rep["degree"] <= rep["bound"]
    assert rep["extrapolation_checks"] >= 2


def test_polynomiality_gate(models):
    with pytest.raises(ModelError):
        verify_polynomiality(models("c2"), range(3, 10))


def per_triple_polynomiality(model, n_values, bound_max=4):
    """The reference sweep: fit_polynomial_in_n on every triple in basis
    order whose bound is in 0..bound_max and which has bound + 3 levels."""
    engine = RingEngine(model)
    ns = sorted(n_values)
    unit = model.unit
    base = [(rho, rho.cost(unit), rho.degree(model)) for rho in engine.basis(ns[0])]
    targets = {}
    for nu in engine.basis(ns[-1]):
        targets.setdefault(nu.degree(model), []).append((nu, nu.cost(unit)))
    witnesses = []
    fitted = 0
    for rho, rho_cost, rho_deg in base:
        for sigma, sigma_cost, sigma_deg in base:
            for nu, nu_cost in targets.get(rho_deg + sigma_deg, ()):
                bound = rho_cost + sigma_cost - nu_cost
                start = max(rho_cost, sigma_cost, nu_cost)
                if not 0 <= bound <= bound_max or \
                        sum(1 for n in ns if n >= start) < bound + 3:
                    continue
                rep = fit_polynomial_in_n(engine, rho, sigma, nu, ns)
                fitted += 1
                if not rep["ok"]:
                    witnesses.append({
                        "rho": rho.to_json(model), "sigma": sigma.to_json(model),
                        "nu": nu.to_json(model), "report": rep,
                    })
    return {"ok": not witnesses, "levels": ns, "triples_fitted": fitted,
            "witnesses": witnesses}


@pytest.mark.parametrize("name", ["toy_b2_1", "k3_like"])
def test_polynomiality_sweep_matches_per_triple_fits(models, name):
    ns = range(3, 7)
    assert verify_polynomiality(models(name), ns) == \
        per_triple_polynomiality(models(name), ns)


def test_polynomiality_reports_a_support_only_witness(models, monkeypatch):
    """A constant that is nonzero at one level only is reported, with the same
    witness bytes as the per-triple reference gives."""
    model = models("toy_b2_1")
    rho = PartitionFunction.from_json(model, {"h": [1]})
    nu = PartitionFunction.from_json(model, {"h": [2]})
    ns, bad = range(3, 8), 5
    b_product = RingEngine.b_product
    engine = RingEngine(model)
    assert all(nu not in b_product(engine, rho, rho, n) for n in ns)

    def perturbed(self, r, s, n):
        prods = b_product(self, r, s, n)
        if (r, s, n) == (rho, rho, bad):
            prods = {**prods, nu: prods.get(nu, Q(0)) + 1}
        return prods

    monkeypatch.setattr(RingEngine, "b_product", perturbed)
    got = verify_polynomiality(model, ns)
    want = per_triple_polynomiality(model, ns)
    assert not got["ok"] and got["triples_fitted"] == want["triples_fitted"]
    assert [(w["rho"], w["sigma"], w["nu"]) for w in got["witnesses"]] == \
        [({"h": [1]}, {"h": [1]}, {"h": [2]})]
    assert got == want
    assert json.dumps(got["witnesses"]) == json.dumps(want["witnesses"])


def test_ideal_suite_small(models):
    for name in ("ale_2", "c2"):
        rep = verify_ideal_suite(models(name), 2)
        assert rep["ok"], rep["witnesses"]
    rep = verify_ideal_suite(models("ale_2"), 3)
    assert rep["ok"] and rep["exact_generators"]
    rep = verify_ideal_suite(models("c2"), 3)
    assert rep["ok"] and not rep["exact_generators"]
    with pytest.raises(ModelError):
        verify_ideal_suite(models("toy_b2_1"), 2)


def test_ideal_suite_synthesized_h4(models):
    k3 = models("k3_like")
    rep = verify_ideal_suite(k3.with_ideal([k3.point], suffix="h4"), 3)
    assert rep["ok"] and rep["exact_generators"]


def test_literal_cup_absorption_k_trivial(models):
    """For a vanishing canonical class the ambient cup product is exactly
    computable, so the absorption can also be checked literally."""
    model = models("ale_2")
    eng = RingEngine(model.with_ideal([]))
    n = 2
    fock = eng.fock
    basis = eng.basis(n)
    ideal_rows = [rho for rho in basis
                  if any(c in model.ideal_pivots for c in rho.parts)]
    assert ideal_rows
    for rho in ideal_rows:
        for sigma in basis:
            prod = eng.product_vector(rho, sigma, n)
            reduced = FockVector({m: w for m, w in prod.terms.items()
                                  if not any(c in model.ideal_pivots
                                             for _, c in m)})
            assert reduced.is_zero()


def test_a_homomorphism_small(engines):
    rep = verify_a_homomorphism(engines("c2"), 2)
    assert rep["ok"], rep["witnesses"]
    rep = verify_a_homomorphism(engines("cotangent_g1"), 2)
    assert rep["ok"], rep["witnesses"]
    with pytest.raises(ModelError):
        verify_a_homomorphism(engines("toy_b2_1"), 2)


def test_doubled_point_annihilation_is_caught(models, monkeypatch):
    """A point annihilation that doubles its images fails every check built
    on it: the basis images and the ring homomorphism of a-homomorphism, and
    the tower of fh-ring."""
    real = FockSpace.annihilate_point
    monkeypatch.setattr(FockSpace, "annihilate_point",
                        lambda self, v: real(self, v).scaled(2))
    c2 = models("c2")
    eng = RingEngine(c2)
    rep = verify_a_homomorphism(eng, 2)
    assert not rep["ok"]
    images = [w["rho"] for w in rep["witnesses"] if w["part"] == "basis-image"]
    assert images == [rho.to_json(c2) for rho in eng.basis(2)]
    assert any(w["part"] == "ring-hom" for w in rep["witnesses"])
    rep = verify_fh_ring(c2, norm_bound=1, cost_bound=1)
    assert not rep["ok"]
    assert {w["part"] for w in rep["witnesses"]} == {"tower"}


def test_fh_ring_basics(engines, models):
    eng = engines("c2")
    fh = FHRing(eng, n_probe=3)
    b1 = fh.single(1, 0)
    prod = fh.mult(b1, b1)
    assert prod    # the stable square of the first symbol is nonzero
    # stable constants agree with every large-enough level
    for n in (4, 6):
        assert eng.b_product(b1, b1, n) == prod


def test_fh_odd_squares(models):
    rep = verify_fh_ring(models("cotangent_g1"), norm_bound=2, cost_bound=2)
    assert rep["ok"], rep["witnesses"]


def test_fh_ring_c2(models):
    rep = verify_fh_ring(models("c2"), norm_bound=4, cost_bound=4)
    assert rep["ok"]
    assert rep["monomials_checked"] == rep["independent"]


def test_monomial_vectors_prefix_sharing(engines):
    eng = engines("c2")
    rhos = eng.basis(4)
    vecs = monomial_vectors(eng, rhos, 6)
    # the empty product is the unit and single parts are the classes themselves
    assert vecs[PartitionFunction({})] == {PartitionFunction({}): Q(1)}
    single = PartitionFunction({0: (1,)})
    assert vecs[single] == {single: Q(1)}


def test_affine_plane_quotient_small(models):
    for name in ("k3_like", "toy_b2_1"):
        rep = verify_affine_plane_quotient(models(name), 3)
        assert rep["ok"], (name, rep["witnesses"])
    # a nonzero canonical class is fine here: it lies inside the full ideal
    rep = verify_affine_plane_quotient(models("p2"), 3)
    assert rep["ok"], rep["witnesses"]


def test_lehn_correspondence_c2(engines, models):
    """The polynomial image of multiplication by the degree-k class of the
    unit equals the differential operator, on every basis class at n <= 6."""
    from hilbfock.vertex import lehn_apply, phi_map
    eng = engines("c2")
    model = models("c2")
    for n in range(0, 7):
        for rho in eng.basis(n):
            v = eng.fock.b_class(rho, n)
            for k in range(min(n, 4)):
                shifted = eng.fock_vector(
                    eng.word_on_basis(((k, model.unit),), rho, n), n)
                assert phi_map(shifted, model) == lehn_apply(k, phi_map(v, model))


def test_incoherent_euler_class_rejected_for_ambient_ring(models):
    """An ambient-side engine refuses a declared Euler class that differs from
    the pairing self-intersection (the multiplication operators would fail to
    commute); quotients that absorb the discrepancy still work."""
    from hilbfock.surface import SurfaceModel
    obj = json.loads(json.dumps(models("k3_like").to_json()))
    obj["euler"] = [{"name": "x", "coeff": "24"}]
    warped = SurfaceModel.from_json(obj)
    with pytest.raises(ModelError):
        RingEngine(warped)
    quotient = warped.with_ideal([warped.point], suffix="h4")
    rep = verify_n_independence(RingEngine(quotient), [2, 3])
    assert rep["ok"]


def test_model_mismatch_detected(models):
    from hilbfock.surface import GradedClass
    toy = models("toy_b2_1")
    alien = GradedClass({7: Q(1)})
    with pytest.raises(ModelError):
        toy.mul(toy.basis_class(0), alien)


def test_lehn_engine_matches_examples(models):
    lehn = LehnEngine()
    model = models("c2")
    unit = model.unit
    rho = PartitionFunction({unit: (1,)})
    expr = lehn.express(rho, 3, unit)
    assert set(expr) == {(1,)}
    prod = lehn.b_product(rho, rho, 4, unit)
    assert prod  # nonzero stable square, matching the Fock side
    eng = RingEngine(model)
    assert eng.b_product(rho, rho, 4) == prod
