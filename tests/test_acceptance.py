"""Acceptance suite: every criterion runs at its stated bounds with exact
(zero-tolerance) rational equality, and reports one pass/fail line in the
terminal summary."""

from conftest import record_criterion
from hilbfock.fock import FockSpace, verify_heisenberg
from hilbfock.models import BUILTIN
from hilbfock.ring import (RingEngine, verify_a_homomorphism,
                           verify_affine_plane_quotient, verify_fh_ring,
                           verify_ideal_suite,
                           verify_mod_h4_independence, verify_n_independence,
                           verify_polynomiality, verify_ring_isomorphism)
from hilbfock.vertex import verify_lemma_ks, verify_nonsense1


def test_criterion_01_heisenberg_relations(models):
    """Bracket relation on every built-in model: all basis label pairs,
    |m|, |n| <= 4, against every monomial of weight <= 5."""
    failures = {}
    for name in BUILTIN:
        rep = verify_heisenberg(FockSpace(models(name)), max_weight=5, max_index=4)
        if not rep["ok"]:
            failures[name] = rep["witnesses"][:3]
    record_criterion(1, "Heisenberg commutation relations", not failures,
                     f"models={len(BUILTIN)}")
    assert not failures, failures


def test_criterion_02_transposition_oracle(models):
    """Both parts of the transposition/contraction oracle on every instance
    with k+s <= 5 and index weight <= 5, odd classes included."""
    reports = {name: verify_lemma_ks(models(name), ksum_max=5, weight_max=5)
               for name in ("toy_b2_1", "cotangent_g1")}
    ok = all(r["ok"] for r in reports.values())
    checked = sum(r["instances_checked"] for r in reports.values())
    record_criterion(2, "transposition/contraction oracle", ok,
                     f"{checked} checks")
    assert ok, {k: r["witnesses"] for k, r in reports.items() if not r["ok"]}
    assert {k: r["instances_checked"] for k, r in reports.items()} == {
        "toy_b2_1": 81480, "cotangent_g1": 754908}


def test_criterion_03_expansion_oracle(models):
    """Direct operator application equals the increasing-map expansion for
    k <= 2, b <= 3, n <= 4 (even and odd coefficient classes)."""
    reports = {name: verify_nonsense1(models(name), k_max=2, b_max=3, n_max=4)
               for name in ("toy_b2_1", "odd_toy")}
    ok = all(r["ok"] for r in reports.values())
    checked = sum(r["instances_checked"] for r in reports.values())
    record_criterion(3, "increasing-map expansion oracle", ok,
                     f"{checked} instances")
    assert ok, {k: r["witnesses"] for k, r in reports.items() if not r["ok"]}


def test_criterion_04_ideal_suite(models):
    """The induced subspace absorbs products, contains the distinguished
    classes of ideal arguments, and equals the span they generate (exact rank
    per degree), n <= 4, for every ideal model and the synthesized top-degree
    ideal."""
    k3 = models("k3_like")
    targets = {
        "c2": models("c2"),
        "ale_2": models("ale_2"),
        "cotangent_g1": models("cotangent_g1"),
        "k3_like+h4": k3.with_ideal([k3.point], suffix="h4"),
    }
    failures = {}
    for name, model in targets.items():
        rep = verify_ideal_suite(model, [2, 3, 4])
        if not rep["ok"]:
            failures[name] = rep["witnesses"][:3]
    record_criterion(4, "ideal absorption/membership/generation", not failures)
    assert not failures, failures


def test_criterion_05_n_independence(engines, models):
    """Quotient structure constants are level-independent: c2 at 2..6, ale_2
    and cotangent at 2..4; projective top-degree quotient at 2..5."""
    failures = {}
    reports = {
        "c2": verify_n_independence(engines("c2"), range(2, 7)),
        "ale_2": verify_n_independence(engines("ale_2"), range(2, 5)),
        "cotangent_g1": verify_n_independence(engines("cotangent_g1"),
                                              range(2, 5)),
        "k3_like mod H4": verify_mod_h4_independence(models("k3_like"),
                                                     range(2, 6)),
    }
    for name, rep in reports.items():
        if not rep["ok"]:
            failures[name] = rep["witnesses"][:3]
    checked = sum(r["triples_checked"] for r in reports.values())
    record_criterion(5, "level-independence of structure constants",
                     not failures, f"{checked} triples")
    assert not failures, failures


def test_criterion_06_polynomiality(models):
    """Structure constants of K-trivial projective models are polynomials in
    the level within the stated degree bound; exact interpolation plus at
    least two exact extrapolation checks per triple."""
    failures = {}
    fitted = 0
    for name in ("k3_like", "toy_b2_1"):
        rep = verify_polynomiality(RingEngine(models(name)), range(3, 10))
        fitted += rep["triples_fitted"]
        if not rep["ok"]:
            failures[name] = rep["witnesses"][:3]
    record_criterion(6, "polynomiality in the level", not failures,
                     f"{fitted} triples fitted")
    assert not failures, failures


def test_criterion_07_stable_ring(models, engines):
    """The stable ring: generation by one-part symbols, exact-rank linear
    independence of their monomials up to total size 5, vanishing odd squares;
    the point-annihilation map is a surjective ring homomorphism on all basis
    pairs at n <= 4 and the evaluation tower commutes."""
    failures = {}
    for name in ("c2", "cotangent_g1"):
        rep = verify_fh_ring(RingEngine(models(name)), norm_bound=5)
        if not rep["ok"]:
            failures[(name, "fh")] = rep["witnesses"][:3]
        rep = verify_a_homomorphism(engines(name), [1, 2, 3, 4])
        if not rep["ok"]:
            failures[(name, "A")] = rep["witnesses"][:3]
    record_criterion(7, "stable ring and point-annihilation tower",
                     not failures)
    assert not failures, failures


def test_criterion_08_affine_plane_quotient(models):
    """The quotient by the positive-degree ideal matches the independent
    differential-operator route on polynomials for n <= 6, including the
    one-term normal forms of the distinguished classes for all k < n."""
    rep = verify_affine_plane_quotient(models("k3_like"), range(1, 7))
    record_criterion(8, "affine-plane quotient ring", rep["ok"])
    assert rep["ok"], rep["witnesses"][:3]


def test_criterion_09_ring_isomorphism(models):
    """At s = -1 the relabelling map is a ring isomorphism: exact table
    equality (c2 up to level 5; ale_2 and cotangent up to level 3), the
    deformed distinguished classes map to their namesakes for all k < n, and
    every canonical-family term vanishes under reduction."""
    failures = {}
    plans = {"c2": (1, 2, 3, 4, 5), "ale_2": (1, 2, 3), "cotangent_g1": (1, 2, 3)}
    for name, levels in plans.items():
        rep = verify_ring_isomorphism(models(name), levels)
        if not rep["ok"]:
            failures[name] = rep["witnesses"][:3]
    record_criterion(9, "deformed/undeformed ring isomorphism at s=-1",
                     not failures)
    assert not failures, failures


def test_criterion_10_degree_and_sign_audits(engines, models):
    """Degree additivity and super-commutativity signs hold in every computed
    table.  Both are also enforced as always-on assertions inside the product
    pipeline; this re-audits the computed tables explicitly."""
    failures = []
    plans = {"c2": range(1, 7), "ale_2": range(1, 5), "cotangent_g1": range(1, 5),
             "toy_b2_1": range(1, 5)}
    for name, levels in plans.items():
        eng = engines(name)
        model = models(name)
        for n in levels:
            table = eng.structure_constants(n)
            for rho, sigma in ((r, s) for r in table.basis for s in table.basis):
                prods = table.get(rho, sigma)
                dsum = rho.degree(model) + sigma.degree(model)
                sign = -1 if (rho.degree(model) % 2 and sigma.degree(model) % 2) else 1
                mirror = table.get(sigma, rho)
                if {nu: c * sign for nu, c in mirror.items()} != prods:
                    failures.append((name, n, "sign", rho.key(), sigma.key()))
                for nu, c in prods.items():
                    if nu.degree(model) != dsum:
                        failures.append((name, n, "degree", nu.key()))
    record_criterion(10, "degree additivity and super-sign audits",
                     not failures)
    assert not failures, failures[:5]
