"""The deformed bracket, the deformed operators, and the ring comparison."""

import pytest

from conftest import reduce
from hilbfock.errors import EngineError, ModelError, UnknownCoefficientsError
from hilbfock.fock import FockSpace
from hilbfock.partitions import PartitionFunction
from hilbfock.rational import Q
from hilbfock.ring import (RingEngine, verify_a_homomorphism, verify_marker_vanishing,
                           verify_n_independence, verify_ring_isomorphism)
from hilbfock.vertex import apply_operator, chern_class, chern_operator


def test_param(models):
    """One flavour value: None is the Hilbert side, a rational s the deformed
    side with bracket scale s; s = 0 is refused."""
    model = models("toy_b2_1")
    hilb = FockSpace(model)
    assert hilb.s is None and hilb.kappa == Q(-1)
    deformed = FockSpace(model, Q(2, 3))
    assert deformed.s == deformed.kappa == Q(2, 3)
    assert FockSpace(model, -1).s == Q(-1)
    assert RingEngine(model).side == "hilbert"
    assert RingEngine(model, Q(2, 3)).side == "orbifold"
    with pytest.raises(EngineError):
        FockSpace(model, 0)
    with pytest.raises(EngineError):
        RingEngine(model, Q(0))


def test_deformed_bracket(models):
    model = models("toy_b2_1")
    h = model.basis_class(1)
    for s in (Q(-1), Q(1), Q(5, 2)):
        f = FockSpace(model, s)
        v = f.apply_heisenberg(-1, h, f.vacuum())
        # single contraction: s * 1 * int(h.h)
        assert f.apply_heisenberg(1, h, v) == f.vacuum().scaled(s)
    # s = -1 agrees with the undeformed engine on a composite input
    fh = FockSpace(model)
    fo = FockSpace(model, Q(-1))
    v = fh.unit(3)
    for idx in (1, -2, 2):
        assert fh.apply_heisenberg(idx, h, v) == fo.apply_heisenberg(idx, h, v)


def test_operator_has_no_canonical_terms(models):
    c2 = models("c2")
    deformed = FockSpace(c2, Q(-1))
    for k in range(3):
        for c in range(c2.dim):
            op = chern_operator(deformed, k, c2.basis_class(c))
            assert not op.has_unknown_terms
    # on a K-trivial model both operators are termwise identical
    k3 = models("k3_like")
    for k in range(3):
        a = chern_operator(FockSpace(k3), k, k3.basis_class(0))
        b = chern_operator(FockSpace(k3, Q(-1)), k, k3.basis_class(0))
        assert [(f.ell, f.tag, f.cls) for f in a.families] == \
            [(f.ell, f.tag, f.cls) for f in b.families]


def test_pullback_compatibility(models):
    """Reducing the deformed class of an ambient argument equals the class of
    the reduced argument."""
    cot = models("cotangent_g1")
    f = FockSpace(cot, Q(-1))
    mixed = cot.basis_class(cot.index_of("f")) + cot.basis_class(cot.index_of("s"))
    for k in range(3):
        upstairs = reduce(f, chern_class(f, k, mixed, 3))
        downstairs = reduce(f, chern_class(f, k, cot.reduce_class(mixed), 3))
        assert upstairs == downstairs, k


def test_single_deformed_operator_helper(models):
    """chern_class on a deformed Fock space is the deformed engine's
    generator on the unit."""
    model = models("toy_b2_1")
    orb = RingEngine(model, Q(2))
    for k in range(3):
        for c in range(model.dim):
            for n in (1, 3):
                assert chern_class(orb.fock, k, model.basis_class(c), n) == \
                    orb.fock_vector(orb.word_on_basis(
                        ((k, c),), PartitionFunction.EMPTY, n), n)


def test_level_one_is_surface_and_s_independent(models):
    ale = models("ale_2")
    t1 = RingEngine(ale, Q(1)).structure_constants(1)
    t2 = RingEngine(ale, Q(-1)).structure_constants(1)
    t3 = RingEngine(ale, Q(3, 5)).structure_constants(1)
    def entries(table):
        return {(r, s): table.get(r, s) for r in table.basis for s in table.basis}

    assert entries(t1) == entries(t2) == entries(t3)
    hil = RingEngine(ale).structure_constants(1)
    assert entries(t1) == entries(hil)


def test_bracket_scaling(models):
    model = models("ale_2")
    h = model.basis_class(1)
    v1 = FockSpace(model, Q(1))
    v5 = FockSpace(model, Q(5))
    base = v1.apply_heisenberg(-2, h, v1.vacuum())
    a = v1.apply_heisenberg(2, h, base)
    b = v5.apply_heisenberg(2, h, base)
    assert b == a.scaled(5)


def test_deformed_tables_differ_away_from_minus_one(models):
    """The deformation is not vacuous: on the A_2 model the square of the
    shifted unit symbol scales like 1/s."""
    ale = models("ale_2")
    rho = PartitionFunction({0: (1,)})
    p_minus = RingEngine(ale, Q(-1)).b_product(rho, rho, 2)
    p_plus = RingEngine(ale, Q(1)).b_product(rho, rho, 2)
    p_two = RingEngine(ale, Q(2)).b_product(rho, rho, 2)
    assert p_minus != p_plus
    assert p_two == {nu: c * Q(-1, 2) for nu, c in p_minus.items()}


def test_ring_isomorphism_c2(models):
    rep = verify_ring_isomorphism(models("c2"), [2])
    assert rep["ok"], rep["witnesses"]
    rep = verify_ring_isomorphism(models("c2"), [3])
    assert rep["ok"]


def test_ring_isomorphism_catches_a_distinguished_class_mismatch(models, monkeypatch):
    """Doubling the deformed generator G_1(1) on the unit monomial alone is
    reported as part theta-class, the product check at sigma = empty."""
    import hilbfock.ring as ring
    model = models("c2")
    unit_mono = ((1, model.unit),) * 2
    real = ring.operator_int

    def doubled_on_unit(fock, op, terms, drop=frozenset()):
        out, den, markers = real(fock, op, terms, drop)
        if fock.s is not None and op.k == 1 and terms == {unit_mono: 1}:
            out = {m: 2 * c for m, c in out.items()}
        return out, den, markers

    monkeypatch.setattr(ring, "operator_int", doubled_on_unit)
    rep = verify_ring_isomorphism(model, [2])
    assert not rep["ok"]
    assert {"part": "theta-class", "k": 1, "alpha": "1"} in rep["witnesses"]
    assert all(w.get("sigma") != {} for w in rep["witnesses"])


def test_ring_isomorphism_projective_k_trivial(models):
    for n in (2, 3):
        rep = verify_ring_isomorphism(models("k3_like"), [n])
        assert rep["ok"], (n, rep["witnesses"])


def test_deformed_operators_supercommute(models):
    """The deformed degree-shift operators super-commute as multiplication
    operators, at a generic parameter value; toy_b2_1 (e = 3x) exercises the
    s-dependent Euler family."""
    for name, k_max in (("odd_toy", 1), ("toy_b2_1", 2)):
        model = models(name)
        f = FockSpace(model, Q(5, 3))
        vecs = [f.unit(3), f.apply_heisenberg(-2, model.basis_class(2), f.unit(1)),
                f.apply_heisenberg(-1, model.basis_class(1), f.unit(2))]

        def act(op, v, f=f):
            known, markers = apply_operator(f, op, v)
            assert not markers
            return known

        for k1 in range(k_max + 1):
            for k2 in range(k_max + 1):
                for c1 in range(model.dim):
                    for c2 in range(model.dim):
                        op1 = chern_operator(f, k1, model.basis_class(c1))
                        op2 = chern_operator(f, k2, model.basis_class(c2))
                        sign = (-1) ** (model.parities[c1] * model.parities[c2])
                        for v in vecs:
                            assert act(op1, act(op2, v)) == \
                                act(op2, act(op1, v)).scaled(sign), (name, k1, k2, c1, c2)


def test_deformed_table_is_associative(models):
    """The deformed product at s = 1/2 on toy_b2_1 (e = 3x, no ideal) is
    associative, judged from the structure constants alone."""
    engine = RingEngine(models("toy_b2_1"), Q(1, 2))
    table = engine.structure_constants(3)
    basis = engine.basis(3)

    def mul(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for nu, c in table.get(a, b).items():
                    out[nu] = out.get(nu, 0) + ca * cb * c
        return {nu: c for nu, c in out.items() if c}

    for a in basis:
        for b in basis:
            ab = mul({a: 1}, {b: 1})
            for c in basis:
                assert mul(ab, {c: 1}) == mul({a: 1}, mul({b: 1}, {c: 1})), (a, b, c)


def test_ring_isomorphism_gate(models):
    with pytest.raises(UnknownCoefficientsError):
        verify_ring_isomorphism(models("p2"), [2])


def test_orb_n_independence(models):
    rep = verify_n_independence(RingEngine(models("ale_2"), Q(1)), [2, 3])
    assert rep["ok"], rep["witnesses"]
    rep = verify_n_independence(RingEngine(models("c2"), Q(-1)), [2, 3, 4])
    assert rep["ok"]
    with pytest.raises(ModelError):
        verify_n_independence(RingEngine(models("k3_like"), Q(-1)), [2, 3])


def test_n_independence_names_s_on_the_deformed_side(models):
    c2 = models("c2")
    assert verify_n_independence(RingEngine(c2, Q(2, 4)), [2, 3])["s"] == "1/2"
    assert "s" not in verify_n_independence(RingEngine(c2), [2, 3])
    with pytest.raises(ModelError, match="on the deformed side needs an ideal model"):
        verify_n_independence(RingEngine(models("k3_like"), Q(-1)), [2, 3])


def test_ring_isomorphism_builds_one_fock_space_per_side(models, monkeypatch):
    """The marker check reads the Hilbert engine's Fock space and operators
    instead of building a third space."""
    built = []
    init = FockSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockSpace, "__init__", counted)
    assert verify_ring_isomorphism(models("c2"), [2])["ok"]
    assert len(built) == 2


def test_marker_vanishing(models):
    rep = verify_marker_vanishing(RingEngine(models("c2")), 3)
    assert rep["ok"] and rep["terms_checked"] > 0
    rep = verify_marker_vanishing(RingEngine(models("ale_2")), 3)
    assert rep["ok"] and rep["terms_checked"] == 0   # K = 0: nothing to check
    with pytest.raises(ModelError, match="Hilbert side"):
        verify_marker_vanishing(RingEngine(models("c2"), -1), 3)
    with pytest.raises(UnknownCoefficientsError):
        verify_marker_vanishing(RingEngine(models("cotangent_g1").with_ideal(
            [models("cotangent_g1").point], suffix="tiny")), 2)


@pytest.mark.parametrize("s", [Q(2, 3), Q(5), Q(-7, 2)])
@pytest.mark.parametrize("name", ["c2", "ale_2", "cotangent_g1"])
def test_point_annihilation_is_a_homomorphism_on_the_deformed_side(models, name, s):
    """kappa^{-1} a_1([x]) sends the deformed level unit to the level unit
    and each class to its namesake, and is a ring homomorphism, for every
    deformation parameter, not only s = -1."""
    rep = verify_a_homomorphism(RingEngine(models(name), s), [1, 2, 3])
    assert rep["ok"], rep["witnesses"][:3]
