"""Frobenius-model invariants, diagonal pushforwards, and the model format."""

import json

import pytest

from hilbfock.errors import ModelError
from hilbfock.models import BUILTIN, builtin_model
from hilbfock.rational import Q
from hilbfock.surface import BasisElement, GradedClass, SurfaceModel, validate_model

ALL = list(BUILTIN)


def brute_force_tau2(model):
    """Solve the defining pairing identity for tau_2*(1) coefficient by
    coefficient; independent of the dual-basis construction."""
    dim = model.dim
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    # unknowns g[(i,j)]; equations indexed by basis pairs (a, b)
    rows = []
    rhs = []
    for a in range(dim):
        for b in range(dim):
            row = {}
            for (i, j) in pairs:
                sign = -1 if (model.parities[j] and model.parities[a]) else 1
                coeff = sign * model.pairing[i][a] * model.pairing[j][b]
                if coeff:
                    row[(i, j)] = coeff
            rows.append(row)
            rhs.append(model.pairing[a][b])
    # dense Gaussian elimination over the pair index set
    cols = sorted(set(k for row in rows for k in row))
    col_pos = {c: k for k, c in enumerate(cols)}
    mat = [[row.get(c, Q(0)) for c in cols] + [r] for row, r in zip(rows, rhs)]
    sol = {}
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Q(1) / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    for r in range(rank):
        lead = next(c for c in range(len(cols)) if mat[r][c])
        sol[cols[lead]] = mat[r][-1]
    for r in range(rank, len(mat)):
        assert not mat[r][-1], "pairing identity is inconsistent"
    return {k: v for k, v in sol.items() if v}


@pytest.mark.parametrize("name", ALL)
def test_builtin_models_validate(name, models):
    assert validate_model(models(name)) == []


def test_euler_consistency_flag(models):
    # every built-in is coherent: declared Euler class = pairing self-intersection
    for name in ALL:
        assert validate_model(models(name), check_euler=True) == []
    # an incoherent Euler class is a warning, not an error
    obj = builtin_model("k3_like").to_json()
    obj["euler"] = [{"name": "x", "coeff": "24"}]
    warped = SurfaceModel.from_json(obj)
    assert validate_model(warped) == []
    diags = validate_model(warped, check_euler=True)
    assert any(d.startswith("warning:") for d in diags)


@pytest.mark.parametrize("name", ALL)
def test_tau2_matches_brute_force(name, models):
    model = models(name)
    want = brute_force_tau2(model)
    got = {}
    for (i, j), w in model.tau_basis(model.unit, 2).items():
        got[(i, j)] = got.get((i, j), Q(0)) + w
    assert {k: v for k, v in got.items() if v} == want


def test_tau2_p2_example(models):
    model = models("toy_b2_1")
    got = sorted((model.basis[i].name, model.basis[j].name, str(w))
                 for (i, j), w in model.tau_basis(model.unit, 2).items())
    assert got == [("1", "x", "1"), ("h", "h", "1"), ("x", "1", "1")]


def test_tau1_is_identity(models):
    model = models("ale_2")
    cls = GradedClass({1: Q(2), 3: Q(-5)})
    assert model.diagonal_pushforward(cls, 1) == [(Q(2), (1,)), (Q(-5), (3,))]


def test_tau2_point_class(models):
    model = models("toy_b2_1")
    terms = model.diagonal_pushforward(model.basis_class(model.point), 2)
    assert terms == [(Q(1), (model.point, model.point))]


@pytest.mark.parametrize("name", ALL)
def test_pairing_identity_all_k(name, models):
    """Contracting the last slot of tau_k(1) against a class recovers tau_{k-1}
    up to the multiplication used in the recursion; spot-check k = 2 identity
    integral form for all basis pairs."""
    model = models(name)
    dim = model.dim
    for a in range(dim):
        for b in range(dim):
            total = Q(0)
            for (i, j), w in model.tau_basis(model.unit, 2).items():
                sign = -1 if (model.parities[j] and model.parities[a]) else 1
                total += w * sign * model.pairing[i][a] * model.pairing[j][b]
            assert total == model.pairing[a][b]


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pushforward_degree_dichotomy(name, k, models):
    """Every summand of tau_k(alpha) has a degree-4 slot or all slots of
    degree strictly between 0 and 4 (homogeneous alpha)."""
    model = models(name)
    for b in range(model.dim):
        for slots in model.tau_basis(b, k):
            degs = [model.degrees[c] for c in slots]
            assert 4 in degs or all(0 < d < 4 for d in degs), (name, b, k, slots)


@pytest.mark.parametrize("name", ["c2", "ale_2", "cotangent_g1"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pushforward_of_ideal_class_stays_in_ideal(name, k, models):
    model = models(name)
    for b in sorted(model.ideal_pivots):
        for slots in model.tau_basis(b, k):
            assert any(c in model.ideal_pivots for c in slots)


def test_total_tau2_contraction_is_euler_number(models):
    for name in ALL:
        model = models(name)
        formal = model.euler_from_pairing()
        b1 = sum(1 for d in model.degrees if d == 1)
        b2 = sum(1 for d in model.degrees if d == 2)
        b3 = sum(1 for d in model.degrees if d == 3)
        chi = 2 - b1 + b2 - b3
        assert model.integrate(formal) == Q(chi), name


def test_mul_examples(models):
    model = models("toy_b2_1")
    one, h, x = (model.basis_class(i) for i in range(3))
    assert model.mul(one, h) == h
    assert model.mul(x, h).is_zero()
    assert model.mul(h, h) == x
    assert model.integrate(x) == Q(1)
    assert model.integrate(one) == Q(0)
    assert model.integrate(x.scaled(3) + h) == Q(3)


def test_reduce_class(models):
    c2 = models("c2")
    one, h, x = (c2.basis_class(i) for i in range(3))
    assert c2.reduce_class(h).is_zero()
    assert c2.reduce_class(x).is_zero()
    assert c2.reduce_class(one) == one
    assert c2.reduce_class(one.scaled(2) + h.scaled(5)) == one.scaled(2)
    with pytest.raises(ModelError):
        models("p2").reduce_class(h)


def test_ideal_saturation_adds_products():
    obj = json.loads(json.dumps(builtin_model("c2").to_json()))
    obj["ideal"] = [[{"name": "h", "coeff": "1"}]]  # x must be added by closure
    model = SurfaceModel.from_json(obj)
    assert sorted(model.ideal_pivots) == [1, 2]
    assert validate_model(model) == []


def test_misaligned_ideal_rejected():
    obj = builtin_model("ale_2").to_json()
    obj["ideal"] = [[{"name": "h1", "coeff": "1"}, {"name": "h2", "coeff": "1"}]]
    with pytest.raises(ModelError):
        SurfaceModel.from_json(obj)


def test_degenerate_pairing_reported():
    basis = [BasisElement("1", 0), BasisElement("h", 2), BasisElement("x", 4)]
    model = SurfaceModel(basis, {}, 0, 2, GradedClass(), GradedClass())
    diags = validate_model(model)
    assert any("degenerate" in d for d in diags)


def test_gram_inv_inverts_pairing(models):
    for name in ALL:
        model = models(name)
        dim = model.dim
        product = [[sum(model.gram_inv[i][k] * model.pairing[k][j] for k in range(dim))
                    for j in range(dim)] for i in range(dim)]
        assert product == [[Q(int(i == j)) for j in range(dim)] for i in range(dim)], name
    # h.h = 0 leaves the row of h zero: no inverse, and validation says so
    basis = [BasisElement("1", 0), BasisElement("h", 2), BasisElement("x", 4)]
    model = SurfaceModel(basis, {}, 0, 2, GradedClass(), GradedClass())
    assert model.gram_inv is None
    assert "Frobenius pairing degenerate" in validate_model(model)


def test_nonassociative_table_reported():
    basis = [BasisElement("1", 0), BasisElement("h", 2), BasisElement("x", 4)]
    products = {(1, 1): {2: Q(1)}, (1, 2): {}, (2, 1): {}}
    good = SurfaceModel(basis, products, 0, 2, GradedClass(), GradedClass())
    assert validate_model(good) == []
    # break associativity: (h*h)*h = x*h = h but h*(h*h) = h*x = 0
    bad_products = {(1, 1): {2: Q(1)}, (2, 1): {1: Q(1)}, (1, 2): {1: Q(1)}}
    bad = SurfaceModel(basis, bad_products, 0, 2, GradedClass(), GradedClass())
    diags = validate_model(bad)
    assert any("associativity" in d or "degree" in d for d in diags)


def test_json_roundtrip(models):
    for name in ALL:
        model = models(name)
        clone = SurfaceModel.from_json(json.loads(json.dumps(model.to_json())))
        assert clone.content_hash == model.content_hash
        assert clone.table == model.table


def test_with_ideal_synthesis(models):
    k3 = models("k3_like")
    q = k3.with_ideal([k3.point], suffix="h4")
    assert q.ideal_pivots == frozenset({k3.point})
    full = k3.with_ideal([i for i in range(k3.dim) if k3.degrees[i] > 0])
    assert sorted(full.ideal_pivots) == [1, 2, 3]
    assert full.working_classes() == [0]


def test_engines_refuse_invalid_models(models, monkeypatch):
    """A Fock space validates its model once per model object and refuses one
    that fails validation."""
    from hilbfock.fock import FockSpace
    obj = json.loads(json.dumps(models("c2").to_json()))
    obj["products"][0]["result"].append({"name": "h", "coeff": "1"})
    bad = SurfaceModel.from_json(obj)
    with pytest.raises(ModelError, match="not homogeneous"):
        FockSpace(bad)
    good = SurfaceModel.from_json(models("c2").to_json())
    calls = []
    real = SurfaceModel.validate
    monkeypatch.setattr(SurfaceModel, "validate",
                        lambda self, **kw: calls.append(self) or real(self, **kw))
    FockSpace(good)
    FockSpace(good, 2)
    assert calls == [good]


def test_int_tensor_is_memoized_per_model(monkeypatch):
    model = builtin_model("ale_2")
    built = []
    pushforward = model.diagonal_pushforward
    monkeypatch.setattr(model, "diagonal_pushforward",
                        lambda a, k: built.append(k) or pushforward(a, k))
    cls = GradedClass({1: Q(2), 3: Q(-1, 3)})
    den, tensor = first = model.int_tensor(cls, 3)
    assert [(Q(num, den), slots) for num, slots in tensor] == pushforward(cls, 3)
    assert all(type(num) is int for num, _ in tensor)
    assert model.int_tensor(GradedClass({3: Q(-1, 3), 1: Q(2)}), 3) is first
    assert model.int_tensor(cls, 2) is not first
    assert built == [3, 2]

    quotient = model.with_ideal([model.point], suffix="h4")
    own = quotient.int_tensor(cls, 3)
    assert own is not first and own == first
    assert quotient.int_tensor(cls, 3) is own
    assert built == [3, 2]
