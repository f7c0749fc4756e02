"""Cup products, generator expressions, stable-ring structure, verifiers."""

import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduce
from hilbfock.errors import (EngineError, ModelError, UnknownCoefficientsError,
                             WeightError)
from hilbfock.fock import FockSpace, FockVector
from hilbfock.linalg import combine, row_add_scaled
from hilbfock.models import BUILTIN
from hilbfock.partitions import PartitionFunction
from hilbfock.rational import Q
from hilbfock.ring import (LehnEngine, RingEngine, fit_polynomial_in_n, fit_report, fits_in_integers,
                           lagrange_coefficients,
                           monomial_vectors, poly_eval,
                           verify_a_homomorphism,
                           verify_affine_plane_quotient, verify_fh_ring,
                           verify_ideal_suite, verify_mod_h4_independence,
                           verify_n_independence,
                           verify_polynomiality, verify_ring_isomorphism)
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
        assert eng.fock_vector(eng.product_index(rho, PartitionFunction.EMPTY, n),
                               n) == eng.fock.b_class(rho, n)


def test_express_roundtrip_everywhere(engines):
    for name, nmax in (("toy_b2_1", 4), ("ale_2", 3), ("c2", 5), ("odd_toy", 4)):
        eng = engines(name)
        for n in range(nmax + 1):
            for rho in eng.basis(n):
                # the words of the expression, applied to the unit, give b_rho(n)
                assert eng.fock_vector(eng.product_index(
                    rho, PartitionFunction.EMPTY, n), n) == eng.fock.b_class(rho, n), \
                    (name, n, rho)


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


@pytest.mark.parametrize("s", [None, Q(2)])
@pytest.mark.parametrize("name", BUILTIN)
def test_index_vectors_are_basis_coordinates(models, name, s):
    """A level-n index vector is sum(terms[i] * b_i(n)) / den: b_j(n) is
    ({j: 1}, 1) as the empty word's image and as the index vector of its
    Fock class, and fock_vector and index_vector are inverse, on every
    built-in model, on both sides, at every level up to 3."""
    eng = RingEngine(models(name), s)
    for n in range(4):
        basis = eng.basis(n)
        mixed = FockVector()
        for j, rho in enumerate(basis):
            unit, v = ({j: 1}, 1), eng.fock.b_class(rho, n)
            assert eng.word_on_basis((), rho, n) == unit
            assert eng.index_vector(v, n) == unit
            assert eng.fock_vector(unit, n) == v
            mixed = mixed + v.scaled(Q(j + 1, j + 2))
        vec = eng.index_vector(mixed, n)
        assert vec == ({j: Q(j + 1, j + 2) * vec[1] for j in range(len(basis))}, vec[1])
        assert eng.fock_vector(vec, n) == mixed
        assert eng.index_vector(eng.fock_vector(vec, n), n) == vec


@pytest.mark.parametrize("s", [None, Q(2)])
@pytest.mark.parametrize("name", BUILTIN)
def test_each_basis_begins_with_the_one_below(models, name, s):
    """basis(n) begins with the very objects of basis(n - 1), so index i
    names one class at every level from its cost on: on every built-in
    model, on both sides, at every level up to 5."""
    eng = RingEngine(models(name), s)
    for n in range(1, 6):
        lower, upper = eng.basis(n - 1), eng.basis(n)
        assert len(upper) >= len(lower)
        assert all(a is b for a, b in zip(lower, upper[:len(lower)])), (name, n)


def test_a_basis_that_does_not_extend_the_one_below_is_refused(models, monkeypatch):
    """An enumeration whose level-n list does not begin with level n - 1's
    would let one index name two classes: basis refuses it."""
    from hilbfock import ring
    real = ring.enumerate_partition_functions
    monkeypatch.setattr(ring, "enumerate_partition_functions",
                        lambda model, n: real(model, n)[::-1])
    eng = RingEngine(models("toy_b2_1"))
    with pytest.raises(EngineError, match="level-1 basis does not begin with level 0"):
        eng.basis(2)


@pytest.mark.parametrize("name, n, s", [("c2", 4, None), ("toy_b2_1", 3, None),
                                        ("odd_toy", 3, None), ("cotangent_g1", 3, None),
                                        ("ale_2", 3, Q(2))])
def test_generator_on_reads_the_one_letter_images(models, name, n, s):
    """The engine keeps one image per (word, basis class): once a table is
    built, generator_on on b_j(n) is the one-letter word's image of b_j(n)
    on every filled column, and no second per-generator table exists."""
    eng = RingEngine(models(name), s)
    eng.structure_constants(n)
    filled = 0
    for (word, m), images in RingEngine.word_images.table(eng).items():
        if len(word) == 1 and m == n:
            for j, image in enumerate(images):
                if image is not None:
                    filled += 1
                    assert eng.generator_on(word[0], ({j: 1}, 1), n) == image, (word, j)
    assert filled > len(eng.basis(n))
    assert not hasattr(RingEngine, "generator_rows")


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
    # b_product answers by degree alone; the word pipeline must agree
    assert _by_words(eng, rho, rho, 2) == {}


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
    assert _by_words(eng, rho, rho, 1) == {}


def _by_words(eng, rho, sigma, n):
    """The integer terms of b_rho(n) . b_sigma(n) through the word pipeline
    alone: every word of express(rho, n) on b_sigma(n) through word_on_basis,
    weighted and summed, with no degree sieve."""
    return combine([(terms, w.numerator, w.denominator * d)
                    for word, w in eng.express(rho, n).items()
                    for terms, d in [eng.word_on_basis(word, sigma, n)]])[0]


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


@pytest.mark.parametrize("name, n", [("c2", 3), ("odd_toy", 2)])
def test_multiply_is_bilinear_b_product(engines, name, n):
    """multiply on two-term index vectors with rational coefficients decodes
    to the bilinear extension of b_product (odd_toy at level 2 has odd . odd
    signs), and a product with the empty vector is ({}, 1)."""
    eng = engines(name)
    basis = eng.basis(n)
    coords = [{basis[i]: Q(2, 3), basis[i + 1]: Q(-5, 7 + i)}
              for i in range(len(basis) - 1)]

    def vector(u):
        v = FockVector.zero()
        for rho, a in u.items():
            v += eng.fock.b_class(rho, n).scaled(a)
        return eng.index_vector(v, n)

    for u in coords:
        for w in coords:
            got = eng.multiply(vector(u), vector(w), n)
            assert eng.coordinates(got, n) == _cup(eng, u, w, n), (u, w)
        assert eng.multiply(vector(u), ({}, 1), n) == ({}, 1)
        assert eng.multiply(({}, 1), vector(u), n) == ({}, 1)


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


def test_structure_table_shape_and_json(engines):
    eng = engines("ale_2")
    table = eng.structure_constants(2)
    basis = eng.basis(2)
    assert table.basis == basis
    assert [len(row) for row in table.rows] == [len(basis)] * len(basis)
    assert all(table.get(r, s) == eng.b_product(r, s, 2) for r in basis for s in basis)
    obj = json.loads("".join(table.render()))
    assert obj["n"] == 2 and obj["side"] == "hilbert" and "s" not in obj
    assert len(obj["table"]) == len(basis) ** 2


@pytest.mark.parametrize("name, n, s", [("odd_toy", 3, None), ("c2", 5, None),
                                        ("ale_2", 3, Q(2)), ("ale_2", 3, Q(-7, 2))])
def test_integer_table_equals_the_rational_products(models, name, n, s):
    """Every entry that StructureTable.get decodes from its integer row
    equals b_product, the rational product, of a second engine: odd signs
    on odd_toy, the ideal and its markers on c2, two deformations of ale_2."""
    table = RingEngine(models(name), s).structure_constants(n)
    other = RingEngine(models(name), s)
    basis = other.basis(n)
    assert table.basis == basis
    nonzero = 0
    for rho in basis:
        for sigma in basis:
            got = table.get(rho, sigma)
            assert got == other.b_product(rho, sigma, n), (rho, sigma)
            nonzero += bool(got)
    assert nonzero > len(basis)


@pytest.mark.parametrize("s", [None, Q(2)])
@pytest.mark.parametrize("name", BUILTIN)
def test_table_rows_are_the_one_column_products(models, name, s):
    """A table built word by word equals, entry by entry, product_index on a
    fresh engine, which computes each product as its one column: every
    built-in model that computes, on both sides, at every level up to 3."""
    computed = 0
    for n in range(4):
        try:
            table = RingEngine(models(name), s).structure_constants(n)
        except UnknownCoefficientsError:
            continue
        fresh = RingEngine(models(name), s)
        basis = fresh.basis(n)
        for i, rho in enumerate(basis):
            for j, sigma in enumerate(basis):
                assert table.rows[i][j] == fresh.product_index(rho, sigma, n), \
                    (n, rho, sigma)
        computed += 1
    assert computed >= 2


@pytest.mark.parametrize("name, n, s", [("toy_b2_1", 4, None), ("odd_toy", 3, None),
                                        ("c2", 5, None), ("ale_2", 3, Q(2))])
def test_the_table_fills_only_the_columns_the_sieve_keeps(models, name, n, s):
    """After a table, each nonempty word holds images on exactly the columns
    j that some class rho needs through it: the words of express(rho, n) and
    their suffixes, on the j with deg rho + deg b_j a level-n degree."""
    eng = RingEngine(models(name), s)
    eng.structure_constants(n)
    basis, degrees, have = eng.basis(n), eng.level(n)[3], eng.level_degrees(n)
    needed = {}
    for rho in basis:
        kept = {j for j, d in enumerate(degrees) if eng.degree(rho) + d in have}
        for word in eng.express(rho, n):
            for t in range(len(word)):
                needed.setdefault(word[t:], set()).update(kept)
    filled = {word: {j for j, vec in enumerate(images) if vec is not None}
              for (word, _), images in RingEngine.word_images.table(eng).items() if word}
    assert filled == needed
    assert any(len(cols) < len(basis) for cols in filled.values())


def _odd_pair(engine, n):
    """Two odd-degree classes with a nonzero product at level n."""
    table = engine.structure_constants(n)
    return next((rho, sigma) for rho in table.basis for sigma in table.basis
                if engine.degree(rho) % 2 and engine.degree(sigma) % 2
                and table.get(rho, sigma))


def test_a_perturbed_row_trips_super_commutativity(models):
    """One memoized product changed with its degrees intact fails the table's
    super-commutativity assertion: a doubled c2 entry, and an odd.odd entry
    of odd_toy replaced by its mirror without the sign.  Each is put into
    product_rows before the table is built, and the table keeps it."""
    c2 = RingEngine(models("c2"))
    rho, sigma = next((rho, sigma) for rho in c2.basis(3) for sigma in c2.basis(3)
                      if rho != sigma and c2.product_index(rho, sigma, 3)[0])
    terms, den = c2.product_index(rho, sigma, 3)
    c2.product_rows(rho, 3)[c2.position(3)[sigma]] = {i: 2 * c for i, c in terms.items()}, den
    odd = RingEngine(models("odd_toy"))
    rho, sigma = _odd_pair(RingEngine(models("odd_toy")), 3)
    odd.product_index(rho, sigma, 3)
    odd.product_rows(rho, 3)[odd.position(3)[sigma]] = odd.product_index(sigma, rho, 3)
    for eng in (c2, odd):
        with pytest.raises(EngineError, match="super-commutativity"):
            eng.structure_constants(3)


def test_a_wrong_degree_entry_trips_degree_additivity(models):
    """A memoized word image given one entry of another degree makes the
    next product that reads it fail its degree-additivity assertion."""
    eng = RingEngine(models("toy_b2_1"))
    basis, degrees, have = eng.basis(3), eng.level(3)[3], eng.level_degrees(3)
    word, j = next((word, j) for rho in basis for word in eng.express(rho, 3) if word
                   for j, sigma in enumerate(basis)
                   if eng.degree(rho) + degrees[j] in have
                   and eng.word_on_basis(word, sigma, 3)[0])
    images = eng.word_images(word, 3)
    terms, den = images[j]
    wrong = next(i for i, d in enumerate(degrees) if d != degrees[next(iter(terms))])
    images[j] = ({**terms, wrong: 1}, den)
    with pytest.raises(EngineError, match="degree additivity"):
        eng.structure_constants(3)


def test_a_wrong_degree_row_entry_trips_the_row_check(models, monkeypatch):
    """A one-letter image given one basis monomial of another degree is
    refused when word_columns fills it, with no product computed."""
    import hilbfock.ring as ring
    model = models("c2")
    unit_mono = ((1, model.unit),) * 3
    real = ring.operator_int

    def with_unit(fock, op, terms, drop=frozenset()):
        # the level unit has degree 0, and every image of G_1(1) degree 2
        out, den, markers = real(fock, op, terms, drop)
        return {**out, unit_mono: den}, den, markers

    monkeypatch.setattr(ring, "operator_int", with_unit)
    with pytest.raises(EngineError, match="degree additivity"):
        RingEngine(model).word_on_basis(((1, model.unit),), PartitionFunction.EMPTY, 3)


def test_a_degree_empty_product_runs_no_word(models):
    """On c2 the square of b_{(1)} has degree 4, which no level-2 class has:
    product_index returns ({}, 1) and applies no word to b_sigma."""
    eng = RingEngine(models("c2"))
    rho = PartitionFunction({0: (1,)})
    assert 2 * eng.degree(rho) not in eng.level_degrees(2)
    eng.express(rho, 2)

    def filled():
        return {key: [j for j, vec in enumerate(images) if vec is not None]
                for key, images in RingEngine.word_images.table(eng).items()}

    before = filled()
    assert eng.product_index(rho, rho, 2) == ({}, 1)
    assert filled() == before


def test_a_degree_empty_product_keeps_the_express_errors(models):
    """express(rho, n) runs before the degree sieve, so a class that is zero
    at the level and an operator that needs unknown coefficients are refused
    even where the product is zero by degree."""
    c2 = RingEngine(models("c2"))
    big = PartitionFunction({0: (3,)})
    assert 2 * c2.degree(big) not in c2.level_degrees(1)
    with pytest.raises(WeightError):
        c2.product_index(big, big, 1)
    p2 = models("p2")
    eng = RingEngine(p2)
    rho, sigma = PartitionFunction({p2.unit: (1,)}), PartitionFunction({p2.point: (1, 1)})
    assert eng.degree(rho) + eng.degree(sigma) not in eng.level_degrees(2)
    with pytest.raises(UnknownCoefficientsError):
        eng.product_index(rho, sigma, 2)


@pytest.mark.parametrize("name, n, s", [("odd_toy", 3, None), ("c2", 5, None),
                                        ("ale_2", 3, Q(2))])
def test_the_degree_sieve_agrees_with_the_words(models, name, n, s):
    """Every pair that the sieve answers without a word is zero through the
    word pipeline too."""
    eng = RingEngine(models(name), s)
    basis = eng.basis(n)
    empty = [(rho, sigma) for rho in basis for sigma in basis
             if eng.degree(rho) + eng.degree(sigma) not in eng.level_degrees(n)]
    assert empty
    for rho, sigma in empty:
        assert eng.product_index(rho, sigma, n) == ({}, 1)
        assert _by_words(eng, rho, sigma, n) == {}, (rho, sigma)


def test_the_marker_check_fires_under_the_sieve(models, monkeypatch):
    """A canonical-family marker term that fails to reduce to zero is still
    refused when a table is built: the rows its nonzero entries read are
    filled, and checked."""
    monkeypatch.setattr(FockSpace, "in_ideal", lambda self, terms: False)
    with pytest.raises(EngineError, match="failed to vanish"):
        RingEngine(models("cotangent_g1")).structure_constants(3)


@pytest.mark.parametrize("name, n, s", [("c2", 4, None), ("odd_toy", 3, None),
                                        ("ale_2", 3, Q(2))])
def test_word_images_are_normalised(models, name, n, s):
    """Every index vector that word_on_basis and generator_on return has
    den > 0 and gcd(den, *terms) = 1, so that equal classes compare equal
    (verify_ring_isomorphism compares them with !=)."""
    eng = RingEngine(models(name), s)
    basis = eng.basis(n)
    for rho in basis:
        for word in eng.express(rho, n):
            for sigma in basis:
                eng.word_on_basis(word, sigma, n)
    images = [vec for column in RingEngine.word_images.table(eng).values()
              for vec in column if vec is not None]
    vecs = images + [eng.generator_on((k, c), vec, n) for k in range(n)
                     for c in eng.model.working_classes() for vec in images]
    assert len(images) > 20
    for terms, den in vecs:
        assert den > 0 and gcd(den, *terms.values()) == 1, (terms, den)


def test_memos_are_per_engine(models):
    """A repeated call returns the memoized object itself, and two engines
    on one model keep separate memos."""
    model = models("ale_2")
    first, second = RingEngine(model), RingEngine(model)
    rho = PartitionFunction({model.index_of("h1"): (1,)})
    expr = first.express(rho, 3)
    word = next(iter(expr))
    image = first.word_on_basis(word, rho, 3)
    assert first.express(rho, 3) is expr
    assert first.word_on_basis(word, rho, 3) is image
    again = second.word_on_basis(word, rho, 3)
    assert again == image and again is not image
    assert second.express(rho, 3) is not expr
    lehn = LehnEngine()
    unit = PartitionFunction({model.unit: (1,)})
    assert lehn.express(unit, 3, model.unit) is lehn.express(unit, 3, model.unit)
    assert LehnEngine().express(unit, 3, model.unit) is not \
        lehn.express(unit, 3, model.unit)


def test_failed_call_is_not_memoized(models):
    """A memoized method that raises stores nothing: the gate raises on
    every call, and the method's table holds only the calls that returned."""
    eng = RingEngine(models("p2"))
    op = eng.operator(0, 0)
    for _ in range(2):
        with pytest.raises(UnknownCoefficientsError):
            eng.operator(1, 0)
    assert RingEngine.operator.table(eng) == {(0, 0): op}


def test_word_on_basis_edge_cases(models):
    """word_on_basis reads its column from the basis positions: a class
    whose cost exceeds the level gives zero, and one that is no basis class
    (a repeated odd part, an ideal label) is refused."""
    c2 = RingEngine(models("c2"))
    word = ((1, 0),)
    assert c2.word_on_basis(word, PartitionFunction({0: (3,)}), 1) == ({}, 1)
    with pytest.raises(EngineError, match="not a basis class"):
        c2.word_on_basis(word, PartitionFunction({models("c2").point: (1,)}), 2)
    odd = RingEngine(models("odd_toy"))
    with pytest.raises(EngineError, match="not a basis class"):
        odd.word_on_basis((), PartitionFunction({models("odd_toy").index_of("u"): (1, 1)}), 3)


def test_n_independence_small(engines):
    rep = verify_n_independence(engines("c2"), [2, 3, 4])
    assert rep["ok"] and rep["triples_checked"] == 8
    rep = verify_n_independence(engines("ale_2"), [2, 3])
    assert rep["ok"]
    # level 1 on c2 and level 0 everywhere hold b_empty alone: a range from
    # there would compare only b_empty . b_empty = b_empty
    for engine, levels in ((engines("c2"), [1, 2]), (engines("ale_2"), [0, 1])):
        with pytest.raises(ValueError, match="level .* has no class but b_empty"):
            verify_n_independence(engine, levels)


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
        verify_polynomiality(RingEngine(models("c2")), range(3, 10))
    with pytest.raises(ValueError, match="level 0 has no class but b_empty"):
        verify_polynomiality(RingEngine(models("toy_b2_1")), range(0, 3))


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
    return {"ok": not witnesses, "triples_fitted": fitted, "witnesses": witnesses}


@pytest.mark.parametrize("name", ["toy_b2_1", "k3_like"])
def test_polynomiality_sweep_matches_per_triple_fits(models, name):
    ns = range(3, 7)
    assert verify_polynomiality(RingEngine(models(name)), ns) == \
        per_triple_polynomiality(models(name), ns)


def perturb_square(monkeypatch, rho, j, bad, k):
    """Make RingEngine.product_row return, at level bad, a copied row of rho
    whose entry j (the index of rho) has its cell k moved by one.  The sweep
    and the per-triple reference both read products through product_row, so
    both see the perturbation."""
    product_row = RingEngine.product_row

    def perturbed(self, r, cols, n):
        row = product_row(self, r, cols, n)
        if (r, n) == (rho, bad) and j in cols:
            terms, den = row[j]
            row = list(row)
            row[j] = {**terms, k: terms.get(k, 0) + den}, den
        return row

    monkeypatch.setattr(RingEngine, "product_row", perturbed)


def test_polynomiality_reports_a_support_only_witness(models, monkeypatch):
    """A constant that is nonzero at one level only is reported, with the same
    witness bytes as the per-triple reference gives."""
    model = models("toy_b2_1")
    rho = PartitionFunction.from_json(model, {"h": [1]})
    nu = PartitionFunction.from_json(model, {"h": [2]})
    ns, bad = range(3, 8), 5
    product_index = RingEngine.product_index
    engine = RingEngine(model)
    k = engine.position(ns[0])[nu]
    assert all(k not in product_index(engine, rho, rho, n)[0] for n in ns)
    perturb_square(monkeypatch, rho, engine.position(ns[0])[rho], bad, k)
    got = verify_polynomiality(RingEngine(model), ns)
    want = per_triple_polynomiality(model, ns)
    assert not got["ok"] and got["triples_fitted"] == want["triples_fitted"]
    assert [(w["rho"], w["sigma"], w["nu"]) for w in got["witnesses"]] == \
        [({"h": [1]}, {"h": [1]}, {"h": [2]})]
    assert got == want
    assert json.dumps(got["witnesses"]) == json.dumps(want["witnesses"])


def test_polynomiality_catches_a_change_at_the_last_level(models, monkeypatch):
    """A product perturbed at the last level alone fails only the last window
    of its fits, and is reported with that level as the witness."""
    model = models("toy_b2_1")
    rho = PartitionFunction.from_json(model, {"h": [1]})
    ns = range(3, 8)
    engine = RingEngine(model)
    k = min(engine.product_index(rho, rho, ns[-1])[0])
    perturb_square(monkeypatch, rho, engine.position(ns[0])[rho], ns[-1], k)
    got = verify_polynomiality(RingEngine(model), ns)
    assert got == per_triple_polynomiality(model, ns)
    nu = engine.basis(ns[-1])[k].to_json(model)
    assert [(w["rho"], w["sigma"], w["nu"]) for w in got["witnesses"]] == \
        [({"h": [1]}, {"h": [1]}, nu)]
    assert [w["n"] for w in got["witnesses"][0]["report"]["witnesses"]] == [ns[-1]]


def _fit_empty_triple(model, ns):
    empty = PartitionFunction({})
    return fit_polynomial_in_n(RingEngine(model), empty, empty, empty, ns)


@pytest.mark.parametrize("ns", [[3, 3, 4, 5, 6], [3, 4, 5, 6, 6]])
def test_polynomial_fits_refuse_repeated_levels(models, ns):
    """A level given twice would divide by zero or count as a second check."""
    model = models("toy_b2_1")
    with pytest.raises(ValueError, match="level (3|6) is given twice"):
        verify_polynomiality(RingEngine(model), ns)
    with pytest.raises(ValueError, match="level (3|6) is given twice"):
        _fit_empty_triple(model, ns)


# every library call that takes a list of levels, on a model it accepts
LEVEL_CALLS = {
    "n-independence": ("c2", lambda m, ns: verify_n_independence(RingEngine(m), ns)),
    "mod-h4-independence": ("toy_b2_1", verify_mod_h4_independence),
    "orb-n-independence": ("c2", lambda m, ns: verify_n_independence(RingEngine(m, -1), ns)),
    "polynomiality": ("toy_b2_1", lambda m, ns: verify_polynomiality(RingEngine(m), ns)),
    "fit": ("toy_b2_1", _fit_empty_triple),
    "ideal": ("c2", verify_ideal_suite),
    "a-homomorphism": ("c2", lambda m, ns: verify_a_homomorphism(RingEngine(m), ns)),
    "ring-isom": ("c2", verify_ring_isomorphism),
    "c2-quotient": ("c2", verify_affine_plane_quotient),
}


@pytest.mark.parametrize("call, ns", [
    *(pytest.param(call, [], id=f"{call}-none") for call in LEVEL_CALLS),
    # the fits' repeated levels are test_polynomial_fits_refuse_repeated_levels
    *(pytest.param(call, [3, 3], id=f"{call}-repeated") for call in LEVEL_CALLS
      if call not in ("polynomiality", "fit")),
    *(pytest.param(call, [3], id=f"{call}-one") for call in
      ("n-independence", "mod-h4-independence", "orb-n-independence")),
])
def test_level_lists_that_check_nothing_are_refused(models, call, ns):
    """No levels, a level given twice, or one level where two are compared
    is a ValueError before any work, not an IndexError or a pass that
    counts one comparison as two."""
    name, run = LEVEL_CALLS[call]
    with pytest.raises(ValueError, match=r"level\(s\) given|given twice"):
        run(models(name), ns)


@st.composite
def fit_points(draw):
    """(points, bound): (level, num, den) points at distinct sorted levels,
    consecutive or not, from a polynomial of degree up to bound + 1 with
    rational coefficients, each level over its own denominator, and at most
    one point moved off it."""
    bound = draw(st.integers(0, 4))
    levels = sorted(draw(st.sets(st.integers(0, 14), min_size=bound + 2,
                                 max_size=bound + 5)))
    if draw(st.booleans()):
        levels = list(range(levels[0], levels[0] + len(levels)))
    coeffs = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                           min_size=1, max_size=bound + 2))
    moved = draw(st.sampled_from([None, *range(len(levels))]))
    points = []
    for t, n in enumerate(levels):
        value = poly_eval(coeffs, n) + (Q(1, 7) if t == moved else 0)
        scale = draw(st.integers(1, 30))
        points.append((n, value.numerator * scale, value.denominator * scale))
    return points, bound


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fit_points())
def test_integer_fit_decision_matches_fit_report(case):
    points, bound = case
    want = fit_report([(n, Q(num, den)) for n, num, den in points], bound)["ok"]
    assert fits_in_integers(points, bound) == want


def test_integer_fit_decision_catches_the_last_level():
    """Only the last window holds the last point: a change there alone is
    caught, at every bound and on spread-out levels too."""
    for bound in range(5):
        for levels in (range(3, bound + 6), range(1, 3 * bound + 14, 3)):
            # n^bound - 3, each level over its own denominator 5 + n
            points = [(n, (n ** bound - 3) * (5 + n), 5 + n) for n in levels]
            assert fits_in_integers(points, bound)
            n, num, den = points[-1]
            moved = [*points[:-1], (n, num + 1, den)]
            assert not fits_in_integers(moved, bound)
            assert not fit_report([(n, Q(num, den)) for n, num, den in moved],
                                  bound)["ok"]


def test_ideal_suite_small(models):
    for name in ("ale_2", "c2"):
        rep = verify_ideal_suite(models(name), [2])
        assert rep["ok"], rep["witnesses"]
    rep = verify_ideal_suite(models("ale_2"), [3])
    assert rep["ok"] and rep["exact_generators"]
    rep = verify_ideal_suite(models("c2"), [3])
    assert rep["ok"] and not rep["exact_generators"]
    with pytest.raises(ModelError):
        verify_ideal_suite(models("toy_b2_1"), [2])


def test_ideal_suite_synthesized_h4(models):
    k3 = models("k3_like")
    rep = verify_ideal_suite(k3.with_ideal([k3.point], suffix="h4"), [3])
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
            prod = eng.fock_vector(eng.product_index(rho, sigma, n), n)
            reduced = FockVector({m: w for m, w in prod.terms.items()
                                  if not any(c in model.ideal_pivots
                                             for _, c in m)})
            assert reduced.is_zero()


def test_a_homomorphism_small(engines):
    rep = verify_a_homomorphism(engines("c2"), [2])
    assert rep["ok"], rep["witnesses"]
    rep = verify_a_homomorphism(engines("cotangent_g1"), [2])
    assert rep["ok"], rep["witnesses"]
    with pytest.raises(ModelError):
        verify_a_homomorphism(engines("toy_b2_1"), [2])


def test_doubled_point_annihilation_is_caught(models, monkeypatch):
    """A point annihilation that doubles its images fails every check built
    on it: the basis images and the ring homomorphism of a-homomorphism, and
    the tower of fh-ring."""
    real = FockSpace.annihilate_point
    monkeypatch.setattr(FockSpace, "annihilate_point",
                        lambda self, v: real(self, v).scaled(2))
    c2 = models("c2")
    eng = RingEngine(c2)
    rep = verify_a_homomorphism(eng, [2])
    assert not rep["ok"]
    images = [w["rho"] for w in rep["witnesses"] if w["part"] == "basis-image"]
    assert images == [rho.to_json(c2) for rho in eng.basis(2)]
    assert any(w["part"] == "ring-hom" for w in rep["witnesses"])
    rep = verify_fh_ring(RingEngine(c2), norm_bound=1)
    assert not rep["ok"]
    assert {w["part"] for w in rep["witnesses"]} == {"tower"}


def test_fh_ring_basics(engines):
    eng = engines("c2")
    b1 = PartitionFunction({0: (1,)})
    # the stable square of the first symbol, at level 2 * cost, is nonzero
    prod = eng.b_product(b1, b1, 4)
    assert prod
    # and agrees with a larger level
    assert eng.b_product(b1, b1, 6) == prod


def test_fh_odd_squares(models):
    rep = verify_fh_ring(RingEngine(models("cotangent_g1")), norm_bound=2)
    assert rep["ok"], rep["witnesses"]


def test_fh_ring_c2(models):
    rep = verify_fh_ring(RingEngine(models("c2")), norm_bound=4)
    assert rep["ok"]
    assert rep["monomials_checked"] == rep["independent"]


def test_monomial_vectors_prefix_sharing(engines):
    eng = engines("c2")
    rhos = eng.basis(4)
    vecs = monomial_vectors(eng, rhos, 6)
    # the empty product is the unit and single parts are the classes
    # themselves, as index vectors
    for rho in (PartitionFunction({}), PartitionFunction({0: (1,)})):
        assert vecs[rho] == eng.word_on_basis((), rho, 6)
        assert eng.coordinates(vecs[rho], 6) == {rho: Q(1)}


def test_affine_plane_quotient_small(models):
    for name in ("k3_like", "toy_b2_1"):
        rep = verify_affine_plane_quotient(models(name), [3])
        assert rep["ok"], (name, rep["witnesses"])
    # a nonzero canonical class is fine here: it lies inside the full ideal
    rep = verify_affine_plane_quotient(models("p2"), [3])
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
