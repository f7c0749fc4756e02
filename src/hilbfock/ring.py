"""Cup products, structure constants, and the theorem verifiers.

The cup product is realized through generator expressions: each basis class
b_rho(n) is written, by triangular elimination in the filtration by
cost(rho) = ||rho|| + l(rho(1)), as an exact combination of words in the
degree-shift operators, evaluated on the level-n unit.  Multiplying by
b_rho(n) then means applying those operator words.  For a model with a
restriction ideal everything happens in the quotient: applications are
reduced after every operator, which is legitimate because the ideal subspace
absorbs the operators.

Vectors are integers keyed by basis index over one denominator (see
RingEngine.level).  A generator's row on each basis monomial comes from
the kernel vertex.operator_int, reduced and with its markers checked;
word_on_basis and product_index add rows and weights in ints, and only the
final coordinates become rationals.  In a quotient the rows skip the terms
that create ideal labels, which the reduction would delete.  b_product is
the one product: the verifiers and the stable-ring monomials extend it
bilinearly over coordinates.  Fock vectors meet the engine and its
verifiers only at the edge: index_vector and fock_vector convert, and level
is the one decoder from monomials to basis classes.  Point annihilation is
one map on index vectors (point_image), and the ideal checks run
operator_int on integer term dicts, where membership in the ideal depends
on the support alone.

The same engine with a rational flavour s = t^{1/3} is the deformed
symmetric-product side; at s = -1 it must reproduce the Hilbert-scheme
ring, which the comparison verifiers check.
"""

from __future__ import annotations

import json
from functools import cache
from math import factorial, gcd

from .errors import (EliminationError, EngineError, ModelError,
                     UnknownCoefficientsError, WeightError)
from .fock import FockSpace, FockVector, lift, mono_weight
from .linalg import Echelon, combine, memoized, row_add_scaled
from .partitions import (PartitionFunction, enumerate_partition_functions,
                         unit_normalization)
from .rational import ONE, Q, qstr
from .vertex import (SparsePolynomial, chern_operator, lehn_apply,
                     operator_int, phi_map)


def _normal(terms, den):
    """An index vector over its gcd-normalised denominator (RingEngine.level)."""
    g = gcd(den, *terms.values())
    return ({i: c // g for i, c in terms.items()}, den // g) if g > 1 else (terms, den)


class StructureTable:
    """All cup-product structure constants at a fixed level."""

    def __init__(self, n, side, s, entries):
        self.n = n
        self.side = side
        self.s = s
        self.entries = entries

    def get(self, rho, sigma):
        return self.entries[(rho, sigma)]

    def render(self, model):
        """The table file: the bytes of json.dumps(obj, indent=2, sort_keys=True)
        and a newline for obj = {n, s?, side, table: [{entries: [{coeff, nu}],
        rho, sigma}]}, rows by (rho, sigma) and entries by nu.  json.dumps runs
        the pure-Python encoder whenever it indents; here only the distinct
        partition functions go through it, once per indent level."""
        def encoder(pad):
            @cache
            def encode(pf):
                return json.dumps(pf.to_json(model), indent=2,
                                  sort_keys=True).replace("\n", "\n" + pad)
            return encode

        def array(items, pad):
            return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"

        nu_at, pf_at = encoder(" " * 10), encoder(" " * 6)
        rows = []
        for rho, sigma in sorted(self.entries, key=lambda p: (p[0].key(), p[1].key())):
            prods = sorted(self.entries[(rho, sigma)].items(), key=lambda t: t[0].key())
            entries = array(['        {\n          "coeff": "' + qstr(c)
                             + '",\n          "nu": ' + nu_at(nu) + "\n        }"
                             for nu, c in prods], " " * 6)
            rows.append('    {\n      "entries": ' + entries + ',\n      "rho": '
                        + pf_at(rho) + ',\n      "sigma": ' + pf_at(sigma) + "\n    }")
        head = [f'  "n": {json.dumps(self.n)}']
        if self.s is not None:
            head.append(f'  "s": {json.dumps(qstr(self.s))}')
        head.append(f'  "side": {json.dumps(self.side)}')
        head.append('  "table": ' + array(rows, "  "))
        return "{\n" + ",\n".join(head) + "\n}\n"


class RingEngine:
    """Cup-product engine for one model and one flavour: s = None is the
    Hilbert side, a nonzero rational s the deformed side (see FockSpace)."""

    def __init__(self, model, s=None):
        self.model = model
        self.side = "hilbert" if s is None else "orbifold"
        self.fock = FockSpace(model, s)
        self.quotient = model.has_ideal
        if not self.quotient and model.euler != model.euler_from_pairing():
            # the transposition calculus produces the pairing self-intersection
            # as its Euler class; with a different declared class the ambient
            # multiplication operators fail to commute
            raise ModelError(
                "declared Euler class differs from the pairing "
                "self-intersection; the ambient ring is only consistent for "
                "coherent models")

    # -- plumbing -------------------------------------------------------------

    @memoized
    def basis(self, n):
        return enumerate_partition_functions(self.model, n)

    @memoized
    def degree(self, rho):
        """The cohomological degree of rho, computed once per engine."""
        return rho.degree(self.model)

    @memoized
    def operator(self, k, c):
        """The degree-shift operator of (k, basis class c).  Canonical-class
        families are accepted only modulo an ideal containing K."""
        model = self.model
        op = chern_operator(self.fock, k, model.basis_class(c))
        if op.has_unknown_terms and not (
                self.quotient and model.reduce_class(model.canonical).is_zero()):
            raise UnknownCoefficientsError(
                "unknown universal coefficients required (the restriction "
                "ideal does not contain the canonical class)")
        return op

    @memoized
    def level(self, n):
        """(index, monos, norms) of the level-n basis: b_i(n) = monos[i] /
        norms[i], and index inverts monos.  An index vector (terms, den) is
        sum(terms[i] * monos[i]) / den with gcd(den, *terms) = 1, den > 0."""
        monos, norms = [], []
        for rho in self.basis(n):
            ((mono, c),) = self.fock.b_class(rho, n).terms.items()
            monos.append(mono)
            norms.append(c.denominator)
        return {mono: i for i, mono in enumerate(monos)}, monos, norms

    @memoized
    def generator_rows(self, factor, n):
        """Row i: the generator on the i-th basis monomial, as an index
        vector; generator_on fills each row when it first needs it."""
        return [None] * len(self.basis(n))

    def generator_on(self, factor, vec, n):
        """One degree-shift operator on a level-n index vector, reduced in a
        quotient: its rows added up in ints."""
        terms, den = vec
        rows = self.generator_rows(factor, n)
        for i in terms:
            if rows[i] is None:
                index, monos, _ = self.level(n)
                out, d, markers = operator_int(self.fock, self.operator(*factor),
                                                 {monos[i]: 1}, self.model.ideal_pivots)
                if not all(self.fock.in_ideal(mv) for mv, _, _ in markers):
                    raise EngineError("canonical-class marker term failed to vanish "
                                      "under reduction; ideal is not K-closed")
                # the reduction: an image monomial outside the basis has an ideal label
                rows[i] = _normal({index[m]: c for m, c in out.items() if m in index}, d)
        out, common = combine([(rows[i][0], c, rows[i][1]) for i, c in terms.items()])
        return _normal(out, den * common)

    def index_vector(self, v, n):
        """A reduced level-n Fock vector as an index vector."""
        index = self.level(n)[0]
        terms, _, den = lift(v)
        stray = next(iter(terms.keys() - index.keys()), None)
        if stray is not None:
            if mono_weight(stray) != n:
                raise WeightError(f"monomial of weight {mono_weight(stray)} at level {n}")
            raise EngineError("vector is not reduced modulo the ideal")
        return {index[m]: c for m, c in terms.items()}, den

    def fock_vector(self, vec, n):
        """A level-n index vector as a Fock vector."""
        monos = self.level(n)[1]
        return FockVector({monos[i]: Q(c, vec[1]) for i, c in vec[0].items()})

    def generator_word(self, rho):
        """The word whose evaluation has leading term a nonzero multiple of
        b_rho(n): one degree-shift factor per part, parts on the unit shifted."""
        unit = self.model.unit
        factors = []
        for c, parts in rho.parts.items():
            for r in parts:
                factors.append((r, c) if c == unit else (r - 1, c))
        factors.sort(key=lambda f: (-(f[0] + 1), f[1]))
        return tuple(factors)

    # -- the triangular elimination ------------------------------------------------

    @memoized
    def express(self, rho, n):
        """b_rho(n) as an exact combination of generator words (word -> weight)."""
        if not rho.parts:
            return {(): ONE}
        unit = self.model.unit
        cost = rho.cost(unit)
        if cost > n:
            raise WeightError(f"basis class is zero at level {n}")
        word = self.generator_word(rho)
        coords = self.coordinates(self.word_on_basis(word, PartitionFunction.EMPTY, n), n)
        lead = coords.pop(rho, None)
        if not lead:
            raise EliminationError(f"lost the leading term of {rho!r} at level {n}")
        bad = [nu for nu in coords if nu.cost(unit) >= cost]
        if bad:
            raise EliminationError(
                f"elimination for {rho!r} not triangular at level {n}: {bad[:3]!r}")
        inv = Q(1) / lead
        expr = {word: inv}
        for nu, c in coords.items():
            row_add_scaled(expr, self.express(nu, n), -(c * inv))
        return expr

    # -- products ---------------------------------------------------------------

    def coordinates(self, vec, n):
        """A level-n index vector in the basis {b_rho(n)}: its integers become
        rationals here only."""
        basis, norms = self.basis(n), self.level(n)[2]
        return {basis[i]: Q(c * norms[i], vec[1]) for i, c in vec[0].items()}

    @memoized
    def word_on_basis(self, word, sigma, n):
        """The generator word applied to b_sigma(n), as an index vector; zero
        when b_sigma(n) is zero by cost."""
        if word:
            return self.generator_on(word[0], self.word_on_basis(word[1:], sigma, n), n)
        if sigma.cost(self.model.unit) > n:
            return {}, 1
        index, _, norms = self.level(n)
        i = index.get(next(iter(self.fock.b_class(sigma, n).terms), None))
        if i is None:
            raise EngineError(f"{sigma!r} is not a basis class at level {n}")
        return {i: 1}, norms[i]

    def product_index(self, rho, sigma, n):
        """b_rho(n) . b_sigma(n) as an index vector, (out, den): the words of
        express on b_sigma(n), weighted in ints."""
        return combine([(terms, w.numerator, w.denominator * d)
                        for word, w in self.express(rho, n).items()
                        for terms, d in [self.word_on_basis(word, sigma, n)]])

    def product_vector(self, rho, sigma, n):
        """The cup product b_rho(n) . b_sigma(n) as a Fock vector."""
        return self.fock_vector(self.product_index(rho, sigma, n), n)

    @memoized
    def b_product(self, rho, sigma, n):
        """Structure constants of b_rho(n) . b_sigma(n): nu -> rational."""
        coords = self.coordinates(self.product_index(rho, sigma, n), n)
        degree = self.degree
        target = degree(rho) + degree(sigma)
        for nu in coords:
            if degree(nu) != target:
                raise EngineError(
                    f"degree additivity violated in {rho!r} . {sigma!r} at {nu!r}")
        return coords

    @memoized
    def point_image(self, rho, n):
        """-a_1([x]) b_rho(n+1), the point annihilation of a level-(n+1)
        class, as a level-n index vector."""
        fock = self.fock
        return self.index_vector(fock.annihilate_point(fock.b_class(rho, n + 1)), n)

    def structure_constants(self, n):
        basis = self.basis(n)
        entries = {}
        for rho in basis:
            for sigma in basis:
                entries[(rho, sigma)] = self.b_product(rho, sigma, n)
        table = StructureTable(n, self.side, self.fock.s, entries)
        self._check_supercommutativity(table)
        return table

    def _check_supercommutativity(self, table):
        degree = self.degree
        for (rho, sigma), prods in table.entries.items():
            mirror = table.entries[(sigma, rho)]
            if degree(rho) % 2 and degree(sigma) % 2:
                mirror = {nu: -c for nu, c in mirror.items()}
            if prods != mirror:
                raise EngineError(
                    f"super-commutativity violated for ({rho!r}, {sigma!r})")


# -- verifiers -------------------------------------------------------------------


def verify_n_independence(engine, n_values):
    """Exact cross-level equality of all structure constants defined on the
    whole range."""
    ns = sorted(n_values)
    tables = {n: engine.structure_constants(n) for n in ns}
    shared = engine.basis(ns[0])
    shared_set = set(shared)
    witnesses = []
    checked = 0
    for rho in shared:
        for sigma in shared:
            seen = {}
            for n in ns:
                for nu, c in tables[n].get(rho, sigma).items():
                    if nu in shared_set:
                        seen.setdefault(nu, {})[n] = c
            for nu in shared:
                vals = [seen.get(nu, {}).get(n, Q(0)) for n in ns]
                checked += 1
                if any(v != vals[0] for v in vals):
                    witnesses.append({
                        "rho": rho.to_json(engine.model),
                        "sigma": sigma.to_json(engine.model),
                        "nu": nu.to_json(engine.model),
                        "values": {str(n): qstr(v) for n, v in zip(ns, vals)},
                    })
    return {"ok": not witnesses, "levels": ns, "triples_checked": checked,
            "witnesses": witnesses}


def verify_mod_h4_independence(model, n_values):
    """Constants modulo the top-degree ideal are level-independent (projective
    model with vanishing canonical class; the ideal H^4 is synthesized)."""
    if model.has_ideal:
        raise ModelError("mod-H^4 independence applies to projective models")
    if not model.canonical.is_zero():
        raise UnknownCoefficientsError(
            "unknown universal coefficients required (projective model with "
            "nonzero canonical class)")
    quotient = model.with_ideal([model.point], suffix="h4")
    return verify_n_independence(RingEngine(quotient), n_values)


def lagrange_coefficients(points):
    """Exact interpolating polynomial through (x, y) pairs, as a coefficient
    list in ascending powers."""
    m = len(points)
    coeffs = [Q(0)] * m
    for i, (xi, yi) in enumerate(points):
        basis = [Q(1)]
        denom = Q(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= Q(xi - xj)
            new = [Q(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
        scale = yi / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x):
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fit_polynomial_in_n(engine, rho, sigma, nu, n_values):
    """Fit the structure constant of a fixed triple as a polynomial in the
    level, verify the degree bound, and exactly check the leftover points."""
    unit = engine.model.unit
    bound = max(0, rho.cost(unit) + sigma.cost(unit) - nu.cost(unit))
    start = max(rho.cost(unit), sigma.cost(unit), nu.cost(unit))
    ns = [n for n in sorted(n_values) if n >= start]
    if len(ns) < bound + 3:
        raise EngineError(
            f"need at least {bound + 3} levels for degree bound {bound}, have {len(ns)}")
    return fit_report([(n, engine.b_product(rho, sigma, n).get(nu, Q(0))) for n in ns],
                      bound)


def fit_report(values, bound):
    """Interpolate the first bound + 1 of the (level, value) points exactly and
    check the rest against that polynomial."""
    coeffs = lagrange_coefficients(values[:bound + 1])
    checked = values[bound + 1:]
    mism = [(n, v) for n, v in checked if poly_eval(coeffs, n) != v]
    return {
        "ok": not mism,
        "bound": bound,
        "degree": max(len(coeffs) - 1, 0),
        "coefficients": [qstr(c) for c in coeffs],
        "levels": [n for n, _ in values],
        "extrapolation_checks": len(checked),
        "witnesses": [{"n": n, "value": qstr(v)} for n, v in mism],
    }


def verify_polynomiality(model, n_values, bound_max=4):
    """Fit every triple (rho, sigma, nu) whose degree bound is at most
    bound_max and which has bound + 3 levels from its start on.

    The sweep runs pair by pair.  The bound and the start depend on nu only
    through its cost, so the triples are counted per cost class of nu.  Each
    pair's product is computed once per level from the first start on, and
    only the nu in the support of those products are fitted, in basis order.
    Every other triple is zero at all its levels, which the zero polynomial
    fits within any bound."""
    if model.has_ideal:
        raise ModelError("polynomiality is the projective statement")
    if not model.canonical.is_zero():
        raise UnknownCoefficientsError(
            "unknown universal coefficients required (projective model with "
            "nonzero canonical class)")
    engine = RingEngine(model)
    ns = sorted(n_values)
    degree = engine.degree
    top = engine.basis(ns[-1])
    cost = {nu: nu.cost(model.unit) for nu in top}
    targets = {}  # degree -> cost -> number of classes
    for nu in top:
        by_cost = targets.setdefault(degree(nu), {})
        by_cost[cost[nu]] = by_cost.get(cost[nu], 0) + 1
    base = engine.basis(ns[0])
    witnesses = []
    fitted = 0
    for rho in base:
        for sigma in base:
            pair_cost = cost[rho] + cost[sigma]
            starts = {}  # cost of nu -> the first level of its fits
            for nu_cost, count in targets.get(degree(rho) + degree(sigma), {}).items():
                bound = pair_cost - nu_cost
                start = max(cost[rho], cost[sigma], nu_cost)
                if 0 <= bound <= bound_max and \
                        sum(1 for n in ns if n >= start) >= bound + 3:
                    starts[nu_cost] = start
                    fitted += count
            if not starts:
                continue
            first = min(starts.values())
            products = [(n, engine.b_product(rho, sigma, n)) for n in ns if n >= first]
            support = {nu for _, prods in products for nu in prods if cost[nu] in starts}
            # the basis order is by (cost, key)
            for nu in sorted(support, key=lambda nu: (cost[nu], nu.key())):
                start = starts[cost[nu]]
                rep = fit_report([(n, prods.get(nu, Q(0))) for n, prods in products
                                  if n >= start], pair_cost - cost[nu])
                if not rep["ok"]:
                    witnesses.append({
                        "rho": rho.to_json(model), "sigma": sigma.to_json(model),
                        "nu": nu.to_json(model), "report": rep,
                    })
    return {"ok": not witnesses, "levels": ns, "triples_fitted": fitted,
            "witnesses": witnesses}


def verify_ideal_suite(model, n, parts=("absorb", "contains", "generate")):
    """The ideal-subspace checks at one level, on the ambient (projective)
    side: the subspace absorbs every degree-shift operator, contains the
    distinguished classes of ideal arguments, and is spanned by their products
    with everything (exactly when the canonical class vanishes; modulo the
    unevaluated canonical families it is the marker-augmented span).
    """
    if not model.has_ideal:
        raise ModelError("ideal suite needs a model with a restriction ideal")
    fock = FockSpace(model)
    pivots = model.ideal_pivots
    all_monos = fock.enumerate_monomials(n)
    ideal_monos = [m for m in all_monos if any(c in pivots for _, c in m)]
    witnesses = []

    @cache
    def operator(k, c):
        return chern_operator(fock, k, model.basis_class(c))

    def images(k, c, mono):
        """The supports of the known part and of the markers of the operator
        on mono, as integer term dicts, and whether one leaves the subspace."""
        known, _, marks = operator_int(fock, operator(k, c), {mono: 1})
        vecs = [known, *(mv for mv, _, _ in marks)]
        return vecs, not all(map(fock.in_ideal, vecs))

    # (i) the subspace absorbs the operators
    if "absorb" in parts:
        for mono in ideal_monos:
            for c in range(model.dim):
                for k in range(n):
                    if images(k, c, mono)[1]:
                        witnesses.append({"part": "absorb", "k": k,
                                          "alpha": model.basis[c].name,
                                          "monomial": str(mono)})

    # (ii) distinguished classes of ideal arguments lie in the subspace
    if "contains" in parts:
        for c in sorted(pivots):
            for k in range(n):
                if images(k, c, ((1, model.unit),) * n)[1]:
                    witnesses.append({"part": "contains", "k": k,
                                      "alpha": model.basis[c].name})

    # (iii) generation: the span of all products equals the subspace, degreewise
    marker_free = not any(operator(k, c).has_unknown_terms
                          for c in pivots for k in range(n))
    ranks = {}
    if "generate" in parts:
        by_degree = {}
        for m in ideal_monos:
            by_degree.setdefault(fock.monomial_degree(m), set()).add(m)
        echelons = {d: Echelon() for d in by_degree}

        def saturated():
            return all(echelons[d].rank() == len(by_degree[d]) for d in by_degree)

        def feed(vec):
            # rank does not see the scale of a row, so integer rows will do
            rows = {}
            for mono, w in vec.items():
                rows.setdefault(fock.monomial_degree(mono), {})[mono] = w
            for d, row in rows.items():
                if d not in echelons:
                    witnesses.append({"part": "generate",
                                      "error": "row outside subspace"})
                    continue
                echelons[d].insert(row)

        for c, k, mono in ((c, k, mono) for c in sorted(pivots) for k in range(n)
                           for mono in all_monos):
            vecs, escapes = images(k, c, mono)
            if escapes:
                witnesses.append({"part": "generate", "k": k,
                                  "alpha": model.basis[c].name, "monomial": str(mono),
                                  "error": "product escapes the subspace"})
                continue
            for vec in vecs:
                feed(vec)
            if saturated():
                break
        ranks = {d: (echelons[d].rank(), len(by_degree[d]))
                 for d in sorted(by_degree)}
        for d, (got, want) in ranks.items():
            if got != want:
                witnesses.append({"part": "generate", "degree": d,
                                  "rank": got, "dimension": want})
    return {"ok": not witnesses, "n": n,
            "ideal_dimension": len(ideal_monos),
            "exact_generators": marker_free,
            "ranks_by_degree": {str(d): list(v) for d, v in ranks.items()},
            "witnesses": witnesses[:20]}


def _point_misses(engine, n):
    """The level-n classes that point annihilation does not send from their
    level-(n+1) namesakes to themselves."""
    return [rho for rho in engine.basis(n)
            if engine.coordinates(engine.point_image(rho, n), n) != {rho: ONE}]


def verify_a_homomorphism(engine, n):
    """The point-annihilation map is a surjective ring homomorphism from
    level n+1 onto level n, and sends each basis class to its namesake: the
    image of each product equals the product of the images."""
    if not engine.model.has_ideal:
        raise ModelError("the point-annihilation statement needs an ideal model")
    model = engine.model
    witnesses = [{"part": "basis-image", "rho": rho.to_json(model)}
                 for rho in _point_misses(engine, n)]
    upper = engine.basis(n + 1)
    down = {rho: engine.coordinates(engine.point_image(rho, n), n) for rho in upper}
    for rho in upper:
        for sigma in upper:
            lhs = {}
            for nu, c in engine.b_product(rho, sigma, n + 1).items():
                row_add_scaled(lhs, down[nu], c)
            rhs = {}
            for mu, a in down[rho].items():
                for nu, b in down[sigma].items():
                    row_add_scaled(rhs, engine.b_product(mu, nu, n), a * b)
            if lhs != rhs:
                witnesses.append({"part": "ring-hom", "rho": rho.to_json(model),
                                  "sigma": sigma.to_json(model)})
    return {"ok": not witnesses, "n": n, "witnesses": witnesses[:20]}


class FHRing:
    """The stable ring on partition-valued symbols, with multiplication by the
    level-independent structure constants."""

    def __init__(self, engine, n_probe):
        if not engine.model.has_ideal:
            raise ModelError("the stable ring needs a model with an ideal")
        self.engine = engine
        self.model = engine.model
        self.n_probe = n_probe
        probe = verify_n_independence(engine, [n_probe, n_probe + 1])
        if not probe["ok"]:
            raise EngineError("structure constants failed to stabilize "
                              f"between levels {n_probe} and {n_probe + 1}")

    def mult(self, rho, sigma):
        """Stable structure constants of b_rho . b_sigma (level-free)."""
        unit = self.model.unit
        return self.engine.b_product(rho, sigma, max(rho.cost(unit) + sigma.cost(unit), 1))

    def single(self, r, c):
        """The one-part symbol b_{r,c}."""
        return PartitionFunction({c: (r,)})


def monomial_vectors(engine, rhos, n_eval):
    """The coordinates of the products prod b_{r,c} indexed by each rho at a
    common level, evaluated recursively sharing prefixes: each one-part
    factor multiplies the shorter product through b_product, extended
    bilinearly over its coordinates."""
    @cache
    def coords(rho):
        if not rho.parts:
            return {rho: ONE}  # the level unit
        # peel off the largest part of the first class
        c = min(rho.parts)
        r, *others = rho.parts[c]
        single = PartitionFunction({c: (r,)})
        out = {}
        for nu, w in coords(PartitionFunction({**rho.parts, c: others})).items():
            row_add_scaled(out, engine.b_product(single, nu, n_eval), w)
        return out

    return {rho: coords(rho) for rho in rhos}


def verify_fh_ring(model, norm_bound=5, cost_bound=5):
    """Build the stable ring and verify its structure: generation by the
    one-part symbols, linear independence of their monomials, vanishing odd
    squares, and the commuting tower of point-annihilation maps."""
    engine = RingEngine(model)
    fh = FHRing(engine, n_probe=max(2, cost_bound // 2))
    unit = model.unit
    witnesses = []

    # odd squares vanish
    for r in range(1, norm_bound + 1):
        for c in model.working_classes():
            if model.parities[c]:
                if fh.mult(fh.single(r, c), fh.single(r, c)):
                    witnesses.append({"part": "odd-square", "r": r,
                                      "c": model.basis[c].name})

    # monomials of the one-part symbols, indexed by P(S_X) with ||rho|| <= bound
    window = [rho for rho in engine.basis(2 * norm_bound)
              if rho.total() <= norm_bound]
    n_eval = 2 * norm_bound
    rows = monomial_vectors(engine, window, n_eval)

    ech = Echelon()
    independent = 0
    for rho in window:
        row = {nu.key(): c for nu, c in rows[rho].items()}
        if ech.insert(row) is not None:
            independent += 1
        else:
            witnesses.append({"part": "independence", "rho": rho.to_json(model)})

    # generation: every basis symbol in the cost window reduces to zero against
    # the span of the monomials with cost <= the same window
    gen_window = [rho for rho in engine.basis(cost_bound)]
    gen_rows = monomial_vectors(engine, gen_window, n_eval)
    gen_ech = Echelon()
    for rho in gen_window:
        gen_ech.insert({nu.key(): c for nu, c in gen_rows[rho].items()})
    for nu in gen_window:
        if not gen_ech.contains({nu.key(): ONE}):
            witnesses.append({"part": "generation", "nu": nu.to_json(model)})

    # the tower commutes: annihilating a point steps the evaluation level down
    witnesses += [{"part": "tower", "rho": rho.to_json(model)}
                  for rho in _point_misses(engine, fh.n_probe)]

    return {"ok": not witnesses,
            "monomials_checked": len(window),
            "independent": independent,
            "generation_window": len(gen_window),
            "witnesses": witnesses[:20]}


# -- the deformed side against the Hilbert side ------------------------------------
# Classes and monomials carry the same combinatorics on both sides, so the
# relabelling map between the two Fock spaces is the identity on stored data;
# the content of the comparison is that the two product pipelines (deformed
# bracket and operators without canonical families versus the Hilbert bracket
# with them) give identical structure constants at s = -1.


def verify_orb_n_independence(model, n_values, s=-1):
    if not model.has_ideal:
        raise ModelError("level-independence on the deformed side needs an ideal model")
    return verify_n_independence(RingEngine(model, s), n_values)


def verify_ring_isomorphism(model, n):
    """At s = -1 the relabelling map is a ring isomorphism: the two structure
    tables agree, the deformed distinguished classes map to the Hilbert ones,
    and every canonical-family term dies under reduction (asserted inside the
    Hilbert pipeline whenever it runs).
    """
    if model.has_ideal:
        if not model.reduce_class(model.canonical).is_zero():
            raise UnknownCoefficientsError(
                "the isomorphism needs a numerically trivial canonical class "
                "(K must lie in the restriction ideal)")
    elif not model.canonical.is_zero():
        raise UnknownCoefficientsError(
            "the isomorphism needs a numerically trivial canonical class")
    hilb = RingEngine(model)
    orb = RingEngine(model, -1)
    table_h = hilb.structure_constants(n)
    table_o = orb.structure_constants(n)
    witnesses = []
    for key, prods in table_h.entries.items():
        if table_o.entries[key] != prods:
            rho, sigma = key
            witnesses.append({"part": "table",
                              "rho": rho.to_json(model),
                              "sigma": sigma.to_json(model)})
            if len(witnesses) >= 10:
                break

    # the intermediate identity: O_k(alpha, n) o P = G_k(alpha, n) . P; at
    # P = b_empty(n), the level unit, it says that each deformed distinguished
    # class equals its Hilbert namesake
    basis = hilb.basis(n)
    for k in range(n):
        for c in model.working_classes():
            for sigma in basis:
                lhs = orb.word_on_basis(((k, c),), sigma, n)
                rhs = hilb.word_on_basis(((k, c),), sigma, n)
                if lhs != rhs:
                    where = {"sigma": sigma.to_json(model)} if sigma.parts else {}
                    witnesses.append({"part": "theta-product" if where else "theta-class",
                                      "k": k, "alpha": model.basis[c].name, **where})
    return {"ok": not witnesses, "n": n,
            "pairs_compared": len(table_h.entries),
            "witnesses": witnesses[:10]}


def verify_marker_vanishing(model, n):
    """For an ideal model with K in the ideal: every canonical-family term of
    every degree-shift operator, applied to every level-n monomial over the
    working classes, reduces to zero."""
    if not model.has_ideal:
        raise ModelError("marker vanishing needs a model with an ideal")
    if not model.reduce_class(model.canonical).is_zero():
        raise UnknownCoefficientsError(
            "the canonical class is not contained in the restriction ideal")
    fock = FockSpace(model)
    witnesses = []
    checked = 0
    monos = fock.enumerate_monomials(n, model.working_classes())
    for k in range(n):
        for c in model.working_classes():
            op = chern_operator(fock, k, model.basis_class(c))
            if not op.has_unknown_terms:
                continue
            for mono in monos:
                for mv, _, _ in operator_int(fock, op, {mono: 1})[2]:
                    checked += 1
                    if not fock.in_ideal(mv):
                        witnesses.append({"k": k, "alpha": model.basis[c].name,
                                          "monomial": str(mono)})
    return {"ok": not witnesses, "n": n, "terms_checked": checked,
            "witnesses": witnesses[:10]}


# -- the affine-plane quotient -----------------------------------------------------


class LehnEngine:
    """The same elimination pipeline run on Q[q_1, q_2, ...] with the
    degree-preserving differential operators; shares no normal-ordering code
    with the Fock side, so it is an independent route to the quotient ring."""

    @staticmethod
    def unit_poly(n):
        return SparsePolynomial.monomial({1: n}, Q(1, factorial(n)))

    @staticmethod
    def b_poly(rho, n, unit):
        parts = rho.parts.get(unit, ())
        cost = sum(parts) + len(parts)
        if n < cost:
            return SparsePolynomial()
        unit_parts = [1] * (n - cost) + [r + 1 for r in parts]
        exps = {}
        for r in unit_parts:
            exps[r] = exps.get(r, 0) + 1
        return SparsePolynomial.monomial(exps, unit_normalization(unit_parts))

    @staticmethod
    def expand(poly, n, unit):
        coords = {}
        for mono, w in poly.terms.items():
            unit_parts = []
            for var, e in mono:
                unit_parts.extend([var] * e)
            if sum(unit_parts) != n:
                raise WeightError("polynomial is not homogeneous of the level degree")
            parts = tuple(sorted((r - 1 for r in unit_parts if r >= 2), reverse=True))
            rho = PartitionFunction({unit: parts} if parts else {})
            row_add_scaled(coords, {rho: w}, ONE / unit_normalization(unit_parts))
        return coords

    @memoized
    def express(self, rho, n, unit):
        if not rho.parts:
            return {(): ONE}
        word = tuple(sorted((r for r in rho.parts[unit]), reverse=True))
        val = self.unit_poly(n)
        for k in reversed(word):
            val = lehn_apply(k, val)
        coords = self.expand(val, n, unit)
        lead = coords.pop(rho, None)
        if not lead:
            raise EliminationError(f"polynomial route lost the leading term of {rho!r}")
        cost = rho.cost(unit)
        if any(nu.cost(unit) >= cost for nu in coords):
            raise EliminationError("polynomial route lost triangularity")
        inv = Q(1) / lead
        expr = {word: inv}
        for nu, c in coords.items():
            row_add_scaled(expr, self.express(nu, n, unit), -(c * inv))
        return expr

    @memoized
    def b_product(self, rho, sigma, n, unit):
        out = {}
        target = self.b_poly(sigma, n, unit)
        for word, cw in self.express(rho, n, unit).items():
            val = target
            for k in reversed(word):
                val = lehn_apply(k, val)
            row_add_scaled(out, val.terms, cw)
        return self.expand(SparsePolynomial(out), n, unit)


def verify_affine_plane_quotient(model, n):
    """The quotient by the positive-degree ideal is the affine-plane ring:
    quotient structure constants match the independent polynomial route, and
    the distinguished classes reduce to their one-term normal forms."""
    positive = [i for i in range(model.dim) if model.degrees[i] > 0]
    quotient = model.with_ideal(positive, suffix="affine")
    engine = RingEngine(quotient)
    lehn = LehnEngine()
    unit = quotient.unit
    witnesses = []
    basis = engine.basis(n)
    for rho in basis:
        for sigma in basis:
            got = engine.b_product(rho, sigma, n)
            want = lehn.b_product(rho, sigma, n, unit)
            if got != want:
                witnesses.append({
                    "part": "table", "rho": rho.to_json(quotient),
                    "sigma": sigma.to_json(quotient),
                })
    # one-term normal forms of the distinguished classes, on the level unit
    index = engine.level(n)[0]
    for k in range(n):
        got = engine.word_on_basis(((k, unit),), PartitionFunction.EMPTY, n)
        mono = ((k + 1, unit),) + ((1, unit),) * (n - k - 1)
        want = Q((-1) ** k, factorial(k + 1) * factorial(n - k - 1))
        if got != ({index[mono]: want.numerator}, want.denominator):
            witnesses.append({"part": "normal-form", "k": k})
        # and the polynomial image agrees with the differential-operator route
        via_phi = phi_map(engine.fock_vector(got, n), quotient)
        via_lehn = lehn_apply(k, LehnEngine.unit_poly(n))
        if via_phi != via_lehn:
            witnesses.append({"part": "phi-square", "k": k})
    return {"ok": not witnesses, "n": n, "dimension": len(basis),
            "witnesses": witnesses[:20]}
