"""Cup products, structure constants, and the theorem verifiers.

The cup product is realized through generator expressions: each basis class
b_rho(n) is written, by triangular elimination in the filtration by
cost(rho) = ||rho|| + l(rho(1)), as an exact combination of words in the
degree-shift operators, evaluated on the level-n unit.  Multiplying by
b_rho(n) then means applying those operator words.  For a model with a
restriction ideal everything happens in the quotient: applications are
reduced after every operator, which is legitimate because the ideal subspace
absorbs the operators.

A level-n index vector (terms, den) is sum(terms[i] * b_i(n)) / den (see
RingEngine.level), and basis(n) extends basis(n - 1), so index i names one
class at every level from its cost on.  word_images is the one image table:
per generator word and level, the word's image of each basis class.
word_columns fills a one-letter word's columns from the kernel
vertex.operator_int, reduced, with markers and degree checked, and a longer
word's from its suffix's through generator_on.  _apply applies a linear map
given by its columns; generator_on, multiply and the point annihilation go
through it.  product_row is the one product, kept per engine in
product_rows: zero from the start where no level-n class has its degree,
else one combine over the words of express, checked again for degree
additivity.  product_index is its one-column case and word_on_basis reads
one image.  In a quotient the kernel skips the terms that create ideal
labels, which the reduction would delete.  A structure table keeps integer
rows, checks super-commutativity on them and decodes them only to render,
one row at a time, into chunks of the file's text that a writer consumes as
they come, so no more than one row's text is alive at once.
Fock vectors meet the engine only at the edge: index_vector and fock_vector
convert.  Point annihilation is one column list per level, point_images(n),
whose entry i is the image of b_i(n+1) at level n; the ideal checks run
operator_int on integer term dicts, where membership in the ideal depends on
the support alone.  verify_polynomiality reads one product_row per class and
level and decides each fit in ints by divided differences (fits_in_integers);
fit_report's rationals serve only the triples that fail.

The same engine with a rational flavour s = t^{1/3} is the deformed
symmetric-product side; at s = -1 it must reproduce the Hilbert-scheme
ring, which the comparison verifiers check.
"""

from __future__ import annotations

import json
from collections import Counter
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


# the zero index vector, shared by every image and product that is zero by
# degree or by cost; no caller mutates it
_ZERO = ({}, 1)


def _normal(terms, den):
    """An index vector over its gcd-normalised denominator (RingEngine.level)."""
    g = gcd(den, *terms.values())
    return ({i: c // g for i, c in terms.items()}, den // g) if g > 1 else (terms, den)


def _apply(cols, vec):
    """The linear map whose column i is the index vector cols[i], applied to
    the index vector vec in ints and gcd-normalised."""
    out, common = combine([(cols[i][0], c, cols[i][1]) for i, c in vec[0].items()])
    return _normal(out, vec[1] * common)


class StructureTable:
    """All cup-product structure constants at a fixed level, as integer rows:
    rows[i][j] is b_i(n) . b_j(n), the index vector of product_row, for
    the classes basis[i] of the engine.  get decodes one entry; render
    decodes all, as the file's text one row rho at a time."""

    def __init__(self, engine, n, rows):
        self.engine, self.n, self.rows = engine, n, rows
        self.side, self.s = engine.side, engine.fock.s
        self.basis, self.position = engine.basis(n), engine.position(n)

    def get(self, rho, sigma):
        """The structure constants of b_rho(n) . b_sigma(n): nu -> rational."""
        row = self.rows[self.position[rho]][self.position[sigma]]
        return self.engine.coordinates(row, self.n)

    def render(self):
        """The table file as chunks of text, one row rho at a time: the head,
        then one chunk per rho in key order, then the tail.  Joined, they are
        the bytes of json.dumps(obj, indent=2, sort_keys=True) and a newline
        for obj = {n, s?, side, table: [{entries: [{coeff, nu}], rho,
        sigma}]}, rows by (rho, sigma) and entries by nu.  json.dumps runs
        the pure-Python encoder whenever it indents; here each class goes
        through it once, and each coefficient is the reduced fraction of its
        integers."""
        basis, model = self.basis, self.engine.model
        order = sorted(range(len(basis)), key=lambda i: basis[i].key())
        rank = {i: r for r, i in enumerate(order)}
        text = [json.dumps(pf.to_json(model), indent=2, sort_keys=True) for pf in basis]
        # the text of a class after its coefficient as nu, and around a cell as
        # rho and as sigma, each built once
        nu_tail = ['",\n          "nu": ' + t.replace("\n", "\n" + " " * 10) + "\n        }"
                   for t in text]
        pf_at = [t.replace("\n", "\n" + " " * 6) for t in text]
        rho_at = [',\n      "rho": ' + t + ',\n      "sigma": ' for t in pf_at]
        sigma_at = [t + "\n    }" for t in pf_at]

        def coeff(c, den):
            g = gcd(c, den)
            return str(c // g) if g == den else f"{c // g}/{den // g}"

        head = [f'  "n": {json.dumps(self.n)}']
        if self.s is not None:
            head.append(f'  "s": {json.dumps(qstr(self.s))}')
        head.append(f'  "side": {json.dumps(self.side)}')
        yield "{\n" + ",\n".join(head) + ',\n  "table": [\n'
        # never empty: every level has b_empty
        sep = ""
        for i in order:
            row, rho = self.rows[i], rho_at[i]
            empty = '    {\n      "entries": []' + rho
            cells = []
            for j in order:
                terms, den = row[j]
                if not terms:
                    cells.append(empty + sigma_at[j])
                    continue
                entries = ",\n".join(['        {\n          "coeff": "'
                                      + coeff(terms[k], den) + nu_tail[k]
                                      for k in sorted(terms, key=rank.__getitem__)])
                cells.append('    {\n      "entries": [\n' + entries + "\n      ]" + rho
                             + sigma_at[j])
            yield sep + ",\n".join(cells)
            sep = ",\n"
        yield "\n  ]\n}\n"


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
        """The level-n classes by (cost, key): basis(n - 1), the very objects,
        extended by those of cost n, so index i names one class at every
        level from its cost on; an enumeration not so ordered is refused."""
        classes = enumerate_partition_functions(self.model, n)
        prev = self.basis(n - 1) if n else []
        if classes[:len(prev)] != prev:
            raise EngineError(f"the level-{n} basis does not begin with level {n - 1}'s")
        return prev + classes[len(prev):]

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
        if op.has_unknown_terms:
            if not self.quotient:
                _require_known_coefficients(model)  # a family means K != 0
            elif not model.reduce_class(model.canonical).is_zero():
                raise UnknownCoefficientsError(
                    "unknown universal coefficients required (the restriction "
                    "ideal does not contain the canonical class)")
        return op

    @memoized
    def level(self, n):
        """(index, monos, norms, degrees): b_i(n) = monos[i] / norms[i] has
        degree degrees[i], and index inverts monos.  An index vector (terms,
        den) is sum(terms[i] * b_i(n)) / den, gcd-normalised, with den > 0."""
        monos, norms = [], []
        for rho in self.basis(n):
            ((mono, c),) = self.fock.b_class(rho, n).terms.items()
            monos.append(mono)
            norms.append(c.denominator)
        return ({mono: i for i, mono in enumerate(monos)}, monos, norms,
                [self.degree(rho) for rho in self.basis(n)])

    def generator_on(self, factor, vec, n):
        """One degree-shift operator on a level-n index vector: the columns
        of the one-letter word (factor,) applied to vec."""
        return _apply(self.word_columns((factor,), vec[0], n), vec)

    def index_vector(self, v, n):
        """A reduced level-n Fock vector as an index vector."""
        index, _, norms, _ = self.level(n)
        terms, den = lift(v)
        stray = next(iter(terms.keys() - index.keys()), None)
        if stray is not None:
            if mono_weight(stray) != n:
                raise WeightError(f"monomial of weight {mono_weight(stray)} at level {n}")
            raise EngineError("vector is not reduced modulo the ideal")
        return _normal({index[m]: c * norms[index[m]] for m, c in terms.items()}, den)

    def fock_vector(self, vec, n):
        """A level-n index vector as a Fock vector."""
        _, monos, norms, _ = self.level(n)
        return FockVector({monos[i]: Q(c, vec[1] * norms[i]) for i, c in vec[0].items()})

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
        basis = self.basis(n)
        return {basis[i]: Q(c, vec[1]) for i, c in vec[0].items()}

    @memoized
    def position(self, n):
        """The level-n basis index of each class of basis(n)."""
        return {rho: i for i, rho in enumerate(self.basis(n))}

    def column(self, sigma, n):
        """The level-n basis index of sigma; None when b_sigma(n) is zero by
        cost."""
        j = self.position(n).get(sigma)
        if j is None and sigma.cost(self.model.unit) <= n:
            raise EngineError(f"{sigma!r} is not a basis class at level {n}")
        return j

    @memoized
    def word_images(self, word, n):
        """Entry j: the generator word applied to b_j(n), as an index vector,
        or None until word_columns fills it.  The empty word's entries are
        the basis vectors ({j: 1}, 1)."""
        if word:
            return [None] * len(self.basis(n))
        return [({j: 1}, 1) for j in range(len(self.basis(n)))]

    def word_columns(self, word, cols, n):
        """word_images(word, n) with the columns cols filled: a one-letter
        word's from the kernel, reduced, markers and degree checked; a longer
        word's by generator_on of its suffix's."""
        images = self.word_images(word, n)
        todo = [j for j in cols if images[j] is None]
        if not todo:
            return images
        factor = word[0]
        if len(word) > 1:
            rest = self.word_columns(word[1:], todo, n)
            for j in todo:
                images[j] = self.generator_on(factor, rest[j], n)
            return images
        index, monos, norms, degrees = self.level(n)
        k, c = factor
        for j in todo:
            out, d, markers = operator_int(self.fock, self.operator(k, c),
                                           {monos[j]: 1}, self.model.ideal_pivots)
            if not all(self.fock.in_ideal(mv) for mv, _ in markers):
                raise EngineError("canonical-class marker term failed to vanish "
                                  "under reduction; ideal is not K-closed")
            # the reduction: an image monomial outside the basis has an ideal label
            image = _normal({index[m]: v * norms[index[m]] for m, v in out.items()
                             if m in index}, d * norms[j])
            target = degrees[j] + 2 * k + self.model.degrees[c]
            if any(degrees[i] != target for i in image[0]):
                raise EngineError(f"degree additivity violated by {factor!r} "
                                  f"on {self.basis(n)[j]!r} at level {n}")
            images[j] = image
        return images

    def word_on_basis(self, word, sigma, n):
        """The generator word applied to b_sigma(n), as an index vector, read
        from word_images; zero when b_sigma(n) is zero by cost."""
        j = self.column(sigma, n)
        return _ZERO if j is None else self.word_columns(word, (j,), n)[j]

    @memoized
    def level_degrees(self, n):
        """The set of degrees that the level-n classes take."""
        return frozenset(self.level(n)[3])

    @memoized
    def product_rows(self, rho, n):
        """Entry j: b_rho(n) . b_j(n) as product_row computes it, or None
        until it does.  A product whose degree no level-n class has is zero,
        and its entry is zero from the start.  The list is made after
        express(rho, n), so every product of rho meets its checks and
        operator gates."""
        self.express(rho, n)
        deg, have = self.degree(rho), self.level_degrees(n)
        return [None if deg + d in have else _ZERO for d in self.level(n)[3]]

    def product_row(self, rho, cols, n):
        """product_rows(rho, n) with the columns cols filled: the one product.
        Entry j is the gcd-normalised index vector of b_rho(n) . b_j(n), the
        words of express on b_j(n) weighted in ints, computed once per
        engine.  One word_columns pass fills each word's images on the
        columns to compute, and degree additivity is asserted on every
        product, on top of the check on each one-letter image.  No caller
        may mutate an entry."""
        row = self.product_rows(rho, n)
        todo = [j for j in cols if row[j] is None]
        if not todo:
            return row
        degrees, target = self.level(n)[3], self.degree(rho)
        words = [(self.word_columns(word, todo, n), w.numerator, w.denominator)
                 for word, w in self.express(rho, n).items()]
        for j in todo:
            out, den = _normal(*combine([(images[j][0], num, d * images[j][1])
                                         for images, num, d in words if images[j][0]]))
            for i in out:
                if degrees[i] != target + degrees[j]:
                    raise EngineError(f"degree additivity violated in {rho!r} . "
                                      f"{self.basis(n)[j]!r} at {self.basis(n)[i]!r}")
            row[j] = out, den
        return row

    def product_index(self, rho, sigma, n):
        """b_rho(n) . b_sigma(n) as a gcd-normalised index vector: the one
        column sigma of product_row.  It is ({}, 1) when b_sigma(n) is zero
        by cost, after express(rho, n) and its checks; a sigma that is no
        basis class is refused."""
        j = self.column(sigma, n)
        if j is None:
            self.express(rho, n)
            return _ZERO
        return self.product_row(rho, (j,), n)[j]

    def multiply(self, x, y, n):
        """The cup product of two level-n index vectors, in ints: each
        b_i(n) . y applies product_row to y, and x applies those."""
        basis = self.basis(n)
        return _apply({i: _apply(self.product_row(basis[i], y[0], n), y)
                       for i in x[0]}, x)

    def b_product(self, rho, sigma, n):
        """Structure constants of b_rho(n) . b_sigma(n): nu -> rational, the
        decoded product_index that a structure table keeps."""
        return self.coordinates(self.product_index(rho, sigma, n), n)

    @memoized
    def point_images(self, n):
        """Entry i: the point annihilation kappa^{-1} a_1([x]) of b_i(n+1) as
        a level-n index vector (FockSpace.annihilate_point), columns for _apply."""
        fock = self.fock
        return [self.index_vector(fock.annihilate_point(fock.b_class(rho, n + 1)), n)
                for rho in self.basis(n + 1)]

    def structure_constants(self, n):
        """The level-n structure table: every product_row, kept as integer
        rows, with super-commutativity asserted over the whole table.  A pair
        that is zero by degree runs no word; every class still meets b_empty,
        so express runs for each one."""
        basis = self.basis(n)
        cols = range(len(basis))
        rows = [self.product_row(rho, cols, n) for rho in basis]
        odd = [d % 2 for d in self.level(n)[3]]
        for i, row in enumerate(rows):
            for j in range(i, len(row)):
                terms, den = rows[j][i]
                if odd[i] and odd[j]:
                    terms = {k: -c for k, c in terms.items()}
                if row[j] != (terms, den):
                    raise EngineError("super-commutativity violated for "
                                      f"({basis[i]!r}, {basis[j]!r})")
        return StructureTable(self, n, rows)


# -- verifiers -------------------------------------------------------------------
# A verifier that reads one ring takes that RingEngine and builds no engine or
# Fock space of its own; one that derives a ring from the model, compares two
# rings, or checks the ambient side takes the model.  Each takes the rest of
# its command's input, a list of levels or its bounds, and returns {"ok",
# "witnesses", ...}; the keys after those two are the details the command
# prints.  An input on which a verifier would check nothing raises ValueError,
# so no such run can pass: b_empty . b_empty = b_empty holds by construction,
# and level 0 holds no other class.


def _span(ns):
    """The sorted levels as --n names them: 'a..b', or 'a' for one level."""
    return f"{ns[0]}..{ns[-1]}" if len(ns) > 1 else str(ns[0])


def _levels(n_values, least=1):
    """The sorted levels of a verifier's run.  Fewer than least of them, or a
    level given twice, is refused: a repeated level would count one check as
    two, or make a fit divide by zero."""
    ns = sorted(n_values)
    if len(ns) < least:
        raise ValueError(f"{len(ns)} level(s) given; the check needs at least "
                         f"{least} levels")
    for a, b in zip(ns, ns[1:]):
        if a == b:
            raise ValueError(f"level {a} is given twice; the levels must be distinct")
    return ns


def _require_products(basis, n):
    """A sweep over the products of the level-n classes checks nothing when
    b_empty is the only one: b_empty . b_empty = b_empty by construction."""
    if len(basis) < 2:
        raise ValueError(f"level {n} has no class but b_empty, so a range from it "
                         "checks only b_empty . b_empty = b_empty; start it higher")


def _require_positive(ns):
    """A run on level 0 alone compares only b_empty . b_empty = b_empty."""
    if not any(ns):
        raise ValueError(f"--n {_span(ns)} has no level >= 1 to check; widen --n")


def _require_known_coefficients(model):
    """The projective sweeps run only where the canonical class vanishes:
    otherwise the operators need unknown universal coefficients."""
    if not model.canonical.is_zero():
        raise UnknownCoefficientsError(
            "unknown universal coefficients required (projective model with "
            "nonzero canonical class)")


def _require_polynomiality(model):
    """The models of the polynomiality sweep and of the fit of one triple."""
    if model.has_ideal:
        raise ModelError("polynomiality is the projective statement")
    _require_known_coefficients(model)


def verify_n_independence(engine, n_values):
    """Exact cross-level equality of all structure constants defined on the
    whole range, compared in the integer table cells by index (a quotient
    ring: the projective statement is verify_mod_h4_independence).  On the
    deformed side the report names s."""
    orbifold = engine.side == "orbifold"
    if not engine.model.has_ideal:
        if orbifold:
            raise ModelError("level-independence on the deformed side needs an ideal model")
        raise ModelError("level-independence needs a model with an ideal; "
                         "use mod-h4-independence for projective models")
    ns = _levels(n_values, 2)
    shared = engine.basis(ns[0])
    _require_products(shared, ns[0])
    m = len(shared)
    tables = [engine.structure_constants(n).rows for n in ns]
    witnesses = []
    for i, rho in enumerate(shared):
        for j, sigma in enumerate(shared):
            cells = [rows[i][j] for rows in tables]
            t0, d0 = cells[0]
            for k in sorted({k for terms, _ in cells for k in terms if k < m}):
                if any(t.get(k, 0) * d0 != t0.get(k, 0) * d for t, d in cells):
                    witnesses.append({
                        "rho": rho.to_json(engine.model),
                        "sigma": sigma.to_json(engine.model),
                        "nu": shared[k].to_json(engine.model),
                        "values": {str(n): qstr(Q(t.get(k, 0), d))
                                   for n, (t, d) in zip(ns, cells)},
                    })
    report = {"ok": not witnesses, "triples_checked": m ** 3, "witnesses": witnesses}
    if orbifold:
        report["s"] = qstr(engine.fock.s)
    return report


def verify_mod_h4_independence(model, n_values):
    """Constants modulo the top-degree ideal are level-independent (projective
    model with vanishing canonical class; the ideal H^4 is synthesized)."""
    if model.has_ideal:
        raise ModelError("mod-H^4 independence applies to projective models")
    _require_known_coefficients(model)
    quotient = model.with_ideal([model.point], suffix="h4")
    return verify_n_independence(RingEngine(quotient), n_values)


def lagrange_coefficients(points):
    """Exact interpolating polynomial through (x, y) pairs, as a coefficient
    list in ascending powers."""
    coeffs = [Q(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Q(1)], Q(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                # basis times (x - xj), the scale over (xi - xj)
                basis = [p - xj * q for p, q in zip([0, *basis], [*basis, 0])]
                scale /= xi - xj
        coeffs = [c + b * scale for c, b in zip(coeffs, basis)]
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
    level, verify the degree bound, and exactly check the leftover points.
    Each value is the one cell nu of product_index at its level."""
    _require_polynomiality(engine.model)
    ns = _levels(n_values)
    unit = engine.model.unit
    bound = max(0, rho.cost(unit) + sigma.cost(unit) - nu.cost(unit))
    start = max(rho.cost(unit), sigma.cost(unit), nu.cost(unit))
    ns = [n for n in ns if n >= start]
    if len(ns) < bound + 3:
        raise EngineError(
            f"need at least {bound + 3} levels for degree bound {bound}, have {len(ns)}")
    values = []
    for n in ns:
        terms, den = engine.product_index(rho, sigma, n)
        # a nu that is no level-n basis class has no cell: its value is zero
        values.append((n, Q(terms.get(engine.position(n).get(nu), 0), den)))
    return fit_report(values, bound)


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


@cache
def divided_difference_weights(levels):
    """The integer weights W_t = L / prod_{s != t}(n_t - n_s) over distinct
    levels, with L the least positive integer that makes every W_t an
    integer: sum_t W_t * y_t is L times the top divided difference of the
    values y_t.  Cached, as a pure function of the tuple of levels."""
    prods = []
    for t, x in enumerate(levels):
        p = 1
        for s, y in enumerate(levels):
            if s != t:
                p *= x - y
        prods.append(p)
    lcm = 1
    for p in prods:
        lcm = lcm * abs(p) // gcd(lcm, p)
    return tuple(lcm // p for p in prods)


def fits_in_integers(points, bound):
    """fit_report's ok, decided in ints on (level, num, den) points at distinct
    sorted levels.  The points lie on one polynomial of degree <= bound
    exactly when every window of bound + 2 consecutive points has a zero
    (bound + 1)-th divided difference: sum_t W_t * num_t * (D / den_t) = 0,
    with W the weights of the window's levels and D the lcm of its
    denominators."""
    width = bound + 2
    for a in range(len(points) - width + 1):
        window = points[a:a + width]
        lcm = 1
        for _, _, d in window:
            lcm = lcm * d // gcd(lcm, d)
        weights = divided_difference_weights(tuple(n for n, _, _ in window))
        if sum(w * num * (lcm // d) for w, (_, num, d) in zip(weights, window)):
            return False
    return True


POLY_BOUND_MAX = 4  # the largest degree bound of a fitted triple


def verify_polynomiality(engine, n_values):
    """Fit every triple (rho, sigma, nu) whose degree bound is at most
    POLY_BOUND_MAX and which has bound + 3 levels from its start on.

    The sweep runs class by class.  The bound and the start depend on nu only
    through its cost, so the triples are counted per cost class of nu.  For
    each rho the pairs (rho, sigma) with a fit are collected first, and at
    each level one product_row call computes the columns of the pairs whose
    first start it has reached; index j names sigma at every level, as
    basis(n) extends basis(ns[0]).  Only the nu in the support of a pair's
    products are fitted, by index, in basis order; every other triple is
    zero at all its levels, which the zero polynomial fits within any bound.
    A fit is decided in ints by fits_in_integers; only a triple that fails
    it is reported through fit_report, which must agree.  A range in which
    no triple has enough levels checks nothing and is refused, as are
    repeated levels."""
    model = engine.model
    _require_polynomiality(model)
    ns = _levels(n_values)
    top = engine.basis(ns[-1])
    cost = [nu.cost(model.unit) for nu in top]
    degree = [engine.degree(nu) for nu in top]
    targets = {}  # degree -> cost -> number of classes
    for (d, c), count in Counter(zip(degree, cost)).items():
        targets.setdefault(d, {})[c] = count
    levels_from = {c: sum(1 for n in ns if n >= c) for c in set(cost)}
    base = engine.basis(ns[0])
    _require_products(base, ns[0])
    witnesses = []
    fitted = 0
    for i, rho in enumerate(base):
        pairs = []  # (j, cost of nu -> the first level of its fits, first start)
        for j in range(len(base)):
            pair_cost = cost[i] + cost[j]
            starts = {}
            for nu_cost, count in targets.get(degree[i] + degree[j], {}).items():
                bound = pair_cost - nu_cost
                start = max(cost[i], cost[j], nu_cost)
                if 0 <= bound <= POLY_BOUND_MAX and levels_from[start] >= bound + 3:
                    starts[nu_cost] = start
                    fitted += count
            if starts:
                pairs.append((j, starts, min(starts.values())))
        rows = {}
        for n in ns:
            cols = [j for j, _, first in pairs if first <= n]
            if cols:
                rows[n] = engine.product_row(rho, cols, n)
        for j, starts, first in pairs:
            products = [(n, rows[n][j]) for n in ns if n >= first]
            support = {k for _, (terms, _) in products for k in terms if cost[k] in starts}
            for k in sorted(support):
                start, bound = starts[cost[k]], cost[i] + cost[j] - cost[k]
                points = [(n, terms.get(k, 0), den) for n, (terms, den) in products
                          if n >= start]
                if fits_in_integers(points, bound):
                    continue
                rep = fit_report([(n, Q(num, den)) for n, num, den in points], bound)
                triple = {"rho": rho.to_json(model), "sigma": base[j].to_json(model),
                          "nu": top[k].to_json(model)}
                if rep["ok"]:
                    raise EngineError(f"the integer fit and fit_report disagree on {triple}")
                witnesses.append({**triple, "report": rep})
    if not fitted:
        raise ValueError(f"no triple has enough levels in {ns[0]}..{ns[-1]} "
                         "for a checked fit; widen --n")
    return {"ok": not witnesses, "triples_fitted": fitted, "witnesses": witnesses}


def verify_ideal_suite(model, n_values, parts=("absorb", "contains", "generate")):
    """The ideal-subspace checks at each level, on the ambient (projective)
    side: the subspace absorbs every degree-shift operator, contains the
    distinguished classes of ideal arguments, and is spanned by their products
    with everything (exactly when the canonical class vanishes; modulo the
    unevaluated canonical families it is the marker-augmented span).  A range
    in which no level has an ideal monomial checks nothing and is refused.
    """
    if not model.has_ideal:
        raise ModelError("ideal suite needs a model with a restriction ideal")
    fock = FockSpace(model)
    ns = _levels(n_values)

    @cache
    def operator(k, c):
        return chern_operator(fock, k, model.basis_class(c))

    def images(k, c, mono):
        """The supports of the known part and of the markers of the operator
        on mono, as integer term dicts, and whether one leaves the subspace."""
        known, _, marks = operator_int(fock, operator(k, c), {mono: 1})
        vecs = [known, *(mv for mv, _ in marks)]
        return vecs, not all(map(fock.in_ideal, vecs))

    runs = [_ideal_level(fock, images, n, parts) for n in ns]
    if not any(size for _, size in runs):
        raise ValueError(f"no level in --n {_span(ns)} has an ideal monomial "
                         "to check; widen --n")
    witnesses = [w for found, _ in runs for w in found]
    return {"ok": not witnesses, "witnesses": witnesses, "levels": ns,
            "exact_generators": not any(operator(k, c).has_unknown_terms
                                        for c in model.ideal_pivots
                                        for k in range(ns[-1]))}


def _ideal_level(fock, images, n, parts):
    """The ideal-suite witnesses at level n, at most 20, and the number of
    ideal monomials there."""
    model = fock.model
    pivots = model.ideal_pivots
    all_monos = fock.enumerate_monomials(n)
    ideal_monos = [m for m in all_monos if any(c in pivots for _, c in m)]
    witnesses = []

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
        for d in sorted(by_degree):
            got, want = echelons[d].rank(), len(by_degree[d])
            if got != want:
                witnesses.append({"part": "generate", "degree": d,
                                  "rank": got, "dimension": want})
    return witnesses[:20], len(ideal_monos)


def _point_misses(engine, n):
    """The level-n classes b_i(n) that point annihilation does not send from
    their level-(n+1) namesakes to themselves: point_images(n)[i] != b_i(n)."""
    images = engine.point_images(n)
    return [rho for i, rho in enumerate(engine.basis(n)) if images[i] != ({i: 1}, 1)]


def verify_a_homomorphism(engine, n_values):
    """The point-annihilation map is a surjective ring homomorphism from
    level n+1 onto level n, and sends each basis class to its namesake: the
    image of each product equals the product of the images.  A range in
    which no level n+1 holds a class but b_empty checks only b_empty . b_empty
    = b_empty and is refused."""
    model = engine.model
    if not model.has_ideal:
        raise ModelError("the point-annihilation statement needs an ideal model")
    ns = _levels(n_values)
    if all(len(engine.basis(n + 1)) < 2 for n in ns):
        raise ValueError(f"no level n in --n {_span(ns)} has a class but b_empty "
                         "at level n+1 to check; widen --n")
    witnesses = []
    for n in ns:
        found = [{"part": "basis-image", "rho": rho.to_json(model)}
                 for rho in _point_misses(engine, n)]
        images, upper = engine.point_images(n), engine.basis(n + 1)
        for i, rho in enumerate(upper):
            row = engine.product_row(rho, range(len(upper)), n + 1)
            for j, sigma in enumerate(upper):
                if _apply(images, row[j]) != engine.multiply(images[i], images[j], n):
                    found.append({"part": "ring-hom", "rho": rho.to_json(model),
                                  "sigma": sigma.to_json(model)})
        witnesses += found[:20]
    return {"ok": not witnesses, "witnesses": witnesses, "levels": ns}


def monomial_vectors(engine, rhos, n_eval):
    """The products prod b_{r,c} indexed by each rho, as level-n_eval index
    vectors, evaluated recursively sharing prefixes: each one-part factor
    multiplies the shorter product through multiply."""
    @cache
    def vector(rho):
        if not rho.parts:
            return engine.word_on_basis((), rho, n_eval)  # the level unit
        # peel off the largest part of the first class
        c = min(rho.parts)
        r, *others = rho.parts[c]
        single = engine.word_on_basis((), PartitionFunction({c: (r,)}), n_eval)
        return engine.multiply(single, vector(PartitionFunction({**rho.parts, c: others})),
                               n_eval)

    return {rho: vector(rho) for rho in rhos}


def verify_fh_ring(engine, norm_bound=5):
    """Build the stable ring and verify its structure: the structure
    constants stabilize between two probe levels, generation by the
    one-part symbols up to cost min(norm_bound, 5), linear independence of
    their monomials of norm at most norm_bound, vanishing odd squares, and
    the commuting tower of point-annihilation maps.  The monomials are
    evaluated at level 2 * norm_bound; a negative norm_bound leaves no
    monomial and is refused."""
    if norm_bound < 0:
        raise ValueError("the bounds leave no monomial to check; need --norm-bound >= 0")
    n_eval = 2 * norm_bound
    cost_bound = min(norm_bound, 5)
    model = engine.model
    if not model.has_ideal:
        raise ModelError("the stable ring needs a model with an ideal")
    n_probe = max(2, cost_bound // 2)
    if not verify_n_independence(engine, [n_probe, n_probe + 1])["ok"]:
        raise EngineError("structure constants failed to stabilize "
                          f"between levels {n_probe} and {n_probe + 1}")
    witnesses = []

    # odd squares vanish, in the stable range of the square
    for r in range(1, norm_bound + 1):
        for c in model.working_classes():
            if model.parities[c]:
                single = PartitionFunction({c: (r,)})
                if engine.product_index(single, single,
                                        max(2 * single.cost(model.unit), 1))[0]:
                    witnesses.append({"part": "odd-square", "r": r,
                                      "c": model.basis[c].name})

    # monomials of the one-part symbols, indexed by P(S_X) with ||rho|| <= bound;
    # rank and span membership do not see a row's denominator, so the integer
    # terms of the index vectors will do
    window = [rho for rho in engine.basis(n_eval) if rho.total() <= norm_bound]
    gen_window = engine.basis(cost_bound)
    # one call, so that both windows share the prefix products
    rows = monomial_vectors(engine, dict.fromkeys(window + gen_window), n_eval)
    ech = Echelon()
    independent = 0
    for rho in window:
        if ech.insert(rows[rho][0]) is not None:
            independent += 1
        else:
            witnesses.append({"part": "independence", "rho": rho.to_json(model)})

    # generation: every basis symbol in the cost window lies in the span of
    # the monomials with cost <= the same window
    gen_ech = Echelon()
    for rho in gen_window:
        gen_ech.insert(rows[rho][0])
    for nu in gen_window:
        if not gen_ech.contains(engine.word_on_basis((), nu, n_eval)[0]):
            witnesses.append({"part": "generation", "nu": nu.to_json(model)})

    # the tower commutes: annihilating a point steps the evaluation level down
    witnesses += [{"part": "tower", "rho": rho.to_json(model)}
                  for rho in _point_misses(engine, n_probe)]

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


def verify_ring_isomorphism(model, n_values):
    """At s = -1 the relabelling map is a ring isomorphism at each level: the
    two structure tables agree, the deformed distinguished classes map to the
    Hilbert ones, and every canonical-family term dies under reduction
    (asserted inside the Hilbert pipeline whenever it runs, and on an ideal
    model checked at the top level, where the operators of every level in
    the range act).  A range without a level >= 1 is refused.
    """
    ns = _levels(n_values)
    _require_positive(ns)
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
    witnesses = []
    for n in ns:
        rows_h, rows_o = hilb.structure_constants(n).rows, orb.structure_constants(n).rows
        basis = hilb.basis(n)
        found = [{"part": "table", "rho": rho.to_json(model), "sigma": sigma.to_json(model)}
                 for i, rho in enumerate(basis) for j, sigma in enumerate(basis)
                 if rows_h[i][j] != rows_o[i][j]][:10]

        # the intermediate identity: O_k(alpha, n) o P = G_k(alpha, n) . P; at
        # P = b_empty(n), the level unit, it says that each deformed
        # distinguished class equals its Hilbert namesake
        for k in range(n):
            for c in model.working_classes():
                for sigma in basis:
                    lhs = orb.word_on_basis(((k, c),), sigma, n)
                    rhs = hilb.word_on_basis(((k, c),), sigma, n)
                    if lhs != rhs:
                        where = {"sigma": sigma.to_json(model)} if sigma.parts else {}
                        found.append({"part": "theta-product" if where else "theta-class",
                                      "k": k, "alpha": model.basis[c].name, **where})
        witnesses += found[:10]
    details = {"levels": ns}
    if model.has_ideal:
        marker = verify_marker_vanishing(hilb, ns[-1])
        witnesses += marker["witnesses"]
        details["marker_terms_checked"] = marker["terms_checked"]
    return {"ok": not witnesses, "witnesses": witnesses, **details}


def verify_marker_vanishing(engine, n):
    """On the Hilbert side of an ideal model with K in the ideal: every
    canonical-family term of every degree-shift operator, applied to every
    level-n monomial over the working classes, reduces to zero.  The deformed
    operators have no canonical family, so a deformed engine is refused."""
    model, fock = engine.model, engine.fock
    if engine.side != "hilbert":
        raise ModelError("marker vanishing is a statement about the Hilbert side")
    if not model.has_ideal:
        raise ModelError("marker vanishing needs a model with an ideal")
    if not model.reduce_class(model.canonical).is_zero():
        raise UnknownCoefficientsError(
            "the canonical class is not contained in the restriction ideal")
    witnesses = []
    checked = 0
    monos = fock.enumerate_monomials(n, model.working_classes())
    for k in range(n):
        for c in model.working_classes():
            op = engine.operator(k, c)
            if not op.has_unknown_terms:
                continue
            for mono in monos:
                for mv, _ in operator_int(fock, op, {mono: 1})[2]:
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
        return SparsePolynomial.monomial(Counter(unit_parts), unit_normalization(unit_parts))

    @staticmethod
    def expand(poly, n, unit):
        coords = {}
        for mono, w in poly.terms.items():
            unit_parts = [var for var, e in mono for _ in range(e)]
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


def verify_affine_plane_quotient(model, n_values):
    """The quotient by the positive-degree ideal is the affine-plane ring:
    at each level the quotient structure constants match the independent
    polynomial route, and the distinguished classes reduce to their one-term
    normal forms.  A range without a level >= 1 is refused."""
    ns = _levels(n_values)
    _require_positive(ns)
    positive = [i for i in range(model.dim) if model.degrees[i] > 0]
    quotient = model.with_ideal(positive, suffix="affine")
    engine = RingEngine(quotient)
    lehn = LehnEngine()
    unit = quotient.unit
    witnesses = []
    for n in ns:
        found = []
        basis = engine.basis(n)
        for rho in basis:
            for sigma in basis:
                got = engine.b_product(rho, sigma, n)
                want = lehn.b_product(rho, sigma, n, unit)
                if got != want:
                    found.append({
                        "part": "table", "rho": rho.to_json(quotient),
                        "sigma": sigma.to_json(quotient),
                    })
        # one-term normal forms of the distinguished classes, on the level unit
        for k in range(n):
            got = engine.word_on_basis(((k, unit),), PartitionFunction.EMPTY, n)
            mono = ((k + 1, unit),) + ((1, unit),) * (n - k - 1)
            want = Q((-1) ** k, factorial(k + 1) * factorial(n - k - 1))
            if got != engine.index_vector(FockVector({mono: want}), n):
                found.append({"part": "normal-form", "k": k})
            # and the polynomial image agrees with the differential-operator route
            via_phi = phi_map(engine.fock_vector(got, n), quotient)
            via_lehn = lehn_apply(k, LehnEngine.unit_poly(n))
            if via_phi != via_lehn:
                found.append({"part": "phi-square", "k": k})
        witnesses += found[:20]
    return {"ok": not witnesses, "witnesses": witnesses, "levels": ns}
