"""Chern-character operators, their deformed analogues, and test oracles.

The degree-2k shift operator attached to a class is the normally ordered
expression

    -  sum_{l(lam)=k+2, |lam|=0} 1/lam!              a_lam(tau_*(alpha))
    -  kappa sum_{l(lam)=k, |lam|=0} (s(lam)-2)/24lam!  a_lam(tau_*(e alpha))
    +  canonical-class families with unevaluated universal weights,

with every lambda nonempty and kappa the bracket scale of the Fock space
(-1 on the Hilbert side, s on the deformed side, where the Euler correction
of the transposition oracle carries the same factor).  The canonical
families exist on the Hilbert side only and are never evaluated: operator
application hands their unit-weight term values back as markers, and the
caller decides what they mean.  The ring engine accepts them only modulo an
ideal containing K, where each marker must vanish under reduction.

operator_int is the lambda-sum kernel: an operator resolves each lambda
term once per part multiset (OperatorExpression.plan), and apply_operator
is its rational wrapper.  A caller whose reduction deletes some labels
passes them to operator_int as drop; the plan hands them on to
FockSpace.word_plan, the one place that filters a Kuenneth tensor.  The
oracles below run every word through FockSpace.word_int on scaled integer
vectors.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, lcm

from .errors import EngineError, UnknownCoefficientsError
from .fock import FockVector, lift
from .linalg import LinearCombination, combine, memoized, row_add_scaled
from .partitions import GenPartition, partitions_with_length
from .rational import ONE, Q, parse_q, qstr

MAIN = "main"
EULER = "euler"
K_IDEAL = "k_ideal"
# the oracle sweeps report at most this many violations
MAX_WITNESSES = 5


class TermFamily:
    """One lambda-sum of an operator expression: all generalized partitions of
    a fixed length and weight zero, against a fixed coefficient class.  An
    Euler family carries the factor -kappa of its Fock space."""

    __slots__ = ("ell", "cls", "tag", "scale")

    def __init__(self, ell, cls, tag, scale=ONE):
        self.ell = ell
        self.cls = cls
        self.tag = tag
        self.scale = scale

    def weight_of(self, lam):
        """Rational weight of the lambda term; None for unevaluated families."""
        if self.tag == MAIN:
            return Q(-1, lam.sym_factor())
        if self.tag == EULER:
            return self.scale * Q(lam.moment() - 2, 24 * lam.sym_factor())
        return None

    def __repr__(self):
        return f"TermFamily(ell={self.ell}, tag={self.tag})"


class OperatorExpression:
    """A degree-shift operator in normally ordered lambda-sum form."""

    def __init__(self, model, k, alpha, families):
        self.k = k
        self.alpha = alpha
        self.families = families
        self.parity = model.class_parity(alpha)

    @memoized
    def plan(self, fock, parts, drop):
        """The lambda-sum on the monomials of one part multiset, resolved once
        per Fock space as (known, den, markers): known lists the rational-
        weight terms as (ops, tensor, scale) of FockSpace.word_plan with drop,
        scale / den = weight * ann_scale^#annihilations / den_tau over the lcm
        den; markers lists the canonical-class terms' plans without drop."""
        known, markers = [], []
        for fam in self.families:
            for pos in _submultisets(parts):
                neg_len = fam.ell - len(pos)
                if neg_len < 1:
                    continue
                for neg in partitions_with_length(sum(pos), neg_len):
                    lam = GenPartition.from_parts([-r for r in neg] + list(pos))
                    weight = fam.weight_of(lam)
                    if weight is None:
                        markers.append(fock.word_plan(lam.word(), fam.cls))
                    elif weight:
                        ops, tensor, num, den = fock.word_plan(lam.word(), fam.cls, drop)
                        known.append((ops, tensor, weight * Q(num, den)))
        den = lcm(*(q.denominator for _, _, q in known))
        return ([(ops, tensor, q.numerator * (den // q.denominator))
                 for ops, tensor, q in known], den, markers)

    @property
    def has_unknown_terms(self):
        return any(f.tag == K_IDEAL for f in self.families)


def chern_operator(fock, k, alpha):
    """The operator cupping with the k-th Chern-character class of alpha, in
    the flavour of the Fock space.

    On the Hilbert side canonical-class families are included (tagged, with
    unevaluated weights) exactly when their coefficient classes are nonzero;
    the deformed side has none.  This is the one place that decides which
    families act: a family of length below 2 has no nonempty weight-zero
    generalized partition, so it is left out.
    """
    model = fock.model
    families = []

    def add(ell, cls, tag, scale=ONE):
        if ell >= 2 and not cls.is_zero():
            families.append(TermFamily(ell, cls, tag, scale))

    add(k + 2, alpha, MAIN)
    add(k, model.mul(model.euler, alpha), EULER, -fock.kappa)
    if fock.s is None:
        k_alpha = model.mul(model.canonical, alpha)
        add(k + 1, k_alpha, K_IDEAL)
        add(k, model.mul(model.canonical, k_alpha), K_IDEAL)
    return OperatorExpression(model, k, alpha, families)


def _parts_multiset(mono):
    mult = {}
    for n, _ in mono:
        mult[n] = mult.get(n, 0) + 1
    return tuple(sorted(mult.items()))


def _submultisets(mult_items):
    """All nonempty submultisets as descending part tuples."""
    out = [()]
    for part, cnt in mult_items:
        out = [base + (part,) * t for base in out for t in range(cnt + 1)]
    return [tuple(sorted(s, reverse=True)) for s in out if s]


def operator_int(fock, op, terms, drop=frozenset()):
    """The kernel of apply_operator: op on an integer term dict whose
    monomials share one part multiset, through that multiset's plan, as
    (out, den, markers): the known part is out / den, and markers lists the
    nonzero canonical-class term values as scaled integer vectors.  drop
    names labels that the caller's reduction deletes: the known part skips
    the terms that create one of them (see FockSpace.word_plan), so it is
    exact only after that reduction.  The canonical-class terms always run
    in full, so every marker can be checked."""
    known, den, marks = op.plan(fock, _parts_multiset(next(iter(terms))), drop)
    out = {}
    for ops, tensor, scale in known:
        fock.run_word(ops, tensor, terms, out, scale)
    markers = [(mv, num, d) for ops, tensor, num, d in marks
               if (mv := fock.run_word(ops, tensor, terms, {}))]
    return out, den, markers


def apply_operator(fock, op, v):
    """Apply an OperatorExpression to a Fock vector: the rational wrapper of
    operator_int, run on each part multiset of v.  Returns (known, markers):
    known sums the terms with rational weights, and markers lists the
    nonzero unit-weight values of the canonical-class terms, whose universal
    weights are unknown."""
    terms, _, den_v = lift(v)
    groups = {}
    for mono, w in terms.items():
        groups.setdefault(_parts_multiset(mono), {})[mono] = w
    out = {}
    markers = []
    for group in groups.values():
        known, den, marks = operator_int(fock, op, group)
        row_add_scaled(out, known, Q(1, den * den_v))
        markers += [FockVector({mono: Q(c * num, d * den_v) for mono, c in mv.items()})
                    for mv, num, d in marks]
    return FockVector(out), markers


def chern_class(fock, k, alpha, n):
    """G_k(alpha, n), or its deformed analogue on a deformed Fock space: the
    operator applied to the level-n unit.  Level 0 gives 0 by convention;
    an operator with canonical-class families is rejected."""
    if n <= 0:
        return FockVector.zero()
    op = chern_operator(fock, k, alpha)
    if op.has_unknown_terms:
        raise UnknownCoefficientsError(
            "unknown universal coefficients required (canonical class "
            "does not vanish; compute modulo an ideal containing it)")
    return apply_operator(fock, op, fock.unit(n))[0]


# -- commutator oracles ---------------------------------------------------------


def _on_vector(fock):
    """The default direct of the oracle parts: a word on a FockVector."""
    return lambda word, cls, v: fock.word_int(word, cls, lift(v))


def _combine(pieces):
    """The sum of c * vec over pairs (vec, (cn, cd)) of a scaled integer
    vector and a rational coefficient cn / cd, added in ints over the lcm of
    the denominators: a FockVector, empty iff the sum is zero."""
    out, common = combine([(terms, num * cn, den * cd)
                           for (terms, num, den), (cn, cd) in pieces if terms])
    return FockVector({mono: Q(c, common) for mono, c in out.items()})


def lemma_ks_part_i(fock, ns, ms, alpha, beta, direct=None):
    """Contraction formula for [a_{n_1}..a_{n_k}(tau alpha), a_{m_1}..a_{m_s}(tau beta)].

    Returns a function of a vector computing rhs - lhs as a FockVector,
    empty iff the oracle matches on that vector.  Every word that acts on
    the vector itself goes through direct(word, cls, v), which returns a
    scaled integer vector (terms, num, den); the default lifts a FockVector
    v and runs fock.word_int.  The returned function hands its argument to
    direct only, so a caller's direct may take any handle of the vector.
    The outer words run on the integer terms of the inner ones, and every
    coefficient of the defect is fixed here, once per instance."""
    model = fock.model
    sign = (-1) ** (model.class_parity(alpha) * model.class_parity(beta))
    ab = model.mul(alpha, beta)
    direct = direct or _on_vector(fock)
    contractions = [(ms[:j] + ns[:t] + ns[t + 1:] + ms[j + 1:],
                     (fock.kappa * nt).as_integer_ratio())
                    for t, nt in enumerate(ns) for j, mj in enumerate(ms) if nt == -mj]

    def difference(v):
        pieces = [(fock.word_int(ns, alpha, direct(ms, beta, v)), (-1, 1)),
                  (fock.word_int(ms, beta, direct(ns, alpha, v)), (sign, 1))]
        pieces += [(direct(word, ab, v), c) for word, c in contractions]
        return _combine(pieces)

    return difference


def lemma_ks_part_ii(fock, ns, j, alpha, direct=None):
    """Adjacent transposition inside a_{n_1}..a_{n_k}(tau alpha) with the
    Euler-class correction.  Returns the defect function of a vector; every
    word goes through direct as in lemma_ks_part_i."""
    model = fock.model
    direct = direct or _on_vector(fock)
    words = [(ns, alpha, (-1, 1)),
             (ns[:j] + (ns[j + 1], ns[j]) + ns[j + 2:], alpha, (1, 1))]
    if ns[j] == -ns[j + 1]:
        words.append((ns[:j] + ns[j + 2:], model.mul(model.euler, alpha),
                      (fock.kappa * ns[j]).as_integer_ratio()))

    def difference(v):
        return _combine([(direct(word, cls, v), c) for word, cls, c in words])

    return difference


def nested_commutator_apply(fock, op_apply, op_parity, creations, v):
    """[[..[g, a_{-n_1}(c_1)], ..], a_{-n_i}(c_i)] applied to v.

    creations is a list of (n, class); op_apply computes g on a vector."""
    if not creations:
        return op_apply(v)
    model = fock.model
    head = creations[:-1]
    n, cls = creations[-1]
    par = model.class_parity(cls)
    head_par = (op_parity + sum(model.class_parity(c) for _, c in head)) % 2
    t1 = nested_commutator_apply(
        fock, op_apply, op_parity, head, fock.apply_heisenberg(-n, cls, v))
    t2 = fock.apply_heisenberg(
        -n, cls, nested_commutator_apply(fock, op_apply, op_parity, head, v))
    return t1 - t2.scaled((-1) ** (head_par * par))


def nonsense1_expansion(fock, op_apply, op_parity, creations):
    """The increasing-map expansion of g(a_{-n_1}(c_1)..a_{-n_b}(c_b)|0>) for
    an operator whose (k+2)-fold creation commutators vanish.

    creations is the list of (n_l, class_l); op_parity is the parity of g's
    cohomological degree.  Sum over i <= k+1 is implicit: maps with more
    entries give zero commutators, so all sizes up to b are included."""
    model = fock.model
    b = len(creations)
    pars = [model.class_parity(c) for _, c in creations]
    total = {}
    for size in range(0, b + 1):
        for sigma in combinations(range(b), size):
            chosen = set(sigma)
            rest = [l for l in range(b) if l not in chosen]
            sign_exp = op_parity * sum(pars[l] for l in rest)
            for jj in sigma:
                sign_exp += pars[jj] * sum(pars[l] for l in rest if l > jj)
            core = nested_commutator_apply(
                fock, op_apply, op_parity,
                [creations[l] for l in sigma], fock.vacuum())
            for l in reversed(rest):
                n, cls = creations[l]
                core = fock.apply_heisenberg(-n, cls, core)
            row_add_scaled(total, core.terms, (-1) ** (sign_exp % 2))
    return FockVector(total)


def _signed_tuples(length, budget, max_mag):
    """All index tuples of the given length with entry magnitudes <= max_mag
    and total magnitude <= budget."""
    if length == 0:
        yield ()
        return
    for mag in range(1, min(budget - (length - 1), max_mag) + 1):
        for sign in (1, -1):
            for rest in _signed_tuples(length - 1, budget - mag, max_mag):
                yield (sign * mag,) + rest


def _class_reps(model):
    """Representative basis labels: unit, point, one element of every degree,
    and a second odd element so odd-odd pairs are exercised."""
    if model.dim <= 4:
        return list(range(model.dim))
    reps = {model.unit, model.point}
    for d in (1, 2, 3):
        found = [i for i in range(model.dim) if model.degrees[i] == d]
        if found:
            reps.add(found[0])
    odd = [i for i in range(model.dim) if model.parities[i] and i not in reps]
    if odd:
        reps.add(odd[0])
    return sorted(reps)


def _probe_vectors(fock, max_weight):
    """Deterministic family exercising the contraction paths: pool vectors,
    singly and doubly decorated pool vectors (odd pairs included)."""
    model = fock.model
    vecs = [fock.vacuum(), fock.unit(1)]
    reps = _class_reps(model)
    mid = max(2, max_weight - 3)
    for w in (mid, max_weight):
        vecs.append(fock.unit(w))
        for c in reps:
            for r in (1, 2):
                base = fock.unit(w - r)
                if base.is_zero():
                    continue
                vecs.append(fock.apply_heisenberg(-r, model.basis_class(c), base))
    odd = [i for i in reps if model.parities[i]]
    for c1 in odd:
        for c2 in odd:
            base = fock.apply_heisenberg(-1, model.basis_class(c2),
                                         fock.unit(max_weight - 3))
            v = fock.apply_heisenberg(-2, model.basis_class(c1), base)
            if not v.is_zero():
                vecs.append(v)
    uniq = {}
    for v in vecs:
        if v.terms:
            uniq.setdefault(tuple(sorted(v.terms)), v)
    return list(uniq.values())


def verify_lemma_ks(model, ksum_max=5, weight_max=5, s=None):
    """Sweep both parts of the transposition/contraction oracle over every
    instance with 2 <= k+s <= ksum_max whose total index weight is at most
    weight_max, all representative label pairs, against the deterministic
    probe family.

    The sweep runs in scaled integer vectors.  Each probe is lifted once,
    and words that act on a probe itself are applied once per sweep: the
    parts get the probe's index and an applier that memoizes the integer
    image on (word, class key, probe index).  Words applied to an
    intermediate vector are not memoized.  The memo is local to this call
    and freed when it returns."""
    from .fock import FockSpace
    fock = FockSpace(model, s)
    vecs = _probe_vectors(fock, weight_max)
    reps = _class_reps(model)
    witnesses = []
    checked = 0
    lifted = [lift(v) for v in vecs]
    memo = {}

    # hand-rolled: keyed on cls.key(), since the sweep builds fresh class
    # objects and hashing those would pay GradedClass.__eq__ on every hit
    def on_probes(word, cls, vi):
        key = (word, cls.key(), vi)
        out = memo.get(key)
        if out is None:
            out = memo[key] = fock.word_int(word, cls, lifted[vi])
        return out

    def note(kind, **info):
        if len(witnesses) < MAX_WITNESSES:
            info["part"] = kind
            witnesses.append(info)

    shapes = {m: list(_signed_tuples(m, weight_max, weight_max))
              for m in range(2, ksum_max + 1)}
    weights = [v.constant_weight() for v in vecs]

    def viable(word):
        # the probes the word keeps at weight >= 0: a final weight below zero
        # kills both sides identically
        return [vi for vi, w in enumerate(weights) if w >= sum(word)]

    for m, tuples in shapes.items():
        for combined in tuples:
            todo = viable(combined)
            if not todo:
                continue
            for k in range(1, m):
                ns, ms = combined[:k], combined[k:]
                for ca in reps:
                    alpha = model.basis_class(ca)
                    for cb in reps:
                        beta = model.basis_class(cb)
                        diff = lemma_ks_part_i(fock, ns, ms, alpha, beta, on_probes)
                        for vi in todo:
                            checked += 1
                            if not diff(vi).is_zero():
                                note("i", ns=ns, ms=ms,
                                     alpha=model.basis[ca].name,
                                     beta=model.basis[cb].name)
                                break
    for m, tuples in shapes.items():
        for ns in tuples:
            todo = viable(ns)
            if not todo:
                continue
            for j in range(m - 1):
                for ca in reps:
                    alpha = model.basis_class(ca)
                    diff = lemma_ks_part_ii(fock, ns, j, alpha, on_probes)
                    for vi in todo:
                        checked += 1
                        if not diff(vi).is_zero():
                            note("ii", ns=ns, j=j, alpha=model.basis[ca].name)
                            break
    return {"ok": not witnesses, "instances_checked": checked,
            "witnesses": witnesses}


def verify_nonsense1(model, k_max=2, b_max=3, n_max=4):
    """Sweep the increasing-map expansion against direct operator application
    for degree-shift operators with exactly vanishing higher commutators."""
    from itertools import product as iproduct

    from .fock import FockSpace
    fock = FockSpace(model)
    if not model.canonical.is_zero():
        raise UnknownCoefficientsError(
            "the expansion oracle needs exactly computable operators (K = 0)")
    labels = _class_reps(model)
    witnesses = []
    checked = 0
    for k in range(0, k_max + 1):
        for c0 in labels:
            op = chern_operator(fock, k, model.basis_class(c0))

            def op_apply(v, _op=op):
                return apply_operator(fock, _op, v)[0]

            for b in range(1, b_max + 1):
                for shape in _compositions(n_max, b):
                    for labs in iproduct(labels, repeat=b):
                        creations = [(n, model.basis_class(c))
                                     for n, c in zip(shape, labs)]
                        vec = fock.vacuum()
                        for n, cls in reversed(creations):
                            vec = fock.apply_heisenberg(-n, cls, vec)
                        if vec.is_zero():
                            continue
                        direct = op_apply(vec)
                        expanded = nonsense1_expansion(fock, op_apply, op.parity,
                                                       creations)
                        checked += 1
                        if direct != expanded:
                            if len(witnesses) < MAX_WITNESSES:
                                witnesses.append({
                                    "k": k, "alpha": model.basis[c0].name,
                                    "shape": shape,
                                    "labels": [model.basis[c].name for c in labs],
                                })
    return {"ok": not witnesses, "instances_checked": checked,
            "witnesses": witnesses}


def _compositions(n_max, b):
    """Ordered tuples of b positive integers with sum <= n_max."""
    if b == 0:
        yield ()
        return
    for first in range(1, n_max - b + 2):
        for rest in _compositions(n_max - first, b - 1):
            yield (first,) + rest


# -- the polynomial side of the affine-plane quotient ------------------------------


def _exps_key(exps):
    """The monomial key of prod q_v^e for an exponent map {v: e}."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


class SparsePolynomial(LinearCombination):
    """Element of Q[q_1, q_2, ...]; monomials are sorted (var, exp) tuples."""

    __slots__ = ()

    @classmethod
    def monomial(cls, exps, coeff=ONE):
        return cls({_exps_key(exps): Q(coeff)})

    def to_json(self):
        return {"terms": [
            {"coeff": qstr(self.terms[m]), "monomial": {str(v): e for v, e in m}}
            for m in sorted(self.terms)]}

    @classmethod
    def from_json(cls, obj):
        """Read {"terms": [{"coeff": "p/q", "monomial": {"v": e, ..}}, ..]}
        with variables v >= 1 and integer exponents e >= 0; ValueError on
        any other shape."""
        terms = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(terms, list):
            raise ValueError('a polynomial must be a JSON object {"terms": [...]}')
        out = {}
        for item in terms:
            mono = item.get("monomial") if isinstance(item, dict) else None
            if not isinstance(mono, dict):
                raise ValueError('each polynomial term must be an object with a '
                                 '"monomial" object {variable: exponent}')
            exps = {}
            for v, e in mono.items():
                var = int(v)
                if var < 1 or type(e) is not int or e < 0:
                    raise ValueError(f"bad monomial entry {v!r}: {e!r} (variables "
                                     "are positive, exponents nonnegative integers)")
                exps[var] = exps.get(var, 0) + e
            row_add_scaled(out, {_exps_key(exps): parse_q(item["coeff"])}, ONE)
        return cls(out)

    def __repr__(self):
        bits = []
        for m in sorted(self.terms):
            mono = "*".join(f"q{v}^{e}" if e > 1 else f"q{v}" for v, e in m) or "1"
            bits.append(f"{qstr(self.terms[m])}*{mono}")
        return "SparsePolynomial(" + " + ".join(bits) + ")" if bits else "SparsePolynomial(0)"


def lehn_apply(k, poly):
    """The degree-preserving differential operator
    (-1)^k/(k+1)! sum q_{n_1+..+n_{k+1}} d_{n_1}..d_{n_{k+1}} with d_i = i d/dq_i.

    Only tuples supported on the exponents of poly act; the sum is finite.
    """
    if k < 0:
        raise ValueError(f"the operator degree k must be nonnegative, got {k}")
    lead = Q((-1) ** k, factorial(k + 1))
    out = {}
    # depth-first over the choices of d_{n_1}, .., d_{n_{k+1}}, kept on an
    # explicit stack: the depth is k + 1, which may pass the recursion limit
    for mono, w in poly.terms.items():
        stack = [(mono, w, 0, 0)]
        while stack:
            exps, factor, depth, total = stack.pop()
            if depth == k + 1:
                key = dict(exps)
                key[total] = key.get(total, 0) + 1
                row_add_scaled(out, {_exps_key(key): factor}, lead)
                continue
            children = [(exps[:i] + ((var, e - 1),) + exps[i + 1:],
                         factor * var * e, depth + 1, total + var)
                        for i, (var, e) in enumerate(exps) if e]
            stack.extend(reversed(children))
    return SparsePolynomial(out)


def phi_map(v, model):
    """Vector-space isomorphism with Q[q_1, q_2, ...]: unit-labelled
    a_{-n_1}(1)...a_{-n_k}(1)|0> goes to q_{n_1}...q_{n_k}."""
    unit = model.unit
    out = {}
    for mono, w in v.terms.items():
        exps = {}
        for n, c in mono:
            if c != unit:
                raise EngineError("phi is defined on unit-labelled monomials only")
            exps[n] = exps.get(n, 0) + 1
        row_add_scaled(out, {_exps_key(exps): w}, ONE)
    return SparsePolynomial(out)
