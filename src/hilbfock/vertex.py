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
is its rational wrapper.  A family's lambda words and weights do not depend
on its class: _lambda_terms enumerates them once per Fock space.  A caller
whose reduction deletes some labels passes them to operator_int as drop;
the plan hands them on to FockSpace.word_plan, the one place that filters
a Kuenneth tensor.  The oracles below run on integer vectors (terms, den),
over the plans their Fock space keeps: every word on a probe through
FockSpace.word_int, and the outer word of a composed product from a table
of per-monomial images local to the sweep (verify_lemma_ks).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial, lcm

from .errors import EngineError, UnknownCoefficientsError
from .fock import FockVector, lift
from .linalg import LinearCombination, combine, memoized, row_add_scaled
from .partitions import GenPartition, partitions_with_length
from .rational import ONE, Q, parse_int, parse_q, qstr

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
            for word, weight in _lambda_terms(fock, fam.ell, fam.tag, fam.scale, parts):
                if weight is None:
                    markers.append(fock.word_plan(word, fam.cls))
                else:
                    ops, tensor, num, den = fock.word_plan(word, fam.cls, drop)
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


@memoized
def _lambda_terms(fock, ell, tag, scale, parts):
    """(word, weight) of each lambda term of length ell on one part multiset
    with a nonzero weight (None: a canonical-class family), once per Fock
    space: the terms depend on the family's shape, not on its class."""
    weight_of = TermFamily(ell, None, tag, scale).weight_of
    terms = []
    for pos in _submultisets(parts):
        for neg in partitions_with_length(sum(pos), ell - len(pos)):
            lam = GenPartition.from_parts([-r for r in neg] + list(pos))
            weight = weight_of(lam)
            if weight is None or weight:
                terms.append((lam.word(), weight))
    return terms


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
    nonzero canonical-class term values as integer vectors (mv, den).  drop
    names labels that the caller's reduction deletes: the known part skips
    the terms that create one of them (see FockSpace.word_plan), so it is
    exact only after that reduction.  The canonical-class terms always run
    in full, so every marker can be checked."""
    known, den, marks = op.plan(fock, _parts_multiset(next(iter(terms))), drop)
    out = {}
    for ops, tensor, scale in known:
        fock.run_word(ops, tensor, terms, out, scale)
    markers = [(mv, d) for ops, tensor, num, d in marks
               if (mv := fock.run_word(ops, tensor, terms, {}, num))]
    return out, den, markers


def apply_operator(fock, op, v):
    """Apply an OperatorExpression to a Fock vector: the rational wrapper of
    operator_int, run on each part multiset of v.  Returns (known, markers):
    known sums the terms with rational weights, and markers lists the
    nonzero unit-weight values of the canonical-class terms, whose universal
    weights are unknown."""
    terms, den_v = lift(v)
    groups = {}
    for mono, w in terms.items():
        groups.setdefault(_parts_multiset(mono), {})[mono] = w
    out, markers = {}, []
    for group in groups.values():
        known, den, marks = operator_int(fock, op, group)
        row_add_scaled(out, known, Q(1, den * den_v))
        markers += [FockVector({mono: Q(c, d * den_v) for mono, c in mv.items()})
                    for mv, d in marks]
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


def _defect(pieces):
    """Whether the sum of c * vec over pairs (vec, (cn, cd)) of an integer
    vector and a rational coefficient cn / cd is nonzero, read off its
    nonempty pieces.  Without any, it is zero; two with coefficients of one
    magnitude over one denominator, as in -a + b or -a - b, are decided by
    comparing the term dicts of a and +-b; any other sum is added in ints
    over the lcm of the denominators (linalg.combine)."""
    live = [(terms, cn, den * cd) for (terms, den), (cn, cd) in pieces if terms]
    if not live:
        return False
    if len(live) == 2:
        (a, an, ad), (b, bn, bd) = live
        if ad == bd and an == -bn:
            return a != b
        if ad == bd and an == bn:
            return a != {k: -x for k, x in b.items()}
    return bool(combine(live)[0])


def _compose(fock, plan, images, vec):
    """The word of a resolved plan (FockSpace.word_plan) on the integer
    vector vec, equal to FockSpace.word_int's, term by term and in its
    denominator: the sum of vec's coefficients times the images of its
    monomials.  images maps a monomial to its integer image under the plan;
    a monomial it lacks is run once through FockSpace.run_word and kept."""
    terms, den = vec
    if not terms:
        return {}, 1
    ops, tensor, num, den_w = plan
    out = {}
    for mono, x in terms.items():
        got = images.get(mono)
        if got is None:
            got = images[mono] = fock.run_word(ops, tensor, {mono: 1}, {}, num)
        row_add_scaled(out, got, x)
    return out, den * den_w


def _part_i_terms(fock, ns, ms):
    """The contracted words of part (i) for one instance, each with its
    coefficient kappa * n_t as an integer ratio; they act with the class
    alpha.beta."""
    return [(ms[:j] + ns[:t] + ns[t + 1:] + ms[j + 1:],
             (fock.kappa * nt).as_integer_ratio())
            for t, nt in enumerate(ns) for j, mj in enumerate(ms) if nt == -mj]


def _part_ii_words(fock, ns, j, alpha, e_alpha):
    """The words of part (ii) with their coefficients, as (word, class,
    (cn, cd)): the word, its j-th adjacent transposition, and, with the
    class e_alpha = e.alpha, the Euler-class correction when the two
    swapped indices cancel.  alpha and e_alpha are passed through as given:
    verify_lemma_ks passes its class indices."""
    words = [(ns, alpha, (-1, 1)),
             (ns[:j] + (ns[j + 1], ns[j]) + ns[j + 2:], alpha, (1, 1))]
    if ns[j] == -ns[j + 1]:
        words.append((ns[:j] + ns[j + 2:], e_alpha,
                      (fock.kappa * ns[j]).as_integer_ratio()))
    return words


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

    The sweep runs in integer vectors (terms, den), on classes built once
    per sweep and numbered, one index for equal ones: the representatives,
    their products and their Euler multiples.  Each probe is lifted once,
    and a word that acts on a probe itself runs once per sweep through
    FockSpace.word_int, cached by (word, class index, probe).  Part (i)
    decides each instance (ns, ms, alpha, beta) together with its swap (ms,
    ns, beta, alpha), which has the same probes and the same two composed
    products W_ns(alpha) W_ms(beta) v and W_ms(beta) W_ns(alpha) v.  The
    pair resolves its outer words' plans and its contraction terms once,
    and builds each product once per probe, summed by _compose from a
    table local to the sweep: for each outer word and class, the integer
    image of each monomial it has met, each filled once through
    FockSpace.run_word.  Each member counts its probes up to its first
    failure, as it would alone, and part (i)'s failures are put back in
    sweep order before part (ii)'s follow.  _defect decides a defect of two
    nonempty pieces of one magnitude over one denominator by comparing
    their term dicts, and any other from its integer sum.  Bounds that
    leave no instance (ksum_max or weight_max below 2) are refused."""
    from .fock import FockSpace
    fock = FockSpace(model, s)
    vecs = _probe_vectors(fock, weight_max)
    reps = _class_reps(model)
    index = {}

    def one(cls):
        # equal classes share one index, so the probe cache keys on an int
        return index.setdefault(cls, len(index))

    classes = [model.basis_class(c) for c in reps]
    rep_ids = [one(a) for a in classes]
    products = [[one(model.mul(a, b)) for b in classes] for a in classes]
    euler = [one(model.mul(model.euler, a)) for a in classes]
    pool = list(index)   # class index -> class
    parities = [model.class_parity(a) for a in classes]
    names = [model.basis[c].name for c in reps]
    witnesses = []
    checked = 0
    lifted = [lift(v) for v in vecs]
    failures = []   # part (i): (sweep position, instance)

    @cache
    def on_probes(word, ci, vi):
        return fock.word_int(word, pool[ci], lifted[vi])

    @cache
    def outer_images(word, ai):
        # the image of each monomial met so far under word(classes[ai]) as
        # an outer word, filled by _compose
        return {}

    def decide_pair(ns, ms, ai, bi, positions, todo):
        # decides the instance (ns, ms, ai, bi) at positions[0] and, given a
        # second position, its swap (ms, ns, bi, ai) there; returns the
        # probes checked over both
        sign = -1 if parities[ai] and parities[bi] else 1
        live = []
        for swapped, pos in enumerate(positions):
            inst = (ms, ns, bi, ai) if swapped else (ns, ms, ai, bi)
            x, y, a, b = inst
            live.append((pos, inst, swapped, products[a][b], _part_i_terms(fock, x, y)))
        # the outer words' plans and image tables, once per pair: W_ns(alpha)
        # on W_ms(beta) v, and W_ms(beta) on W_ns(alpha) v
        alpha, beta = classes[ai], classes[bi]
        (plan_n, images_n), (plan_m, images_m) = [
            (fock.word_plan(ns, alpha), outer_images(ns, ai)),
            (fock.word_plan(ms, beta), outer_images(ms, bi))]
        count = 0
        for vi in todo:
            nm = _compose(fock, plan_n, images_n, on_probes(ms, rep_ids[bi], vi))
            mn = nm if len(positions) == 1 else \
                _compose(fock, plan_m, images_m, on_probes(ns, rep_ids[ai], vi))
            for member in list(live):
                pos, inst, swapped, ab, contractions = member
                count += 1
                lead, trail = (mn, nm) if swapped else (nm, mn)
                contracted = [(on_probes(word, ab, vi), c) for word, c in contractions]
                if _defect([(lead, (-1, 1)), (trail, (sign, 1))] + contracted):
                    failures.append((pos, inst))
                    live.remove(member)
            if not live:
                break
        return count

    shapes = {m: list(_signed_tuples(m, weight_max, weight_max))
              for m in range(2, ksum_max + 1)}
    weights = [v.constant_weight() for v in vecs]

    def viable(word):
        # the probes the word keeps at weight >= 0: a final weight below zero
        # kills both sides identically
        return [vi for vi, w in enumerate(weights) if w >= sum(word)]

    for m, tuples in shapes.items():
        where = {t: i for i, t in enumerate(tuples)}
        for ti, combined in enumerate(tuples):
            todo = viable(combined)
            if not todo:
                continue
            for k in range(1, m):
                ns, ms = combined[:k], combined[k:]
                tj = where[ms + ns]
                for ai in range(len(reps)):
                    for bi in range(len(reps)):
                        own, swap = (m, ti, k, ai, bi), (m, tj, m - k, bi, ai)
                        if swap < own:
                            continue   # decided with its swap
                        positions = [own] if swap == own else [own, swap]
                        checked += decide_pair(ns, ms, ai, bi, positions, todo)
    for _, (ns, ms, ai, bi) in sorted(failures)[:MAX_WITNESSES]:
        witnesses.append({"ns": ns, "ms": ms, "alpha": names[ai],
                          "beta": names[bi], "part": "i"})
    for m, tuples in shapes.items():
        for ns in tuples:
            todo = viable(ns)
            if not todo:
                continue
            for j in range(m - 1):
                for ai, ci in enumerate(rep_ids):
                    words = _part_ii_words(fock, ns, j, ci, euler[ai])
                    for vi in todo:
                        checked += 1
                        if _defect([(on_probes(word, cj, vi), c)
                                    for word, cj, c in words]):
                            if len(witnesses) < MAX_WITNESSES:
                                witnesses.append({"ns": ns, "j": j,
                                                  "alpha": names[ai], "part": "ii"})
                            break
    if not checked:
        raise ValueError("the bounds leave no instance to check; widen them")
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
    if not checked:
        raise ValueError("the bounds leave no instance to check; widen them")
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
                var = parse_int(v, "a polynomial variable")
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

    Only tuples supported on the exponents of poly act; the sum is finite,
    and empty when k + 1 passes every monomial's total exponent.
    """
    if k < 0:
        raise ValueError(f"the operator degree k must be nonnegative, got {k}")
    if all(sum(e for _, e in mono) <= k for mono in poly.terms):
        return SparsePolynomial()
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
