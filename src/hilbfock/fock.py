"""Heisenberg Fock space over a surface model.

Vectors are exact-rational combinations of normally ordered creation
monomials a_{-n_1}(c_1)...a_{-n_k}(c_k)|0> with basis-element labels.
Monomials are stored canonically: entries (n, c) sorted by n descending,
then label index ascending.  Reordering costs the Koszul sign of each
odd-odd transposition, and a repeated odd entry kills the monomial.

One normal-ordering engine serves both sides, told apart by one flavour
value s.  s = None is the Hilbert-scheme side: the bracket
[a_m(x), a_n(y)] = -m delta_{m,-n} int(xy) has scale kappa = -1, and the
degree-shift operators carry canonical-class families.  A nonzero rational s
is the t-deformed orbifold side with s = t^{1/3}: the bracket
s m delta_{m,-n} int(xy) has scale kappa = s, and there are no canonical
families.

The kernel has two primitives.  A raw operator is named by its signed
index i: FockSpace.raw(i, c, terms) is the one dispatch, to create_raw for
i < 0 and to annihilate_raw for i > 0, and raw_image memoizes it per
(i, c, monomial).  An integer vector is a pair (terms, den) of integer
coefficients over one positive denominator, worth terms / den.  The model
stores its pairing as integer numerators pair_num over one denominator
pair_den, so the raw annihilator multiplies by m * pair_num only, and every
annihilation owes the same rational factor ann_scale = kappa / pair_den.
word_plan resolves a word (its indices rightmost first, the integer
Kuenneth tensor, scale ann_scale^(#annihilations) / den_tau) once per Fock
space: it is the one cache of resolved words, and it alone applies a
caller's label filter to the tensor.  run_word is the one operator-word
loop, in Python ints: it reads each raw image straight from the raw_image
table and calls raw_image only on a miss.  word_int runs a word on an
integer vector and returns one, and apply_word_tau is its rational
wrapper.  The transposition oracle, the lambda-sum kernel and the ring
engine stay in integers and meet the rationals only in their results.

FockSpace builds the basis classes b_rho(n) but reads no vector back in
that basis: RingEngine.level is the one decoder from monomials to rho.
"""

from __future__ import annotations

from math import factorial

from .errors import EngineError, WeightError
from .linalg import LinearCombination, memoized, row_add_scaled, row_scaled
from .partitions import enumerate_partition_functions, unit_normalization
from .rational import ONE, Q, integer_lift, qstr


def mono_weight(mono):
    return sum(n for n, _ in mono)


class FockVector(LinearCombination):
    """Sparse map from canonical creation monomials to rational coefficients."""

    __slots__ = ()

    @classmethod
    def vacuum(cls):
        return cls({(): ONE})

    def constant_weight(self):
        """The common weight of all monomials; WeightError if mixed, None if 0."""
        weights = {mono_weight(m) for m in self.terms}
        if not weights:
            return None
        if len(weights) > 1:
            raise WeightError(f"vector mixes weights {sorted(weights)}")
        return weights.pop()

    def to_json(self, model):
        out = []
        for mono in sorted(self.terms):
            out.append({
                "coeff": qstr(self.terms[mono]),
                "monomial": [[n, model.basis[c].name] for n, c in mono],
            })
        return out

    def __repr__(self):
        bits = []
        for mono in sorted(self.terms):
            word = "".join(f"a[-{n}]({c})" for n, c in mono) or "|0>"
            bits.append(f"{qstr(self.terms[mono])}*{word}")
        return "FockVector(" + " + ".join(bits) + ")" if bits else "FockVector(0)"


def lift(v):
    """v as an integer vector (terms, den): its coefficients' numerators
    over their least common denominator."""
    den, nums = integer_lift(list(v.terms.values()))
    return dict(zip(v.terms, nums)), den


class FockSpace:
    """Normal-ordering engine bound to a valid model and a flavour s (None
    for the Hilbert side, a nonzero rational for the deformed side)."""

    def __init__(self, model, s=None):
        model.require_valid()
        self.model = model
        self.s = None if s is None else Q(s)
        self.kappa = Q(-1) if s is None else self.s
        if not self.kappa:
            raise EngineError("the deformation parameter s must be nonzero")
        # the factor annihilate_raw leaves out of every contraction
        self.ann_scale = self.kappa / model.pair_den

    # -- elementary operators ----------------------------------------------------

    def create_raw(self, n, c, terms):
        """a_{-n}(e_c) on a raw term dict, n > 0.  Only signs change, so
        integer coefficients stay integers."""
        parities = self.model.parities
        par = parities[c]
        key = (-n, c)
        out = {}
        for mono, w in terms.items():
            pos = 0
            odd_passed = 0
            dead = False
            for nj, cj in mono:
                kj = (-nj, cj)
                if kj < key:
                    pos += 1
                    odd_passed += parities[cj]
                    continue
                if kj == key and par:
                    dead = True
                break
            if dead:
                continue
            if par and odd_passed % 2:
                w = -w
            new = mono[:pos] + ((n, c),) + mono[pos:]
            cur = out.get(new)
            out[new] = w if cur is None else cur + w
        return {m: v for m, v in out.items() if v}

    def annihilate_raw(self, m, c, terms):
        """a_{m}(e_c) on a raw term dict, m > 0, up to the factor ann_scale:
        commute rightward, kill |0>.  Each contraction with a_{-m}(e_j)
        contributes the integer m * pair_num[c][j]; the caller multiplies by
        ann_scale = kappa / pair_den once per annihilation."""
        parities = self.model.parities
        pair_row = self.model.pair_num[c]
        par = parities[c]
        out = {}
        for mono, w in terms.items():
            sign_w = w
            for pos, (nj, cj) in enumerate(mono):
                if nj == m:
                    pv = pair_row[cj]
                    if pv:
                        rest = mono[:pos] + mono[pos + 1:]
                        add = sign_w * m * pv
                        cur = out.get(rest)
                        out[rest] = add if cur is None else cur + add
                if par and parities[cj]:
                    sign_w = -sign_w
        return {m_: v for m_, v in out.items() if v}

    def raw(self, i, c, terms):
        """The raw operator a_i(e_c) on a term dict, i != 0: the one caller of
        create_raw (i < 0) and annihilate_raw (i > 0)."""
        return self.create_raw(-i, c, terms) if i < 0 else self.annihilate_raw(i, c, terms)

    # -- public operator application ------------------------------------------------

    def apply_heisenberg(self, n, cls, v):
        """a_n(cls) applied to v; n < 0 creation, n > 0 annihilation."""
        if n == 0:
            raise EngineError("Heisenberg index 0 is not an operator")
        return self.apply_word_tau((n,), cls, v)

    def word_int(self, indices, cls, vec):
        """The operator a_{i_1}...a_{i_k}(tau_{k*}(cls)) on an integer vector
        (terms, den), as an integer vector.

        indices is the operator word left to right; the rightmost factor acts
        first.  k = 0 degenerates to multiplication by the integral of cls.
        """
        terms, den = vec
        if not terms:
            return {}, 1
        if not indices:
            integral = self.model.integrate(cls)
            if not integral:
                return {}, 1
            return row_scaled(terms, integral.numerator), den * integral.denominator
        ops, tensor, num_w, den_w = self.word_plan(indices, cls)
        return self.run_word(ops, tensor, terms, {}, num_w), den * den_w

    @memoized
    def word_plan(self, indices, cls, drop=frozenset()):
        """A word of k >= 1 factors resolved once per Fock space, as (ops,
        tensor, num, den): the indices of its factors, rightmost first, the
        integer Kuenneth tensor, and the scale num / den of its images.
        The creations left of the first annihilation act last, so a label
        they create stays in every monomial they make: the slot tuples that
        create a label of drop there are left out, over the denominator of
        the whole tensor.  Pass the labels that the caller's reduction
        deletes anyway."""
        k = len(indices)
        den_t, tensor = self.model.int_tensor(cls, k)
        if drop:
            lead = next((j for j, i in enumerate(indices) if i > 0), k)
            tensor = [(w, slots) for w, slots in tensor if drop.isdisjoint(slots[:lead])]
        ann = sum(1 for i in indices if i > 0)
        return (indices[::-1], tensor, self.ann_scale.numerator ** ann,
                self.ann_scale.denominator ** ann * den_t)

    @memoized
    def raw_image(self, i, c, mono):
        """raw(i, c) on one monomial, once per Fock space; no caller may
        mutate it."""
        return self.raw(i, c, {mono: 1})

    def run_word(self, ops, tensor, terms, out, scale=1):
        """Add scale times the integer image of terms under a resolved word
        (see word_plan) into the term dict out; returns out.  Each factor
        reads the raw image of each monomial from the raw_image table,
        calling raw_image only on a miss, and scales it."""
        memo, image = FockSpace.raw_image.table(self), self.raw_image
        for w, slots in tensor:
            cur, w = terms, w * scale
            for i, c in zip(ops, reversed(slots)):
                if len(cur) == 1:
                    # the shared image itself, its coefficient moved into w
                    ((mono, x),) = cur.items()
                    w *= x
                    cur = memo.get((i, c, mono))
                    if cur is None:
                        cur = image(i, c, mono)
                else:
                    nxt = {}
                    for mono, x in cur.items():
                        got = memo.get((i, c, mono))
                        row_add_scaled(nxt, image(i, c, mono) if got is None else got, x)
                    cur = nxt
                if not cur:
                    break
            else:
                row_add_scaled(out, cur, w)
        return out

    def apply_word_tau(self, indices, cls, v):
        """The operator of word_int applied to a FockVector, as a FockVector
        equal term by term to the rational computation.  k = 1 is
        a_{i_1}(cls)."""
        out, den = self.word_int(indices, cls, lift(v))
        return FockVector({mono: Q(c, den) for mono, c in out.items()})

    # -- distinguished vectors and bases ------------------------------------------------

    def vacuum(self):
        return FockVector.vacuum()

    def unit(self, n):
        """1_{-n}|0> = a_{-1}(1)^n / n!, the unit of the level-n component."""
        if n < 0:
            return FockVector.zero()
        mono = ((1, self.model.unit),) * n
        return FockVector({mono: Q(1, factorial(n))})

    def b_class(self, rho, n):
        """The Nakajima-style basis class attached to rho at level n."""
        model = self.model
        unit = model.unit
        cost = rho.cost(unit)
        if n < cost:
            return FockVector.zero()
        unit_parts = [1] * (n - cost)
        entries = []
        for c, parts in rho.parts.items():
            if c == unit:
                unit_parts.extend(r + 1 for r in parts)
            else:
                if model.parities[c] and len(set(parts)) != len(parts):
                    return FockVector.zero()
                entries.extend((r, c) for r in parts)
        entries.extend((r, unit) for r in unit_parts)
        mono = tuple(sorted(entries, key=lambda e: (-e[0], e[1])))
        return FockVector({mono: unit_normalization(unit_parts)})

    # -- ideal machinery ------------------------------------------------------------

    def in_ideal(self, terms):
        """Membership of a term dict in I^[n]: every monomial carries an ideal
        label, so that iota_n^* kills it."""
        pivots = self.model.ideal_pivots
        return all(any(c in pivots for _, c in mono) for mono in terms)

    def annihilate_point(self, v):
        """kappa^{-1} a_1([x]), which is -a_1([x]) on the Hilbert side; sends
        b_rho(n+1) to b_rho(n) on both sides, the level unit to the level
        unit.  a_1([x]) is ann_scale times its raw image."""
        out = self.raw(1, self.model.point, v.terms)
        return FockVector(out).scaled(self.ann_scale / self.kappa)

    # -- bookkeeping -----------------------------------------------------------------

    def monomial_degree(self, mono):
        degs = self.model.degrees
        return sum(2 * (n - 1) + degs[c] for n, c in mono)

    def enumerate_monomials(self, n, working=None):
        """All canonical monomials of weight n with labels in the working set
        (every class by default): the monomial of b_rho(n) for each rho over
        that set, a bijection since the set contains the unit."""
        if working is None:
            working = list(range(self.model.dim))
        return [next(iter(self.b_class(rho, n).terms))
                for rho in enumerate_partition_functions(self.model, n, working)]


def verify_heisenberg(fock, max_weight=5, max_index=4):
    """Check the bracket relation on all basis label pairs, |m|,|n| <= max_index,
    against every monomial of weight <= max_weight; the report lists at most
    10 violations.  Weight 0 (the vacuum) and index 1 are the least bounds
    that check a bracket: lower ones are refused.

    The commutators call raw on the integer term dicts, and fill no memo:
    most images are read once.  Each annihilation in the pair
    owes the factor ann_scale, so the integer commutator is compared with
    kappa * m * int(e_i e_j) / ann_scale^#annihilations.
    """
    if max_weight < 0 or max_index < 1:
        raise ValueError("the bounds leave no bracket to check; need "
                         "--max-weight >= 0 and --max-index >= 1")
    model = fock.model
    parities = model.parities
    kappa = fock.kappa
    monos = [m for w in range(max_weight + 1) for m in fock.enumerate_monomials(w)]
    indices = [i for i in range(-max_index, max_index + 1) if i]
    raw = fock.raw
    witnesses = []
    scales = [fock.ann_scale ** a for a in range(3)]
    ops = [(m, i) for m in indices for i in range(model.dim)]
    for mono in monos:
        images = [raw(m, i, {mono: 1}) for m, i in ops]
        for oi, (m, i) in enumerate(ops):
            for oj, (n, j) in enumerate(ops[oi:], oi):
                lhs = raw(m, i, images[oj]) if images[oj] else {}
                rhs = raw(n, j, images[oi]) if images[oi] else {}
                sign = -1 if parities[i] and parities[j] else 1
                comm = row_add_scaled(lhs, rhs, -sign)
                c0 = kappa * m * model.pairing[i][j] if m == -n else 0
                if comm != ({mono: c0 / scales[(m > 0) + (n > 0)]} if c0 else {}):
                    witnesses.append({
                        "m": m, "alpha": model.basis[i].name,
                        "n": n, "beta": model.basis[j].name,
                        "monomial": [[p, model.basis[c].name] for p, c in mono],
                    })
                    if len(witnesses) >= 10:
                        return {"ok": False, "witnesses": witnesses}
    return {"ok": not witnesses, "witnesses": witnesses}
