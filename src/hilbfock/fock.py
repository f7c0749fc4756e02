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

FockSpace.run_word is the one operator-word loop, and it runs on Python
ints.  The model stores its pairing as integer numerators pair_num over one
denominator pair_den, so the raw annihilator multiplies by m * pair_num
only, and every annihilation owes the same rational factor
ann_scale = kappa / pair_den.  word_plan resolves a word once (raw
operators, integer Kuenneth tensor, scale ann_scale^(#annihilations) /
den_tau), and it alone applies a caller's label filter to the tensor.
word_int runs a word on a scaled integer vector (terms, num, den), worth
terms * num / den, and returns one; apply_word_tau is its rational wrapper.
The transposition oracle, the lambda-sum kernel and the ring engine stay in
integers and meet the rationals only in their results.

FockSpace builds the basis classes b_rho(n) but reads no vector back in
that basis: RingEngine.level is the one decoder from monomials to rho.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import EngineError, WeightError
from .linalg import LinearCombination, row_add_scaled
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
    """v as a scaled integer vector (terms, 1, den): its coefficients'
    numerators over their least common denominator."""
    den, nums = integer_lift(list(v.terms.values()))
    return dict(zip(v.terms, nums)), 1, den


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

    # -- public operator application ------------------------------------------------

    def apply_heisenberg(self, n, cls, v):
        """a_n(cls) applied to v; n < 0 creation, n > 0 annihilation."""
        if n == 0:
            raise EngineError("Heisenberg index 0 is not an operator")
        return self.apply_word_tau((n,), cls, v)

    def word_int(self, indices, cls, vec):
        """The operator a_{i_1}...a_{i_k}(tau_{k*}(cls)) on a scaled integer
        vector (terms, num, den), as a scaled integer vector (out, num, den):
        the true image is out * num / den (see the module docstring).

        indices is the operator word left to right; the rightmost factor acts
        first.  k = 0 degenerates to multiplication by the integral of cls.
        """
        terms, num, den = vec
        if not terms:
            return {}, 1, 1
        if not indices:
            integral = self.model.integrate(cls)
            if not integral:
                return {}, 1, 1
            return dict(terms), num * integral.numerator, den * integral.denominator
        ops, tensor, num_w, den_w = self.word_plan(indices, cls)
        return self.run_word(ops, tensor, terms, {}), num * num_w, den * den_w

    def word_plan(self, indices, cls, drop=frozenset()):
        """A word of k >= 1 factors resolved once, as (ops, tensor, num, den):
        the raw operator of each factor, rightmost first, the integer
        Kuenneth tensor, and the scale num / den of its images.  The
        creations left of the first annihilation act last, so a label they
        create stays in every monomial they make: the slot tuples that
        create a label of drop there are left out, over the denominator of
        the whole tensor.  Pass the labels that the caller's reduction
        deletes anyway."""
        k = len(indices)
        den_t, tensor = self.model.int_tensor(cls, k)
        if drop:
            lead = next((j for j, i in enumerate(indices) if i > 0), k)
            tensor = [(w, slots) for w, slots in tensor if drop.isdisjoint(slots[:lead])]
        ops = [(self.create_raw, -i) if i < 0 else (self.annihilate_raw, i)
               for i in reversed(indices)]
        ann = sum(1 for i in indices if i > 0)
        return (ops, tensor, self.ann_scale.numerator ** ann,
                self.ann_scale.denominator ** ann * den_t)

    def run_word(self, ops, tensor, terms, out, scale=1):
        """Add scale times the integer image of terms under a resolved word
        (see word_plan) into the term dict out; returns out."""
        for w, slots in tensor:
            cur = terms
            for (op, n), c in zip(ops, reversed(slots)):
                cur = op(n, c, cur)
                if not cur:
                    break
            else:
                row_add_scaled(out, cur, w * scale)
        return out

    def apply_word_tau(self, indices, cls, v):
        """The operator of word_int applied to a FockVector, as a FockVector
        equal term by term to the rational computation.  k = 1 is
        a_{i_1}(cls)."""
        out, num, den = self.word_int(indices, cls, lift(v))
        return FockVector({mono: Q(c * num, den) for mono, c in out.items()})

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
        """-a_1([x]); sends b_rho(n+1) to b_rho(n)."""
        out = self.annihilate_raw(1, self.model.point, v.terms)
        return FockVector(out).scaled(-self.ann_scale)

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


def heisenberg_witnesses(fock, max_weight=5, max_index=4):
    """Check the bracket relation on all basis label pairs, |m|,|n| <= max_index,
    against every monomial of weight <= max_weight; returns violation witnesses.

    The commutators run on the integer raw operators; each annihilation in
    the pair then contributes the factor ann_scale before the comparison with
    kappa * m * int(e_i e_j).
    """
    model = fock.model
    dim = model.dim
    parities = model.parities
    kappa = fock.kappa
    ann_scale = fock.ann_scale
    monos = [m for w in range(max_weight + 1) for m in fock.enumerate_monomials(w)]
    indices = [i for i in range(-max_index, max_index + 1) if i]

    @cache
    def app(idx, c, mono):
        raw = fock.create_raw if idx < 0 else fock.annihilate_raw
        return raw(abs(idx), c, {mono: 1})

    def compose(idx, c, terms):
        out = {}
        for mono, w in terms.items():
            row_add_scaled(out, app(idx, c, mono), w)
        return out

    witnesses = []
    ops = [(m, i) for m in indices for i in range(dim)]
    for mono in monos:
        for oi, (m, i) in enumerate(ops):
            vm = app(m, i, mono)
            for n, j in ops[oi:]:
                lhs = compose(m, i, app(n, j, mono))
                rhs = compose(n, j, vm)
                sign = -1 if parities[i] and parities[j] else 1
                comm = row_add_scaled(lhs, rhs, -sign)
                if comm:
                    factor = ann_scale ** ((m > 0) + (n > 0))
                    comm = {mo: w * factor for mo, w in comm.items()}
                expected = {}
                if m == -n:
                    c0 = kappa * m * model.pairing[i][j]
                    if c0:
                        expected = {mono: c0}
                if comm != expected:
                    witnesses.append({
                        "m": m, "alpha": model.basis[i].name,
                        "n": n, "beta": model.basis[j].name,
                        "monomial": [[p, model.basis[c].name] for p, c in mono],
                    })
                    if len(witnesses) >= 10:
                        return witnesses
    return witnesses
