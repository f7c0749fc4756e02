"""The t-deformed symmetric-product side and the comparison with the
Hilbert-scheme side.

The deformed side is a RingEngine with a rational flavour s = t^{1/3}; s = -1
(t = -1) reproduces the Hilbert-scheme bracket sign.  Classes and monomials
carry the same combinatorics on both sides, so the relabelling map between
the two Fock spaces is the identity on stored data; the content of the
comparison is that the two product pipelines (deformed bracket and operators
without canonical families versus the Hilbert bracket with them) give
identical structure constants at s = -1.
"""

from __future__ import annotations

from .errors import ModelError, UnknownCoefficientsError
from .fock import FockSpace, FockVector
from .ring import RingEngine, verify_n_independence
from .vertex import apply_operator, chern_operator


def verify_orb_n_independence(model, n_values, s=-1):
    if not model.has_ideal:
        raise ModelError("level-independence on the deformed side needs an ideal model")
    return verify_n_independence(RingEngine(model, s), n_values)


def verify_ring_isomorphism(model, n, max_witnesses=10):
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
            if len(witnesses) >= max_witnesses:
                break

    # each deformed distinguished class equals its Hilbert namesake
    for k in range(n):
        for c in model.working_classes():
            o_vec = orb.apply_generator((k, c), orb.unit_vec(n))
            g_vec = hilb.apply_generator((k, c), hilb.unit_vec(n))
            if o_vec != g_vec:
                witnesses.append({"part": "theta-class", "k": k,
                                  "alpha": model.basis[c].name})

    # the intermediate identity: O_k(alpha, n) o P = G_k(alpha, n) . P
    basis = hilb.basis(n)
    for k in range(n):
        for c in model.working_classes():
            for sigma in basis:
                lhs = orb.word_on_basis(((k, c),), sigma, n)
                rhs = hilb.word_on_basis(((k, c),), sigma, n)
                if lhs != rhs:
                    witnesses.append({"part": "theta-product", "k": k,
                                      "alpha": model.basis[c].name,
                                      "sigma": sigma.to_json(model)})
    return {"ok": not witnesses, "n": n,
            "pairs_compared": len(table_h.entries),
            "witnesses": witnesses[:max_witnesses]}


def verify_marker_vanishing(model, n, max_witnesses=10):
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
                _, marks = apply_operator(fock, op, FockVector.monomial(mono))
                for mv in marks:
                    checked += 1
                    if not fock.reduce(mv).is_zero():
                        witnesses.append({"k": k, "alpha": model.basis[c].name,
                                          "monomial": str(mono)})
    return {"ok": not witnesses, "n": n, "terms_checked": checked,
            "witnesses": witnesses[:max_witnesses]}
