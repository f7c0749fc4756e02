"""Finite graded super-commutative Frobenius algebras modelling H*(Xbar).

A SurfaceModel is a finite graded algebra with degrees in 0..4, a unit, a
point class normalizing the integration functional, distinguished Euler and
canonical classes, and an optional restriction ideal encoding a
quasi-projective open piece with surjective restriction.  Diagonal
pushforwards (the Kuenneth expansion of tau_{k*}) are computed from the dual
basis of the integration pairing and cached per basis element; the Fock
kernel reads them, and the pairing, as integer numerators over one common
denominator, memoized per model.
"""

from __future__ import annotations

import hashlib
import json

from .errors import ModelError
from .linalg import Echelon, LinearCombination, memoized, row_add_scaled
from .rational import ONE, Q, integer_lift, parse_q, qstr


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object")
    return value


def _json_list(value, what):
    if not isinstance(value, list):
        raise ModelError(f"{what} must be a JSON array")
    return value


class BasisElement:
    __slots__ = ("name", "degree")

    def __init__(self, name, degree):
        self.name = name
        self.degree = int(degree)

    @property
    def parity(self):
        return self.degree % 2

    def __repr__(self):
        return f"BasisElement({self.name!r}, {self.degree})"


class GradedClass(LinearCombination):
    """Sparse exact-rational coefficient vector over a model basis.

    Zero coefficients are never stored; instances are treated as immutable,
    so the content key and its hash are built once, on first use.
    """

    __slots__ = ("_key", "_hash")

    def __init__(self, coeffs=None):
        self.terms = {i: Q(v) for i, v in (coeffs or {}).items() if v}
        self._key = self._hash = None

    def get(self, i):
        return self.terms.get(i, Q(0))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((i, qstr(v)) for i, v in self.terms.items()))
        return self._key

    def __repr__(self):
        return f"GradedClass({ {i: qstr(v) for i, v in sorted(self.terms.items())} })"


class SurfaceModel:
    def __init__(self, basis, products, unit, point, euler, canonical,
                 ideal=None, name=None):
        """products maps (i, j) basis index pairs to coefficient dicts; pairs
        may be partial: the unit row and the super-transpose are filled in,
        anything else missing is zero."""
        self.name = name or "model"
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.unit = unit
        self.point = point
        self.degrees = [b.degree for b in self.basis]
        self.parities = [b.degree % 2 for b in self.basis]
        self._names = {b.name: i for i, b in enumerate(self.basis)}
        if len(self._names) != self.dim:
            raise ModelError("duplicate basis names")
        self.table = self._fill_table(products)
        self.euler = euler
        self.canonical = canonical
        self.ideal_gens = list(ideal or [])
        self.pairing = [[self._raw_integral(self.table[(i, j)]) for j in range(self.dim)]
                        for i in range(self.dim)]
        self.pair_den, nums = integer_lift([p for row in self.pairing for p in row])
        self.pair_num = [nums[i * self.dim:(i + 1) * self.dim] for i in range(self.dim)]
        self.gram_inv = self._invert_pairing()
        self.ideal_pivots = self._saturate_ideal()
        self._valid = False
        self.content_hash = hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()

    # -- construction helpers -------------------------------------------------

    def _fill_table(self, products):
        table = {}
        for (i, j), coeffs in products.items():
            table[(i, j)] = {k: Q(v) for k, v in coeffs.items() if v}
        for i in range(self.dim):
            table.setdefault((self.unit, i), {i: ONE})
            table.setdefault((i, self.unit), {i: ONE})
        for (i, j) in list(table):
            if (j, i) not in table:
                sign = -1 if self.parities[i] and self.parities[j] else 1
                table[(j, i)] = {k: v * sign for k, v in table[(i, j)].items()}
        for i in range(self.dim):
            for j in range(self.dim):
                table.setdefault((i, j), {})
        return table

    def _raw_integral(self, coeffs):
        return coeffs.get(self.point, Q(0))

    def _invert_pairing(self):
        """The inverse of the pairing matrix: reduce the rows of [pairing | 1]
        to [1 | inverse].  None when the pairing is degenerate, which
        validate() reports."""
        ech = Echelon()
        for i, prow in enumerate(self.pairing):
            ech.insert({**{(0, j): v for j, v in enumerate(prow) if v}, (1, i): ONE})
        if any((0, j) not in ech.rows for j in range(self.dim)):
            return None
        ech.back_reduce()
        return [[ech.rows[(0, i)].get((1, j), Q(0)) for j in range(self.dim)]
                for i in range(self.dim)]

    def _saturate_ideal(self):
        """Saturate the declared generators to a multiplicatively closed span
        and return the pivot basis indices; the span must be basis-aligned."""
        if not self.ideal_gens:
            return frozenset()
        ech = Echelon()
        queue = [dict(g.items()) for g in self.ideal_gens]
        while queue:
            row = queue.pop()
            if ech.insert(row) is None:
                continue
            for j in range(self.dim):
                prod = {}
                for i, v in row.items():
                    row_add_scaled(prod, self.table[(i, j)], v)
                if prod:
                    queue.append(prod)
        ech.back_reduce()
        pivots = set()
        for p, row in ech.rows.items():
            if len(row) != 1:
                raise ModelError(
                    "restriction ideal is not aligned with the basis; "
                    "supply an adapted basis (pivot %r has a mixed row)" % (p,))
            pivots.add(p)
        if self.unit in pivots:
            raise ModelError("restriction ideal contains the unit")
        return frozenset(pivots)

    # -- basic queries ---------------------------------------------------------

    @property
    def has_ideal(self):
        return bool(self.ideal_pivots)

    def index_of(self, name):
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"unknown basis class {name!r}") from None

    def basis_class(self, i):
        return GradedClass({i: ONE})

    def class_to_json(self, g):
        return [{"name": self.basis[i].name, "coeff": qstr(v)}
                for i, v in sorted(g.items())]

    def working_classes(self):
        """Basis indices labelling the quotient (all of them if projective)."""
        return [i for i in range(self.dim) if i not in self.ideal_pivots]

    def class_degree(self, g):
        """Degree of a homogeneous class, None for 0, ValueError if mixed."""
        degs = {self.degrees[i] for i in g.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("class is not homogeneous")
        return degs.pop()

    def class_parity(self, g):
        pars = {self.parities[i] for i in g.terms}
        if len(pars) > 1:
            raise ValueError("class has mixed parity")
        return pars.pop() if pars else 0

    # -- ring operations -------------------------------------------------------

    def mul(self, a, b):
        out = {}
        for i, u in a.items():
            for j, v in b.items():
                prod = self.table.get((i, j))
                if prod is None:
                    raise ModelError("class does not fit this model's basis")
                if prod:
                    row_add_scaled(out, prod, u * v)
        return GradedClass(out)

    def integrate(self, a):
        """Coefficient of the point class (the integral is normalized so that
        the point class integrates to 1)."""
        return a.get(self.point)

    # -- diagonal pushforward ----------------------------------------------------

    @memoized
    def tau_basis(self, b, k):
        """tau_{k*} of the b-th basis element as a dict slots -> weight."""
        if self.gram_inv is None:
            raise ModelError("degenerate Frobenius pairing")
        out = {}
        if k == 1:
            out[(b,)] = ONE
        elif k == 2:
            for i in range(self.dim):
                ei = self.table[(b, i)]
                if not ei:
                    continue
                for j in range(self.dim):
                    row_add_scaled(out, {(u, j): cu for u, cu in ei.items()},
                                   self.gram_inv[i][j])
        else:
            for slots, w in self.tau_basis(b, k - 1).items():
                tail = slots[1:]
                row_add_scaled(out, {pair + tail: w2 for pair, w2
                                     in self.tau_basis(slots[0], 2).items()}, w)
        return out

    def diagonal_pushforward(self, a, k):
        """tau_{k*}(a) for k >= 1, as a list of (weight, k-tuple of basis
        indices) with distinct tuples and nonzero weights."""
        if k < 1:
            raise ValueError("k must be positive")
        out = {}
        for b, coeff in a.items():
            row_add_scaled(out, self.tau_basis(b, k), coeff)
        return [(w, slots) for slots, w in out.items()]

    @memoized
    def int_tensor(self, a, k):
        """tau_{k*}(a) for k >= 1 as (den, [(integer weight, slots), ...]):
        the diagonal_pushforward weights are the integers divided by den.
        Built once per (class, k) on this model object."""
        tensor = self.diagonal_pushforward(a, k)
        den, nums = integer_lift([w for w, _ in tensor])
        return den, [(num, slots) for num, (_, slots) in zip(nums, tensor)]

    def euler_from_pairing(self):
        """m(tau_{2*}(1)): the class the normal-ordering calculus sees as the
        Euler class.  Equals chi(X)[x] for any graded nondegenerate pairing."""
        out = {}
        for (i, j), w in self.tau_basis(self.unit, 2).items():
            row_add_scaled(out, self.table[(i, j)], w)
        return GradedClass(out)

    # -- ideal reduction --------------------------------------------------------

    def reduce_class(self, a):
        """Representative of iota^*(a): a without its adapted ideal coordinates."""
        if not self.has_ideal:
            raise ModelError("model has no restriction ideal")
        return GradedClass({i: v for i, v in a.items() if i not in self.ideal_pivots})

    def with_ideal(self, gens, suffix="quot"):
        """Same algebra with a replacement restriction ideal.

        gens: iterable of GradedClass or basis indices."""
        classes = [g if isinstance(g, GradedClass) else self.basis_class(g)
                   for g in gens]
        return SurfaceModel(
            self.basis,
            {ij: dict(coeffs) for ij, coeffs in self.table.items()},
            self.unit, self.point, self.euler, self.canonical,
            ideal=classes, name=f"{self.name}+{suffix}")

    # -- validation ---------------------------------------------------------------

    def validate(self, check_euler=False):
        """Return (errors, warnings); empty errors means the model is usable."""
        errors = []
        warnings = []
        deg = self.degrees
        if any(d < 0 or d > 4 for d in deg):
            errors.append("basis degrees must lie in 0..4")
        if deg[self.unit] != 0:
            errors.append("unit must have degree 0")
        if deg[self.point] != 4:
            errors.append("point class must have degree 4")
        if sum(1 for d in deg if d == 0) != 1:
            errors.append("exactly one degree-0 basis element expected")

        for (i, j), coeffs in self.table.items():
            d = deg[i] + deg[j]
            for k, v in coeffs.items():
                if deg[k] != d:
                    errors.append(
                        f"product {self.basis[i].name}*{self.basis[j].name} "
                        f"is not homogeneous of degree {d}")
                    break
            if d > 4 and coeffs:
                errors.append(
                    f"product {self.basis[i].name}*{self.basis[j].name} "
                    "exceeds the top degree but is nonzero")

        for i in range(self.dim):
            if self.table[(self.unit, i)] != {i: ONE}:
                errors.append(f"unit law fails at {self.basis[i].name}")
                break

        for i in range(self.dim):
            for j in range(self.dim):
                sign = -1 if self.parities[i] and self.parities[j] else 1
                ij = self.table[(i, j)]
                ji = {k: v * sign for k, v in self.table[(j, i)].items()}
                if ij != ji:
                    errors.append(
                        f"super-commutativity fails at "
                        f"({self.basis[i].name}, {self.basis[j].name})")

        for i in range(self.dim):
            if self.parities[i] and self.table[(i, i)]:
                errors.append(f"odd class {self.basis[i].name} has nonzero square")

        assoc_witness = self._associativity_witness()
        if assoc_witness:
            errors.append("associativity fails at (%s, %s, %s)" % assoc_witness)

        if self.gram_inv is None:
            errors.append("Frobenius pairing degenerate")

        for what, cls, want in (("canonical", self.canonical, 2),
                                ("Euler", self.euler, 4)):
            try:
                if self.class_degree(cls) not in (None, want):
                    errors.append(f"{what} class must have degree {want}")
            except ValueError:
                errors.append(f"{what} class is not homogeneous")

        if check_euler:
            b1 = sum(1 for d in deg if d == 1)
            b2 = sum(1 for d in deg if d == 2)
            chi = Q(2 - 2 * b1 + b2)
            if self.integrate(self.euler) != chi:
                warnings.append(
                    f"Euler number {qstr(self.integrate(self.euler))} differs from "
                    f"2 - 2*b1 + b2 = {qstr(chi)}")
            if self.gram_inv is not None and self.euler != self.euler_from_pairing():
                warnings.append(
                    "declared Euler class differs from the diagonal self-intersection "
                    "m(tau_2*(1)); the transposition calculus sees the latter")
        return errors, warnings

    def require_valid(self):
        """Raise ModelError on the first validation error; the check runs once
        per model object."""
        if not self._valid:
            errors, _ = self.validate()
            if errors:
                raise ModelError(f"model {self.name!r} fails validation: {errors[0]}")
            self._valid = True

    def _associativity_witness(self):
        table = self.table
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                ij = table[(i, j)]
                for k in range(dim):
                    left = {}
                    for u, w in ij.items():
                        row_add_scaled(left, table[(u, k)], w)
                    right = {}
                    for v, w in table[(j, k)].items():
                        row_add_scaled(right, table[(i, v)], w)
                    if left != right:
                        return (self.basis[i].name, self.basis[j].name,
                                self.basis[k].name)
        return None

    # -- serialization ---------------------------------------------------------------

    def to_json(self):
        products = []
        for i in range(self.dim):
            for j in range(self.dim):
                coeffs = self.table[(i, j)]
                if coeffs and not (i == self.unit or j == self.unit):
                    products.append({
                        "left": self.basis[i].name,
                        "right": self.basis[j].name,
                        "result": [{"name": self.basis[k].name, "coeff": qstr(v)}
                                   for k, v in sorted(coeffs.items())],
                    })
        return {
            "name": self.name,
            "basis": [{"name": b.name, "degree": b.degree} for b in self.basis],
            "products": products,
            "unit": self.basis[self.unit].name,
            "point": self.basis[self.point].name,
            "euler": self.class_to_json(self.euler),
            "canonical": self.class_to_json(self.canonical),
            "ideal": [self.class_to_json(g) for g in self.ideal_gens],
        }

    @classmethod
    def from_json(cls, obj):
        basis = []
        for b in _json_list(_json_object(obj, "a model")["basis"], "'basis'"):
            name, degree = _json_object(b, "a basis element")["name"], b["degree"]
            if not isinstance(name, str) or type(degree) is not int:
                raise ModelError("a basis element needs a string name and an "
                                 "integer degree")
            basis.append(BasisElement(name, degree))
        names = {b.name: i for i, b in enumerate(basis)}

        def idx(name):
            if isinstance(name, str) and name in names:
                return names[name]
            raise ModelError(f"unknown basis class {name!r}")

        def cls_from(items, what):
            coeffs = {}
            for t in _json_list(items, what):
                t = _json_object(t, f"a term of {what}")
                i = idx(t["name"])
                if i in coeffs:
                    raise ModelError(f"class {t['name']!r} is named twice in {what}")
                coeffs[i] = parse_q(t["coeff"])
            return GradedClass(coeffs)

        products = {}
        for p in _json_list(obj.get("products", []), "'products'"):
            p = _json_object(p, "a product")
            pair = (idx(p["left"]), idx(p["right"]))
            if pair in products:
                raise ModelError(f"the product ({p['left']!r}, {p['right']!r}) is given twice")
            products[pair] = cls_from(p["result"], "a product result").terms
        if not isinstance(obj.get("name", ""), str):
            raise ModelError("a model name must be a string")
        model = cls.__new__(cls)
        SurfaceModel.__init__(
            model, basis, products, idx(obj["unit"]), idx(obj["point"]),
            cls_from(obj.get("euler", []), "'euler'"),
            cls_from(obj.get("canonical", []), "'canonical'"),
            ideal=[cls_from(g, "an ideal generator")
                   for g in _json_list(obj.get("ideal", []), "'ideal'")],
            name=obj.get("name"))
        return model

    def __repr__(self):
        return f"SurfaceModel({self.name!r}, dim={self.dim}, ideal={sorted(self.ideal_pivots)})"


def validate_model(model, check_euler=False):
    """Diagnostics list for the spec-facing validation entry point."""
    errors, warnings = model.validate(check_euler=check_euler)
    return errors + [f"warning: {w}" for w in warnings]
