"""First-order differential calculus on a finite group from a cyclic
conjugacy class, with the degree-2 exterior structure.

The calculus is generated by Maurer-Cartan 1-forms e_a indexed by class
members, with the bimodule rule e_a f = (R_a f) e_a and d f =
sum_a (R_a f - f) e_a.  Every form the package builds is left-invariant:
its coefficients over the e_a are constants, one exact scalar each, which
commute through the e_a and have vanishing differentials.  The algebra of
forms whose coefficients vary over the group is a test oracle
(tests/oracles.py).

Degree 2 comes from the braiding  psi(e_a (x) e_b) = e_{a b a^-1} (x) e_a,
which permutes the monomials: the relation space, the kernel of (id - psi)
on the tensor square, is spanned by the sums over the braid orbits, and
Omega^2 is the quotient.  Its basis is every monomial except the least
one of its orbit, the orbits taken from the greatest least pair down and
each walked by the braiding from that pair, so the least monomial reduces
to minus the sum of the rest of its orbit and no elimination is needed.
On a 3-member class with circulant products (diagonal constant, two
off-diagonal values each filling a broken diagonal) the braiding cycles
(0,2) -> (1,0) -> (2,1) and (0,1) -> (2,0) -> (1,2), so the rule gives
the paper's basis

    e_x^e_t,  e_y^e_x,  e_y^e_t,  e_x^e_y     (class order t, x, y)
"""

from __future__ import annotations

import functools
from typing import Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, rat
from .groups import ConjClass

LIFT_VARIANTS = ("canonical", "braided")


def braiding(cls: ConjClass, a: int, b: int) -> tuple[int, int]:
    """The braiding on index pairs of class members: (a, b) -> (a b a^-1, a)."""
    return (cls.ad[a][b], a)


class Calculus:
    """The full degree <= 2 exterior structure for one conjugacy class, with
    theta, each de_a and, on first read, the lift tables and Ricci maps."""

    def __init__(self, cls: ConjClass):
        cls.require_calculus_admissible()
        self.cls = cls
        self.group = cls.group
        self.n_members = m = cls.size
        self.pairs = [(i, j) for i in range(m) for j in range(m)]
        # braiding as a permutation of the m^2 monomials, row-major (a, b)
        self.braid_perm = {p: braiding(cls, *p) for p in self.pairs}
        self.orbits = self._braid_orbits()
        self.quotient_pairs = self._choose_quotient_basis()
        self._build_reduction()
        self.theta = OneForm(self, [ONE] * m)
        self._de = tuple(self.wedge(self.theta, ea) + self.wedge(ea, self.theta)
                         for ea in map(self.basis_one_form, range(m)))
        self._levi_civita = None  # set once, by connections.levi_civita

    # -- quotient structure ------------------------------------------------

    def _braid_orbits(self) -> list[tuple[tuple[int, int], ...]]:
        """The orbits of the braiding on the monomials, walked from the
        pairs in row-major order, so each starts at its least pair."""
        seen, orbits = set(), []
        for start in self.pairs:
            if start in seen:
                continue
            orbit, p = [start], self.braid_perm[start]
            while p != start:
                orbit.append(p)
                p = self.braid_perm[p]
            seen.update(orbit)
            orbits.append(tuple(orbit))
        return orbits

    def _choose_quotient_basis(self) -> list[tuple[int, int]]:
        return [p for orbit in reversed(self.orbits) for p in orbit[1:]]

    def _build_reduction(self):
        """Coordinates of every monomial e_a (x) e_b in the quotient basis,
        modulo the relation space: a basis monomial is its own unit vector,
        and the least pair of an orbit, the one monomial the basis leaves
        out, is minus the sum of the rest of its orbit, as the orbit sums
        span the relations."""
        index = {p: k for k, p in enumerate(self.quotient_pairs)}
        zero, one, minus_one = rat(0), rat(1), rat(-1)
        coords = {p: [zero] * len(index) for p in self.pairs}
        for p, k in index.items():
            coords[p][k] = one
        for first, *rest in self.orbits:
            for p in rest:
                coords[first][index[p]] = minus_one
        self.reduction = {p: tuple(c) for p, c in coords.items()}

    @functools.cached_property
    def lift_tables(self) -> dict[str, list[dict]]:
        return {variant: _lift_table(self, variant) for variant in LIFT_VARIANTS}

    @functools.cached_property
    def ricci_maps(self) -> dict:
        # the curvature layer's matrices, loaded with it on first read
        from .curvature import ricci_map

        return {variant: ricci_map(self, variant) for variant in LIFT_VARIANTS}

    @property
    def quotient_dim(self) -> int:
        return len(self.quotient_pairs)

    @property
    def relation_dim(self) -> int:
        return len(self.orbits)

    # -- form constructors -------------------------------------------------

    def one_form(self, coeffs: Sequence[Cyclotomic]) -> "OneForm":
        return OneForm(self, list(coeffs))

    def zero_one_form(self) -> "OneForm":
        return OneForm(self, [ZERO] * self.n_members)

    def basis_one_form(self, pos: int) -> "OneForm":
        coeffs = [ZERO] * self.n_members
        coeffs[pos] = ONE
        return OneForm(self, coeffs)

    def zero_two_form(self) -> "TwoForm":
        return TwoForm(self, [ZERO] * self.quotient_dim)

    # -- exterior operations ----------------------------------------------

    def reduce_tensor(self, coeffs: dict[tuple[int, int], Cyclotomic]) -> "TwoForm":
        out = [ZERO] * self.quotient_dim
        for p, f in coeffs.items():
            if f.is_zero():
                continue
            for k, c in enumerate(self.reduction[p]):
                if c:
                    out[k] = out[k] + f * c
        return TwoForm(self, out)

    def wedge(self, left: "OneForm", right: "OneForm") -> "TwoForm":
        """(sum_i f_i e_i) ^ (sum_j g_j e_j) = sum_ij f_i g_j e_i ^ e_j: a
        constant g_j commutes through e_i unchanged."""
        tensor = {}
        for i, f in enumerate(left.coeffs):
            if f.is_zero():
                continue
            for j, g in enumerate(right.coeffs):
                prod = f * g
                if not prod.is_zero():
                    tensor[(i, j)] = prod
        return self.reduce_tensor(tensor)

    def d_basis(self, pos: int) -> "TwoForm":
        """d e_a via the Maurer-Cartan identity theta^e_a + e_a^theta, where
        theta, the sum of the basis 1-forms, generates d as a graded commutator."""
        return self._de[pos]

    def d_one_form(self, alpha: "OneForm") -> "TwoForm":
        """d(sum_a alpha_a e_a) = sum_a alpha_a de_a, as constant
        coefficients have vanishing differentials."""
        out = self.zero_two_form()
        for pos, f in enumerate(alpha.coeffs):
            if not f.is_zero():
                out = out + self.d_basis(pos) * f
        return out


def _lift_table(cal: Calculus, variant: str) -> list[dict]:
    """Each quotient basis monomial e_p ^ e_q lifted, as a pair -> rational
    map, to e_p (x) e_q minus half of each off-diagonal monomial with the
    product c_p c_q (canonical) or minus its braiding image (braided)."""
    products, half, table = cal.cls.products, rat(1, 2), []
    for p, q in cal.quotient_pairs:
        minus = ({(c, d): half for c, row in enumerate(products) for d, cd in enumerate(row)
                  if c != d and cd == products[p][q]} if variant == "canonical"
                 else {cal.braid_perm[(p, q)]: ONE})
        entry = {pair: -w for pair, w in minus.items()}
        entry[(p, q)] = ONE - minus.get((p, q), ZERO)
        table.append({pair: w for pair, w in entry.items() if w})
    return table


class _Form:
    """Constant coefficients over a basis of forms, immutable, with the
    linear operations that 1-forms, 2-forms and tensors share."""

    __slots__ = ("calculus", "coeffs")

    def __init__(self, calculus: Calculus, coeffs: Sequence[Cyclotomic]):
        object.__setattr__(self, "calculus", calculus)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def _like(self, coeffs) -> "_Form":
        # a result of the same type and calculus; its coefficients line up
        # with this form's, so they are not validated again
        out = object.__new__(type(self))
        _Form.__init__(out, self.calculus, coeffs)
        return out

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._like([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([-a for a in self.coeffs])

    def __mul__(self, scalar):
        """Multiplication by an exact scalar."""
        return self._like([f * scalar for f in self.coeffs])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None


class OneForm(_Form):
    """A 1-form in left-module coordinates: sum_a coeffs[a] . e_a."""

    __slots__ = ()

    def __init__(self, calculus: Calculus, coeffs: Sequence[Cyclotomic]):
        if len(coeffs) != calculus.n_members:
            raise ValueError("one coefficient per class member")
        super().__init__(calculus, coeffs)

    def __repr__(self):
        labels = self.calculus.cls.labels()
        parts = [f"({f!r})e_{labels[i]}" for i, f in enumerate(self.coeffs) if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


class TwoForm(_Form):
    """A 2-form in coordinates over the fixed quotient basis."""

    __slots__ = ()

    def __init__(self, calculus: Calculus, coeffs: Sequence[Cyclotomic]):
        if len(coeffs) != calculus.quotient_dim:
            raise ValueError("one coefficient per quotient basis monomial")
        super().__init__(calculus, coeffs)

    def __repr__(self):
        labels = self.calculus.cls.labels()
        names = [f"e_{labels[i]}^e_{labels[j]}" for i, j in self.calculus.quotient_pairs]
        parts = [f"({f!r}){names[k]}" for k, f in enumerate(self.coeffs) if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


class TensorOneOne(_Form):
    """An element of the tensor square of 1-forms in left-normal
    coordinates, sum_{p,q} coords[p][q] e_p (x) e_q, built from that grid
    and stored row-major: coeffs[p*m + q] = coords[p][q]."""

    __slots__ = ()

    def __init__(self, calculus: Calculus, coords: Sequence[Sequence[Cyclotomic]]):
        m = calculus.n_members
        if len(coords) != m or any(len(row) != m for row in coords):
            raise ValueError("square grid of coefficients required")
        super().__init__(calculus, [f for row in coords for f in row])

    @property
    def coords(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        m = self.calculus.n_members
        return tuple(self.coeffs[p * m:(p + 1) * m] for p in range(m))

    def __repr__(self):
        labels = self.calculus.cls.labels()
        parts = [f"({f!r})e_{labels[p]}(x)e_{labels[q]}"
                 for (p, q), f in zip(self.calculus.pairs, self.coeffs) if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


def differential_calculus(cls: ConjClass) -> Calculus:
    """Build the calculus; raises NonCyclicClassError for inadmissible classes."""
    return Calculus(cls)

