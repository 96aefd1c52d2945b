"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is a coordinate vector of rationals in the power basis
1, z, z^2, ..., z^(d-1) of Q[x]/(Phi_N), where z = zeta_N = exp(2*pi*i/N)
and Phi_N is the N-th cyclotomic polynomial of degree d = phi(N).  All
products are reduced modulo Phi_N, so two elements are equal exactly when
their coordinate tuples agree (after promotion to a common order).

Rationals are the order-1 case (Phi_1 = x - 1, a single coordinate).
Mixing orders promotes both operands to the least common multiple order
via zeta_N = zeta_M ** (M // N).  Conjugation is the field automorphism
zeta -> zeta ** (N - 1), i.e. complex conjugation on the standard embedding.
Elements hash by their normalised trace Tr(x)/phi(N), which promotion
leaves unchanged, so equal values hash equally whatever their order.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense rational polynomials (low-to-high coeffs)."""
    num = list(num)
    q = [_ZERO] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / dlead
        if c:
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    rem = num[: len(den) - 1] or [_ZERO]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return q, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_order, low to high, computed by exact division
    of x^order - 1 by the cyclotomic polynomials of the proper divisors."""
    if order < 1:
        raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
    poly = [_ZERO] * (order + 1)
    poly[0], poly[order] = Fraction(-1), _ONE
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert rem == [_ZERO], "x^n - 1 must factor through divisor cyclotomics"
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^j reduced mod Phi_order, for j = 0 .. max(order, 2*(d-1))."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    top = max(order, 2 * (d - 1)) + 1
    rows: list[tuple[Fraction, ...]] = []
    cur = [_ONE] + [_ZERO] * (d - 1)
    for _ in range(top):
        rows.append(tuple(cur))
        spill = cur[-1]
        cur = [_ZERO] + cur[:-1]
        if spill:
            # x^d = -phi[:d] since phi is monic
            for j in range(d):
                cur[j] -= spill * phi[j]
    return tuple(rows)


def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _trace_weights(order: int) -> tuple[Fraction, ...]:
    """Tr(z^j)/phi(order) for each power-basis element z^j.  With
    m = order/gcd(j, order), z^j is a primitive m-th root, and the m-th
    primitive roots sum to mu(m), the negated second-highest coefficient
    of Phi_m; the trace normalises this by phi(m)."""
    weights = []
    for j in range(_degree(order)):
        phi = cyclotomic_polynomial(order // gcd(j, order))
        weights.append(-phi[-2] / (len(phi) - 1))
    return tuple(weights)


class Cyclotomic:
    """An element of Q(zeta_order), immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        d = _degree(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError(f"expected at most {d} coordinates for order {order}")
        cs += [_ZERO] * (d - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic values are immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _wrap(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic(1, (Fraction(value),))
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    def to_order(self, target: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_target); target must be a multiple of self.order."""
        if target == self.order:
            return self
        if target % self.order:
            raise ValueError(f"order {self.order} does not divide {target}")
        step = target // self.order
        table = _power_table(target)
        d = _degree(target)
        out = [_ZERO] * d
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[j * step]
                for k in range(d):
                    if row[k]:
                        out[k] += c * row[k]
        return Cyclotomic(target, out)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // gcd(a.order, b.order)
        return a.to_order(m), b.to_order(m)

    def _rational_part(self):
        """The constant coordinate if every higher one vanishes, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            o = self._wrap(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(self, o)
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        try:
            o = self._wrap(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        try:
            o = self._wrap(other)
        except TypeError:
            return NotImplemented
        r = o._rational_part()
        if r is not None:
            return Cyclotomic(self.order, tuple(c * r for c in self.coeffs))
        r = self._rational_part()
        if r is not None:
            return Cyclotomic(o.order, tuple(c * r for c in o.coeffs))
        a, b = self._common(self, o)
        d = _degree(a.order)
        prod = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        prod[i + j] += ai * bj
        table = _power_table(a.order)
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            if prod[k]:
                row = table[k]
                for t in range(d):
                    if row[t]:
                        out[t] += prod[k] * row[t]
        return Cyclotomic(a.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_order (irreducible, so any nonzero residue is a unit)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        r = self._rational_part()
        if r is not None:
            return Cyclotomic(self.order, (1 / r,))
        phi = list(cyclotomic_polynomial(self.order))
        r0, r1 = phi, list(self.coeffs)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [_ZERO], [_ONE]
        while any(c != 0 for c in r1) and len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            qs1 = [_ZERO] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs1[i + j] += qi * sj
            new = [a - b for a, b in zip(s0 + [_ZERO] * (len(qs1) - len(s0)), qs1)] \
                if len(qs1) >= len(s0) else \
                  [a - b for a, b in zip(s0, qs1 + [_ZERO] * (len(s0) - len(qs1)))]
            s0, s1 = s1, new
        if len(r1) == 1 and r1[0] != 0:
            inv_lead = 1 / r1[0]
            return Cyclotomic(self.order, [c * inv_lead for c in s1[: _degree(self.order)]]) \
                if len(s1) <= _degree(self.order) else \
                Cyclotomic(self.order, _reduce_long([c * inv_lead for c in s1], self.order))
        raise ZeroDivisionError("inverse of zero in a cyclotomic field")

    def __truediv__(self, other):
        try:
            o = self._wrap(other)
        except TypeError:
            return NotImplemented
        r = o._rational_part()
        if r is not None:
            if r == 0:
                raise ZeroDivisionError("division by zero")
            return Cyclotomic(self.order, tuple(c / r for c in self.coeffs))
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = Cyclotomic(1, (_ONE,))
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: zeta -> zeta^(order-1)."""
        table = _power_table(self.order)
        d = _degree(self.order)
        out = [_ZERO] * d
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[(self.order - j) % self.order]
                for k in range(d):
                    if row[k]:
                        out[k] += c * row[k]
        return Cyclotomic(self.order, out)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return self._rational_part() is not None

    def as_fraction(self) -> Fraction:
        r = self._rational_part()
        if r is None:
            raise ValueError(f"{self!r} is not rational")
        return r

    def __eq__(self, other):
        try:
            o = self._wrap(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(self, o)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the normalised trace is the same in every field containing the
        # value, and a rational's is the rational itself
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.order))))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**j for j, c in enumerate(self.coeffs))

    def __repr__(self):
        r = self._rational_part()
        if r is not None:
            return f"{r}"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(f"{c}")
            else:
                z = f"z{self.order}" if j == 1 else f"z{self.order}^{j}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


def _reduce_long(coeffs: list[Fraction], order: int) -> list[Fraction]:
    table = _power_table(order)
    d = _degree(order)
    out = [_ZERO] * d
    for j, c in enumerate(coeffs):
        if c:
            row = table[j]
            for k in range(d):
                out[k] += c * row[k]
    return out


def cyclo(order: int, power: int = 1) -> Cyclotomic:
    """zeta_order ** power as an exact field element."""
    if order < 1:
        raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
    table = _power_table(order)
    return Cyclotomic(order, table[power % order])


def rat(value: Rat, den: int | None = None) -> Cyclotomic:
    """A rational number as an (order-1) cyclotomic element."""
    if den is not None:
        value = Fraction(value, den)
    return Cyclotomic(1, (Fraction(value),))


ZERO = rat(0)
ONE = rat(1)

# basic sanity of the reduction machinery
assert cyclo(6, 1) ** 6 == 1
assert cyclo(6, 3) == -1
assert (cyclo(6, 1) + cyclo(6, 5)).is_rational()
assert hash(cyclo(3, 1)) == hash(cyclo(6, 2))
