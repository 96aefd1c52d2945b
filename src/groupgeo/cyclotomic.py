"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is a vector of integer coordinates ``nums`` over one positive
common denominator ``den``, in the power basis 1, z, z^2, ..., z^(d-1) of
Q[x]/(Phi_N), where z = zeta_N = exp(2*pi*i/N) and Phi_N is the N-th
cyclotomic polynomial of degree d = phi(N) (the layout of FLINT's
``fmpq_poly``).  The form is reduced: gcd(den, *nums) = 1.  Phi_N is monic
with integer coefficients, so products reduce modulo Phi_N by an integer
table, and the only division an operation makes is by that content gcd.
Two elements are equal exactly when their reduced forms agree (after
promotion to a common order).

Rationals are the order-1 case (Phi_1 = x - 1, a single coordinate):
arithmetic between two of them takes a path of its own, and every order-1
result comes from one constructor that reduces by a single gcd of two
integers.  Mixing orders promotes both operands to the least common
multiple order via zeta_N = zeta_M ** (M // N).  Conjugation is the field
automorphism zeta -> zeta ** (N - 1), i.e. complex conjugation on the
standard embedding, and the inverse is the product of the other Galois
conjugates over the norm.  Elements hash by their normalised trace
Tr(x)/phi(N), which promotion leaves unchanged, so equal values hash
equally whatever their order, and a rational hashes like its ``int`` or
``Fraction``.

Subtraction has its own body, shaped like addition, and builds no
negated copy of its operand.  One fused kernel serves matrix products:
``dot(xs, ys)`` sums the products of rational pairs as integers over one
denominator, adds the others as elements and reduces once, in the order
that adding the nonzero products one at a time would.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_order, low to high, computed by exact
    division of x^order - 1 by the (monic) cyclotomic polynomials of the
    proper divisors."""
    if order < 1:
        raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            div = cyclotomic_polynomial(d)
            k = len(div) - 1
            quot = [0] * (len(poly) - k)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + k]
                for j, dj in enumerate(div):
                    poly[i + j] -= c * dj
            assert not any(poly), "x^n - 1 must factor through divisor cyclotomics"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[int, ...], ...]:
    """x^j reduced mod Phi_order, for j = 0 .. max(order, 2*(d-1))."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (d - 1)
    for _ in range(max(order, 2 * (d - 1)) + 1):
        rows.append(tuple(cur))
        spill = cur[-1]
        cur = [0] + cur[:-1]
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
        weights.append(Fraction(-phi[-2], len(phi) - 1))
    return tuple(weights)


def _images(nums, rows, d: int) -> tuple[int, ...]:
    """sum_j nums[j] * rows[j], over d coordinates."""
    out = [0] * d
    for c, row in zip(nums, rows):
        if c:
            for t, r in enumerate(row):
                if r:
                    out[t] += c * r
    return tuple(out)


def _product(order: int, an, bn) -> tuple[int, ...]:
    """The integer coordinates of an * bn reduced mod Phi_order."""
    prod = [0] * (2 * len(an) - 1)
    for i, x in enumerate(an):
        if x:
            for j, y in enumerate(bn):
                if y:
                    prod[i + j] += x * y
    return _images(prod, _power_table(order), len(an))


class Cyclotomic:
    """An element of Q(zeta_order), immutable: integer coordinates
    ``nums`` over the positive denominator ``den``, in reduced form."""

    __slots__ = ("_order", "_nums", "_den")

    def __init__(self, order: int, coeffs):
        """From rational power-basis coordinates; missing ones are zero."""
        d = _degree(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError(f"expected at most {d} coordinates for order {order}")
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs] + [0] * (d - len(cs))
        self._order, self._nums, self._den = order, tuple(nums), den

    # read-only views of the reduced form
    order = property(lambda self: self._order)
    nums = property(lambda self: self._nums)
    den = property(lambda self: self._den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as ``Fraction``s."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _wrap(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return _rational(value, 1)
        if isinstance(value, Fraction):
            return _rational(value.numerator, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    def to_order(self, target: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_target); target must be a multiple of self.order."""
        if target == self._order:
            return self
        if target % self._order:
            raise ValueError(f"order {self._order} does not divide {target}")
        if self._order == 1:
            return _make(target, self._nums + (0,) * (_degree(target) - 1), self._den)
        step = target // self._order
        table = _power_table(target)
        rows = [table[j * step] for j in range(len(self._nums))]
        return _make(target, _images(self._nums, rows, len(table[0])), self._den)

    def _galois(self, k: int) -> tuple[int, ...]:
        """The numerators of the image under zeta -> zeta^k."""
        order, table = self._order, _power_table(self._order)
        rows = [table[j * k % order] for j in range(len(self._nums))]
        return _images(self._nums, rows, len(self._nums))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _wrap(other)
            except TypeError:
                return NotImplemented
        if self._order == 1 == other._order:
            (x,), (y,), ad, bd = self._nums, other._nums, self._den, other._den
            if ad == bd:
                return _rational(x + y, ad)
            return _rational(x * bd + y * ad, ad * bd)
        a, b = (self, other) if self._order == other._order else _common(self, other)
        ad, bd = a._den, b._den
        if ad == bd:
            return _make(a._order, tuple(map(add, a._nums, b._nums)), ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _make(a._order, tuple(x * sa + y * sb for x, y in zip(a._nums, b._nums)),
                     ad * sa)

    __radd__ = __add__

    def __neg__(self):
        out = _new(Cyclotomic)
        out._order, out._nums, out._den = self._order, tuple(-x for x in self._nums), self._den
        return out

    def __sub__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _wrap(other)
            except TypeError:
                return NotImplemented
        if self._order == 1 == other._order:
            (x,), (y,), ad, bd = self._nums, other._nums, self._den, other._den
            if ad == bd:
                return _rational(x - y, ad)
            return _rational(x * bd - y * ad, ad * bd)
        a, b = (self, other) if self._order == other._order else _common(self, other)
        ad, bd = a._den, b._den
        if ad == bd:
            return _make(a._order, tuple(map(sub, a._nums, b._nums)), ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _make(a._order, tuple(x * sa - y * sb for x, y in zip(a._nums, b._nums)),
                     ad * sa)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _wrap(other)
            except TypeError:
                return NotImplemented
        an, bn = self._nums, other._nums
        if self._order == 1 == other._order:
            return _rational(an[0] * bn[0], self._den * other._den)
        if not any(bn[1:]):
            return _scale(self, bn[0], other._den)
        if not any(an[1:]):
            return _scale(other, an[0], self._den)
        a, b = (self, other) if self._order == other._order else _common(self, other)
        return _make(a._order, _product(a._order, a._nums, b._nums), a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: with x = nums/den and P the product of
        the conjugates sigma_k(nums) for 1 < k < order coprime to order,
        nums * P is the rational norm N and 1/x = den * P / N."""
        nums, order = self._nums, self._order
        if not any(nums[1:]):
            if not nums[0]:
                raise ZeroDivisionError("inverse of zero in a cyclotomic field")
            n = nums[0]
            return _make(order, (self._den if n > 0 else -self._den,) + nums[1:], abs(n))
        rest = (1,) + (0,) * (len(nums) - 1)
        for k in range(2, order):
            if gcd(k, order) == 1:
                rest = _product(order, rest, self._galois(k))
        norm = _product(order, nums, rest)[0]
        return _scale(_make(order, rest, 1), self._den, norm)

    def __truediv__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _wrap(other)
            except TypeError:
                return NotImplemented
        on = other._nums
        if not any(on[1:]):
            if not on[0]:
                raise ZeroDivisionError("division by zero")
            return _scale(self, other._den, on[0])
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: zeta -> zeta^(order-1)."""
        return _make(self._order, self._galois(self._order - 1), self._den)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._nums)

    def __bool__(self):
        return self._nums[0] != 0 if self._order == 1 else any(self._nums)

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def as_fraction(self) -> Fraction:
        if any(self._nums[1:]):
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._nums[0], self._den)

    def __eq__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _wrap(other)
            except TypeError:
                return NotImplemented
        a, b = (self, other) if self._order == other._order else _common(self, other)
        return a._nums == b._nums and a._den == b._den

    def __hash__(self):
        # the normalised trace is the same in every field containing the
        # value, and a rational's is the rational itself
        nums, den = self._nums, self._den
        if not any(nums[1:]):
            return hash(nums[0]) if den == 1 else hash(Fraction(nums[0], den))
        return hash(sum(n * w for n, w in zip(nums, _trace_weights(self._order))) / den)

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self._order)
        return sum(n / self._den * z**j for j, n in enumerate(self._nums))

    def __repr__(self):
        if self.is_rational():
            return f"{self.as_fraction()}"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(f"{c}")
            else:
                z = f"z{self._order}" if j == 1 else f"z{self._order}^{j}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


_new = object.__new__
_wrap = Cyclotomic._wrap


def _make(order: int, nums: tuple[int, ...], den: int) -> Cyclotomic:
    """The element nums/den of Q(zeta_order), den > 0, in reduced form."""
    if order == 1:
        return _rational(nums[0], den)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(n // g for n in nums)
    out = _new(Cyclotomic)
    out._order, out._nums, out._den = order, nums, den
    return out


def _rational(num: int, den: int) -> Cyclotomic:
    """The rational num/den, den > 0, as a reduced order-1 element."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    out = _new(Cyclotomic)
    out._order, out._nums, out._den = 1, (num,), den
    return out


def _scale(x: Cyclotomic, num: int, den: int) -> Cyclotomic:
    """x * num / den for integers num and den != 0, in x's order."""
    if den < 0:
        num, den = -num, -den
    return _make(x._order, tuple(n * num for n in x._nums), x._den * den)


def _common(a: Cyclotomic, b: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
    m = lcm(a._order, b._order)
    return a.to_order(m), b.to_order(m)


def dot(xs, ys) -> Cyclotomic:
    """The sum of x * y over two sequences of elements: products of two
    rationals add up as integers over a common denominator, the others as
    elements, and the rational total is reduced once."""
    num, den, rest = 0, 1, None
    for x, y in zip(xs, ys):
        if x._order == 1 == y._order:
            p = x._nums[0] * y._nums[0]
            if p:
                d = x._den * y._den
                if den % d == 0:
                    num += p * (den // d)
                else:
                    g = gcd(den, d)
                    num, den = num * (d // g) + p * (den // g), den // g * d
        elif x and y:
            rest = x * y if rest is None else rest + x * y
    if rest is None:
        return _rational(num, den)
    return rest + _rational(num, den) if num else rest


def cyclo(order: int, power: int = 1) -> Cyclotomic:
    """zeta_order ** power as an exact field element."""
    if order < 1:
        raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
    return _make(order, _power_table(order)[power % order], 1)


def rat(value, den: int | None = None) -> Cyclotomic:
    """The one coercion to an exact scalar: a Cyclotomic as it is, and an int,
    a Fraction, value/den or anything Fraction reads as an order-1 element."""
    if den is not None:
        value = Fraction(value, den)
    elif not isinstance(value, (int, Fraction, Cyclotomic)):
        value = Fraction(value)
    return _wrap(value)


ZERO = rat(0)
ONE = rat(1)
