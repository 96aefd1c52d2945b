"""Test oracles: plain reference computations that only the tests call.

Each is one of four kinds.

The direct, unoptimised form of something the package computes another
way, beside:

  * forms whose coefficients vary over the group, one package form per
    element, with translation, d and the wedge read off the group table:
    the package's constant coefficients, one scalar each;
  * the dense torsion system, and the torsion-free family expanded to its
    |G|-valued members: the Kronecker-factored solve, and the directions
    the package states the family by;
  * a group-algebra system assembled on G: its solve on H = <C>;
  * Ricci lifted and contracted term by term, and the Ricci system from
    three Ricci evaluations on delta_e charts: one matrix per lift
    variant, and the system read off the class tables;
  * the calculus of (H, C): the elements of H in G;
  * the degree-2 quotient by elimination: the braid orbits;
  * a polynomial evaluated on a matrix, and the matrix Krylov minimal
    polynomial: a certified spectrum, and the vector one;
  * the Dirac and wave operators summed from dense Kronecker and
    translation matrices, the spinor blocks sliced out of an assembled
    operator and the dense class translation sums: their assembly from
    group-algebra coefficients and the coefficients the reports read;
  * the chirality grading from the dense eigenvectors, and the
    Peter-Weyl basis that carries block gradings to G: the grading built
    on the irreducible blocks;
  * the eigenmode catalogs declared on |G|-valued functions and scored by
    apply: their declaration and scoring in block coordinates;
  * the full associativity and homomorphism scans, and dense right
    translation matrices: the checks over a generating set, and the
    group table;
  * mpmath's rendering of a rational's decimal and of a cyclotomic
    value's, and the exact decimals by stdlib decimal and mpmath
    intervals: the integer decimal and the exact enclosure;
  * Sturm bisection: p-adic lifting for integer roots;
  * the Fraction-tuple cyclotomic scalar and its whole-row Gauss-Jordan
    elimination, and each span ranked alone: integer numerators over one
    denominator, the fraction-free echelon, and the spans read off one
    reduction.

A closed form the package derives from the operator instead: the
hand-derived eigenvalue candidates.  A certificate the package does not need at run time: the Peter-Weyl rank.
Or a helper only the tests use: the rank of a matrix, diagonal and
entrywise conjugate matrices, conjugacy class lists, Cayley-table dicts,
the spinor planar1 and the twisted sign2 representations, characters,
matrix-element functions, conjugate representations and coframe
coefficients.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction
from typing import Sequence

from mpmath import iv, mp, mpf
from mpmath.libmp import to_rational

from groupgeo.calculus import Calculus, TensorOneOne, TwoForm, braiding, differential_calculus
from groupgeo.connections import Connection, chart_connection, levi_civita
from groupgeo.curvature import (LIFT_VARIANTS, connection_grid, lift, ricci_system,
                                wedge_of_tensor)
from groupgeo.cyclotomic import Cyclotomic, cyclo, dot, rat
from groupgeo.dirac import gamma_matrices, metric, require_symmetric
from groupgeo.errors import SingularMetricError
from groupgeo.groups import (ConjClass, FiniteGroup, conjugacy_class, dihedral_structure,
                             require_chart_class)
from groupgeo.linalg import Mat, assemble, inverse, kernel_basis, rref, solve_affine
from groupgeo.representations import Representation, irreducibles
from groupgeo.spectra import poly_from_roots, spectrum

_ZERO = rat(0)
_ONE = rat(1)

# -- reporting --------------------------------------------------------------

def mpmath_rational_decimal(num: int, den: int) -> str:
    """The 12-digit decimal of num/den as mpmath prints it at 30 digits:
    mpf(num) and mpf(den) each rounded to mp.prec bits, their quotient, and
    nstr."""
    with mp.workdps(30):
        return mp.nstr(mpf(num) / mpf(den), 12)


def mpmath_cyclotomic_decimal(c: Cyclotomic, dps: int = 30) -> str:
    """The real and imaginary parts of c as mpmath prints them at dps
    digits: each coordinate w_j of zeta**j, its numerator and denominator
    rounded to mp.prec bits, times cospi and sinpi of 2j/order, summed in
    mpmath, then nstr."""
    with mp.workdps(dps):
        re = im = mpf(0)
        for j, w in enumerate(c.coeffs):
            if w:
                angle = mpf(2 * j) / mpf(c.order)
                w = mpf(w.numerator) / mpf(w.denominator)
                re += w * mp.cospi(angle)
                im += w * mp.sinpi(angle)
        return f"{mp.nstr(re, 12)} + {mp.nstr(im, 12)}i"


def exact_rational_decimal(num: int, den: int) -> str:
    """num/den rounded half up (ties away from zero) to 12 significant
    digits, in mpmath's nstr layout, by stdlib decimal: the quotient cut to
    50 digits compares with every 13-digit tie as num/den does, and is then
    rounded to 12."""
    if not num:
        return "0.0"
    cut = decimal.Context(prec=50, rounding=decimal.ROUND_DOWN).divide(
        decimal.Decimal(abs(num)), decimal.Decimal(den))
    value = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_UP).plus(cut)
    exponent = value.adjusted()
    sign = "-" if num < 0 else ""
    if -5 < exponent < 12:
        text = format(value, "f")
        text = text.rstrip("0") if "." in text else text + "."
        return sign + text + ("0" if text.endswith(".") else "")
    digits = "".join(map(str, value.as_tuple().digits)).rstrip("0")
    return f"{sign}{digits[0]}.{digits[1:] or '0'}e{exponent:+d}"


def exact_cyclotomic_decimal(c: Cyclotomic) -> str:
    """The real and imaginary parts of c, each rounded half up to 12
    significant digits (exact_rational_decimal): a rational part from its
    exact value, and any other from mpmath interval sums of w_j cos(2 pi
    j/order), or sin, at twice the precision until both ends render alike."""
    parts = []
    prec = iv.prec
    try:
        # twice the real part and twice the imaginary part
        for wave, twice in ((iv.cos, c + c.conj()), (iv.sin, (c - c.conj()) * cyclo(4, 3))):
            if twice.is_rational():
                half = twice.as_fraction() / 2
                parts.append(exact_rational_decimal(half.numerator, half.denominator))
                continue
            iv.prec = 64
            ends = ("", None)
            while ends[0] != ends[1]:
                iv.prec *= 2
                total = sum(iv.mpf(w.numerator) / w.denominator * wave(2 * iv.pi * j / c.order)
                            for j, w in enumerate(c.coeffs) if w)
                ends = [exact_rational_decimal(*to_rational(end)) for end in total._mpi_]
            parts.append(ends[0])
    finally:
        iv.prec = prec
    return f"{parts[0]} + {parts[1]}i"


# -- scalars ------------------------------------------------------------------

def _frac_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense rational polynomials (low-to-high coeffs)."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        if c:
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    rem = num[: len(den) - 1] or [Fraction(0)]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return q, rem


@functools.lru_cache(maxsize=None)
def fraction_cyclotomic_polynomial(order: int) -> tuple[Fraction, ...]:
    """Phi_order over Fraction: x^order - 1 divided by the cyclotomic
    polynomials of the proper divisors."""
    poly = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _frac_divmod(poly, list(fraction_cyclotomic_polynomial(d)))
            assert rem == [0]
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _frac_power_table(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^j reduced mod Phi_order, for j = 0 .. max(order, 2*(d-1))."""
    phi = fraction_cyclotomic_polynomial(order)
    d = len(phi) - 1
    rows, cur = [], [Fraction(1)] + [Fraction(0)] * (d - 1)
    for _ in range(max(order, 2 * (d - 1)) + 1):
        rows.append(tuple(cur))
        spill, cur = cur[-1], [Fraction(0)] + cur[:-1]
        for j in range(d):
            cur[j] -= spill * phi[j]
    return tuple(rows)


def _frac_reduce(coeffs: Sequence[Fraction], order: int) -> list[Fraction]:
    """sum_j coeffs[j] x^j reduced mod Phi_order."""
    table = _frac_power_table(order)
    out = [Fraction(0)] * len(table[0])
    for j, c in enumerate(coeffs):
        for k, r in enumerate(table[j]):
            out[k] += c * r
    return out


class FractionCyclotomic:
    """An element of Q(zeta_order) as a tuple of ``Fraction`` power-basis
    coordinates, with the same order rules as ``Cyclotomic``: sums and
    products of two irrationals promote to the lcm order, a rational factor
    keeps the other factor's order."""

    def __init__(self, order: int, coeffs):
        d = len(fraction_cyclotomic_polynomial(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        assert len(cs) <= d
        self.order = order
        self.coeffs = tuple(cs + [Fraction(0)] * (d - len(cs)))

    @staticmethod
    def of(value) -> "FractionCyclotomic":
        if isinstance(value, FractionCyclotomic):
            return value
        if isinstance(value, Cyclotomic):
            return FractionCyclotomic(value.order, value.coeffs)
        return FractionCyclotomic(1, [value])

    def to_order(self, target: int) -> "FractionCyclotomic":
        if target % self.order:
            raise ValueError(f"order {self.order} does not divide {target}")
        step = target // self.order
        table = _frac_power_table(target)
        out = [Fraction(0)] * len(table[0])
        for j, c in enumerate(self.coeffs):
            for k, r in enumerate(table[j * step]):
                out[k] += c * r
        return FractionCyclotomic(target, out)

    def _common(self, other):
        m = math.lcm(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        a, b = self._common(FractionCyclotomic.of(other))
        return FractionCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return FractionCyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + -FractionCyclotomic.of(other)

    def __mul__(self, other):
        other = FractionCyclotomic.of(other)
        if other.is_rational():
            r = other.coeffs[0]
            return FractionCyclotomic(self.order, [c * r for c in self.coeffs])
        if self.is_rational():
            return other * self
        a, b = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return FractionCyclotomic(a.order, _frac_reduce(prod, a.order))

    def inverse(self) -> "FractionCyclotomic":
        """By the extended Euclidean algorithm against Phi_order."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if self.is_rational():
            return FractionCyclotomic(self.order, [1 / self.coeffs[0]])
        r0, r1 = list(fraction_cyclotomic_polynomial(self.order)), list(self.coeffs)
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _frac_divmod(r0, r1)
            r0, r1 = r1, rem
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                for j, sj in enumerate(s1):
                    qs1[i + j] += qi * sj
            width = max(len(s0), len(qs1))
            s0, s1 = s1, [a - b for a, b in zip(s0 + [0] * (width - len(s0)),
                                                 qs1 + [0] * (width - len(qs1)))]
        return FractionCyclotomic(self.order, _frac_reduce([c / r1[0] for c in s1], self.order))

    def __truediv__(self, other):
        other = FractionCyclotomic.of(other)
        if other.is_rational():
            if not other.coeffs[0]:
                raise ZeroDivisionError("division by zero")
            return FractionCyclotomic(self.order, [c / other.coeffs[0] for c in self.coeffs])
        return self * other.inverse()

    def conj(self) -> "FractionCyclotomic":
        table = _frac_power_table(self.order)
        out = [Fraction(0)] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            for k, r in enumerate(table[(self.order - j) % self.order]):
                out[k] += c * r
        return FractionCyclotomic(self.order, out)

    def __eq__(self, other):
        a, b = self._common(FractionCyclotomic.of(other))
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the normalised trace: Tr(z^j)/phi(order) is mu(m)/phi(m) for the
        # order m = order/gcd(j, order) of z^j
        trace = Fraction(0)
        for j, c in enumerate(self.coeffs):
            phi = fraction_cyclotomic_polynomial(self.order // math.gcd(j, self.order))
            trace += c * -phi[-2] / (len(phi) - 1)
        return hash(trace)

    def __repr__(self):
        return f"FractionCyclotomic({self.order}, {self.coeffs})"


def oracle_rref(rows: Sequence[Sequence]) -> tuple[list[list[FractionCyclotomic]], list[int]]:
    """Gauss-Jordan over FractionCyclotomic with the package's positional
    pivot rule (the first row with a nonzero entry), touching every column."""
    rows = [[FractionCyclotomic.of(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        src = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


# -- linear algebra ---------------------------------------------------------

def rank(matrix: Mat) -> int:
    return len(rref(matrix)[1])


def span_dim(vectors: list[list[Cyclotomic]]) -> int:
    """The dimension of the span of vectors, ranked on its own."""
    return rank(Mat(vectors)) if vectors else 0


def vec_is_zero(a: Sequence) -> bool:
    return all(rat(x).is_zero() for x in a)


def diagonal(entries: Sequence) -> Mat:
    """The square matrix with the given diagonal and zeros elsewhere."""
    es = [rat(e) for e in entries]
    return Mat([[es[i] if i == j else _ZERO for j in range(len(es))]
                for i in range(len(es))])


def conj_entries(matrix: Mat) -> Mat:
    """Complex conjugate of every entry, without transposing."""
    return Mat([[a.conj() for a in row] for row in matrix.rows])


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, a's index varying slowest."""
    return Mat([[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows])


def spinor_blocks(op: Mat, dim_w: int) -> list[list[Mat]]:
    """Slice a spinor operator into its dim_w x dim_w grid of group blocks."""
    if op.nrows != op.ncols or op.nrows % dim_w:
        raise ValueError("operator size is not a multiple of the spinor dimension")
    n = op.nrows // dim_w
    return [[op.submatrix(range(i * n, (i + 1) * n), range(j * n, (j + 1) * n))
             for j in range(dim_w)] for i in range(dim_w)]


def eval_poly(matrix: Mat, coeffs: Sequence) -> Mat:
    """p(matrix) for p given by low-to-high coefficients."""
    n = matrix.nrows
    out = Mat.zeros(n, n)
    power = Mat.identity(n)
    for c in coeffs:
        cs = rat(c)
        if cs:
            out = out + power * cs
        power = power @ matrix
    return out


# -- forms whose coefficients vary over the group ------------------------------
# The package's forms are left-invariant: each coefficient is one constant.
# Here a function on G is the tuple of its |G| values, in element order, and
# a form, tensor or connection component whose coefficients vary is a Field:
# one package object with constant coefficients per group element, its
# value there.  Sums, products with scalars and functions, lifts and the
# reduction run the package's constant code at each element; only
# translation, d and the wedge read the group table.

def translate(group: FiniteGroup, f: Sequence, a: int) -> tuple:
    """R_a f, with (R_a f)(g) = f(ga)."""
    return tuple(f[group.mul(g, a)] for g in range(group.order))


def delta(group: FiniteGroup, g: int) -> tuple:
    """The function that is 1 at g and 0 elsewhere."""
    return tuple(_ONE if k == g else _ZERO for k in range(group.order))


class Field:
    """A package form, tensor or 2-form-valued vector at every group
    element: at[g] is the value at g, with constant coefficients."""

    __slots__ = ("group", "at")

    def __init__(self, group: FiniteGroup, at: Sequence):
        values = tuple(at)
        if len(values) != group.order:
            raise ValueError("one value per group element required")
        self.group = group
        self.at = values

    @classmethod
    def constant(cls, group: FiniteGroup, value) -> "Field":
        return cls(group, [value] * group.order)

    def __add__(self, other: "Field") -> "Field":
        return Field(self.group, [a + b for a, b in zip(self.at, other.at)])

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.group, [a - b for a, b in zip(self.at, other.at)])

    def __neg__(self) -> "Field":
        return Field(self.group, [-a for a in self.at])

    def __mul__(self, factor) -> "Field":
        """Times an exact scalar, or a function on G element by element."""
        if isinstance(factor, tuple):
            return Field(self.group, [a * f for a, f in zip(self.at, factor)])
        return Field(self.group, [a * factor for a in self.at])

    def coefficient(self, k: int) -> tuple:
        """Coefficient k of a form as a function on G."""
        return tuple(a.coeffs[k] for a in self.at)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.at)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self.group is other.group and self.at == other.at

    __hash__ = None

    def __repr__(self):
        return f"Field({list(self.at)!r})"

    # -- 1-forms -----------------------------------------------------------

    def right_mul(self, f: Sequence) -> "Field":
        """alpha . f, commuting f through each e_a by the bimodule rule
        e_a f = (R_a f) e_a."""
        cal = self.at[0].calculus
        coeffs = [tuple(c * x for c, x in zip(self.coefficient(pos), translate(self.group, f, a)))
                  for pos, a in enumerate(cal.cls.members)]
        return one_form_field(cal, coeffs)

    def wedge(self, other: "Field") -> "Field":
        """alpha ^ beta for 1-forms: at g, sum_i alpha_i(g) e_i ^ beta(g a_i),
        the coefficients of beta moved through e_i by the bimodule rule."""
        cal, mul = self.at[0].calculus, self.group.mul
        out = []
        for g, alpha in enumerate(self.at):
            total = cal.zero_two_form()
            for i, (f, a) in enumerate(zip(alpha.coeffs, cal.cls.members)):
                if not f.is_zero():
                    total = total + cal.wedge(cal.basis_one_form(i) * f, other.at[mul(g, a)])
            out.append(total)
        return Field(self.group, out)

    def d(self) -> "Field":
        """d(sum_a f_a e_a) = sum_a (df_a ^ e_a + f_a de_a)."""
        cal = self.at[0].calculus
        total = Field.constant(self.group, cal.zero_two_form())
        for pos in range(cal.n_members):
            f = self.coefficient(pos)
            basis = Field.constant(self.group, cal.basis_one_form(pos))
            total = (total + d_function(cal, f).wedge(basis)
                     + Field.constant(self.group, cal.d_basis(pos)) * f)
        return total

    # -- 2-forms and tensors, element by element -----------------------------

    def lift(self, variant: str) -> "Field":
        return Field(self.group, [lift(a, variant) for a in self.at])

    def wedge_of_tensor(self) -> "Field":
        return Field(self.group, [wedge_of_tensor(a) for a in self.at])


def one_form_field(calculus: Calculus, functions: Sequence[Sequence]) -> Field:
    """sum_a functions[a] e_a, each coefficient a function on G."""
    return Field(calculus.group, [calculus.one_form([f[g] for f in functions])
                                  for g in range(calculus.group.order)])


def d_function(calculus: Calculus, f: Sequence) -> Field:
    """d f = sum_a (R_a f - f) e_a."""
    return one_form_field(calculus, [tuple(x - y for x, y in zip(translate(calculus.group, f, a), f))
                                     for a in calculus.cls.members])


def constant_fields(group: FiniteGroup, forms: Sequence) -> list[Field]:
    """Each form, a connection's components say, held at every element."""
    return [Field.constant(group, form) for form in forms]


def dense_vector(components: Sequence[Field]) -> list:
    """A connection's coefficients in the column order of torsion_system:
    the coefficient of e_b in A_c at h sits at (c*m + b)*|G| + h."""
    m = len(components)
    return [x for comp in components for b in range(m) for x in comp.coefficient(b)]


def field_chart(calculus: Calculus, alpha: Sequence, beta: Sequence,
                gamma: Sequence) -> list[Field]:
    """The component fields of the chart pattern in three parameter
    functions: connections.chart_connection at each element."""
    conns = [chart_connection(calculus, *params) for params in zip(alpha, beta, gamma)]
    return [Field(calculus.group, [conn.components[a] for conn in conns])
            for a in range(calculus.n_members)]


def field_covariant_derivative(components: Sequence[Field], alpha: Field) -> Field:
    """nabla alpha = sum_a (df_a (x) e_a + f_a nabla e_a), nabla e_a read off
    curvature.connection_grid at each element."""
    cal = alpha.at[0].calculus
    m = cal.n_members
    differentials = [d_function(cal, alpha.coefficient(a)) for a in range(m)]
    out = []
    for g, form in enumerate(alpha.at):
        grid = connection_grid(Connection(cal, [comp.at[g] for comp in components]))
        coords = [[_ZERO] * m for _ in range(m)]
        for a, f in enumerate(form.coeffs):
            for p in range(m):
                coords[p][a] = coords[p][a] + differentials[a].at[g].coeffs[p]
                for q in range(m):
                    coords[p][q] = coords[p][q] + f * grid[a][q].coeffs[p]
        out.append(TensorOneOne(cal, coords))
    return Field(alpha.group, out)


def field_curvature_forms(components: Sequence[Field]) -> list[Field]:
    """The component curvature
    F_a = dA_a + sum_{cd=a} A_c ^ A_d - sum_c (A_c ^ A_a + A_a ^ A_c)."""
    cls = components[0].at[0].calculus.cls
    out = []
    for a, comp_a in zip(cls.members, components):
        f = comp_a.d()
        for comp_c, row in zip(components, cls.products):
            for comp_d, cd in zip(components, row):
                if cd == a:
                    f = f + comp_c.wedge(comp_d)
            f = f - comp_c.wedge(comp_a) - comp_a.wedge(comp_c)
        out.append(f)
    return out


def field_relative_curvature(components: Sequence[Field]) -> list[Field]:
    """dA_a - de_a for every component."""
    cal = components[0].at[0].calculus
    return [comp.d() - Field.constant(comp.group, cal.d_basis(pos))
            for pos, comp in enumerate(components)]


# -- the degree-2 quotient -----------------------------------------------------

def eliminated_quotient(calculus: Calculus) -> tuple[list, int, dict]:
    """The quotient basis, the relation dimension and the reduction table
    found by elimination: the kernel of id - P for the braiding permutation
    P of the m^2 monomials (row-major), the free columns of the row-reduced
    kernel basis (the paper's fixed basis on a circulant class), and one
    solve per monomial against the basis monomials and the relations."""
    cls = calculus.cls
    m = cls.size
    pairs = [(i, j) for i in range(m) for j in range(m)]
    pos = {p: k for k, p in enumerate(pairs)}
    n2 = len(pairs)
    perm = [[0] * n2 for _ in range(n2)]
    for p in pairs:
        perm[pos[braiding(cls, *p)]][pos[p]] = 1
    relations = kernel_basis(Mat.identity(n2) - Mat(perm))
    if calculus.circulant:
        basis = [(1, 0), (2, 1), (2, 0), (1, 2)]
    else:
        _, pivots = rref(Mat(relations))
        basis = [p for k, p in enumerate(pairs) if k not in pivots]
    unit = Mat.identity(n2).rows
    system = Mat([unit[pos[p]] for p in basis] + relations).transpose()
    reduction = {}
    for p in pairs:
        solution, kernel = solve_affine(system, unit[pos[p]])
        assert kernel == [], "the basis and the relations are dependent"
        reduction[p] = tuple(solution[:len(basis)])
    return basis, len(relations), reduction


# -- connections and curvature ----------------------------------------------

def torsion_system(calculus: Calculus) -> tuple[Mat, list]:
    """The linear system in the component coefficients whose solutions are
    exactly the torsion-free connections.

    Unknown order: coefficient of e_b at group element h inside A_c sits at
    column (c*m + b)*|G| + h.  Row order: member a, then quotient coordinate
    k, then group element g, at row (a*q + k)*|G| + g.  The right-hand side
    is -de_a, so M x = rhs characterises torsion freeness.
    """
    cal = calculus
    cls = cal.cls
    grp = cls.group
    m = cal.n_members
    order = grp.order
    qdim = cal.quotient_dim
    ncols = m * m * order
    nrows = m * qdim * order

    rows = [[rat(0)] * ncols for _ in range(nrows)]
    rhs = [rat(0)] * nrows
    for apos, a in enumerate(cls.members):
        de = cal.d_basis(apos)
        for k in range(qdim):
            for g in range(order):
                rhs[(apos * qdim + k) * order + g] = -de.coeffs[k]
        for cpos, c in enumerate(cls.members):
            conj_pos = cls.members.index(grp.conj(grp.inv(c), a))
            for bpos in range(m):
                # A_c = delta_h e_b wedges to delta_h (e_b^e_conj - e_b^e_a);
                # the delta keeps each group element in its own row block.
                plus = cal.reduction[(bpos, conj_pos)]
                minus = cal.reduction[(bpos, apos)]
                for k in range(qdim):
                    coeff = plus[k] - minus[k]
                    if coeff.is_zero():
                        continue
                    col_base = (cpos * m + bpos) * order
                    for h in range(order):
                        rows[(apos * qdim + k) * order + h][col_base + h] = coeff
    return Mat(rows), rhs


def apply(coeffs, group: FiniteGroup, vec: Sequence) -> list[Cyclotomic]:
    """The image of vec under sum_h coeffs[h] (x) R(h) on the functions on
    G, with no matrix: entry (i, g) is sum_h sum_j coeffs[h][i, j]
    vec[(j, gh)], its nonzero factors gathered first and summed by one dot."""
    n = group.order
    vec = [rat(x) for x in vec]
    shape = next(iter(coeffs.values()))
    if len(vec) != shape.ncols * n:
        raise ValueError(f"a vector of length {len(vec)} does not fit the operator")
    terms = [([], []) for _ in range(shape.nrows * n)]
    for h, block in coeffs.items():
        moved = [group.mul(g, h) for g in range(n)]
        for j in range(block.ncols):
            # the j-th component of R(h) vec, where it is nonzero
            col = [(g, vec[j * n + gh]) for g, gh in enumerate(moved) if vec[j * n + gh]]
            for i in range(block.nrows):
                w = block[i, j]
                if w:
                    for g, x in col:
                        ws, xs = terms[i * n + g]
                        ws.append(w)
                        xs.append(x)
    return [dot(ws, xs) for ws, xs in terms]


def dense_system(coeffs, rhs, group: FiniteGroup) -> tuple[Mat, list]:
    """The system assemble(coeffs, group) x = b on all of G, b holding the
    constant rhs[i] at every element in row component i: what
    curvature.solve_invariant solves on constants."""
    return assemble(coeffs, group), [rat(b) for b in rhs for _ in range(group.order)]


def lifted_ricci(components: Sequence[Field], variant: str) -> Field:
    """Ricci of curvature.ricci, one variant, for a connection given by its
    component fields: each relative curvature form lifted with curvature.lift
    and the lifted tensors contracted through the conjugation pattern term by
    term, at every element."""
    cal = components[0].at[0].calculus
    m = cal.n_members
    relative = field_relative_curvature(components)
    out = []
    for g in range(cal.group.order):
        coords = [[_ZERO] * m for _ in range(m)]
        # conj_pos = c^-1 a c runs over the class as a = c conj_pos c^-1 does
        for form, row in zip(relative, cal.cls.ad):
            lifted = lift(form.at[g], variant).coeffs
            for conj_pos, apos in enumerate(row):
                if conj_pos != apos:
                    for b in range(m):
                        coords[b][conj_pos] = coords[b][conj_pos] + lifted[apos * m + b]
                        coords[b][apos] = coords[b][apos] - lifted[apos * m + b]
        out.append(TensorOneOne(cal, coords))
    return Field(cal.group, out)


def three_chart_ricci_system(calculus: Calculus) -> dict[str, tuple[dict[int, Mat], list]]:
    """The Ricci system of curvature.ricci_system from three Ricci
    evaluations (lifted_ricci), one per delta_e chart: column i of
    M_{k^-1} holds the Ricci coordinates at k of the chart with delta_e in
    parameter i, read off |G|-valued functions, and row 9 is (1, 1, 1) in
    M_e.  Keyed by every k whose block is nonzero."""
    cal = calculus
    require_chart_class(cal.cls)
    grp = cal.group
    zero = (_ZERO,) * grp.order
    delta_e = delta(grp, 0)
    charts = [field_chart(cal, *(delta_e if j == i else zero for j in range(3)))
              for i in range(3)]
    systems = {}
    for variant in LIFT_VARIANTS:
        tensors = [lifted_ricci(chart, variant).at for chart in charts]
        coeffs = {}
        for k in range(grp.order):
            block = Mat([list(row) for row in zip(*(t[k].coeffs for t in tensors))]
                        + [[int(k == 0)] * 3])
            if not block.is_zero():
                coeffs[grp.inv(k)] = block
        systems[variant] = (coeffs, [rat(0)] * cal.n_members ** 2 + [rat(-1)])
    return systems


def subgroup_calculus(calculus: Calculus) -> Calculus:
    """The calculus of (H, C) for H = <C>, with H a group of its own: the
    elements of H in ascending order with their names, and the class of
    the same members in the same order."""
    cls = calculus.cls
    group = cls.group
    elements = cls.generated_subgroup()
    pos = {g: p for p, g in enumerate(elements)}
    sub = FiniteGroup([group.label(g) for g in elements],
                      [[pos[group.mul(a, b)] for b in elements] for a in elements],
                      name=f"<{', '.join(cls.labels())}>")
    return differential_calculus(conjugacy_class(sub, pos[cls.members[0]]))


def left_cosets(cls: ConjClass) -> list[tuple[int, ...]]:
    """The left cosets gH of H = <C>, g the least element of its coset, in
    ascending order of g.  Each coset lists g h for h in the order of
    generated_subgroup(), so it starts with g, and position p of every
    coset is the left translate of the subgroup's position p."""
    group = cls.group
    subgroup = cls.generated_subgroup()
    cosets: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for g in range(group.order):
        if g not in covered:
            coset = tuple(group.mul(g, h) for h in subgroup)
            cosets.append(coset)
            covered.update(coset)
    return cosets


def coset_lift(vec: Sequence, cosets: Sequence[Sequence[int]], order: int) -> list:
    """Carry a vector on a subgroup K to the group of the given order by
    left translation over the given left cosets of K, each listing g k for
    k in K in order: entry i*|G| + coset[p] of the result is
    vec[i*|K| + p] on every given coset, and zero off them.  A solution of
    a left-covariant system lifted over one coset is a solution, and over
    all of them its induced copy.
    """
    k = len(cosets[0])
    out = [rat(0)] * (len(vec) // k * order)
    for start in range(0, len(vec), k):
        base = start // k * order
        for coset in cosets:
            for p, x in enumerate(coset):
                out[base + x] = vec[start + p]
    return out


def torsion_family_members(calculus: Calculus, directions) -> list[list[Field]]:
    """The basis delta_h * direction of the torsion-free family on G that
    torsion_free_family states by its directions, direction slowest and h
    fastest, each as its component fields: each direction's constant
    coefficients lifted by coset_lift over the single coset (h,) of K = {e}."""
    n = calculus.group.order
    m = calculus.n_members
    members = []
    for direction in directions:
        vec = [f for comp in direction for f in comp.coeffs]
        for coset in [(h,) for h in range(n)]:
            full = coset_lift(vec, [coset], n)
            members.append([one_form_field(calculus, [
                full[(c * m + b) * n:(c * m + b + 1) * n] for b in range(m)])
                for c in range(m)])
    return members


def expanded_geometry_sections(calculus: Calculus) -> dict:
    """What the calculus, connection, curvature and Ricci reports print
    about forms, keyed by report and section, computed by the |G|-valued
    algebra above on forms held at every group element, each coefficient
    listed by element.  The distinguished connection is the chart at the
    parameters levi_civita scans for, its torsion read off the dense
    torsion system; the torsion-free family and the Ricci-flat solves are
    the dense ones on G."""
    cal, group = calculus, calculus.group
    order, m, labels = group.order, calculus.n_members, calculus.cls.labels()
    pairs = [f"e_{labels[i]}^e_{labels[j]}" for i, j in cal.quotient_pairs]

    def listed(field: Field, names: Sequence[str]) -> dict:
        return {name: list(field.coefficient(k)) for k, name in enumerate(names)}

    def tensor(field: Field) -> dict:
        return {labels[p]: {labels[q]: list(field.coefficient(p * m + q)) for q in range(m)}
                for p in range(m)}

    theta = Field.constant(group, cal.theta)
    basis = constant_fields(group, [cal.basis_one_form(a) for a in range(m)])
    two_basis = constant_fields(group, [TwoForm(cal, [_ONE if i == k else _ZERO
                                                      for i in range(cal.quotient_dim)])
                                        for k in range(cal.quotient_dim)])
    params = [(p,) * order for p in levi_civita(cal).parameters]
    lc = field_chart(cal, *params)
    torsion, rhs = torsion_system(cal)
    ricci, flat = {}, {}
    for variant in LIFT_VARIANTS:
        ricci[variant] = lifted_ricci(lc, variant)
        flat[variant] = solve_affine(*dense_system(*ricci_system(cal)[variant], group))
    return {
        "calculus": {
            "background_differentials": {labels[a]: listed(e.d(), pairs)
                                         for a, e in enumerate(basis)},
            "maurer_cartan": {"d_theta_zero": theta.d().is_zero(),
                              "theta_wedge_theta_zero": theta.wedge(theta).is_zero()},
        },
        "connection": {
            "torsion_free_family_dimension": len(solve_affine(torsion, rhs)[1]),
            "levi_civita": {
                "parameters": [list(p) for p in params],
                "components": {labels[a]: listed(comp, labels) for a, comp in enumerate(lc)},
                "torsion_residual_zero": torsion @ dense_vector(lc) == rhs,
            },
        },
        "curvature": {
            "covariant_derivatives": {labels[a]: tensor(field_covariant_derivative(lc, e))
                                      for a, e in enumerate(basis)},
            "curvature_forms": {labels[a]: listed(f, pairs)
                                for a, f in enumerate(field_curvature_forms(lc))},
            "lift_is_section": {variant: all(w.lift(variant).wedge_of_tensor() == w
                                             for w in two_basis)
                                for variant in LIFT_VARIANTS},
        },
        "ricci": {
            "levi_civita": {variant: {"tensor": tensor(t), "zero": t.is_zero()}
                            for variant, t in ricci.items()},
            "flat_solve": {variant: {
                "parameters": [solution[i * order:(i + 1) * order] for i in range(3)],
                "kernel_dimension": len(kernel),
                "unique": not kernel,
            } for variant, (solution, kernel) in flat.items()},
        },
    }


class TensorTwoOne:
    """A 2-form-valued vector: sum coords[k][q] B_k (x) e_q over the
    quotient basis monomials B_k; the value of the curvature on a 1-form."""

    __slots__ = ("calculus", "coords")

    def __init__(self, calculus: Calculus, coords: Sequence[Sequence[Cyclotomic]]):
        grid = tuple(tuple(row) for row in coords)
        if len(grid) != calculus.quotient_dim or any(
                len(row) != calculus.n_members for row in grid):
            raise ValueError("quotient-by-member grid of coefficients required")
        object.__setattr__(self, "calculus", calculus)
        object.__setattr__(self, "coords", grid)

    def __setattr__(self, *_):
        raise AttributeError("TensorTwoOne is immutable")

    @classmethod
    def zero(cls, calculus: Calculus) -> "TensorTwoOne":
        return cls(calculus, [[_ZERO] * calculus.n_members
                              for _ in range(calculus.quotient_dim)])

    def __add__(self, other: "TensorTwoOne") -> "TensorTwoOne":
        return TensorTwoOne(self.calculus, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.coords, other.coords)])

    def __mul__(self, scalar) -> "TensorTwoOne":
        return TensorTwoOne(self.calculus, [[a * scalar for a in row] for row in self.coords])

    def column(self, q: int) -> TwoForm:
        """The 2-form paired with e_q."""
        return TwoForm(self.calculus, [row[q] for row in self.coords])

    def __eq__(self, other):
        if not isinstance(other, TensorTwoOne):
            return NotImplemented
        return all(a == b for ra, rb in zip(self.coords, other.coords)
                   for a, b in zip(ra, rb))

    __hash__ = None


def riemann(conn: Connection) -> list[TensorTwoOne]:
    """Curvature applied to each basis form:

        R(e_a) = sum_q (sum_m V[a][m] ^ V[m][q] - dV[a][q]) (x) e_q

    The sign is normalised so that for the distinguished connection the
    curvature of e_a pairs the positive background 2-forms de_b with the
    conjugation pattern, matching the component curvature F_a = de_a."""
    cal = conn.calculus
    m = cal.n_members
    grid = connection_grid(conn)
    out = []
    for apos in range(m):
        cols = []
        for q in range(m):
            two = -cal.d_one_form(grid[apos][q])
            for mid in range(m):
                two = two + cal.wedge(grid[apos][mid], grid[mid][q])
            cols.append(two)
        out.append(TensorTwoOne(cal, [[cols[q].coeffs[k] for q in range(m)]
                                      for k in range(cal.quotient_dim)]))
    return out


def curvature_of(conn: Connection, alpha: Field) -> Field:
    """Curvature acting on a 1-form whose coefficients may vary; tensorial
    over left multiplication, so at each element it is the
    coefficient-weighted sum of the basis curvatures."""
    cal = conn.calculus
    basis = riemann(conn)
    out = []
    for form in alpha.at:
        total = TensorTwoOne.zero(cal)
        for apos, f in enumerate(form.coeffs):
            if not f.is_zero():
                total = total + basis[apos] * f
        out.append(total)
    return Field(alpha.group, out)


# -- spinor geometry --------------------------------------------------------

def coframe_coefficients(eta: Mat, pos: int) -> list[Cyclotomic]:
    """Coefficients expressing the pos-th coframe field in the frame."""
    return list(eta.rows[pos])


def metric_tensor(calculus: Calculus, mu) -> TensorOneOne:
    """The metric as a (1,1) tensor: sum of e_a x e_a plus mu theta x theta.

    Its wedge vanishes, which is the compatibility between the pairing and
    the 2-form relations.
    """
    mu = Fraction(mu)
    m = calculus.cls.size
    grid = [[rat(Fraction(mu) + (1 if p == q else 0))
             for q in range(m)] for p in range(m)]
    return TensorOneOne(calculus, grid)


def dense_dirac_operator(rep: Representation, A: Connection, C: ConjClass,
                         mu=Fraction(0)) -> Mat:
    """The Dirac operator summed from Kronecker products of the gamma
    matrices with dense translation and multiplication matrices."""
    mu = Fraction(mu)
    group = rep.group
    gammas = gamma_matrices(rep, C, mu)
    n = group.order
    ident_n = Mat.identity(n)
    op = Mat.zeros(rep.dim * n, rep.dim * n)
    for a in C.members:
        op = op + kron(gammas[a], right_translation(group, a) - ident_n)
    ident_w = Mat.identity(rep.dim)
    for apos, a in enumerate(C.members):
        tau = rep(group.inv(a)) - ident_w
        for bpos, b in enumerate(C.members):
            op = op - kron(gammas[b] @ tau, diagonal([A.coefficient(apos, bpos)] * n))
    return op


def class_translation_sum(C: ConjClass) -> Mat:
    """Sum of the right translation operators over the class members."""
    return assemble({a: Mat([[1]]) for a in C.members}, C.group)


def translation_block(rep: Representation, C: ConjClass, i: int, j: int) -> Mat:
    """Sum over class members of rho(a)[i, j] times right translation by a.

    These are the blocks of the free part of the Dirac operator written in
    the spinor-component grid.
    """
    return assemble({a: Mat([[rep(a)[i, j]]]) for a in C.members}, C.group)


def dense_wave_operator(C: ConjClass, mu=Fraction(0)) -> Mat:
    """The wave operator summed from products of dense partial translation
    matrices."""
    eta_inv = metric(C, mu)[1]
    group = C.group
    n = group.order
    ident = Mat.identity(n)
    partials = [right_translation(group, a) - ident for a in C.members]
    total = Mat.zeros(n, n)
    for apos in range(C.size):
        for bpos in range(C.size):
            w = eta_inv[apos, bpos]
            if w:
                total = total + (partials[apos] @ partials[bpos]) * w
    return -total


def dirac_candidates(mu=Fraction(0)) -> list[Fraction]:
    """Candidate Dirac eigenvalues for a 3-member involutive class with the
    distinguished connection.

    At mu = 0 the operator splits into translation blocks with eigenvalues
    0 and +-3; away from zero it shifts by 4 mu/(1 + 4 mu) times the
    centered class translation sum, which commutes with the free part, so
    every eigenvalue is a sum from the two commuting spectra.
    """
    mu = Fraction(mu)
    if 1 + 4 * mu == 0:
        raise SingularMetricError(
            "casimir normalisation 1/(1 + 4 mu) is singular at mu = -1/4")
    c = Fraction(4 * mu, 1 + 4 * mu)
    vals = {Fraction(s) + c * (l0 - 3) for s in (0, 3, -3) for l0 in (3, -3, 0)}
    return sorted(vals)


def wave_candidates(mu=Fraction(0)) -> list[Fraction]:
    """Candidate wave eigenvalues for the 3-member involutive class.

    The class translation sum has eigenvalues 3, 0, -3 on functions, and
    the mu-dependence enters only through its square, scaled by
    mu/(1 + 3 mu)."""
    mu = Fraction(mu)
    if 1 + 3 * mu == 0:
        raise SingularMetricError(
            "metric modulus mu = -1/3 is singular for a class of size 3")
    m = Fraction(mu, 1 + 3 * mu)
    vals = {Fraction(0), -6 + 9 * m, -12 + 36 * m}
    return sorted(vals)


def _poly_rem(a: list[int], b: list[int]) -> list[Fraction]:
    # remainder of a by b, low-to-high, with no zero leading coefficient
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _sign_at_half(poly: list[int], m: int) -> int:
    # the sign of poly((2m + 1)/2), read off 2^deg poly((2m + 1)/2)
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * (2 * m + 1) + c * scale
        scale *= 2
    return (acc > 0) - (acc < 0)


def sturm_integer_roots(ints: list[int]) -> tuple[list[int], int]:
    """The integer roots of a monic integer polynomial of degree >= 1, and
    the number of its distinct complex roots, by Sturm bisection.

    The Sturm chain p, p', -rem(p, p'), ... (each member scaled by a
    positive integer) counts the distinct real roots between two points
    exactly, and its last member is gcd(p, p').  Every root lies inside
    Fujiwara's bound, so bisecting integer intervals, with the counts taken
    at half-integers (never roots), leaves one candidate integer per
    interval that holds a root, which is checked exactly.  The cost grows
    with the number of digits of the coefficients.
    """
    chain = [ints, [k * c for k, c in enumerate(ints)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        den = math.lcm(*(c.denominator for c in rem))
        scaled = [int(c * den) for c in rem]
        g = math.gcd(*scaled)
        chain.append([-c // g for c in scaled])

    def sign_changes(m: int) -> int:
        signs = [s for s in (_sign_at_half(p, m) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # |root| <= 2 max_k |c_{n-k}|^(1/k), rounded up to a power of two
    bound = 2 ** (1 + max(-(-abs(c).bit_length() // k)
                          for k, c in enumerate(reversed(ints[:-1]), 1)))
    roots = []
    todo = [(-bound - 1, bound)]  # the integers lo < r <= hi
    while todo:
        lo, hi = todo.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(lo, mid), (mid, hi)]
        elif sum(c * hi ** k for k, c in enumerate(ints)) == 0:
            roots.append(hi)
    return sorted(roots), len(ints) - len(chain[-1])


def minimal_polynomial(op: Mat) -> list[Cyclotomic]:
    """Monic minimal polynomial of an exact operator, low-to-high coeffs.

    Krylov elimination on the flattened powers id, op, op^2, ...: each new
    power is reduced against the pivots found so far while tracking the
    combination that produced it; the first power that reduces to zero
    yields the least annihilating polynomial.
    """
    n = op.nrows
    if n != op.ncols:
        raise ValueError("minimal polynomials are defined for square operators")
    pivots: list[tuple[int, list[Cyclotomic], list[Cyclotomic]]] = []
    power = Mat.identity(n)
    degree = 0
    while True:
        vec = [x for row in power.rows for x in row]
        combo = [_ZERO] * degree + [_ONE]
        for col, pvec, pcombo in pivots:
            f = vec[col]
            if f:
                vec = [x - f * y for x, y in zip(vec, pvec)]
                combo = [x - f * y for x, y in
                         zip(combo + [_ZERO] * (len(pcombo) - len(combo)),
                             pcombo + [_ZERO] * (len(combo) - len(pcombo)))]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return combo
        piv_inv = vec[lead].inverse()
        pivots.append((lead,
                       [x * piv_inv for x in vec],
                       [x * piv_inv for x in combo]))
        power = power @ op
        degree += 1


def minimal_polynomial_check(op: Mat, candidates: Sequence | None = None) -> bool:
    """Does the product of (op - c id) over the candidates annihilate op?

    With no candidates the Krylov minimal polynomial itself is evaluated,
    which certifies the elimination.  Either way the verdict comes from an
    exact matrix identity, never from eigenvalue estimates.
    """
    if candidates is None:
        coeffs = minimal_polynomial(op)
    else:
        coeffs = poly_from_roots(dict.fromkeys(rat(c) for c in candidates))
    return eval_poly(op, coeffs).is_zero()


def dense_chirality(op: Mat) -> Mat:
    """The grading of a diagonalisable operator with a symmetric rational
    spectrum from its dense eigenvectors: the kernel bases of
    (op - lambda id), the i-th basis vector of +lambda sent to the i-th of
    -lambda and back and the kernel fixed, as
    (images as columns) (sources as columns)^-1.  Raises
    AsymmetricSpectrumError as the package's grading does."""
    spect = spectrum(op)
    require_symmetric(spect)
    ident = Mat.identity(op.nrows)
    spaces = {v: kernel_basis(op - ident * v) for v in spect.multiplicities}
    sources, images, mirrors = [], [], set()
    for v, plus in spaces.items():
        if v and v not in mirrors:
            mirrors.add(-v)
            sources += plus + spaces[-v]
            images += spaces[-v] + plus
    kernel = spaces.get(_ZERO, [])
    sources += kernel
    images += kernel
    return Mat(images).transpose() @ inverse(Mat(sources).transpose())


def peter_weyl_basis(irreps: Sequence[Representation], dim_w: int) -> Mat:
    """The change of basis from block coordinates to W (x) C[G]: column
    (copy (rho, k), coordinate j dim(rho) + l) is the vector whose spinor
    component j is the matrix coefficient g -> rho(g)[k, l], the copies in
    spectra.BlockForm order."""
    columns = []
    for rho in irreps:
        for k in range(rho.dim):
            for j in range(dim_w):
                for l in range(rho.dim):
                    coeff = matrix_element(rho, k, l)
                    columns.append([x if i == j else _ZERO for i in range(dim_w) for x in coeff])
    return Mat(columns).transpose()


def block_diagonal(blocks: Sequence[Mat]) -> Mat:
    """The square matrix with the given square blocks along its diagonal."""
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b.rows:
            rows.append([_ZERO] * at + list(row) + [_ZERO] * (n - at - b.nrows))
        at += b.nrows
    return Mat(rows)


def block_matrix(blocks: dict, sizes: Sequence[int]) -> Mat:
    """The square matrix with block (a, b) of the given dict, copy sizes
    sizes, and zeros where the dict has none."""
    offsets = [sum(sizes[:a]) for a in range(len(sizes))]
    rows = [[_ZERO] * sum(sizes) for _ in range(sum(sizes))]
    for (a, b), m in blocks.items():
        for i, row in enumerate(m.rows):
            rows[offsets[a] + i][offsets[b]:offsets[b] + len(row)] = row
    return Mat(rows)


def grading_on_group(form, gam: dict) -> Mat:
    """A block grading (dirac.chirality) carried to W (x) C[G] by the
    Peter-Weyl basis: U gam U^-1."""
    basis = peter_weyl_basis(form.irreps, form.blocks[0].nrows // form.irreps[0].dim)
    sizes = [b.nrows for b in form.copy_blocks()]
    return basis @ block_matrix(gam, sizes) @ inverse(basis)


# -- eigenmode catalogs on functions ------------------------------------------
# The catalogs as they were declared before their block coordinates: each
# candidate a vector of |G| values per spinor component, built from the
# representations' matrix-element functions, and scored by linalg.apply.

def _vec_of(*components: Sequence) -> list[Cyclotomic]:
    return [rat(v) for comp in components for v in comp]


def _element(rep: Representation, k: int, l: int) -> list[Cyclotomic]:
    """The matrix-element function g -> rep(g)[k, l], indices from 1."""
    return _vec_of(matrix_element(rep, k - 1, l - 1))


def _certified_eigenvalue(coeffs, group: FiniteGroup, vec: list[Cyclotomic]):
    image = apply(coeffs, group, vec)
    lead = next(i for i, x in enumerate(vec) if x)
    lam = image[lead] / vec[lead]
    return lam if all(x == lam * y for x, y in zip(image, vec)) else None


def function_assess(coeffs, group: FiniteGroup, spect, families, completions) -> dict:
    """The catalog scorer on functions: each candidate's image by apply,
    each span ranked alone."""
    verified: dict = {}
    scored = []
    for name, claimed, candidates in families:
        claimed = rat(claimed)
        rows = []
        for label, vec in candidates:
            if not any(vec):
                status, lam = "zero_vector", None
            else:
                lam = _certified_eigenvalue(coeffs, group, vec)
                if lam is None:
                    status = "not_an_eigenmode"
                else:
                    status = "eigenmode" if lam == claimed else "eigenvalue_mismatch"
                    verified.setdefault(lam, []).append(vec)
            rows.append({"label": label, "status": status, "eigenvalue": lam})
        scored.append({"name": name, "claimed_eigenvalue": claimed, "candidates": rows})
    summaries = []
    for value, named in completions.items():
        v = rat(value)
        vecs = verified.get(v, [])
        mult = spect.multiplicity(v)
        entries, comp_vecs = [], []
        for label, cvec in named:
            lam = _certified_eigenvalue(coeffs, group, cvec)
            ok = lam is not None and lam == v
            entries.append({"label": label, "verified": ok})
            if ok:
                comp_vecs.append(cvec)
        span = span_dim(vecs)
        combined = span_dim(vecs + comp_vecs)
        claimed_rows = [c for fam in scored if fam["claimed_eigenvalue"] == v
                        for c in fam["candidates"]]
        summaries.append({
            "value": v,
            "claimed_candidates": len(claimed_rows),
            "zero_vectors": sum(c["status"] == "zero_vector" for c in claimed_rows),
            "verified": len(vecs),
            "claimed_span": span,
            "multiplicity": mult,
            "gap": mult - span,
            "completions": entries,
            "completed_span": combined,
            "complete": combined == mult,
        })
    return {"families": scored, "eigenvalues": summaries}


def _function_catalog_context(C: ConjClass):
    group = C.group
    reps = {r.name: r for r in irreducibles(group)}
    return group, reps["planar1"], sign2(group), reps


def function_eigenmode_catalog(C: ConjClass, coeffs, spect) -> dict:
    """catalogs.eigenmode_catalog on functions: the same families and
    completions, each candidate the |G|-valued functions it names."""
    group, spinor, twisted, reps = _function_catalog_context(C)
    n = group.order
    zero_fn = [_ZERO] * n
    rho, rho2, sig = (functools.partial(_element, r)
                      for r in (spinor, reps["planar2"], twisted))
    lower = {a: Mat([[spinor(a)[1, 0]]]) for a in C.members}
    upper = {a: Mat([[spinor(a)[0, 1]]]) for a in C.members}
    diag = {a: Mat([[1]]) for a in C.members}
    t, x = C.members[0], C.members[1]
    r_t = {t: Mat([[1]])}
    r_x = {x: Mat([[1]])}
    omega = spinor(t)[1, 0]
    phis = [rho(1, 2), rho(2, 2)]
    rotated = [_vec_of(phi, [omega * v for v in apply(r_t, group, phi)]) for phi in phis]
    chi = _element(reps["sign"], 1, 1)
    phi_char = _element(reps["rot-parity"], 1, 1)
    psi_char = _element(reps["rot-parity*sign"], 1, 1)

    def twisted_column(l):
        return [entry for k in (1, 2) for entry in (
            (f"(sign2[{k},{l}], 0)", _vec_of(sig(k, l), zero_fn)),
            (f"(0, sign2[{k},{l}])", _vec_of(zero_fn, sig(k, l))))]

    families = [
        ("translation-block images", 0, [
            entry for k in (1, 2) for l in (1, 2) for entry in (
                (f"(lower rho[{k},{l}], 0)",
                 _vec_of(apply(lower, group, rho(k, l)), zero_fn)),
                (f"(0, upper rho[{k},{l}])",
                 _vec_of(zero_fn, apply(upper, group, rho(k, l)))))]),
        ("twisted first column", 3, twisted_column(1)),
        ("twisted second column", -3, twisted_column(2)),
        ("rotation ansatz", 3, [
            (f"rotation ansatz k={k}", vec) for k, vec in zip((1, 2), rotated)]),
        ("reflection ansatz", -3, [
            (f"reflection ansatz k={k}", _vec_of(phi, apply(r_x, group, phi)))
            for k, phi in zip((1, 2), phis)]),
        ("parity images of the rotation ansatz", -3, [
            (f"parity image k={k}", [c * v for c, v in zip(chi * spinor.dim, vec)])
            for k, vec in zip((1, 2), rotated)]),
    ]
    completions = {
        0: [(f"(planar2[{k},2], 0)", _vec_of(rho2(k, 2), zero_fn)) for k in (1, 2)]
        + [(f"(0, planar2[{k},1])", _vec_of(zero_fn, rho2(k, 1))) for k in (1, 2)],
        3: [("(rot-parity, 0)", _vec_of(phi_char, zero_fn)),
            ("(0, rot-parity)", _vec_of(zero_fn, phi_char))]
        + [(f"(planar2[{k},1], -planar2[{k},2])",
            _vec_of(rho2(k, 1), [-v for v in rho2(k, 2)])) for k in (1, 2)],
        -3: [("(rot-parity*sign, 0)", _vec_of(psi_char, zero_fn)),
             ("(0, rot-parity*sign)", _vec_of(zero_fn, psi_char))]
        + [(f"(planar2[{k},1], planar2[{k},2])", _vec_of(rho2(k, 1), rho2(k, 2)))
           for k in (1, 2)],
    }
    out = function_assess(coeffs, group, spect, families, completions)
    out["mu"] = Fraction(0)
    out["sign_multiplication_anticommutes"] = (
        all(chi[h] == -_ONE for h, m in coeffs.items() if not m.is_zero())
        and all(c * c == _ONE for c in chi))
    # X delta_e is the function g -> x_{g^-1}, so XY = 0 exactly when
    # X Y delta_e = 0
    delta_e = [_ONE] + [_ZERO] * (n - 1)
    blocks = {"lower": lower, "upper": upper, "diag": diag}
    out["component_identities"] = {
        f"{x}*{y}": not any(apply(blocks[x], group, apply(blocks[y], group, delta_e)))
        for x, y in (("lower", "lower"), ("upper", "upper"), ("diag", "lower"),
                     ("lower", "diag"), ("diag", "upper"), ("upper", "diag"))}
    return out


def function_wave_eigenmode_catalog(C: ConjClass, coeffs, spect) -> dict:
    """catalogs.wave_eigenmode_catalog on functions, the conjugated matrix
    elements computed entry by entry."""
    group, spinor, twisted, reps = _function_catalog_context(C)
    rho, rho2, sig = (functools.partial(_element, r)
                      for r in (spinor, reps["planar2"], twisted))

    def rho_bar(k, l):
        return [v.conj() for v in rho(k, l)]

    families = [
        ("twisted second column", 0, [(f"sign2[{k},2]", sig(k, 2)) for k in (1, 2)]),
        ("twisted first column", -12, [(f"sign2[{k},1]", sig(k, 1)) for k in (1, 2)]),
        ("spinor matrix elements", -6,
         [(f"rho[{k},{l}]", rho(k, l)) for k in (1, 2) for l in (1, 2)]
         + [(f"conj rho[{k},{l}]", rho_bar(k, l)) for k in (1, 2) for l in (1, 2)]),
    ]
    completions = {
        0: [("rot-parity*sign", _element(reps["rot-parity*sign"], 1, 1))],
        -12: [("rot-parity", _element(reps["rot-parity"], 1, 1))],
        -6: [(f"planar2[{k},{l}]", rho2(k, l)) for k in (1, 2) for l in (1, 2)],
    }
    out = function_assess(coeffs, group, spect, families, completions)
    out["mu"] = Fraction(0)
    out["conjugates_coincide_reversed"] = all(
        rho_bar(k, l) == rho(3 - k, 3 - l) for k in (1, 2) for l in (1, 2))
    return out


# -- groups -----------------------------------------------------------------

def associativity_violation(table: Sequence[Sequence[int]]) -> tuple | None:
    """The first triple (g, h, k) in index order with (gh)k != g(hk), or
    None: every triple of the table is checked."""
    n = len(table)
    for g in range(n):
        for h in range(n):
            gh = table[g][h]
            for k in range(n):
                if table[gh][k] != table[g][table[h][k]]:
                    return g, h, k
    return None


def conjugacy_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every conjugacy class as its ascending elements, in order of least
    element."""
    seen: set[int] = set()
    out = []
    for g in range(group.order):
        if g not in seen:
            orbit = tuple(sorted({group.conj(h, g) for h in range(group.order)}))
            seen.update(orbit)
            out.append(orbit)
    return out


def right_translation(group: FiniteGroup, a: int) -> Mat:
    """Matrix of f -> R_a f, (R_a f)(g) = f(ga), in the delta basis."""
    n = group.order
    rows = [[0] * n for _ in range(n)]
    for g in range(n):
        rows[g][group.mul(g, a)] = 1
    return Mat(rows)


def cayley_dict(group: FiniteGroup) -> dict:
    """The group as the Cayley-table object FiniteGroup.from_dict reads."""
    return {"name": group.name, "names": list(group.names),
            "table": [list(row) for row in group.table]}


# -- representations --------------------------------------------------------

def planar1(group: FiniteGroup) -> Representation:
    """The spinor of the Dirac operator: the irreducible planar1 of a
    dihedral-structured group, as reporting.Geometry selects it."""
    return next(r for r in irreducibles(group) if r.name == "planar1")


def sign2(group: FiniteGroup) -> Representation:
    """The twisted 2-dimensional representation the eigenmode catalogs name
    their candidates by: rotation -> id, reflection -> diag(-1, 1), the sum
    of the sign and trivial characters."""
    flipped = Mat([[rat(-1), _ZERO], [_ZERO, _ONE]])
    return Representation(group, [flipped if flip else Mat.identity(2)
                                  for flip, _ in dihedral_structure(group)], name="sign2")


def matrix_element(rep: Representation, i: int, j: int) -> list[Cyclotomic]:
    """The function g -> rep(g)[i][j] as a value vector in element order."""
    return [m[i, j] for m in rep.matrices]


def character(rep: Representation) -> list[Cyclotomic]:
    return [m.trace() for m in rep.matrices]


def conjugate(rep: Representation) -> Representation:
    return Representation(rep.group, [conj_entries(m) for m in rep.matrices],
                          name=f"{rep.name}~conj")


def homomorphism_violation(group: FiniteGroup, matrices: Sequence[Mat]) -> tuple | None:
    """The first pair (a, b) in index order with rho(a) rho(b) != rho(ab),
    or None: every pair of the group is checked."""
    for a in range(group.order):
        for b in range(group.order):
            if matrices[a] @ matrices[b] != matrices[group.mul(a, b)]:
                return a, b
    return None


def peter_weyl_matrix(reps: list[Representation]) -> Mat:
    """All matrix-element functions stacked as rows; full row rank means the
    catalog spans every function on the group."""
    rows = []
    for rep in reps:
        for i in range(rep.dim):
            for j in range(rep.dim):
                rows.append(matrix_element(rep, i, j))
    return Mat(rows)


def peter_weyl_rank(reps: list[Representation]) -> int:
    return rank(peter_weyl_matrix(reps))
