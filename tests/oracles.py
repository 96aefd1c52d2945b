"""Test oracles: plain reference computations that only the tests call.

Each one is the direct, unoptimised form of something the package computes
another way (the dense torsion system beside the Kronecker-factored solve,
a polynomial evaluated on a matrix beside a certified spectrum, the matrix
Krylov minimal polynomial beside the vector one), a closed form the package
derives from the operator instead (the hand-derived eigenvalue candidates)
or a certificate the package does not need at run time (the Peter-Weyl
rank).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from groupgeo.calculus import Calculus, GroupFunction, OneForm, TwoForm
from groupgeo.connections import Connection
from groupgeo.curvature import TensorOneOne, connection_grid
from groupgeo.cyclotomic import Cyclotomic, rat
from groupgeo.dirac import poly_from_roots
from groupgeo.errors import SingularMetricError
from groupgeo.linalg import Mat, as_scalar, rank
from groupgeo.representations import Representation

_ZERO = rat(0)
_ONE = rat(1)

# -- linear algebra ---------------------------------------------------------

def vec_is_zero(a: Sequence) -> bool:
    return all(as_scalar(x).is_zero() for x in a)


def eval_poly(matrix: Mat, coeffs: Sequence) -> Mat:
    """p(matrix) for p given by low-to-high coefficients."""
    n = matrix.nrows
    out = Mat.zeros(n, n)
    power = Mat.identity(n)
    for c in coeffs:
        cs = as_scalar(c)
        if cs:
            out = out + power * cs
        power = power @ matrix
    return out


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
                rhs[(apos * qdim + k) * order + g] = -de.coeffs[k](g)
        for cpos, c in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(c), a))
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


class TensorTwoOne:
    """A 2-form-valued vector: sum coords[k][q] B_k (x) e_q over the
    quotient basis monomials B_k; the value of the curvature on a 1-form."""

    __slots__ = ("calculus", "coords")

    def __init__(self, calculus: Calculus, coords: Sequence[Sequence[GroupFunction]]):
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
        z = calculus.zero_function()
        return cls(calculus, [[z] * calculus.n_members
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


def curvature_of(conn: Connection, alpha: OneForm) -> TensorTwoOne:
    """Curvature acting on a general 1-form; tensorial over left
    multiplication, so it is the coefficient-weighted sum of the basis
    curvatures."""
    cal = conn.calculus
    total = TensorTwoOne.zero(cal)
    basis = riemann(conn)
    for apos, f in enumerate(alpha.coeffs):
        if not f.is_zero():
            total = total + basis[apos] * f
    return total


# -- spinor geometry --------------------------------------------------------

def metric_tensor(calculus: Calculus, mu) -> TensorOneOne:
    """The metric as a (1,1) tensor: sum of e_a x e_a plus mu theta x theta.

    Its wedge vanishes, which is the compatibility between the pairing and
    the 2-form relations.
    """
    mu = Fraction(mu)
    m = calculus.cls.size
    grid = [[calculus.constant(Fraction(mu) + (1 if p == q else 0))
             for q in range(m)] for p in range(m)]
    return TensorOneOne(calculus, grid)


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
        coeffs = poly_from_roots(dict.fromkeys(as_scalar(c) for c in candidates))
    return eval_poly(op, coeffs).is_zero()


# -- representations --------------------------------------------------------

def peter_weyl_matrix(reps: list[Representation]) -> Mat:
    """All matrix-element functions stacked as rows; full row rank means the
    catalog spans every function on the group."""
    rows = []
    for rep in reps:
        for i in range(rep.dim):
            for j in range(rep.dim):
                rows.append(rep.matrix_element(i, j))
    return Mat(rows)


def peter_weyl_rank(reps: list[Representation]) -> int:
    return rank(peter_weyl_matrix(reps))
