"""Left connections on the class calculus.

A connection is determined by its values on the basis 1-forms,
nabla e_a = -sum_b A_a^b (x) e_b, so it is stored as one 1-form A_a per
class member.  Three residuals classify a connection:

  * torsion:    de_a + sum_b A_b ^ (e_{b^-1 a b} - e_a)
  * cotorsion:  de_a + sum_b e_{b a b^-1} ^ A_b   (needs sum_a A_a = 0)
  * regularity: sum_{ab=g} A_a ^ A_b for g off the class and not e

For a 3-member class with circulant products the torsion-free connections
with constant coefficients form a chart: a symmetric coefficient pattern in
three parameters alpha, beta, gamma constrained by alpha + beta + gamma =
-1.  levi_civita finds the one regular chart member, once per calculus,
which holds it, and proves the three residuals zero there.

The layer reads only the 2-form relations and the class's conjugation
and product tables (ConjClass.ad and ConjClass.products).  The metric
enters with the Dirac and wave operators; groups.require_invertible_metric
states the one modulus it cannot take, and the connection report checks it
before the torsion solve.  chart_connection is the one chart constructor;
the chart check, groups.require_chart_class, reads the class alone, and
levi_civita makes it before any other work.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .calculus import Calculus, OneForm, TwoForm
from .cyclotomic import ONE, Cyclotomic, rat
from .errors import GroupGeoError, InfeasibleSystemError
from .groups import require_chart_class
from .linalg import Mat, solve_affine


class Connection:
    """A left connection given by its component 1-forms A_a."""

    __slots__ = ("calculus", "components", "parameters")

    def __init__(self, calculus: Calculus, components: Sequence[OneForm],
                 parameters: Optional[tuple] = None):
        comps = tuple(components)
        if len(comps) != calculus.n_members:
            raise ValueError("one component 1-form per class member required")
        object.__setattr__(self, "calculus", calculus)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "parameters", parameters)

    def __setattr__(self, *_):
        raise AttributeError("Connection is immutable")

    def coefficient(self, a: int, b: int) -> Cyclotomic:
        """The constant multiplying e_b inside A_a."""
        return self.components[a].coeffs[b]

    def sum_form(self) -> OneForm:
        total = self.calculus.zero_one_form()
        for comp in self.components:
            total = total + comp
        return total

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    __hash__ = None

    def __repr__(self):
        labels = self.calculus.cls.labels()
        lines = [f"A_{labels[i]} = {comp!r}" for i, comp in enumerate(self.components)]
        return "Connection(\n  " + "\n  ".join(lines) + "\n)"


CHART = ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def chart_connection(calculus: Calculus, alpha: Cyclotomic, beta: Cyclotomic,
                     gamma: Cyclotomic) -> Connection:
    """The chart pattern: A_a = e_a + sum_b (alpha, beta, gamma)[CHART[a][b]] e_b,
    coefficient row a of [[1 + alpha, gamma, beta], [gamma, 1 + beta, alpha],
    [beta, alpha, 1 + gamma]] over the basis 1-forms in class order.

    The chart is stated for a 3-member class with circulant products
    (groups.require_chart_class, which callers check first) and parameters
    with alpha + beta + gamma = -1: every such member is torsion-free and
    every torsion-free connection on the class with constant coefficients
    is one.  The constraint is not imposed, so linear systems in the chart
    parameters can state it as equations of their own."""
    params = (alpha, beta, gamma)
    rows = [[ONE + params[i] if a == b else params[i] for b, i in enumerate(row)]
            for a, row in enumerate(CHART)]
    return Connection(calculus, [calculus.one_form(row) for row in rows], parameters=params)


# -- residuals --------------------------------------------------------------

def torsion_residual(conn: Connection) -> list[TwoForm]:
    """One 2-form per class member: de_a + sum_b A_b ^ (e_{b^-1 a b} - e_a)."""
    cal = conn.calculus
    out = [cal.d_basis(apos) for apos in range(cal.n_members)]
    # conj_pos = b^-1 a b runs over the class as a = b conj_pos b^-1 does
    for bpos, row in enumerate(cal.cls.ad):
        for conj_pos, apos in enumerate(row):
            diff = cal.basis_one_form(conj_pos) - cal.basis_one_form(apos)
            out[apos] = out[apos] + cal.wedge(conn.components[bpos], diff)
    return out


def cotorsion_residual(conn: Connection) -> list[TwoForm]:
    """One 2-form per class member: de_a + sum_b e_{b a b^-1} ^ A_b.

    The condition is stated for the coframing of the one-parameter metric,
    but the metric drops out after simplification, so the residual does not
    depend on it.  The component sum of the connection must vanish for the
    simplification to be valid; violating that is a caller error.
    """
    cal = conn.calculus
    if not conn.sum_form().is_zero():
        raise ValueError(
            "cotorsion residual requires a connection whose components sum to zero")
    ad = cal.cls.ad
    out = []
    for apos in range(cal.n_members):
        res = cal.d_basis(apos)
        for bpos, comp in enumerate(conn.components):
            res = res + cal.wedge(cal.basis_one_form(ad[bpos][apos]), comp)
        out.append(res)
    return out


def regularity_residual(conn: Connection) -> dict[int, TwoForm]:
    """The quadratic products sum_{ab=g} A_a ^ A_b that regularity asks to
    vanish, keyed by the group element g, for every g off the class and not
    the identity with at least one factor pair."""
    cal = conn.calculus
    cls = cal.cls
    buckets: dict[int, TwoForm] = {}
    for i, row in enumerate(cls.products):
        for j, g in enumerate(row):
            if g == 0 or g in cls:
                continue
            term = cal.wedge(conn.components[i], conn.components[j])
            if g in buckets:
                buckets[g] = buckets[g] + term
            else:
                buckets[g] = term
    return dict(sorted(buckets.items()))


def is_regular(conn: Connection) -> bool:
    """All off-class, off-identity quadratic components vanish."""
    return all(res.is_zero() for res in regularity_residual(conn).values())


# -- the torsion-free family ------------------------------------------------

def torsion_free_family(calculus: Calculus) -> tuple[Connection, list[list[OneForm]]]:
    """Solve the torsion condition exactly.

    Returns a particular torsion-free connection and its directions: one
    list of component 1-forms with constant coefficients per kernel vector
    of the factor M below.  The torsion-free connections on G are the
    particular one plus the span of delta_h * direction over every
    direction and every group element h, a family of dimension
    len(directions) * |G|.

    The dense torsion system has unknown (c, b, h) at column
    (c*m + b)*|G| + h, equation (a, k, g) at row (a*q + k)*|G| + g and
    right-hand side -de_a.  It is kron(M, I_|G|): a delta function in a
    component wedges to 2-forms on its own group element, so equation
    (a, k, g) and unknown (c, b, h) meet with the entry M[a*q + k][c*m + b]
    when g == h and not at all otherwise.  The small factor M, m*q rows by
    m*m columns, is reduced once beside the one right-hand side column
    that d e_a, being left-invariant, gives every group element, so the
    particular solution is constant.  It is the system on K = {e}, and the
    dense kernel basis is, vector for vector, each factor-kernel vector
    placed at the single element h, for h in ascending order, factor
    vector slowest.
    """
    cal = calculus
    m = cal.n_members
    qdim = cal.quotient_dim
    factor = [[rat(0)] * (m * m) for _ in range(m * qdim)]
    rhs = [-cal.d_basis(apos).coeffs[k] for apos in range(m) for k in range(qdim)]
    # conj_pos = c^-1 a c runs over the class as a = c conj_pos c^-1 does
    for cpos, row in enumerate(cal.cls.ad):
        for conj_pos, apos in enumerate(row):
            for bpos in range(m):
                plus = cal.reduction[(bpos, conj_pos)]
                minus = cal.reduction[(bpos, apos)]
                for k in range(qdim):
                    factor[apos * qdim + k][cpos * m + bpos] = plus[k] - minus[k]
    particular, factor_kernel = solve_affine(Mat(factor), rhs)

    def to_components(values) -> list[OneForm]:
        # values[c*m + b] is the constant coefficient of e_b in A_c
        return [cal.one_form(values[cpos * m:(cpos + 1) * m]) for cpos in range(m)]

    return (Connection(cal, to_components(particular)),
            [to_components(v) for v in factor_kernel])


# -- distinguished connections ----------------------------------------------

def levi_civita(calculus: Calculus) -> Connection:
    """The unique torsion-free, cotorsion-free, regular constant chart
    member, the same at every metric modulus."""
    require_chart_class(calculus.cls)
    if calculus._levi_civita is None:
        calculus._levi_civita = _regular_chart_member(calculus)
    return calculus._levi_civita


def _regular_chart_member(calculus: Calculus) -> Connection:
    """The one constant chart member that is regular, with its three
    residuals proved zero.

    Chart members are torsion-free by construction and constant chart members
    are automatically cotorsion-free, so regularity is the only condition
    left, in two free constants (a, b) after eliminating gamma through the
    chart constraint.  Each product bucket sums a full circulant orbit of
    pairs, in which the quadratic terms cancel, so the residual is affine in
    (a, b).  It is read off regularity_residual at (0, 0), (1, 0) and (0, 1);
    the residual has degree at most 2, so agreeing with that affine map at
    (1, 1), (2, 0) and (0, 2) proves it affine everywhere.  The resulting
    rational linear system, one row per bucket and 2-form coordinate
    whatever the group order, is solved exactly; anything but one solution
    is an error.
    """
    def chart(a, b) -> Connection:
        return chart_connection(calculus, rat(a), rat(b), rat(-1 - a - b))

    def residual(a, b) -> list:
        return [f for form in regularity_residual(chart(a, b)).values() for f in form.coeffs]

    r0 = residual(0, 0)
    da = [x - y for x, y in zip(residual(1, 0), r0)]
    db = [x - y for x, y in zip(residual(0, 1), r0)]
    for a, b in ((1, 1), (2, 0), (0, 2)):
        if residual(a, b) != [x + y * a + z * b for x, y, z in zip(r0, da, db)]:
            raise GroupGeoError(
                "regular constant scan: the regularity residual is not affine "
                f"in the chart constants, it fails at (a, b) = ({a}, {b})")
    try:
        (va, vb), kernel = solve_affine(Mat([[x, y] for x, y in zip(da, db)]),
                                        [-x for x in r0])
    except InfeasibleSystemError:
        raise InfeasibleSystemError(
            "regular constant scan: no constant chart member is regular") from None
    if kernel:
        raise GroupGeoError(
            "regular constant scan found a positive-dimensional solution set")
    conn = chart(va, vb)
    if any(not r.is_zero() for r in torsion_residual(conn)):
        raise GroupGeoError("distinguished connection failed the torsion check")
    if any(not r.is_zero() for r in cotorsion_residual(conn)):
        raise GroupGeoError("distinguished connection failed the cotorsion check")
    if not is_regular(conn):
        raise GroupGeoError("distinguished connection failed the regularity check")
    return conn
