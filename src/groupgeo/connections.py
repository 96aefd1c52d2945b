"""Left connections on the class calculus.

A connection is determined by its values on the basis 1-forms,
nabla e_a = -sum_b A_a^b (x) e_b, so it is stored as one 1-form A_a per
class member.  Three residuals classify a connection:

  * torsion:    de_a + sum_b A_b ^ (e_{b^-1 a b} - e_a)
  * cotorsion:  de_a + sum_b e_{b a b^-1} ^ A_b   (needs sum_a A_a = 0)
  * regularity: sum_{ab=g} A_a ^ A_b for products g off the class

For a 3-member class with circulant products the torsion-free connections
form a chart: a symmetric coefficient pattern in three parameter functions
alpha, beta, gamma constrained by alpha + beta + gamma = -1.  The unique
connection with all three residuals zero is e_a - theta/3 in every case
handled here; levi_civita builds it and proves the residuals vanish.

The layer reads only the 2-form relations and the class products.  The
metric enters with the Dirac operator, which checks its modulus
(dirac.require_invertible_metric).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .calculus import Calculus, GroupFunction, OneForm, TwoForm
from .cyclotomic import rat
from .errors import GroupGeoError, InfeasibleSystemError, UnsupportedGroupError
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

    @classmethod
    def from_chart(cls, calculus: Calculus, alpha: GroupFunction,
                   beta: GroupFunction, gamma: GroupFunction) -> "Connection":
        """Build the chart connection for a 3-member circulant class.

        The parameters must satisfy alpha + beta + gamma = -1 pointwise;
        every chart member is torsion-free and every torsion-free connection
        on such a class is a chart member.
        """
        require_chart_class(calculus)
        csum = alpha + beta + gamma + calculus.constant(1)
        if not csum.is_zero():
            raise ValueError("chart parameters must sum to -1 pointwise")
        return chart_connection(calculus, alpha, beta, gamma)

    def coefficient(self, a: int, b: int) -> GroupFunction:
        """The function multiplying e_b inside A_a."""
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


def chart_connection(calculus: Calculus, alpha: GroupFunction, beta: GroupFunction,
                     gamma: GroupFunction) -> Connection:
    """The chart pattern: A_a has coefficient row a of
    [[1 + alpha, gamma, beta], [gamma, 1 + beta, alpha], [beta, alpha, 1 + gamma]]
    over the basis 1-forms in class order.

    The constraint alpha + beta + gamma = -1 is not imposed, so linear
    systems in the chart parameters can state it as equations of their own;
    Connection.from_chart is the checked chart."""
    one = calculus.constant(1)
    rows = [[one + alpha, gamma, beta], [gamma, one + beta, alpha], [beta, alpha, one + gamma]]
    return Connection(calculus, [calculus.one_form(row) for row in rows],
                      parameters=(alpha, beta, gamma))


def require_chart_class(calculus: Calculus) -> None:
    """Raise UnsupportedGroupError unless the class has the 3 members with
    circulant products that the connection chart is stated for."""
    if not calculus.circulant:
        raise UnsupportedGroupError(
            "connection chart requires a 3-member class with circulant products")


# -- residuals --------------------------------------------------------------

def torsion_residual(conn: Connection) -> list[TwoForm]:
    """One 2-form per class member: de_a + sum_b A_b ^ (e_{b^-1 a b} - e_a)."""
    cal = conn.calculus
    cls = cal.cls
    grp = cls.group
    out = []
    for apos, a in enumerate(cls.members):
        res = cal.d_basis(apos)
        for bpos, b in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(b), a))
            diff = cal.basis_one_form(conj_pos) - cal.basis_one_form(apos)
            res = res + cal.wedge(conn.components[bpos], diff)
        out.append(res)
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
    cls = cal.cls
    grp = cls.group
    out = []
    for apos, a in enumerate(cls.members):
        res = cal.d_basis(apos)
        for bpos, b in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(b, a))
            res = res + cal.wedge(cal.basis_one_form(conj_pos), conn.components[bpos])
        out.append(res)
    return out


def regularity_residual(conn: Connection) -> dict[int, TwoForm]:
    """The quadratic products sum_{ab=g} A_a ^ A_b, keyed by the group
    element g, for every g off the class with at least one factor pair.

    The regularity condition asks these to vanish for g neither in the
    class nor the identity; the identity component is still returned so
    callers can inspect it separately.
    """
    cal = conn.calculus
    cls = cal.cls
    grp = cls.group
    buckets: dict[int, TwoForm] = {}
    for i, a in enumerate(cls.members):
        for j, b in enumerate(cls.members):
            g = grp.mul(a, b)
            if g in cls:
                continue
            term = cal.wedge(conn.components[i], conn.components[j])
            if g in buckets:
                buckets[g] = buckets[g] + term
            else:
                buckets[g] = term
    return dict(sorted(buckets.items()))


def is_regular(conn: Connection) -> bool:
    """All off-class, off-identity quadratic components vanish."""
    return all(res.is_zero() for g, res in regularity_residual(conn).items()
               if g != 0)


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
    lifted by groups.coset_lift over the single coset (h,) for h in
    ascending order, factor vector slowest.
    """
    cal = calculus
    cls = cal.cls
    grp = cls.group
    m = cal.n_members
    qdim = cal.quotient_dim
    factor = [[rat(0)] * (m * m) for _ in range(m * qdim)]
    rhs = [-cal.d_basis(apos).coeffs[k](0) for apos in range(m) for k in range(qdim)]
    for apos, a in enumerate(cls.members):
        for cpos, c in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(c), a))
            for bpos in range(m):
                plus = cal.reduction[(bpos, conj_pos)]
                minus = cal.reduction[(bpos, apos)]
                for k in range(qdim):
                    factor[apos * qdim + k][cpos * m + bpos] = plus[k] - minus[k]
    particular, factor_kernel = solve_affine(Mat(factor), rhs)

    def to_components(values) -> list[OneForm]:
        # values[c*m + b] is the constant coefficient of e_b in A_c
        return [cal.one_form([cal.constant(x) for x in values[cpos * m:(cpos + 1) * m]])
                for cpos in range(m)]

    return (Connection(cal, to_components(particular)),
            [to_components(v) for v in factor_kernel])


# -- distinguished connections ----------------------------------------------

def levi_civita(calculus: Calculus) -> Connection:
    """The unique torsion-free, cotorsion-free, regular connection:
    A_a = e_a - theta/3, the same at every metric modulus.

    The three residuals are recomputed and proved zero before returning.
    """
    require_chart_class(calculus)
    third = calculus.constant(rat(-1, 3))
    conn = Connection.from_chart(calculus, third, third, third)
    if any(not r.is_zero() for r in torsion_residual(conn)):
        raise GroupGeoError("distinguished connection failed the torsion check")
    if any(not r.is_zero() for r in cotorsion_residual(conn)):
        raise GroupGeoError("distinguished connection failed the cotorsion check")
    if not is_regular(conn):
        raise GroupGeoError("distinguished connection failed the regularity check")
    return conn


def constant_regular_scan(calculus: Calculus) -> list[tuple[Fraction, Fraction, Fraction]]:
    """All constant rational chart parameters (alpha, beta, gamma) giving a
    regular connection.

    Chart members are torsion-free by construction and constant chart members
    are automatically cotorsion-free, so regularity is the only condition
    left, in two free constants (a, b) after eliminating gamma through the
    chart constraint.  Each product bucket sums a full circulant orbit of
    pairs, in which the quadratic terms cancel, so the residual is affine in
    (a, b).  It is read off regularity_residual at (0, 0), (1, 0) and (0, 1);
    the residual has degree at most 2, so agreeing with that affine map at
    (1, 1), (2, 0) and (0, 2) proves it affine everywhere.  The resulting
    rational linear system, one row per bucket and 2-form coordinate
    whatever the group order, is solved exactly: no solution gives [], a line
    or plane of solutions is an error.
    """
    require_chart_class(calculus)

    def residual(a, b) -> list:
        const = calculus.constant
        conn = Connection.from_chart(calculus, const(a), const(b), const(-1 - a - b))
        # constant parameters give a left-invariant residual: every
        # coefficient is constant, so its value at e stands for the group
        return [f(0) for g, form in regularity_residual(conn).items() if g != 0
                for f in form.coeffs]

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
        return []
    if kernel:
        raise GroupGeoError(
            "regular constant scan found a positive-dimensional solution set")
    fa, fb = va.as_fraction(), vb.as_fraction()
    return [(fa, fb, -1 - fa - fb)]
