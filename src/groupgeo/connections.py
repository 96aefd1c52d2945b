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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .calculus import Calculus, GroupFunction, OneForm, TwoForm
from .cyclotomic import rat
from .errors import GroupGeoError, SingularMetricError, UnsupportedGroupError
from .linalg import Mat, solve_affine_columns


def _chart_rows(alpha, beta, gamma, one):
    """The shared 3x3 coefficient pattern of the connection chart; works for
    any ring elements supporting + (parameter functions or symbols)."""
    return [
        [one + alpha, gamma, beta],
        [gamma, one + beta, alpha],
        [beta, alpha, one + gamma],
    ]


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
        _require_chart_class(calculus)
        csum = alpha + beta + gamma + calculus.constant(1)
        if not csum.is_zero():
            raise ValueError("chart parameters must sum to -1 pointwise")
        rows = _chart_rows(alpha, beta, gamma, calculus.constant(1))
        comps = [calculus.one_form(row) for row in rows]
        return cls(calculus, comps, parameters=(alpha, beta, gamma))

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


def _require_chart_class(calculus: Calculus):
    if calculus.n_members != 3 or not calculus._circulant_products():
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


def cotorsion_residual(conn: Connection, mu=Fraction(0)) -> list[TwoForm]:
    """One 2-form per class member: de_a + sum_b e_{b a b^-1} ^ A_b.

    The condition is stated for the coframing of the one-parameter metric,
    but the metric drops out after simplification, so the residual itself
    does not depend on mu beyond the non-singularity requirement.  The
    component sum of the connection must vanish for the simplification to
    be valid; violating that is a caller error.
    """
    cal = conn.calculus
    _require_invertible_metric(mu, cal.n_members)
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


def torsion_free_family(calculus: Calculus) -> tuple[Connection, list[list[OneForm]]]:
    """Solve the torsion condition exactly.

    Returns a particular torsion-free connection and a basis of the
    homogeneous solution space; differences of torsion-free connections
    are spanned by the basis, so the family is particular + span.

    The system of torsion_system is kron(M, I_|G|): a delta function in a
    component wedges to 2-forms on its own group element, so equation
    (a, k, g) and unknown (c, b, h) meet with the entry M[a*q + k][c*m + b]
    when g == h and not at all otherwise.  The small factor M, m*q rows by
    m*m columns, is reduced once beside one right-hand side column per
    group element.  The particular solution and kernel basis come out in
    the dense column order (c*m + b)*|G| + h, free column slowest and
    element fastest, equal vector for vector to solving torsion_system.
    """
    cal = calculus
    cls = cal.cls
    grp = cls.group
    m = cal.n_members
    qdim = cal.quotient_dim
    order = grp.order
    factor = [[rat(0)] * (m * m) for _ in range(m * qdim)]
    rhs_columns = [[rat(0)] * (m * qdim) for _ in range(order)]
    for apos, a in enumerate(cls.members):
        de = cal.d_basis(apos)
        for k in range(qdim):
            for g in range(order):
                rhs_columns[g][apos * qdim + k] = -de.coeffs[k](g)
        for cpos, c in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(c), a))
            for bpos in range(m):
                plus = cal.reduction[(bpos, conj_pos)]
                minus = cal.reduction[(bpos, apos)]
                for k in range(qdim):
                    factor[apos * qdim + k][cpos * m + bpos] = plus[k] - minus[k]
    particulars, factor_kernel = solve_affine_columns(Mat(factor), rhs_columns)

    def to_components(values) -> list[OneForm]:
        # values[c*m + b] holds the |G| values of the coefficient of e_b in A_c
        return [cal.one_form([GroupFunction(grp, values[cpos * m + bpos])
                              for bpos in range(m)])
                for cpos in range(m)]

    zero = rat(0)
    conn = Connection(cal, to_components(
        [[x[col] for x in particulars] for col in range(m * m)]))
    kernel = []
    for v in factor_kernel:
        for h in range(order):
            kernel.append(to_components(
                [[v[col] if g == h else zero for g in range(order)]
                 for col in range(m * m)]))
    return conn, kernel


# -- distinguished connections ----------------------------------------------

def _require_invertible_metric(mu, size: int):
    if 1 + size * Fraction(mu) == 0:
        raise SingularMetricError(
            f"metric parameter {Fraction(mu)} makes the braided metric singular "
            f"for a {size}-member class")


def levi_civita(calculus: Calculus, mu=Fraction(0)) -> Connection:
    """The unique torsion-free, cotorsion-free, regular connection:
    A_a = e_a - theta/3, independent of the metric parameter.

    The metric parameter is validated for non-singularity and the three
    residuals are recomputed and proved zero before returning.
    """
    _require_chart_class(calculus)
    _require_invertible_metric(mu, calculus.n_members)
    third = calculus.constant(rat(-1, 3))
    conn = Connection.from_chart(calculus, third, third, third)
    if any(not r.is_zero() for r in torsion_residual(conn)):
        raise GroupGeoError("distinguished connection failed the torsion check")
    if any(not r.is_zero() for r in cotorsion_residual(conn, mu)):
        raise GroupGeoError("distinguished connection failed the cotorsion check")
    if not is_regular(conn):
        raise GroupGeoError("distinguished connection failed the regularity check")
    return conn


def constant_regular_scan(calculus: Calculus) -> list[tuple[Fraction, Fraction, Fraction]]:
    """All constant rational chart parameters (alpha, beta, gamma) giving a
    regular connection.

    Chart members are torsion-free by construction and constant chart members
    are automatically cotorsion-free, so regularity is the only condition
    left: a quadratic system in two free constants after eliminating gamma
    through the chart constraint.  The system is solved exactly; only
    rational roots belong to the scan and irrational ones are reported
    as an error rather than silently dropped.
    """
    import sympy

    _require_chart_class(calculus)
    cls = calculus.cls
    grp = cls.group
    a, b = sympy.symbols("a b")
    c = -1 - a - b
    rows = _chart_rows(a, b, c, sympy.Integer(1))

    def red_frac(pair, k):
        return sympy.Rational(*calculus.reduction[pair][k].as_fraction().as_integer_ratio())

    buckets: dict[int, list] = {}
    identity = 0
    for i, ai in enumerate(cls.members):
        for j, aj in enumerate(cls.members):
            g = grp.mul(ai, aj)
            if g in cls or g == identity:
                continue
            vec = buckets.setdefault(g, [sympy.Integer(0)] * calculus.quotient_dim)
            for p in range(3):
                for q in range(3):
                    factor = rows[i][p] * rows[j][q]
                    for k in range(calculus.quotient_dim):
                        coeff = red_frac((p, q), k)
                        if coeff:
                            vec[k] = vec[k] + factor * coeff
    equations = [sympy.expand(expr) for vec in buckets.values() for expr in vec]
    solutions = sympy.solve(equations, [a, b], dict=True)
    out = []
    for sol in solutions:
        va, vb = sol.get(a), sol.get(b)
        if va is None or vb is None or va.free_symbols or vb.free_symbols:
            raise GroupGeoError(
                "regular constant scan found a positive-dimensional solution set")
        if not (va.is_rational and vb.is_rational):
            raise GroupGeoError(
                f"regular constant scan hit a non-rational root ({va}, {vb})")
        fa = Fraction(int(va.p), int(va.q))
        fb = Fraction(int(vb.p), int(vb.q))
        out.append((fa, fb, Fraction(-1) - fa - fb))
    return sorted(out)
