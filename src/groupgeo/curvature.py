"""Covariant derivative, curvature and Ricci for connections on the
class calculus.

On basis forms the connection acts through the conjugation pattern

    nabla e_a = - sum_c A_c (x) (e_{c^-1 a c} - e_a)

and extends to 1-forms by the left Leibniz rule.  Curvature is the usual
square of nabla written with the exterior derivative and a wedge on the
middle legs.  Ricci needs a lift of 2-forms back into the tensor square;
two lifts are provided:

  * canonical: e_a ^ e_b maps to e_a (x) e_b minus half the sum of all
    off-diagonal tensor monomials with the same element product; this one
    is an exact section of the wedge projection,
  * braided: id minus the braiding applied to a representative, which is
    well defined because the relation space is exactly the braiding-fixed
    subspace, but is not a section of the wedge.

Ricci contracts the lifted curvature relative to the flat background (the
exterior derivatives of the basis forms themselves), which is the
normalisation that makes the distinguished connection Ricci-flat.

The Ricci-flat chart members solve an exact linear system that commutes
with left translation and reads only structure constants inside
H = <C>.  On G it is [G:H] copies, one per left coset gH, of the same
system on the calculus of (H, C), so that small system is solved and its
solution lifted over the cosets, then put in the basis the dense solve on
G gives (see Serre, Linear Representations of Finite Groups, section 7,
on restriction and induction).
"""

from __future__ import annotations

from typing import Sequence

from .calculus import (Calculus, GroupFunction, OneForm, TensorOneOne, TwoForm,
                       differential_calculus)
from .connections import Connection, chart_connection, require_chart_class
from .cyclotomic import rat
from .groups import FiniteGroup, coset_lift
from .linalg import Mat, rref, solve_affine

LIFT_VARIANTS = ("canonical", "braided")


# -- the connection action --------------------------------------------------

def connection_grid(conn: Connection) -> list[list[OneForm]]:
    """1-form entries V[a][q] with nabla e_a = sum_q V[a][q] (x) e_q."""
    cal = conn.calculus
    cls = cal.cls
    grp = cls.group
    m = cal.n_members
    grid = [[cal.zero_one_form() for _ in range(m)] for _ in range(m)]
    for apos, a in enumerate(cls.members):
        for cpos, c in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(c), a))
            comp = conn.components[cpos]
            grid[apos][conj_pos] = grid[apos][conj_pos] - comp
            grid[apos][apos] = grid[apos][apos] + comp
    return grid


def covariant_derivative(conn: Connection, alpha: OneForm) -> TensorOneOne:
    """nabla alpha for a 1-form, left Leibniz rule over the coefficients."""
    cal = conn.calculus
    m = cal.n_members
    grid = connection_grid(conn)
    z = cal.zero_function()
    coords = [[z for _ in range(m)] for _ in range(m)]
    for apos, f in enumerate(alpha.coeffs):
        if f.is_zero():
            continue
        df = cal.d_function(f)
        for p in range(m):
            coords[p][apos] = coords[p][apos] + df.coeffs[p]
        for q in range(m):
            v = grid[apos][q]
            for p in range(m):
                if not v.coeffs[p].is_zero():
                    coords[p][q] = coords[p][q] + f * v.coeffs[p]
    return TensorOneOne(cal, coords)


# -- curvature 2-forms ------------------------------------------------------

def curvature_forms(conn: Connection) -> list[TwoForm]:
    """The component curvature per class member:
    F_a = dA_a + sum_{cd=a} A_c ^ A_d - sum_c (A_c ^ A_a + A_a ^ A_c)."""
    cal = conn.calculus
    cls = cal.cls
    grp = cls.group
    out = []
    for apos, a in enumerate(cls.members):
        f = cal.d_one_form(conn.components[apos])
        for cpos, c in enumerate(cls.members):
            for dpos, d in enumerate(cls.members):
                if grp.mul(c, d) == a:
                    f = f + cal.wedge(conn.components[cpos], conn.components[dpos])
            f = f - cal.wedge(conn.components[cpos], conn.components[apos])
            f = f - cal.wedge(conn.components[apos], conn.components[cpos])
        out.append(f)
    return out


def relative_curvature(conn: Connection) -> list[TwoForm]:
    """Curvature measured against the flat background de_a.  For any
    connection with vanishing component sum the quadratic terms of the
    component curvature cancel, leaving dA_a - de_a."""
    cal = conn.calculus
    return [cal.d_one_form(conn.components[apos]) - cal.d_basis(apos)
            for apos in range(cal.n_members)]


# -- lifting 2-forms into the tensor square ---------------------------------

def _lift_table(cal: Calculus, variant: str) -> list[dict]:
    """For each quotient basis monomial, its lift as a pair -> rational map."""
    if variant not in LIFT_VARIANTS:
        raise ValueError(f"unknown lift variant {variant!r}; use one of {LIFT_VARIANTS}")
    cls = cal.cls
    grp = cls.group
    table = []
    for (p, q) in cal.quotient_pairs:
        entry: dict = {(p, q): rat(1)}
        if variant == "canonical":
            prod = grp.mul(cls.members[p], cls.members[q])
            half = rat(1, 2)
            for c in range(cal.n_members):
                for d in range(cal.n_members):
                    if c != d and grp.mul(cls.members[c], cls.members[d]) == prod:
                        entry[(c, d)] = entry.get((c, d), rat(0)) - half
        else:
            img = cal.braid_perm[(p, q)]
            entry[img] = entry.get(img, rat(0)) - rat(1)
        table.append({k: v for k, v in entry.items() if not v.is_zero()})
    return table


def lift(omega: TwoForm, variant: str = "canonical") -> TensorOneOne:
    """Lift a 2-form into the tensor square; the canonical variant is a
    section of the wedge, the braided one is well defined but not."""
    cal = omega.calculus
    m = cal.n_members
    z = cal.zero_function()
    coords = [[z for _ in range(m)] for _ in range(m)]
    for k, entry in enumerate(_lift_table(cal, variant)):
        f = omega.coeffs[k]
        if f.is_zero():
            continue
        for (p, q), c in entry.items():
            coords[p][q] = coords[p][q] + f * c
    return TensorOneOne(cal, coords)


def wedge_of_tensor(t: TensorOneOne) -> TwoForm:
    """Project a tensor-square element back down through the wedge."""
    cal = t.calculus
    out = cal.zero_two_form()
    for pair, f in zip(cal.pairs, t.coeffs):
        if not f.is_zero():
            out = out + TwoForm(cal, [f * c for c in cal.reduction[pair]])
    return out


# -- Ricci ------------------------------------------------------------------

def ricci(conn: Connection, variant: str = "canonical") -> TensorOneOne:
    """Contract the lifted relative curvature through the connection's
    conjugation pattern:

        sum_{a,c} lift(G_c)^{a b} e_b (x) (e_{c^-1 a c} - e_a)

    with G_c the relative curvature of component c.  Vanishes for the
    distinguished connection under every lift variant because the relative
    curvature itself vanishes there.
    """
    cal = conn.calculus
    return _contract(cal, [lift(g, variant) for g in relative_curvature(conn)])


def _contract(cal: Calculus, lifted: Sequence[TensorOneOne]) -> TensorOneOne:
    # the contraction of ricci, given the lifted curvature of each component
    cls = cal.cls
    grp = cls.group
    m = cal.n_members
    z = cal.zero_function()
    coords = [[z for _ in range(m)] for _ in range(m)]
    for cpos, c in enumerate(cls.members):
        h = lifted[cpos].coeffs
        for apos, a in enumerate(cls.members):
            conj_pos = cls.position(grp.conj(grp.inv(c), a))
            if conj_pos == apos:
                continue
            for b in range(m):
                f = h[apos * m + b]
                if f.is_zero():
                    continue
                coords[b][conj_pos] = coords[b][conj_pos] + f
                coords[b][apos] = coords[b][apos] - f
    return TensorOneOne(cal, coords)


def ricci_system(calculus: Calculus) -> dict[str, tuple[Mat, list]]:
    """The exact linear systems in the chart parameters whose solutions are
    the Ricci-flat chart members, one per lift variant, keyed as in
    LIFT_VARIANTS.

    Unknown order: parameter i (alpha, beta, gamma) at group element h sits
    at column i*|G| + h.  Row order: Ricci coordinate (p, q) at group
    element g sits at row (p*m + q)*|G| + g; the chart constraint follows
    as the last |G| rows, one row alpha + beta + gamma = -1 per group
    element.

    Ricci is affine in the parameters and commutes with left translation:
    the exterior derivative uses only right translations, and the lift and
    contraction have constant coefficients.  So the column of delta_h at
    row (p, q, g) is the column of delta_e at row (p, q, h^-1 g), and four
    Ricci evaluations (the zero chart and delta_e in each parameter)
    assemble the system instead of one per unknown.  The relative
    curvature of those four charts does not depend on the lift, so it is
    computed once and only lifted and contracted per variant.

    The column of delta_e is supported on e and the inverses of the class
    members, so row g meets only the unknowns at g and at g c for c in C,
    all on the coset gH of H = <C>.  ricci_flat_solve therefore
    calls this on subgroup_calculus(calculus) only; on the calculus of G it
    is the dense oracle for that solve.
    """
    cal = calculus
    require_chart_class(cal)
    grp = cal.group
    order = grp.order
    zero = cal.zero_function()
    delta_e = GroupFunction.delta(grp, 0)
    charts = [(zero, zero, zero)] + [
        tuple(delta_e if j == i else zero for j in range(3)) for i in range(3)]
    curvatures = [relative_curvature(chart_connection(cal, *params)) for params in charts]
    moved = [[grp.mul(grp.inv(h), g) for h in range(order)] for g in range(order)]
    # alpha + beta + gamma = -1 at each element g
    constraint = [[rat(1) if u % order == g else rat(0) for u in range(3 * order)]
                  for g in range(order)]
    systems = {}
    for variant in LIFT_VARIANTS:
        flat = []
        for forms in curvatures:
            t = _contract(cal, [lift(f, variant) for f in forms])
            flat.append([f(g) for f in t.coeffs for g in range(order)])
        base = flat[0]
        cols = [[a - b for a, b in zip(col, base)] for col in flat[1:]]
        rows = [[col[blk + x] for col in cols for x in moved[g]]
                for blk in range(0, len(base), order) for g in range(order)]
        systems[variant] = (Mat(rows + constraint),
                            [-v for v in base] + [rat(-1)] * order)
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
    sub_cal = differential_calculus(sub.conjugacy_class(pos[cls.members[0]]))
    # conjugation by the class alone orders the members and H keeps the
    # ascending order of G, so the two orders agree
    assert [elements[a] for a in sub_cal.cls.members] == list(cls.members)
    return sub_cal


def lift_solution(calculus: Calculus, particular, kernel) -> tuple[list, list]:
    """Carry a solution of a system in the chart parameters of
    subgroup_calculus(calculus), columns ordered as in ricci_system, to the
    same system on G, in the form solve_affine gives there.

    The system on G is one copy of the system on H per left coset gH:
    left translation by the coset's least element g maps parameter i at h
    to parameter i at g h.  So the particular solution fills every coset
    and each kernel vector yields one vector per coset.  solve_affine's
    kernel basis is the free-column basis of the dense RREF: column j is
    free exactly when some kernel vector ends at j, so reducing the lifted
    kernel with its columns reversed gives that basis, and subtracting it
    clears the particular solution's free columns.
    """
    cosets = calculus.cls.left_cosets()
    n = calculus.group.order
    particular = coset_lift(particular, cosets, n)
    lifted = [coset_lift(vec, [coset], n) for vec in kernel for coset in cosets]
    if not lifted:
        return particular, []
    red, pivots = rref(Mat([vec[::-1] for vec in lifted]))
    basis = [list(row[::-1]) for row in reversed(red.rows[:len(pivots)])]
    for col, vec in zip(reversed(pivots), basis):
        c = particular[3 * n - 1 - col]
        if c:
            particular = [a - c * b for a, b in zip(particular, vec)]
    return particular, basis


def ricci_flat_solve(calculus: Calculus) -> dict[str, tuple[tuple, list]]:
    """Solve for all chart parameter triples with vanishing Ricci, once per
    lift variant, keyed as in LIFT_VARIANTS.

    Ricci is affine in the three parameter functions, so this is an exact
    linear solve in 3|G| scalars, chart constraint included.  Left
    translation maps the system onto itself and every structure constant
    it reads lies in H = <C>, so it is [G:H] copies of the system of
    (H, C): that system, 10|H| rows by 3|H| unknowns, is assembled for both
    variants by one ricci_system call on subgroup_calculus, solved, and
    lifted over the cosets by lift_solution, in the basis the dense solve
    of ricci_system on G gives.  The expected outcome for the supported
    classes is a single isolated triple; without the constraint the
    solution set would pick up the constant shifts that leave the relative
    curvature unchanged.

    Each entry is (particular, kernel) where particular is a parameter
    triple and kernel is a basis of homogeneous triples.
    """
    require_chart_class(calculus)
    grp = calculus.group
    order = grp.order

    def params_from_vec(vec):
        return tuple(GroupFunction(grp, vec[i * order:(i + 1) * order])
                     for i in range(3))

    solves = {}
    for variant, block in ricci_system(subgroup_calculus(calculus)).items():
        particular, kern = lift_solution(calculus, *solve_affine(*block))
        solves[variant] = (params_from_vec(particular), [params_from_vec(v) for v in kern])
    return solves
