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

Each variant's lift table is built once per calculus and kept on it.

Ricci contracts the lifted curvature relative to the flat background (the
exterior derivatives of the basis forms themselves), which is the
normalisation that makes the distinguished connection Ricci-flat.  One
ricci call computes the relative curvature once and gives the tensor of
both lift variants.

The Ricci-flat chart members solve an exact linear system that commutes
with left translation, has a constant right-hand side and reads only
structure constants inside H = <C>: a group-algebra element in the
coefficient form of linalg.  The zero chart, A_a = e_a, has vanishing
relative curvature, so Ricci is linear in the chart parameters and three
chart evaluations, one per parameter at delta_e, state the system of both
variants; the right-hand side is the chart constraint's alone.  So
ricci_system builds its coefficients on the calculus of (H, C), and
linalg.solve_invariant finds a constant solution and the kernel dimension
on H.  On G the system is [G:H]
copies, one per left coset gH, of the system on H, so its kernel is
[G:H] times as large (see Serre, Linear Representations of Finite
Groups, section 7, on restriction and induction).
"""

from __future__ import annotations

from typing import Sequence

from .calculus import (Calculus, GroupFunction, OneForm, TensorOneOne, TwoForm,
                       differential_calculus)
from .connections import Connection, chart_connection
from .cyclotomic import rat
from .groups import FiniteGroup, require_chart_class
from .linalg import Mat, solve_invariant

LIFT_VARIANTS = ("canonical", "braided")


# -- the connection action --------------------------------------------------

def connection_grid(conn: Connection) -> list[list[OneForm]]:
    """1-form entries V[a][q] with nabla e_a = sum_q V[a][q] (x) e_q."""
    cal = conn.calculus
    m = cal.n_members
    grid = [[cal.zero_one_form() for _ in range(m)] for _ in range(m)]
    # conj_pos = c^-1 a c runs over the class as a = c conj_pos c^-1 does
    for comp, row in zip(conn.components, cal.cls.ad):
        for conj_pos, apos in enumerate(row):
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
    comps = conn.components
    out = []
    for a, comp_a in zip(cls.members, comps):
        f = cal.d_one_form(comp_a)
        for comp_c, row in zip(comps, cls.products):
            for comp_d, cd in zip(comps, row):
                if cd == a:
                    f = f + cal.wedge(comp_c, comp_d)
            f = f - cal.wedge(comp_c, comp_a)
            f = f - cal.wedge(comp_a, comp_c)
        out.append(f)
    return out


def relative_curvature(conn: Connection) -> list[TwoForm]:
    """Curvature measured against the flat background de_a.  For any
    connection with vanishing component sum the quadratic terms of the
    component curvature cancel, leaving dA_a - de_a."""
    cal = conn.calculus
    return [cal.d_one_form(comp) - cal.d_basis(apos)
            for apos, comp in enumerate(conn.components)]


# -- lifting 2-forms into the tensor square ---------------------------------

def _lift_table(cal: Calculus, variant: str) -> list[dict]:
    """For each quotient basis monomial, its lift as a pair -> rational map."""
    if variant not in LIFT_VARIANTS:
        raise ValueError(f"unknown lift variant {variant!r}; use one of {LIFT_VARIANTS}")
    products = cal.cls.products
    table = []
    for (p, q) in cal.quotient_pairs:
        entry: dict = {(p, q): rat(1)}
        if variant == "canonical":
            prod = products[p][q]
            half = rat(1, 2)
            for c, row in enumerate(products):
                for d, cd in enumerate(row):
                    if c != d and cd == prod:
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
    if variant not in cal._lift_tables:
        cal._lift_tables[variant] = _lift_table(cal, variant)
    m = cal.n_members
    z = cal.zero_function()
    coords = [[z for _ in range(m)] for _ in range(m)]
    for k, entry in enumerate(cal._lift_tables[variant]):
        f = omega.coeffs[k]
        if f.is_zero():
            continue
        for (p, q), c in entry.items():
            coords[p][q] = coords[p][q] + f * c
    return TensorOneOne(cal, coords)


def wedge_of_tensor(t: TensorOneOne) -> TwoForm:
    """Project a tensor-square element back down through the wedge."""
    return t.calculus.reduce_tensor(dict(zip(t.calculus.pairs, t.coeffs)))


# -- Ricci ------------------------------------------------------------------

def ricci(conn: Connection) -> dict[str, TensorOneOne]:
    """Contract the lifted relative curvature through the connection's
    conjugation pattern:

        sum_{a,c} lift(G_c)^{a b} e_b (x) (e_{c^-1 a c} - e_a)

    with G_c the relative curvature of component c, under each lift
    variant, keyed as in LIFT_VARIANTS.  The relative curvature does not
    depend on the lift, so it is computed once and lifted and contracted
    per variant.  Vanishes for the distinguished connection under every
    lift variant because the relative curvature itself vanishes there.
    """
    cal = conn.calculus
    forms = relative_curvature(conn)
    return {variant: _contract(cal, [lift(g, variant) for g in forms])
            for variant in LIFT_VARIANTS}


def _contract(cal: Calculus, lifted: Sequence[TensorOneOne]) -> TensorOneOne:
    # the contraction of ricci, given the lifted curvature of each component
    m = cal.n_members
    z = cal.zero_function()
    coords = [[z for _ in range(m)] for _ in range(m)]
    # conj_pos = c^-1 a c runs over the class as a = c conj_pos c^-1 does
    for lift_c, row in zip(lifted, cal.cls.ad):
        h = lift_c.coeffs
        for conj_pos, apos in enumerate(row):
            if conj_pos == apos:
                continue
            for b in range(m):
                f = h[apos * m + b]
                if f.is_zero():
                    continue
                coords[b][conj_pos] = coords[b][conj_pos] + f
                coords[b][apos] = coords[b][apos] - f
    return TensorOneOne(cal, coords)


def ricci_system(calculus: Calculus) -> dict[str, tuple[dict[int, Mat], list]]:
    """The exact linear systems in the chart parameters whose solutions are
    the Ricci-flat chart members, one per lift variant, keyed as in
    LIFT_VARIANTS: coefficients {h: M_h} in linalg's form and a constant
    right-hand side, which every element repeats.

    Ricci is linear in the parameters and commutes with left translation:
    the zero chart is the connection A_a = e_a, whose relative curvature
    d(e_a) - de_a vanishes, the exterior derivative uses only right
    translations, and the lift and contraction have constant coefficients.
    So the system is sum_h M_h (x) R(h), from the parameters
    (alpha, beta, gamma) to the Ricci coordinates (p, q), row p*m + q, and
    the chart constraint, row 9.  Column i of M_{k^-1} holds the Ricci
    coordinates at k of delta_e in parameter i; row 9 is
    alpha + beta + gamma = -1, (1, 1, 1) in M_e; and the right-hand side
    is the constant (0, ..., 0, -1).  Three ricci calls, one per delta_e
    chart, give the systems of both variants.

    The column of delta_e is supported on e and the inverses of the class
    members, so the keys are e and the class members, all in H = <C>.
    ricci_flat_solve calls this on subgroup_calculus(calculus) only;
    assembled on the calculus of G it is the dense oracle for that solve.
    """
    cal = calculus
    require_chart_class(cal.cls)
    grp = cal.group
    zero = cal.zero_function()
    delta_e = GroupFunction.delta(grp, 0)
    tensors = [ricci(chart_connection(cal, *(delta_e if j == i else zero for j in range(3))))
               for i in range(3)]
    systems = {}
    for variant in LIFT_VARIANTS:
        columns = [t[variant].coeffs for t in tensors]
        coeffs = {}
        for k in range(grp.order):
            block = Mat([[f(k) for f in row] for row in zip(*columns)]
                        + [[int(k == 0)] * 3])
            if not block.is_zero():
                coeffs[grp.inv(k)] = block
        systems[variant] = (coeffs, [rat(0)] * len(columns[0]) + [rat(-1)])
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


def ricci_flat_solve(calculus: Calculus) -> dict[str, tuple[tuple, int]]:
    """Solve for the chart parameter triples with vanishing Ricci, once per
    lift variant, keyed as in LIFT_VARIANTS.

    Ricci is affine in the three parameter functions, so this is an exact
    linear system in 3|G| scalars, chart constraint included.  Every
    structure constant it reads lies in H = <C>, so the coefficients of
    both variants come from one ricci_system call on subgroup_calculus,
    and linalg.solve_invariant solves them on constants, 10 rows by 3
    unknowns, and reduces their block on H, 10|H| rows by 3|H| unknowns,
    for its kernel dimension, whatever |G| is.  The expected outcome for
    the supported classes is a single isolated triple; without the
    constraint the solution set would pick up the constant shifts that
    leave the relative curvature unchanged.

    Each entry is (parameters, kernel_dimension): a constant parameter
    triple solving the system and the dimension of the homogeneous
    solutions on G, [G:H] times that on H.
    """
    require_chart_class(calculus.cls)
    sub = subgroup_calculus(calculus)
    copies = calculus.group.order // sub.group.order
    solves = {}
    for variant, (coeffs, rhs) in ricci_system(sub).items():
        constant, nullity = solve_invariant(coeffs, rhs, sub.group)
        solves[variant] = (tuple(calculus.constant(x) for x in constant), nullity * copies)
    return solves
