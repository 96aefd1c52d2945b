"""Covariant derivative, curvature and Ricci for connections on the
class calculus.

On basis forms the connection acts through the conjugation pattern

    nabla e_a = - sum_c A_c (x) (e_{c^-1 a c} - e_a)

and extends to 1-forms by the left Leibniz rule, whose d f term vanishes
on the constant coefficients of the package's forms.  Curvature is the usual
square of nabla written with the exterior derivative and a wedge on the
middle legs.  Ricci needs a lift of 2-forms back into the tensor square;
two lifts are provided:

  * canonical: e_a ^ e_b maps to e_a (x) e_b minus half the sum of all
    off-diagonal tensor monomials with the same element product; this one
    is an exact section of the wedge projection,
  * braided: id minus the braiding applied to a representative, which is
    well defined because the relation space is exactly the braiding-fixed
    subspace, but is not a section of the wedge.

Each variant's lift table is built once per calculus, by the calculus
(Calculus.lift_tables), and so is its Ricci map (Calculus.ricci_maps),
which ricci and ricci_system both read.

Ricci contracts the lifted curvature relative to the flat background (the
exterior derivatives of the basis forms themselves), which is the
normalisation that makes the distinguished connection Ricci-flat.  One
ricci call computes the relative curvature once and gives the tensor of
both lift variants.

The Ricci-flat chart members solve an exact linear system that commutes
with left translation, has a constant right-hand side and reads only
structure constants inside H = <C>: a group-algebra element in the
coefficient form of linalg.  The zero chart, A_a = e_a, has vanishing
relative curvature, so Ricci is linear in the chart parameters and the
delta_e chart in each parameter states the system of both variants; the
right-hand side is the chart constraint's alone.  That chart's relative
curvature lives on e and the inverses of the class members, so
ricci_system reads the coefficients off the class tables: the reduction
of monomials, the differentials of the basis, and per variant one
rational matrix that composes the lift and the contraction.  It evaluates
no chart and builds no calculus of H.  solve_invariant finds a
constant solution and counts the kernel on the elements of H with
linalg.nullity.  On G the system is [G:H] copies, one per left coset gH,
of the system on H, so its kernel is [G:H] times as large (see Serre,
Linear Representations of Finite Groups, section 7, on restriction and
induction).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .calculus import LIFT_VARIANTS, Calculus, OneForm, TensorOneOne, TwoForm
from .connections import CHART, Connection
from .cyclotomic import ZERO, rat
from .groups import FiniteGroup, require_chart_class
from .linalg import Mat, nullity, solve_affine


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
    """nabla alpha = sum_a alpha_a nabla e_a for a 1-form, by the left
    Leibniz rule over its constant coefficients."""
    cal = conn.calculus
    m = cal.n_members
    grid = connection_grid(conn)
    coords = [[ZERO] * m for _ in range(m)]
    for apos, f in enumerate(alpha.coeffs):
        if f.is_zero():
            continue
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

def lift(omega: TwoForm, variant: str = "canonical") -> TensorOneOne:
    """Lift a 2-form into the tensor square; the canonical variant is a
    section of the wedge, the braided one is well defined but not."""
    if variant not in LIFT_VARIANTS:
        raise ValueError(f"unknown lift variant {variant!r}; use one of {LIFT_VARIANTS}")
    cal = omega.calculus
    m = cal.n_members
    coords = [[ZERO] * m for _ in range(m)]
    for k, entry in enumerate(cal.lift_tables[variant]):
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

def ricci_map(cal: Calculus, variant: str) -> Mat:
    """Lift and contraction as one constant matrix, m^2 by m * dim Omega^2:
    coordinate k of the relative curvature of component c, column
    c * dim Omega^2 + k, to the Ricci coordinate (p, q), row p*m + q.
    Read it as cal.ricci_maps[variant], built once per calculus."""
    m, qdim = cal.n_members, cal.quotient_dim
    rows = [[rat(0)] * (m * qdim) for _ in range(m * m)]
    table = cal.lift_tables[variant]
    # conj_pos = c^-1 a c runs over the class as a = c conj_pos c^-1 does
    for cpos, ad_row in enumerate(cal.cls.ad):
        for conj_pos, apos in enumerate(ad_row):
            if conj_pos == apos:
                continue
            for k, entry in enumerate(table):
                for b in range(m):
                    w = entry.get((apos, b))
                    if w is not None:
                        rows[b * m + conj_pos][cpos * qdim + k] += w
                        rows[b * m + apos][cpos * qdim + k] -= w
    return Mat(rows)


def ricci(conn: Connection) -> dict[str, TensorOneOne]:
    """Contract the lifted relative curvature through the connection's
    conjugation pattern:

        sum_{a,c} lift(G_c)^{a b} e_b (x) (e_{c^-1 a c} - e_a)

    with G_c the relative curvature of component c, under each lift
    variant, keyed as in LIFT_VARIANTS.  The relative curvature does not
    depend on the lift, so it is computed once and mapped through each
    variant's ricci_map.  Vanishes for the distinguished connection under
    every lift variant because the relative curvature itself vanishes
    there.
    """
    cal = conn.calculus
    m = cal.n_members
    forms = [f for g in relative_curvature(conn) for f in g.coeffs]
    tensors = {}
    for variant in LIFT_VARIANTS:
        coords = [sum((f * w for f, w in zip(forms, row) if w and not f.is_zero()),
                      ZERO) for row in cal.ricci_maps[variant].rows]
        tensors[variant] = TensorOneOne(cal, [coords[p * m:(p + 1) * m] for p in range(m)])
    return tensors


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
    the chart constraint, row 9.  Column i of M_{g^-1} holds the Ricci
    coordinates at g of the delta_e chart in parameter i; row 9 is
    alpha + beta + gamma = -1, (1, 1, 1) in M_e; and the right-hand side
    is the constant (0, ..., 0, -1).

    That chart adds delta_e e_b to A_a where CHART[a][b] == i, with
    relative curvature d(delta_e e_b) = sum_c (delta_{c^-1} - delta_e)
    e_c ^ e_b + delta_e de_b: red(c, b) = calculus.reduction[(c, b)] at
    c^-1 and de_b - sum_c red(c, b) at e, de_b the constant coordinates of
    calculus.d_basis(b).  So column i of M_h is the Ricci map of those
    coordinates at h^-1, the keys are e and the class members, and no
    chart is evaluated.  The tables read are the same on the
    calculus of G and on that of (H, C), H = <C>.
    """
    cal = calculus
    require_chart_class(cal.cls)
    m, red = cal.n_members, cal.reduction
    # at[h][b]: the coordinates of d(delta_e e_b) at h^-1
    at = {c: [red[(cpos, b)] for b in range(m)] for cpos, c in enumerate(cal.cls.members)}
    at[0] = [[f - sum((red[(cpos, b)][k] for cpos in range(m)), ZERO)
              for k, f in enumerate(cal.d_basis(b).coeffs)] for b in range(m)]
    # row (a, k), column i: coordinate k of component a of the delta_e chart
    # in parameter i, which sits on e_b for b = CHART[a].index(i)
    forms = {h: Mat([[vecs[row.index(i)][k] for i in range(3)]
                     for row in CHART for k in range(cal.quotient_dim)])
             for h, vecs in at.items()}
    systems = {}
    for variant in LIFT_VARIANTS:
        to_ricci = cal.ricci_maps[variant]
        blocks = {h: Mat((to_ricci @ form).rows + ([int(h == 0)] * 3,))
                  for h, form in forms.items()}
        systems[variant] = ({h: b for h, b in blocks.items() if not b.is_zero()},
                            [rat(0)] * (m * m) + [rat(-1)])
    return systems


def solve_invariant(coeffs: Mapping[int, Mat], rhs: Sequence, group: FiniteGroup,
                    elements: Sequence[int]) -> tuple[list, int]:
    """A constant solution c of S x = b and the dimension of the kernel of
    S, for S = assemble(coeffs, group, elements) and b holding rhs[i] at
    every element in row component i: x holds c[j] at every element in
    component j.

    S commutes with every left translation L_g and b is constant, so if x
    solves S x = b then so does each L_g x, and so does their mean over g,
    which is constant.  As S maps the constant holding c to the constant
    holding (sum_h M_h) c, solve_affine on (sum_h M_h) c = rhs, nrows x
    ncols, raises InfeasibleSystemError exactly when it would on S, and c
    sets its free entries to zero.  linalg.nullity counts the kernel of S
    by one fraction-free elimination, without writing S out.
    """
    blocks = list(coeffs.values())
    constant, _ = solve_affine(sum(blocks[1:], blocks[0]), rhs)
    return constant, nullity(coeffs, group, elements)


def ricci_flat_solve(calculus: Calculus) -> dict[str, tuple[tuple, int]]:
    """Solve for the chart parameter triples with vanishing Ricci, once per
    lift variant, keyed as in LIFT_VARIANTS.

    Ricci is affine in the three parameter functions, so this is an exact
    linear system in 3|G| scalars, chart constraint included.  Its keys lie
    in H = <C>, so on G it is [G:H] copies of its block on the elements of
    H, and solve_invariant solves the coefficients of ricci_system on
    constants, 10 rows by 3 unknowns, and counts the kernel of that block,
    10|H| rows by 3|H| unknowns, by one integer elimination that never
    writes it out, whatever |G| is.  The expected outcome
    for the supported classes is a single isolated triple; without the
    constraint the solution set would pick up the constant shifts that
    leave the relative curvature unchanged.

    Each entry is (parameters, kernel_dimension): a constant parameter
    triple solving the system and the dimension of the homogeneous
    solutions on G, [G:H] times that on H.
    """
    systems = ricci_system(calculus)
    elements = calculus.cls.generated_subgroup()
    copies = calculus.group.order // len(elements)
    solves = {}
    for variant, (coeffs, rhs) in systems.items():
        constant, kernel = solve_invariant(coeffs, rhs, calculus.group, elements)
        solves[variant] = (tuple(constant), kernel * copies)
    return solves
