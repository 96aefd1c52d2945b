"""The rational reports of the class calculus and its distinguished
connection: calculus, connection, curvature and Ricci.  The connection and
curvature layers load in the reports that run them, so the calculus
command compiles no linear algebra.  A report prints each constant
coefficient as the list of its values at the |G| group elements."""

from __future__ import annotations

from .calculus import LIFT_VARIANTS, Calculus, OneForm, TensorOneOne, TwoForm
from .cyclotomic import ONE, ZERO
from .groups import require_invertible_metric
from .reporting import Geometry


def one_form_json(alpha: OneForm) -> dict:
    cal = alpha.calculus
    labels = cal.cls.labels()
    return {labels[pos]: [f] * cal.group.order for pos, f in enumerate(alpha.coeffs)}


def _pair_label(cal: Calculus, pair) -> str:
    labels = cal.cls.labels()
    return f"e_{labels[pair[0]]}^e_{labels[pair[1]]}"


def two_form_json(omega: TwoForm) -> dict:
    cal = omega.calculus
    return {_pair_label(cal, pair): [f] * cal.group.order
            for pair, f in zip(cal.quotient_pairs, omega.coeffs)}


def tensor_json(t: TensorOneOne) -> dict:
    labels, order = t.calculus.cls.labels(), t.calculus.group.order
    return {labels[p]: {labels[q]: [f] * order for q, f in enumerate(row)}
            for p, row in enumerate(t.coords)}


def calculus_report(geo: Geometry) -> dict:
    cal, cls = geo.calculus, geo.cls
    group = cls.group
    theta = cal.theta
    d_theta = cal.d_one_form(theta)
    theta_sq = cal.wedge(theta, theta)
    return {
        "class": {
            "members": list(cls.labels()),
            "size": cls.size,
            "cyclic_witness": group.label(cls.cyclic_witness)
            if cls.cyclic_witness is not None else None,
        },
        "ad_table": cls.ad,
        "product_table": [[group.label(g) for g in row] for row in cls.products],
        "relation_dimension": cal.relation_dim,
        "two_form_dimension": cal.quotient_dim,
        "dimension_discrepancy": {
            "documented_claim": 6,
            "computed": cal.quotient_dim,
            "agrees": cal.quotient_dim == 6,
        },
        "quotient_basis": [_pair_label(cal, p) for p in cal.quotient_pairs],
        "reduction": {_pair_label(cal, pair): coords
                      for pair, coords in sorted(cal.reduction.items())},
        "background_differentials": {
            cls.labels()[pos]: two_form_json(cal.d_basis(pos))
            for pos in range(cls.size)
        },
        "maurer_cartan": {
            "d_theta_zero": d_theta.is_zero(),
            "theta_wedge_theta_zero": theta_sq.is_zero(),
        },
    }


def connection_report(geo: Geometry) -> dict:
    from . import connections

    cal, mu = geo.calculus, geo.mu
    lc = connections.levi_civita(cal)
    # reject a singular mu after the chart check and before the torsion solve
    require_invertible_metric(cal.n_members, mu)
    particular, directions = connections.torsion_free_family(cal)
    # a member delta_h * direction has vanishing component sum exactly when
    # its direction does, so the directions stand for every placement
    sum_ok = all(connections.Connection(cal, comps).sum_form().is_zero()
                 for comps in [particular.components] + directions)
    return {
        "mu": mu,
        "torsion_free_family_dimension": len(directions) * cal.group.order,
        "sum_of_components_vanishes": sum_ok,
        "constant_regular_scan": [tuple(lc.parameters)],
        "levi_civita": {
            "parameters": [[p] * cal.group.order for p in lc.parameters],
            "components": {
                cal.cls.labels()[pos]: one_form_json(comp)
                for pos, comp in enumerate(lc.components)
            },
            # levi_civita raises unless all three residuals vanish
            "torsion_residual_zero": True,
            "cotorsion_residual_zero": True,
            "regular": True,
        },
    }


def curvature_report(geo: Geometry) -> dict:
    from . import connections, curvature

    cal = geo.calculus
    lc = connections.levi_civita(cal)
    labels = cal.cls.labels()
    forms = curvature.curvature_forms(lc)
    matches = all(forms[pos] == cal.d_basis(pos) for pos in range(cal.cls.size))
    basis = [TwoForm(cal, [ONE if i == k else ZERO for i in range(cal.quotient_dim)])
             for k in range(cal.quotient_dim)]
    lift_section = {variant: all(curvature.wedge_of_tensor(curvature.lift(b, variant)) == b
                                 for b in basis)
                    for variant in LIFT_VARIANTS}
    return {
        "covariant_derivatives": {
            labels[pos]: tensor_json(
                curvature.covariant_derivative(lc, cal.basis_one_form(pos)))
            for pos in range(cal.cls.size)
        },
        "curvature_forms": {
            labels[pos]: two_form_json(forms[pos]) for pos in range(cal.cls.size)
        },
        "curvature_equals_background_differentials": matches,
        "lift_is_section": lift_section,
    }


def ricci_report(geo: Geometry) -> dict:
    from . import connections, curvature

    cal = geo.calculus
    tensors = curvature.ricci(connections.levi_civita(cal))
    solves = curvature.ricci_flat_solve(cal)
    out = {"levi_civita": {}, "flat_solve": {}}
    for variant in LIFT_VARIANTS:
        tensor = tensors[variant]
        out["levi_civita"][variant] = {
            "tensor": tensor_json(tensor),
            "zero": tensor.is_zero(),
        }
        params, kernel_dimension = solves[variant]
        out["flat_solve"][variant] = {
            "parameters": [[p] * cal.group.order for p in params],
            "kernel_dimension": kernel_dimension,
            "unique": kernel_dimension == 0,
        }
    return out
