"""Deterministic JSON reports for every computation the package exposes.

Exact scalars survive serialization: a rational becomes {"num", "den"} and a
general cyclotomic value {"zeta_order", "coeffs"} with rational coordinate
pairs, each alongside a fixed-precision decimal rendering for human readers.
The decimal strings come from mpmath at a pinned working precision, so the
same input produces byte-identical reports on every platform; nothing in a
report depends on time, paths or dictionary iteration order.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from . import __version__
from .calculus import Calculus, GroupFunction, OneForm, TwoForm, differential_calculus
from .connections import (
    Connection,
    constant_regular_scan,
    cotorsion_residual,
    is_regular,
    levi_civita,
    torsion_free_family,
    torsion_residual,
)
from .curvature import (
    TensorOneOne,
    covariant_derivative,
    curvature_forms,
    lift,
    ricci,
    ricci_flat_solve,
    wedge_of_tensor,
)
from .errors import AsymmetricSpectrumError, UnsupportedGroupError
from .groups import ConjClass, FiniteGroup, ad_table, class_product_table
from .linalg import Mat, as_scalar
from .representations import builtin_rep
from . import dirac as spinops

mp.dps = 30
_DIGITS = 12


def _decimal(x) -> str:
    return mp.nstr(x, _DIGITS)


def fraction_json(value) -> dict:
    fr = Fraction(value)
    return {
        "num": fr.numerator,
        "den": fr.denominator,
        "decimal": _decimal(mpf(fr.numerator) / mpf(fr.denominator)),
    }


def scalar_json(value) -> dict:
    """Exact JSON form of a rational or cyclotomic scalar."""
    c = as_scalar(value)
    if c.is_rational():
        return fraction_json(c.as_fraction())
    re = mpf(0)
    im = mpf(0)
    for j, coeff in enumerate(c.coeffs):
        if coeff:
            w = mpf(coeff.numerator) / mpf(coeff.denominator)
            angle = mpf(2 * j) / mpf(c.order)
            re += w * mp.cospi(angle)
            im += w * mp.sinpi(angle)
    return {
        "zeta_order": c.order,
        "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
        "decimal": f"{_decimal(re)} + {_decimal(im)}i",
    }


def values_json(values) -> list:
    return [scalar_json(v) for v in values]


def matrix_json(m: Mat) -> list:
    return [values_json(row) for row in m.rows]


def function_json(f: GroupFunction) -> list:
    return values_json(f.values)


def one_form_json(alpha: OneForm) -> dict:
    labels = alpha.calculus.cls.labels()
    return {labels[pos]: function_json(f) for pos, f in enumerate(alpha.coeffs)}


def _pair_label(cal: Calculus, pair) -> str:
    labels = cal.cls.labels()
    return f"e_{labels[pair[0]]}^e_{labels[pair[1]]}"


def two_form_json(omega: TwoForm) -> dict:
    cal = omega.calculus
    return {_pair_label(cal, pair): function_json(f)
            for pair, f in zip(cal.quotient_pairs, omega.coeffs)}


def tensor_json(t: TensorOneOne) -> dict:
    labels = t.calculus.cls.labels()
    return {labels[p]: {labels[q]: function_json(t.coords[p][q])
                        for q in range(len(labels))}
            for p in range(len(labels))}


def spectrum_json(spect: spinops.Spectrum) -> dict:
    table = {}
    for value, mult in spect.pairs:
        key = str(value.as_fraction()) if value.is_rational() else repr(value)
        table[key] = mult
    return {
        "dimension": spect.dimension,
        "table": table,
        "pairs": [{"value": scalar_json(v), "multiplicity": m}
                  for v, m in spect.pairs],
    }


def catalog_json(cat: dict) -> dict:
    out = {
        "mu": fraction_json(cat["mu"]),
        "families": [
            {
                "name": fam["name"],
                "claimed_eigenvalue": scalar_json(fam["claimed_eigenvalue"]),
                "candidates": [
                    {"label": c["label"], "status": c["status"],
                     "eigenvalue": None if c["eigenvalue"] is None
                     else scalar_json(c["eigenvalue"])}
                    for c in fam["candidates"]
                ],
            }
            for fam in cat["families"]
        ],
        "eigenvalues": [
            {
                "value": scalar_json(s["value"]),
                "claimed_candidates": s["claimed_candidates"],
                "zero_vectors": s["zero_vectors"],
                "verified": s["verified"],
                "claimed_span": s["claimed_span"],
                "multiplicity": s["multiplicity"],
                "gap": s["gap"],
                "completions": s["completions"],
                "completed_span": s["completed_span"],
                "complete": s["complete"],
            }
            for s in cat["eigenvalues"]
        ],
    }
    for key in ("sign_multiplication_anticommutes", "component_identities",
                "conjugates_coincide_reversed"):
        if key in cat:
            out[key] = cat[key]
    return out


# ---------------------------------------------------------------------------
# per-command reports


def calculus_report(cal: Calculus) -> dict:
    cls = cal.cls
    group = cls.group
    products = class_product_table(cls)
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
        "ad_table": ad_table(cls),
        "product_table": [[group.label(g) for g in row] for row in products],
        "relation_dimension": cal.relation_dim,
        "two_form_dimension": cal.quotient_dim,
        "dimension_discrepancy": {
            "documented_claim": 6,
            "computed": cal.quotient_dim,
            "agrees": cal.quotient_dim == 6,
        },
        "quotient_basis": [_pair_label(cal, p) for p in cal.quotient_pairs],
        "reduction": {_pair_label(cal, pair): values_json(coords)
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


def connection_report(cal: Calculus, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    # levi_civita rejects a singular mu; do that before the torsion solve
    lc = levi_civita(cal, mu)
    particular, kernel = torsion_free_family(cal)
    members = [particular.components] + kernel
    sum_ok = all(
        Connection(cal, comps).sum_form().is_zero() for comps in members)
    return {
        "mu": fraction_json(mu),
        "torsion_free_family_dimension": len(kernel),
        "sum_of_components_vanishes": sum_ok,
        "constant_regular_scan": [
            [fraction_json(x) for x in triple]
            for triple in constant_regular_scan(cal)
        ],
        "levi_civita": {
            "parameters": None if lc.parameters is None else [
                function_json(p) for p in lc.parameters],
            "components": {
                cal.cls.labels()[pos]: one_form_json(comp)
                for pos, comp in enumerate(lc.components)
            },
            "torsion_residual_zero": all(r.is_zero() for r in torsion_residual(lc)),
            "cotorsion_residual_zero": all(
                r.is_zero() for r in cotorsion_residual(lc, mu)),
            "regular": is_regular(lc),
        },
    }


def curvature_report(cal: Calculus) -> dict:
    lc = levi_civita(cal)
    labels = cal.cls.labels()
    forms = curvature_forms(lc)
    matches = all(forms[pos] == cal.d_basis(pos) for pos in range(cal.cls.size))
    lift_section = {}
    for variant in ("canonical", "braided"):
        ok = True
        for k in range(cal.quotient_dim):
            basis_form = TwoForm(cal, [
                cal.constant(1 if i == k else 0) for i in range(cal.quotient_dim)])
            ok = ok and wedge_of_tensor(lift(cal, basis_form, variant)) == basis_form
        lift_section[variant] = ok
    return {
        "covariant_derivatives": {
            labels[pos]: tensor_json(
                covariant_derivative(lc, cal.basis_one_form(pos)))
            for pos in range(cal.cls.size)
        },
        "curvature_forms": {
            labels[pos]: two_form_json(forms[pos]) for pos in range(cal.cls.size)
        },
        "curvature_equals_background_differentials": matches,
        "lift_is_section": lift_section,
    }


def ricci_report(cal: Calculus) -> dict:
    lc = levi_civita(cal)
    out = {"levi_civita": {}, "flat_solve": {}}
    for variant in ("canonical", "braided"):
        tensor = ricci(lc, variant)
        out["levi_civita"][variant] = {
            "tensor": tensor_json(tensor),
            "zero": tensor.is_zero(),
        }
        params, kernel = ricci_flat_solve(cal, variant)
        out["flat_solve"][variant] = {
            "parameters": [function_json(p) for p in params],
            "kernel_dimension": len(kernel),
            "unique": len(kernel) == 0,
        }
    return out


def _certified_minimal_polynomial(spect: spinops.Spectrum) -> list:
    # the eigenspaces fill the space, so the operator is diagonalisable and
    # its minimal polynomial has exactly the certified eigenvalues as roots
    return values_json(spinops.poly_from_roots(spect.eigenspaces))


def dirac_report(cal: Calculus, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    cls = cal.cls
    group = cls.group
    rep = builtin_rep(group, "spinor")
    lc = levi_civita(cal, mu)
    op = spinops.dirac_operator(rep, lc, cls, mu)
    gammas = spinops.gamma_matrices(rep, cls, mu)
    gamma_sum = Mat.zeros(rep.dim, rep.dim)
    for a in cls.members:
        gamma_sum = gamma_sum + gammas[a]
    spect = spinops.spectrum(op)
    met = spinops.metric(cls, mu)
    square = op @ op
    out = {
        "mu": fraction_json(mu),
        "metric": {"eta": matrix_json(met.eta), "eta_inv": matrix_json(met.eta_inv)},
        "casimir": matrix_json(spinops.casimir(rep, cls, mu)),
        "gamma": {group.label(a): matrix_json(gammas[a]) for a in cls.members},
        "gamma_sum": matrix_json(gamma_sum),
        "spectrum": spectrum_json(spect),
        "trace": scalar_json(op.trace()),
        "trace_of_square": scalar_json(square.trace()),
        "hermitian": op.conj_transpose() == op,
        "cube_equals_nine_times": square @ op == op * 9,
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0 and rep.dim == 2:
        blocks = spinops.spinor_blocks(op, 2)
        d0 = spinops.class_translation_sum(cls)
        d1 = spinops.translation_block(rep, cls, 1, 0)
        d2 = spinops.translation_block(rep, cls, 0, 1)
        out["translation_block_form"] = (
            blocks[0][0] == -d0 and blocks[1][1] == -d0
            and blocks[0][1] == d2 and blocks[1][0] == d1)
    try:
        gam = spinops.chirality(spect)
        ident = Mat.identity(op.nrows)
        out["chirality"] = {
            "available": True,
            "squares_to_identity": gam @ gam == ident,
            "anticommutes_exactly": (gam @ op + op @ gam).is_zero(),
        }
    except AsymmetricSpectrumError as exc:
        out["chirality"] = {"available": False, "reason": str(exc)}
    if mu == 0:
        try:
            out["eigenmode_catalog"] = catalog_json(
                spinops.eigenmode_catalog(cls, op, spect))
        except UnsupportedGroupError:
            pass
    return out


def wave_report(cls: ConjClass, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    op = spinops.wave_operator(cls, mu)
    spect = spinops.spectrum(op)
    out = {
        "mu": fraction_json(mu),
        "operator": matrix_json(op),
        "spectrum": spectrum_json(spect),
        "hermitian": op.conj_transpose() == op,
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0:
        d0 = spinops.class_translation_sum(cls)
        out["translation_form"] = (
            op == d0 * 2 - Mat.identity(cls.group.order) * (2 * cls.size))
        try:
            out["eigenmode_catalog"] = catalog_json(
                spinops.wave_eigenmode_catalog(cls, op, spect))
        except UnsupportedGroupError:
            pass
    return out


_ACTION_BATTERY = (
    ("1", [Fraction(1)]),
    ("u", [Fraction(0), Fraction(1)]),
    ("u^2", [Fraction(0), Fraction(0), Fraction(1)]),
    ("exp-taylor-4", None),  # filled at call time
)


def spectral_action_report(cal: Calculus, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    cls = cal.cls
    rep = builtin_rep(cls.group, "spinor")
    lc = levi_civita(cal, mu)
    op = spinops.dirac_operator(rep, lc, cls, mu)
    spect = spinops.spectrum(op)
    battery = []
    for name, coeffs in _ACTION_BATTERY:
        if coeffs is None:
            coeffs = spinops.exp_taylor_coefficients(4)
        for scale in (Fraction(1), Fraction(3)):
            value = spinops.spectral_action(spect, coeffs, scale)
            battery.append({
                "function": name,
                "coefficients": [fraction_json(c) for c in coeffs],
                "scale": fraction_json(scale),
                "value": scalar_json(value),
            })
    return {
        "mu": fraction_json(mu),
        "spectrum": spectrum_json(spect),
        "battery": battery,
    }


def full_report(group: FiniteGroup, cls: ConjClass, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    cal = differential_calculus(cls)
    return {
        "tool": {"name": "groupgeo", "version": __version__},
        "group": {
            "name": group.name,
            "order": group.order,
            "elements": list(group.names),
        },
        "class": list(cls.labels()),
        "mu": fraction_json(mu),
        "calculus": calculus_report(cal),
        "connection": connection_report(cal, mu),
        "curvature": curvature_report(cal),
        "ricci": ricci_report(cal),
        "dirac": dirac_report(cal, mu),
        "wave": wave_report(cls, mu),
        "spectral_action": spectral_action_report(cal, mu),
    }
