"""Deterministic JSON reports for every computation the package exposes.

Exact scalars survive serialization: a rational becomes {"num", "den"} and a
general cyclotomic value {"zeta_order", "coeffs"} with rational coordinate
pairs, each alongside a 12-digit decimal rendering for human readers.
A rational's decimal is computed with integer arithmetic that reproduces
mpmath's ``nstr`` at 30 digits byte for byte; mpmath itself is imported only
for cyclotomic values and for rationals beyond 2**3500 or below 2**-3500,
and always inside its own precision context, so the decimals depend neither
on the platform nor on the caller's mpmath settings. Nothing in a report
depends on time, paths or dictionary iteration order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .calculus import (Calculus, GroupFunction, OneForm, TensorOneOne, TwoForm,
                       differential_calculus)
from .connections import (
    Connection,
    constant_regular_scan,
    levi_civita,
    torsion_free_family,
)
from .curvature import (
    LIFT_VARIANTS,
    covariant_derivative,
    curvature_forms,
    lift,
    ricci,
    ricci_flat_solve,
    wedge_of_tensor,
)
from .cyclotomic import Cyclotomic
from .errors import AsymmetricSpectrumError, UnsupportedGroupError
from .groups import ConjClass, FiniteGroup, ad_table, class_product_table
from .linalg import Mat, as_scalar
from .representations import Representation, builtin_rep
from . import dirac as spinops

_DPS = 30
_DIGITS = 12
# the binary precision mpmath works at for _DPS digits (mp.prec)
_PREC = 103
# mpmath's to_digits_exp: the bits it carries for _DIGITS + 3 digits, and
# the binary magnitude past which it first divides by a power of ten
_LOG2_10 = math.log(10, 2)
_DIGIT_BITS = int((_DIGITS + 3) * _LOG2_10) + 10
_SCALED_MAGNITUDE = 3500
# nstr prints fixed-point when min_fixed < decimal exponent < max_fixed
_MIN_FIXED = -5
_MAX_FIXED = _DIGITS


def _round_quotient(p: int, q: int) -> tuple[int, int]:
    """(man, exp) with man * 2**exp the positive p/q rounded to _PREC bits,
    to nearest with ties to even."""
    shift = _PREC + 1 - p.bit_length() + q.bit_length()
    if shift >= 0:
        man, rem = divmod(p << shift, q)
    else:
        man, rem = divmod(p, q << -shift)
    # 2**(_PREC) <= p/q * 2**shift < 2**(_PREC + 2): one or two bits to drop
    drop = man.bit_length() - _PREC
    low = man & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    man >>= drop
    if low > half or (low == half and (rem or man & 1)):
        man += 1
    return man, drop - shift


def _mpmath_decimal(num: int, den: int) -> str:
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        return mp.nstr(mpf(num) / mpf(den), _DIGITS)


def _rational_decimal(num: int, den: int) -> str:
    """mp.nstr(mpf(num) / mpf(den), 12) at mp.dps = 30, in integers: num and
    den each round to _PREC bits and so does their quotient (mpf_div is
    correctly rounded), then libmpf.to_str's digit extraction and layout."""
    if not num:
        return "0.0"
    a, ea = _round_quotient(abs(num), 1)
    b, eb = _round_quotient(den, 1)
    man, exp = _round_quotient(a, b)
    exp += ea - eb
    magnitude = exp + man.bit_length()
    if abs(magnitude) > _SCALED_MAGNITUDE:
        return _mpmath_decimal(num, den)
    # to_digits_exp at _DIGITS + 3 digits, each step rounding down
    fixprec = max(_DIGIT_BITS - magnitude, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    # to_str: round half up on the first dropped digit, carrying into the
    # exponent when every kept digit was a 9
    lead = int(digits[:_DIGITS]) + (digits[_DIGITS] in "56789")
    if lead == 10 ** _DIGITS:
        lead //= 10
        exponent += 1
    digits = str(lead)
    if _MIN_FIXED < exponent < _MAX_FIXED:
        if exponent < 0:
            digits = "0" * -exponent + digits
        split = max(exponent, 0) + 1
        exponent = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    sign = "-" if num < 0 else ""
    if not exponent:
        return sign + text
    return f"{sign}{text}e{exponent:+d}"


def fraction_json(value) -> dict:
    fr = Fraction(value)
    return {
        "num": fr.numerator,
        "den": fr.denominator,
        "decimal": _rational_decimal(fr.numerator, fr.denominator),
    }


def _cyclotomic_decimal(c) -> str:
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        re = mpf(0)
        im = mpf(0)
        for j, coeff in enumerate(c.coeffs):
            if coeff:
                w = mpf(coeff.numerator) / mpf(coeff.denominator)
                angle = mpf(2 * j) / mpf(c.order)
                re += w * mp.cospi(angle)
                im += w * mp.sinpi(angle)
        return f"{mp.nstr(re, _DIGITS)} + {mp.nstr(im, _DIGITS)}i"


def scalar_json(value) -> dict:
    """Exact JSON form of a rational or cyclotomic scalar."""
    c = as_scalar(value)
    if c.is_rational():
        return fraction_json(c.as_fraction())
    return {
        "zeta_order": c.order,
        "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
        "decimal": _cyclotomic_decimal(c),
    }


def values_json(values) -> list:
    """scalar_json of each value, each distinct value rendered once: equal
    entries share one dict."""
    rendered: dict = {}
    out = []
    for value in values:
        c = as_scalar(value)
        key = (c.order, c.nums, c.den)
        if key not in rendered:
            rendered[key] = scalar_json(c)
        out.append(rendered[key])
    return out


def matrix_json(m: Mat) -> list:
    flat, n = values_json([x for row in m.rows for x in row]), m.ncols
    return [flat[i * n:(i + 1) * n] for i in range(m.nrows)]


def function_json(f: GroupFunction) -> list:
    if f.constant_value is None:
        return values_json(f.values)
    # a constant is rendered once and its dict repeated for every element
    return [scalar_json(f.constant_value)] * f.group.order


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
    return {labels[p]: {labels[q]: function_json(f) for q, f in enumerate(row)}
            for p, row in enumerate(t.coords)}


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
    """An eigenmode catalog with every exact scalar in its JSON form."""
    return _exact_json(cat)


def _exact_json(node):
    if isinstance(node, dict):
        return {key: _exact_json(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_exact_json(value) for value in node]
    if isinstance(node, (Cyclotomic, Fraction)):
        return scalar_json(node)
    return node


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
    lc = levi_civita(cal)
    # reject a singular mu after the chart check and before the torsion solve
    spinops.require_invertible_metric(cal.n_members, mu)
    particular, directions = torsion_free_family(cal)
    # a member delta_h * direction has vanishing component sum exactly when
    # its direction does, so the directions stand for every placement
    sum_ok = all(Connection(cal, comps).sum_form().is_zero()
                 for comps in [particular.components] + directions)
    return {
        "mu": fraction_json(mu),
        "torsion_free_family_dimension": len(directions) * cal.group.order,
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
            # levi_civita raises unless all three residuals vanish
            "torsion_residual_zero": True,
            "cotorsion_residual_zero": True,
            "regular": True,
        },
    }


def curvature_report(cal: Calculus) -> dict:
    lc = levi_civita(cal)
    labels = cal.cls.labels()
    forms = curvature_forms(lc)
    matches = all(forms[pos] == cal.d_basis(pos) for pos in range(cal.cls.size))
    lift_section = {}
    for variant in LIFT_VARIANTS:
        ok = True
        for k in range(cal.quotient_dim):
            basis_form = TwoForm(cal, [
                cal.constant(1 if i == k else 0) for i in range(cal.quotient_dim)])
            ok = ok and wedge_of_tensor(lift(basis_form, variant)) == basis_form
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
    solves = ricci_flat_solve(cal)
    out = {"levi_civita": {}, "flat_solve": {}}
    for variant in LIFT_VARIANTS:
        tensor = ricci(lc, variant)
        out["levi_civita"][variant] = {
            "tensor": tensor_json(tensor),
            "zero": tensor.is_zero(),
        }
        params, kernel = solves[variant]
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


class DiracCertificate(NamedTuple):
    """The Dirac operator of the spinor representation and the distinguished
    connection at mu, built and certified once for every section that
    reads it: its coefficients {h: M_h}, their block on H = <C>, and the
    certified spectrum of the operator on G, held as the block's."""

    cls: ConjClass
    mu: Fraction
    rep: Representation
    coeffs: dict
    block: Mat
    spectrum: spinops.Spectrum


def certify_dirac(cal: Calculus, mu) -> DiracCertificate:
    mu = Fraction(mu)
    cls = cal.cls
    rep = builtin_rep(cls.group, "spinor")
    coeffs = spinops.dirac_operator(rep, levi_civita(cal), mu)
    return DiracCertificate(cls, mu, rep, coeffs, *spinops.certify(coeffs, cls))


def dirac_report(dirac: DiracCertificate) -> dict:
    cls, mu, rep, coeffs, block, spect = dirac
    group = cls.group
    gamma_sum = Mat.zeros(rep.dim, rep.dim)
    for a in cls.members:
        gamma_sum = gamma_sum + coeffs[a]
    met = spinops.metric(cls, mu)
    square = block @ block
    out = {
        "mu": fraction_json(mu),
        "metric": {"eta": matrix_json(met.eta), "eta_inv": matrix_json(met.eta_inv)},
        "casimir": matrix_json(spinops.casimir(rep, cls, mu)),
        "gamma": {group.label(a): matrix_json(coeffs[a]) for a in cls.members},
        "gamma_sum": matrix_json(gamma_sum),
        "spectrum": spectrum_json(spect),
        # the operator on G is [G:H] copies of its block up to a
        # permutation of the basis, so traces scale by [G:H]
        "trace": scalar_json(block.trace() * spect.copies),
        "trace_of_square": scalar_json(square.trace() * spect.copies),
        "hermitian": spinops.is_hermitian(coeffs, group),
        "cube_equals_nine_times": square @ block == block * 9,
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0 and rep.dim == 2:
        # distinct h fill distinct entries, so the spinor blocks of the
        # operator are -sum R_a on the diagonal and sum rho(a)_ij R_a off it
        # exactly when the coefficients say so
        out["translation_block_form"] = coeffs[0].is_zero() and all(
            coeffs[a] == Mat([[-1, rep(a)[0, 1]], [rep(a)[1, 0], -1]])
            for a in cls.members)
    try:
        # the grading of the block; a refusal names the multiplicities of
        # the operator on G
        gam = spinops.chirality(spect)
        ident = Mat.identity(block.nrows)
        out["chirality"] = {
            "available": True,
            "squares_to_identity": gam @ gam == ident,
            "anticommutes_exactly": (gam @ block + block @ gam).is_zero(),
        }
    except AsymmetricSpectrumError as exc:
        out["chirality"] = {"available": False, "reason": str(exc)}
    if mu == 0:
        try:
            out["eigenmode_catalog"] = catalog_json(
                spinops.eigenmode_catalog(cls, coeffs, spect))
        except UnsupportedGroupError:
            pass
    return out


def wave_report(cls: ConjClass, mu=Fraction(0)) -> dict:
    mu = Fraction(mu)
    coeffs = spinops.wave_operator(cls, mu)
    spect = spinops.certify(coeffs, cls)[1]
    out = {
        "mu": fraction_json(mu),
        "operator": matrix_json(spinops.assemble(coeffs, cls.group)),
        "spectrum": spectrum_json(spect),
        "hermitian": spinops.is_hermitian(coeffs, cls.group),
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0:
        # twice the class translation sum minus twice the class size
        out["translation_form"] = spinops.same_element(
            coeffs, {0: Mat([[-2 * cls.size]]), **{a: Mat([[2]]) for a in cls.members}})
        try:
            out["eigenmode_catalog"] = catalog_json(
                spinops.wave_eigenmode_catalog(cls, coeffs, spect))
        except UnsupportedGroupError:
            pass
    return out


_ACTION_BATTERY = (
    ("1", [Fraction(1)]),
    ("u", [Fraction(0), Fraction(1)]),
    ("u^2", [Fraction(0), Fraction(0), Fraction(1)]),
    ("exp-taylor-4", None),  # filled at call time
)


def spectral_action_report(spect: spinops.Spectrum, mu) -> dict:
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
    # a singular mu stops at the connection section; a group without a
    # dihedral presentation stops at the Dirac certificate, made before
    # the curvature and Ricci sections so they are not computed in vain
    connection = connection_report(cal, mu)
    dirac = certify_dirac(cal, mu)
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
        "connection": connection,
        "curvature": curvature_report(cal),
        "ricci": ricci_report(cal),
        "dirac": dirac_report(dirac),
        "wave": wave_report(cls, mu),
        "spectral_action": spectral_action_report(dirac.spectrum, mu),
    }
