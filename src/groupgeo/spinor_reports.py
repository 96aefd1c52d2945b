"""The reports of the operators on the group: Dirac, wave and spectral
action, each with a certified spectrum.  The wave report reads the class
alone, and the eigenmode catalogs load only for the class they are
stated for."""

from __future__ import annotations

# layer functions are looked up on their modules, where a tracer wraps them
from . import dirac as spinops, linalg, spectra
from .cyclotomic import ONE, ZERO, rat
from .errors import AsymmetricSpectrumError, UnsupportedGroupError
from .groups import require_catalog_class
from .linalg import Mat
from .reporting import Geometry
from .spectra import Spectrum


def spectrum_json(spect: Spectrum) -> dict:
    return {
        "dimension": spect.dimension,
        "table": {repr(v): m for v, m in spect.pairs},
        "pairs": [{"value": v, "multiplicity": m} for v, m in spect.pairs],
    }


def _certified_minimal_polynomial(spect: Spectrum) -> list:
    # the multiplicities fill the space, so the operator is diagonalisable
    # and its minimal polynomial has exactly the certified eigenvalues as roots
    return spectra.poly_from_roots(spect.multiplicities)


def dirac_report(geo: Geometry) -> dict:
    cls, mu = geo.cls, geo.mu
    rep, coeffs, form = geo.dirac
    spect = form.spectrum
    group = cls.group
    gamma_sum = sum((coeffs[a] for a in cls.members), Mat.zeros(rep.dim, rep.dim))
    eta, eta_inv = spinops.metric(cls, mu)
    squares = [block @ block for block in form.blocks]
    out = {
        "mu": mu,
        "metric": {"eta": eta.rows, "eta_inv": eta_inv.rows},
        "casimir": spinops.casimir(rep, cls, mu).rows,
        "gamma": {group.label(a): coeffs[a].rows for a in cls.members},
        "gamma_sum": gamma_sum.rows,
        "spectrum": spectrum_json(spect),
        # the operator on G is dim rho copies of each block B_rho up to a
        # change of basis, so traces add up with those weights, and it is
        # 9 times its cube exactly when every block is
        "trace": form.trace(form.blocks),
        "trace_of_square": form.trace(squares),
        "hermitian": linalg.is_hermitian(coeffs, group),
        "cube_equals_nine_times": all(
            square @ block == block * 9 for square, block in zip(squares, form.blocks)),
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0:
        # distinct h fill distinct entries, so the spinor blocks of the
        # operator are -sum R_a on the diagonal and sum rho(a)_ij R_a off it
        # exactly when the coefficients say so
        out["translation_block_form"] = coeffs[0].is_zero() and all(
            coeffs[a] == Mat([[-1, rep(a)[0, 1]], [rep(a)[1, 0], -1]])
            for a in cls.members)
    try:
        # a refusal names the multiplicities of the operator on G
        squares_ok, anticommutes = spinops.grading_checks(form, spinops.chirality(form))
        out["chirality"] = {
            "available": True,
            "squares_to_identity": squares_ok,
            "anticommutes_exactly": anticommutes,
        }
    except AsymmetricSpectrumError as exc:
        out["chirality"] = {"available": False, "reason": str(exc)}
    if mu == 0:
        try:
            # the catalog module loads only for the class it is stated for
            require_catalog_class(cls)
            from . import catalogs
            out["eigenmode_catalog"] = catalogs.eigenmode_catalog(cls, coeffs, form)
        except UnsupportedGroupError:
            pass
    return out


def wave_report(geo: Geometry) -> dict:
    cls, mu = geo.cls, geo.mu
    coeffs = spinops.wave_operator(cls, mu)
    spect = spectra.certify(coeffs, cls)
    out = {
        "mu": mu,
        "operator": linalg.assemble(coeffs, cls.group).rows,
        "spectrum": spectrum_json(spect),
        "hermitian": linalg.is_hermitian(coeffs, cls.group),
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0:
        # twice the class translation sum minus twice the class size
        out["translation_form"] = linalg.same_element(
            coeffs, {0: Mat([[-2 * cls.size]]), **{a: Mat([[2]]) for a in cls.members}})
        try:
            require_catalog_class(cls)
            from . import catalogs
            out["eigenmode_catalog"] = catalogs.wave_eigenmode_catalog(geo, coeffs, spect)
        except UnsupportedGroupError:
            pass
    return out


def spectral_action_report(geo: Geometry) -> dict:
    spect = geo.dirac.form.spectrum
    functions = (
        ("1", [ONE]),
        ("u", [ZERO, ONE]),
        ("u^2", [ZERO, ZERO, ONE]),
        ("exp-taylor-4", spinops.exp_taylor_coefficients(4)),
    )
    battery = [{"function": name, "coefficients": coeffs, "scale": scale,
                "value": spinops.spectral_action(spect, coeffs, scale)}
               for name, coeffs in functions for scale in (ONE, rat(3))]
    return {
        "mu": geo.mu,
        "spectrum": spectrum_json(spect),
        "battery": battery,
    }
