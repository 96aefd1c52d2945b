"""Deterministic JSON reports for every computation the package exposes.

Each report is a record of exact values: its scalar leaves are Cyclotomic
and Fraction values, alone or in the tuples of a Mat's rows and a
GroupFunction's values, beside ints, bools, strings and None.  to_json
writes a report for json.dumps (cli.render calls it) in one walk, which
renders each distinct scalar once: a rational becomes {"num", "den"} and a
general cyclotomic value {"zeta_order", "coeffs"} with rational coordinate
pairs, each alongside a 12-digit decimal rendering for human readers.
That decimal is the exact value rounded half up to 12 significant digits,
in the layout of mpmath's ``nstr``, computed in integers: a rational's by
integer division, a cyclotomic value's parts from exact fixed-point
enclosures (_cyclotomic_decimal).  No setting of any library reaches it,
and nothing in a report depends on time, paths or dictionary iteration
order.

Every report takes one Geometry, which builds what several sections read
once, on first read.  Each imports the layers it runs in its own body, so
a command compiles only the modules it needs: the wave report, which reads
the class alone, loads neither calculus nor connections, and the eigenmode
catalogs load only for the class they are stated for.  The reports keep
the layers' checks; the command line runs the same input-only checks
(groups) before it imports this module.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .cyclotomic import Cyclotomic, cyclo, rat
from .errors import AsymmetricSpectrumError, UnsupportedGroupError
from .groups import ConjClass, require_catalog_class, require_invertible_metric

if TYPE_CHECKING:
    from .calculus import Calculus, OneForm, TensorOneOne, TwoForm
    from .spectra import BlockForm, Spectrum
    from .representations import Representation

_DIGITS = 12
# nstr prints fixed-point when min_fixed < decimal exponent < max_fixed
_MIN_FIXED = -5
_MAX_FIXED = _DIGITS
# the bits of the fixed-point roots of unity a cyclotomic decimal is first
# summed from; a part they leave undecided is summed again at twice as many
_FIXED = 256


def _rational_decimal(num: int, den: int) -> str:
    """num/den rounded half up (ties away from zero) to _DIGITS significant
    digits by integer division, in mpmath's nstr layout."""
    if not num:
        return "0.0"
    size = abs(num)
    # size/den lies strictly between 2**(bits - 1) and 2**(bits + 1), so its
    # decimal exponent is this estimate or one more (0.5 is log10(2) and
    # 0.2 to spare for float rounding)
    bits = size.bit_length() - den.bit_length()
    exponent = math.floor(bits * math.log10(2) - 0.5)
    scale = _DIGITS - 1 - exponent
    if scale >= 0:
        size *= 10 ** scale
    else:
        den *= 10 ** -scale
    if size >= den * 10 ** _DIGITS:
        den *= 10
        exponent += 1
    # 10**(_DIGITS - 1) <= size/den < 10**_DIGITS: round half up, carrying
    # into the exponent when every kept digit was a 9
    lead, rest = divmod(size, den)
    lead += 2 * rest >= den
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


def _arctan_inverse(m: int, one: int) -> int:
    """atan(1/m) times one, for an integer m > 1, every term rounded down."""
    power = total = one // m
    k, sign = 1, 1
    while power:
        power //= m * m
        k += 2
        sign = -sign
        total += sign * (power // k)
    return total


@functools.cache
def _fixed_pi(bits: int) -> int:
    """pi times 2**bits by Machin's formula, computed once per precision
    and process."""
    one = 1 << bits
    return 4 * (4 * _arctan_inverse(5, one) - _arctan_inverse(239, one))


@functools.cache
def _unit_root(j: int, n: int, bits: int) -> tuple[int, int]:
    """cos and sin of 2 pi j/n times 2**bits, each within bits * 2**8 of the
    exact value: the Taylor series at the angle taken into (-pi, pi],
    every term rounded down.  Each (j, n, bits) is summed once per process."""
    one = 1 << bits
    pi = _fixed_pi(bits)
    turn = j if 2 * j <= n else j - n
    x = 2 * pi * abs(turn) // n
    parts = [0, 0]
    term, k = one, 0
    while term:
        parts[k % 2] += -term if k % 4 >= 2 else term
        k += 1
        term = term * x // (k * one)
    cos, sin = parts
    return cos, sin if turn >= 0 else -sin


def _enclosure_decimals(c, bits: int) -> list[tuple[str, str]]:
    """The decimals of the two ends of an enclosure of c's real part and of
    its imaginary part, summed exactly from the bits-bit roots of unity."""
    re = im = 0
    for j, x in enumerate(c.nums):
        if x:
            cos, sin = _unit_root(j, c.order, bits)
            re += x * cos
            im += x * sin
    den = c.den << bits
    radius = sum(map(abs, c.nums)) * bits << 8
    return [(_rational_decimal(part - radius, den), _rational_decimal(part + radius, den))
            for part in (re, im)]


def _cyclotomic_decimal(c) -> str:
    """c's real and imaginary parts, each rounded half up to _DIGITS
    significant digits (_rational_decimal), read off exact enclosures.

    Each part sum_j w_j cos(2 pi j/n), or sin, is enclosed by its sum from
    the _FIXED-bit roots of unity widened by sum|w_j| times their error.
    Rounding is monotone: when both ends render alike, so does the part.
    A part whose ends differ is rendered exactly when it is rational (the
    real part when c + conj(c) is, the imaginary part when (c - conj(c))/i
    is, zero included); any other part is enclosed again at twice the bits
    until its ends agree.  That ends, because every value where the
    rendering changes is rational, and an irrational part is none of them.
    """
    parts = []
    for k, (lo, hi) in enumerate(_enclosure_decimals(c, _FIXED)):
        if lo != hi:
            twice = c + c.conj() if k == 0 else (c - c.conj()) * cyclo(4, 3)
            if twice.is_rational():
                half = twice.as_fraction() / 2
                lo = hi = _rational_decimal(half.numerator, half.denominator)
        bits = _FIXED
        while lo != hi:
            bits *= 2
            lo, hi = _enclosure_decimals(c, bits)[k]
        parts.append(lo)
    return f"{parts[0]} + {parts[1]}i"


def _scalar_json(value) -> dict:
    """The JSON form of one rational or cyclotomic scalar."""
    c = rat(value)
    if c.is_rational():
        fr = c.as_fraction()
        return {
            "num": fr.numerator,
            "den": fr.denominator,
            "decimal": _rational_decimal(fr.numerator, fr.denominator),
        }
    return {
        "zeta_order": c.order,
        "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
        "decimal": _cyclotomic_decimal(c),
    }


def _rendered_once(render):
    """render, called once per distinct scalar: equal scalars share one
    dict.  A scalar is looked up first by its identity, which the report
    keeps alive, then by its reduced form."""
    by_id: dict = {}
    by_form: dict = {}

    def scalar(value) -> dict:
        entry = by_id.get(id(value))
        if entry is None:
            c = rat(value)
            key = (c.order, c.nums, c.den)
            entry = by_form.get(key)
            if entry is None:
                entry = by_form[key] = render(c)
            by_id[id(value)] = entry
        return entry

    return scalar


def to_json(report):
    """The report with every Cyclotomic or Fraction leaf in its exact JSON
    form, each distinct scalar rendered once, and every tuple a list; other
    leaves pass through unchanged."""
    scalar = _rendered_once(_scalar_json)

    def walk(node):
        if isinstance(node, (Cyclotomic, Fraction)):
            return scalar(node)
        if isinstance(node, (list, tuple)):
            # a row of scalars skips a walk frame per entry
            return [scalar(value) if type(value) is Cyclotomic else walk(value)
                    for value in node]
        if isinstance(node, dict):
            return {key: walk(value) for key, value in node.items()}
        return node

    return walk(report)


def one_form_json(alpha: OneForm) -> dict:
    labels = alpha.calculus.cls.labels()
    return {labels[pos]: f.values for pos, f in enumerate(alpha.coeffs)}


def _pair_label(cal: Calculus, pair) -> str:
    labels = cal.cls.labels()
    return f"e_{labels[pair[0]]}^e_{labels[pair[1]]}"


def two_form_json(omega: TwoForm) -> dict:
    cal = omega.calculus
    return {_pair_label(cal, pair): f.values
            for pair, f in zip(cal.quotient_pairs, omega.coeffs)}


def tensor_json(t: TensorOneOne) -> dict:
    labels = t.calculus.cls.labels()
    return {labels[p]: {labels[q]: f.values for q, f in enumerate(row)}
            for p, row in enumerate(t.coords)}


def spectrum_json(spect: Spectrum) -> dict:
    return {
        "dimension": spect.dimension,
        "table": {repr(v): m for v, m in spect.pairs},
        "pairs": [{"value": v, "multiplicity": m} for v, m in spect.pairs],
    }


# ---------------------------------------------------------------------------
# per-command reports


class DiracCertificate(NamedTuple):
    """The Dirac operator of the spinor and the distinguished connection at
    a Geometry's mu: the spinor, the coefficients {h: M_h}, and the
    irreducible blocks with their eigenspaces and the spectrum on G."""

    rep: Representation
    coeffs: dict
    form: BlockForm


class Geometry:
    """One run's class and metric modulus, and what its reports share, each
    built on first read and then kept: the calculus, the irreducibles of G
    and the Dirac certificate.  What one report reads stays in it."""

    def __init__(self, cls: ConjClass, mu=Fraction(0)):
        self.cls = cls
        self.mu = Fraction(mu)

    @functools.cached_property
    def calculus(self) -> Calculus:
        from .calculus import differential_calculus

        return differential_calculus(self.cls)

    @functools.cached_property
    def irreps(self) -> list[Representation]:
        # a group with no dihedral presentation stops here, before any spinor layer
        from .representations import irreducibles

        return irreducibles(self.cls.group)

    @functools.cached_property
    def dirac(self) -> DiracCertificate:
        # the spinor is planar1, which D3 and D6, the only dihedral groups
        # with a 3-member cyclic class, both have
        rep = next(rho for rho in self.irreps if rho.name == "planar1")
        from .connections import levi_civita
        from . import dirac as spinops, spectra

        coeffs = spinops.dirac_operator(rep, levi_civita(self.calculus), self.mu)
        return DiracCertificate(rep, coeffs, spectra.certify_blocks(coeffs, self.irreps))


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
    from .connections import Connection, levi_civita, torsion_free_family

    cal, mu = geo.calculus, geo.mu
    lc = levi_civita(cal)
    # reject a singular mu after the chart check and before the torsion solve
    require_invertible_metric(cal.n_members, mu)
    particular, directions = torsion_free_family(cal)
    # a member delta_h * direction has vanishing component sum exactly when
    # its direction does, so the directions stand for every placement
    sum_ok = all(Connection(cal, comps).sum_form().is_zero()
                 for comps in [particular.components] + directions)
    return {
        "mu": mu,
        "torsion_free_family_dimension": len(directions) * cal.group.order,
        "sum_of_components_vanishes": sum_ok,
        "constant_regular_scan": [tuple(p(0) for p in lc.parameters)],
        "levi_civita": {
            "parameters": [p.values for p in lc.parameters],
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
    from .calculus import TwoForm
    from .connections import levi_civita
    from .curvature import (LIFT_VARIANTS, covariant_derivative, curvature_forms,
                            lift, wedge_of_tensor)

    cal = geo.calculus
    lc = levi_civita(cal)
    labels = cal.cls.labels()
    forms = curvature_forms(lc)
    matches = all(forms[pos] == cal.d_basis(pos) for pos in range(cal.cls.size))
    basis = [TwoForm(cal, [cal.constant(int(i == k)) for i in range(cal.quotient_dim)])
             for k in range(cal.quotient_dim)]
    lift_section = {variant: all(wedge_of_tensor(lift(b, variant)) == b for b in basis)
                    for variant in LIFT_VARIANTS}
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


def ricci_report(geo: Geometry) -> dict:
    from .connections import levi_civita
    from .curvature import LIFT_VARIANTS, ricci, ricci_flat_solve

    tensors = ricci(levi_civita(geo.calculus))
    solves = ricci_flat_solve(geo.calculus)
    out = {"levi_civita": {}, "flat_solve": {}}
    for variant in LIFT_VARIANTS:
        tensor = tensors[variant]
        out["levi_civita"][variant] = {
            "tensor": tensor_json(tensor),
            "zero": tensor.is_zero(),
        }
        params, kernel_dimension = solves[variant]
        out["flat_solve"][variant] = {
            "parameters": [p.values for p in params],
            "kernel_dimension": kernel_dimension,
            "unique": kernel_dimension == 0,
        }
    return out


def _certified_minimal_polynomial(spect: Spectrum) -> list:
    from .spectra import poly_from_roots

    # the multiplicities fill the space, so the operator is diagonalisable
    # and its minimal polynomial has exactly the certified eigenvalues as roots
    return poly_from_roots(spect.multiplicities)


def dirac_report(geo: Geometry) -> dict:
    from . import dirac as spinops
    from .linalg import Mat, is_hermitian

    cls, mu = geo.cls, geo.mu
    rep, coeffs, form = geo.dirac
    spect = form.spectrum
    group = cls.group
    gamma_sum = Mat.zeros(rep.dim, rep.dim)
    for a in cls.members:
        gamma_sum = gamma_sum + coeffs[a]
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
        "hermitian": is_hermitian(coeffs, group),
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
    from . import dirac as spinops, spectra
    from .linalg import Mat, assemble, is_hermitian, same_element

    cls, mu = geo.cls, geo.mu
    coeffs = spinops.wave_operator(cls, mu)
    spect = spectra.certify(coeffs, cls)
    out = {
        "mu": mu,
        "operator": assemble(coeffs, cls.group).rows,
        "spectrum": spectrum_json(spect),
        "hermitian": is_hermitian(coeffs, cls.group),
        "minimal_polynomial": _certified_minimal_polynomial(spect),
    }
    if mu == 0:
        # twice the class translation sum minus twice the class size
        out["translation_form"] = same_element(
            coeffs, {0: Mat([[-2 * cls.size]]), **{a: Mat([[2]]) for a in cls.members}})
        try:
            require_catalog_class(cls)
            from . import catalogs
            out["eigenmode_catalog"] = catalogs.wave_eigenmode_catalog(geo, coeffs, spect)
        except UnsupportedGroupError:
            pass
    return out


def spectral_action_report(geo: Geometry) -> dict:
    from .dirac import exp_taylor_coefficients, spectral_action

    spect = geo.dirac.form.spectrum
    functions = (
        ("1", [Fraction(1)]),
        ("u", [Fraction(0), Fraction(1)]),
        ("u^2", [Fraction(0), Fraction(0), Fraction(1)]),
        ("exp-taylor-4", exp_taylor_coefficients(4)),
    )
    battery = []
    for name, coeffs in functions:
        for scale in (Fraction(1), Fraction(3)):
            value = spectral_action(spect, coeffs, scale)
            battery.append({
                "function": name,
                "coefficients": coeffs,
                "scale": scale,
                "value": value,
            })
    return {
        "mu": geo.mu,
        "spectrum": spectrum_json(spect),
        "battery": battery,
    }


def full_report(geo: Geometry) -> dict:
    group = geo.cls.group
    # a singular mu stops at the connection section; a group without a
    # dihedral presentation stops at the Dirac section, made before the
    # curvature and Ricci sections so they are not computed in vain
    connection = connection_report(geo)
    dirac = dirac_report(geo)
    return {
        "tool": {"name": "groupgeo", "version": __version__},
        "group": {
            "name": group.name,
            "order": group.order,
            "elements": list(group.names),
        },
        "class": list(geo.cls.labels()),
        "mu": geo.mu,
        "calculus": calculus_report(geo),
        "connection": connection,
        "curvature": curvature_report(geo),
        "ricci": ricci_report(geo),
        "dirac": dirac,
        "wave": wave_report(geo),
        "spectral_action": spectral_action_report(geo),
    }
