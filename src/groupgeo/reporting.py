"""Deterministic JSON reports: the core that every accepted command loads.

Each report is a record of exact values: its scalar leaves are Cyclotomic
and Fraction values, alone or in the tuples of a Mat's rows and a
GroupFunction's values, beside ints, bools, strings and None.  to_json
writes a report for json.dumps (cli.render calls it) in one walk, which
renders each distinct scalar once: a rational becomes {"num", "den"} and a
general cyclotomic value {"zeta_order", "coeffs"} with rational coordinate
pairs, each beside its value rounded half up to 12 significant digits in
the layout of mpmath's ``nstr``.  That decimal is computed in integers, a
rational's by division (rational_decimal) and the parts of any other
value from exact enclosures (enclosures, loaded on the first such value);
no library setting, time, path or dictionary order reaches a report.

Every report takes one Geometry, which builds what several sections read
once, on first read.  This module holds it and full_report.  Each other
report lives in the module that imports its layers, geometry_reports
(calculus, connection, curvature, Ricci) or spinor_reports (Dirac, wave,
spectral action), so a command compiles only the modules it needs.  The
reports keep the layers' checks; the command line runs the input-only
ones (groups) before this import.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .cyclotomic import Cyclotomic, rat
from .groups import ConjClass

if TYPE_CHECKING:
    from .calculus import Calculus
    from .spectra import BlockForm
    from .representations import Representation

_DIGITS = 12
# nstr prints fixed-point when min_fixed < decimal exponent < max_fixed
_MIN_FIXED = -5
_MAX_FIXED = _DIGITS


def rational_decimal(num: int, den: int) -> str:
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


def _scalar_json(value) -> dict:
    """The JSON form of one rational or cyclotomic scalar."""
    c = rat(value)
    if c.is_rational():
        fr = c.as_fraction()
        return {
            "num": fr.numerator,
            "den": fr.denominator,
            "decimal": rational_decimal(fr.numerator, fr.denominator),
        }
    # loaded on the first scalar that is not rational
    from .enclosures import cyclotomic_decimal

    return {
        "zeta_order": c.order,
        "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
        "decimal": cyclotomic_decimal(c),
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


def full_report(geo: Geometry) -> dict:
    from . import geometry_reports, spinor_reports

    group = geo.cls.group
    # a singular mu stops at the connection section; a group without a
    # dihedral presentation stops at the Dirac section, made before the
    # curvature and Ricci sections so they are not computed in vain
    connection = geometry_reports.connection_report(geo)
    dirac = spinor_reports.dirac_report(geo)
    return {
        "tool": {"name": "groupgeo", "version": __version__},
        "group": {
            "name": group.name,
            "order": group.order,
            "elements": list(group.names),
        },
        "class": list(geo.cls.labels()),
        "mu": geo.mu,
        "calculus": geometry_reports.calculus_report(geo),
        "connection": connection,
        "curvature": geometry_reports.curvature_report(geo),
        "ricci": geometry_reports.ricci_report(geo),
        "dirac": dirac,
        "wave": spinor_reports.wave_report(geo),
        "spectral_action": spinor_reports.spectral_action_report(geo),
    }
