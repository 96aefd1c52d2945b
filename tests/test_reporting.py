"""Decimal annotations: the integer renderer of a rational and the exact
enclosures of a cyclotomic value, against mpmath's nstr where the inputs do
not seek a 12-digit tie and against exact oracles everywhere else, and
reports that do not depend on the caller's mpmath precision."""

import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from groupgeo import reporting
from groupgeo.cli import main
from groupgeo.cyclotomic import Cyclotomic, cyclo, cyclotomic_polynomial, rat
from groupgeo.reporting import to_json
from oracles import (exact_cyclotomic_decimal, exact_rational_decimal,
                     mpmath_cyclotomic_decimal, mpmath_rational_decimal)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_d6_report.json")


def _decimal(value: Fraction) -> str:
    return to_json(value)["decimal"]


def _check(value: Fraction):
    assert _decimal(value) == mpmath_rational_decimal(
        value.numerator, value.denominator), value


def _check_exact(value: Fraction):
    # on and beside a 12-digit tie the decimal is the exact value rounded
    # half up, where mpmath rounds its 103-bit approximation of it
    assert _decimal(value) == exact_rational_decimal(
        value.numerator, value.denominator), value


def _without_mpmath(monkeypatch):
    """Make any import of mpmath fail until the test ends."""
    monkeypatch.setitem(sys.modules, "mpmath", None)


def _scaled(mantissas, exponents):
    """sign * m * 10**e, moved by at most 10**-28 of itself so that values
    on a decimal tie and a few units of the 103-bit mantissa beside it both
    occur."""
    return st.builds(
        lambda m, e, sign, nudge: sign * Fraction(m) * Fraction(10) ** e
        * (1 + Fraction(nudge, 10 ** 40)),
        mantissas, exponents, st.sampled_from([1, -1]),
        st.integers(-10 ** 12, 10 ** 12) | st.integers(-3, 3))


# 13 digits whose last one is 5: a tie at the 12th digit
_TIES = st.integers(10 ** 11, 10 ** 12 - 1).map(lambda m: 10 * m + 5)
# twelve 9s and a round-up digit: the carry bumps the decimal exponent
_NINES = st.integers(1, 10 ** 6).map(lambda k: 10 ** 18 - k)
_ANY_DIGITS = st.integers(1, 10 ** 20)
# N * 10**26 for a 13-digit N ending in 5 is a 103-bit mantissa times 2**26
# when N * 5**26 has 103 bits; halfway below it, ties to even round down
# to a value whose 13th digit is 4, away from zero would round up to N
_TIE_LO = -(-2 ** 102 // 5 ** 26)  # the least N with N * 5**26 of 103 bits
_TIE_HI = (2 ** 103 - 1) // 5 ** 26
_BINARY_TIES = st.integers((_TIE_LO + 4) // 10, (_TIE_HI - 5) // 10).map(
    lambda k: (10 * k + 5) * 10 ** 26 - 2 ** 25)


def test_small_fractions_match_mpmath():
    for num in range(-60, 61):
        for den in range(1, 61):
            _check(Fraction(num, den))


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_arbitrary_fractions_match_mpmath(value):
    _check(value)


@settings(max_examples=200, deadline=None)
@given(st.builds(Fraction, st.integers(-2 ** 3600, 2 ** 3600),
                 st.integers(1, 2 ** 3600)))
def test_huge_and_tiny_fractions_match_mpmath(value):
    _check(value)


@settings(max_examples=300, deadline=None)
@given(_scaled(_TIES | _NINES, st.integers(-40, 40)))
def test_ties_and_carries_match_mpmath(value):
    _check_exact(value)


@settings(max_examples=200, deadline=None)
@given(_TIES, st.integers(-40, 40), st.integers(2 ** 103, 2 ** 200))
# two of the rare cases where rounding the denominator to 103 bits moves
# the quotient across the tie
@example(4716994378505, 12,
         43119155660649004230245735858394502250720237370630905791451)
@example(2726332289225, 11, 1068201392605930471718040750734402239504543778505788159)
def test_ties_over_wide_denominators_match_mpmath(digits, exponent, den):
    tie = Fraction(digits) * Fraction(10) ** (exponent - 13)
    _check_exact(Fraction(round(tie * den), den))


@settings(max_examples=100, deadline=None)
@given(_BINARY_TIES, st.sampled_from([1, -1]))
def test_binary_ties_round_to_even_like_mpmath(num, sign):
    _check_exact(Fraction(sign * num))


@settings(max_examples=300, deadline=None)
@given(_scaled(_ANY_DIGITS | _TIES | _NINES, st.integers(-28, -22)
               | st.integers(-9, 0)))
def test_fixed_and_exponent_switch_points_match_mpmath(value):
    # m has up to 21 digits, so m * 10**e straddles 1e-5 .. 1e-4 and
    # 1e11 .. 1e12, where nstr moves between fixed and exponent form
    _check_exact(value)


@settings(max_examples=100, deadline=None)
@given(_scaled(_ANY_DIGITS | _TIES | _NINES, st.integers(1040, 1100)
               | st.integers(-1120, -1060)))
def test_values_beyond_the_scaled_cut_match_mpmath(value):
    # past 2**3500 either way mpmath divides by a power of ten first
    _check_exact(value)


def test_layout_examples():
    examples = {
        Fraction(0): "0.0",
        Fraction(72): "72.0",
        Fraction(1, 3): "0.333333333333",
        Fraction(-2, 3): "-0.666666666667",
        Fraction(1, 10 ** 4): "0.0001",
        Fraction(1, 10 ** 5): "1.0e-5",
        Fraction(10 ** 11): "100000000000.0",
        Fraction(10 ** 12): "1.0e+12",
        Fraction(10 ** 12 - 1, 10): "99999999999.9",
        Fraction(10 ** 13 - 1, 100): "100000000000.0",
    }
    for value, text in examples.items():
        assert _decimal(value) == text
        # the exact oracle lays its digits out alike
        assert exact_rational_decimal(value.numerator, value.denominator) == text


def test_decimals_ignore_the_callers_mpmath_precision(monkeypatch, tmp_path,
                                                       capsys):
    monkeypatch.setattr(mp, "dps", 5)
    assert _decimal(Fraction(1, 3)) == "0.333333333333"
    fresh = tmp_path / "fresh.json"
    assert main(["--group", "dihedral:6", "--class", "sr", "--cmd",
                 "report-all", "--out", str(fresh)]) == 0
    capsys.readouterr()
    with open(GOLDEN, "rb") as handle:
        assert fresh.read_bytes() == handle.read()
    assert mp.dps == 5


# -- cyclotomic values ------------------------------------------------------

_NUMERATORS = st.integers(-12, 12) | st.integers(-10 ** 40, 10 ** 40)


@st.composite
def _cyclotomics(draw):
    """An element of Q(zeta_n), n <= 24, as integer coordinates over one
    denominator, small or wide."""
    order = draw(st.integers(1, 24))
    degree = len(cyclotomic_polynomial(order)) - 1
    nums = draw(st.lists(_NUMERATORS, min_size=degree, max_size=degree))
    den = draw(st.integers(1, 12) | st.integers(1, 10 ** 40))
    return Cyclotomic(order, [Fraction(x, den) for x in nums])


def _zero_or_tie(part: Fraction) -> bool:
    """Whether part is 0 or lies halfway between two 12-digit decimals."""
    size = abs(part)
    if not size:
        return True
    exponent = len(str(size.numerator)) - len(str(size.denominator))
    if size < Fraction(10) ** exponent:
        exponent -= 1
    return (size * Fraction(10) ** (11 - exponent)).denominator == 2


@settings(max_examples=300, deadline=None)
@given(_cyclotomics())
# an exact zero part and a real part on a tie, 3300602083.375
@example(cyclo(4) * rat(3))
@example(rat(Fraction(5, 6)) + rat(Fraction(79214449981, 12)) * cyclo(6))
def test_cyclotomic_decimals_match_mpmath(c):
    rendered = reporting._cyclotomic_decimal(c)
    assert rendered == exact_cyclotomic_decimal(c)
    # mpmath's own sum agrees at 300 digits; at 30, where the terms cancel
    # it keeps little but the rounding error of the larger ones (a real
    # part of -0.0114 beside 3.3e+35 i comes out 0.0).  At any precision it
    # prints a part that is exactly zero as its rounding error and rounds a
    # part exactly on a tie from a binary approximation of it.
    skip = [twice.is_rational() and _zero_or_tie(twice.as_fraction() / 2)
            for twice in (c + c.conj(), (c - c.conj()) * cyclo(4, 3))]
    ours = rendered.removesuffix("i").split(" + ")
    theirs = mpmath_cyclotomic_decimal(c, dps=300).removesuffix("i").split(" + ")
    assert [x for x, s in zip(ours, skip) if not s] == [
        x for x, s in zip(theirs, skip) if not s]


def test_unit_roots_in_fixed_point_are_within_their_bound():
    # bits * 2**8 units of 2**-bits, 2**16 at 256 bits, checked with 64
    # bits to spare
    for bits in (256, 1024):
        with mp.workprec(bits + 64):
            for n in range(1, 49):
                for j in range(n):
                    cos, sin = reporting._unit_root(j, n, bits)
                    angle = mp.mpf(2 * j) / n
                    assert abs(cos - mp.cospi(angle) * 2 ** bits) < bits << 8
                    assert abs(sin - mp.sinpi(angle) * 2 ** bits) < bits << 8


def test_pi_is_summed_once_per_process(monkeypatch):
    calls = []
    real = reporting._arctan_inverse

    def counted(m, one):
        calls.append(m)
        return real(m, one)

    monkeypatch.setattr(reporting, "_arctan_inverse", counted)
    reporting._fixed_pi.cache_clear()
    reporting._unit_root.cache_clear()
    bits = reporting._FIXED
    first = [reporting._unit_root(j, n, bits) for n in (3, 6, 12, 7) for j in range(n)]
    assert first == [reporting._unit_root(j, n, bits) for n in (3, 6, 12, 7) for j in range(n)]
    assert reporting.to_json(cyclo(12) + cyclo(7))["decimal"] == mpmath_cyclotomic_decimal(
        cyclo(12) + cyclo(7))
    # Machin's two arctangents, once
    assert calls == [5, 239]


@pytest.mark.parametrize("value, expected, mpmath_renders", [
    # a real part that is exactly zero; mpmath's 103-bit cos(2 pi/3) leaves
    # 2e-31 of the second one
    (cyclo(4), "0.0 + 1.0i", "0.0 + 1.0i"),
    (cyclo(3) - cyclo(3, 2), "0.0 + 1.73205080757i", "1.97215226305e-31 + 1.73205080757i"),
    # a real part on a 12-digit tie: 1000000000.125 is exact in binary
    (rat(Fraction(8000000001, 8)) + cyclo(4), "1000000000.13 + 1.0i", "1000000000.13 + 1.0i"),
], ids=["zeta4", "zeta3-minus-square", "tie"])
def test_undecided_enclosures_fall_back_to_mpmath(monkeypatch, value, expected,
                                                  mpmath_renders):
    # the first enclosure of the real part straddles a change of rendering,
    # and the exact rational part decides it, with mpmath out of reach
    assert len(set(reporting._enclosure_decimals(value, reporting._FIXED)[0])) == 2
    assert exact_cyclotomic_decimal(value) == expected
    assert mpmath_cyclotomic_decimal(value) == mpmath_renders
    _without_mpmath(monkeypatch)
    assert reporting._cyclotomic_decimal(value) == expected


def test_decided_enclosures_need_no_mpmath(monkeypatch):
    values = (cyclo(12), cyclo(3) + rat(Fraction(1, 3)), cyclo(24, 5) * rat(10 ** 40))
    expected = [mpmath_cyclotomic_decimal(value) for value in values]
    _without_mpmath(monkeypatch)
    assert [reporting._cyclotomic_decimal(value) for value in values] == expected


@pytest.mark.parametrize("side, expected", [(1, "1000000000.13 + 5.0e-71i"),
                                            (-1, "1000000000.12 + -5.0e-71i")])
def test_undecided_irrational_parts_are_enclosed_again(monkeypatch, side, expected):
    # 1000000000.125 + side 10**-70 cos(pi/6) sits 2**-262 of itself off the
    # tie: 256 bits leave it undecided and 512 decide it; the imaginary
    # part, side 10**-70 / 2, is rational
    value = rat(Fraction(8000000001, 8)) + rat(Fraction(side, 10 ** 70)) * cyclo(12)
    assert exact_cyclotomic_decimal(value) == expected
    bits = []
    real = reporting._enclosure_decimals

    def recorded(c, precision):
        bits.append(precision)
        return real(c, precision)

    monkeypatch.setattr(reporting, "_enclosure_decimals", recorded)
    _without_mpmath(monkeypatch)
    assert reporting._cyclotomic_decimal(value) == expected
    assert bits == [256, 512]


# -- the report walk --------------------------------------------------------

_POOL = (cyclo(3), cyclo(6), cyclo(6, 2), cyclo(4) + rat(1, 3), rat(1, 2),
         rat(1, 2).to_order(4), rat(-3), Fraction(1, 2))

_LEAVES = st.one_of(
    st.sampled_from(_POOL), _cyclotomics(), st.fractions(max_denominator=10 ** 6),
    st.fractions(max_denominator=12).map(rat), st.integers(), st.booleans(),
    st.none(), st.text(max_size=4))

_TREES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), kids, max_size=4), max_leaves=24)


def _standalone(c: Cyclotomic) -> dict:
    if c.is_rational():
        fr = c.as_fraction()
        return {"num": fr.numerator, "den": fr.denominator,
                "decimal": mpmath_rational_decimal(fr.numerator, fr.denominator)}
    # random cyclotomic leaves meet the cancellations mpmath's sum loses
    return {"zeta_order": c.order, "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
            "decimal": exact_cyclotomic_decimal(c)}


def _compare(node, out, shared: dict):
    if isinstance(node, dict):
        assert type(out) is dict and list(out) == list(node)
        for key, value in node.items():
            _compare(value, out[key], shared)
    elif isinstance(node, (list, tuple)):
        assert type(out) is list and len(out) == len(node)
        for value, rendered in zip(node, out):
            _compare(value, rendered, shared)
    elif isinstance(node, (Cyclotomic, Fraction)):
        c = rat(node) if isinstance(node, Fraction) else node
        assert out == _standalone(c)
        # one dict for every leaf of the same reduced form, wherever it sits
        assert shared.setdefault((c.order, c.nums, c.den), out) is out
    else:
        assert out is node


@settings(max_examples=150, deadline=None)
@given(_TREES)
# z_3 and z_6 have the same coordinates; 1/2 is at order 1 and at order 4
@example((cyclo(3), [cyclo(6), Fraction(1, 2)], {"a": rat(1, 2).to_order(4), "b": rat(1, 2)}))
def test_to_json_renders_each_scalar_as_it_renders_alone(tree):
    out = to_json(tree)
    _compare(tree, out, {})
    json.dumps(out)
