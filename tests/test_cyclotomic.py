"""Exact cyclotomic arithmetic, cross-checked against complex floats."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupgeo.cyclotomic import Cyclotomic, cyclo, cyclotomic_polynomial, rat


def test_sixth_root_basics():
    w = cyclo(6)
    assert w ** 6 == rat(1)
    assert w ** 3 == rat(-1)
    # z6 + z6^-1 = 2 cos(pi/3) = 1
    assert w + w ** 5 == rat(1)
    assert w * w.conj() == rat(1)


def test_cyclotomic_polynomials_constant_first():
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(12) == (
        Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1))
    # the defining relation: z is a root of its own cyclotomic polynomial
    for order in (3, 4, 6, 12):
        z = cyclo(order)
        acc = rat(0)
        for k, c in enumerate(cyclotomic_polynomial(order)):
            acc = acc + z ** k * rat(c)
        assert acc == rat(0)


def test_power_reduction_mod_order():
    assert cyclo(6, 7) == cyclo(6, 1)
    assert cyclo(6, -1) == cyclo(6, 5)
    assert cyclo(12, 2) == cyclo(6, 1)


def test_cross_order_equality():
    assert cyclo(2) == rat(-1)
    assert cyclo(6, 2) == cyclo(3, 1)
    assert cyclo(6, 3) == rat(-1)
    assert cyclo(4) != cyclo(6)
    assert cyclo(12) ** 2 == cyclo(6)


def test_rationality_detection():
    assert rat(5, 3).is_rational()
    assert rat(5, 3).as_fraction() == Fraction(5, 3)
    assert (cyclo(6) + cyclo(6, 5)).is_rational()
    assert (cyclo(6) + cyclo(6, 5)).as_fraction() == 1
    assert not cyclo(6).is_rational()
    with pytest.raises(ValueError):
        cyclo(6).as_fraction()


def test_mixed_order_arithmetic_promotes():
    z = cyclo(4) + cyclo(6)
    assert isinstance(z, Cyclotomic)
    assert z - cyclo(6) == cyclo(4)
    assert z.order == 12


def test_negative_powers_are_inverses():
    for order, k in ((6, 1), (6, 5), (12, 7), (3, 2)):
        z = cyclo(order, k)
        assert z ** -1 == z.inverse()
        assert z * z.inverse() == rat(1)


def test_division():
    a = rat(3) + cyclo(6)
    b = rat(1) - cyclo(6, 2)
    assert (a / b) * b == a
    assert 1 / cyclo(6) == cyclo(6, 5)
    with pytest.raises(ZeroDivisionError):
        a / rat(0)


def test_conjugation_is_complex_conjugation():
    rng = random.Random(20260825)
    for _ in range(10):
        z = _random_element(rng, 12)
        zc = complex(z)
        assert abs(complex(z.conj()) - zc.conjugate()) < 1e-12
        # z * conj(z) = |z|^2 lands in the real subfield: fixed by conj
        norm = z * z.conj()
        assert norm.conj() == norm
        assert abs(complex(norm).imag) < 1e-12
        assert complex(norm).real >= -1e-12


def _random_element(rng, order):
    out = rat(0)
    for k in range(order):
        if rng.random() < 0.4:
            out = out + cyclo(order, k) * rat(rng.randint(-4, 4), rng.randint(1, 3))
    return out


def test_field_ops_match_complex_floats():
    """Numeric oracle: every exact operation agrees with complex arithmetic."""
    rng = random.Random(42)
    for _ in range(25):
        a = _random_element(rng, 12)
        b = _random_element(rng, 12)
        fa, fb = complex(a), complex(b)
        assert abs(complex(a + b) - (fa + fb)) < 1e-9
        assert abs(complex(a - b) - (fa - fb)) < 1e-9
        assert abs(complex(a * b) - (fa * fb)) < 1e-9
        if not b.is_zero():
            assert abs(complex(a / b) - (fa / fb)) < 1e-9
            assert (a / b) * b == a


def test_python_int_and_fraction_interop():
    z = cyclo(6)
    assert z + 1 == 1 + z
    assert z * 2 == z + z
    assert 3 - z == rat(3) - z
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z


def test_immutability():
    z = cyclo(6)
    with pytest.raises(AttributeError):
        z.order = 4


def test_bool_and_zero():
    assert not rat(0)
    assert cyclo(6)
    assert rat(0).is_zero()
    assert (cyclo(6) - cyclo(6)).is_zero()


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _promotions(draw):
    """A random element of Q(zeta_M) with a random multiple M * k."""
    order = draw(st.integers(1, 12))
    coeffs = draw(st.lists(_fractions, min_size=order, max_size=order))
    value = rat(0)
    for power, c in enumerate(coeffs):
        value = value + cyclo(order, power) * rat(c)
    return value, order * draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(_promotions())
def test_promotion_keeps_value_and_hash(case):
    value, target = case
    promoted = value.to_order(target)
    assert promoted.order == target
    assert promoted == value
    assert hash(promoted) == hash(value)


@settings(deadline=None)
@given(_fractions)
def test_rationals_hash_like_fractions(q):
    assert hash(rat(q)) == hash(q)
    assert hash(rat(q).to_order(12)) == hash(q)


def test_equal_values_share_a_dict_key():
    assert hash(rat(3)) == hash(3)
    assert {cyclo(3, 1): 1}[cyclo(6, 2)] == 1
    assert {rat(-1): "minus one"}[cyclo(2)] == "minus one"
    assert len({cyclo(4), cyclo(12, 3), cyclo(4).to_order(8)}) == 1
