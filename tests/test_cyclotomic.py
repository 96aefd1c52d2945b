"""Exact cyclotomic arithmetic, cross-checked against complex floats and
against the Fraction-tuple scalar in the oracles; the direct subtraction
and the fused kernels against the operators they stand for."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from groupgeo.cyclotomic import Cyclotomic, cyclo, cyclotomic_polynomial, dot, rat
from oracles import (FractionCyclotomic, coordinates, cyclotomic, fraction,
                     fraction_cyclotomic_polynomial, to_complex)


def test_reduction_machinery_sanity():
    assert math.prod([cyclo(6, 1)] * 6, start=rat(1)) == 1
    assert cyclo(6, 3) == -1
    assert (cyclo(6, 1) + cyclo(6, 5)).is_rational()
    assert hash(cyclo(3, 1)) == hash(cyclo(6, 2))


def test_sixth_root_basics():
    w = cyclo(6)
    assert math.prod([w] * 6, start=rat(1)) == rat(1)
    assert w * w * w == rat(-1)
    # z6 + z6^-1 = 2 cos(pi/3) = 1
    assert w + cyclo(6, 5) == rat(1)
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
            acc = acc + cyclo(order, k) * rat(c)
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
    assert cyclo(12) * cyclo(12) == cyclo(6)


def test_rationality_detection():
    assert rat(5, 3).is_rational()
    assert (rat(5, 3).nums, rat(5, 3).den) == ((5,), 3)
    assert rat(5, 3) == Fraction(5, 3)
    assert (cyclo(6) + cyclo(6, 5)).is_rational()
    assert cyclo(6) + cyclo(6, 5) == 1
    assert not cyclo(6).is_rational()
    # only rationals are ordered
    with pytest.raises(TypeError):
        cyclo(6) < rat(0)


def test_rat_reads_ints_fractions_and_quotients_only():
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    assert (rat(-6, 4).nums, rat(-6, 4).den) == ((-3,), 2)
    assert rat(3, -6) == Fraction(-1, 2) and rat(Fraction(3), 6) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)
    for value in ("1/3", 0.5, 1j, None):
        with pytest.raises(TypeError):
            rat(value)


def test_mixed_order_arithmetic_promotes():
    z = cyclo(4) + cyclo(6)
    assert isinstance(z, Cyclotomic)
    assert z - cyclo(6) == cyclo(4)
    assert z.order == 12


def test_negative_powers_are_inverses():
    for order, k in ((6, 1), (6, 5), (12, 7), (3, 2)):
        z = cyclo(order, k)
        assert z.inverse() == cyclo(order, -k)
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
        zc = to_complex(z)
        assert abs(to_complex(z.conj()) - zc.conjugate()) < 1e-12
        # z * conj(z) = |z|^2 lands in the real subfield: fixed by conj
        norm = z * z.conj()
        assert norm.conj() == norm
        assert abs(to_complex(norm).imag) < 1e-12
        assert to_complex(norm).real >= -1e-12


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
        fa, fb = to_complex(a), to_complex(b)
        assert abs(to_complex(a + b) - (fa + fb)) < 1e-9
        assert abs(to_complex(a - b) - (fa - fb)) < 1e-9
        assert abs(to_complex(a * b) - (fa * fb)) < 1e-9
        if not b.is_zero():
            assert abs(to_complex(a / b) - (fa / fb)) < 1e-9
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
# a denominator the hash prime divides, and a numerator it divides
@example(Fraction(1, sys.hash_info.modulus))
@example(Fraction(-sys.hash_info.modulus, 7))
def test_rationals_hash_like_fractions(q):
    assert hash(rat(q)) == hash(q)
    assert hash(rat(q).to_order(12)) == hash(q)


def test_equal_values_share_a_dict_key():
    assert hash(rat(3)) == hash(3)
    assert {cyclo(3, 1): 1}[cyclo(6, 2)] == 1
    assert {rat(-1): "minus one"}[cyclo(2)] == "minus one"
    assert len({cyclo(4), cyclo(12, 3), cyclo(4).to_order(8)}) == 1


# -- against the Fraction-tuple oracle ----------------------------------------

_ORDERS = (1, 3, 4, 6, 12)


@st.composite
def _pairs(draw, orders=_ORDERS):
    """The same element as a Cyclotomic and as the oracle scalar: now and
    then a rational of order > 1, whose order a product must not take."""
    order = draw(st.sampled_from(orders))
    degree = len(fraction_cyclotomic_polynomial(order)) - 1
    coeffs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           min_size=degree, max_size=degree))
    if draw(st.integers(0, 3)) == 0:
        coeffs[1:] = [0] * (degree - 1)
    return cyclotomic(order, coeffs), FractionCyclotomic(order, coeffs)


def _same(value, oracle):
    """Same order, same coordinates, and the reduced integer form."""
    assert isinstance(value, Cyclotomic)
    assert (value.order, coordinates(value)) == (oracle.order, oracle.coeffs)
    assert value.den > 0 and math.gcd(value.den, *value.nums) == 1


@settings(max_examples=150, deadline=None)
@given(_pairs(), _pairs(), _pairs())
def test_ring_operations_match_the_fraction_oracle(x, y, z):
    (a, oa), (b, ob), (c, _) = x, y, z
    _same(a + b, oa + ob)
    _same(a - b, oa - ob)
    _same(-a, -oa)
    _same(a * b, oa * ob)
    _same(a.conj(), oa.conj())
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    if not ob.is_zero():
        _same(b.inverse(), ob.inverse())
        _same(a / b, oa / ob)
        assert (a / b) * b == a
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


@settings(max_examples=150, deadline=None)
@given(_pairs(), _pairs(), st.integers(1, 3))
def test_views_equality_and_hash_match_the_fraction_oracle(x, y, k):
    (a, oa), (b, ob) = x, y
    _same(a, oa)
    assert (a == b) == (oa == ob)
    assert hash(a) == hash(oa)
    assert a.is_rational() == oa.is_rational()
    assert a.is_zero() == oa.is_zero() == (not a)
    if oa.is_rational():
        assert fraction(a) == oa.as_fraction()
        assert hash(a) == hash(oa.as_fraction())
        if ob.is_rational():
            assert (a < b) == (oa.as_fraction() < ob.as_fraction())
    else:
        with pytest.raises(TypeError):
            a < b
    promoted = a.to_order(a.order * k)
    _same(promoted, oa.to_order(a.order * k))
    assert promoted == a and hash(promoted) == hash(a)


@settings(max_examples=50, deadline=None)
@given(_pairs(orders=(6,)), _pairs(orders=(1,)), st.integers(-3, 3))
def test_integer_and_fraction_operands_match_the_oracle(x, q, n):
    (a, oa), (r, _) = x, q
    f = fraction(r)
    _same(a + n, oa + n)
    _same(n - a, FractionCyclotomic.of(n) - oa)
    _same(a * f, oa * f)
    assert a == a + 0 and (r == f) and (rat(n) == n)


# -- direct subtraction and the fused kernels against composed operators -----

_small_ints = st.integers(-4, 4)


def _elements():
    """Elements of order 1, 3, 4, 6 or 12, zeros, negatives and rationals
    of order > 1 included."""
    return _pairs().map(lambda pair: pair[0])


def _exactly(value, composed):
    """Same order and reduced form as the composed result, hence the same
    hash; the form is reduced with a positive denominator."""
    assert isinstance(value, Cyclotomic)
    assert (value.order, value.nums, value.den) == (composed.order, composed.nums, composed.den)
    assert value.den > 0 and math.gcd(value.den, *value.nums) == 1
    assert hash(value) == hash(composed)


@settings(max_examples=120, deadline=None)
@given(_elements(), _elements(), st.one_of(_small_ints, _fractions))
def test_subtraction_is_adding_the_negation(a, b, q):
    _exactly(a - b, a + (-b))
    _exactly(a - a, a + (-a))
    _exactly(a - q, a + (-rat(q)))
    _exactly(q - a, rat(q) + (-a))


def _skipping_dot(xs, ys):
    """The sum of products over the nonzero pairs, one addition at a time."""
    total = rat(0)
    for x, y in zip(xs, ys):
        if x and y:
            total = total + x * y
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_elements(), _elements()), max_size=6))
def test_dot_is_the_sum_of_products(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = dot(xs, ys)
    _exactly(got, _skipping_dot(xs, ys))
    plain = sum((x * y for x, y in pairs), rat(0))
    assert got == plain and hash(got) == hash(plain)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_small_ints, st.integers(1, 6), _small_ints, st.integers(1, 6)),
                max_size=12))
def test_dot_of_rationals_matches_fractions(terms):
    xs = [rat(n, d) for n, d, _, _ in terms]
    ys = [rat(n, d) for _, _, n, d in terms]
    got = dot(xs, ys)
    assert got.order == 1
    assert fraction(got) == sum((Fraction(a, b) * Fraction(c, d) for a, b, c, d in terms),
                                    Fraction(0))
    _exactly(got, _skipping_dot(xs, ys))
