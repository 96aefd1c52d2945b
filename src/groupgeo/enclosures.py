"""The 12-digit decimal of a cyclotomic value that is not rational, from
exact fixed-point enclosures of its parts, all in integers.  reporting
imports it on the first such scalar, so a report that is all rational
never compiles it."""

from __future__ import annotations

import functools

from .cyclotomic import cyclo
from .reporting import rational_decimal

# the bits of the fixed-point roots of unity a cyclotomic decimal is first
# summed from; a part they leave undecided is summed again at twice as many
_FIXED = 256


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
    return [(rational_decimal(part - radius, den), rational_decimal(part + radius, den))
            for part in (re, im)]


def cyclotomic_decimal(c) -> str:
    """c's real and imaginary parts, each rounded half up to 12 significant
    digits (reporting.rational_decimal), read off exact enclosures.

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
                lo = hi = rational_decimal(twice.nums[0], 2 * twice.den)
        bits = _FIXED
        while lo != hi:
            bits *= 2
            lo, hi = _enclosure_decimals(c, bits)[k]
        parts.append(lo)
    return f"{parts[0]} + {parts[1]}i"
