import functools
import random
from fractions import Fraction

import pytest

from rtlab.exactmath import cmp_value_rpow, integer_nth_root, ln_interval


# ---------------------------------------------------------------------------
# Independent oracle: the exact Fraction atanh series with a geometric tail
# bound, z rounded (directed) onto a 2^-bits grid.  It is slow (about 50 ms
# per logarithm at 192 bits and 17 s at 640 bits), so it only lives here.


def _oracle_atanh(z: Fraction, terms: int) -> tuple:
    total = Fraction(0)
    zp = z
    z2 = z * z
    for i in range(terms):
        total += zp / (2 * i + 1)
        zp *= z2
    tail = zp / ((2 * terms + 1) * (1 - z2)) if z else Fraction(0)
    return total, total + tail


def _oracle_round(x: Fraction, bits: int, up: bool) -> Fraction:
    scaled = x * (1 << bits)
    n = scaled.numerator // scaled.denominator
    if up and n * scaled.denominator != scaled.numerator:
        n += 1
    return Fraction(n, 1 << bits)


def oracle_ln_interval(x: Fraction, bits: int) -> tuple:
    if x < 1:
        lo, hi = oracle_ln_interval(1 / x, bits)
        return -hi, -lo
    terms = bits // 3 + 4
    k = (x.numerator // x.denominator).bit_length() - 1
    y = x / (1 << k)
    z = (y - 1) / (y + 1)
    a_lo = _oracle_atanh(_oracle_round(z, bits, up=False), terms)[0]
    a_hi = _oracle_atanh(_oracle_round(z, bits, up=True), terms)[1]
    l2_lo, l2_hi = _oracle_atanh(Fraction(1, 3), terms)
    return 2 * k * l2_lo + 2 * a_lo, 2 * k * l2_hi + 2 * a_hi


def _seeded_arguments():
    rng = random.Random(0x1A2)
    xs = [
        Fraction(1),
        Fraction(2),
        Fraction(1, 2),
        Fraction(1 << 200),
        Fraction(1, 1 << 77),
        Fraction(12),
        Fraction(12 ** 41),
        Fraction(3, 2),
        Fraction(2 ** 64 - 1, 2 ** 63),  # just below a power of two
        Fraction(10 ** 300 + 1, 10 ** 300),  # a hair above 1
        Fraction(10 ** 300, 10 ** 300 + 1),  # a hair below 1
    ]
    for _ in range(5):
        num = rng.getrandbits(rng.randint(1, 2000)) + 1
        den = rng.getrandbits(rng.randint(1, 2000)) + 1
        xs.append(Fraction(num, den))
    return xs


ARGUMENTS = _seeded_arguments()


@functools.lru_cache(maxsize=None)
def _oracle(x, bits):
    # 640-bit oracle enclosures take 17 s each; a 192-bit one must still
    # intersect any correct enclosure
    return oracle_ln_interval(x, min(bits, 192))


@pytest.mark.parametrize("bits", [160, 192, 640])
def test_ln_interval_agrees_with_fraction_oracle(bits):
    for x in ARGUMENTS:
        lo, hi = ln_interval(x, bits)
        o_lo, o_hi = _oracle(x, bits)
        assert lo <= hi
        assert lo <= o_hi and o_lo <= hi, x  # both enclose ln x
        assert hi - lo < Fraction(1, 1 << (bits - 10)), x


@pytest.mark.parametrize("bits", [160, 192, 640])
def test_ln_interval_contains_mpmath_value(bits):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(bits + 64):
        for x in ARGUMENTS:
            lo, hi = ln_interval(x, bits)
            v = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
            eps = mpmath.mpf(2) ** -(bits + 40)  # mpmath's own rounding
            assert mpmath.mpf(lo.numerator) / lo.denominator <= v + eps, x
            assert v - eps <= mpmath.mpf(hi.numerator) / hi.denominator, x


def test_ln_interval_exact_points_and_reflection():
    assert ln_interval(Fraction(1)) == (0, 0)
    lo, hi = ln_interval(Fraction(12), 192)
    assert ln_interval(Fraction(1, 12), 192) == (-hi, -lo)
    with pytest.raises(ValueError):
        ln_interval(Fraction(0))
    with pytest.raises(ValueError):
        ln_interval(Fraction(-3, 2))


def test_cmp_value_rpow_where_bit_lengths_do_not_decide():
    # values next to base^(num/den), where the bit-length filter is silent
    # and the comparison falls to the certified logarithms
    rng = random.Random(0xC0FFEE)
    undecided = 0
    for _ in range(600):
        base = rng.randint(2, 64)
        num = rng.randint(1, 300)
        den = rng.randint(1, 200)
        root = integer_nth_root(base ** num, den)
        value = max(1, root + rng.randint(-2, 2))
        vb, bb = value.bit_length(), base.bit_length()
        if vb * den <= num * (bb - 1) or (vb - 1) * den >= num * bb:
            continue
        undecided += 1
        lhs, rhs = value ** den, base ** num
        assert cmp_value_rpow(value, base, num, den) == (lhs > rhs) - (lhs < rhs)
    assert undecided > 300
