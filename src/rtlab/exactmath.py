"""Exact integer/rational helpers shared across modules.

Everything here is float-free: comparisons against irrational quantities
(square roots, cube roots, Euler's number) are decided either by integer
cross-powering or by certified rational intervals that are refined until
the comparison separates.  Natural logarithms are certified integer
bounds on a 2^-prec grid from an atanh series summed in fixed point;
`cmp_value_rpow` compares them as integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# Certified enclosure of Euler's number, pinned once; powers of it are
# derived by interval powering so guards can always take the safe side.
EULER_LO = Fraction(2718281828458, 10**12)
EULER_HI = Fraction(2718281828460, 10**12)


def falling_factorial(r: int, j: int) -> int:
    """r (r-1) ... (r-j+1); zero as soon as the factors hit zero."""
    out = 1
    for i in range(j):
        out *= r - i
        if out == 0:
            return 0
    return out


def stirling2_row(m: int) -> list:
    """Stirling numbers of the second kind S(m, j) for j = 0..m."""
    row = [1] + [0] * m
    for i in range(1, m + 1):
        new = [0] * (m + 1)
        for j in range(1, i + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row


def _set_partitions(q: int) -> list:
    """(mu, blocks) for every set partition of {0..q-1}; blocks are bitmasks
    and mu = prod over blocks B of (-1)^(|B|-1) (|B|-1)! is the Moebius
    value mu(0, pi) on the partition lattice."""
    if q == 0:
        return [(1, ())]
    bit = 1 << (q - 1)
    out = []
    for mu, part in _set_partitions(q - 1):
        for i, block in enumerate(part):  # a block of size s grows: mu *= -s
            out.append((-mu * block.bit_count(), part[:i] + (block | bit,) + part[i + 1 :]))
        out.append((mu, part + (bit,)))
    return out


# SET_PARTITIONS[q] holds the (mu, blocks) rows for q <= 6 items; 203 at q = 6.
SET_PARTITIONS = tuple(tuple(_set_partitions(q)) for q in range(7))


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, exact (Newton on big ints)."""
    if x < 0 or n <= 0:
        raise ValueError("integer_nth_root needs x >= 0, n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return isqrt(x)
    g = 1 << (x.bit_length() // n + 1)
    while True:
        t = ((n - 1) * g + x // g ** (n - 1)) // n
        if t >= g:
            break
        g = t
    while g ** n > x:
        g -= 1
    return g


def nth_root_interval(x: Fraction, n: int, digits: int) -> tuple:
    """Certified rational enclosure of x**(1/n) with width <= 2*10^-digits.

    Bounds are verified by integer powering only.
    """
    if x < 0:
        raise ValueError("nth_root_interval needs x >= 0")
    scale = 10 ** digits
    # floor(root(x) * scale) = floor(root(x * scale^n))
    num = x.numerator * scale ** n
    lo = Fraction(integer_nth_root(num // x.denominator, n), scale)
    hi = lo + Fraction(1, scale)
    return lo, hi


def sqrt_interval(x: Fraction, digits: int) -> tuple:
    return nth_root_interval(x, 2, digits)


def cbrt_interval(x: Fraction, digits: int) -> tuple:
    return nth_root_interval(x, 3, digits)


# ---------------------------------------------------------------------------
# Interval arithmetic on (lo, hi) Fraction pairs.  All users keep their
# quantities nonnegative, which keeps multiplication/division monotone.

def iv_exact(x) -> tuple:
    f = Fraction(x)
    return f, f


def iv_mul(a: tuple, b: tuple) -> tuple:
    if a[0] < 0 or b[0] < 0:
        raise ValueError("iv_mul expects nonnegative intervals")
    return a[0] * b[0], a[1] * b[1]


def iv_div(a: tuple, b: tuple) -> tuple:
    if a[0] < 0 or b[0] <= 0:
        raise ValueError("iv_div expects nonnegative / strictly positive")
    return a[0] / b[1], a[1] / b[0]


# ---------------------------------------------------------------------------
# Certified natural logarithm in integer fixed point: ln(x) = k ln 2 +
# 2 atanh((y-1)/(y+1)) with y = x / 2^k in [1, 2) and ln 2 = 2 atanh(1/3).
# Every series term is rounded down for the lower sum and up for the upper
# sum, and the upper sum carries an explicit geometric tail bound.

_GUARD_BITS = 16


def _atanh_fixed(a: int, b: int, prec: int) -> tuple:
    """Integers lo <= 2^prec atanh(a/b) <= hi for 0 <= a/b <= 1/3."""
    if not 0 <= 3 * a <= b:
        raise ValueError("series only certified for 0 <= a/b <= 1/3")
    one = 1 << prec
    z2_lo = a * a * one // (b * b)
    z2_hi = -(-a * a * one // (b * b))
    p_lo = a * one // b  # 2^prec z^d, rounded down and up
    p_hi = -(-a * one // b)
    lo = hi = 0
    d = 1
    while p_hi > 1:
        lo += p_lo // d
        hi -= -p_hi // d
        p_lo = p_lo * z2_lo >> prec
        p_hi = -(-p_hi * z2_hi >> prec)
        d += 2
    # the terms from z^d on sum to at most z^d / (d (1 - z^2)) <= 9 z^d / (8 d)
    return lo, hi - (-9 * p_hi // (8 * d))


def _ln_fixed(num: int, den: int, prec: int) -> tuple:
    """Integers lo <= 2^prec ln(num/den) <= hi for num >= den >= 1."""
    k = (num // den).bit_length() - 1
    d = den << k
    lo, hi = _atanh_fixed(num - d, num + d, prec)
    # ln 2 carries k.bit_length() extra bits so k ln 2 is as tight as the rest
    s = k.bit_length()
    l2_lo, l2_hi = _atanh_fixed(1, 3, prec + s)
    return 2 * lo + (2 * k * l2_lo >> s), 2 * hi - (-2 * k * l2_hi >> s)


def ln_interval(x: Fraction, bits: int = 192) -> tuple:
    """Certified enclosure of ln(x) for rational x > 0, width ~2^-bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln_interval needs x > 0")
    if x < 1:
        lo, hi = ln_interval(1 / x, bits)
        return -hi, -lo
    prec = bits + _GUARD_BITS
    lo, hi = _ln_fixed(x.numerator, x.denominator, prec)
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


# ---------------------------------------------------------------------------
# Comparisons against rational powers, value vs base^(num/den), decided
# exactly: bit-length filters for wide gaps, unique-factorization for exact
# ties, certified logarithms for everything else, and literal integer
# cross-powering as the last resort when the exponents are small enough.

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

_POWERING_BIT_LIMIT = 5 * 10 ** 7


def _factor_smooth(x: int) -> tuple:
    """Factor over primes <= 61; returns (exponent dict, cofactor)."""
    f = {}
    for p in _SMALL_PRIMES:
        while x % p == 0:
            f[p] = f.get(p, 0) + 1
            x //= p
    return f, x


def cmp_value_rpow(value: int, base: int, exp_num: int, exp_den: int) -> int:
    """Sign of value - base**(exp_num/exp_den) for value >= 1, base >= 2,
    exp_num >= 0, exp_den >= 1.  Exact: never returns a wrong sign."""
    if value < 1 or base < 2 or exp_num < 0 or exp_den < 1:
        raise ValueError("cmp_value_rpow domain error")
    g = gcd(exp_num, exp_den)
    exp_num //= g
    exp_den //= g
    if exp_num == 0:
        return 0 if value == 1 else 1
    if value == 1:
        return -1
    vb = value.bit_length()
    bb = base.bit_length()
    if vb * exp_den <= exp_num * (bb - 1):
        return -1  # value < 2^vb <= base^(num/den)
    if (vb - 1) * exp_den >= exp_num * bb:
        return 1  # value >= 2^(vb-1) > base^(num/den)
    fv, cv = _factor_smooth(value)
    fb, cb = _factor_smooth(base)
    if cv == 1 and cb == 1:
        if all(
            fv.get(p, 0) * exp_den == fb.get(p, 0) * exp_num
            for p in set(fv) | set(fb)
        ):
            return 0  # value^den == base^num exactly
    for bits in (160, 320, 640, 1280, 2560):
        lv = _ln_fixed(value, 1, bits + _GUARD_BITS)
        lb = _ln_fixed(base, 1, bits + _GUARD_BITS)
        if exp_den * lv[1] < exp_num * lb[0]:
            return -1
        if exp_den * lv[0] > exp_num * lb[1]:
            return 1
    if vb * exp_den <= _POWERING_BIT_LIMIT and bb * exp_num <= _POWERING_BIT_LIMIT:
        lhs = value ** exp_den
        rhs = base ** exp_num
        return (lhs > rhs) - (lhs < rhs)
    raise RuntimeError(
        f"comparison of {value} vs {base}^({exp_num}/{exp_den}) undecided"
    )
