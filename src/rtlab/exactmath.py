"""Exact integer/rational helpers shared across modules.

Everything here is float-free: comparisons against irrational quantities
(square roots, cube roots, Euler's number) are decided either by integer
cross-powering or by certified rational intervals that are refined until
the comparison separates.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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


def iv_add(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], a[1] + b[1]


def iv_mul(a: tuple, b: tuple) -> tuple:
    if a[0] < 0 or b[0] < 0:
        raise ValueError("iv_mul expects nonnegative intervals")
    return a[0] * b[0], a[1] * b[1]


def iv_div(a: tuple, b: tuple) -> tuple:
    if a[0] < 0 or b[0] <= 0:
        raise ValueError("iv_div expects nonnegative / strictly positive")
    return a[0] / b[1], a[1] / b[0]


def iv_pow(a: tuple, k: int) -> tuple:
    if a[0] < 0:
        raise ValueError("iv_pow expects a nonnegative interval")
    return a[0] ** k, a[1] ** k


def iv_le(a: tuple, b: tuple):
    if a[1] <= b[0]:
        return True
    if a[0] > b[1]:
        return False
    return None


# ---------------------------------------------------------------------------
# Certified natural logarithm via ln(x) = 2 atanh((x-1)/(x+1)) with an
# explicit tail bound; arguments are range-reduced to [1, 2) by powers of
# two, and the reduced argument is rounded onto a dyadic grid (directed)
# so series denominators stay small at high precision.

_LN2_CACHE = {}


def _atanh_interval(z: Fraction, terms: int) -> tuple:
    """Enclosure of atanh(z) for 0 <= z <= 1/2 via the odd power series."""
    if not 0 <= z <= Fraction(1, 2):
        raise ValueError("series only certified for 0 <= z <= 1/2")
    total = Fraction(0)
    zp = z
    z2 = z * z
    for i in range(terms):
        total += zp / (2 * i + 1)
        zp *= z2
    # remaining terms are bounded by a geometric series
    tail = zp / ((2 * terms + 1) * (1 - z2)) if z else Fraction(0)
    return total, total + tail


def _ln2_interval(terms: int) -> tuple:
    if terms not in _LN2_CACHE:
        lo, hi = _atanh_interval(Fraction(1, 3), terms)
        _LN2_CACHE[terms] = (2 * lo, 2 * hi)
    return _LN2_CACHE[terms]


def _round_fraction(x: Fraction, bits: int, up: bool) -> Fraction:
    """Directed rounding onto a 2^-bits grid to keep denominators small."""
    scaled = x * (1 << bits)
    n = scaled.numerator // scaled.denominator
    if up and n * scaled.denominator != scaled.numerator:
        n += 1
    return Fraction(n, 1 << bits)


def ln_interval(x: Fraction, bits: int = 192) -> tuple:
    """Certified enclosure of ln(x) for rational x > 0, width ~2^-bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln_interval needs x > 0")
    if x < 1:
        lo, hi = ln_interval(1 / x, bits)
        return -hi, -lo
    terms = bits // 3 + 4  # series gains ~3 bits per term at z <= 1/3
    k = (x.numerator // x.denominator).bit_length() - 1
    y = x / (1 << k)  # y in [1, 2)
    z = (y - 1) / (y + 1)  # z in [0, 1/3]
    z_lo = _round_fraction(z, bits, up=False)
    z_hi = _round_fraction(z, bits, up=True)
    a_lo = _atanh_interval(z_lo, terms)[0]
    a_hi = _atanh_interval(z_hi, terms)[1]
    l2_lo, l2_hi = _ln2_interval(terms)
    return k * l2_lo + 2 * a_lo, k * l2_hi + 2 * a_hi


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
    from math import gcd

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
        lv = ln_interval(Fraction(value), bits)
        lb = ln_interval(Fraction(base), bits)
        left = (exp_den * lv[0], exp_den * lv[1])
        right = (exp_num * lb[0], exp_num * lb[1])
        if left[1] < right[0]:
            return -1
        if left[0] > right[1]:
            return 1
    if vb * exp_den <= _POWERING_BIT_LIMIT and bb * exp_num <= _POWERING_BIT_LIMIT:
        lhs = value ** exp_den
        rhs = base ** exp_num
        return (lhs > rhs) - (lhs < rhs)
    raise RuntimeError(
        f"comparison of {value} vs {base}^({exp_num}/{exp_den}) undecided"
    )
