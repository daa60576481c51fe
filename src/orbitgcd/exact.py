"""Exact arithmetic over the rationals: prime factorization (its primes
proven below psi_13 ~ 3.3e24, BPSW-probable at or above), p-adic
valuations, logarithms in fixed point, and the local size functions v+.
The heights are built from :func:`log_fixed` and :func:`valuation`
directly; v+ is the definition the tests check hgcd against.

Conventions
-----------
All rationals are ``fractions.Fraction`` values (always in lowest terms,
positive denominator).  A place of Q is either a finite place, indexed by
a prime p, or the archimedean place.  The local size of a nonzero rational
x at a finite place is

    v_plus(p, x) = max(0, v_p(x)) * log p,

i.e. it is large exactly when x is p-adically small (divisible by a high
power of p), and zero when p divides the denominator.  At the archimedean
place it is max(0, -log|x|).  Summing min(v_plus(a), v_plus(b)) over the
finite places of two integers recovers log gcd(|a|, |b|) exactly, which is
the identity the symbolic :class:`LogValue` type exists to make testable.

:func:`log_fixed` is the one transcendental function: every real result is
a log of an integer or a rational sum of such logs, taken in plain ints in
units of 2^-prec, the fixed point heights compute in, and returned as an
exact :class:`Real`, a Fraction m / 2^k that ``float()`` rounds once.

Products, gcds and divisions that can reach orbit size go through
:func:`int_mul`, :func:`int_gcd` and :func:`int_divmod`, which hand
operands of at least 2^14 bits to the system GMP (``_gmp``, bound through
ctypes on first use) and keep ``*``, ``math.gcd`` and ``divmod`` below
that size or where no libgmp loads; the value is the same either way.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from . import _gmp
from .errors import DomainError, PartialFactorizationError

ARCH_PREC = 128                   # bits carried by archimedean parts
# total rho iterations allowed per factor() call; rho finds every prime
# factor above 2^10, a prime p in about sqrt(p) iterations
DEFAULT_FACTOR_BUDGET = 1 << 22

# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases (Jaeschke 1993 to k = 8; Sorenson and Webster 2017
# for k = 9..13): below psi_k, Miller-Rabin on those k bases is a proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


# Both operands need this many bits before a gcd, a product or a division
# goes to GMP.  math.gcd is quadratic (Lehmer) and CPython multiplies by
# Karatsuba; GMP, ctypes calls and int copies included, overtakes both near
# 6,000 bits and at 2^14 bits takes 0.31 against 0.63 ms per gcd, 0.06
# against 0.15 ms per square and 0.08 against 0.21 ms per product; at 10^6
# bits it squares in 6.4 against 99 ms (2-core Xeon VM, Python 3.11, GMP
# 6.2).  CPython's division costs the product of the quotient's and the
# divisor's lengths: by a 2^14-bit divisor GMP divides a 2^15-bit int in
# 0.09 against 0.48 ms, and loses only on quotients of a few words, by at
# most 0.06 ms up to 2^17 bits
_GMP_BITS = 1 << 14


def int_gcd(x: int, y: int) -> int:
    """gcd(x, y) of two ints, always equal to ``math.gcd(x, y)``: by the
    system GMP when both have at least 2^14 bits and libgmp loads, by
    ``math.gcd`` otherwise.

    >>> int_gcd(-12, 18)
    6
    """
    if min(x.bit_length(), y.bit_length()) >= _GMP_BITS:
        g = _gmp.gcd(abs(x), abs(y))
        if g is not None:
            return g
    return math.gcd(x, y)


def int_mul(x: int, y: int) -> int:
    """x * y of two ints, always equal to ``x * y``: by the system GMP when
    both have at least 2^14 bits and libgmp loads (squaring when ``y is
    x``), by ``*`` otherwise.

    >>> int_mul(-12, 18)
    -216
    """
    if min(x.bit_length(), y.bit_length()) >= _GMP_BITS:
        ax = abs(x)
        p = _gmp.mul(ax, ax if y is x else abs(y))
        if p is not None:
            return -p if (x < 0) != (y < 0) else p
    return x * y


def int_divmod(x: int, y: int) -> tuple[int, int]:
    """divmod(x, y) of two ints, always equal to ``divmod(x, y)``, floor
    and signs included: by the system GMP when both have at least 2^14
    bits and libgmp loads, by ``divmod`` otherwise.

    >>> int_divmod(-7, 2)
    (-4, 1)
    """
    if min(x.bit_length(), y.bit_length()) >= _GMP_BITS:
        qr = _gmp.divmod(abs(x), abs(y))
        if qr is not None:
            q, r = qr
            # |x| = q |y| + r truncates; floor rounds a mixed-sign quotient down
            if (x < 0) != (y < 0):
                q = -q
                if r:
                    q, r = q - 1, abs(y) - r
            return q, -r if y < 0 else r
    return divmod(x, y)


def small_primes(limit: int) -> list[int]:
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    size = max(limit, 2)
    flags = bytearray([1]) * size
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(size - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes((size - 1 - i * i) // i + 1)
    return list(compress(range(limit), flags))


# factor trial-divides by the primes below 2^10 and leaves larger ones to
# rho, which finds p in about sqrt(p) iterations where trial division pays
# ~0.4 us per prime below p.  Mean factor(p * q), q a 40-bit prime, for p
# in 2^8-2^10 / 2^12-2^14 / 2^16-2^18: 205 / 289 / 670 us with primes
# below 2^8, 98 / 324 / 720 below 2^10, 100 / 416 / 790 below 2^12 and
# 102 / 307 / 1596 below 2^16; 16-20 us at each on desk-batch's hgcd shape
# (2-core Xeon VM, Python 3.11).  2^10 has the flattest worst case.
_TRIAL_PRIMES = tuple(small_primes(1 << 10))


def _mr_witness(a: int, n: int) -> bool:
    # True if a proves n composite.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _strong_lucas_prp(n: int) -> bool:
    # Strong Lucas probable-prime test with Selfridge parameters.
    if n % 2 == 0 or n < 3:
        return n == 2
    s = math.isqrt(n)
    if s * s == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
    d, r = n + 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Lucas sequence by binary ladder on (U, V, Q^k).
    U, V, qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Certified primality below psi_13 ~ 3.3e24, BPSW at or above it.

    Below psi_k, the least odd composite that passes strong Miller-Rabin
    to each of the first k prime bases (Jaeschke, Math. Comp. 61, 1993;
    Sorenson and Webster, Math. Comp. 86, 2017), those k bases decide n:
    1 base below 2047, 4 below 3215031751, ..., 12 below psi_12 =
    318665857834031151167461, 13 (2..41) below psi_13 =
    3317044064679887385961981.  At or above psi_13 it is BPSW: Miller-Rabin
    to base 2, then a strong Lucas test with Selfridge's parameters (Baillie
    and Wagstaff, Math. Comp. 35, 1980), which has no known counterexample;
    further bases would prove nothing there.

    >>> is_prime(2**89 - 1), is_prime(318665857834031151167461)
    (True, False)
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _PSI[-1]:
        return not _mr_witness(2, n) and _strong_lucas_prp(n)
    return not any(_mr_witness(a, n) for a in _MR_BASES[:bisect_right(_PSI, n) + 1])


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


# --- factorization ---


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) with primes strictly increasing; reconstructs the
    input exactly."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)


def _pollard_brent(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Return (factor, iterations_used) for an odd composite n; factor == n
    signals failure."""
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1 and used < budget:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
    return n, used


def _iroot(n: int, k: int) -> int:
    # floor k-th root by Newton iteration
    if n < 2:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(root, exponent) with root**exponent == n, exponent prime (or 1).

    A prime exponent suffices: the caller re-examines the root, so nested
    powers unwind one prime at a time."""
    for k in small_primes(n.bit_length() + 1):
        r = _iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    return n, 1


def factor(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Prime factorization of a nonzero integer, its primes proven below
    psi_13 ~ 3.3e24 and BPSW-probable at or above.

    Trial division by the primes below 2^10 up to sqrt|n|, stopping early
    once the cofactor is prime: from 37 on, :func:`is_prime` tests it
    after each prime divided out (every smaller prime is out by then, so
    the factors are the ones full trial division finds).  A composite
    cofactor, all of whose primes exceed 2^10, goes to Brent's variant of
    Pollard rho (BIT 20, 1980) with a deterministic seed.  Every reported
    prime passes :func:`is_prime`: Miller-Rabin on the first k prime bases
    below psi_k (Jaeschke 1993; Sorenson and Webster 2017), a proof below
    psi_13 ~ 3.3e24, and BPSW (Baillie and Wagstaff 1980) at or above it.
    If the rho budget runs out a :class:`PartialFactorizationError` is
    raised carrying the primes found so far; composites are never silently
    reported.

    >>> factor(15624).factors
    ((2, 3), (3, 2), (7, 1), (31, 1))
    """
    if n == 0:
        raise DomainError("factor(0) is undefined")
    sign = 1 if n > 0 else -1
    m = abs(n)
    found: dict[int, int] = {}
    rejected = 0                      # the last cofactor is_prime turned down
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
        if p >= 37 and m != rejected:
            if is_prime(m):
                break
            rejected = m
    # m is 1, the composite is_prime rejected, or prime: is_prime said so,
    # or trial division passed its square root
    if m > 1 and m != rejected:
        found[m] = 1
        m = 1
    stack = [m] if m > 1 else []
    rng = random.Random(0xC0FFEE) if stack else None
    remaining = budget
    while stack:
        c = stack.pop()
        if c != rejected and is_prime(c):
            found[c] = found.get(c, 0) + 1
            continue
        root, exp = _perfect_power(c)
        if exp > 1:
            stack.extend([root] * exp)
            continue
        g, used = _pollard_brent(c, rng, remaining)
        remaining -= used
        if g == c or remaining <= 0:
            partial = Factorization(sign, tuple(sorted(found.items())))
            residue = c
            for other in stack:
                residue *= other
            raise PartialFactorizationError(
                f"factoring budget exhausted with composite cofactor of "
                f"{residue.bit_length()} bits",
                partial=partial,
                cofactor=residue,
            )
        stack.append(g)
        stack.append(c // g)
    return Factorization(sign, tuple(sorted(found.items())))


# --- places and valuations ---


@dataclass(frozen=True)
class Place:
    """A place of Q: ``Place.finite(p)`` for a prime p, ``Place.arch()``
    for the archimedean place.  Finite places always carry a verified prime."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise DomainError(f"{self.prime} is not prime")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def arch(cls) -> "Place":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __repr__(self):
        return f"Place({self.prime})" if self.is_finite else "Place(oo)"


def valuation(p: int, x) -> int:
    """v_p(x) for nonzero rational x: exponent of p in the numerator minus
    exponent in the denominator.  An int x builds no Fraction.

    >>> valuation(5, Fraction(1, 25))
    -2
    """
    if p < 2:
        raise DomainError(f"valuation needs p >= 2, got {p}")
    num, den = (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()
    if num == 0:
        raise DomainError("valuation of 0 is +infinity; handle upstream")
    return _int_valuation(p, abs(num)) - _int_valuation(p, den)


def _int_valuation(p: int, n: int) -> int:
    # exponent of p in the positive int n
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# --- logarithms and exact real results ---


class Real(Fraction):
    """An exact real: a Fraction, m / 2^k for logs and heights, that mpmath converts."""

    __slots__ = ()

    def _mpmath_(self, prec, rounding):
        return Fraction(self)


def _atanh(s: int, wp: int) -> int:
    # atanh(s / 2^wp) in units of 2^-wp, 0 <= s <= 2^wp / 3: s + s^3/3 + ...
    s2, total, power, j = s * s >> wp, s, s, 1
    while power:
        power, j = power * s2 >> wp, j + 2
        total += power // j
    return total


@functools.lru_cache(maxsize=64)
def _ln2(wp: int) -> int:
    return 2 * _atanh((1 << wp) // 3, wp)         # log 2 = 2 atanh(1/3), in units of 2^-wp


def log_fixed(n: int, prec: int, shift: int = 0) -> int:
    """log(n * 2^shift) for a positive int n, in units of 2^-prec: the
    nearest int to log(n * 2^shift) * 2^prec, off by at most 1/2 + 2^-9."""
    # n 2^shift = m 2^e, 1 <= m < 2.  After k roots, x = m^(2^-k) and
    # s = (x-1)/(x+1) <= 2^-(k+1), log m = 2^(k+1) atanh(s).  In units of
    # 2^-wp, the cut of m and the k root floors move log m by < 2^(k+1);
    # the floor of s moves atanh(s) by < 9/8, and each of its T <= wp/2 + 2
    # truncated terms by < 5/2 (a power's error shrinks by s^2 <= 1/9 and
    # grows by < 4/3 a step), the tail by < 2; ln 2 = 2 atanh(1/3), with
    # T' <= wp/3 + 2 terms, is off by < 5T' + 5/2.  That sums to
    # < (2^(k+1) + |e|) 2 wp < 2^(X + 3 + wp.bit_length()) for X = max(k,
    # e.bit_length()), and wp - prec >= X + 12 + 2 base.bit_length() >=
    # X + 12 + wp.bit_length(), so the rounding is off by < 1/2 + 2^-9.
    if n <= 0:
        raise DomainError(f"log({n}) is undefined")
    e, k = n.bit_length() - 1 + shift, math.isqrt(prec) // 3  # a root costs ~6 terms
    base = prec + max(k, e.bit_length()) + 12
    wp = -(-(base + 2 * base.bit_length()) // 64) * 64   # 64 | wp: fewer ln 2s to cache
    m = (n << wp) >> (n.bit_length() - 1)
    for _ in range(k):
        m = math.isqrt(m << wp)
    one = 1 << wp
    y = (_atanh(((m - one) << wp) // (m + one), wp) << (k + 1)) + e * _ln2(wp)
    return (y + (1 << (wp - prec - 1))) >> (wp - prec)


def log_abs(x, den: int = 1) -> Real:
    """log|x / den| for a nonzero rational x and a positive integer den,
    in units of 2^-ARCH_PREC.  An int x with a den coprime to it is used
    as it stands, so callers holding a numerator and denominator in lowest
    terms build no Fraction; the result is the one they form.

    >>> float(log_abs(Fraction(-1, 8)))
    -2.0794415416798357
    >>> log_abs(-1, 8) == log_abs(Fraction(-1, 8))
    True
    """
    if not isinstance(x, int):
        x = Fraction(x) / den
        x, den = x.numerator, x.denominator
    if x == 0:
        raise DomainError("log|0| is -infinity; handle upstream")
    arch = log_fixed(abs(x), ARCH_PREC)
    if den != 1:    # log 1 is exactly 0
        arch -= log_fixed(den, ARCH_PREC)
    return Real(arch, 1 << ARCH_PREC)


@dataclass(frozen=True)
class LogValue:
    """A formal sum sum_p c_p * log p with exact rational coefficients,
    plus an exact rational archimedean term.

    The finite part never stores zero coefficients, so identities like
    Eq.-of-gcd decompositions can be asserted as dict equality with zero
    tolerance.  ``+``, ``-`` and :meth:`scale` are exact; only
    :meth:`total` takes logarithms, and rounds once to 2^-ARCH_PREC.
    """

    finite: dict[int, Fraction]
    arch: Real

    def __post_init__(self):
        cleaned = {p: Fraction(c) for p, c in self.finite.items() if c != 0}
        object.__setattr__(self, "finite", cleaned)
        object.__setattr__(self, "arch", Real(self.arch))

    @classmethod
    def from_finite(cls, coeffs: dict[int, int | Fraction]) -> "LogValue":
        return cls(coeffs, 0)

    def __add__(self, other: "LogValue") -> "LogValue":
        coeffs = dict(self.finite)
        for p, c in other.finite.items():
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return LogValue(coeffs, self.arch + other.arch)

    def __neg__(self) -> "LogValue":
        return LogValue({p: -c for p, c in self.finite.items()}, -self.arch)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def scale(self, k) -> "LogValue":
        k = Fraction(k)
        return LogValue({p: c * k for p, c in self.finite.items()}, self.arch * k)

    def total(self) -> Real:
        units = sum((c * log_fixed(p, ARCH_PREC) for p, c in self.finite.items()),
                    self.arch * (1 << ARCH_PREC))
        return Real(round(units), 1 << ARCH_PREC)


def v_plus(place: Place, x) -> LogValue:
    """Local size of a nonzero rational at a place.

    Finite p: coefficient max(0, v_p(x)) on log p (so large exactly when x
    is divisible by a high power of p, zero when p divides the
    denominator).  Archimedean: max(0, -log|x|).

    >>> v_plus(Place.finite(3), 9).finite
    {3: Fraction(2, 1)}
    >>> v_plus(Place.finite(3), Fraction(1, 9)).finite
    {}
    """
    x = Fraction(x)
    if x == 0:
        raise DomainError("v_plus(0) is +infinity; handle upstream")
    if place.is_finite:
        return LogValue.from_finite({place.prime: max(0, valuation(place.prime, x))})
    return LogValue({}, max(0, -log_abs(x)))

