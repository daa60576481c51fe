"""Exact arithmetic over the rationals: certified prime factorization,
p-adic valuations, and the local size functions v+ that every height
computation in this package is built from.

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

Products and gcds that can reach orbit size go through :func:`int_mul`
and :func:`int_gcd`, which hand operands of at least 2^14 bits to the
system GMP (``_gmp``, bound through ctypes on first use) and keep ``*``
and ``math.gcd`` below that size or where no libgmp loads; the value is
the same either way.
"""

from __future__ import annotations

import functools
import math
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice

from . import _gmp
from .errors import DomainError, PartialFactorizationError

Rational = Fraction

ARCH_PREC = 128                   # bits carried by archimedean parts
TRIAL_DIVISION_BOUND = 10**6
DEFAULT_FACTOR_BUDGET = 1 << 22   # total rho iterations allowed per factor() call

# 12-base deterministic Miller-Rabin is a primality proof below this bound.
_MR_CERTIFIED_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Both operands need this many bits before a gcd or a product goes to GMP.
# math.gcd is quadratic (Lehmer) and CPython multiplies by Karatsuba; GMP,
# ctypes calls and int copies included, overtakes both near 6,000 bits and
# at 2^14 bits takes 0.31 against 0.63 ms per gcd, 0.06 against 0.15 ms per
# square and 0.08 against 0.21 ms per product; at 10^6 bits it squares in
# 6.4 against 99 ms (2-core Xeon VM, Python 3.11, GMP 6.2)
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


# --- small prime cache (process wide, lock guarded, semantically invisible) ---

_sieve_lock = threading.Lock()
_sieve_limit = 0
_sieve_primes: list[int] = []


def _sieve(limit: int) -> list[int]:
    """The cached sieve's primes, at least every one below ``limit``.  Growth
    replaces the list and never mutates it, so callers iterate it unlocked."""
    global _sieve_limit, _sieve_primes
    with _sieve_lock:
        if limit > _sieve_limit:
            # doubling amortizes growth; past 10^6 only a request grows it
            size = max(limit, min(2 * _sieve_limit, TRIAL_DIVISION_BOUND), 1 << 16)
            flags = bytearray([1]) * size
            flags[0:2] = b"\x00\x00"
            for i in range(2, math.isqrt(size - 1) + 1):
                if flags[i]:
                    flags[i * i :: i] = bytes((size - 1 - i * i) // i + 1)
            _sieve_primes = list(compress(range(size), flags))
            _sieve_limit = size
        return _sieve_primes


def small_primes(limit: int) -> list[int]:
    """Primes below ``limit`` from a cached segmentless sieve."""
    primes = _sieve(limit)
    return primes[:bisect_left(primes, limit)]


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
    return 1 if n == 1 else result


def is_prime(n: int) -> bool:
    """Primality test: deterministic (12-base Miller-Rabin, a proof below
    ~3.3e24); BPSW above that bound, which has no known counterexample.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if any(_mr_witness(a, n) for a in _MR_BASES):
        return False
    if n < _MR_CERTIFIED_LIMIT:
        return True
    return _strong_lucas_prp(n)


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
    """Return (factor, iterations_used); factor == n signals failure."""
    if n % 2 == 0:
        return 2, 0
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
    """Certified prime factorization of a nonzero integer.

    Trial division up to min(10^6, sqrt|n|), then Brent's variant of
    Pollard rho with a deterministic seed.  Every reported prime passes
    :func:`is_prime`.  If the rho budget runs out a
    :class:`PartialFactorizationError` is raised carrying the certified
    part; composites are never silently reported.

    >>> factor(15624).factors
    ((2, 3), (3, 2), (7, 1), (31, 1))
    """
    if n == 0:
        raise DomainError("factor(0) is undefined")
    sign = 1 if n > 0 else -1
    m = abs(n)
    found: dict[int, int] = {}
    # every prime up to sqrt(m) is tried, so a cofactor left below
    # TRIAL_DIVISION_BOUND^2 is prime whatever the sieve size
    limit = min(TRIAL_DIVISION_BOUND, math.isqrt(m) + 1)
    primes = _sieve(limit)
    for p in islice(primes, bisect_left(primes, limit)):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if m > 1 and (m < TRIAL_DIVISION_BOUND**2 or is_prime(m)):
        # either below the trial-division frontier squared (hence prime) or
        # directly certified
        found[m] = found.get(m, 0) + 1
        m = 1
    rng = random.Random(0xC0FFEE)
    remaining = budget
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if is_prime(c):
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
    return Real(log_fixed(abs(x), ARCH_PREC) - log_fixed(den, ARCH_PREC), 1 << ARCH_PREC)


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

    def drop_arch(self) -> "LogValue":
        return LogValue(self.finite, 0)

    def close_to(self, other: "LogValue") -> bool:
        """Exact equality on the finite part, archimedean parts within
        2^(-ARCH_PREC/2) of each other."""
        return (self.finite == other.finite
                and abs(self.arch - other.arch) <= Fraction(1, 1 << (ARCH_PREC // 2)))


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


def log_gcd_places(a: int, b: int) -> LogValue:
    """log gcd(|a|, |b|) as an exact sum over finite places: the finite
    coefficients are the prime exponents of the Euclidean gcd.

    >>> log_gcd_places(12, 18).finite
    {2: Fraction(1, 1), 3: Fraction(1, 1)}
    """
    if a == 0 or b == 0:
        raise DomainError("log_gcd_places needs nonzero integers")
    g = int_gcd(a, b)
    return LogValue.from_finite(factor(g).exponents() if g > 1 else {})
