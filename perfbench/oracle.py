"""Independent reference computations used to check the program's outputs.

Nothing here imports orbitgcd: every oracle is plain Python integer,
Fraction or private-context mpmath arithmetic, so a check never trusts
the code it checks.  None of these helpers touches process-wide state
(no ``sys.set_int_max_str_digits``, no global mpmath precision).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

_LOG10_2 = math.log10(2)
_CHUNK = 3000          # decimal digits CPython converts without a limit


class CheckFailed(Exception):
    """An op returned output that its oracle rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(x: float, y: float, rel: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_tol)


def parse_int(text: str) -> int:
    """Decimal string to int by divide and conquer, so strings longer than
    the interpreter's int/str conversion limit parse without raising it."""
    text = text.strip()
    if text.startswith("-"):
        return -parse_int(text[1:])
    if len(text) <= _CHUNK:
        return int(text)
    half = len(text) // 2
    return parse_int(text[:-half]) * 10**half + parse_int(text[-half:])


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


def decimal_digits(n: int) -> int:
    """Exact number of decimal digits of |n| (1 for 0)."""
    n = abs(n)
    if n < 10:
        return 1
    k = int(n.bit_length() * _LOG10_2)     # floor(log10 n) is k or k - 1
    return k + 1 if n >= 10**k else k


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, a proof for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        raise ValueError("oracle primality proof only below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_at_least(n: int) -> int:
    n |= 1
    while not is_prime(n):
        n += 2
    return n


def poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients at an int or Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_compose(outer, inner) -> list:
    """Ascending coefficients of outer(inner(x))."""
    acc = [outer[-1]]
    for c in reversed(outer[:-1]):
        prod = [0] * (len(acc) + len(inner) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(inner):
                prod[i + j] += x * y
        prod[0] += c
        acc = prod
    return acc


def orbit(coeffs, start, n: int) -> list:
    out = [start]
    for _ in range(n):
        out.append(poly_eval(coeffs, out[-1]))
    return out


def height_error_quadratic(c: int, start: Fraction, value, prec: int = 1200) -> float:
    """|value - hhat(start)| for the canonical height under x^2 + c
    (integer c), with hhat computed to about 2^-prec absolute error by
    floating iteration in a private context.

    With start = u/v in lowest terms the n-th iterate has denominator
    v^(2^n), so h(f^n(P)) / 2^n = log v + max(0, log|x_n|) / 2^n for the
    real iterate x_n.  Squaring doubles the relative error and the 2^n
    divides it out again, so the estimate keeps ~prec bits; the tail after
    |x_n| > e^5000 is below |c| e^-10000.
    """
    ctx = mpmath.MPContext()
    ctx.prec = prec
    x = ctx.mpf(start.numerator) / start.denominator
    scale = ctx.mpf(1)
    for _ in range(prec):
        if abs(x) > 1 and ctx.log(abs(x)) > 5000:
            break
        x = x * x + c
        scale *= 2
    tail = ctx.log(abs(x)) if abs(x) > 1 else ctx.mpf(0)
    reference = ctx.log(start.denominator) + tail / scale
    return float(abs(ctx.mpf(value) - reference))
