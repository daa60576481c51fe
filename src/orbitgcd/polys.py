"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending; the zero polynomial has degree -1 (a
sentinel, never a valid exponent).  Gcds run over a primitive
pseudo-remainder sequence on integer coefficients to dodge Fraction
blowup, and squarefree structure comes from Yun's algorithm, which is all
the factorization this package ever needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([])

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @classmethod
    def monomial(cls, k: int, c=1) -> "Polynomial":
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, k) -> "Polynomial":
        k = Fraction(k)
        return Polynomial([c * k for c in self.coeffs])

    def __pow__(self, n: int) -> "Polynomial":
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other) -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise DomainError("zero polynomial cannot be made monic")
        return self.scale(1 / self.leading)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def shift(self, t) -> "Polynomial":
        """p(x + t)."""
        return self.compose(Polynomial([t, 1]))

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer polynomial)."""
        if self.is_zero:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> "Polynomial":
        """Integer-coefficient primitive part (sign of leading term kept)."""
        c = self.content()
        if c == 0:
            return Polynomial.zero()
        return self.scale(1 / c)

    def int_coeffs(self) -> list[int]:
        if any(c.denominator != 1 for c in self.coeffs):
            raise DomainError("polynomial does not have integer coefficients")
        return [c.numerator for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # remainder of a by b over Z up to a power of lc(b); ascending coeffs
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    while r and len(r) - 1 >= db:
        top = r[-1]
        k = len(r) - 1 - db
        r = [c * lc for c in r]
        for i, c in enumerate(b):
            r[k + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _strip_int_content(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = math.gcd(g, abs(c))
    if g in (0, 1):
        return list(a)
    return [c // g for c in a]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q via a primitive pseudo-remainder sequence."""
    if a.is_zero and b.is_zero:
        return Polynomial.zero()
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    fa = _strip_int_content(a.primitive().int_coeffs())
    fb = _strip_int_content(b.primitive().int_coeffs())
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _pseudo_rem(fa, fb)
        fa, fb = fb, _strip_int_content(r)
    return Polynomial(fa).monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: [(h_1, 1), (h_2, 2), ...] with p = lc * prod h_i^i,
    each h_i monic squarefree, pairwise coprime (trivial h_i omitted)."""
    if p.is_zero:
        raise DomainError("squarefree decomposition of 0")
    if p.degree == 0:
        return []
    f = p.monic()
    df = f.derivative()
    u = poly_gcd(f, df)
    v = (f // u).monic()
    w = df // u
    out = []
    i = 1
    while v.degree > 0:
        h = poly_gcd(v, w - v.derivative())
        if h.degree > 0:
            out.append((h, i))
        v2 = (v // h).monic()
        w = (w - v.derivative()) // h
        v = v2
        i += 1
    return out


def radical(p: Polynomial) -> Polynomial:
    """Monic squarefree part: p / gcd(p, p'), normalized monic.

    >>> radical(Polynomial([1, 0, 1]) * Polynomial([1, 0, 1]))  # (x^2+1)^2
    Polynomial(1 + x^2)
    """
    if p.is_zero:
        raise DomainError("radical of the zero polynomial")
    if p.degree == 0:
        return Polynomial.constant(1)
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def multiplicity_at(p: Polynomial, q) -> int:
    """Largest m with (x - q)^m dividing p; 0 when p(q) != 0."""
    if p.is_zero:
        raise DomainError("multiplicity in the zero polynomial")
    q = Fraction(q)
    m = 0
    cur = p
    while not cur.is_zero and cur.evaluate(q) == 0:
        cur = cur // Polynomial([-q, 1])
        m += 1
    return m


def max_multiplicity(p: Polynomial) -> int:
    """Largest multiplicity among all roots of p in Qbar (1 if squarefree,
    0 for constants)."""
    decomp = squarefree_decomposition(p)
    return max((i for _, i in decomp), default=0)


# --- integer coefficient lists: Kronecker substitution and mod-p arithmetic ---


def trim(cs: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; returns ``cs``."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _kronecker_offset(n: int, width: int) -> int:
    # 2^(width-1) in each of n slots, built from bytes in linear time
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")


def kronecker_pack(coeffs: list[int], width: int) -> int:
    """The value at x = 2^width of the integer polynomial with ascending
    ``coeffs``.  ``width`` is a multiple of 8 and every |c| < 2^(width-1),
    so each signed slot is stored as c + 2^(width-1) without borrows."""
    size = width // 8
    half = 1 << (width - 1)
    raw = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _kronecker_offset(len(coeffs), width)


def kronecker_unpack(value: int, width: int, n: int) -> list[int]:
    """Inverse of :func:`kronecker_pack` for ``n`` slots whose coefficients
    satisfy |c| < 2^(width-1); linear time (one bytes conversion, then
    slicing).  A value outside the ``n`` slots raises OverflowError."""
    size = width // 8
    half = 1 << (width - 1)
    raw = (value + _kronecker_offset(n, width)).to_bytes(n * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, n * size, size)]


def modp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b modulo p; a and b are reduced mod p, b is
    trimmed and nonzero.

    ``p`` may be composite; a leading coefficient of b that is not a unit
    modulo p makes ``pow`` raise ValueError."""
    inv = pow(b[-1], -1, p)
    r = list(a)
    db = len(b) - 1
    body = b[:-1]
    while len(r) - 1 >= db:
        top = r.pop() * inv % p
        k = len(r) - db
        r[k:] = [(x - top * c) % p for x, c in zip(r[k:], body)]
        trim(r)
    return r


def modp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b modulo p by the Euclidean algorithm (not monic)."""
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        a, b = b, modp_rem(a, b, p)
    return a


def modp_mult_tower(coeffs: list[int], p: int) -> int | None:
    """Max root multiplicity of the reduction of ``coeffs`` mod a prime p:
    the number of steps c -> gcd(c, c') until a constant is left.

    It is an upper bound for the true max multiplicity whenever p keeps
    the degree (multiplicities can merge under reduction, never split);
    None when p is unusable.  For a product of primes see
    :func:`modp_multiplicity_bound`."""
    cs = trim([c % p for c in coeffs])
    if len(cs) != len(coeffs):
        return None     # leading coefficient vanished: degree dropped
    level = 0
    while len(cs) - 1 > 0:
        deriv = trim([i * c % p for i, c in enumerate(cs)][1:])
        if not deriv:
            return None  # wild derivative (cannot happen for p > degree)
        cs = modp_gcd(cs, deriv, p)
        level += 1
    return level


def modp_multiplicity_bound(coeffs: list[int], primes) -> int | None:
    """The minimum of :func:`modp_mult_tower` over ``primes`` (None when no
    prime keeps the degree).

    One tower runs modulo the product of the primes.  When every divisor
    its Euclid sequences meet has a leading coefficient that is a unit
    modulo the product, it projects (by CRT) onto the tower modulo each
    prime with the same degrees, so all per-prime towers agree with it.
    Every divisor is inverted, the first derivative included (whose
    leading coefficient is deg * lc(coeffs)), so a leading coefficient
    that is not a unit makes ``pow`` raise ValueError, and the towers then
    run one prime at a time.
    """
    try:
        return modp_mult_tower(coeffs, math.prod(primes))
    except ValueError:
        bounds = [m for p in primes if (m := modp_mult_tower(coeffs, p)) is not None]
        return min(bounds, default=None)
