"""Univariate polynomials over Q: a value type at the API edge, integer
algebra inside.

:class:`Polynomial` holds exact rational coefficients, ascending; the zero
polynomial has degree -1 (a sentinel, never a valid exponent).  It carries
no arithmetic.  Every computation runs on integer coefficient lists, and
three functions divide them, one job each: :func:`exact_div` takes the
exact quotient, :func:`_reduce` the remainder by a monic divisor, and
:func:`_pseudo_divmod` is the one pseudo-division, which gcds (a primitive
pseudo-remainder sequence) and resultants (a subresultant one) share.
:func:`primitive` takes coefficients to Z; squarefree structure comes from
Yun's algorithm, which is all the factorization this package ever needs.
Results come back as monic polynomials, which are unique.  The same lists
carry the Kronecker substitution that composes maps, and the critical-orbit
walk of the depth selector.

The kernels cost what their inputs need.  The content of an int list is
one gcd; only Fractions pay for clearing denominators.  A remainder
sequence ends at its first constant, whose sign is the gcd.  The walk's
classes are monic, as are many gcd divisors, and the remainder by a monic P
replaces each top term t^n by -(p_0 + ... + p_(n-1) t^(n-1)), all in Z,
with no power of lc.  :func:`_mul` reduces its product mod such a P, so
arithmetic in Z[t]/(P) keeps every list shorter than P.  :func:`_unit_mod`
is the one computation modulo a prime: Euclid's algorithm in F_q[t].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest

from .errors import DomainError


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


# --- integer coefficient lists: content, exact division, gcd, Yun ---


def primitive(cs) -> list[int]:
    """Integer primitive part of rational coefficients (ints or Fractions):
    denominators cleared, then divided by the positive content, so signs
    are kept.  A new list of the same length as ``cs`` (no trimming); all
    zeros stay zeros.  The content of an int list is one gcd.

    >>> primitive([Fraction(2, 3), 0, Fraction(-4, 3)])
    [1, 0, -2]
    """
    if cs and type(cs[0]) is int:
        try:
            g = math.gcd(*cs)
        except TypeError:       # a Fraction further on
            pass
        else:
            return [c // g for c in cs] if g > 1 else list(cs)
    scale = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (scale // c.denominator) for c in cs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def exact_div(a: list[int], b: list[int]) -> list[int] | None:
    """The quotient a / b in Z[x] (ascending, trimmed inputs, b nonzero),
    or None when b does not divide a in Z[x].  For primitive b that is the
    same as dividing in Q[x] (Gauss's lemma).

    >>> exact_div([-1, 0, 1], [1, 1]), exact_div([1, 0, 1], [1, 1])
    ([-1, 1], None)
    """
    db, lc = len(b) - 1, b[-1]
    if len(a) <= db:
        return [] if not a else None
    r = list(a)
    q = [0] * (len(a) - db)
    body = b[:-1]
    for k in range(len(q) - 1, -1, -1):
        top, rest = divmod(r.pop(), lc)
        if rest:
            return None
        q[k] = top
        if top:
            r[k:] = [x - top * c for x, c in zip(r[k:], body)]
    return None if any(r) else q


def _reduce(r: list[int], p: list[int]) -> list[int]:
    # r mod a monic p, in place and trimmed: t^n = -(p_0 + ... + p_(n-1) t^(n-1))
    # cancels each top term with integer coefficients, so nothing is rescaled
    n = len(p) - 1
    for k in range(len(r) - 1 - n, -1, -1):
        top = r.pop()
        if top:
            for i in range(n):
                r[k + i] -= top * p[i]
    return trim(r)


def _unit_mod(h: list[int], p: list[int], q: int) -> bool:
    """Whether h is a unit modulo (p, q), for a monic p and a prime q: gcd(p,
    h) = 1 in F_q[t], by Euclid's algorithm.  Then Res(p, h) is nonzero mod
    q, so nonzero (Collins, JACM 18, 1971), and h vanishes at no root of p.

    >>> _unit_mod([1, 1], [-1, 0, 1], 7), _unit_mod([1, 1], [1, 0, 1], 7)
    (False, True)
    """
    b = trim([c % q for c in h])
    if len(b) < 2:
        return bool(b)
    a = [c % q for c in p]
    while len(b) > 1:
        inv, body = pow(b[-1], -1, q), b[:-1]
        for k in range(len(a) - len(b), -1, -1):
            top = a.pop() * inv % q
            if top:
                a[k:] = [(x - top * c) % q for x, c in zip(a[k:], body)]
        a, b = b, trim(a)
    return bool(b)


def _mul(a: list[int], b: list[int], p: list[int] | None = None) -> list[int]:
    """The product of two int lists; with a monic ``p``, its remainder mod p,
    trimmed (the product in Z[t]/(p))."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if p is None else _reduce(out, p)


def _sub(a: list[int], b: list[int]) -> list[int]:
    return trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^(deg a - deg b + 1) a = q b + r, deg r < deg b and r
    trimmed, for trimmed a, b in Z[x] with deg a >= deg b >= 1.  Division-free
    (Knuth, TAOCP 2, 4.6.1, Algorithm R): each step scales by lc, and each
    coefficient of a takes the power of lc it missed when b first reaches it."""
    delta, lc = len(a) - len(b), b[-1]
    powers = list(accumulate(repeat(lc, delta), int.__mul__, initial=1))
    r, q = list(a), [0] * (delta + 1)
    for i in range(delta, -1, -1):
        top = r.pop()
        q[i] = top * powers[i]
        r[i] *= powers[delta - i]
        r[i:] = [lc * u - top * c for u, c in zip(r[i:], b)]
    return q, trim(r)


def primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd in Z[x] (sign not fixed) of two trimmed coefficient
    sequences (ints or Fractions, not both zero), by a primitive
    pseudo-remainder sequence.  A nonzero constant in it, an operand
    included, ends it: the gcd is that constant's sign, [1] or [-1]."""
    if len(a) < len(b):
        a, b = b, a
    a, b = primitive(a), primitive(b)
    while len(b) > 1:
        r = _reduce(list(a), b) if b[-1] == 1 else _pseudo_divmod(a, b)[1]
        a, b = b, primitive(r)
    return b or a


def resultant(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(Res, s, t) for nonzero trimmed integer lists, not both constant: the
    Sylvester determinant Res = lc(a)^deg b prod b(theta) over the roots
    theta of a, and s a + t b = Res with deg s < deg b and deg t < deg a
    (unique when Res != 0); (0, [], []) when a and b share a root.  A
    subresultant PRS (Collins, JACM 14, 1967; Brown and Traub, JACM 18,
    1971) that carries s: its members and their cofactors are
    subresultants, so every division is exact.

    >>> resultant([1, -5], [0, 4, 3, -2])       # 1 - 5x, 4x + 3x^2 - 2x^3
    (-113, [-113, -65, 50], [-125])
    """
    (x, sx), (y, sy), sign = (a, [1]), (b, []), 1       # sx, sy: the cofactors of a
    if len(a) < len(b):     # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
        (x, sx), (y, sy), sign = (y, sy), (x, sx), (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = 1
    while len(y) > 1:
        delta = len(x) - len(y)
        if (len(x) - 1) * (len(y) - 1) % 2:
            sign = -sign
        q, r = _pseudo_divmod(x, y)
        if not r:
            return 0, [], []
        scale = y[-1] ** (delta + 1)        # scale x = q y + r carries over to the cofactors
        sr = _sub([c * scale for c in sx], _mul(q, sy))
        div = g * h**delta
        (x, sx), (y, sy) = (y, sy), ([c // div for c in r], [c // div for c in sr])
        g = x[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    k = len(x) - 1          # y is the constant S_0: Res = sign y^k / h^(k-1)
    w, v = sign * y[0] ** (k - 1), h ** (k - 1)
    res, s = w * y[0] // v, [c * w // v for c in sy]
    return res, s, exact_div(_sub([res], _mul(s, a)), b)


def _monic(cs: list[int]) -> Polynomial:
    lc = cs[-1]
    return Polynomial([Fraction(c, lc) for c in cs])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q via a primitive pseudo-remainder sequence."""
    if a.is_zero and b.is_zero:
        return Polynomial([])
    return _monic(primitive_gcd(a.coeffs, b.coeffs))


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    # f trimmed, degree >= 1.  v and w are divided by the same primitive
    # divisors throughout, so they keep one common scalar and stay in Z[x]
    df = _derivative(f)
    u = primitive_gcd(f, df)
    v = exact_div(f, u)
    if len(u) == 1:     # squarefree: the loop's one pass finds y = 0, h = primitive(v)
        return [(primitive(v), 1)]
    w = exact_div(df, u)
    out = []
    i = 1
    while len(v) > 1:
        y = _sub(w, _derivative(v))
        h = primitive_gcd(v, y)
        if len(h) > 1:
            out.append((h, i))
        v, w = exact_div(v, h), exact_div(y, h)
        i += 1
    return out


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: [(h_1, 1), (h_2, 2), ...] with p = lc * prod h_i^i,
    each h_i monic squarefree, pairwise coprime (trivial h_i omitted)."""
    if p.is_zero:
        raise DomainError("squarefree decomposition of 0")
    if p.degree == 0:
        return []
    return [(_monic(h), i) for h, i in _yun(primitive(p.coeffs))]


def radical(p: Polynomial) -> Polynomial:
    """Monic squarefree part: p / gcd(p, p'), normalized monic.

    >>> radical(Polynomial([1, 0, 2, 0, 1]))  # (x^2+1)^2
    Polynomial(1 + x^2)
    """
    if p.is_zero:
        raise DomainError("radical of the zero polynomial")
    if p.degree == 0:
        return Polynomial([1])
    f = primitive(p.coeffs)
    return _monic(exact_div(f, primitive_gcd(f, _derivative(f))))


def multiplicity_at(p: Polynomial, q) -> int:
    """Largest m with (x - q)^m dividing p; 0 when p(q) != 0."""
    if p.is_zero:
        raise DomainError("multiplicity in the zero polynomial")
    q = Fraction(q)
    root = [-q.numerator, q.denominator]       # v x - u for q = u/v, primitive
    cur = primitive(p.coeffs)
    m = 0
    while (cur := exact_div(cur, root)) is not None:
        m += 1
    return m


def max_multiplicity(p: Polynomial) -> int:
    """Largest multiplicity among all roots of p in Qbar (1 if squarefree,
    0 for constants)."""
    decomp = squarefree_decomposition(p)
    return max((i for _, i in decomp), default=0)


# --- integer coefficient lists: trimming and Kronecker substitution ---


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
