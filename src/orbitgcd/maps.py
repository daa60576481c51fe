"""Rational self-maps of P^1 over Q and their dynamics.

A :class:`RationalMap` is a pair of integer-coefficient polynomials,
coprime in Q[x], jointly primitive (the gcd of all coefficients of both
is 1) and with positive leading denominator coefficient, which makes the
lowest-terms representation unique.  It is stored once, as the integer
coefficients of its degree-d homogenizations (F, G), and
:meth:`RationalMap.form_values` is the one evaluator of that pair, so
evaluation is projective and the point at infinity needs no special
cases; composition evaluates through it too.  A Mobius transformation
is a map of degree 1 (these are the automorphisms of P^1, PGL_2(Q)), so
it is evaluated and composed as any other map.  Once a coordinate it
is given has 2^14 bits, its products go through
``exact.int_mul`` to the system GMP, whose FFT multiplication outruns
CPython's Karatsuba on the Theta(d^n)-digit values of deep orbits and on
Kronecker-packed polynomials.

A :class:`ProjPoint` is a coprime integer pair (r, s) with s >= 0, and
infinity is (1, 0); ``.value`` is the rational view for callers.  For
coprime (r, s), gcd(F(r, s), G(r, s)) divides the resultant R of (F, G),
so :func:`evaluate` puts f(P) in lowest terms with a gcd against |R|
(up to degree 8, where R is cheap to compute) instead of a gcd of the
two orbit values; R and the Bezout cofactor height of the heights come
from one elimination per map (:func:`bezout_record`).  Orbits are walked
point-wise on these pairs by :func:`orbit`, and classification never
composes (it reads one-step fibers, as integer lists, and critical orbits).
Composition serves conjugation and the commuting test; it packs
polynomials into big integers (Kronecker substitution), so each product
is one big-integer multiplication, and self-composition sits behind a
degree budget, since the degree grows like d^D.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BudgetExceededError, DomainError
from .exact import _GMP_BITS, int_gcd, int_mul
from .linalg import solve_fraction
from .polys import (Polynomial, exact_div, kronecker_pack, kronecker_unpack, primitive,
                    primitive_gcd, trim)

DEFAULT_ORBIT_DIGIT_BUDGET = 10**7
DEFAULT_DEGREE_BUDGET = 4096
# Above this degree evaluate reduces by a plain gcd: the elimination behind
# bezout_record takes 0.03 / 1.2 / 30 ms / 3.3 s at degree 2 / 8 / 16 / 32 on
# (-2+9x+8x^2)/(-5+2x+6x^2) composed with itself (2-core Xeon VM).  Where it
# starts to cost more than the gcds it saves is not measured.
_RESULTANT_MAX_DEGREE = 8

_LOG10_2 = math.log10(2)


def digit_count(n: int) -> int:
    """Exact decimal digit count (no str conversion, which CPython caps for
    big integers).  math.log10 of an int reads only its top bits and errs
    by less than 1e-6 below 2^(10^9), so it decides the count unless it
    lies within 1e-6 of an integer k; one comparison with 10^k settles
    that case."""
    n = abs(n)
    if n < 10:
        return 1
    t = math.log10(n)
    k = round(t)
    if abs(t - k) > 1e-6:
        return int(t) + 1
    return k + (n >= 10**k)


class ProjPoint:
    """A point of P^1(Q) as a coprime integer pair (r, s) with s >= 0:
    the affine rational r/s, or infinity as (1, 0)."""

    __slots__ = ("_pair",)

    def __init__(self, value=None):
        if value is None:
            self._pair = (1, 0)
        else:
            value = Fraction(value)
            self._pair = (value.numerator, value.denominator)

    @classmethod
    def from_coprime(cls, r: int, s: int) -> "ProjPoint":
        """The point (r : s) from coprime integers, not both zero; the sign
        moves to r."""
        point = cls.__new__(cls)
        point._pair = (-r, -s) if s < 0 else (1, 0) if s == 0 else (r, s)
        return point

    @classmethod
    def of(cls, x) -> "ProjPoint":
        return x if isinstance(x, ProjPoint) else cls(x)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self._pair[1] == 0

    @property
    def value(self) -> Fraction | None:
        """The affine value as a Fraction (None at infinity)."""
        r, s = self._pair
        return None if s == 0 else Fraction(r, s)

    def pair(self) -> tuple[int, int]:
        """Coprime integer homogeneous coordinates (numerator, denominator);
        infinity is (1, 0)."""
        return self._pair

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self._pair == other._pair

    def __hash__(self):
        return hash(("ProjPoint", self._pair))

    def __repr__(self):
        return "ProjPoint(oo)" if self.is_infinity else f"ProjPoint({self.value})"


INFINITY = ProjPoint.infinity()


class RationalMap:
    """A rational map stored once, as its homogeneous pair (F, G):
    ``forms`` holds two integer tuples (a_0..a_d), (b_0..b_d) with
    F = sum a_i X^i Y^(d-i) and G = sum b_i X^i Y^(d-i); ``num``/``den``
    are read-only polynomial views of the same coefficients."""

    __slots__ = ("forms",)

    def __init__(self, num, den=None, *, assume_coprime=False):
        """``num``/``den`` are polynomials or ascending coefficient lists of
        anything ``Polynomial`` takes (``den`` defaults to 1); common
        factors cancel unless ``assume_coprime``."""
        num, den = ([c if isinstance(c, (int, Fraction)) else Fraction(c)   # as Polynomial does
                     for c in (p.coeffs if isinstance(p, Polynomial) else p)]
                    for p in (num, [1] if den is None else den))
        # clear fraction denominators jointly, then strip joint content
        cs = primitive(num + den)
        ni, di = trim(cs[:len(num)]), trim(cs[len(num):])
        if not di:
            raise DomainError("denominator polynomial is zero")
        if not ni:
            raise DomainError("numerator polynomial is zero (constant map)")
        if not assume_coprime and len(ni) > 1 and len(di) > 1:
            g = primitive_gcd(ni, di)
            if len(g) > 1:
                ni, di = exact_div(ni, g), exact_div(di, g)
        if di[-1] < 0:
            ni, di = [-c for c in ni], [-c for c in di]
        d = max(len(ni), len(di)) - 1
        if d < 1:
            raise DomainError("rational map must have degree >= 1")
        self.forms = tuple(tuple(cs) + (0,) * (d + 1 - len(cs)) for cs in (ni, di))

    @property
    def num(self) -> Polynomial:
        return Polynomial(self.forms[0])

    @property
    def den(self) -> Polynomial:
        return Polynomial(self.forms[1])

    @property
    def degree(self) -> int:
        return len(self.forms[0]) - 1

    @property
    def is_polynomial(self) -> bool:
        return not any(self.forms[1][1:])

    def __eq__(self, other):
        return isinstance(other, RationalMap) and self.forms == other.forms

    def __hash__(self):
        return hash(self.forms)

    def __getstate__(self):     # protocols 0 and 1 need it for a __slots__ class
        return None, {"forms": self.forms}

    def __repr__(self):
        return f"RationalMap({self.num!r} / {self.den!r})"

    def form_values(self, r: int, s: int) -> tuple[int, int]:
        """(F(r, s), G(r, s)) of two ints, exact; the height code keeps the
        top bits of the result and the orbit screens reduce it mod m.

        The size is decided once per call: when r or s has at least 2^14
        bits, the powers of r and s and their cross products go through
        :func:`~orbitgcd.exact.int_mul` (GMP, which squares r * r);
        otherwise every product is a plain ``*``, so the height loop at
        about 10^3 bits pays no call per product."""
        a, b = self.forms
        d = len(a) - 1
        big = r.bit_length() >= _GMP_BITS or s.bit_length() >= _GMP_BITS
        rp = [1] * (d + 1)
        sp = [1] * (d + 1)
        rp[1], sp[1] = r, s
        for i in range(2, d + 1):
            rp[i] = int_mul(rp[i - 1], r) if big else rp[i - 1] * r
            sp[i] = int_mul(sp[i - 1], s) if big else sp[i - 1] * s
        x = y = 0
        for i in range(d + 1):
            if a[i] or b[i]:
                w = int_mul(rp[i], sp[d - i]) if big else rp[i] * sp[d - i]
                if a[i]:
                    x += a[i] * w
                if b[i]:
                    y += b[i] * w
        return x, y

    def __call__(self, point) -> ProjPoint:
        return evaluate(self, point)


def _sylvester_rows(a: tuple[int, ...], b: tuple[int, ...]) -> list[list[int]]:
    # rows indexed by X^k Y^(2d-1-k); unknowns: u_0..u_{d-1}, v_0..v_{d-1}
    d = len(a) - 1
    return [[c[k - j] if 0 <= k - j <= d else 0 for c in (a, b) for j in range(d)]
            for k in range(2 * d)]


@functools.lru_cache(maxsize=256)
def bezout_record(f: RationalMap) -> tuple[int, int]:
    """(R, H_u): the resultant of the homogenized pair (F, G), nonzero as
    the representation is coprime, and the largest |coefficient| (at least
    1) of the Bezout cofactors u, v with u F + v G = R X^(2d-1) and
    R Y^(2d-1), the columns R S^-1 e_k of the Sylvester matrix S: one
    elimination gives both.  Cached per (immutable) map."""
    rows = _sylvester_rows(*f.forms)
    n = len(rows)
    res, cols = solve_fraction(rows, [[int(i == k) for i in range(n)] for k in (n - 1, 0)])
    if res == 0:
        raise DomainError("vanishing resultant: map representation not coprime")
    assert cols is not None
    return res, max(1, max(abs(c) for col in cols for c in col))


def map_resultant(f: RationalMap) -> int:
    """Resultant of the homogenized pair (F, G), from :func:`bezout_record`."""
    return bezout_record(f)[0]


def evaluate(f: RationalMap, point) -> ProjPoint:
    """Projective evaluation; indeterminacy is impossible because the
    representation is coprime.  The common factor of (F(r, s), G(r, s))
    divides R = Res(F, G), so up to degree _RESULTANT_MAX_DEGREE it is
    found as gcd(F mod R, G mod R, R), in time linear in the size of F and G.

    >>> evaluate(RationalMap([1, 0, 1], [0, 1]), ProjPoint(0))  # (x^2+1)/x at 0
    ProjPoint(oo)
    """
    x, y = f.form_values(*ProjPoint.of(point).pair())
    if f.degree > _RESULTANT_MAX_DEGREE:
        g = int_gcd(x, y)
    else:
        res = abs(map_resultant(f))
        g = math.gcd(x % res, y % res, res) if res > 1 else 1
    if g > 1:
        x, y = x // g, y // g
    return ProjPoint.from_coprime(x, y)


def _digit_floor(f: RationalMap, point: ProjPoint) -> int:
    """A lower bound on the digits of f(point), numerator plus denominator,
    for f of degree d <= _RESULTANT_MAX_DEGREE, and at most d + 1 times the
    digits of point.  For coprime (r, s), M = max(|r|, |s|) of b bits:
    R r^(2d-1) = u F + v G (and so for s), |u(r, s)|, |v(r, s)| <=
    d H_u M^(d-1) (:func:`bezout_record`) and gcd(F, G) | R, so f(point)
    has a coordinate >= M^d / (2 d H_u) >= 2^e, e = d (b-1) - c for
    2 d H_u < 2^c, of floor(e log10 2) + 1 digits or more (the float
    product less 10^-6 stays below), and the other has one more."""
    d = f.degree
    r, s = point.pair()
    c = (2 * d * bezout_record(f)[1]).bit_length()
    e = d * (max(r.bit_length(), s.bit_length()) - 1) - c
    return int(max(e, 0) * _LOG10_2 - 1e-6) + 2


def orbit(walks, n: int, digit_budget: int | None = None):
    """The one exact orbit walker: yields the tuple of the points of each
    (map, start) pair of ``walks`` at steps 0, 1, ..., n, in lockstep,
    taking a step only when the tuple before it has been taken.

    With a ``digit_budget``, every point it yields, starts included, is
    charged its digits (numerator plus denominator) to one total; a step
    that passes the budget raises :class:`BudgetExceededError` with the
    total as ``digits`` and the steps completed as ``steps``.  A step sure
    to pass, by the total plus :func:`_digit_floor` of its points, raises
    before its products reach GMP (which aborts on a failed allocation),
    with "at least" that sum; a walk with a map above degree
    _RESULTANT_MAX_DEGREE, which has no Bezout record, has only the check
    after the step.
    """
    fs, starts = zip(*walks)
    points = tuple(map(ProjPoint.of, starts))
    precheck = (digit_budget is not None
                and all(f.degree <= _RESULTANT_MAX_DEGREE for f in fs))
    spent = 0
    for k in range(n + 1):
        if k:
            # a floor is at most 9 times its point's digits, which spent holds
            if (precheck and 10 * spent > digit_budget
                    and (least := spent + sum(map(_digit_floor, fs, points))) > digit_budget):
                raise BudgetExceededError(
                    f"orbit digit budget exceeded at step {k}: "
                    f"at least {least} > {digit_budget}", digits=least, steps=k - 1)
            points = tuple(map(evaluate, fs, points))
        if digit_budget is not None:
            for p in points:
                r, s = p.pair()
                spent += digit_count(r) + digit_count(s)
            if k and spent > digit_budget:
                raise BudgetExceededError(
                    f"orbit digit budget exceeded at step {k}: "
                    f"{spent} > {digit_budget}", digits=spent, steps=k - 1)
        yield points


def iterate(f: RationalMap, point, n: int,
            digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET) -> list[ProjPoint]:
    """The orbit [P, f(P), ..., f^n(P)], walked by :func:`orbit` on the
    digit budget (numerators plus denominators, default 10^7); exhausting
    it raises :class:`BudgetExceededError` with the points completed as
    ``partial``.
    """
    if n < 0:
        raise DomainError("iteration count must be >= 0")
    points = []
    try:
        for (p,) in orbit([(f, point)], n, digit_budget):
            points.append(p)
    except BudgetExceededError as err:
        err.partial = points
        raise
    return points


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer o inner, in lowest terms.

    Coprimality of the homogeneous pairs is preserved under composition
    (a common projective root of the composed pair would be a common root
    of the outer pair at a well-defined image point), so only integer
    content needs stripping.

    With outer = A/B of degree d and inner = p/q, the result is
    sum a_i p^i q^(d-i) over sum b_i p^i q^(d-i).  Both sums are formed by
    Kronecker substitution: p and q are packed into integers at x = 2^w,
    :meth:`RationalMap.form_values` evaluates the outer pair there with
    big-integer products, and the signed coefficients are unpacked once.
    The slot width w holds the bound sum |a_i| |p|_1^i |q|_1^(d-i) (and
    the same for B) plus a sign bit.
    """
    d = outer.degree
    a, b = outer.forms
    p, q = inner.forms
    norm_p, norm_q = sum(map(abs, p)), sum(map(abs, q))
    weights = [norm_p**i * norm_q ** (d - i) for i in range(d + 1)]
    bound = max(sum(abs(c) * w for c, w in zip(a, weights)),
                sum(abs(c) * w for c, w in zip(b, weights)))
    width = (bound.bit_length() + 8) // 8 * 8
    num, den = outer.form_values(kronecker_pack(p, width), kronecker_pack(q, width))
    slots = d * inner.degree + 1
    return RationalMap(kronecker_unpack(num, width, slots),
                       kronecker_unpack(den, width, slots), assume_coprime=True)


def self_compose(f: RationalMap, depth: int,
                 degree_budget: int = DEFAULT_DEGREE_BUDGET) -> RationalMap:
    """f composed with itself ``depth`` times (depth >= 1), lowest terms."""
    if depth < 1:
        raise DomainError("composition depth must be >= 1")
    if f.degree**depth > degree_budget:
        raise BudgetExceededError(
            f"symbolic degree {f.degree}^{depth} exceeds budget {degree_budget}"
        )
    out = f
    for _ in range(depth - 1):
        out = compose(f, out)
    return out


def conjugate(f: RationalMap, m: RationalMap) -> RationalMap:
    """m o f o m^-1 for a Mobius transformation m, which is a map of degree
    1 (its coprime forms make its determinant nonzero); the degree of f is
    preserved.  m = (a0 + a1 x)/(b0 + b1 x) is inverted from its forms as
    (-a0 + b0 x)/(a1 - b1 x), coprime since their resultant is -det m."""
    if m.degree != 1:
        raise DomainError(f"conjugation needs a degree-1 map, got degree {m.degree}")
    (a0, a1), (b0, b1) = m.forms
    m_inv = RationalMap([-a0, b0], [a1, -b1], assume_coprime=True)
    out = compose(m, compose(f, m_inv))
    assert out.degree == f.degree
    return out


def fiber_polynomial(f: RationalMap, target) -> tuple[list[int], int]:
    """Equation of f^{-1}(target): the primitive integer coefficients
    (ascending, trimmed) of a polynomial whose roots are the affine
    preimages (with multiplicity), plus the multiplicity of the fiber at
    infinity (the degree deficit).

    ``target`` may be a rational or ``INFINITY``.
    """
    target = ProjPoint.of(target)
    a, b = f.forms
    if target.is_infinity:
        coeffs = trim(list(b))
    else:
        # v num - u den for target = u/v
        u, v = target.pair()
        coeffs = trim([v * x - u * y for x, y in zip(a, b)])
    if not coeffs:
        raise DomainError("fiber polynomial vanished; map is constant?")
    return primitive(coeffs), f.degree - (len(coeffs) - 1)
