"""Sparse bivariate polynomials with primitive integer coefficients (ints
with gcd 1, signs kept), just rich enough for the orbit relation checks of
the genericity probe.  The constructor takes rationals and normalizes them
once, so a polynomial and its positive multiples are equal."""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polys import primitive


def homogeneous_powers(r: int, s: int, degree: int) -> list[int]:
    """The monomials r^i s^(degree-i) for i = 0..degree: the powers of r/s
    times s^degree."""
    return [r**i * s ** (degree - i) for i in range(degree + 1)]


class BivariatePolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = {}
        for (i, j), c in dict(terms).items():
            c = Fraction(c)
            if c != 0:
                cleaned[(int(i), int(j))] = c
        self.terms = dict(zip(cleaned, primitive(list(cleaned.values()))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            raise DomainError("zero polynomial has no degree")
        return max(i + j for i, j in self.terms)

    def evaluate(self, x, y) -> Fraction:
        """The value of the stored, normalized polynomial at rationals x, y."""
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()),
                   Fraction(0))

    def vanishes_at(self, x: tuple[int, int], y: tuple[int, int], degree: int) -> bool:
        """Whether F, read as the form of bidegree (D, D) with D = ``degree``,
        vanishes at the point ((xr : xs), (yr : ys)) of P^1 x P^1: whether
        sum c_ij xr^i xs^(D-i) yr^j ys^(D-j) == 0 in integers.  At a finite
        point that is F(xr/xs, yr/ys) times (xs ys)^D; at (oo, y) it is
        sum_j c_Dj y^j times (xr ys)^D, and at (x, oo) sum_i c_iD x^i times (xs yr)^D."""
        if any(max(m) > degree for m in self.terms):
            raise DomainError(f"an exponent of the polynomial exceeds the bidegree {degree}")
        xcol = homogeneous_powers(*x, degree)
        ycol = homogeneous_powers(*y, degree)
        return sum(c * xcol[i] * ycol[j] for (i, j), c in self.terms.items()) == 0

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "BivariatePolynomial(0)"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" * i, f"y^{j}" if j > 1 else "y" * j)
            )
            parts.append(f"{c}" + ("*" + mono if mono else ""))
        return "BivariatePolynomial(" + " + ".join(parts) + ")"
