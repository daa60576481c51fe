"""Sparse bivariate polynomials over Q, just rich enough for the orbit
relation checks of the genericity probe."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError


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
        self.terms = cleaned

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            raise DomainError("zero polynomial has no degree")
        return max(i + j for i, j in self.terms)

    def evaluate(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()),
                   Fraction(0))

    def vanishes_at(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        """Whether F(xr/xs, yr/ys) = 0 for integer pairs x = (xr, xs) and
        y = (yr, ys) with xs, ys nonzero.  Decided in integers as
        sum c_ij xr^i xs^(D-i) yr^j ys^(D-j) == 0, with D the largest
        exponent of F: F at the point times (xs ys)^D with the denominators
        cleared."""
        if not (x[1] and y[1]):
            raise DomainError("vanishes_at needs finite points")
        degree = max((max(m) for m in self.terms), default=0)
        scale = lcm(*(c.denominator for c in self.terms.values()))
        xcol = homogeneous_powers(*x, degree)
        ycol = homogeneous_powers(*y, degree)
        return sum(c.numerator * (scale // c.denominator) * xcol[i] * ycol[j]
                   for (i, j), c in self.terms.items()) == 0

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
