"""Exact intersection theory on the blowup of P^1 x P^1 at s points.

The Picard group of the blowup is Z.H1 + Z.H2 plus one class per
exceptional curve E_i, with pairing rules H1.H2 = 1, H1^2 = H2^2 = 0,
H_k.E_i = 0 and E_i.E_j = -delta_ij.  A :class:`DivisorClass` stores the
coordinates (a, b; m_1..m_s) where the m_i are the *subtracted*
multiplicities, i.e. the class a.H1 + b.H2 - sum m_i E_i, which makes the
pairing

    (a1, b1; m) . (a2, b2; m') = a1 b2 + a2 b1 - sum m_i m'_i.

Under this storage the exceptional curve E_i itself carries m = -e_i (it
is subtracted with coefficient -1); :func:`exceptional_class` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


@dataclass(frozen=True)
class BlowupSurface:
    """P^1 x P^1 blown up at s distinct points."""

    s: int

    def __post_init__(self):
        if self.s < 0:
            raise DomainError("number of blown-up points must be >= 0")


@dataclass(frozen=True)
class DivisorClass:
    a: Fraction
    b: Fraction
    exceptional_mults: tuple[Fraction, ...]

    def __init__(self, a, b, exceptional_mults=()):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(
            self, "exceptional_mults", tuple(Fraction(m) for m in exceptional_mults)
        )

    def __repr__(self):
        return f"DivisorClass({self.a}, {self.b}; {list(self.exceptional_mults)})"


def _check_size(surface: BlowupSurface, div: DivisorClass):
    if len(div.exceptional_mults) != surface.s:
        raise DomainError(
            f"divisor has {len(div.exceptional_mults)} exceptional entries, "
            f"surface has s={surface.s}"
        )


def intersect(surface: BlowupSurface, d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """The intersection pairing a1*b2 + a2*b1 - sum(m_i * m'_i).

    >>> s0 = BlowupSurface(0)
    >>> intersect(s0, DivisorClass(1, 1), DivisorClass(1, 1))
    Fraction(2, 1)
    """
    _check_size(surface, d1)
    _check_size(surface, d2)
    cross = d1.a * d2.b + d2.a * d1.b
    exc = sum((m1 * m2 for m1, m2 in zip(d1.exceptional_mults, d2.exceptional_mults)),
              Fraction(0))
    return cross - exc


def canonical_class(surface: BlowupSurface) -> DivisorClass:
    """(-2, -2; 1, ..., 1): the pullback of K on P^1 x P^1 plus one unit per
    exceptional curve."""
    return DivisorClass(-2, -2, (Fraction(1),) * surface.s)


def perturbed_ample(surface: BlowupSurface, n: int) -> DivisorClass:
    """The Q-divisor (1,1) minus (1/N) of each exceptional curve, stored as
    subtracted coefficients (1, 1; 1/N, ..., 1/N).  Its pairing values are
    A.E_i = 1/N and A^2 = 2 - s/N^2."""
    if n < 1:
        raise DomainError("perturbation denominator must be >= 1")
    return DivisorClass(1, 1, (Fraction(1, n),) * surface.s)


def exceptional_class(surface: BlowupSurface, i: int) -> DivisorClass:
    """The class of the i-th exceptional curve (stored entry -1 because
    entries record subtracted multiplicities); E_i^2 = -1."""
    if not 0 <= i < surface.s:
        raise DomainError(f"exceptional index {i} out of range for s={surface.s}")
    mults = [Fraction(0)] * surface.s
    mults[i] = Fraction(-1)
    return DivisorClass(0, 0, mults)


def strict_transform_class(surface: BlowupSurface, a, b, mults) -> DivisorClass:
    """Class of the strict transform of a type-(a, b) curve with the given
    multiplicities at the blown-up points."""
    mults = tuple(Fraction(m) for m in mults)
    if len(mults) != surface.s:
        raise DomainError("one multiplicity per blown-up point required")
    return DivisorClass(a, b, mults)


@dataclass(frozen=True)
class AmplenessReport:
    ample: bool
    witness: dict

    def __bool__(self):
        return self.ample


def is_ample_lemmaAG(surface: BlowupSurface, n: int) -> AmplenessReport:
    """Nakai-Moishezon check of A = (1,1) - (1/N) sum E_i: A is ample
    exactly when N > s.  The witness is a curve: one of least pairing when
    N > s, else the ruling line through all s points.

    A^2 = 2 - s/N^2 and A.E_i = 1/N.  The strict transform of an
    irreducible type-(a,b) curve with multiplicities mu_i pairs to
    a + b - sum(mu_i)/N.  A ruling line has mu_i <= 1, so it pairs to at
    least 1 - s/N, with equality when all s points lie on it.  Any other
    irreducible curve has a, b >= 1 and meets the two ruling lines through
    a point in a and b points, so mu_i <= min(a, b) <= (a+b)/2
    (Hartshorne, Algebraic Geometry V.1) and it pairs to at least
    (a+b)(1 - s/(2N)) >= 2 - s/N.  So for N > s, A^2 and every pairing
    are positive, and the least pairing is A.E_i = 1/N (s > 0); for N <= s
    the ruling line through all s points pairs to 1 - s/N <= 0.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    s = surface.s
    if 0 < s < n:
        witness = {"check": "exceptional", "value": Fraction(1, n), "index": "any"}
    else:
        witness = {"check": "curve", "type_sum": 1, "mu_sum": s, "value": 1 - Fraction(s, n)}
    return AmplenessReport(ample=n > s, witness=witness)
