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
    """Nakai-Moishezon check of the perturbed divisor over the enumerated
    curve families: strict transforms of irreducible type-(a,b) curves
    (with sum of multiplicities at most s*(a+b), each at most a+b-1 once
    a+b >= 2), the exceptional curves, and the self-intersection.

    The curve-family minimum is taken in closed form: writing t = a+b,
    the pairing with the worst strict transform is t - s*(t-1)/N for
    t >= 2 and 1 - s/N for t = 1, so for positive slope the minimum sits
    at t = 1.  The verdict is True exactly when N > s on this family; the
    witness records the minimizing case.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    s = surface.s
    checks: list[tuple[str, dict, Fraction]] = []

    a_sq = Fraction(2) - Fraction(s, n * n)
    checks.append(("self_intersection", {"value": a_sq}, a_sq))

    if s > 0:
        checks.append(
            ("exceptional", {"value": Fraction(1, n), "index": "any"}, Fraction(1, n))
        )
    slope = Fraction(1) - Fraction(s, n)
    if slope < 0:
        # value t*(1 - s/N) + s/N drops without bound and is negative
        # exactly for t > s/(s - N) > 1: exhibit the least such t
        t_bad = s // (s - n) + 1
        val = t_bad * slope + Fraction(s, n)
        checks.append(
            ("curve", {"type_sum": t_bad, "mu_sum": s * (t_bad - 1),
                       "value": val}, val)
        )
    else:
        checks.append(("curve", {"type_sum": 1, "mu_sum": s, "value": slope}, slope))

    kind, info, value = min(checks, key=lambda c: c[2])
    witness = {"check": kind, **info}
    return AmplenessReport(ample=value > 0, witness=witness)

