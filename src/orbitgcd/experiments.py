"""Desk-scale experiments: gcd series along orbit pairs, the depth
selector with its replayable certificate, large-gcd index sets and their
window-consistent arithmetic-progression structure, and a probe for the
Mobius quasi-invariance of the finite gcd height.

Everything a row reports is exact where it can be (integer gcds, digit
counts, valuations at excluded places) and high-precision floating where
a logarithm is inherently real.  Rows never factor their gcds: the prime
decomposition of a gcd is only needed at excluded places, where repeated
division suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError, DomainError, HypothesisViolationError
from .exact import _context, factor, log_abs, valuation
from .heights import PlaceSet, canonical_height, discrepancy_bound
from .maps import (DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, Mobius,
                   ProjPoint, RationalMap, compose, conjugate, digit_count,
                   evaluate, fiber_polynomial, iterate)
from .polys import max_multiplicity, modp_multiplicity_bound
from .classify import is_exceptional


@dataclass(frozen=True)
class GcdSeriesConfig:
    f: RationalMap
    g: RationalMap
    a: ProjPoint
    b: ProjPoint
    alpha: Fraction
    beta: Fraction
    n_max: int
    epsilon: float = 0.1
    place_exclusions: PlaceSet = field(default_factory=PlaceSet)
    seed: int = 0
    digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "a", ProjPoint.of(self.a))
        object.__setattr__(self, "b", ProjPoint.of(self.b))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.f.degree != self.g.degree or self.f.degree < 2:
            raise HypothesisViolationError(
                "the two maps must have equal degree >= 2 "
                "(the gcd bound is trivial otherwise)"
            )

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def is_integral(self) -> bool:
        return (self.f.is_polynomial and self.g.is_polynomial
                and self.f.forms[1][0] == 1 and self.g.forms[1][0] == 1
                and not self.a.is_infinity and not self.b.is_infinity
                and self.a.value.denominator == 1 and self.b.value.denominator == 1
                and self.alpha.denominator == 1 and self.beta.denominator == 1)


@dataclass(frozen=True)
class GcdSeriesRow:
    n: int
    digits_f: int | None
    digits_g: int | None
    gcd: int | None
    log_gcd: float | None
    ratio: float | None
    hgcd_fin: float | None
    hgcd_excluded: float | None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class GcdSeriesReport:
    config: GcdSeriesConfig
    rows: tuple[GcdSeriesRow, ...]
    truncated: bool
    last_n: int
    ratio_summary: dict

    @property
    def degree(self) -> int:
        return self.config.degree


def _finite_part(x: Fraction, y: Fraction) -> tuple[int, float]:
    """(g, log g) for g the gcd of the numerators of x and y, not both zero:
    the finite part of hgcd(x, y), with v+(0) = +infinity everywhere."""
    g = math.gcd(x.numerator, y.numerator)
    return g, float(log_abs(g))


def _excluded_sum(x: Fraction, y: Fraction, places: PlaceSet) -> float:
    total = 0.0
    for p in places:
        vx = max(0, valuation(p, x))
        if vx == 0:
            continue
        vy = max(0, valuation(p, y))
        m = min(vx, vy)
        if m:
            total += m * math.log(p)
    return total


def _series_row(config: GcdSeriesConfig, n: int, pa: ProjPoint, pb: ProjPoint,
                d: int) -> GcdSeriesRow:
    if pa.is_infinity or pb.is_infinity:
        return GcdSeriesRow(n, None, None, None, None, None, None, None,
                            ("infinite_orbit_value",))
    u = pa.value - config.alpha
    v = pb.value - config.beta
    flags: list[str] = []
    if u == 0 and v == 0:
        # gcd(0,0) = 0 by convention; excluded from ratio statistics
        return GcdSeriesRow(n, 1, 1, 0, None, None, None, None,
                            ("both_zero",))
    integral = config.is_integral
    if u == 0 or v == 0:
        flags.append("one_zero")
    elif not integral:
        flags.append("rational_data")
    digits_u = digit_count(u.numerator) if u != 0 else 1
    digits_v = digit_count(v.numerator) if v != 0 else 1
    g, fin = _finite_part(u, v)
    # a zero argument has v+ = +infinity at every place: only the other counts
    nonzero = [w for w in (u, v) if w]
    log_gcd = fin + min(max(0.0, -float(log_abs(w))) for w in nonzero)
    excl = fin - _excluded_sum(nonzero[0], nonzero[-1], config.place_exclusions)
    gcd_val = g if integral else None
    ratio = None
    if "one_zero" not in flags:
        ratio = log_gcd / d**n
    return GcdSeriesRow(n, digits_u, digits_v, gcd_val, log_gcd, ratio,
                        fin, excl, tuple(flags))


def iter_gcd_series_rows(config: GcdSeriesConfig):
    """Yield rows incrementally for n = 0, 1, ...; stops early (after
    yielding everything completed) when the orbit digit budget runs out."""
    d = config.degree
    pa, pb = config.a, config.b
    spent = 0
    n = 0
    while n <= config.n_max:
        yield _series_row(config, n, pa, pb, d)
        if n == config.n_max:
            return
        pa = evaluate(config.f, pa)
        pb = evaluate(config.g, pb)
        spent += sum(digit_count(c) for c in pa.pair() + pb.pair())
        if spent > config.digit_budget:
            return
        n += 1


def gcd_series(config: GcdSeriesConfig) -> GcdSeriesReport:
    """Per-n table of gcd(f^n(a) - alpha, g^n(b) - beta) data, n = 0..n_max.

    Integral configurations carry the exact integer gcd; all
    configurations carry log_gcd (the generalized gcd height over all
    places), its finite part, the finite part away from the excluded
    places, and the ratio log_gcd / d^n.  Exceeding the orbit digit budget
    truncates the report and flags it rather than failing.
    """
    rows = list(iter_gcd_series_rows(config))
    truncated = rows[-1].n < config.n_max
    ratios = [r.ratio for r in rows if r.ratio is not None and r.n >= 1]
    summary = {
        "rows_with_ratio": len(ratios),
        "max_ratio": max(ratios) if ratios else None,
        "final_ratio": ratios[-1] if ratios else None,
        "monotone_nonincreasing_tail": all(
            x >= y for x, y in zip(ratios[len(ratios) // 2 :],
                                   ratios[len(ratios) // 2 + 1 :])
        ) if ratios else None,
    }
    return GcdSeriesReport(config, tuple(rows), truncated, rows[-1].n, summary)


# --- depth selector ---


@dataclass(frozen=True)
class DepthCertificate:
    """Witness for the chosen depth: replaying the inequality
    m_prime / d**depth * (4*hhat_a_upper + 4*hhat_b_upper + constant)
    < epsilon / 2 must succeed from these numbers alone."""

    depth: int
    m_prime: int
    degree: int
    epsilon: float
    hhat_f_a: float
    hhat_f_a_error: float
    hhat_g_b: float
    hhat_g_b_error: float
    constant: float
    lhs: float

    @property
    def bound(self) -> float:
        return self.epsilon / 2

    def replay(self) -> bool:
        lhs = (self.m_prime / self.degree**self.depth) * (
            4 * (self.hhat_f_a + self.hhat_f_a_error)
            + 4 * (self.hhat_g_b + self.hhat_g_b_error)
            + self.constant
        )
        return lhs < self.bound


_MULTIPLICITY_PRIMES = (2305843009213693951, 4611686018427387847,
                        9223372036854775783)
_EXACT_YUN_DEGREE = 64


def _fiber_max_multiplicity(f_deep: RationalMap, target: Fraction) -> int:
    """Max multiplicity over the fiber of ``target`` (including infinity).

    Exact Yun decomposition for small degrees; above that, a certified
    upper bound from mod-p multiplicity towers (minimum over several
    primes), which is the safe direction for the depth inequality.
    """
    poly, inf_mult = fiber_polynomial(f_deep, target)
    if poly.degree <= 0:
        return max(inf_mult, 1)
    affine = None
    if poly.degree > _EXACT_YUN_DEGREE:
        affine = modp_multiplicity_bound(poly.int_coeffs(), _MULTIPLICITY_PRIMES)
    if affine is None:
        affine = max_multiplicity(poly)
    return max(affine, inf_mult, 1)


def choose_depth(f: RationalMap, g: RationalMap, a, b, alpha, beta,
                 epsilon: float, depth_max: int = 16,
                 degree_budget: int = DEFAULT_DEGREE_BUDGET,
                 ) -> DepthCertificate:
    """Least depth D whose fiber multiplicities make
    M'/d^D * (4 hhat_f(a) + 4 hhat_g(b) + C) < epsilon/2.

    M' is the maximal multiplicity over the D-th fibers of alpha and beta
    (squarefree decomposition degrees plus the infinity deficit), the
    canonical heights enter through certified upper bounds, and C is the
    computable discrepancy aggregate 2 (C_f + C_g)/(d - 1).  Exceptional
    alpha or beta violate the hypothesis that makes the selector converge
    and are rejected up front.
    """
    if f.degree != g.degree or f.degree < 2:
        raise HypothesisViolationError("need equal degrees >= 2")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if is_exceptional(f, alpha):
        raise HypothesisViolationError(
            f"alpha = {alpha} is exceptional for the first map"
        )
    if is_exceptional(g, beta):
        raise HypothesisViolationError(
            f"beta = {beta} is exceptional for the second map"
        )
    d = f.degree
    tol = min(1e-8, epsilon / 100)
    ha = canonical_height(f, a, tol)
    hb = canonical_height(g, b, tol)
    fl = _context(53)                 # the sums round once, to float precision
    c_aggregate = float(
        2 * fl.fadd(discrepancy_bound(f), discrepancy_bound(g)) / (d - 1)
    )
    factor_heights = (4 * float(fl.fadd(ha.value, ha.error_bound))
                      + 4 * float(fl.fadd(hb.value, hb.error_bound)) + c_aggregate)
    f_deep, g_deep = f, g
    depth = 1
    while depth <= depth_max and d**depth <= degree_budget:
        m_prime = max(_fiber_max_multiplicity(f_deep, alpha),
                      _fiber_max_multiplicity(g_deep, beta))
        lhs = m_prime / d**depth * factor_heights
        if lhs < epsilon / 2:
            return DepthCertificate(
                depth=depth, m_prime=m_prime, degree=d, epsilon=float(epsilon),
                hhat_f_a=float(ha.value), hhat_f_a_error=float(ha.error_bound),
                hhat_g_b=float(hb.value), hhat_g_b_error=float(hb.error_bound),
                constant=c_aggregate, lhs=lhs,
            )
        depth += 1
        if d**depth <= degree_budget:
            f_deep = compose(f, f_deep)
            g_deep = compose(g, g_deep)
    raise BudgetExceededError(
        f"no depth within depth_max={depth_max} / degree budget "
        f"{degree_budget} satisfies the inequality"
    )


# --- index sets and arithmetic-progression structure ---


@dataclass(frozen=True)
class IndexSet:
    entries: tuple[int, ...]
    n_max: int

    def __init__(self, entries, n_max):
        ents = tuple(sorted(set(int(n) for n in entries)))
        if ents and (ents[0] < 0 or ents[-1] > n_max):
            raise DomainError("index set entries must lie in [0, n_max]")
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "n_max", int(n_max))


def large_index_set(report: GcdSeriesReport, eta: float) -> IndexSet:
    """Indices with log_gcd >= eta * d^n (rows whose gcd vanished entirely
    are excluded; the gcd(0,0) = 0 convention makes them no-data rows)."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    d = report.degree
    picked = [
        row.n for row in report.rows
        if row.log_gcd is not None and row.log_gcd >= eta * d**row.n
    ]
    return IndexSet(picked, report.last_n)


@dataclass(frozen=True)
class APStructure:
    """Window-consistent greedy cover of an index set by arithmetic
    progressions plus a finite residual.  A heuristic description of the
    window, never an asymptotic claim."""

    progressions: tuple[tuple[int, int], ...]   # (start, step), step >= 1
    residual: tuple[int, ...]
    window: int
    label: str = "window-consistent"

    def members(self) -> set[int]:
        out = set(self.residual)
        for start, step in self.progressions:
            out.update(range(start, self.window + 1, step))
        return out


def ap_structure(index_set: IndexSet, min_length: int = 3) -> APStructure:
    """Greedy minimal-modulus-first fit of eventual arithmetic progressions.

    A progression (start, step) is admissible when its whole trace
    {start + k*step} inside the window stays inside the set (no
    overcount), runs to the window's end, and has at least ``min_length``
    members; moduli are scanned up to sqrt(window).  Leftovers land in the
    finite residual, so the reconstruction always reproduces the set
    exactly within the window.
    """
    window = index_set.n_max
    member = set(index_set.entries)
    todo = set(index_set.entries)
    progressions: list[tuple[int, int]] = []
    for step in range(1, math.isqrt(max(window, 1)) + 1):
        for start in sorted(todo):
            if start not in todo:
                continue
            trace = range(start, window + 1, step)
            if len(trace) < min_length:
                continue
            if all(t in member for t in trace):
                progressions.append((start, step))
                todo -= set(trace)
        if not todo:
            break
    return APStructure(tuple(progressions), tuple(sorted(todo)), window)


# --- Mobius quasi-invariance probe ---


@dataclass(frozen=True)
class MobiusProbeResult:
    max_deviation: float
    attained_sample: tuple
    attained_n: int | None
    samples_used: int
    rows_skipped: int


def inversion_deviation_bound(alpha, beta) -> float:
    """Explicit constant bounding the finite gcd-height deviation under
    x -> 1/x on both coordinates: sum over primes of
    max(v_p(a1^2 a2^2), v_p(b1^2 b2^2)) log p for alpha = a1/a2, beta = b1/b2."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    ea = _square_support(alpha)
    eb = _square_support(beta)
    total = 0.0
    for p in set(ea) | set(eb):
        total += max(ea.get(p, 0), eb.get(p, 0)) * math.log(p)
    return total


def _square_support(x: Fraction) -> dict[int, int]:
    n = abs(x.numerator) * x.denominator
    if n <= 1:
        return {}
    return {p: 2 * e for p, e in factor(n).exponents().items()}


def mobius_invariance_probe(f: RationalMap, g: RationalMap,
                            sigma: Mobius, tau: Mobius,
                            alpha, beta, samples, n_max: int,
                            digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET,
                            ) -> MobiusProbeResult:
    """Supremum over samples and 1 <= n <= n_max of
    |hgcd_fin(f_sigma^n(sigma a) - sigma alpha, g_tau^n(tau b) - tau beta)
     - hgcd_fin(f^n(a) - alpha, g^n(b) - beta)|,
    with the sample attaining it.  Rows where either side degenerates
    (orbit value at infinity, a pole of the transformation, or a double
    zero) are skipped and counted.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    f_sigma = conjugate(f, sigma)
    g_tau = conjugate(g, tau)
    sigma_alpha = sigma.apply(alpha)
    tau_beta = tau.apply(beta)
    best = -1.0
    attained = (None, None)
    used = 0
    skipped = 0
    for sample in samples:
        a, b = (ProjPoint.of(sample[0]), ProjPoint.of(sample[1]))
        sa, tb = sigma.apply(a), tau.apply(b)
        if any(pt.is_infinity for pt in (sa, tb, sigma_alpha, tau_beta)):
            skipped += 1
            continue
        orb_a = iterate(f, a, n_max, digit_budget)
        orb_b = iterate(g, b, n_max, digit_budget)
        orb_sa = iterate(f_sigma, sa, n_max, digit_budget)
        orb_tb = iterate(g_tau, tb, n_max, digit_budget)
        used += 1
        for n in range(1, n_max + 1):
            pts = (orb_a[n], orb_b[n], orb_sa[n], orb_tb[n])
            if any(pt.is_infinity for pt in pts):
                skipped += 1
                continue
            u = orb_a[n].value - alpha
            v = orb_b[n].value - beta
            us = orb_sa[n].value - sigma_alpha.value
            vs = orb_tb[n].value - tau_beta.value
            if (u == 0 and v == 0) or (us == 0 and vs == 0):
                skipped += 1
                continue
            dev = abs(_finite_part(us, vs)[1] - _finite_part(u, v)[1])
            if dev > best:
                best = dev
                attained = (sample, n)
    if used == 0 or best < 0:
        raise DomainError("no usable samples for the Mobius probe")
    return MobiusProbeResult(best, attained[0], attained[1], used, skipped)
