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
from itertools import zip_longest

from .errors import BudgetExceededError, DomainError, HypothesisViolationError
from .exact import int_gcd, log_abs, valuation
from .heights import PlaceSet, arch_gcd_term, canonical_height, discrepancy_bound
from .maps import (_LOG10_2, DEFAULT_ORBIT_DIGIT_BUDGET, ProjPoint, RationalMap,
                   digit_count, evaluate, iterate, orbit)  # perfbench checks evaluate here
from .polys import _derivative, _pseudo_rem, _yun, exact_div, primitive_gcd, trim
from .classify import _exponent_vector, is_exceptional


@dataclass(frozen=True)
class GcdSeriesConfig:
    """One gcd series: maps, starting points, targets, last index, primes
    dropped from hgcd_excluded, orbit digit budget.  It draws no random
    numbers and has no epsilon; only :func:`choose_depth` reads one."""

    f: RationalMap
    g: RationalMap
    a: ProjPoint
    b: ProjPoint
    alpha: Fraction
    beta: Fraction
    n_max: int
    place_exclusions: PlaceSet = field(default_factory=PlaceSet)
    digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "a", ProjPoint.of(self.a))
        object.__setattr__(self, "b", ProjPoint.of(self.b))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
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
                and self.a.pair()[1] == 1 and self.b.pair()[1] == 1
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


def _minus(point: ProjPoint, alpha: Fraction) -> tuple[int, int]:
    """point - alpha for a finite point, as (numerator, denominator) in
    lowest terms.  For point = r/s and alpha = p/q, N = r q - p s has
    gcd(N, s) = gcd(N, q) = gcd(q, s), so gcd(N, s q) = gcd(N, gcd(q, s)^2)."""
    r, s = point.pair()
    p, q = alpha.numerator, alpha.denominator
    num, den = r * q - p * s, s * q
    t = math.gcd(q, s)
    g = math.gcd(num, t * t) if t > 1 else 1
    return num // g, den // g


def _finite_part(x: int, y: int) -> tuple[int, float]:
    """(g, log g) for g the gcd of the numerators x and y, not both zero:
    the finite part of hgcd, with v+(0) = +infinity everywhere."""
    g = int_gcd(x, y)
    return g, float(log_abs(g))


def _excluded_sum(x: int, y: int, places: PlaceSet) -> float:
    # x, y: nonzero numerators in lowest terms, so v_p of the rational is
    # v_p of its numerator wherever it is positive
    total = 0.0
    for p in places:
        if x % p:
            continue
        m = min(valuation(p, x), valuation(p, y))
        if m:
            total += m * float(log_abs(p))
    return total


def _series_row(config: GcdSeriesConfig, n: int, pa: ProjPoint, pb: ProjPoint,
                d: int) -> GcdSeriesRow:
    if pa.is_infinity or pb.is_infinity:
        return GcdSeriesRow(n, None, None, None, None, None, None, None,
                            ("infinite_orbit_value",))
    u = _minus(pa, config.alpha)
    v = _minus(pb, config.beta)
    flags: list[str] = []
    if u[0] == 0 and v[0] == 0:
        # gcd(0,0) = 0 by convention; excluded from ratio statistics
        return GcdSeriesRow(n, 1, 1, 0, None, None, None, None,
                            ("both_zero",))
    integral = config.is_integral
    if u[0] == 0 or v[0] == 0:
        flags.append("one_zero")
    elif not integral:
        flags.append("rational_data")
    g, fin = _finite_part(u[0], v[0])
    log_gcd = fin + float(arch_gcd_term(u, v))
    # a zero argument has v+ = +infinity at every place: only the other counts
    excl = fin - _excluded_sum(u[0] or v[0], v[0] or u[0], config.place_exclusions)
    gcd_val = g if integral else None
    ratio = None
    if "one_zero" not in flags:
        ratio = log_gcd / d**n
    return GcdSeriesRow(n, digit_count(u[0]), digit_count(v[0]), gcd_val, log_gcd,
                        ratio, fin, excl, tuple(flags))


def iter_gcd_series_rows(config: GcdSeriesConfig):
    """Yield rows incrementally for n = 0, 1, ...; stops early (after
    yielding everything completed) when the orbit digit budget, charged
    jointly for both orbits from their starts on, runs out."""
    walk = orbit([(config.f, config.a), (config.g, config.b)], config.n_max,
                 config.digit_budget)
    for n in range(config.n_max + 1):
        try:
            pa, pb = next(walk)
        except BudgetExceededError:
            return
        yield _series_row(config, n, pa, pb, config.degree)


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


# Cap on the decimal digits of the two critical portraits.  Their
# coordinates grow by a factor of about d per depth, and one more step
# costs about d^2 times the last, so the cap bounds the next step too.
_PORTRAIT_DIGIT_CAP = 100_000


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _form_at(cs, x: list[int], y: list[int]) -> list[int]:
    # sum cs[i] x^i y^(k-i) in Z[t], k = len(cs) - 1, by Horner's rule
    acc, ypow = [cs[-1]], [1]
    for c in reversed(cs[:-1]):
        ypow = _mul(ypow, y)
        acc = [p + c * q for p, q in zip_longest(_mul(acc, x), ypow, fillvalue=0)]
    return trim(acc)


def _critical_walk(f: RationalMap, target: Fraction):
    """Yield (M'_D, bits) for D = 1, 2, ...: the largest ramification index
    over the fiber f^-D(target), and the total bit length of the critical
    portrait's coordinates at depth D.

    Ramification indices multiply along orbits and only critical points
    have e > 1 (Silverman, The Arithmetic of Dynamical Systems), so M'_D is
    the largest product e_f(c) e_f(f(c)) ... e_f(f^(m-1)(c)) over critical
    c with f^m(c) = target, m <= D.  The critical points are grouped in
    classes: the k-fold factors of the Wronskian F'G - FG' (e = k + 1), and
    infinity when its degree drops.  A class P is made monic in t = lc x,
    and its point walks as the homogeneous pair (X, Y) in Z[t]/(P).  When
    only some roots of P meet a test, gcds split P (dynamic evaluation,
    Della Dora, Dicrescenzo and Duval 1985), so no factorization and no
    polynomial of degree d^D is needed.

    >>> walk = _critical_walk(RationalMap([-1, 0, 1]), Fraction(0))
    >>> [m for m, _ in (next(walk) for _ in range(6))]     # x^2 - 1 at 0
    [1, 2, 2, 4, 4, 8]
    """
    a, b = f.forms
    wronskian = trim([p - q for p, q in zip(_mul(_derivative(a), b),
                                            _mul(a, _derivative(b)))])
    critical = [(q, k + 1) for q, k in _yun(wronskian)]
    classes = []
    for q, e in critical:
        # monic, so that reducing mod P never scales X and Y apart
        n, lc = len(q) - 1, q[-1]
        monic = [c * lc ** (n - 1 - i) for i, c in enumerate(q[:-1])] + [1]
        classes.append((monic, _pseudo_rem([0, 1], monic), [lc], e))
    e_inf = 2 * f.degree - len(wronskian)      # 2d - 1 - deg W
    if e_inf > 1:
        critical.append(((1, 0), e_inf))        # the form Y vanishes at infinity
        classes.append(([0, 1], [1], [], e_inf))
    hit_form = (-target.numerator, target.denominator)     # v X - u Y for u/v
    best = 1
    while True:
        stepped = []
        for p, x, y, prod in classes:
            x, y = _pseudo_rem(_form_at(a, x, y), p), _pseudo_rem(_form_at(b, x, y), p)
            g = math.gcd(*x, *y)
            x, y = [c // g for c in x], [c // g for c in y]
            if len(primitive_gcd(p, _form_at(hit_form, x, y))) > 1:
                best = max(best, prod)
            rest = p
            for q, e in critical:
                h = primitive_gcd(rest, _form_at(q, x, y))
                if len(h) > 1:
                    h = h if h[-1] > 0 else [-c for c in h]
                    rest = exact_div(rest, h)
                    stepped.append((h, _pseudo_rem(x, h), _pseudo_rem(y, h), prod * e))
            if len(rest) > 1:
                stepped.append((rest, _pseudo_rem(x, rest), _pseudo_rem(y, rest), prod))
        classes = stepped
        yield best, sum(c.bit_length() for _, x, y, _ in classes for c in x + y)


def choose_depth(f: RationalMap, g: RationalMap, a, b, alpha, beta,
                 epsilon: float, depth_max: int = 16) -> DepthCertificate:
    """Least depth D whose fiber multiplicities make
    M'/d^D * (4 hhat_f(a) + 4 hhat_g(b) + C) < epsilon/2.

    M' is the largest ramification index over the D-th fibers of alpha and
    beta, read exactly from the forward orbits of the critical points
    (:func:`_critical_walk`), the canonical heights enter through certified
    upper bounds, and C is the computable discrepancy aggregate
    2 (C_f + C_g)/(d - 1).  Exceptional alpha or beta violate the
    hypothesis that makes the selector converge and are rejected up front.
    The search stops with :class:`BudgetExceededError` at ``depth_max`` or
    when the critical portraits pass a fixed digit cap.
    """
    if f.degree != g.degree or f.degree < 2:
        raise HypothesisViolationError("need equal degrees >= 2")
    if not 0 < epsilon < math.inf:
        raise DomainError("epsilon must be finite and positive")
    if depth_max < 1:
        raise DomainError("depth_max must be >= 1")
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
    # each sum rounds once, to a float
    c_aggregate = 2 * float(discrepancy_bound(f) + discrepancy_bound(g)) / (d - 1)
    factor_heights = (4 * float(ha.value + ha.error_bound)
                      + 4 * float(hb.value + hb.error_bound) + c_aggregate)
    walks = zip(_critical_walk(f, alpha), _critical_walk(g, beta))
    for depth, ((m_f, bits_f), (m_g, bits_g)) in zip(range(1, depth_max + 1), walks):
        m_prime = max(m_f, m_g)
        lhs = m_prime / d**depth * factor_heights
        if lhs < epsilon / 2:
            return DepthCertificate(
                depth=depth, m_prime=m_prime, degree=d, epsilon=float(epsilon),
                hhat_f_a=float(ha.value), hhat_f_a_error=float(ha.error_bound),
                hhat_g_b=float(hb.value), hhat_g_b_error=float(hb.error_bound),
                constant=c_aggregate, lhs=lhs,
            )
        digits = int((bits_f + bits_g) * _LOG10_2) + 1
        if digits > _PORTRAIT_DIGIT_CAP:
            break
    raise BudgetExceededError(
        f"no depth up to {depth} satisfies the inequality: M' = {m_prime} gives "
        f"lhs {lhs} >= epsilon/2 = {epsilon / 2}; the critical portraits reached "
        f"{digits} digits (cap {_PORTRAIT_DIGIT_CAP}, depth_max {depth_max})",
        digits=digits, steps=depth,
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
    if not 0 < eta < math.inf:
        raise DomainError("eta must be finite and positive")
    d, eta = report.degree, Fraction(eta)   # exact: d**n may not fit a float
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


_AP_MIN_LENGTH = 3   # fewest members of an admissible progression


def ap_structure(index_set: IndexSet) -> APStructure:
    """Greedy minimal-modulus-first fit of eventual arithmetic progressions.

    A progression (start, step) is admissible when its whole trace
    {start + k*step} inside the window stays inside the set (no
    overcount), runs to the window's end, and has at least _AP_MIN_LENGTH
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
            if len(trace) < _AP_MIN_LENGTH:
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
    # v_p(x1^2 x2^2) = 2 |v_p(x)|; primes go in in increasing order, which
    # fixes the set's iteration order and so the float sum's
    ea, eb = ({p: 2 * abs(e) for p, e in sorted(_exponent_vector(Fraction(x)).items())}
              for x in (alpha, beta))
    total = 0.0
    for p in set(ea) | set(eb):
        total += max(ea.get(p, 0), eb.get(p, 0)) * float(log_abs(p))
    return total


def mobius_invariance_probe(f: RationalMap, g: RationalMap,
                            sigma: RationalMap, tau: RationalMap,
                            alpha, beta, samples, n_max: int,
                            digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET,
                            ) -> MobiusProbeResult:
    """Supremum over samples and 1 <= n <= n_max of
    |hgcd_fin(f_sigma^n(sigma a) - sigma alpha, g_tau^n(tau b) - tau beta)
     - hgcd_fin(f^n(a) - alpha, g^n(b) - beta)|,
    with the sample attaining it, for Mobius transformations sigma and tau
    (maps of degree 1; another degree is a DomainError, and so is a sigma
    or tau that sends its target alpha or beta to infinity).  Rows where either
    side degenerates (orbit value at infinity, a pole of the
    transformation, or a double zero) are skipped and counted.

    As f_sigma = sigma o f o sigma^-1 has f_sigma^n(sigma a) = sigma(f^n(a))
    exactly, sigma and tau map the orbits of f and g, which alone are
    charged to ``digit_budget``; their images are a few digits longer.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if sigma.degree != 1 or tau.degree != 1:
        raise DomainError("the Mobius probe needs degree-1 maps, got degrees "
                          f"{sigma.degree} and {tau.degree}")
    sigma_alpha = sigma(alpha)
    tau_beta = tau(beta)
    for name, target, image in (("sigma", alpha, sigma_alpha), ("tau", beta, tau_beta)):
        if image.is_infinity:
            raise DomainError(f"{name} sends the target {target} to infinity: "
                              "the Mobius probe needs a finite image")
    best = -1.0
    attained = (None, None)
    used = 0
    skipped = 0
    for sample in samples:
        a, b = (ProjPoint.of(sample[0]), ProjPoint.of(sample[1]))
        sa, tb = sigma(a), tau(b)
        if sa.is_infinity or tb.is_infinity:
            skipped += 1
            continue
        orb_a = iterate(f, a, n_max, digit_budget)
        orb_b = iterate(g, b, n_max, digit_budget)
        orb_sa = [sigma(pt) for pt in orb_a]
        orb_tb = [tau(pt) for pt in orb_b]
        used += 1
        for n in range(1, n_max + 1):
            pts = (orb_a[n], orb_b[n], orb_sa[n], orb_tb[n])
            if any(pt.is_infinity for pt in pts):
                skipped += 1
                continue
            u, v = _minus(orb_a[n], alpha)[0], _minus(orb_b[n], beta)[0]
            us = _minus(orb_sa[n], sigma_alpha.value)[0]
            vs = _minus(orb_tb[n], tau_beta.value)[0]
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
