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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import count, zip_longest

from .errors import BudgetExceededError, DomainError, HypothesisViolationError
from .exact import int_gcd, log_abs, valuation
from .heights import PlaceSet, arch_gcd_term, canonical_height, discrepancy_bound
from .maps import (_LOG10_2, DEFAULT_ORBIT_DIGIT_BUDGET, ProjPoint, RationalMap,
                   digit_count, evaluate, iterate, orbit)  # perfbench checks evaluate here
from .polys import (_derivative, _mul, _reduce, _sub, _unit_mod, _yun, exact_div,
                    primitive_gcd, trim)
from .classify import is_exceptional


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


def _excluded_sum(g: int, places: PlaceSet) -> float:
    # g > 0 is the gcd of the numerators in lowest terms, so v_p(g) is the
    # min of the two rationals' v_p wherever that min is positive
    total = 0.0
    for p in places:
        if g % p == 0:
            total += valuation(p, g) * float(log_abs(p))
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
    excl = fin - _excluded_sum(g, config.place_exclusions)
    gcd_val = g if integral else None
    ratio = None
    if "one_zero" not in flags:
        # the exact quotient, rounded once: d**n as a float overflows past 1.8e308
        ratio = float(Fraction(log_gcd) / d**n)
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
    """Witness for the chosen depth: lhs = m_prime / d**depth * bracket <
    epsilon / 2 replays from these numbers alone, exactly (epsilon as the
    value of its float).  The height errors are canonical_height's
    error_bound, which still carries its heuristic rounding allowance."""

    depth: int
    m_prime: int
    degree: int
    epsilon: float
    hhat_f_a: Fraction
    hhat_f_a_error: Fraction
    hhat_g_b: Fraction
    hhat_g_b_error: Fraction
    constant: Fraction

    @property
    def bound(self) -> float:
        return self.epsilon / 2

    @cached_property
    def bracket(self) -> Fraction:
        """4 (hhat_f_a + its error + hhat_g_b + its error) + constant, summed in
        ints over one denominator: a Fraction normalizes after every step."""
        terms = ((4, self.hhat_f_a), (4, self.hhat_f_a_error), (4, self.hhat_g_b),
                 (4, self.hhat_g_b_error), (1, self.constant))
        den = math.lcm(*(x.denominator for _, x in terms))
        return Fraction(sum(w * x.numerator * (den // x.denominator) for w, x in terms), den)

    @property
    def lhs(self) -> Fraction:
        return self.m_prime * self.bracket / self.degree**self.depth

    def replay(self) -> bool:
        return self._test()(self.m_prime, self.degree**self.depth)

    def _test(self):
        """lhs < epsilon/2 as a test of the ints M' and d^D, cross-multiplied
        once by the denominators: each depth the search tries is one int compare."""
        num, den = self.epsilon.as_integer_ratio()       # epsilon/2 = num / (2 den)
        left, right = self.bracket.numerator * 2 * den, num * self.bracket.denominator
        return lambda m_prime, power: m_prime * left < right * power


# The depth selector's one budget: the decimal digits of the exact critical
# classes (a step costs about d^2 times the last, so it bounds the next step),
# plus d per depth, which bounds M' <= d^D and a walk of small classes (a cycle
# through the target with gain near d^p needs about p d ln(2F/epsilon) depths).
# A replay that spans many depths checks it as it goes.
_PORTRAIT_DIGIT_CAP = 100_000

_WALK_PRIME = (1 << 61) - 1     # screens the critical walk; any prime is correct


def _form_at(cs, x: list[int], y: list[int], p: list[int]) -> list[int]:
    # sum cs[i] x^i y^(k-i), k = len(cs) - 1, in Z[t]/(P) for a monic P, by
    # Horner's rule reduced as it multiplies, so that no list grows past
    # deg P.  A constant Y (every class of a polynomial map) keeps its powers
    # as ints, and Horner's rule starts at the top nonzero cs[m], as
    # cs[m] y^(k-m); a constant X as well (every class of degree 1) makes the
    # whole form one int
    if len(y) > 1:
        ypows = [y]
        for _ in range(len(cs) - 2):
            ypows.append(_mul(ypows[-1], y, p))
        acc = [cs[-1]]
        for c, ypow in zip(reversed(cs[:-1]), ypows):
            acc = [u + c * v for u, v in zip_longest(_mul(acc, x, p), ypow, fillvalue=0)]
        return trim(acc)
    m = len(cs) - 1
    while not cs[m]:
        m -= 1
    y = y[0] if y else 0
    ypow = y ** (len(cs) - 1 - m)
    if len(x) <= 1:
        x, acc = (x[0] if x else 0), cs[m] * ypow
        for c in reversed(cs[:m]):
            ypow *= y
            acc = acc * x + c * ypow
        return [acc] if acc else []
    acc = [cs[m] * ypow]
    for c in reversed(cs[:m]):
        ypow *= y
        acc = _mul(acc, x, p) or [0]
        acc[0] += c * ypow
    return trim(acc)


def _critical_walk(f: RationalMap, target: Fraction):
    """Yield (M'_D, bits) for D = 1, 2, ...: the largest ramification index
    over the fiber f^-D(target), and the total bit length of the exact
    coordinates of the critical classes, as of the depth each was last
    decided at.

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

    Each depth steps a copy of the pair modulo one prime q.  If the hit
    form v X - u Y (target u/v) is a unit modulo (P, q), Res(P, v X - u Y)
    is nonzero and no root of P meets the target: the class waits.
    Otherwise its exact pair is replayed from the depth it was last decided
    at, split against the critical classes at every depth and tested for a
    hit at the last one only, and each piece restarts its copy mod q.
    While q divides no step's content, the copy is the exact pair times a
    unit; a content that q divides makes it 0, which is replayed too, so q
    costs time but never decides M'.

    >>> walk = _critical_walk(RationalMap([-1, 0, 1]), Fraction(0))
    >>> [m for m, _ in (next(walk) for _ in range(6))]     # x^2 - 1 at 0
    [1, 2, 2, 4, 4, 8]
    """
    a, b = f.forms
    wronskian = _sub(_mul(_derivative(a), b), _mul(a, _derivative(b)))
    critical = [(q, k + 1) for q, k in _yun(wronskian)]
    classes = []    # (P, X, Y, product of e): exact at the last decided depth
    for q, e in critical:
        # monic, so that reducing mod P never scales X and Y apart
        n, lc = len(q) - 1, q[-1]
        monic = [c * lc ** (n - 1 - i) for i, c in enumerate(q[:-1])] + [1]
        classes.append((monic, _reduce([0, 1], monic), [lc], e))
    e_inf = 2 * f.degree - len(wronskian)      # 2d - 1 - deg W
    if e_inf > 1:
        critical.append(((1, 0), e_inf))        # the form Y vanishes at infinity
        classes.append(([0, 1], [1], [], e_inf))
    u, v = target.numerator, target.denominator
    hit_form, prime = (-u, v), _WALK_PRIME      # v X - u Y

    def mod(r):
        return trim([c % prime for c in r])

    def restart(pieces):
        # each class with its pair mod q and the depths it has waited since
        return [(p, x, y, prod, mod(x), mod(y), 0) for p, x, y, prod in pieces]

    walked, best = restart(classes), 1
    for depth in count(1):
        kept = []
        for p, x, y, prod, xq, yq, lag in walked:
            xq, yq = mod(_form_at(a, xq, yq, p)), mod(_form_at(b, xq, yq, p))
            if _unit_mod([v * s - u * w for s, w in zip_longest(xq, yq, fillvalue=0)],
                         p, prime):
                kept.append((p, x, y, prod, xq, yq, lag + 1))
                continue
            degree, pieces = len(p) - 1, [(p, x, y, prod)]
            for left in range(lag, -1, -1):     # exact steps after this one
                stepped = []
                for p, x, y, prod in pieces:
                    # (X, Y) -> (F(X, Y), G(X, Y)) / content, all in Z[t]/(P)
                    x, y = _form_at(a, x, y, p), _form_at(b, x, y, p)
                    g = math.gcd(*x, *y)
                    if g > 1:
                        x, y = [c // g for c in x], [c // g for c in y]
                    if not left and len(primitive_gcd(p, _form_at(hit_form, x, y, p))) > 1:
                        best = max(best, prod)
                    rest = p
                    for q, e in critical:
                        h = primitive_gcd(rest, _form_at(q, x, y, p))     # rest divides P
                        if len(h) > 1:
                            # a primitive factor of the monic P has lc +-1 (Gauss): h is monic
                            h = h if h[-1] > 0 else [-c for c in h]
                            rest = exact_div(rest, h)
                            stepped.append((h, _reduce(x[:], h), _reduce(y[:], h), prod * e))
                    if len(rest) > 1:
                        stepped.append((rest, _reduce(x, rest), _reduce(y, rest), prod))
                pieces = stepped
                digits = int(sum(c.bit_length() for _, x, y, _ in pieces
                                 for c in x + y) * _LOG10_2) + 1
                if digits > _PORTRAIT_DIGIT_CAP:
                    raise BudgetExceededError(
                        f"replaying a critical class of degree {degree} exactly, its "
                        f"coordinates reached {digits} digits at depth {depth - left} "
                        f"(cap {_PORTRAIT_DIGIT_CAP})", digits=digits, steps=depth - left)
            kept.extend(restart(pieces))
        walked = kept
        yield best, sum(c.bit_length() for _, x, y, *_ in walked for c in x + y)


def choose_depth(f: RationalMap, g: RationalMap, a, b, alpha, beta,
                 epsilon: float) -> DepthCertificate:
    """Least depth D whose fiber multiplicities make
    M'/d^D * (4 hhat_f(a) + 4 hhat_g(b) + C) < epsilon/2.

    M' is the largest ramification index over the D-th fibers of alpha and
    beta, read exactly from the forward orbits of the critical points
    (:func:`_critical_walk`), the heights as value + error_bound at tolerance
    1e-8 (error_bound keeps its heuristic rounding term), and C = 2 (C_f +
    C_g)/(d - 1), each C_f rounded up by :func:`discrepancy_bound`.  All are exact
    and :meth:`DepthCertificate.replay` decides, so any finite epsilon > 0 is
    searched.  Exceptional alpha or beta violate the hypothesis that makes
    the selector converge and are rejected up front.

    The search stops at that D, or with :class:`BudgetExceededError` when
    the digits of the exact critical classes, plus d per depth, pass a cap,
    or when one exact replay passes it.  It needs no depth bound, as
    M'_D/d^D -> 0 for a target that is not exceptional: a critical point
    meets a chain x, ..., f^(D-1)(x) into the target at most once unless it
    lies on a cycle through the target, so the points off such cycles leave
    M' bounded; a cycle through it of period p gains at most E = prod e <
    d^p per period, since by Riemann-Hurwitz at most two points are totally
    ramified and a cycle of them would make the target exceptional
    (Silverman, GTM 241).
    """
    if f.degree != g.degree or f.degree < 2:
        raise HypothesisViolationError("need equal degrees >= 2")
    if not 0 < epsilon < math.inf:
        raise DomainError("epsilon must be finite and positive")
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
    ha, hb = canonical_height(f, a, 1e-8), canonical_height(g, b, 1e-8)
    constant = 2 * (discrepancy_bound(f) + discrepancy_bound(g)) / (d - 1)
    # the certificate at depth 0, where M' = d^D = 1
    cert = DepthCertificate(0, 1, d, float(epsilon), ha.value, ha.error_bound,
                            hb.value, hb.error_bound, constant)
    holds, power = cert._test(), 1
    walks = zip(_critical_walk(f, alpha), _critical_walk(g, beta))
    for depth, ((m_f, bits_f), (m_g, bits_g)) in enumerate(walks, 1):
        m_prime, power = max(m_f, m_g), power * d
        if holds(m_prime, power):
            return replace(cert, depth=depth, m_prime=m_prime)
        digits = int((bits_f + bits_g) * _LOG10_2) + 1 + d * depth
        if digits > _PORTRAIT_DIGIT_CAP:
            m_text = m_prime if m_prime.bit_length() <= 10_000 else \
                f"an integer of {digit_count(m_prime)} digits"    # str() stops at 4300
            lhs = float(replace(cert, depth=depth, m_prime=m_prime).lhs)
            raise BudgetExceededError(
                f"no depth up to {depth} satisfies the inequality: M' = {m_text} gives "
                f"lhs {lhs} >= epsilon/2 = {epsilon / 2}; the critical portraits, with "
                f"{d} digits per depth, reached {digits} digits (cap {_PORTRAIT_DIGIT_CAP})",
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
    max(v_p(a1^2 a2^2), v_p(b1^2 b2^2)) log p for alpha = a1/a2, beta = b1/b2,
    which is 2 log lcm(|a1 a2|, |b1 b2|), a zero product counting as 1."""
    ea, eb = (abs(x.numerator * x.denominator) or 1 for x in map(Fraction, (alpha, beta)))
    return 2 * float(log_abs(math.lcm(ea, eb)))


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
