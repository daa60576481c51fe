import ast
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitgcd
from orbitgcd import _gmp, exact
from orbitgcd.errors import DomainError, PartialFactorizationError
from orbitgcd.exact import (_GMP_BITS, LogValue, Place, Real, factor,
                            int_divmod, int_gcd, int_mul, is_prime, log_abs,
                            log_fixed, next_prime, v_plus, valuation)
from orbitgcd.serialize import _digits_by_division, int_to_str


def trial_division_oracle(n):
    """Independent factorization: plain incremental trial division."""
    assert n != 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return sign, tuple(out)


def test_factor_spec_examples():
    assert factor(1).sign == 1 and factor(1).factors == ()
    assert factor(15624).factors == trial_division_oracle(15624)[1]
    assert factor(15624).factors == ((2, 3), (3, 2), (7, 1), (31, 1))
    neg = factor(-24)
    assert neg.sign == -1 and neg.factors == ((2, 3), (3, 1))


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor(0)


def test_factor_roundtrip_random_64bit():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(-(2**64), 2**64)
        if n == 0:
            continue
        fac = factor(n)
        assert fac.value() == n
        assert all(is_prime(p) for p, _ in fac.factors)
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)


def test_factor_matches_trial_division_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        sign, fac = trial_division_oracle(n)
        assert factor(n).factors == fac


def test_factor_budget_exhaustion_reports_partial():
    hard = (2**61 - 1) * (2305843009213693967) * 12
    with pytest.raises(PartialFactorizationError) as err:
        factor(hard, budget=10)
    assert err.value.cofactor is not None
    assert err.value.cofactor > 1
    recovered = err.value.partial.value() * err.value.cofactor
    assert recovered == hard


def test_is_prime_edges():
    assert not is_prime(1) and is_prime(2) and is_prime(3)
    assert not is_prime(561)          # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)    # Mersenne composite
    assert next_prime(10**6) == 1000003


def test_valuation_examples():
    assert valuation(5, Fraction(1, 25)) == -2
    assert valuation(3, 18) == 2
    assert valuation(7, Fraction(10, 3)) == 0
    with pytest.raises(DomainError):
        valuation(3, 0)
    # p = 1 divides everything forever; p = 0 divides by zero
    for p in (1, 0):
        with pytest.raises(DomainError):
            valuation(p, 5)


def test_valuation_additivity_random():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)


def test_v_plus_adopted_convention():
    # v+ is large when x is p-adically small (divisible by p); at the
    # archimedean place it is max(0, -log|x|)
    assert v_plus(Place.finite(3), 9).finite == {3: Fraction(2)}
    assert v_plus(Place.finite(3), Fraction(1, 9)).finite == {}
    assert v_plus(Place.finite(5), 25).finite == {5: Fraction(2)}
    assert v_plus(Place.finite(5), Fraction(1, 25)).finite == {}
    arch = v_plus(Place.arch(), Fraction(1, 2))
    ref = mpmath.MPContext()
    ref.prec = 200
    assert abs(ref.mpf(arch.arch) - ref.log(2)) < ref.mpf(2) ** -100
    assert v_plus(Place.arch(), 2).arch == 0
    with pytest.raises(DomainError):
        v_plus(Place.finite(3), 0)


def test_v_plus_unit_invariance():
    # multiplying by a p'-unit leaves v_plus at p unchanged
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
        unit_candidates = [q for q in (2, 3, 5, 7, 11) if q != p]
        u = Fraction(rng.choice(unit_candidates)) ** rng.randint(-3, 3)
        assert v_plus(Place.finite(p), x).finite == v_plus(Place.finite(p), x * u).finite


def test_place_validation():
    with pytest.raises(DomainError):
        Place.finite(6)
    assert Place.arch().is_finite is False
    assert Place.finite(7).prime == 7


def test_logvalue_arithmetic_and_equality():
    a = LogValue.from_finite({2: 3, 3: 1})
    b = LogValue.from_finite({2: -3, 5: 2})
    s = a + b
    assert s.finite == {3: Fraction(1), 5: Fraction(2)}   # zero entry dropped
    assert (a - a).finite == {}
    scaled = a.scale(Fraction(1, 2))
    assert scaled.finite == {2: Fraction(3, 2), 3: Fraction(1, 2)}
    total = float(a.total())
    assert abs(total - (3 * math.log(2) + math.log(3))) < 1e-12


def test_logvalue_arch_arithmetic_keeps_full_precision():
    # the archimedean term is an exact rational: sums, negation and scaling
    # lose nothing, so a value minus itself is exactly zero
    a = v_plus(Place.arch(), Fraction(2, 3)) + LogValue.from_finite({2: 1})
    assert (a - a).arch == 0 and (a - a).finite == {}
    assert (-a).arch + a.arch == 0
    assert a.arch.denominator == 2**128 and a.arch.numerator.bit_length() > 100
    assert a.scale(Fraction(1, 3)).scale(3) == a
    third = LogValue({3: 1}, Fraction(1, 3))
    assert type(third.arch) is Real and third.arch == Fraction(1, 3)
    assert (third + third + third).arch == 1
    assert LogValue({}, 0.5).arch == Fraction(1, 2)
    # total() rounds c_p log p plus the archimedean term once, to 2^-128
    ref = mpmath.MPContext()
    ref.prec = 400
    total = third.total()
    assert total.denominator <= 2**128
    assert abs(ref.mpf(total) - ref.log(3) - ref.mpf(1) / 3) <= ref.mpf(2) ** -127


def log_fixed_cases(rng):
    """(n, shift) pairs: n from 1 to 10^5 bits, shifts negative, zero and
    positive, and n * 2^shift at or just off 1, where the log cancels."""
    cases = [(1, 0), (1, -1), (1, 5), (2**64, -64), (2**64 + 1, -64), (2**64 - 1, -64),
             (3**20000, 0), (3**20000, -31699)]
    for bits in (1, 2, 53, 200, 3000, 10**5):
        for shift in (0, -bits - 3, rng.randint(-2 * bits, 2 * bits), 7 * bits):
            cases.append((rng.getrandbits(bits) | 1 << (bits - 1), shift))
    return cases


@pytest.mark.parametrize("prec", [53, 128, 460, 2000])
def test_log_fixed_matches_mpmath_at_twice_the_precision(prec):
    # within 1/2 + 2^-9 units of 2^-prec of a log taken at 2 prec bits
    # plus the bits of its integer part, in a private context
    ref = mpmath.MPContext()
    for n, shift in log_fixed_cases(random.Random(prec)):
        ref.prec = 2 * prec + (n.bit_length() + abs(shift)).bit_length() + 8
        exact_units = ref.ldexp(ref.log(ref.ldexp(ref.mpf(n), shift)), prec)
        got = log_fixed(n, prec, shift)
        assert abs(got - exact_units) <= 0.5 + 2**-9, (n.bit_length(), shift)
    assert log_fixed(1, prec) == 0 and log_fixed(2**40, prec, -40) == 0
    for n in (0, -3):
        with pytest.raises(ValueError):
            log_fixed(n, prec)


@pytest.mark.parametrize("prec", [2300, 4000])
def test_log_fixed_beyond_2000_bits_and_just_off_1(prec):
    # n 2^shift within 3 2^-b of 1, where the log is about +-2^-b: from
    # above (m near 1) and from below (m near 2 and e = -1, so the series
    # and e ln 2 cancel), and a few generic cases past 2000 bits
    ref = mpmath.MPContext()
    rng = random.Random(prec)
    cases = [(2**b + d, -b) for b in (8, 100, 1000, 3000, 5000) for d in (-3, -1, 1, 3)]
    cases += [(rng.getrandbits(bits) | 1, rng.randint(-bits, bits))
              for bits in (1, 64, 3000, 10**4)]
    for n, shift in cases:
        ref.prec = 2 * prec + (n.bit_length() + abs(shift)).bit_length() + 8
        exact_units = ref.ldexp(ref.log(ref.ldexp(ref.mpf(n), shift)), prec)
        assert abs(log_fixed(n, prec, shift) - exact_units) <= 0.5 + 2**-9, (n, shift)


def test_float_of_a_sum_of_reals_rounds_once():
    # float() rounds the exact sum once, to nearest and ties to even
    cases = [((1, Fraction(1, 2**53)), 1.0),                                 # a tie, to even
             ((1, Fraction(1, 2**53), Fraction(1, 2**400)), 1 + 2.0**-52),   # just past it
             ((Fraction(2**200 + 1, 2**200), -1), 2.0**-200),
             ((1 + Fraction(3, 2**53), Fraction(-1, 2**400)), 1 + 2.0**-52)]  # just below one
    for parts, expected in cases:
        reals = [Real(p) for p in parts]
        total = sum(reals[1:], reals[0])
        assert type(total) is Fraction and float(total) == expected, parts


def fraction_valuation(p, x):
    # the Fraction path: numerator and denominator divided out separately
    x = Fraction(x)
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(2, 40), unit=st.integers(-2**200, 2**200).filter(bool),
       k=st.integers(0, 300), den=st.integers(1, 10**12))
@example(p=2, unit=1, k=0, den=1)
@example(p=2, unit=-3, k=300, den=2**40)
def test_valuation_of_an_int_matches_the_fraction_path(p, unit, k, den):
    n = unit * p**k
    assert valuation(p, n) == fraction_valuation(p, n)
    assert valuation(p, Fraction(n, den)) == fraction_valuation(p, Fraction(n, den))


def test_valuation_rejects_zero_and_small_p():
    for p, x in ((2, 0), (3, Fraction(0)), (1, 5), (0, 5)):
        with pytest.raises(DomainError):
            valuation(p, x)


def test_factor_leaves_no_module_level_prime_state():
    # factor trial-divides by one fixed tuple, the primes below 2^10, and
    # leaves larger primes to rho: inputs that once grew a process-wide
    # sieve to 10^6 rebind, add or fill no module global
    before = {k: v for k, v in vars(exact).items() if not k.startswith("__")}
    assert exact._TRIAL_PRIMES == tuple(exact.small_primes(1 << 10))
    assert exact._TRIAL_PRIMES[-1] == 1021
    assert factor(6).factors == ((2, 1), (3, 1))
    assert factor(999983 * 999979).factors == ((999979, 1), (999983, 1))
    assert factor(1000003**2).factors == ((1000003, 2),)
    assert factor(1021 * 1031**2).factors == ((1021, 1), (1031, 2))
    after = {k: v for k, v in vars(exact).items() if not k.startswith("__")}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    lock = type(threading.Lock())
    assert not any(isinstance(v, (list, dict, set, bytearray, lock)) for v in after.values())
    assert "threading" not in after
    assert [exact.small_primes(k) for k in (0, 2, 3, 12)] == [[], [], [2], [2, 3, 5, 7, 11]]


def test_factor_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)
    cases = [1, -1, 2, 6, 2**61 - 1, 999983**2, 999983 * 1000003, 65537 * 65539,
             (10**6 + 3) * 7, 3**40 * 5, 1000003**3]
    cases += [rng.randint(2, 10**k) * rng.choice((1, -1)) for k in range(2, 25)
              for _ in range(6)]
    # desk-batch's planted gcds: 2^a 3^b 5^c times a prime in [2^20, 2^28)
    cases += [2**rng.randint(0, 3) * 3**rng.randint(0, 2) * 5**rng.randint(0, 1)
              * sympy.nextprime(rng.randrange(1 << 20, 1 << 28)) for _ in range(40)]
    cases += [sympy.nextprime(10**6 + rng.randrange(10**5))
              * sympy.nextprime(10**6 - rng.randrange(10**5)) for _ in range(10)]
    cases += [sympy.nextprime(rng.randrange(2, 10**k)) ** rng.randint(2, 5)
              for k in (2, 4, 7, 9) for _ in range(3)]
    cases += [sympy.nextprime(rng.randrange(10**12, exact._PSI[-1])) for _ in range(20)]
    cases += [2 * (2**89 - 1), 37 * 41, 37**2 * 1000003, 41 * 43 * 47]
    # primes between the table's bound 2^10 and 10^6 come from rho: products
    # of two, with primes above 10^6, and powers
    mid = [sympy.nextprime(rng.randrange(1 << 10, 10**6)) for _ in range(24)]
    cases += [p * q for p, q in zip(mid[::2], mid[1::2])]
    cases += [p * sympy.nextprime(rng.randrange(10**6, 10**12)) for p in mid[:8]]
    cases += [p ** rng.randint(2, 4) * q for p, q in zip(mid, (1, 1, 7, 1021, 1031, mid[-1]))]
    cases += [1021 * 1031, 1031**3, 1021**2 * 1031 * 999983, 1031 * 1000003 * 1000033]
    for n in cases:
        expected = sympy.factorint(abs(n))
        got = factor(n)
        assert dict(got.factors) == expected and got.value() == n, n


def test_jacobi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randrange(1, 1 << rng.choice((8, 40, 120))) | 1
        a = rng.randrange(-3 * n, 3 * n)
        assert exact._jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_strong_lucas_matches_sympy_below_30000():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    for n in range(1, 30000, 2):
        assert exact._strong_lucas_prp(n) == primetest.is_strong_lucas_prp(n), n


def test_is_prime_matches_sympy_at_and_above_psi13():
    # BPSW's range: the Selfridge search for D ends on a prime only with a
    # correct Jacobi symbol
    sympy = pytest.importorskip("sympy")
    rng = random.Random(89)
    cases = [2**89 - 1, 2**107 - 1, 2**127 - 1, (2**89 - 1) * (2**107 - 1)]
    cases += [rng.randrange(1 << (b - 1), 1 << b) | 1 for b in range(82, 201, 6)
              for _ in range(4)]
    cases += [sympy.nextprime(rng.randrange(1 << (b - 1), 1 << b)) for b in range(82, 201, 9)]
    cases += [rng.randrange(exact._PSI[-1], 1 << 400) | 1 for _ in range(60)]
    # semiprimes of two primes near 2^45, so near 2^90
    near = [sympy.nextprime(rng.getrandbits(45) | 1 << 44) for _ in range(40)]
    cases += [p * q for p, q in zip(near[::2], near[1::2])]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_at_and_above_psi13_is_base_2_then_lucas(monkeypatch):
    bases, lucas = [], []
    witness, strong_lucas = exact._mr_witness, exact._strong_lucas_prp
    monkeypatch.setattr(exact, "_mr_witness", lambda a, n: bases.append(a) or witness(a, n))
    monkeypatch.setattr(exact, "_strong_lucas_prp", lambda n: lucas.append(n) or strong_lucas(n))
    assert is_prime(2**89 - 1) and not is_prime(exact._PSI[-1])
    assert bases == [2, 2] and lucas == [2**89 - 1, exact._PSI[-1]]
    # below psi_13 the bases decide alone: psi_12 falls to the thirteenth
    bases.clear()
    lucas.clear()
    assert not is_prime(exact._PSI[11])
    assert bases == list(exact._MR_BASES) and lucas == []


def test_is_prime_rejects_every_psi():
    # psi_k passes Miller-Rabin to the first k prime bases; psi_13 passes
    # base 2 and falls only to the strong Lucas test
    assert not any(is_prime(psi) for psi in exact._PSI)
    assert factor(exact._PSI[11]).factors == ((399165290221, 1), (798330580441, 1))


def test_factor_stops_trial_division_at_a_prime_cofactor(monkeypatch):
    # 2^3 * 5 * (a 27-bit prime): one is_prime call, at 37, ends the walk
    # whose sqrt bound is 2^14, and builds no random.Random
    calls = []
    real = exact.is_prime
    monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(exact, "random", None)
    p = 134217689
    assert factor(40 * p).factors == ((2, 3), (5, 1), (p, 1))
    assert calls == [p]
    # each cofactor is tested once: 41 p q at 37, p q after 41, and p q is
    # not tested again when it goes to rho, which tests p and q
    monkeypatch.setattr(exact, "random", random)
    calls.clear()
    p, q = 1000003, 1000033
    assert factor(41 * p * q).factors == ((41, 1), (p, 1), (q, 1))
    assert calls[:2] == [41 * p * q, p * q] and sorted(calls[2:]) == [p, q]


def test_factor_budget_exhaustion_on_a_40_bit_semiprime():
    # the early-out must leave rho the same cofactor and seed, so the same
    # partial factorization and cofactor as full trial division; (pq)^k
    # stacks k copies of pq, and the cofactor is the one rho failed on
    # times the copies still stacked
    p, q = 549755826239, 824633721649
    for n, partial, k in ((p * q, (), 1), (12 * p * q, ((2, 2), (3, 1)), 1),
                          (-7 * p * q, ((7, 1),), 1), (-12 * (p * q) ** 2, ((2, 2), (3, 1)), 2),
                          ((p * q) ** 3, (), 3)):
        with pytest.raises(PartialFactorizationError) as err:
            factor(n, budget=1000)
        assert err.value.partial.factors == partial
        assert err.value.partial.sign == (1 if n > 0 else -1)
        assert err.value.cofactor == (p * q) ** k
        assert err.value.partial.value() * err.value.cofactor == n


def test_no_module_imports_mpmath():
    package = pathlib.Path(orbitgcd.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_importing_the_package_and_cli_loads_no_mpmath():
    # in a fresh interpreter: this process has mpmath loaded as a test oracle
    code = "import sys, orbitgcd, orbitgcd.cli; print('mpmath' in sys.modules)"
    src = str(pathlib.Path(orbitgcd.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"


def test_log_abs_of_a_pair_matches_the_fraction():
    rng = random.Random(9)
    for _ in range(200):
        x = (Fraction(rng.randint(-2**300, 2**300) or 1, rng.randint(1, 2**300))
             * Fraction(2) ** rng.randint(-900, 900))
        assert log_abs(x.numerator, x.denominator) == log_abs(x)


# --- products, gcds and decimal strings through the system GMP ---

T = _GMP_BITS
HUGE = 3**40000                         # about 63,000 bits


def sized(draw):
    # zero, or from one bit to a few times the GMP threshold, so pairs fall
    # on both sides of it
    bits = draw(st.sampled_from([0, 1, 64, T - 200, T - 1, T, T + 1, 2 * T, 4 * T]))
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | (bits > 0)


@st.composite
def gcd_operands(draw):
    # a shared factor and two cofactors; either sign
    common = sized(draw)
    signs = draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
    return signs[0] * common * sized(draw), signs[1] * common * sized(draw)


@st.composite
def mul_operands(draw):
    # either sign; half the pairs are one int twice, which GMP squares
    x = draw(st.sampled_from([1, -1])) * sized(draw)
    if draw(st.booleans()):
        return x, x
    return x, draw(st.sampled_from([1, -1])) * sized(draw)


@settings(max_examples=150, deadline=None)
@given(mul_operands())
@example((0, 0))
@example((0, -HUGE))
@example((HUGE, 0))
@example((HUGE, HUGE))
@example((-HUGE, HUGE))
@example((3, HUGE))
@example((-HUGE, 7))
@example((2**T, -(2**T) * 3))
@example((2**(T - 1) * 5, 2**(T - 1) * 15))
def test_int_mul_equals_the_product_across_the_threshold(pair):
    x, y = pair
    assert int_mul(x, y) == x * y
    assert int_mul(y, x) == x * y


def test_int_mul_uses_gmp_only_at_orbit_size(monkeypatch):
    calls = []
    mul = _gmp.mul
    monkeypatch.setattr(_gmp, "mul", lambda x, y: calls.append(
        (x.bit_length(), y.bit_length(), y is x)) or mul(x, y))
    small = 2**(T - 3) * 3               # T - 1 bits
    assert int_mul(small, small) == small**2
    assert int_mul(HUGE, -7) == -7 * HUGE
    assert calls == []
    assert int_mul(-HUGE, HUGE * 5) == -5 * HUGE**2
    assert int_mul(HUGE, HUGE) == HUGE**2
    neg = -HUGE
    assert int_mul(neg, neg) == HUGE**2
    b = HUGE.bit_length()
    assert calls == [(b, (HUGE * 5).bit_length(), False), (b, b, True), (b, b, True)]


def test_int_mul_without_libgmp_is_the_product(monkeypatch):
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    assert _gmp.mul(HUGE, HUGE) is None
    assert int_mul(HUGE * 2, -HUGE * 3) == -6 * HUGE**2
    neg = -HUGE
    assert int_mul(neg, neg) == HUGE**2


@settings(max_examples=150, deadline=None)
@given(gcd_operands())
@example((0, 0))
@example((0, -HUGE))
@example((HUGE, 0))
@example((HUGE, HUGE))
@example((-HUGE, HUGE))
@example((HUGE * 7, -HUGE * 11))
@example((3, HUGE))
@example((2**T, 2**T * 3))
@example((2**(T - 1) * 5, 2**(T - 1) * 15))
def test_int_gcd_equals_math_gcd_across_the_threshold(pair):
    x, y = pair
    assert int_gcd(x, y) == math.gcd(x, y)
    assert int_gcd(y, x) == math.gcd(x, y)


def test_int_gcd_uses_gmp_only_at_orbit_size(monkeypatch):
    calls = []
    gcd = _gmp.gcd
    monkeypatch.setattr(_gmp, "gcd", lambda x, y: calls.append((x, y)) or gcd(x, y))
    small = 2**(T - 3) * 3               # T - 1 bits
    assert int_gcd(small, small * 5) == small
    assert int_gcd(HUGE, 7) == 1
    assert calls == []
    assert int_gcd(-HUGE, HUGE * 5) == HUGE
    assert int_gcd(small * 2, small * 4) == small * 2
    assert calls == [(HUGE, HUGE * 5), (small * 2, small * 4)]


def test_int_gcd_without_libgmp_is_math_gcd(monkeypatch):
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    assert _gmp.gcd(HUGE, HUGE) is None and _gmp.decimal(HUGE) is None
    assert int_gcd(HUGE * 2, -HUGE * 3) == HUGE


@st.composite
def divmod_operands(draw):
    # either sign; half the dividends are a multiple of the divisor, or one off
    x, y = (draw(st.sampled_from([1, -1])) * sized(draw) for _ in range(2))
    if draw(st.booleans()):
        x = x * y + draw(st.sampled_from([-1, 0, 1]))
    return x, y


@settings(max_examples=150, deadline=None)
@given(divmod_operands())
@example((0, HUGE))
@example((HUGE, HUGE))
@example((-HUGE, HUGE))
@example((HUGE * 7 + 1, -HUGE))
@example((-HUGE * 7 - 1, -HUGE))
@example((-HUGE * 7, HUGE))
@example((2**T, 2**T - 1))
def test_int_divmod_equals_divmod_across_the_threshold(pair):
    x, y = pair
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            int_divmod(x, y)
    else:
        assert int_divmod(x, y) == divmod(x, y)


def test_int_divmod_uses_gmp_only_at_orbit_size(monkeypatch):
    calls = []
    real = _gmp.divmod
    monkeypatch.setattr(_gmp, "divmod", lambda x, y: calls.append((x, y)) or real(x, y))
    small = 2**(T - 3) * 3               # T - 1 bits
    assert int_divmod(HUGE, small) == divmod(HUGE, small)
    assert int_divmod(-small, HUGE) == (-1, HUGE - small)
    with pytest.raises(ZeroDivisionError):
        int_divmod(HUGE, 0)
    assert calls == []
    assert int_divmod(-HUGE * 5 - 2, HUGE) == (-6, HUGE - 2)
    assert int_divmod(HUGE * 5 + 2, -HUGE) == (-6, 2 - HUGE)
    assert calls == [(HUGE * 5 + 2, HUGE)] * 2
    # GMP traps a zero divisor, so the binding refuses it first
    with pytest.raises(ZeroDivisionError):
        _gmp.divmod(HUGE, 0)


def test_int_divmod_without_libgmp_is_divmod(monkeypatch):
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    assert _gmp.divmod(HUGE, HUGE) is None
    assert int_divmod(-HUGE * 5 - 2, HUGE) == (-6, HUGE - 2)


# bit lengths on both sides of a 64-bit word and of the GMP threshold
EDGE_BITS = (0, 1, 63, 64, 65, 127, 128, T - 1, T)
needs_gmp = pytest.mark.skipif(_gmp._load() is None, reason="no libgmp loads")


def with_bits(bits: int, rng: random.Random) -> int:
    return rng.getrandbits(bits) | (1 << bits >> 1)


def assert_gmp_matches_python(x: int, y: int) -> None:
    assert _gmp.mul(x, y) == x * y
    assert _gmp.mul(x, x) == x * x      # y is x: one import, squared
    assert _gmp.gcd(x, y) == math.gcd(x, y)
    assert _gmp.decimal(x) == _digits_by_division(x)
    if y:
        assert _gmp.divmod(x, y) == divmod(x, y)
        assert _gmp.divmod(x * y + y - 1, y) == (x, y - 1)


@needs_gmp
def test_gmp_calls_round_trip_at_word_boundaries():
    rng = random.Random(64)
    for xb in EDGE_BITS:
        for yb in EDGE_BITS:
            for x, y in (((1 << xb) - 1, (1 << yb) - 1), (1 << xb, 1 << yb),
                         (with_bits(xb, rng), with_bits(yb, rng))):
                assert_gmp_matches_python(x, y)
                assert_gmp_matches_python(y, x)
    assert _gmp.mul(2**64 - 1, 2**64 + 1) == 2**128 - 1


@needs_gmp
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 18), st.integers(0, 1 << 18), st.integers(0, 2**32))
def test_gmp_calls_round_trip_at_random_sizes(xb, yb, seed):
    rng = random.Random(seed)
    x, y = with_bits(xb, rng), with_bits(yb, rng)
    assert_gmp_matches_python(x, y)
    assert_gmp_matches_python(y, x)


def test_int_to_str_from_gmp_matches_division():
    rng = random.Random(14)
    values = [10**3600, 10**3600 + 1, 10**7200 - 1, 10**100000 - 1, 10**100000]
    values += [rng.randrange(10**k, 10**(k + 1)) for k in (3600, 3601, 4299, 4300, 9999,
                                                           25000, 65536, 99999)]
    for n in values:
        assert int_to_str(n) == _digits_by_division(n)
        assert int_to_str(-n) == "-" + _digits_by_division(n)


def test_log_abs_of_zero_and_the_least_prime():
    with pytest.raises(DomainError, match="log"):
        log_abs(0)
    assert next_prime(1) == next_prime(-5) == 2
