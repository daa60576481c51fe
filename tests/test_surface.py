import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from orbitgcd.errors import DomainError
from orbitgcd.surface import (BlowupSurface, DivisorClass, canonical_class,
                              exceptional_class, intersect, is_ample_lemmaAG,
                              perturbed_ample, strict_transform_class)


def test_pairing_spec_examples():
    s0 = BlowupSurface(0)
    assert intersect(s0, DivisorClass(1, 1), DivisorClass(1, 1)) == 2
    s3 = BlowupSurface(3)
    e0 = DivisorClass(0, 0, [1, 0, 0])
    assert intersect(s3, e0, e0) == -1
    assert intersect(s3, exceptional_class(s3, 0), exceptional_class(s3, 0)) == -1


def test_perturbed_ample_identities():
    for s in range(0, 7):
        for n in range(1, 8):
            surf = BlowupSurface(s)
            a = perturbed_ample(surf, n)
            assert a == DivisorClass(1, 1, [Fraction(1, n)] * s)
            assert intersect(surf, a, a) == 2 - Fraction(s, n * n)
            for i in range(s):
                assert intersect(surf, a, exceptional_class(surf, i)) == Fraction(1, n)
    s4 = BlowupSurface(4)
    assert intersect(s4, perturbed_ample(s4, 5), perturbed_ample(s4, 5)) == Fraction(46, 25)


def test_canonical_class():
    assert canonical_class(BlowupSurface(0)) == DivisorClass(-2, -2)
    assert canonical_class(BlowupSurface(3)) == DivisorClass(-2, -2, [1, 1, 1])
    s0 = BlowupSurface(0)
    assert intersect(s0, canonical_class(s0), DivisorClass(1, 1)) == -4
    # K^2 = 8 - s on the blowup
    for s in range(5):
        surf = BlowupSurface(s)
        k = canonical_class(surf)
        assert intersect(surf, k, k) == 8 - s


def test_strict_transform_pairing_chain():
    # A . C~ = a + b - (1/N) sum(mu_i)
    surf = BlowupSurface(3)
    a_tilde = perturbed_ample(surf, 4)
    c_tilde = strict_transform_class(surf, 2, 3, [1, 2, 0])
    assert intersect(surf, a_tilde, c_tilde) == 2 + 3 - Fraction(1 + 2 + 0, 4)


def test_pairing_bilinear_symmetric_random():
    rng = random.Random(8)
    surf = BlowupSurface(4)

    def rand_div():
        return DivisorClass(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)],
        )

    def add(d1, d2):
        return DivisorClass(
            d1.a + d2.a, d1.b + d2.b,
            [m1 + m2 for m1, m2 in zip(d1.exceptional_mults, d2.exceptional_mults)],
        )

    for _ in range(100):
        x, y, z = rand_div(), rand_div(), rand_div()
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert intersect(surf, x, y) == intersect(surf, y, x)
        assert intersect(surf, add(x, y), z) == intersect(surf, x, z) + intersect(surf, y, z)
        scaled = DivisorClass(x.a * lam, x.b * lam,
                              [m * lam for m in x.exceptional_mults])
        assert intersect(surf, scaled, z) == lam * intersect(surf, x, z)


def test_projection_formula_instance():
    # a pullback class (zero exceptional part) annihilates exceptional data
    rng = random.Random(88)
    surf = BlowupSurface(3)
    pullback = DivisorClass(2, 5, [0, 0, 0])
    for _ in range(50):
        mults = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        d1 = DivisorClass(1, 7, mults)
        d2 = DivisorClass(1, 7, [0, 0, 0])
        assert intersect(surf, pullback, d1) == intersect(surf, pullback, d2)


def test_mismatched_size_rejected():
    with pytest.raises(DomainError):
        intersect(BlowupSurface(2), DivisorClass(1, 1, [0]), DivisorClass(1, 1, [0, 0]))


def test_ample_iff_n_greater_than_s_exhaustive():
    for s in range(0, 9):
        for n in range(1, 13):
            report = is_ample_lemmaAG(BlowupSurface(s), n)
            assert report.ample == (n > s), (s, n)
            if 0 < s < n:
                assert report.witness == {"check": "exceptional", "value": Fraction(1, n),
                                          "index": "any"}, (s, n)
            else:
                # the ruling line through all s points
                assert report.witness == {"check": "curve", "type_sum": 1, "mu_sum": s,
                                          "value": 1 - Fraction(s, n)}, (s, n)


def test_ample_witness_is_the_ruling_line_through_the_points():
    # with the s points on one ruling line, its strict transform has class
    # (1, 0; 1, ..., 1) and pairs with A to the reported value
    for s in range(0, 13):
        surf = BlowupSurface(s)
        for n in range(1, s + 1):
            report = is_ample_lemmaAG(surf, n)
            line = strict_transform_class(surf, 1, 0, [1] * s)
            assert report.witness["value"] == intersect(surf, perturbed_ample(surf, n), line)
            assert report.witness["value"] <= 0, (s, n)


def test_ample_witness_is_the_least_pairing():
    # every irreducible curve: the exceptional curves, ruling lines through
    # some of the points, and type-(a, b) curves with a, b >= 1 and each
    # multiplicity at most min(a, b); none pairs with A below the witness
    for s in range(0, 5):
        surf = BlowupSurface(s)
        curves = [exceptional_class(surf, i) for i in range(s)]
        for a, b in product(range(7), repeat=2):
            top = 1 if a + b == 1 else min(a, b)
            for mults in combinations_with_replacement(range(top + 1), s):
                if a + b:
                    curves.append(strict_transform_class(surf, a, b, mults))
        for n in range(s + 1, s + 4):
            a_tilde = perturbed_ample(surf, n)
            report = is_ample_lemmaAG(surf, n)
            least = min(intersect(surf, a_tilde, c) for c in curves)
            assert least == report.witness["value"] > 0, (s, n)
            assert intersect(surf, a_tilde, a_tilde) > report.witness["value"]


def test_ample_witness_reports_minimizing_case():
    report = is_ample_lemmaAG(BlowupSurface(5), 5)
    assert not report.ample
    assert report.witness["check"] == "curve"
    assert report.witness["value"] == 0
    ok = is_ample_lemmaAG(BlowupSurface(0), 1)
    assert ok.ample and ok.witness["value"] > 0


def test_surface_input_checks():
    with pytest.raises(DomainError, match="blown-up points"):
        BlowupSurface(-1)
    s2 = BlowupSurface(2)
    with pytest.raises(DomainError, match="denominator"):
        perturbed_ample(s2, 0)
    with pytest.raises(DomainError, match="N must be"):
        is_ample_lemmaAG(s2, 0)
    for i in (-1, 2):
        with pytest.raises(DomainError, match="out of range"):
            exceptional_class(s2, i)
    with pytest.raises(DomainError, match="one multiplicity"):
        strict_transform_class(s2, 1, 1, [1])
