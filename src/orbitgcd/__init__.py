"""orbitgcd: exact arithmetic for gcd's along polynomial orbits.

Building blocks: certified factorization and p-adic valuations (exact),
polynomials and rational self-maps of P^1 over Q (maps), Weil/canonical
heights and generalized gcd heights (heights), intersection theory on
blowups of P^1 x P^1 (surface), dynamical classification predicates
(classify), and reproducible desk-scale experiments (experiments).
"""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, DomainError, HypothesisViolationError,
                     IndeterminateError, OrbitgcdError, PartialFactorizationError)
from .exact import (Factorization, LogValue, Place, Rational, factor, is_prime,
                    next_prime, v_plus, valuation)
from .polys import (Polynomial, max_multiplicity, multiplicity_at, poly_gcd,
                    radical, squarefree_decomposition)
from .maps import (INFINITY, ProjPoint, RationalMap, compose, conjugate, digit_count,
                   evaluate, fiber_polynomial, iterate, map_resultant, self_compose)
from .heights import (HeightEstimate, PlaceSet, bad_places, canonical_height,
                      discrepancy_bound, hgcd, hgcd_excluding, hgcd_fin,
                      weil_height)
from .bivariate import BivariatePolynomial
from .surface import (AmplenessReport, BlowupSurface, DivisorClass,
                      canonical_class, exceptional_class,
                      intersect, is_ample_lemmaAG, perturbed_ample,
                      strict_transform_class)
from .classify import (CHEBYSHEV_CONJUGATE, NOT_SPECIAL, POWER_CONJUGATE,
                       CurveRelation, SpecialForm, chebyshev_polynomial,
                       commutes, is_exceptional, is_preperiodic, mult_indep,
                       probe_genericity, special_form)
from .experiments import (APStructure, DepthCertificate, GcdSeriesConfig,
                          GcdSeriesReport, GcdSeriesRow, IndexSet,
                          MobiusProbeResult, ap_structure, choose_depth,
                          gcd_series, inversion_deviation_bound,
                          iter_gcd_series_rows, large_index_set,
                          mobius_invariance_probe)
