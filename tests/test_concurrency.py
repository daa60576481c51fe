"""Heights and logs computed in several threads at once equal the serial
results exactly and leave mpmath's process-wide precision alone."""

import sys
import threading
from fractions import Fraction

import mpmath

from orbitgcd.exact import log_abs
from orbitgcd.heights import canonical_height, hgcd
from orbitgcd.maps import RationalMap

THREADS = 4
ROUNDS = 3


def _jobs():
    jobs = []
    for f in (RationalMap([1, 0, 1]), RationalMap([-3, 0, 1], [0, 2])):
        for start in (Fraction(1, 2), Fraction(3), Fraction(5, 7)):
            for tol in (1e-100, 1e-60, 1e-8):
                jobs.append(lambda f=f, s=start, t=tol: canonical_height(f, s, t))
    for x, y in ((Fraction(5, 3), Fraction(10, 7)), (Fraction(1, 10**40 + 3), 6),
                 (Fraction(2, 3**90), Fraction(4, 5**70))):
        jobs.append(lambda x=x, y=y: hgcd(x, y))
    for x in (Fraction(2, 3), Fraction(10**50 + 7, 3**80)):
        jobs.append(lambda x=x: log_abs(x))
    return jobs


def _exact(result):
    # mpf values compared by their exact (sign, mantissa, exponent, bits)
    if hasattr(result, "iterations_used"):
        return (result.value._mpf_, result.error_bound._mpf_, result.iterations_used)
    if hasattr(result, "finite"):
        return (result.finite, result.arch._mpf_, result.total()._mpf_)
    return result._mpf_


def test_threads_reproduce_serial_results_exactly():
    jobs = _jobs()
    serial = [_exact(job()) for job in jobs]
    start = threading.Barrier(THREADS)
    mismatches = []

    def worker(k):
        start.wait()
        for r in range(ROUNDS):
            # each thread walks the jobs from its own offset, so calls at
            # different precisions overlap
            for i in range(len(jobs)):
                j = (i + 5 * k + r) % len(jobs)
                got = _exact(jobs[j]())
                if got != serial[j]:
                    mismatches.append((k, r, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often to provoke overlap
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert mpmath.mp.prec == 53
