"""Small exact linear algebra helpers: one fraction-free Gauss-Jordan
elimination over Z, which gives a determinant and the adjugate solves
together (the tests' reference for the resultants and Bezout cofactors
that ``polys.resultant`` computes), kernels modulo a prime, and rational
reconstruction of their entries."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


def solve_fraction(matrix, columns=()):
    """(det A, the columns of det A * A^-1 * B) for a square integer matrix
    A and integer columns B: each x solves A x = det A * b in integers
    (Cramer's rule).  The columns are None when det A = 0, or when the
    check A x == det A * b fails.  One fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968): every row but the pivot
    row becomes (piv * row_i - a_ic * pivot_row) // prev, and every entry
    stays a minor of [A | B], so each division is exact and A ends as
    prev * I with prev = sign * det A."""
    n = len(matrix)
    a = [list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return 0, None
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        pivot_row = a[c]
        piv = pivot_row[c]
        for i in range(n):
            if i != c:
                f = a[i][c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = piv
    det = sign * prev
    sols = [[sign * a[i][n + k] for i in range(n)] for k in range(len(columns))]
    if any(sum(v * x for v, x in zip(row, sol)) != det * b[i]
           for sol, b in zip(sols, columns) for i, row in enumerate(matrix)):
        return det, None
    return det, sols


def det_fraction(matrix) -> int:
    """Determinant of a square integer matrix."""
    return solve_fraction(matrix)[0]


def kernel_modp(rows, p):
    """Canonical kernel basis modulo a prime p, one vector per free column
    of the RREF.

    Each row is reduced against the pivot rows found so far, which are
    kept in echelon form with unit pivots, and its first entry nonzero
    modulo p becomes a pivot; the scan stops at full column rank, and
    only a nonempty kernel back-substitutes to the RREF.  The RREF is
    unique, so this is the basis of Gauss-Jordan elimination over every
    row.  Modulo a composite p, a pivot that is not a unit raises
    ValueError (from ``pow``); when every pivot is a unit, each prime
    factor sees the same steps, so the basis reduced modulo it is that
    prime's own basis.
    """
    if not rows:
        return []
    m = len(rows[0])
    echelon = []   # (pivot column, row with 1 there and 0 before it), by column
    for row in rows:
        for c, prow in echelon:
            if f := row[c] % p:
                row = [x - f * y for x, y in zip(row, prow)]
        row = [v % p for v in row]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        bisect.insort(echelon, (lead, [v * inv % p for v in row]))
        if len(echelon) == m:
            return []
    # back-substitute: clear each pivot column above its pivot
    for j in range(len(echelon) - 1, 0, -1):
        cj, prow = echelon[j]
        for i in range(j):
            c, row = echelon[i]
            if f := row[cj]:
                echelon[i] = (c, [(x - f * y) % p for x, y in zip(row, prow)])
    pivots = dict(echelon)
    basis = []
    for fc in range(m):
        if fc not in pivots:
            vec = [0] * m
            vec[fc] = 1
            for pc, prow in pivots.items():
                vec[pc] = -prow[fc] % p
            basis.append(vec)
    return basis


def rational_reconstruct(a, p):
    """Lift a residue modulo p to n/d with |n|, d <= sqrt(p/2) and
    n = d a (mod p); None if impossible."""
    a %= p
    if a == 0:
        return Fraction(0)
    bound = math.isqrt(p // 2)
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if (num - den * a) % p != 0:
        return None
    return Fraction(num, den)
