"""Small exact linear algebra helpers: one fraction-free Gauss-Jordan
elimination over Z, which gives a determinant and the adjugate solves
together (once per map, for the resultant and the Bezout cofactors of
its Sylvester matrix), and row reduction / kernels over GF(p)."""

from __future__ import annotations

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


def rref_modp(rows, p):
    """Reduced row echelon form mod p; returns (rref_rows, pivot_columns)."""
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(vi - f * vr) % p for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a[:r], pivots


def kernel_modp(rows, p):
    """Canonical kernel basis mod p (one vector per free column of RREF)."""
    if not rows:
        return []
    m = len(rows[0])
    rref, pivots = rref_modp(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * m
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def rational_reconstruct(a, p):
    """Lift a mod-p residue to n/d with |n|, d <= sqrt(p/2); None if impossible."""
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
