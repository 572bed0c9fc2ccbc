"""Brute-force oracles for the Smith-normal-form tests."""

from itertools import combinations
from math import gcd

from chevalley.linalg import det


def integer_gcd_of_minors(A, k: int) -> int:
    """gcd of all k x k minors of an integer matrix."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if k == 0:
        return 1
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = gcd(g, int_det([[A[i][j] for j in csel] for i in rsel]))
    return abs(g)


def gcd_lcm_chain(values) -> list[int]:
    """The divisor chain of a diagonal integer matrix with these nonzero
    diagonal entries, by pairwise (gcd, lcm) steps: d_i | d_{i+1}."""
    chain = [abs(v) for v in values]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return chain


def minor_gcd_divisors(A) -> list[int]:
    """Elementary divisors of an integer matrix as quotients of successive
    minor gcds, g_k / g_(k-1), with 0 once g_k = 0; min(rows, cols) of them."""
    size = min(len(A), len(A[0]) if A else 0)
    out, prev = [], 1
    for k in range(1, size + 1):
        g = integer_gcd_of_minors(A, k)
        out.append(g // prev if g else 0)
        prev = g or prev
    return out


def int_det(M) -> int:
    """Determinant of a square integer matrix by cofactor expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += sign * M[0][j] * int_det(minor)
        sign = -sign
    return total


def dvr_minor_valuations(field, A, k: int):
    """Least valuation among the k x k minors of A, each taken with
    linalg.det; None when all of them are 0.  Over a DVR this is
    v(d_1) + ... + v(d_k) for the elementary divisors d_i of A."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    least = None
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            d = det(field, [[A[i][j] for j in csel] for i in rsel])
            if d and (least is None or field.valuation(d) < least):
                least = field.valuation(d)
    return least
