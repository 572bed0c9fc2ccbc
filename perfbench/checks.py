"""Independent output checks in the benchmark's own exact arithmetic.

Nothing here calls the library's arithmetic: the checks read root-system
data and op outputs, then redo the mathematics with `fractions.Fraction`
and with a small GF(q)[t] polynomial ring written below.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


# -- exact linear algebra over Q ----------------------------------------------

def _eliminate(rows):
    """Row-reduce a Fraction matrix in place; return the pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def q_rank(vectors) -> int:
    if not vectors:
        return 0
    return len(_eliminate([[Fraction(x) for x in v] for v in vectors]))


def q_solve_columns(columns, target):
    """Coefficients c with sum_j c_j columns[j] = target, for linearly
    independent columns; None if target is outside their span."""
    n = len(target)
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(n)]
    pivots = _eliminate(aug)
    if len(columns) in pivots:
        return None
    coeffs = [Fraction(0)] * len(columns)
    for r, c in enumerate(pivots):
        coeffs[c] = aug[r][-1]
    return coeffs


def q_det(mat) -> Fraction:
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def p_adic_valuation(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- the KKT certificate of min (mu, mu) s.t. <a, mu> >= 1 --------------------

def kkt_errors(rs, support_coords, cert) -> list[str]:
    """Check the optimality certificate of the QP on `support_coords`.

    Every support pairing is >= 1, the certificate's active constraints
    are exactly the pairings equal to 1, lam = k * mu is primitive, and
    mu is a nonnegative combination of the active nu vectors (tried on
    every linearly independent subset, which suffices by Caratheodory).
    Root-system data (basis pairing, Gram matrix) is read from `rs`.
    """
    n = rs.rank
    errors = []

    def pairing_row(a):
        return [sum(a[i] * rs.basis_pairing[i][j] for i in range(n)) for j in range(n)]

    mu = [Fraction(c) for c in cert.mu.coords]
    pairings = {tuple(a): sum(Fraction(x) * m for x, m in zip(pairing_row(a), mu))
                for a in support_coords}
    if any(v < 1 for v in pairings.values()):
        errors.append("a support pairing is below 1")
    active = {a for a, v in pairings.items() if v == 1}
    cert_active = {tuple(rs.roots[ri]) for ri in cert.active_constraints}
    if cert_active != active:
        errors.append("active constraints differ from the pairings equal to 1")
    if not active:
        errors.append("no active constraint")
        return errors
    lam = [Fraction(x) for x in cert.lam]
    if any(l != cert.k * m for l, m in zip(lam, mu)):
        errors.append("lambda is not k * mu")
    if cert.k <= 0 or any(l.denominator != 1 for l in lam) or \
            gcd(*(int(l) for l in lam)) != 1:
        errors.append("lambda is not a primitive integral vector with k > 0")
    gram = [[Fraction(x) for x in row] for row in rs.gram]
    nus = []
    for a in sorted(active):
        nu = q_solve_columns([[gram[i][j] for i in range(n)] for j in range(n)],
                             pairing_row(a))
        if nu is None:
            errors.append("singular Gram matrix")
            return errors
        nus.append(nu)
    r = q_rank(nus)
    for subset in combinations(nus, r):
        if q_rank(list(subset)) < r:
            continue
        c = q_solve_columns(list(subset), mu)
        if c is not None and all(x >= 0 for x in c):
            return errors
    errors.append("mu is not a nonnegative combination of the active nu vectors")
    return errors


# -- GF(q)[t] and t-adic determinant valuations --------------------------------

class GF:
    """GF(p) or GF(4), elements encoded as ints (GF(4): c0 + 2*c1 for c0 + c1*x,
    with x^2 = x + 1)."""

    def __init__(self, q: int):
        if q == 4:
            self.p, self.degree = 2, 2
            mul = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    # (a0 + a1 x)(b0 + b1 x) with x^2 = x + 1
                    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
                    c0 = (a0 * b0 + a1 * b1) % 2
                    c1 = (a0 * b1 + a1 * b0 + a1 * b1) % 2
                    mul[a][b] = c0 | (c1 << 1)
            self._mul = mul
        elif q > 1 and all(q % d for d in range(2, q)):
            self.p, self.degree = q, 1
            self._mul = None
        else:
            raise ValueError(f"GF({q}) is not supported by the checks")
        self.q = q

    def add(self, a, b):
        return a ^ b if self.degree == 2 else (a + b) % self.p

    def neg(self, a):
        return a if self.degree == 2 else (-a) % self.p

    def mul(self, a, b):
        return self._mul[a][b] if self.degree == 2 else a * b % self.p

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def code(self, ff_coeffs) -> int:
        """Int code of a library field element from its coefficient tuple."""
        return sum(int(c) * self.p ** i for i, c in enumerate(ff_coeffs))


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_sub(F, a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = F.add(out[i], F.neg(y))
    return _trim(out)


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def poly_divexact(F, a, b):
    """a / b in GF(q)[t]; raises if the division leaves a remainder."""
    a = list(a)
    inv = F.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = F.mul(a[-1], inv)
        off = len(a) - len(b)
        quot[off] = c
        for i, y in enumerate(b):
            a[off + i] = F.add(a[off + i], F.neg(F.mul(c, y)))
        _trim(a)
    if a:
        raise ArithmeticError("inexact polynomial division")
    return _trim(quot)


def ratfunc_to_poly(F, x):
    """A library GF(q)(t) element with constant denominator, as a poly."""
    den = x.den.coeffs
    if len(den) != 1:
        raise ValueError("block entry is not a polynomial")
    scale = F.inv(F.code(den[0].coeffs))
    return _trim([F.mul(F.code(c.coeffs), scale) for c in x.num.coeffs])


def poly_det_valuation(F, mat):
    """t-adic valuation of det(mat) by fraction-free Bareiss elimination
    over GF(q)[t]; None when the determinant is 0."""
    m = [list(row) for row in mat]
    n = len(m)
    if n == 0:
        return 0
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return None
            m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = poly_divexact(
                    F, poly_sub(F, poly_mul(F, m[i][j], m[k][k]),
                                poly_mul(F, m[i][k], m[k][j])), prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if not det:
        return None
    return next(i for i, c in enumerate(det) if c)
