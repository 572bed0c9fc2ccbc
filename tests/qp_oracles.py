"""Reference oracles for the min-norm-point solver and the sl2 check in
`optimality`.

`active_set_min_norm` solves min (mu, mu) s.t. <a, mu> >= 1 by
enumerating all 2^m active subsets of the deduplicated constraints;
`fourier_motzkin_torus_check` decides the Kirwan-Ness torus question
by Fourier-Motzkin elimination.  Both are exponential and only meant
for small supports (m <= 10).  `bordered_affine_minimizer` solves one
Wolfe corral in its Lagrange form, the bordered system
[K_S 1; 1^T 0] [y; lambda] = [0; 1] over Q.  `sl2_completion_oracle`
decides `sl2_completion_check`'s question on a dense Fraction matrix
built from brackets, with one `solve`: Gauss-Jordan over a field, the
Fraction counterpart of `optimality.solve`.
"""

from fractions import Fraction

from chevalley.fields import QQ
from chevalley.grading import CocharRational, grade
from chevalley.lie import bracket, cartan_vector, root_vector
from chevalley.linalg import rank, rref


def solve(field, A, b):
    """One solution of A x = b, or None if the system is inconsistent."""
    if not A:
        return []
    R, pivots = rref(field, [list(row) + [bb] for row, bb in zip(A, b)])
    if any(row[-1] and not any(row[:-1]) for row in R):
        return None
    x = [field.zero] * len(A[0])
    for r, c in enumerate(pivots):
        x[c] = R[r][-1]
    return x


def bordered_affine_minimizer(K, S):
    """Weights y (sum 1) of the point of least norm in the affine hull of
    the points indexed by S of the Gram K, or None if they are affinely
    dependent: then the bordered system is singular."""
    n = len(S)
    A = [[Fraction(K[i][l]) for l in S] + [Fraction(1)] for i in S]
    A.append([Fraction(1)] * n + [Fraction(0)])
    if rank(QQ, A) <= n:
        return None
    return solve(QQ, A, [Fraction(0)] * n + [Fraction(1)])[:-1]


def active_set_min_norm(rs, support):
    """(mu, active root indices) by enumerating every active subset and
    solving its Lagrange system; the feasible candidate of least norm wins."""
    n = rs.rank
    pvecs = {}
    for ri in support:
        pvecs.setdefault(rs.pairing_rows[ri], ri)
    functionals = list(pvecs)
    nus = [rs.nu(rs.roots[pvecs[f]]) for f in functionals]
    m = len(functionals)
    gram = [[sum(Fraction(fi[c]) * nj[c] for c in range(n)) for nj in nus] for fi in functionals]
    best = None
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        x = solve(QQ, [[gram[i][j] for j in idx] for i in idx], [Fraction(1)] * len(idx))
        if x is None:
            continue
        mu = tuple(sum(x[t] * nus[j][c] for t, j in enumerate(idx)) for c in range(n))
        if any(sum(Fraction(f[c]) * mu[c] for c in range(n)) < 1 for f in functionals):
            continue
        cand = CocharRational.of(rs, mu)
        if best is None or cand.norm_sq < best.norm_sq:
            best = cand
    if best is None:
        return None, []
    active = [ri for ri in support
              if sum(Fraction(c) * m for c, m in zip(rs.pairing_rows[ri], best.coords)) == 1]
    return best, active


def fourier_motzkin_feasible(rows):
    """Feasibility of {x : row[:-1] . x >= row[-1]} by FM elimination."""
    rows = [list(r) for r in rows]
    nvars = len(rows[0]) - 1
    for v in range(nvars):
        pos, neg, rest = [], [], []
        for r in rows:
            if r[v] > 0:
                pos.append(r)
            elif r[v] < 0:
                neg.append(r)
            else:
                rest.append(r)
        new_rows = rest
        for rp in pos:
            for rn in neg:
                new_rows.append([rp[j] / rp[v] - rn[j] / rn[v] for j in range(nvars + 1)])
        rows = new_rows
        if not rows:
            return True
    return all(Fraction(0) >= r[-1] for r in rows)


def fourier_motzkin_torus_check(rs, support, lam):
    """True iff no rational mu with (mu, lam) = 0 has <a, mu> >= 1 on the
    support: the equality as two inequalities, then FM feasibility."""
    n = rs.rank
    lam_row = [sum(Fraction(lam[i]) * rs.gram[i][j] for i in range(n)) for j in range(n)]
    rows = [lam_row + [Fraction(0)], [-c for c in lam_row] + [Fraction(0)]]
    for ri in support:
        rows.append([Fraction(c) for c in rs.pairing_rows[ri]] + [Fraction(1)])
    return not fourier_motzkin_feasible(rows)


def _by_key(x) -> dict:
    """x's coefficients keyed ("E", root index) and ("H", cocharacter-basis index)."""
    return {**{("E", a): v for a, v in x.roots.items()},
            **{("H", j): v for j, v in x.cartan.items()}}


def sl2_completion_oracle(rs, sc, Y, cert):
    """True iff h = 2 mu is integral and [Y, x] = h for some x in g(-k):
    the columns [Y, E_b], b of degree -k, and h in one dense Fraction
    system over the basis keys they touch."""
    field = Y.field
    h_coords = [2 * c for c in cert.mu.coords]
    if any(c.denominator != 1 for c in h_coords):
        return False
    targets = grade(rs, cert.lam).weight_spaces.get(-cert.k)
    if not targets:
        return False
    images = [_by_key(bracket(sc, Y, root_vector(rs, field, ri))) for ri in targets]
    h = _by_key(cartan_vector(rs, field, h_coords))
    keys = sorted(set(h).union(*images))
    A = [[img.get(key, field.zero) for img in images] for key in keys]
    b = [h.get(key, field.zero) for key in keys]
    return solve(QQ, A, b) is not None
