"""Optimal cocharacters of nilpotent elements by exact quadratic programming.

The normalized optimal cocharacter of Y is the unique minimizer of
(mu, mu) subject to <a, mu> >= 1 for every support root a of Y.  With
v the point of least norm in the convex hull of the nu(a), that
minimizer is mu = v / (v, v), and the constraints are infeasible iff
v = 0.  Wolfe's nearest-point algorithm finds v exactly on integers,
with one final division: the Gram of the nu(a) is scaled to integers
(its upper triangle, mirrored), the weights stay integers over one
common denominator, each corral is one positive-definite system
(K_S + J) z = 1 solved by the fraction-free `solve`, and one Fraction
is built per output value.  lam and k come off the same integers: lam
is the min-norm point's integer coordinates over their gcd, and k its
least support pairing, by one exact division.  The Kirwan-Ness torus check
asks the same question of the nu(a) projected onto lam-perp.  At the
optimum itself that check is read off the certificate's own Wolfe run
(certified_torus_check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from .gradedmap import ad_blocks
from .grading import CocharRational, check_degree, grade, single_degree
from .lie import LieElement, integer_multiple
from .rootsystem import RootSystem


@dataclass
class OptimalityCertificate:
    mu: CocharRational
    lam: tuple[int, ...]
    k: int
    active_constraints: list[int]  # root indices with <a, mu> = 1
    support: list[int]
    # Wolfe's weights x on the deduplicated support, keyed by root index,
    # and vv = x^T K x, so that mu = sum x_i nu(a_i) / vv; not in to_json
    weights: dict[int, Fraction] = field(default_factory=dict, repr=False)
    vv: Fraction | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "lambda": list(self.lam),
            "k": self.k,
            "active_constraints": self.active_constraints,
            "support": self.support,
        }


def solve(M) -> tuple[list[int], int] | None:
    """Integer x and d > 0 with A x = d b, for augmented integer rows
    M = [A | b], changed in place; None if A's columns are dependent or b
    is outside their span.  Fraction-free (Bareiss, Math. Comp. 22, 1968):
    each pivot is +- a leading minor, so every division is exact, Cramer's
    back substitution included.  A pivot row is negated when that makes its
    pivot equal the previous one; a row with 0 under it is then left alone.
    """
    n = len(M[0]) - 1 if M else 0
    prev, m = 1, len(M)
    for k in range(n):
        if k == m or not M[k][k]:  # past the last row, no pivot is left
            r = next((r for r in range(k + 1, m) if M[r][k]), None)
            if r is None:
                return None
            M[k], M[r] = M[r], M[k]
        rk, p = M[k], M[k][k]
        if p == -prev:
            rk[:] = [-c for c in rk]
            p = prev
        rows, cols = M[k + 1:], range(k + 1, n + 1)
        if p == prev:  # then a 0 under the pivot, or in rk, changes nothing
            rows, cols = [row for row in rows if row[k]], [j for j in cols if rk[j]]
        for row in rows:
            c = row[k]
            row[k] = 0
            for j in cols:
                row[j] = (row[j] * p - c * rk[j]) // prev
        prev = p
    if any(row[n] for row in M[n:]):
        return None
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row = M[k]
        x[k], rem = divmod(prev * row[n] - sum(map(mul, row[k + 1:n], x[k + 1:])), row[k])
        if rem:
            raise RuntimeError("inexact division in the back substitution")
    return ([-c for c in x], -prev) if prev < 0 else (x, prev)


def _affine_minimizer(K, S) -> tuple[list[int], int]:
    """The point of least norm in the affine hull of the corral S, as
    integer weights z over their sum d > 0: `solve` of (K_S + J) z = 1,
    J all ones.  x^T (K + J) x = |sum x_i P_i|^2 + (sum x_i)^2, so K_S + J
    is positive definite exactly when S is affinely independent: every
    pivot is then a positive leading minor, no row is swapped, and
    sum z = z^T (K_S + J) z > 0.  K_S z = (1 - sum z) 1, so z / sum z is
    the affine minimizer."""
    solution = solve([[K[i][l] + 1 for l in S] + [1] for i in S])
    if solution is None:
        raise RuntimeError("singular corral: its points are affinely dependent")
    z = solution[0]
    return z, sum(z)


def _reduced(x: dict) -> dict:
    """Integer weights divided by their gcd, zeros dropped."""
    g = gcd(*x.values())
    return {i: w // g for i, w in x.items() if w}


def _min_norm_weights(K) -> tuple[list[int], int]:
    """Integer weights x >= 0 of the point v = sum x_i P_i / sum(x) of
    least norm in conv{P_i}, and x^T K x, so that (v, v) = x^T K x / sum(x)^2,
    from the integer Gram matrix K[i][j] = (P_i, P_j) alone.

    Wolfe's algorithm (Math. Programming 11, 1976) on integers: the
    weights stay one integer vector over their sum, and the corral S stays
    affinely independent, so each affine minimizer solves a positive
    definite system (`_affine_minimizer`).  v is optimal once
    min_j (P_j, v) >= (v, v), with no tolerance.
    """
    m = len(K)
    x = {min(range(m), key=lambda i: K[i][i]): 1}
    while True:
        g = [0] * m
        for i, w in x.items():
            g = [a + w * b for a, b in zip(g, K[i])]
        j = min(range(m), key=g.__getitem__)
        vv = sum(w * g[i] for i, w in x.items())
        if g[j] * sum(x.values()) >= vv:
            return [x.get(i, 0) for i in range(m)], vv
        x[j] = 0
        while True:
            S = list(x)
            y, d = _affine_minimizer(K, S)
            if all(c > 0 for c in y):
                x = _reduced(dict(zip(S, y)))
                break
            # walk from x towards y until the first weight reaches 0.  Over
            # the common denominator x_i = P_i and y_i = Q_i; the step
            # theta = P_k / (P_k - Q_k) is least over the Q_k <= 0 (it
            # starts at 1 = 1 / (1 - 0)), and x + theta (y - x) is then
            # proportional to P_k Q - Q_k P
            den = sum(x.values())
            P = [x[i] * d for i in S]
            Q = [c * den for c in y]
            pk, qk = 1, 0
            for p, q in zip(P, Q):
                if q <= 0 and p * (pk - qk) < pk * (p - q):
                    pk, qk = p, q
            x = _reduced({i: pk * q - qk * p for i, p, q in zip(S, P, Q)})


def _support_gram(rs: RootSystem, support):
    """(reps, [D h_j], D, K): the support's root indices deduplicated, and
    the Gram of the nu(a_j) = h_j coroot(a_j), h_j = (a_j, a_j)/2, scaled
    to integers by D, the lcm of the denominators of the h_j:
    K[i][j] = D <a_i, nu(a_j)> = D h_j <a_i, coroot(a_j)>.  With
    h_j = len_num / (2 len_den), that lcm is 2 len_den over one gcd.
    K[i][j] = D (a_i, a_j) is symmetric, so only its upper triangle is
    computed and then mirrored."""
    reps = list(dict.fromkeys(support))
    nums = [rs.len_num[ri] for ri in reps]
    g = gcd(2 * rs.len_den, *nums)
    hs = [x // g for x in nums]
    D = 2 * rs.len_den // g
    m = len(reps)
    cos = [rs.coroots[ri] for ri in reps]
    K = [[0] * m for _ in range(m)]
    for i, row in enumerate([rs.pairing_rows[ri] for ri in reps]):
        for j in range(i, m):
            K[i][j] = K[j][i] = hs[j] * sum(map(mul, row, cos[j]))
    return reps, hs, D, K


def _min_norm(rs: RootSystem, support):
    """One Wolfe run on the support: (mu, active roots, lam, k, weights, vv).

    mu = v / (v, v) with v = sum x_i nu(a_i) the min-norm point, so
    (mu, mu) = 1 / vv exactly; lam = k mu is its primitive integral
    multiple and k = min <a, lam> over the support; the weights x are
    keyed by the root indices of the deduplicated support.  Everything up
    to the output Fractions is on integers, and m_Y(mu) = 1 is checked here."""
    if not support:
        raise ValueError("empty support")
    reps, hs, D, K = _support_gram(rs, support)
    x, vv = _min_norm_weights(K)
    if not vv:
        raise RuntimeError("the min-norm point of the support is zero: "
                           "its constraints are infeasible")
    den = sum(x)
    # v = V / (den D) and (v, v) = vv / (den^2 D), so mu = V den / vv
    V = [0] * rs.rank
    for w, h, ri in zip(x, hs, reps):
        if w:
            V = [c + w * h * co for c, co in zip(V, rs.coroots[ri])]
    pairings = [sum(map(mul, rs.pairing_rows[ri], V)) * den for ri in support]
    # normalization m_Y(mu) = 1: the least support pairing is exactly 1
    if min(pairings) != vv:
        raise RuntimeError("optimal mu violates the normalization m_Y(mu) = 1")
    active = [ri for ri, p in zip(support, pairings) if p == vv]
    # lam = V / g is primitive, and its least support pairing is vv / (den g)
    g = gcd(*V)
    k, rem = divmod(vv, den * g)
    if rem:
        raise RuntimeError("the least support pairing of lambda is not an integer")
    mu = CocharRational(tuple(Fraction(c * den, vv) for c in V), Fraction(den * den * D, vv))
    weights = {ri: Fraction(w, den) for ri, w in zip(reps, x)}
    return mu, active, tuple(c // g for c in V), k, weights, Fraction(vv, den * den * D)


def minimum_norm_cocharacter(rs: RootSystem, support: list[int]) -> tuple[CocharRational, list[int]]:
    """Solve min (mu,mu) s.t. <a,mu> >= 1 on the support; exact.

    Returns the minimizer mu = v / (v, v), v the min-norm point of the
    support's nu images, and the root indices with <a, mu> = 1.
    """
    return _min_norm(rs, support)[:2]


def optimal_cocharacter(rs: RootSystem, Y: LieElement) -> OptimalityCertificate:
    """Kempf-style optimal data for a nilpotent supported on positive roots."""
    supp = Y.support_roots()
    if not supp or Y.cartan:
        raise ValueError("need a nonzero element supported on root vectors")
    if supp[-1] >= len(rs.positive_roots):  # supp is sorted, positives first
        raise ValueError("support must consist of positive roots (standard position)")
    mu, active, lam, k, weights, vv = _min_norm(rs, supp)
    cert = OptimalityCertificate(mu=mu, lam=lam, k=k, active_constraints=active,
                                 support=supp, weights=weights, vv=vv)
    _check_kkt(cert)
    return cert


def _check_kkt(cert: OptimalityCertificate) -> None:
    """KKT read off Wolfe's weights: mu = sum x_i nu(a_i) / vv with x >= 0
    is a nonnegative combination of the active nu exactly when every
    weighted root is active."""
    active = set(cert.active_constraints)
    if any(w and ri not in active for ri, w in cert.weights.items()):
        raise RuntimeError("KKT violated: a weighted support root is not active")


def brute_force_verify(rs: RootSystem, Y: LieElement, cert: OptimalityCertificate,
                       box_radius: int) -> dict:
    """Enumerate integral cocharacters in the box and compare ratios.

    Any lam' destabilizing Y (all support degrees >= 1) must satisfy
    rho(lam')^2 <= rho(lam)^2; violators are collected, not raised.
    box_radius is an int, not a bool.
    """
    if type(box_radius) is not int:
        raise ValueError(f"the box radius must be an int, got {box_radius!r}")
    if box_radius < max(abs(c) for c in cert.lam):
        raise ValueError("box must contain the certified optimum")
    supp_vecs = [rs.pairing_rows[ri] for ri in cert.support]
    cert_ratio = Fraction(cert.k * cert.k) / rs.norm_sq(cert.lam)
    violations = []
    checked = 0
    best_seen = Fraction(0)
    # first coordinate varying fastest
    for lam in product(range(-box_radius, box_radius + 1), repeat=rs.rank):
        lam = lam[::-1]
        if any(lam):
            k = min(sum(f * l for f, l in zip(row, lam)) for row in supp_vecs)
            if k >= 1:
                checked += 1
                ratio = Fraction(k * k) / rs.norm_sq(lam)
                if ratio > best_seen:
                    best_seen = ratio
                if ratio > cert_ratio:
                    violations.append({"lambda": list(lam), "ratio_sq": str(ratio)})
    return {
        "box_radius": box_radius,
        "candidates_checked": checked,
        "certificate_ratio_sq": str(cert_ratio),
        "best_ratio_sq_in_box": str(best_seen),
        "violations": violations,
        "ok": not violations,
    }


def kirwan_ness_torus_check(rs: RootSystem, Y: LieElement, lam) -> bool:
    """True iff no rational mu with (mu, lam) = 0 destabilizes Y.

    This is the single-torus Hilbert-Mumford obstruction for the
    orthogonal Levi: its truth is necessary for lam to be optimal
    within the fixed torus.  Y must be concentrated in one degree.
    """
    lam = rs.cochar_vector(lam, "lam")
    d = single_degree(rs, Y, lam)
    _, _, D, K = _support_gram(rs, Y.support_roots())
    if not K:
        return False  # no constraint: mu = 0 already qualifies
    # <a, mu> = (nu(a), mu), and some mu in lam-perp has them all >= 1 iff
    # the min-norm point of the nu(a) projected onto lam-perp is nonzero.
    # Every <a, lam> is the one degree d, so on convex weights the
    # projected Gram is K - d^2/(lam, lam): a constant shift of K, with
    # the same min-norm weights.
    x, vv = _min_norm_weights(K)
    lam_sq = rs.norm_sq(lam)
    return Fraction(vv, sum(x) ** 2 * D) == (d * d / lam_sq if lam_sq else 0)


def certified_torus_check(rs: RootSystem, Y: LieElement,
                          cert: OptimalityCertificate) -> bool:
    """kirwan_ness_torus_check(rs, Y, cert.lam) for Y's own certificate,
    without a second Wolfe run.

    At lam = k mu the min-norm point v is parallel to lam, so the
    projected min-norm point is 0 and the check holds once Y is
    concentrated in one degree; the certificate's invariants are
    re-checked and raise RuntimeError if they fail.
    """
    single_degree(rs, Y, cert.lam)
    _check_kkt(cert)
    # lam = k mu and (mu, mu) = 1 / vv
    if cert.vv != cert.k * cert.k / rs.norm_sq(cert.lam):
        raise RuntimeError("Wolfe's vv is not k^2 / (lam, lam)")
    return True


def sl2_completion_check(rs: RootSystem, sc, Y: LieElement,
                         cert: OptimalityCertificate) -> bool:
    """Characteristic-0 optimality certificate: h = 2 mu lies in the
    image of ad Y on the degree -k piece.

    When it does, (Y, h, f) is an sl2-triple with rational semisimple h
    in the Cartan, which pins lam as the genuine optimal cocharacter of
    Y (not merely the torus optimum).  Works over Q.  One `solve` of
    [A | h] decides, A the block g(-k) -> g(0) of ad DY (DY the integer
    multiple `integer_multiple(Y)`; graded_ad's fill plus one Cartan row per
    coordinate), read as ints.
    By Morozov's lemma (Jacobson, Lie Algebras, 1962, III 11) ad Y is
    injective on g(-k) once the triple exists, so a dependent column is
    a no; that needs lam = k mu, and Y concentrated in degree k once g(-k)
    is nonzero (`check_degree`), or ValueError.
    """
    k = cert.k
    if any(l * c.denominator != k * c.numerator for l, c in zip(cert.lam, cert.mu.coords)):
        raise ValueError("the certificate's lam is not k * mu")
    if any(2 * l % k for l in cert.lam):
        return False  # h = 2 mu = 2 lam / k is not integral
    spaces = grade(rs, cert.lam).weight_spaces
    src = spaces.get(-k)
    if not src:
        return False
    check_degree(rs, Y, cert.lam, k)
    DY = integer_multiple(Y)
    [rows] = ad_blocks(sc, DY, [(src, spaces.get(0, []))])
    M = [[int(row.get(c, 0)) for c in range(len(src))] + [0] for row in rows if row]
    # column E_-a meets E_a in the coroot of a: [E_a, E_-a] = H_a
    opposite = [(int(DY.roots.get(a, 0)), rs.coroots[a]) for a in map(rs.negative, src)]
    M += [[y * co[j] for y, co in opposite] + [2 * l // k] for j, l in enumerate(cert.lam)]
    return solve(M) is not None
