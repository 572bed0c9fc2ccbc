"""Optimal cocharacters of nilpotent elements by exact quadratic programming.

The normalized optimal cocharacter of Y is the unique minimizer of
(mu, mu) subject to <a, mu> >= 1 for every support root a of Y.  With
v the point of least norm in the convex hull of the nu(a), that
minimizer is mu = v / (v, v), and the constraints are infeasible iff
v = 0.  Wolfe's nearest-point algorithm finds v exactly on integers,
with one final division: the Gram of the nu(a) is scaled to integers,
the weights stay integers over one common denominator, each corral is
solved fraction-free, and one Fraction is built per output value.  The
Kirwan-Ness torus check asks the same question of the nu(a) projected
onto lam-perp.  At the optimum itself that check is read off the
certificate's own Wolfe run (certified_torus_check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .gradedmap import ad_blocks
from .grading import CocharRational, grade, m_of, single_degree
from .lie import LieElement
from .linalg import solve  # bound only for the benchmark's tracer
from .rootsystem import RootSystem
from .snf import integer_elementary_divisors


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


def support_of(rs: RootSystem, Y: LieElement) -> list[int]:
    supp = Y.support_roots()
    if not supp or Y.cartan_part():
        raise ValueError("need a nonzero element supported on root vectors")
    return supp


def _affine_minimizer(K, S) -> tuple[list[int], int]:
    """The point of least norm in the affine hull of the corral S, as
    integer weights y over a common denominator d > 0 (sum y = d).

    Fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of the
    bordered system [K_S 1; 1^T 0] [y; lambda] = [0; 1], whose last pivot
    is +-det, then Cramer back substitution: det * y is an integer vector,
    so every division there is exact.
    """
    n = len(S) + 1
    A = [[K[i][l] for l in S] + [1, 0] for i in S] + [[1] * len(S) + [0, 1]]
    prev = 1
    for k in range(n):
        if not A[k][k]:
            r = next((r for r in range(k + 1, n) if A[r][k]), None)
            if r is None:
                raise RuntimeError("singular corral: its points are affinely dependent")
            A[k], A[r] = A[r], A[k]
        rk, p = A[k], A[k][k]
        for row in A[k + 1:]:
            c = row[k]
            row[k] = 0
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * p - c * rk[j]) // prev
        prev = p
    z = [0] * n
    for k in range(n - 1, -1, -1):
        row = A[k]
        t = prev * row[n] - sum(row[j] * z[j] for j in range(k + 1, n))
        z[k], rem = divmod(t, row[k])
        if rem:
            raise RuntimeError("inexact division in the corral's back substitution")
    y = z[:-1]
    return ([-c for c in y], -prev) if prev < 0 else (y, prev)


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
    affinely independent, so each affine minimizer solves a nonsingular
    bordered system.  v is optimal once min_j (P_j, v) >= (v, v), with no
    tolerance.
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
    """(reps, [D h_j], D, K): the support deduplicated by pairing row (root
    indices), and the Gram of the nu(a_j) = h_j coroot(a_j), h_j = (a_j, a_j)/2,
    scaled to integers by D, the lcm of the denominators of the h_j:
    K[i][j] = D <a_i, nu(a_j)> = D h_j <a_i, coroot(a_j)>."""
    first = {}
    for ri in support:
        first.setdefault(rs.pairing_rows[ri], ri)
    reps = list(first.values())
    halves = [rs.len_sq[ri] / 2 for ri in reps]
    D = lcm(*(h.denominator for h in halves))
    hs = [h.numerator * (D // h.denominator) for h in halves]
    K = [[h * sum(map(mul, row, rs.coroots[ri])) for h, ri in zip(hs, reps)] for row in first]
    return reps, hs, D, K


def _min_norm(rs: RootSystem, support):
    """One Wolfe run on the support: (mu, active roots, weights, vv).

    mu = v / (v, v) with v = sum x_i nu(a_i) the min-norm point, so
    (mu, mu) = 1 / vv exactly; the weights x are keyed by the root
    indices of the deduplicated support.  Everything up to the output
    Fractions is on integers, and m_Y(mu) = 1 is checked here."""
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
            for c, co in enumerate(rs.coroots[ri]):
                V[c] += w * h * co
    pairings = [sum(p * c for p, c in zip(rs.pairing_rows[ri], V)) * den for ri in support]
    # normalization m_Y(mu) = 1: the least support pairing is exactly 1
    if min(pairings) != vv:
        raise RuntimeError("optimal mu violates the normalization m_Y(mu) = 1")
    active = [ri for ri, p in zip(support, pairings) if p == vv]
    mu = CocharRational(tuple(Fraction(c * den, vv) for c in V), Fraction(den * den * D, vv))
    weights = {ri: Fraction(w, den) for ri, w in zip(reps, x)}
    return mu, active, weights, Fraction(vv, den * den * D)


def minimum_norm_cocharacter(rs: RootSystem, support: list[int]) -> tuple[CocharRational, list[int]]:
    """Solve min (mu,mu) s.t. <a,mu> >= 1 on the support; exact.

    Returns the minimizer mu = v / (v, v), v the min-norm point of the
    support's nu images, and the root indices with <a, mu> = 1.
    """
    return _min_norm(rs, support)[:2]


def optimal_cocharacter(rs: RootSystem, Y: LieElement) -> OptimalityCertificate:
    """Kempf-style optimal data for a nilpotent supported on positive roots."""
    supp = support_of(rs, Y)
    if any(not rs.is_positive(rs.roots[ri]) for ri in supp):
        raise ValueError("support must consist of positive roots (standard position)")
    mu, active, weights, vv = _min_norm(rs, supp)
    lam, _ = mu.primitive_multiple()
    k = m_of(rs, Y, lam)
    if any(l != k * c for l, c in zip(lam, mu.coords)):
        raise RuntimeError("lambda is not k * mu")
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
    """
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
    lam = tuple(lam)
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
    Y (not merely the torus optimum).  Works over Q; Y must have
    Fraction coefficients.  The block g(-k) -> g(0) of ad DY (D the lcm of
    Y's denominators) is graded_ad's fill plus one Cartan row per
    cocharacter coordinate; h lies in its image iff appending h as a
    column adds no nonzero elementary divisor over Z.
    """
    h = [2 * c for c in cert.mu.coords]
    if any(c.denominator != 1 for c in h):
        return False
    spaces = grade(rs, cert.lam).weight_spaces
    src = spaces.get(-cert.k)
    if not src:
        return False
    DY = Y.scaled(lcm(*(y.denominator for y in Y.coeffs.values())))
    [rows] = ad_blocks(sc, DY, [(src, spaces.get(0, []))])
    # column E_-a meets E_a in the coroot of a: [E_a, E_-a] = H_a
    opposite = [(c, DY.coeffs.get(("E", a)), rs.coroots[a])
                for c, a in enumerate(map(rs.negative, src))]
    cartan = [{c: y * co[j] for c, y, co in opposite if y and co[j]} for j in range(len(h))]
    n = len(src)
    rank = sum(map(bool, integer_elementary_divisors(rows + cartan, n)))
    with_h = [{**row, n: x} if x else row for row, x in zip(cartan, h)]
    return sum(map(bool, integer_elementary_divisors(rows + with_h, n + 1))) == rank
