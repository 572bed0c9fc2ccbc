"""Optimal cocharacters of nilpotent elements by exact quadratic programming.

The normalized optimal cocharacter of Y is the unique minimizer of
(mu, mu) subject to <a, mu> >= 1 for every support root a of Y.  The
solver enumerates active subsets of the (deduplicated) support
constraints, solves each equality-constrained projection exactly via
its Lagrange conditions, filters by feasibility and keeps the feasible
candidate of least norm.  Exactness over speed: support sizes at desk
scale stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import RationalField
from .grading import CocharRational, degrees_of, m_of
from .lie import LieElement
from .linalg import rank, solve
from .rootsystem import RootSystem


QQ = RationalField()


@dataclass
class OptimalityCertificate:
    mu: CocharRational
    lam: tuple[int, ...]
    k: int
    active_constraints: list[int]  # root indices with <a, mu> = 1
    support: list[int]
    brute_force_checked: dict | None = None

    def to_json(self) -> dict:
        out = {
            "mu": self.mu.to_json(),
            "lambda": list(self.lam),
            "k": self.k,
            "active_constraints": self.active_constraints,
            "support": self.support,
        }
        if self.brute_force_checked is not None:
            out["brute_force_checked"] = self.brute_force_checked
        return out


def support_of(rs: RootSystem, Y: LieElement) -> list[int]:
    supp = Y.support_roots()
    if not supp or Y.cartan_part():
        raise ValueError("need a nonzero element supported on root vectors")
    return supp


def minimum_norm_cocharacter(rs: RootSystem, support: list[int]) -> tuple[CocharRational, list[int]]:
    """Solve min (mu,mu) s.t. <a,mu> >= 1 on the support; exact.

    Returns the minimizer and the active root indices.  By the KKT
    conditions the minimizer lies in the span of the nu-images of its
    active constraints, so enumerating active subsets and solving the
    Lagrange system on each finds it.
    """
    if not support:
        raise ValueError("empty support")
    n = rs.rank
    pvecs = {}  # dedup by pairing functional
    for ri in support:
        pvecs.setdefault(rs.pairing_rows[ri], ri)
    functionals = list(pvecs)
    nus = [rs.nu(rs.roots[pvecs[f]]) for f in functionals]
    m = len(functionals)
    if m > 16:
        raise ValueError(f"{m} distinct support constraints: the active-set "
                         "enumeration is meant for desk-scale supports (<= 16)")
    # Gram of the nu vectors in the invariant form = <f_i, nu_j>
    gram = [[sum(Fraction(fi[c]) * nj[c] for c in range(n)) for nj in nus] for fi in functionals]

    best: CocharRational | None = None
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        A = [[gram[i][j] for j in idx] for i in idx]
        rhs = [Fraction(1)] * len(idx)
        x = solve(QQ, A, rhs)
        if x is None:
            continue
        mu = tuple(sum(x[t] * nus[j][c] for t, j in enumerate(idx)) for c in range(n))
        if any(sum(Fraction(f[c]) * mu[c] for c in range(n)) < 1 for f in functionals):
            continue
        cand = CocharRational.of(rs, mu)
        if best is None or cand.norm_sq < best.norm_sq:
            best = cand
    assert best is not None, "the constraint set of a positive support is feasible"
    active = [ri for ri in support
              if sum(Fraction(c) * m for c, m in zip(rs.pairing_rows[ri], best.coords)) == 1]
    return best, active


def optimal_cocharacter(rs: RootSystem, Y: LieElement) -> OptimalityCertificate:
    """Kempf-style optimal data for a nilpotent supported on positive roots."""
    supp = support_of(rs, Y)
    if any(not rs.is_positive(rs.roots[ri]) for ri in supp):
        raise ValueError("support must consist of positive roots (standard position)")
    mu, active = minimum_norm_cocharacter(rs, supp)
    # normalization m_Y(mu) = 1: the least support pairing is exactly 1
    assert min(sum(Fraction(c) * m for c, m in zip(rs.pairing_rows[ri], mu.coords))
               for ri in supp) == 1
    lam, _ = mu.primitive_multiple()
    k = m_of(rs, Y, lam)
    # lambda = k * mu exactly
    assert all(Fraction(l) == k * c for l, c in zip(lam, mu.coords))
    # KKT: mu in the span of the active coroots
    nus = [list(rs.nu(rs.roots[ri])) for ri in active]
    span_rank = rank(QQ, nus) if nus else 0
    aug = nus + [list(mu.coords)]
    assert rank(QQ, aug) == span_rank, "KKT span condition violated"
    return OptimalityCertificate(mu=mu, lam=lam, k=k,
                                 active_constraints=active, support=supp)


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
    n = rs.rank
    violations = []
    checked = 0
    best_seen = Fraction(0)
    lam = [-box_radius] * n
    while True:
        lt = tuple(lam)
        if any(lam):
            degs = [sum(f[c] * lam[c] for c in range(n)) for f in supp_vecs]
            if min(degs) >= 1:
                checked += 1
                ratio = Fraction(min(degs) ** 2) / rs.norm_sq(lt)
                if ratio > best_seen:
                    best_seen = ratio
                if ratio > cert_ratio:
                    violations.append({"lambda": list(lt), "ratio_sq": str(ratio)})
        i = 0
        while i < n and lam[i] == box_radius:
            lam[i] = -box_radius
            i += 1
        if i == n:
            break
        lam[i] += 1
    return {
        "box_radius": box_radius,
        "candidates_checked": checked,
        "certificate_ratio_sq": str(cert_ratio),
        "best_ratio_sq_in_box": str(best_seen),
        "violations": violations,
        "ok": not violations,
    }


def _fourier_motzkin_feasible(rows: list[list[Fraction]]) -> bool:
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
                # combine to eliminate variable v
                comb = [rp[j] / rp[v] - rn[j] / rn[v] for j in range(nvars + 1)]
                new_rows.append(comb)
        rows = new_rows
        if not rows:
            return True
    return all(Fraction(0) >= r[-1] for r in rows)


def kirwan_ness_torus_check(rs: RootSystem, Y: LieElement, lam) -> bool:
    """True iff no rational mu with (mu, lam) = 0 destabilizes Y.

    This is the single-torus Hilbert-Mumford obstruction for the
    orthogonal Levi: its truth is necessary for lam to be optimal
    within the fixed torus.  Y must be concentrated in one degree.
    """
    lam = tuple(lam)
    degs = set(degrees_of(rs, Y, lam))
    if len(degs) != 1:
        raise ValueError("Y must be concentrated in a single degree")
    n = rs.rank
    # equality (mu, lam) = 0 as two inequalities, plus <a, mu> >= 1
    lam_row = [sum(Fraction(lam[i]) * rs.gram[i][j] for i in range(n)) for j in range(n)]
    rows = [lam_row + [Fraction(0)],
            [-c for c in lam_row] + [Fraction(0)]]
    for ri in Y.support_roots():
        rows.append([Fraction(c) for c in rs.pairing_rows[ri]] + [Fraction(1)])
    return not _fourier_motzkin_feasible(rows)


def sl2_completion_check(rs: RootSystem, sc, Y: LieElement,
                         cert: OptimalityCertificate) -> bool:
    """Characteristic-0 optimality certificate: h = 2 mu lies in the
    image of ad Y on the degree -k piece.

    When it does, (Y, h, f) is an sl2-triple with rational semisimple h
    in the Cartan, which pins lam as the genuine optimal cocharacter of
    Y (not merely the torus optimum).  Works over Q; Y must have
    Fraction coefficients.
    """
    from .lie import bracket, cartan_vector, root_vector

    field = Y.field
    h_coords = [2 * c for c in cert.mu.coords]
    if any(c.denominator != 1 for c in h_coords):
        return False
    targets = [ri for ri in range(len(rs.roots))
               if rs.pair(rs.roots[ri], cert.lam) == -cert.k]
    if not targets:
        return False
    columns = []
    keyset = set()
    images = []
    for ri in targets:
        img = bracket(sc, Y, root_vector(rs, field, ri))
        images.append(img)
        keyset.update(img.coeffs)
    h = cartan_vector(rs, field, h_coords)
    keyset.update(h.coeffs)
    keys = sorted(keyset)
    A = [[img.coeffs.get(key, field.zero) for img in images] for key in keys]
    b = [h.coeffs.get(key, field.zero) for key in keys]
    return solve(QQ, A, b) is not None
