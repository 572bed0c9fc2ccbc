"""Bad-prime phenomena: cokernels, regular-nilpotent degeneracy, and
destabilizing certificates.

The cocharacter pairing eta : X(A_0) -> Hom(Z coroots, Z) has a finite
cokernel whose elementary divisors control when the simple coroots
degenerate mod p; for PGL_n the divisors end in n, and whenever p
divides one of them the regular unipotent acquires an extra fixed
vector in degree -k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, PrimeField
from .grading import CocharRational
from .lie import LieElement, StructureConstants, bracket, element_from_support
from .linalg import kernel_basis
from .optimality import optimal_cocharacter
from .rootsystem import RootSystem
from .snf import integer_elementary_divisors, sparse_rows


def coker_eta(rs: RootSystem) -> list[int]:
    """Elementary divisors of chi -> (coroot -> <chi, coroot>) on the
    character lattice of the chosen isogeny type.

    The matrix is the coordinate matrix of the simple coroots in the
    cocharacter basis: the Cartan matrix for adjoint type, the identity
    for simply connected.
    """
    mat = sparse_rows(rs.coroots[si] for si in rs.simple_roots)
    return integer_elementary_divisors(mat, rs.rank)


def regular_nilpotent(rs: RootSystem, field) -> LieElement:
    return element_from_support(rs, field, rs.simple_roots)


def regular_counterexample(rs: RootSystem, sc: StructureConstants, p: int):
    """Nonzero X in degree -k with [X, Y] Cartan-free mod p, or None.

    Y is the regular nilpotent, lam its optimal cocharacter.  X exists
    exactly when the simple coroots are linearly dependent mod p, i.e.
    when p divides an elementary divisor of coker_eta.
    """
    field = PrimeField(p)
    n = rs.rank
    # columns: coroots of the simple roots, reduced mod p
    mat = [[field.element(rs.coroots[si][j]) for si in rs.simple_roots] for j in range(n)]
    kern = kernel_basis(field, mat)
    if not kern:
        return None
    if not any(kern[0]):
        raise RuntimeError("the kernel vector gives X = 0")
    X = element_from_support(rs, field, [rs.negative(si) for si in rs.simple_roots], kern[0])
    Y = regular_nilpotent(rs, field)
    if bracket(sc, X, Y).cartan_part():
        raise RuntimeError("kernel vector fails the bracket check")
    return X


def regular_counterexample_report(rs: RootSystem, sc: StructureConstants, p: int) -> dict:
    """JSON transcript of the degeneracy search at the prime p."""
    cert = optimal_cocharacter(rs, regular_nilpotent(rs, QQ))
    X = regular_counterexample(rs, sc, p)
    out = {
        "type": rs.type_string(),
        "isogeny": rs.isogeny,
        "p": p,
        "lambda": list(cert.lam),
        "k": cert.k,
        "coker_divisors": coker_eta(rs),
        "found": X is not None,
    }
    if X is not None:
        out["x_coefficients"] = {
            str(key[1]): repr(val) for key, val in sorted(X.coeffs.items())
        }
        # regular_counterexample raises RuntimeError on a Cartan part
        out["bracket_cartan_component_zero"] = True
    return out


@dataclass
class CGammaTable:
    """For each root g, the pairs (a, b) from the two supports with a + b = g."""

    gamma_map: dict[int, list[tuple[int, int]]]
    supp_x: list[int]
    supp_y: list[int]

    def nonempty(self) -> dict[int, list[tuple[int, int]]]:
        return {g: v for g, v in self.gamma_map.items() if v}

    def to_json(self) -> dict:
        return {
            "supp_x": self.supp_x,
            "supp_y": self.supp_y,
            "pairs": {str(g): [list(p) for p in v] for g, v in sorted(self.nonempty().items())},
        }


def c_gamma(rs: RootSystem, supp_x, supp_y) -> CGammaTable:
    """Complete additive-coincidence table between two root supports."""
    supp_x, supp_y = ([rs.index(ri) for ri in supp] for supp in (supp_x, supp_y))
    table: dict[int, list[tuple[int, int]]] = {}
    for ai in supp_x:
        a = rs.roots[ai]
        for bi in supp_y:
            b = rs.roots[bi]
            s = tuple(x + y for x, y in zip(a, b))
            gi = rs.root_index.get(s)
            if gi is not None:
                table.setdefault(gi, []).append((ai, bi))
    return CGammaTable(gamma_map=table, supp_x=sorted(supp_x), supp_y=sorted(supp_y))


def _root_support(Y: LieElement) -> list[int]:
    """Y's support roots; ValueError for a Y with none, which no alpha can serve."""
    if not (supp := Y.support_roots()):
        raise ValueError("Y must be supported on root vectors")
    return supp


def destabilizing_certificate(rs: RootSystem, Y: LieElement, lam_tilde, alpha):
    """Exhibit mu = lam_tilde + nu(alpha)/a beating a non-optimal lam_tilde.

    alpha must pair nonnegatively with every support root of Y while
    nu(alpha) pairs negatively with lam_tilde; the smallest integer
    a >= 1 with (mu, mu) < (lam_tilde, lam_tilde) is returned together
    with mu.  Preconditions violated -> ValueError (no certificate).
    """
    lam_tilde = tuple(map(Fraction, rs.cochar_vector(lam_tilde, "lam_tilde")))
    a_root = rs.roots[rs.index(alpha)]
    supp = _root_support(Y)
    for ri in supp:
        if rs.root_form(rs.roots[ri], a_root) < 0:
            raise ValueError("alpha pairs negatively with the support")
        if rs.pair(rs.roots[ri], lam_tilde) < 1:
            raise ValueError("lam_tilde does not dominate the support")
    eta = rs.nu(a_root)
    lam_eta = rs.cochar_form(lam_tilde, eta)
    if lam_eta >= 0:
        raise ValueError("(lam_tilde, eta) must be negative")
    eta_sq = rs.cochar_form(eta, eta)
    # (mu, mu) - (lam, lam) = 2 (lam, eta)/a + (eta, eta)/a**2 < 0  iff  a > threshold
    threshold = eta_sq / (-2 * lam_eta)
    a = int(threshold) + 1
    mu = tuple(l + e / a for l, e in zip(lam_tilde, eta))
    if rs.norm_sq(mu) >= rs.norm_sq(lam_tilde):
        raise RuntimeError("mu does not beat lam_tilde in norm")
    if any(rs.pair(rs.roots[ri], mu) < 1 for ri in supp):
        raise RuntimeError("mu does not dominate the support")
    return a, CocharRational.of(rs, mu)


def scan_destabilizers(rs: RootSystem, Y: LieElement, lam_tilde) -> list[int]:
    """Roots that destabilize lam_tilde, empty exactly when no root-based certificate exists;
    a Y with no root support raises ValueError, as destabilizing_certificate does."""
    lam_tilde = rs.cochar_vector(lam_tilde, "lam_tilde")
    _root_support(Y)  # below, ValueError means this root gives no certificate
    found = []
    for ri in range(len(rs.roots)):
        try:
            destabilizing_certificate(rs, Y, lam_tilde, ri)
        except ValueError:
            continue
        found.append(ri)
    return found
