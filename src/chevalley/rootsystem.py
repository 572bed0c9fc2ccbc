"""Reduced root systems with an invariant pairing, coroots and chains.

Roots are stored as integer coordinate tuples in the simple-root basis.
Cocharacters live in the lattice of the chosen isogeny type: the coroot
lattice for simply connected groups (basis = simple coroots), the
coweight lattice for adjoint groups (basis = fundamental coweights).
The invariant form is normalized so long roots have squared length 2 in
each irreducible factor; an optional per-factor positive rational scale
exposes the norm-independence tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import QQ
from .linalg import rref

Root = tuple[int, ...]

SIMPLY_CONNECTED = "simply_connected"
ADJOINT = "adjoint"

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def integer(x, what: str) -> int:
    """x as an int; a fraction means an integrality invariant of the
    root data broke."""
    if x.denominator != 1:
        raise RuntimeError(f"non-integral {what} {x}")
    return int(x)


def _dynkin_data(series: str, rank: int):
    """Edges and squared lengths (long = 2) of one irreducible factor;
    ValueError unless it is A1+, B2+, C2+, D3+, E6-E8, F4 or G2."""
    chain = [(i, i + 1) for i in range(rank - 1)]
    two = Fraction(2)
    if series == "A" and rank >= 1:
        return chain, [two] * rank
    if series == "B" and rank >= 2:
        return chain, [two] * (rank - 1) + [Fraction(1)]
    if series == "C" and rank >= 2:
        return chain, [Fraction(1)] * (rank - 1) + [two]
    if series == "D" and rank >= 3:
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
        return edges, [two] * rank
    if series == "E" and rank in (6, 7, 8):
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        return edges, [two] * rank
    if series == "F" and rank == 4:
        return chain, [two, two, Fraction(1), Fraction(1)]
    if series == "G" and rank == 2:
        return chain, [Fraction(2, 3), two]
    raise ValueError(f"invalid Cartan type {series}{rank}")


def _close_under_reflections(cartan, rank):
    """All roots of one factor, by closure under simple reflections."""
    roots = set()
    frontier = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        roots.add(e)
        frontier.append(e)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            p = sum(beta[j] * cartan[i][j] for j in range(rank))
            if p == 0:
                continue
            img = list(beta)
            img[i] -= p
            img = tuple(img)
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    return roots


class RootSystem:
    """A reduced root system (possibly a product) with its pairing data."""

    def __init__(self, cartan_type, isogeny, scale=None):
        if isinstance(cartan_type, str):
            cartan_type = parse_cartan_type(cartan_type)
        cartan_type = [(str(s).upper(), int(r)) for s, r in cartan_type]
        if not cartan_type:
            raise ValueError("empty Cartan type")
        dynkin = [_dynkin_data(series, r) for series, r in cartan_type]
        if isogeny not in (SIMPLY_CONNECTED, ADJOINT):
            raise ValueError(f"unknown isogeny type {isogeny!r}")
        self.cartan_type = tuple(cartan_type)
        self.isogeny = isogeny
        self.rank = sum(r for _, r in cartan_type)
        if scale is None:
            scale = [Fraction(1)] * len(cartan_type)
        scale = [Fraction(s) for s in scale]
        if len(scale) != len(cartan_type) or any(s <= 0 for s in scale):
            raise ValueError("scale must give one positive rational per factor")

        n = self.rank
        # symmetric form on the character space, long roots squared length 2,
        # then scaled per factor
        form = [[Fraction(0)] * n for _ in range(n)]
        self.cartan = [[0] * n for _ in range(n)]
        offset = 0
        for (edges, lengths), s in zip(dynkin, scale):
            for i, length in enumerate(lengths):
                form[offset + i][offset + i] = length * s
            for (i, j) in edges:
                v = -max(lengths[i], lengths[j]) / 2 * s
                form[offset + i][offset + j] = v
                form[offset + j][offset + i] = v
            offset += len(lengths)
        self.char_form = form
        for i in range(n):
            for j in range(n):
                self.cartan[i][j] = integer(2 * form[i][j] / form[i][i], "Cartan entry")

        # roots, factor by factor, positives first sorted by (height, coords)
        all_roots = []
        offset = 0
        for f, (series, r) in enumerate(cartan_type):
            sub = [[self.cartan[offset + i][offset + j] for j in range(r)] for i in range(r)]
            for root in _close_under_reflections(sub, r):
                full = (0,) * offset + root + (0,) * (n - offset - r)
                all_roots.append(full)
            offset += r
        # height first, then leftmost-simple-root first (so a1 < a2 < ...,
        # matching the usual extraspecial-pair convention)
        positives = sorted((a for a in all_roots if sum(a) > 0),
                           key=lambda a: (sum(a), tuple(-c for c in a)))
        if any(c < 0 for a in positives for c in a):
            raise RuntimeError("a positive root has a negative coordinate")
        self.roots = positives + [tuple(-c for c in a) for a in positives]
        self.root_index = {a: i for i, a in enumerate(self.roots)}
        self.positive_roots = list(range(len(positives)))
        self.simple_roots = [self.root_index[tuple(1 if j == i else 0 for j in range(n))]
                             for i in range(n)]
        expected = sum(ROOT_COUNTS[s](r) for s, r in cartan_type)
        if len(self.roots) != expected:
            raise RuntimeError(f"root count {len(self.roots)} != classical {expected}")

        # pairing of roots against the cocharacter lattice basis
        if isogeny == SIMPLY_CONNECTED:
            self.basis_pairing = [[self.cartan[j][i] for j in range(n)] for i in range(n)]
        else:
            self.basis_pairing = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        # per root, by root index: squared length, pairing row <a, basis_j>,
        # and the coroot in the cocharacter basis
        self.len_sq = []
        self.pairing_rows = []
        self.coroots = []
        for a in self.roots:
            # <a, simple coroot j>, and from it (a, a) = sum_j a_j (a, alpha_j)
            on_coroots = tuple(sum(x * c for x, c in zip(a, row)) for row in self.cartan)
            la = sum(x * c * form[j][j] for j, (x, c) in enumerate(zip(a, on_coroots)) if x) / 2
            # over the simple coroots a^v = sum_i a_i (alpha_i, alpha_i)/(a, a) alpha_i^v,
            # and alpha_i^v is row i of the Cartan matrix over the fundamental coweights
            ks = [integer(x * form[i][i] / la, "coroot coordinate") for i, x in enumerate(a)]
            if isogeny == ADJOINT:
                ks = [sum(k * row[j] for k, row in zip(ks, self.cartan)) for j in range(n)]
            self.len_sq.append(la)
            self.pairing_rows.append(on_coroots if isogeny == SIMPLY_CONNECTED else a)
            self.coroots.append(tuple(ks))

        # Gram matrix of the cocharacter basis for the dual invariant form
        if isogeny == SIMPLY_CONNECTED:
            self.gram = [[4 * form[i][j] / (form[i][i] * form[j][j]) for j in range(n)]
                         for i in range(n)]
        else:
            # the fundamental coweights are the dual basis of the nu(simple
            # roots), whose Gram is char_form, so theirs is its inverse
            reduced, _ = rref(QQ, [r + [Fraction(i == j) for j in range(n)] for i, r in enumerate(form)])
            self.gram = [row[n:] for row in reduced]
        # the same Gram as integers over one denominator, for cochar_form
        self.gram_den = lcm(*(g.denominator for row in self.gram for g in row))
        self.gram_num = [[g.numerator * (self.gram_den // g.denominator) for g in row]
                         for row in self.gram]

    # -- basic queries ------------------------------------------------

    def is_positive(self, a: Root) -> bool:
        return sum(a) > 0

    def negative(self, i: int) -> int:
        """Index of -a_i: the negatives follow the positives in the same order."""
        npos = len(self.positive_roots)
        return i + npos if i < npos else i - npos

    def root_form(self, a, b) -> Fraction:
        """Invariant form (a, b) on the character space."""
        acc = Fraction(0)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        acc += ai * bj * self.char_form[i][j]
        return acc

    def root_len_sq(self, a) -> Fraction:
        """Squared length (a, a) of the root a."""
        return self.len_sq[self.root_index[tuple(a)]]

    def check_coords(self, x, name: str) -> None:
        """ValueError unless x has rank coordinates: the pairings zip x
        against rank-long rows and would drop a missing or extra one."""
        if len(x) != self.rank:
            raise ValueError(f"{name} has {len(x)} coordinates, "
                             f"{self.type_string()} has rank {self.rank}")

    def pair(self, a, lam) -> Fraction | int:
        """Canonical pairing <a, lam> of the root a with a cocharacter."""
        self.check_coords(lam, "the cocharacter")
        acc = 0
        for p, lj in zip(self.pairing_rows[self.root_index[tuple(a)]], lam):
            if p and lj:
                acc += p * lj
        return acc

    def coroot(self, a) -> tuple[int, ...]:
        """Coordinates of the coroot of a in the cocharacter basis."""
        return self.coroots[self.root_index[tuple(a)]]

    def cochar_form(self, x, y) -> Fraction:
        """Invariant form (x, y) on the cocharacter space: summed against
        the integer Gram, with one division by its denominator."""
        self.check_coords(x, "the cocharacter")
        self.check_coords(y, "the cocharacter")
        acc = 0
        for xi, row in zip(x, self.gram_num):
            if xi:
                acc += xi * sum(yj * g for yj, g in zip(y, row) if yj)
        return Fraction(acc, self.gram_den)

    def norm_sq(self, lam) -> Fraction:
        return self.cochar_form(lam, lam)

    def nu(self, a) -> tuple[Fraction, ...]:
        """Image of the root a under the pairing-induced map into
        cocharacter space: <b, nu(a)> = (b, a) and (lam, nu(a)) = <a, lam>.
        In closed form nu(a) = (a, a)/2 * coroot(a)."""
        i = self.root_index[tuple(a)]
        half = self.len_sq[i] / 2
        return tuple(half * c for c in self.coroots[i])

    def reflect(self, a, b) -> Root:
        """s_a(b) = b - <b, coroot(a)> a for roots a and b."""
        c = self.pair(b, self.coroot(a))
        return tuple(bi - c * ai for ai, bi in zip(a, b))

    def reflect_cochar(self, i: int, lam):
        """Simple reflection s_i acting on a cocharacter coordinate vector."""
        si = self.simple_roots[i]
        p = self.pair(self.roots[si], lam)
        return tuple(l - p * c for l, c in zip(lam, self.coroots[si]))

    def alpha_chain(self, a, b) -> tuple[int, int]:
        """Largest q, r >= 0 with {j a + b : j in [-q, r]} inside the roots."""
        a, b = tuple(a), tuple(b)
        if a not in self.root_index or b not in self.root_index:
            raise ValueError("chain endpoints must be roots")
        if a == b or a == tuple(-x for x in b):
            raise ValueError("alpha-chain of proportional roots is undefined")
        q = 0
        while tuple(bi - (q + 1) * ai for ai, bi in zip(a, b)) in self.root_index:
            q += 1
        r = 0
        while tuple(bi + (r + 1) * ai for ai, bi in zip(a, b)) in self.root_index:
            r += 1
        return q, r

    def dim(self) -> int:
        return len(self.roots) + self.rank

    def type_string(self) -> str:
        return "x".join(f"{s}{r}" for s, r in self.cartan_type)

    def to_json(self) -> dict:
        return {
            "cartan_type": self.type_string(),
            "isogeny": self.isogeny,
            "rank": self.rank,
            "root_count": len(self.roots),
            "roots": [list(a) for a in self.roots],
            "simple_roots": self.simple_roots,
            "positive_roots": self.positive_roots,
            "cartan_matrix": self.cartan,
            "pairing_matrix": [[str(x) for x in row] for row in self.gram],
            "coroots": {str(i): list(c) for i, c in enumerate(self.coroots)},
        }


def parse_cartan_type(text: str):
    """Parse "A2", "G2", or products like "A2xA1"."""
    factors = []
    for part in text.replace("X", "x").split("x"):
        part = part.strip()
        if len(part) < 2 or not part[0].isalpha():
            raise ValueError(f"cannot parse Cartan type {text!r}")
        factors.append((part[0].upper(), int(part[1:])))
    return factors


def build(cartan_type, isogeny=SIMPLY_CONNECTED, scale=None) -> RootSystem:
    """Construct a root system of the given type and isogeny."""
    return RootSystem(cartan_type, isogeny, scale=scale)
