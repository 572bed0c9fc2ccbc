"""Reduced root systems with an invariant pairing, coroots and chains.

Roots are stored as integer coordinate tuples in the simple-root basis.
Cocharacters live in the lattice of the chosen isogeny type: the coroot
lattice for simply connected groups (basis = simple coroots), the
coweight lattice for adjoint groups (basis = fundamental coweights).
Every table is built from the integer Cartan matrix and the simple roots'
squared lengths: long roots have squared length 2 in each irreducible
factor, times an optional per-factor scale (a positive int or Fraction)
that exposes the norm-independence tests and cancels from the Cartan
matrix.  The
invariant form on the simple roots, `char_form`, is their Fraction view.

The per-root tables are built on ints, by one formula for both isogenies:
the pairing row is <a, alpha_j^v> (simply connected) or a_j (adjoint),
and the other of the two vectors gives the coroot, each coordinate an
exact integer division; each squared length is an int over one common
denominator (`len_num`, `len_den`; `len_sq` is their Fraction view,
which no other module reads).  The loop runs over the positive roots,
and -a takes the length of a and the negatives of its pairing row and
coroot.  The same loop records each positive root's height parent
(`height_parents`): a - alpha_j for the first simple root with
<a, alpha_j^v> > 0, so `degrees` pairs a vector with every root by
adding one simple degree per root.
The cocharacter Gram on each factor f is rank_f sum_{a>0} <a, x><a, y>
over its trace sum_{a>0} (a, a), so the module solves no linear system
and imports nothing from the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul

Root = tuple[int, ...]

SIMPLY_CONNECTED = "simply_connected"
ADJOINT = "adjoint"


def exact_div(num: int, den: int, what: str) -> int:
    """num / den for ints, as an int; a remainder means an integrality
    invariant of the root data broke."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"non-integral {what} {Fraction(num, den)}")
    return q


def _dynkin_data(series: str, rank: int):
    """Edges, squared lengths (long = 2) and root count of one irreducible
    factor; ValueError unless it is A1+, B2+, C2+, D3+, E6-E8, F4 or G2."""
    chain = [(i, i + 1) for i in range(rank - 1)]
    two = Fraction(2)
    if series == "A" and rank >= 1:
        return chain, [two] * rank, rank * (rank + 1)
    if series == "B" and rank >= 2:
        return chain, [two] * (rank - 1) + [Fraction(1)], 2 * rank * rank
    if series == "C" and rank >= 2:
        return chain, [Fraction(1)] * (rank - 1) + [two], 2 * rank * rank
    if series == "D" and rank >= 3:
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
        return edges, [two] * rank, 2 * rank * (rank - 1)
    if series == "E" and rank in (6, 7, 8):
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        return edges, [two] * rank, {6: 72, 7: 126, 8: 240}[rank]
    if series == "F" and rank == 4:
        return chain, [two, two, Fraction(1), Fraction(1)], 48
    if series == "G" and rank == 2:
        return chain, [Fraction(2, 3), two], 12
    raise ValueError(f"invalid Cartan type {series}{rank}")


def _close_under_reflections(cartan):
    """All roots, by closing the simple roots under the simple reflections
    beta -> beta - <beta, alpha_i^v> alpha_i."""
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(cartan):
            p = sum(map(mul, beta, row))
            if p:
                img = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if img not in roots:
                    roots.add(img)
                    frontier.append(img)
    return roots


class RootSystem:
    """A reduced root system (possibly a product) with its pairing data."""

    def __init__(self, cartan_type, isogeny, scale=None):
        if isinstance(cartan_type, str):
            cartan_type = parse_cartan_type(cartan_type)
        if not isinstance(cartan_type, (list, tuple)) or not all(
                isinstance(f, (list, tuple)) and len(f) == 2 and isinstance(f[0], str)
                and type(f[1]) in (int, float, Fraction) for f in cartan_type):
            raise ValueError("a Cartan type is a string or a list of (letter, int rank) "
                             f"pairs, got {cartan_type!r}")
        cartan_type = [(s.upper(), r) for s, r in cartan_type]
        for s, r in cartan_type:
            if type(r) is not int:  # int() would truncate 2.5 or 2.0 to a valid rank
                raise ValueError(f"invalid Cartan type {s}{r}")
        if not cartan_type:
            raise ValueError("empty Cartan type")
        dynkin = [_dynkin_data(series, r) for series, r in cartan_type]
        if isogeny not in (SIMPLY_CONNECTED, ADJOINT):
            raise ValueError(f"unknown isogeny type {isogeny!r}")
        self.cartan_type = tuple(cartan_type)
        self.isogeny = isogeny
        self.rank = n = sum(r for _, r in cartan_type)
        if scale is None:
            scale = [1] * len(cartan_type)
        if (not isinstance(scale, (list, tuple)) or len(scale) != len(cartan_type)
                or not {int, Fraction}.issuperset(map(type, scale)) or min(scale) <= 0):
            raise ValueError("scale must give one positive rational per factor")

        # the simple roots' squared lengths, long = 2 times the factor's scale
        # (the only place the scale enters), as ints ell_j over their lcm D,
        # and the Cartan matrix <alpha_j, alpha_i^v> = -max(l_i, l_j)/l_i on a
        # Dynkin edge, where the scale cancels
        edges, lengths = [], []
        for (factor_edges, factor_lengths, _), s in zip(dynkin, scale):
            edges += [(len(lengths) + i, len(lengths) + j) for i, j in factor_edges]
            lengths += [length * s for length in factor_lengths]
        den = lcm(*(length.denominator for length in lengths))
        ell = [length.numerator * (den // length.denominator) for length in lengths]
        self.cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for edge in edges:
            for i, j in (edge, edge[::-1]):
                self.cartan[i][j] = exact_div(-max(ell[i], ell[j]), ell[i], "Cartan entry")

        # the roots, closed under simple reflections on the block-diagonal
        # Cartan matrix, so each stays in its factor
        all_roots = _close_under_reflections(self.cartan)
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
        expected = sum(count for _, _, count in dynkin)
        if len(self.roots) != expected:
            raise RuntimeError(f"root count {len(self.roots)} != classical {expected}")

        # per root, by root index, built on the positive roots: squared length,
        # pairing row <a, basis_j>, and the coroot in the cocharacter basis; on ints, with
        # (a, a) = len_num[a] / len_den and len_den = 2D
        self.len_den = 2 * den
        self.len_num = []
        self.pairing_rows = []
        self.coroots = []
        # per positive root a, (index of a - alpha_j, j), or (None, j) when
        # a = alpha_j: the first j with <a, alpha_j^v> > 0 makes a - alpha_j
        # a root or 0, and a root of lower height, so of lower index
        self.height_parents = []
        for a in positives:
            # <a, simple coroot j>, and from it 2D (a, a) = sum_j a_j <a, alpha_j^v> ell_j
            on_coroots = tuple(sum(map(mul, a, row)) for row in self.cartan)
            j = next((j for j, c in enumerate(on_coroots) if c > 0), None)
            parent = None if j is None else a[:j] + (a[j] - 1,) + a[j + 1:]
            if parent is None or any(parent) and parent not in self.root_index:
                raise RuntimeError(f"no simple root alpha_j with {a} - alpha_j a root or 0")
            self.height_parents.append((self.root_index.get(parent), j))
            two_d_la = sum(x * c * l for x, c, l in zip(a, on_coroots, ell) if x)
            # a^v = sum_j a_j (alpha_j, alpha_j)/(a, a) alpha_j^v over the simple
            # coroots, and <alpha_j, a^v> = <a, alpha_j^v> (alpha_j, alpha_j)/(a, a)
            # over the fundamental coweights: one formula on the other vector
            row, src = (on_coroots, a) if isogeny == SIMPLY_CONNECTED else (a, on_coroots)
            self.len_num.append(two_d_la)
            self.pairing_rows.append(row)
            self.coroots.append(tuple(exact_div(2 * x * l, two_d_la, "coroot coordinate")
                                      for x, l in zip(src, ell)))
        # -a has the length of a, and the negatives of its pairing row and coroot
        self.len_num += self.len_num
        self.pairing_rows += [tuple(-c for c in row) for row in self.pairing_rows]
        self.coroots += [tuple(-c for c in h) for h in self.coroots]
        self.len_sq = [Fraction(x, self.len_den) for x in self.len_num]
        # pairing of the simple roots against the cocharacter lattice basis
        self.basis_pairing = [self.pairing_rows[s] for s in self.simple_roots]

        # Gram matrix of the cocharacter basis for the dual invariant form: on
        # a factor f, B(x, y) = sum_{a>0} <a, x><a, y> is W-invariant, so it is
        # c_f (x, y), with rank_f c_f = sum_{a>0} (a, a) its trace; B vanishes
        # across factors, and a positive root's factor is its height parent's j
        factor = [f for f, (_, r) in enumerate(cartan_type) for _ in range(r)]
        trace = [0] * len(cartan_type)
        for (_, j), num in zip(self.height_parents, self.len_num):
            trace[factor[j]] += num
        columns = list(zip(*self.pairing_rows[:len(positives)]))
        self.gram = [[None] * n for _ in range(n)]
        for i, ci in enumerate(columns):
            f = factor[i]
            weight = cartan_type[f][1] * self.len_den
            for j in range(i, n):
                g = Fraction(weight * sum(map(mul, ci, columns[j])), trace[f])
                self.gram[i][j] = self.gram[j][i] = g
        # the same Gram as integers over one denominator, for cochar_form
        self.gram_den = lcm(*(g.denominator for row in self.gram for g in row))
        self.gram_num = [[g.numerator * (self.gram_den // g.denominator) for g in row]
                         for row in self.gram]

    # -- basic queries ------------------------------------------------

    def negative(self, i: int) -> int:
        """Index of -a_i: the negatives follow the positives in the same order."""
        npos = len(self.positive_roots)
        return i + npos if i < npos else i - npos

    @property
    def char_form(self) -> list[list[Fraction]]:
        """The invariant form on the simple roots, as a Fraction view of the
        Cartan matrix and the lengths: (alpha_i, alpha_j) = <alpha_j, alpha_i^v>
        (alpha_i, alpha_i)/2."""
        return [[Fraction(c * self.len_num[s], 2 * self.len_den) for c in row]
                for row, s in zip(self.cartan, self.simple_roots)]

    def root_form(self, a, b) -> Fraction:
        """Invariant form (a, b) = sum_j b_j <a, alpha_j^v> (alpha_j, alpha_j)/2
        on the character space; a and b are sequences of rank coordinates."""
        a, b = self.check_coords(a, "a"), self.check_coords(b, "b")
        acc = sum(bj * sum(map(mul, a, row)) * self.len_num[s]
                  for bj, row, s in zip(b, self.cartan, self.simple_roots) if bj)
        return Fraction(acc, 2 * self.len_den)

    def index(self, root) -> int:
        """The index of a root given by its index (an int in range, not a
        bool) or by its coordinates (ints, not bools: a bool, float or
        Fraction compares equal to an int); ValueError for anything else."""
        i = root
        if isinstance(root, bool) or not isinstance(root, int):
            try:
                coords = tuple(root)
            except TypeError:  # not iterable
                coords = ()
            i = self.root_index.get(coords, -1) if set(map(type, coords)) == {int} else -1
        if not 0 <= i < len(self.roots):
            raise ValueError(f"{root!r} is not a root of {self.type_string()}")
        return i

    def root_len_sq(self, a) -> Fraction:
        """Squared length (a, a) of the root a."""
        return self.len_sq[self.index(a)]

    def check_coords(self, x, name: str) -> tuple:
        """x as a tuple; ValueError unless it is a sequence of rank coordinates:
        the pairings zip x against rank-long rows and would drop a missing or extra one."""
        try:
            x = tuple(x)
        except TypeError:
            raise ValueError(f"{name} must be a sequence of coordinates, got {x!r}") from None
        if len(x) != self.rank:
            raise ValueError(f"{name} has {len(x)} coordinates, "
                             f"{self.type_string()} has rank {self.rank}")
        return x

    def cochar_vector(self, x, name: str) -> tuple:
        """x as a tuple of rank coordinates, each an int or a Fraction: not a
        bool, nor a float, which is not exact; ValueError otherwise."""
        x = self.check_coords(x, name)
        if not {int, Fraction}.issuperset(map(type, x)):
            raise ValueError(f"{name} must have int or Fraction coordinates, got {x!r}")
        return x

    def lattice_vector(self, x, name: str) -> tuple[int, ...]:
        """x as a tuple of rank ints; ValueError for what cochar_vector refuses
        and for a non-integral coordinate, which a truncating int() would hide."""
        x = self.check_coords(x, name)
        if {int}.issuperset(map(type, x)):  # the common case; a bool is not an int here
            return x
        if any(c.denominator != 1 for c in self.cochar_vector(x, name)):
            raise ValueError(f"{name} must be integral, got {x}")
        return tuple(int(c) for c in x)

    def pair(self, a, lam) -> Fraction | int:
        """Canonical pairing <a, lam> of the root a with a cocharacter."""
        lam = self.cochar_vector(lam, "the cocharacter")
        return sum(map(mul, self.pairing_rows[self.index(a)], lam))

    def degrees(self, x) -> list:
        """<a, x> for every root a, by root index: x meets the simple roots
        once, each positive root adds one simple degree to its height
        parent's, and -a gets the negative."""
        x = self.cochar_vector(x, "the cocharacter")
        simple = [sum(map(mul, self.pairing_rows[s], x)) for s in self.simple_roots]
        out = []
        for parent, j in self.height_parents:
            out.append(simple[j] if parent is None else out[parent] + simple[j])
        return out + [-d for d in out]

    def coroot(self, a) -> tuple[int, ...]:
        """Coordinates of the coroot of a in the cocharacter basis."""
        return self.coroots[self.index(a)]

    def cochar_form(self, x, y) -> Fraction:
        """Invariant form (x, y) on the cocharacter space: summed against
        the integer Gram, with one division by its denominator."""
        x = self.cochar_vector(x, "the cocharacter")
        y = self.cochar_vector(y, "the cocharacter")
        acc = 0
        for xi, row in zip(x, self.gram_num):
            if xi:
                acc += xi * sum(yj * g for yj, g in zip(y, row) if yj)
        return Fraction(acc, self.gram_den)

    def norm_sq(self, lam) -> Fraction:
        lam = self.cochar_vector(lam, "the cocharacter")
        return self.cochar_form(lam, lam)

    def nu(self, a) -> tuple[Fraction, ...]:
        """Image of the root a under the pairing-induced map into
        cocharacter space: <b, nu(a)> = (b, a) and (lam, nu(a)) = <a, lam>.
        In closed form nu(a) = (a, a)/2 * coroot(a)."""
        i = self.index(a)
        half = self.len_sq[i] / 2
        return tuple(half * c for c in self.coroots[i])

    def reflect(self, a, b) -> Root:
        """s_a(b) = b - <b, coroot(a)> a for roots a and b."""
        a, b = self.roots[self.index(a)], self.roots[self.index(b)]
        c = self.pair(b, self.coroot(a))
        return tuple(bi - c * ai for ai, bi in zip(a, b))

    def reflect_cochar(self, i: int, lam):
        """Simple reflection s_i acting on a cocharacter coordinate vector;
        i is an int with 0 <= i < rank, not a bool."""
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < self.rank:
            raise ValueError(f"{i!r} is not a simple root index of {self.type_string()}")
        si, lam = self.simple_roots[i], self.cochar_vector(lam, "the cocharacter")
        p = self.pair(si, lam)
        return tuple(l - p * c for l, c in zip(lam, self.coroots[si]))

    def alpha_chain(self, a, b) -> tuple[int, int]:
        """Largest q, r >= 0 with {j a + b : j in [-q, r]} inside the roots."""
        a, b = self.roots[self.index(a)], self.roots[self.index(b)]
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
    """Parse "A2", "G2", or products like "A2xA1": each factor one ASCII
    letter and an ASCII-digit rank, so "A1_0", "A+2", "A 2" and "A2.5"
    raise ValueError rather than reaching int()."""
    factors = []
    for part in text.replace("X", "x").split("x"):
        match = re.fullmatch(r"([A-Za-z])([0-9]+)", part.strip())
        if match is None:
            raise ValueError(f"cannot parse Cartan type {text!r}")
        factors.append((match[1].upper(), int(match[2])))
    return factors


def build(cartan_type, isogeny=SIMPLY_CONNECTED, scale=None) -> RootSystem:
    """Construct a root system of the given type and isogeny."""
    return RootSystem(cartan_type, isogeny, scale=scale)
