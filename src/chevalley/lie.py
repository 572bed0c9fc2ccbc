"""The Lie algebra in a Chevalley basis over an exact coefficient field.

Basis: one vector E_a per root a, plus the Cartan subalgebra spanned by
the cocharacter lattice basis of the chosen isogeny type (so mod-p
degeneration of the coroots is representable).  Structure constants are
integers; N_{a,b} magnitudes are chain lengths q+1, signs fixed by the
extraspecial-pair convention on the (height, lex) order of positive
roots and propagated by the classical relations:

    N_{b,a} = -N_{a,b}
    N_{-a,-b} = -N_{a,b}
    a+b+c = 0  =>  N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
    a+b+c+d = 0, no two opposite  =>
        N_{a,b} N_{c,d}/(a+b,a+b) + N_{b,c} N_{a,d}/(b+c,b+c)
            + N_{c,a} N_{b,d}/(c+a,c+a) = 0

The table is one walk over the zero-sum triples {x, y, -(x+y)}, x < y
positive, in order of the height of x + y.  The first triple of each
sum is its extraspecial pair and takes N_{x,y} = q + 1; the others take
the last identity against it, whose terms lie in triples of lower
height; the first three relations then give the triple's 12 ordered
entries.  The table is built on ints: the relations use only ratios of
squared lengths, so they read the root system's integer numerators
`rs.len_num` over their one denominator, and each division by a length
or by N is exact (`rootsystem.exact_div`).  `sc.rows[i]` maps each j
with a_i + a_j a root to (index of a_i + a_j, N_{a_i,a_j}), so `bracket`
and `gradedmap.ad_blocks` read one row per support root.
"""

from __future__ import annotations

from math import lcm

from .rootsystem import RootSystem, exact_div


def _add(out: dict, key, val) -> None:
    out[key] = out[key] + val if key in out else val


class LieElement:
    """Sparse element: `roots` maps a root index a to the coefficient of
    E_a, `cartan` a cocharacter-basis index j to the coefficient of H_j.

    Zero coefficients are never stored (canonical form).
    """

    __slots__ = ("field", "roots", "cartan")

    def __init__(self, field, *, roots=None, cartan=None):
        self.field = field
        self.roots = {a: v for a, v in roots.items() if v} if roots else {}
        self.cartan = {j: v for j, v in cartan.items() if v} if cartan else {}

    def is_zero(self) -> bool:
        return not (self.roots or self.cartan)

    def __bool__(self):
        return bool(self.roots or self.cartan)

    def _map(self, f) -> "LieElement":
        return LieElement(self.field, roots={a: f(v) for a, v in self.roots.items()},
                          cartan={j: f(v) for j, v in self.cartan.items()})

    def __add__(self, other):
        self._check(other)
        roots, cartan = dict(self.roots), dict(self.cartan)
        for out, part in ((roots, other.roots), (cartan, other.cartan)):
            for key, v in part.items():
                _add(out, key, v)
        return LieElement(self.field, roots=roots, cartan=cartan)

    def __neg__(self):
        return self._map(lambda v: -v)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "LieElement":
        return self._map(lambda v: c * v)

    def __eq__(self, other):
        return (isinstance(other, LieElement) and other.field == self.field
                and other.roots == self.roots and other.cartan == self.cartan)

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements over different coefficient fields")

    def coefficients(self) -> list:
        """Every stored coefficient, the root part's first."""
        return [*self.roots.values(), *self.cartan.values()]

    def support_roots(self) -> list[int]:
        """Root indices carrying a nonzero coefficient."""
        return sorted(self.roots)

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join([f"({v!r})*E{a}" for a, v in sorted(self.roots.items())]
                          + [f"({v!r})*H{j}" for j, v in sorted(self.cartan.items())])


def root_vector(rs: RootSystem, field, root, coeff=1) -> LieElement:
    """c * E_root; root given by index or coordinate tuple."""
    return LieElement(field, roots={rs.index(root): field.element(coeff)})


def _sequence(x, name: str, of: str) -> tuple:
    try:
        return tuple(x)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {of}, got {x!r}") from None


def element_from_support(rs: RootSystem, field, support, coefficients=None) -> LieElement:
    """Sum of root vectors; support entries are coordinate lists or indices,
    and a repeated root adds up its coefficients (all 1 if None).  A length
    mismatch or a sum that is zero over the field raises ValueError.  Each
    of support and coefficients is read once, so an iterator counts, and
    one that is not iterable raises ValueError."""
    support = _sequence(support, "the support", "roots")
    coefficients = ((1,) * len(support) if coefficients is None
                    else _sequence(coefficients, "the coefficients", "coefficients"))
    if len(coefficients) != len(support):
        raise ValueError(f"{len(coefficients)} coefficients for {len(support)} support roots")
    roots: dict = {}
    for root, c in zip(support, coefficients):
        _add(roots, rs.index(root), field.element(c))
    Y = LieElement(field, roots=roots)
    if Y.is_zero():
        raise ValueError("support collapsed to zero over the chosen field")
    return Y


def integer_multiple(Y: LieElement) -> LieElement:
    """D Y, D the lcm of the denominators of Y's rational coefficients."""
    return Y.scaled(lcm(*(c.denominator for c in Y.coefficients())))


def cartan_vector(rs: RootSystem, field, coords) -> LieElement:
    """Cartan element with the given cocharacter-basis coordinates."""
    coords = rs.check_coords(coords, "the Cartan vector")
    return LieElement(field, cartan={j: field.element(c) for j, c in enumerate(coords)})


def coroot_element(rs: RootSystem, field, root) -> LieElement:
    """H_a = the coroot of a, reduced into the cocharacter lattice basis."""
    return cartan_vector(rs, field, rs.coroot(root))


class StructureConstants:
    """Integer Chevalley structure constants for one root system, keyed by
    root index: `rows[i]` maps each j with a_i + a_j a root to the pair
    (index of a_i + a_j, N_{a_i,a_j}).

    Every such pair belongs to exactly one zero-sum triple {x, y, -(x+y)},
    x < y positive, or to its negative.  One code sum per pair of
    positive roots finds the triples; sorted by the index of x + y, so by
    its height, each sum's first triple is its extraspecial pair, and the
    triple walk of the module docstring fills them in that order."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        npos, size, ell = len(rs.positive_roots), len(rs.roots), rs.len_num
        # c(a) = sum_k a_k base**k is additive, and injective on sums of
        # two positive roots once base > 2 max a_k
        base = 2 * max(map(max, rs.roots)) + 1
        codes = [sum(c * base ** k for k, c in enumerate(a)) for a in rs.roots[:npos]]
        index_of = {c: i for i, c in enumerate(codes)}
        triples = sorted((z, x, y) for x, cx in enumerate(codes) for y in range(x + 1, npos)
                         if (z := index_of.get(cx + codes[y])) is not None)
        self.rows = rows = [{} for _ in range(size)]
        top = None  # the sum whose extraspecial pair (a1, b1) is read
        for z, x, y in triples:
            nx, ny, nz = x + npos, y + npos, z + npos
            if z != top:
                top, a1, b1 = z, x, y
                n = n1 = rs.alpha_chain(x, y)[0] + 1
            else:
                # N_{x,y} = (z,z)/N_{a1,b1} (N_{b1,-x} N_{a1,-y}/(b1-x, b1-x)
                #                             + N_{-x,a1} N_{b1,-y}/(a1-x, a1-x)),
                # a term present when its root b1 - x or a1 - x is one
                num, d = 0, 1
                t = rows[b1].get(nx)
                if t is not None:
                    num, d = num * ell[t[0]] + t[1] * rows[a1][ny][1] * d, d * ell[t[0]]
                t = rows[a1].get(nx)
                if t is not None:
                    num, d = num * ell[t[0]] - t[1] * rows[b1][ny][1] * d, d * ell[t[0]]
                n = exact_div(num * ell[z], d * n1, "structure constant")
            # N_{x,y}/(z,z) = N_{y,-z}/(x,x) = N_{-z,x}/(y,y) on x + y - z = 0,
            # then N_{b,a} = -N_{a,b} and N_{-a,-b} = -N_{a,b}
            for a, b, c, v in ((x, y, nz, n),
                               (y, nz, x, exact_div(n * ell[x], ell[z], "structure constant")),
                               (nz, x, y, exact_div(n * ell[y], ell[z], "structure constant"))):
                na, nb, nc = (a + npos) % size, (b + npos) % size, (c + npos) % size
                rows[a][b], rows[b][a] = (nc, v), (nc, -v)
                rows[na][nb], rows[nb][na] = (c, -v), (c, v)

    def root_sum(self, i: int, j: int) -> int | None:
        """Index of a_i + a_j; None when the sum is not a root."""
        entry = self.rows[i].get(j)
        return None if entry is None else entry[0]

    def n(self, i: int, j: int) -> int:
        """N_{a,b} for root indices i, j; 0 when the sum is not a root."""
        entry = self.rows[i].get(j)
        return 0 if entry is None else entry[1]

    def max_abs_n(self) -> int:
        return max((abs(v) for row in self.rows for _, v in row.values()), default=0)

    def to_json(self) -> dict:
        return {
            "type": self.rs.type_string(),
            "isogeny": self.rs.isogeny,
            "n": {f"{i},{j}": row[j][1] for i, row in enumerate(self.rows) for j in sorted(row)},
            "coroots": {str(i): list(c) for i, c in enumerate(self.rs.coroots)},
        }


def structure_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


def bracket(sc: StructureConstants, X: LieElement, Y: LieElement) -> LieElement:
    """[X, Y] over the common coefficient field of X and Y."""
    X._check(Y)
    rs, field = sc.rs, X.field
    roots, cartan = {}, {}
    # [E_a, E_b] = N_{a,b} E_{a+b}, or the coroot H_a when b = -a
    for a, va in X.roots.items():
        row, neg = sc.rows[a], rs.negative(a)
        for b, vb in Y.roots.items():
            sum_n = row.get(b)
            if sum_n is not None:
                _add(roots, sum_n[0], va * vb * field.element(sum_n[1]))
            elif b == neg:
                c = va * vb
                for j, h in enumerate(rs.coroots[a]):
                    if h:
                        _add(cartan, j, c * field.element(h))
    # [H_j, E_b] = <b, basis_j> E_b = -[E_b, H_j]
    for hs, es, sign in ((X.cartan, Y.roots, 1), (Y.cartan, X.roots, -1)):
        for j, vh in hs.items():
            for b, vb in es.items():
                w = rs.pairing_rows[b][j]
                if w:
                    _add(roots, b, vh * vb * field.element(sign * w))
    return LieElement(field, roots=roots, cartan=cartan)
