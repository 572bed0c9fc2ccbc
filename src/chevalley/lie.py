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

The last identity, applied against the extraspecial pair of a+b,
recurses on the height of the sum.  The table is built on ints: the
relations use only ratios of squared lengths, so they read the root
system's integer numerators `rs.len_num` over their one denominator, and
each division by a length or by N is exact (`rootsystem.exact_div`).
"""

from __future__ import annotations

from math import lcm

from .rootsystem import RootSystem, exact_div

# basis keys: ("E", root index) and ("H", cocharacter basis index)


class LieElement:
    """Sparse element: map from basis key to a field element.

    Zero coefficients are never stored (canonical form).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[k] = v

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return LieElement(self.field, out)

    def __neg__(self):
        return LieElement(self.field, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "LieElement":
        if not c:
            return LieElement(self.field)
        return LieElement(self.field, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, LieElement) and other.field == self.field
                and other.coeffs == self.coeffs)

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements over different coefficient fields")

    def support_roots(self) -> list[int]:
        """Root indices carrying a nonzero coefficient."""
        return sorted(k[1] for k in self.coeffs if k[0] == "E")

    def cartan_part(self) -> dict[int, object]:
        return {k[1]: v for k, v in self.coeffs.items() if k[0] == "H"}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v!r})*{k[0]}{k[1]}" for k, v in sorted(self.coeffs.items()))


def root_vector(rs: RootSystem, field, root, coeff=1) -> LieElement:
    """c * E_root; root given by index or coordinate tuple."""
    return LieElement(field, {("E", rs.index(root)): field.element(coeff)})


def element_from_support(rs: RootSystem, field, support, coefficients=None) -> LieElement:
    """Sum of root vectors; support entries are coordinate lists or indices,
    and a repeated root adds up its coefficients (all 1 if None).  A length
    mismatch or a sum that is zero over the field raises ValueError.  Each
    of support and coefficients is read once, so an iterator counts."""
    support = tuple(support)
    coefficients = (1,) * len(support) if coefficients is None else tuple(coefficients)
    if len(coefficients) != len(support):
        raise ValueError(f"{len(coefficients)} coefficients for {len(support)} support roots")
    out: dict = {}
    for root, c in zip(support, coefficients):
        key, c = ("E", rs.index(root)), field.element(c)
        out[key] = out[key] + c if key in out else c
    Y = LieElement(field, out)
    if Y.is_zero():
        raise ValueError("support collapsed to zero over the chosen field")
    return Y


def integer_multiple(Y: LieElement) -> LieElement:
    """D Y, D the lcm of the denominators of Y's rational coefficients."""
    return Y.scaled(lcm(*(c.denominator for c in Y.coeffs.values())))


def cartan_vector(rs: RootSystem, field, coords) -> LieElement:
    """Cartan element with the given cocharacter-basis coordinates."""
    coords = rs.check_coords(coords, "the Cartan vector")
    return LieElement(field, {("H", j): field.element(c) for j, c in enumerate(coords)})


def coroot_element(rs: RootSystem, field, root) -> LieElement:
    """H_a = the coroot of a, reduced into the cocharacter lattice basis."""
    return cartan_vector(rs, field, rs.coroot(root))


class StructureConstants:
    """Integer Chevalley structure constants for one root system, keyed
    by root index.  One walk over all pairs (i, j) records the index of
    a_i + a_j and, for each sum of two positive roots, its extraspecial
    pair: the first positive a_i, in root order, that reaches it."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # c(a) = sum_k a_k base**k is additive, and injective on sums of
        # two roots once base > 4 max |a_k|
        base = 4 * max(map(max, rs.roots)) + 1
        codes = [sum(c * base ** k for k, c in enumerate(a)) for a in rs.roots]
        index_of = {c: i for i, c in enumerate(codes)}
        npos = len(rs.positive_roots)
        self._sum: dict[tuple[int, int], int] = {}
        self._extraspecial: dict[int, tuple[int, int]] = {}
        for i, ci in enumerate(codes):
            for j, cj in enumerate(codes):
                s = index_of.get(ci + cj)
                if s is not None:
                    self._sum[i, j] = s
                    if i < npos and j < npos:
                        self._extraspecial.setdefault(s, (i, j))
        self._n: dict[tuple[int, int], int] = {}
        for i, j in self._sum:
            self._compute(i, j)

    def _compute(self, i: int, j: int) -> int:
        val = self._n.get((i, j))
        if val is not None:
            return val
        s = self._sum[i, j]
        rs, neg, ell = self.rs, self.rs.negative, self.rs.len_num
        npos = len(rs.positive_roots)
        if i < npos and j < npos:
            if i > j:
                val = -self._compute(j, i)
            elif self._extraspecial[s] == (i, j):
                val = rs.alpha_chain(rs.roots[i], rs.roots[j])[0] + 1
            else:
                val = self._from_four_root_identity(i, j, s)
        elif i >= npos and j >= npos:
            val = -self._compute(neg(i), neg(j))
        else:
            # mixed signs: rotate the triple (a, b, -(a+b)) to a positive pair
            a, b, sign = (i, j, 1) if i < npos else (j, i, -1)
            if s < npos:
                # N_{a,b} = -(s,s)/(a,a) N_{-b, s}
                num, d = -ell[s] * self._compute(neg(b), s), ell[a]
            else:
                # N_{a,b} = (s,s)/(b,b) N_{-s, a}
                num, d = ell[s] * self._compute(neg(s), a), ell[b]
            val = exact_div(sign * num, d, "structure constant")
        self._n[i, j] = val
        return val

    def _from_four_root_identity(self, a: int, b: int, s: int) -> int:
        """Special pair via the four-root identity against the
        extraspecial pair (a1, b1) of s = a + b; all terms involve sums
        of strictly smaller height."""
        neg, ell = self.rs.negative, self.rs.len_num
        a1, b1 = self._extraspecial[s]
        na, nb = neg(a), neg(b)
        # the sum of the known terms as num / d
        num, d = 0, 1
        t1 = self._sum.get((b1, na))  # b1 - a
        if t1 is not None:
            num, d = num * ell[t1] + self._compute(b1, na) * self._compute(a1, nb) * d, d * ell[t1]
        t2 = self._sum.get((a1, na))  # a1 - a
        if t2 is not None:
            num, d = num * ell[t2] + self._compute(na, a1) * self._compute(b1, nb) * d, d * ell[t2]
        return exact_div(num * ell[s], d * self._compute(a1, b1), "structure constant")

    def root_sum(self, i: int, j: int) -> int | None:
        """Index of a_i + a_j; None when the sum is not a root."""
        return self._sum.get((i, j))

    def n(self, i: int, j: int) -> int:
        """N_{a,b} for root indices i, j; 0 when the sum is not a root."""
        return self._n.get((i, j), 0)

    def max_abs_n(self) -> int:
        return max((abs(v) for v in self._n.values()), default=0)

    def to_json(self) -> dict:
        return {
            "type": self.rs.type_string(),
            "isogeny": self.rs.isogeny,
            "n": {f"{i},{j}": v for (i, j), v in sorted(self._n.items())},
            "coroots": {str(i): list(c) for i, c in enumerate(self.rs.coroots)},
        }


def structure_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


def bracket(sc: StructureConstants, X: LieElement, Y: LieElement) -> LieElement:
    """[X, Y] over the common coefficient field of X and Y."""
    X._check(Y)
    rs = sc.rs
    field = X.field
    out: dict = {}

    def add(key, val):
        out[key] = out[key] + val if key in out else val

    for ka, va in X.coeffs.items():
        for kb, vb in Y.coeffs.items():
            if ka[0] == "H" and kb[0] == "H":
                continue
            if ka[0] == "H" and kb[0] == "E":
                w = rs.pairing_rows[kb[1]][ka[1]]  # <b, basis_j>
                if w:
                    add(kb, va * vb * field.element(w))
            elif ka[0] == "E" and kb[0] == "H":
                w = rs.pairing_rows[ka[1]][kb[1]]
                if w:
                    add(ka, -(va * vb * field.element(w)))
            else:
                s = sc.root_sum(ka[1], kb[1])
                if s is not None:
                    add(("E", s), va * vb * field.element(sc.n(ka[1], kb[1])))
                elif kb[1] == rs.negative(ka[1]):
                    c = va * vb
                    for j, h in enumerate(rs.coroots[ka[1]]):
                        if h:
                            add(("H", j), c * field.element(h))
    return LieElement(field, out)
