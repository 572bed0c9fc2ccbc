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
recurses on the height of the sum.
"""

from __future__ import annotations

from fractions import Fraction

from .rootsystem import RootSystem

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
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                s = w + v
                if s:
                    out[k] = s
                else:
                    del out[k]
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
    idx = root if isinstance(root, int) else rs.root_index[tuple(root)]
    c = coeff if not isinstance(coeff, (int, str, Fraction)) else field.element(coeff)
    return LieElement(field, {("E", idx): c})

def cartan_vector(rs: RootSystem, field, coords) -> LieElement:
    """Cartan element with the given cocharacter-basis coordinates."""
    out = {}
    for j, c in enumerate(coords):
        ce = c if not isinstance(c, (int, str, Fraction)) else field.element(c)
        if ce:
            out[("H", j)] = ce
    return LieElement(field, out)


def coroot_element(rs: RootSystem, field, root) -> LieElement:
    """H_a = the coroot of a, reduced into the cocharacter lattice basis."""
    a = rs.roots[root] if isinstance(root, int) else tuple(root)
    return cartan_vector(rs, field, rs.coroot(a))


class StructureConstants:
    """Integer Chevalley structure constants for one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._extraspecial = self._find_extraspecial()
        self._n: dict[tuple[int, int], int] = {}
        roots = rs.roots
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                s = tuple(x + y for x, y in zip(a, b))
                if s in rs.root_index:
                    self._n[(i, j)] = self._compute(a, b)

    def _find_extraspecial(self):
        """For each non-simple positive root g, the minimal positive a
        (in root order) with a and g - a positive roots."""
        rs = self.rs
        out = {}
        for gi in rs.positive_roots:
            g = rs.roots[gi]
            if rs.height(g) < 2:
                continue
            for ai in rs.positive_roots:
                a = rs.roots[ai]
                rest = tuple(x - y for x, y in zip(g, a))
                if rest in rs.root_index and sum(rest) > 0:
                    out[g] = (a, rest)
                    break
        return out

    def _compute(self, a, b, _memo_key=None):
        rs = self.rs
        key = (rs.root_index[a], rs.root_index[b])
        if key in self._n:
            return self._n[key]
        s = tuple(x + y for x, y in zip(a, b))
        if s not in rs.root_index:
            return 0
        apos, bpos = sum(a) > 0, sum(b) > 0
        if apos and bpos:
            ia, ib = rs.root_index[a], rs.root_index[b]
            if ia > ib:
                val = -self._compute(b, a)
            elif self._extraspecial.get(s) == (a, b):
                val = rs.alpha_chain(a, b)[0] + 1
            else:
                val = self._from_four_root_identity(a, b, s)
        elif not apos and not bpos:
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            val = -self._compute(na, nb)
        else:
            # mixed signs: rotate the triple (a, b, -(a+b)) to a positive pair
            if not apos:
                a2, b2 = b, a
                swap = -1
            else:
                a2, b2 = a, b
                swap = 1
            if sum(s) > 0:
                # N_{a2,b2} = -(s,s)/(a2,a2) N_{-b2, s}
                nb2 = tuple(-x for x in b2)
                ratio = rs.root_len_sq(s) / rs.root_len_sq(a2)
                val = -ratio * self._compute(nb2, s)
            else:
                # N_{a2,b2} = (s,s)/(b2,b2) N_{-s, a2}
                ns = tuple(-x for x in s)
                ratio = rs.root_len_sq(s) / rs.root_len_sq(b2)
                val = ratio * self._compute(ns, a2)
            val = swap * val
            val = Fraction(val)
            assert val.denominator == 1
            val = int(val)
        self._n[key] = int(val)
        return int(val)

    def _from_four_root_identity(self, a, b, s):
        """Special pair via the four-root identity against the
        extraspecial pair (a1, b1) of s = a + b; all terms involve sums
        of strictly smaller height."""
        rs = self.rs
        a1, b1 = self._extraspecial[s]
        na = tuple(-x for x in a)
        nb = tuple(-x for x in b)
        n_extra = self._compute(a1, b1)
        total = Fraction(0)
        t1 = tuple(x + y for x, y in zip(b1, na))  # b1 - a
        if t1 in rs.root_index:
            total += Fraction(self._compute(b1, na) * self._compute(a1, nb),
                              rs.root_len_sq(t1))
        t2 = tuple(x + y for x, y in zip(a1, na))  # a1 - a
        if t2 in rs.root_index:
            total += Fraction(self._compute(na, a1) * self._compute(b1, nb),
                              rs.root_len_sq(t2))
        val = total * rs.root_len_sq(s) / n_extra
        assert val.denominator == 1
        return int(val)

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
            "coroots": {str(i): list(self.rs.coroot(a)) for i, a in enumerate(self.rs.roots)},
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
        if not val:
            return
        cur = out.get(key)
        if cur is None:
            out[key] = val
        else:
            s = cur + val
            if s:
                out[key] = s
            else:
                del out[key]

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
                a = rs.roots[ka[1]]
                b = rs.roots[kb[1]]
                s = tuple(x + y for x, y in zip(a, b))
                if not any(s):
                    c = va * vb
                    for j, h in enumerate(rs.coroot(a)):
                        if h:
                            add(("H", j), c * field.element(h))
                elif s in rs.root_index:
                    nval = sc.n(ka[1], kb[1])
                    if nval:
                        add(("E", rs.root_index[s]), va * vb * field.element(nval))
    return LieElement(field, out)
