"""Reference oracle for the structure-constant table in `lie`.

`RecursiveStructureConstants` builds the table the long way: one walk
over all |Phi|^2 ordered pairs of roots records the index of each sum
a_i + a_j and, per sum of two positive roots, its extraspecial pair (the
first positive a_i, in root order, that reaches it); then each of the
entries is computed on its own by a memoised recursion.  A positive
pair takes q + 1 when it is extraspecial and the four-root identity
against the extraspecial pair of its sum otherwise; a pair of negative
roots takes minus its negated pair; a mixed pair is rotated to a
positive pair by the relation N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
on a + b + c = 0.  Its tables are `sum`, `n` and `extraspecial`, keyed by
root-index pairs and by sum index.
"""

from chevalley.rootsystem import RootSystem, exact_div


class RecursiveStructureConstants:

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # c(a) = sum_k a_k base**k is additive, and injective on sums of
        # two roots once base > 4 max |a_k|
        base = 4 * max(map(max, rs.roots)) + 1
        codes = [sum(c * base ** k for k, c in enumerate(a)) for a in rs.roots]
        index_of = {c: i for i, c in enumerate(codes)}
        npos = len(rs.positive_roots)
        self.sum: dict[tuple[int, int], int] = {}
        self.extraspecial: dict[int, tuple[int, int]] = {}
        for i, ci in enumerate(codes):
            for j, cj in enumerate(codes):
                s = index_of.get(ci + cj)
                if s is not None:
                    self.sum[i, j] = s
                    if i < npos and j < npos:
                        self.extraspecial.setdefault(s, (i, j))
        self.n: dict[tuple[int, int], int] = {}
        for i, j in self.sum:
            self._compute(i, j)

    def _compute(self, i: int, j: int) -> int:
        val = self.n.get((i, j))
        if val is not None:
            return val
        s = self.sum[i, j]
        rs, neg, ell = self.rs, self.rs.negative, self.rs.len_num
        npos = len(rs.positive_roots)
        if i < npos and j < npos:
            if i > j:
                val = -self._compute(j, i)
            elif self.extraspecial[s] == (i, j):
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
        self.n[i, j] = val
        return val

    def _from_four_root_identity(self, a: int, b: int, s: int) -> int:
        """Special pair via the four-root identity against the
        extraspecial pair (a1, b1) of s = a + b; all terms involve sums
        of strictly smaller height."""
        neg, ell = self.rs.negative, self.rs.len_num
        a1, b1 = self.extraspecial[s]
        na, nb = neg(a), neg(b)
        # the sum of the known terms as num / d
        num, d = 0, 1
        t1 = self.sum.get((b1, na))  # b1 - a
        if t1 is not None:
            num, d = num * ell[t1] + self._compute(b1, na) * self._compute(a1, nb) * d, d * ell[t1]
        t2 = self.sum.get((a1, na))  # a1 - a
        if t2 is not None:
            num, d = num * ell[t2] + self._compute(na, a1) * self._compute(b1, nb) * d, d * ell[t2]
        return exact_div(num * ell[s], d * self._compute(a1, b1), "structure constant")
