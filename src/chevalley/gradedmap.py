"""Graded bracket blocks, kernel checks, and the density exponent phi.

For Y concentrated in degree k of a cocharacter grading, the bracket
restricts to blocks [Y, .] : g(-i) -> g(k-i), i = 1..k-1, written in
the root-vector bases.  phi is the product of |det|^(1/2) over the
blocks, kept symbolic as q**(-e/2) with an integer half-exponent e;
the kernel theorem makes the blocks square and invertible on optimal
instances, and the functional equations of phi are exact identities on
these exponents.  Each block is stored as sparse rows, one
{column: entry} dict per codomain row holding its nonzero entries only
(a few percent of a block), and every factorization runs on that form;
`GradedBlockMap.blocks` is a dense view, built on first use, for the
oracles (`check_kernel`, `linalg.det`).  For an integer Y, one Smith
form over Z per block (`block_divisors`: diagonalize each connected
piece of the block alone, then fold the diagonal into the divisor chain
one distinct value at a time; Cohen GTM 138, 2.4) gives its rank over Q
and mod every prime; over a valued field, one DVR pass per block feeds
phi, `block_report` and `lattice_image` (capped at m).  Y = 0 lies in
every degree: its blocks are all-zero rows, so phi(0) is 0 if some block
has positive size, else 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import linalg
from .fields import has_valuation
from .grading import delta_exponent, grade, integral_coords, single_degree
from .lie import LieElement, StructureConstants
from .rootsystem import RootSystem
from .snf import INF, dvr_divisor_valuations, integer_elementary_divisors


@dataclass(frozen=True)
class AbsValue:
    """Symbolic absolute value q**(-half_exponent/2); None encodes 0."""

    q: int
    half_exponent: int | None

    def is_zero(self) -> bool:
        return self.half_exponent is None

    def __mul__(self, other: "AbsValue") -> "AbsValue":
        if self.q != other.q:
            raise ValueError("absolute values over different residue fields")
        if self.is_zero() or other.is_zero():
            return AbsValue(self.q, None)
        return AbsValue(self.q, self.half_exponent + other.half_exponent)

    def to_json(self):
        return {"q": self.q,
                "half_exponent": "inf" if self.half_exponent is None else self.half_exponent}

    def __repr__(self):
        if self.is_zero():
            return "0"
        return f"{self.q}^(-{self.half_exponent}/2)"


@dataclass
class GradedBlockMap:
    """Matrices of [Y, .] : g(-i) -> g(k-i) in fixed root-vector bases, as
    sparse rows: block i has one {column: entry} dict per root of g(k-i),
    holding its nonzero entries only."""

    k: int
    rows: dict[int, list[dict]]            # i -> d_{k-i} sparse rows over d_{-i} columns
    domain_basis: dict[int, list[int]]     # i -> root indices of g(-i)
    codomain_basis: dict[int, list[int]]   # i -> root indices of g(k-i)
    zero: object                           # the field's zero, for the dense view

    def sparse_blocks(self) -> list[tuple[int, list[dict], int]]:
        """(i, sparse rows, column count) of every block, in order of i."""
        return [(i, self.rows[i], len(self.domain_basis[i])) for i in sorted(self.rows)]

    @cached_property
    def blocks(self) -> dict[int, list[list]]:
        """Dense view of the blocks, shape d_{k-i} x d_{-i}, for the oracles."""
        return {i: [[row.get(j, self.zero) for j in range(cols)] for row in rows]
                for i, rows, cols in self.sparse_blocks()}

    def shapes(self) -> dict[int, tuple[int, int]]:
        return {i: (len(self.codomain_basis[i]), len(dom))
                for i, dom in self.domain_basis.items()}

    def is_square(self) -> bool:
        return all(r == c for r, c in self.shapes().values())


def ad_blocks(sc: StructureConstants, Y: LieElement, pieces) -> list[list[dict]]:
    """Sparse rows of [Y, .] : span{E_b, b in src} -> span{E_s, s in dst}, one
    block per (src, dst) in pieces.  Y has no Cartan part, every root a + b
    (a in Y's support) lies in dst, and the Cartan part of [E_a, E_-a] is left out."""
    field = Y.field
    # each root's entries y_a N are made once per distinct N (|N| <= 3) and
    # shared by all the blocks, which is safe as entries are immutable
    support = [(key[1], y, {}) for key, y in Y.coeffs.items()]
    blocks = []
    for src, dst in pieces:
        dst_pos = {ri: r for r, ri in enumerate(dst)}
        block = [{} for _ in dst]
        # column c is [Y, E_ri] = sum_a y_a N_{a,ri} E_{a+ri}; distinct a give distinct rows
        for c, ri in enumerate(src):
            for a, y, y_times in support:
                s = sc.root_sum(a, ri)
                if s is not None:
                    n = sc.n(a, ri)
                    entry = y_times.get(n)
                    if entry is None:
                        entry = y_times[n] = y * field.element(n)
                    if entry:  # y N vanishes in characteristic p dividing N
                        block[dst_pos[s]][c] = entry
        blocks.append(block)
    return blocks


def graded_ad(rs: RootSystem, sc: StructureConstants, Y: LieElement, lam,
              k: int) -> GradedBlockMap:
    """Blocks of ad Y on the grading of lam; Y must be 0 or live in degree k >= 1."""
    deg = single_degree(rs, Y, lam) if Y else k
    if deg != k or k < 1:
        raise ValueError(f"Y must be concentrated in degree k = {k} >= 1, found {deg}")
    by_degree = grade(rs, lam).weight_spaces
    dom = {i: by_degree.get(-i, []) for i in range(1, k)}
    cod = {i: by_degree.get(k - i, []) for i in range(1, k)}
    blocks = ad_blocks(sc, Y, [(dom[i], cod[i]) for i in range(1, k)])
    return GradedBlockMap(k=k, rows=dict(zip(range(1, k), blocks)), domain_basis=dom,
                          codomain_basis=cod, zero=Y.field.zero)


def _kernel_entry(gbm: GradedBlockMap, i: int, rank: int) -> dict:
    rows, cols = len(gbm.codomain_basis[i]), len(gbm.domain_basis[i])
    return {"rows": rows, "cols": cols, "rank": rank,
            "injective": rank == cols, "surjective": rank == rows}


def check_kernel(field, gbm: GradedBlockMap) -> dict[int, dict]:
    """Exact rank of every block; injectivity and surjectivity flags."""
    return {i: _kernel_entry(gbm, i, linalg.rank(field, mat))
            for i, mat in sorted(gbm.blocks.items())}


def block_divisors(gbm: GradedBlockMap) -> dict[int, list[int]]:
    """Elementary divisors over Z of every block of an integer Y.  Smith
    transforms are unimodular, so they survive reduction mod any p: a block's
    divisors d give its rank over Q (#{d != 0}), over GF(p) for Y mod p
    (#{d : p does not divide d}), and |det| = prod d."""
    return {i: integer_elementary_divisors(rows, cols) for i, rows, cols in gbm.sparse_blocks()}


def kernel_from_divisors(gbm: GradedBlockMap, divisors: dict[int, list[int]],
                         p: int | None = None) -> dict[int, dict]:
    """check_kernel's payload read off block_divisors: over Q, or over
    GF(p) for the blocks reduced mod p."""
    return {i: _kernel_entry(gbm, i, sum(1 for d in ds if d and (p is None or d % p)))
            for i, ds in divisors.items()}


def phi(field, gbm: GradedBlockMap) -> AbsValue:
    """Product over the blocks of |det|^(1/2) as a symbolic q-power.

    The half-exponent sums the blocks' elementary divisor valuations;
    an infinite one (a zero determinant) gives the distinguished
    infinite exponent.  The empty product (k = 1, or no roots in range)
    is the value 1.
    """
    if not has_valuation(field):
        raise ValueError("phi needs a field with a valuation")
    q = field.residue_cardinality
    if not gbm.is_square():
        raise ValueError(f"blocks are not square: {gbm.shapes()}")
    e = 0
    for _, rows, cols in gbm.sparse_blocks():
        divisors = dvr_divisor_valuations(field, rows, cols)
        if INF in divisors:
            return AbsValue(q, None)
        e += sum(divisors)
    return AbsValue(q, e)


def phi_of(rs: RootSystem, sc: StructureConstants, X: LieElement, lam, k: int,
           field=None) -> AbsValue:
    """phi of a degree-k element (X determines its own blocks)."""
    return phi(field if field is not None else X.field, graded_ad(rs, sc, X, lam, k))


def verify_phi_inverse(rs: RootSystem, sc: StructureConstants, X: LieElement,
                       lam, k: int, field=None) -> bool:
    """phi(-X) = phi(X): the exponent is blind to the sign."""
    a = phi_of(rs, sc, X, lam, k, field)
    b = phi_of(rs, sc, -X, lam, k, field)
    return a == b


def torus_conjugate(rs: RootSystem, X: LieElement, v) -> LieElement:
    """Ad of the torus point with valuation vector v: the coefficient of
    E_a is scaled by uniformizer**<a, v>.  v must be integral."""
    v = integral_coords(v, "the valuation vector v must be integral")
    rs.check_coords(v, "the valuation vector v")
    field = X.field
    pi = field.uniformizer()
    out = {}
    for key, val in X.coeffs.items():
        if key[0] == "H":
            out[key] = val
            continue
        e = sum(map(mul, rs.pairing_rows[key[1]], v))
        if e:
            # one product or quotient by pi**|e|: a single normalization
            power = pi
            for _ in range(abs(e) - 1):
                power = power * pi
            val = val * power if e > 0 else val / power
        out[key] = val
    return LieElement(field, out)


def verify_rrao(rs: RootSystem, sc: StructureConstants, X: LieElement, lam,
                k: int, v, field=None) -> bool:
    """phi(Ad_m X) = delta_{lam,(1,k)}(m) phi(X) as exact exponents.

    m is the torus element of valuation v; the exponent shift is twice
    the delta exponent of the (1, k) slice.  Infinite exponents must
    match on both sides.
    """
    before = phi_of(rs, sc, X, lam, k, field)
    after = phi_of(rs, sc, torus_conjugate(rs, X, v), lam, k, field)
    if before.is_zero():
        return after.is_zero()
    shift = 2 * delta_exponent(rs, lam, 1, k, v) if k > 1 else 0
    return after == before * AbsValue(before.q, shift)


def lattice_image(rs: RootSystem, sc: StructureConstants, Y: LieElement, lam,
                  k: int, i: int, m: int):
    """t-adic elementary divisor valuations of the block A_{-i}(Y),
    capped at the truncation level m.

    Y must have coefficients integral at t (the GF(q)[t] model); the
    output describes the image lattice [Y, g(-i; o)] inside g(k-i; o)
    up to t**m, and stabilizes in m once m exceeds the largest divisor.
    Rank deficiency over the fraction field shows up as None entries.
    """
    if m < 1:
        raise ValueError("truncation level m must be >= 1")
    field = Y.field
    if not has_valuation(field):
        raise ValueError("lattice computations need a valued field")
    for val in Y.coeffs.values():
        if field.valuation(val) < 0:
            raise ValueError("Y must be integral at the uniformizer")
    gbm = graded_ad(rs, sc, Y, lam, k)
    if i not in gbm.rows:
        raise ValueError(f"block index i = {i} outside 1..{k - 1}")
    divisors = dvr_divisor_valuations(field, gbm.rows[i], len(gbm.domain_basis[i]))
    return [v if v is INF else min(v, m) for v in divisors]


def block_report(field, gbm: GradedBlockMap) -> dict:
    """Per-instance JSON payload of the given blocks over a valued field:
    dims, ranks, det valuations, and phi as the product of the blocks'
    |det|^(1/2).  One elimination per block gives its elementary divisor
    valuations: the rank is the number of finite ones, the det valuation
    their sum ("inf" when one is infinite)."""
    if not has_valuation(field):
        raise ValueError("phi needs a field with a valuation")
    per_i, value = {}, AbsValue(field.residue_cardinality, 0)
    for i, rows, cols in gbm.sparse_blocks():
        divisors = dvr_divisor_valuations(field, rows, cols)
        finite = [v for v in divisors if v is not None]
        entry = _kernel_entry(gbm, i, len(finite))
        if entry["rows"] == entry["cols"] > 0:
            # |det|^(1/2), whose half-exponent is the det valuation
            factor = AbsValue(value.q, sum(finite) if len(finite) == len(divisors) else None)
            entry["det_valuation"] = factor.to_json()["half_exponent"]
            value *= factor
        per_i[str(i)] = entry
    out = {"k": gbm.k, "blocks": per_i}
    if gbm.is_square():
        out["phi"] = value.to_json()
    return out
