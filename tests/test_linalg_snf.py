import random
from fractions import Fraction

import pytest

from chevalley import FunctionField, PrimeField, RationalField
from chevalley.fields import Polynomial, RatFunc
from chevalley.linalg import det, kernel_basis, rank
from chevalley.snf import INF, dvr_divisor_valuations, integer_elementary_divisors, sparse_rows

from qp_oracles import solve
from snf_oracles import (dvr_minor_valuations, gcd_lcm_chain, int_det, integer_gcd_of_minors,
                         minor_gcd_divisors)


def mat_vec(A, x, zero):
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, x):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


class _Q:
    zero = Fraction(0)
    one = Fraction(1)


def _rand_frac_matrix(rng, m, n):
    return [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]


def test_rank_det_solve_rationals():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = _rand_frac_matrix(rng, n, n)
        d = det(_Q, A)
        r = rank(_Q, A)
        assert (d != 0) == (r == n)
        if d:
            x_expected = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            b = mat_vec(A, x_expected, Fraction(0))
            assert solve(_Q, A, b) == x_expected
    # inconsistent system
    assert solve(_Q, [[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None


def test_det_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        got = det(_Q, [[Fraction(x) for x in row] for row in A])
        assert got == int_det(A)


def test_kernel_basis():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = _rand_frac_matrix(rng, m, n)
        basis = kernel_basis(_Q, A)
        assert len(basis) == n - rank(_Q, A)
        for v in basis:
            assert all(x == 0 for x in mat_vec(A, v, Fraction(0)))


def test_linear_algebra_over_prime_field():
    f5 = PrimeField(5)
    A = [[f5.element(2), f5.element(1)], [f5.element(4), f5.element(2)]]
    assert rank(f5, A) == 1
    assert det(f5, A) == f5.zero
    assert len(kernel_basis(f5, A)) == 1


def test_integer_snf_examples():
    assert integer_elementary_divisors(sparse_rows([[2, -1], [-1, 2]]), 2) == [1, 3]
    assert integer_elementary_divisors(sparse_rows([[2]]), 1) == [2]
    assert integer_elementary_divisors(sparse_rows([[1, 0], [0, 1]]), 2) == [1, 1]
    assert integer_elementary_divisors(sparse_rows([[0, 0], [0, 0]]), 2) == [0, 0]
    assert integer_elementary_divisors(sparse_rows([[2, 4], [6, 8]]), 2) == [2, 4]
    assert integer_elementary_divisors(sparse_rows([[Fraction(6), Fraction(0)]]), 2) == [6]
    # a non-integral entry is an error, not truncated to int(5/2) = 2
    with pytest.raises(ValueError):
        integer_elementary_divisors(sparse_rows([[Fraction(5, 2), 1], [0, 1]]), 2)


def test_integer_snf_each_sweep_outcome():
    # the sweep leaves a remainder in the pivot's column (4 = 1 * 3 + 1),
    # which is the next pivot
    assert integer_elementary_divisors(sparse_rows([[3], [4]]), 1) == [1]
    # the column comes back clear and the pivot row keeps a remainder mod
    # the pivot, which is the next pivot
    assert integer_elementary_divisors(sparse_rows([[2, 3]]), 2) == [1]
    assert integer_elementary_divisors(sparse_rows([[-3, 5]]), 2) == [1]
    assert integer_elementary_divisors(sparse_rows([[-4, 6, 0], [0, -6, 9]]), 3) == [1, 6]
    # no unit entry: remainders in rows and columns, then a rank drop or a
    # non-unit divisor
    assert integer_elementary_divisors(sparse_rows([[4, 6], [6, 9]]), 2) == [1, 0]
    assert integer_elementary_divisors(sparse_rows([[6, 10], [10, 15]]), 2) == [1, 10]


def test_integer_snf_against_minor_gcd_oracle():
    # d_1 ... d_k = gcd of k x k minors, the classical characterization
    rng = random.Random(0)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        divs = integer_elementary_divisors(sparse_rows(A), n)
        prod = 1
        for k, d in enumerate(divs, start=1):
            prod *= d
            assert prod == integer_gcd_of_minors(A, k)
        for i in range(1, len(divs)):
            if divs[i - 1]:
                assert divs[i] % divs[i - 1] == 0
            else:
                assert divs[i] == 0


def _assert_minor_gcds(A, divs):
    prod = 1
    for k, d in enumerate(divs, start=1):
        prod *= d
        assert prod == integer_gcd_of_minors([[int(x) for x in row] for row in A], k), A


def test_integer_snf_sparse_rectangular_against_oracle():
    # the pivot search stops at a unit and the updates skip zeros, so
    # pin the shapes that exercise those paths against the minor gcds
    cases = [
        [[0, 0, 0], [0, -1, 0], [0, 0, 0]],         # zero rows and columns, unit pivot
        [[0, 0], [0, 0], [0, 5]],                   # one nonzero entry, tall
        [[-4, 0, 6], [0, -6, 0]],                   # negative pivots
        [[2, 0], [0, 3]],                           # 2 does not divide 3: the fold makes [1, 6]
        [[4, 6, 0], [6, 9, 0], [0, 0, 10]],         # remainders in row and column
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 3]],  # unit found after non-units
        [[Fraction(-3), Fraction(0)], [Fraction(6, 2), Fraction(9)]],
        [[0, 0, 0], [0, 0, 0]],                     # all zero
        [[0, 3, 0, 0], [0, 0, 0, 0], [0, 6, 0, 4]],  # a zero row and two zero columns
        [[], [], []],                               # n x 0
        [[2, 3], [3, 2]],                           # non-units only: remainders restart
        [[6, 10, 15]],                              # non-units only, gcd 1
        [[4, 6], [6, 4], [10, 14]],
    ]
    rng = random.Random(20261018)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        density = rng.choice([0.15, 0.35, 0.6])
        hi = rng.choice([1, 3, 12])
        A = [[rng.randint(-hi, hi) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        if rng.random() < 0.3:
            A = [[Fraction(x * 4, 4) for x in row] for row in A]
        cases.append(A)
    for _ in range(100):
        # no unit entry anywhere, so every pivot is a non-unit and remainders
        # restart the search; some rows and columns are zero
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cases.append([[rng.choice([0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15])
                       for _ in range(n)] for _ in range(m)])
    for A in cases:
        divs = integer_elementary_divisors(sparse_rows(A), len(A[0]))
        assert len(divs) == min(len(A), len(A[0]))
        assert all(type(d) is int and d >= 0 for d in divs)
        _assert_minor_gcds(A, divs)
        for i in range(1, len(divs)):
            assert divs[i] % divs[i - 1] == 0 if divs[i - 1] else divs[i] == 0
    assert integer_elementary_divisors(sparse_rows([[2, 0], [0, 3]]), 2) == [1, 6]
    assert integer_elementary_divisors(sparse_rows([[0, -1, 0], [0, 0, 0]]), 3) == [1, 0]
    assert integer_elementary_divisors([], 4) == []  # 0 x n
    assert integer_elementary_divisors([{}, {}], 3) == [0, 0]
    with pytest.raises(ValueError):
        integer_elementary_divisors(sparse_rows([[1, 0], [0, Fraction(1, 2)]]), 2)
    with pytest.raises(ValueError):
        integer_elementary_divisors([{1: Fraction(1, 2)}], 2)


def test_integer_snf_diagonal_needs_gcd_lcm_steps():
    # already diagonal, so every entry is a piece of its own; the chain
    # comes from folding in more than one distinct non-unit value
    cases = [
        ([[4, 0, 0], [0, 6, 0], [0, 0, 9]], [1, 6, 36]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
        ([[12, 0, 0], [0, 18, 0], [0, 0, 8]], [2, 12, 72]),
        ([[0, 6, 0, 0], [4, 0, 0, 0], [0, 0, 0, 0]], [2, 12, 0]),  # a zero divisor
    ]
    for A, expected in cases:
        _assert_minor_gcds(A, expected)
        assert integer_elementary_divisors(sparse_rows(A), len(A[0])) == expected


def _permuted(blocks, rng, extra_rows=0, extra_cols=0):
    """Sparse rows of the block-diagonal matrix of the dense `blocks`, with
    zero rows and columns added and both orders shuffled; and its column count."""
    rows, col0 = [], 0
    for B in blocks:
        width = len(B[0])
        rows += [{col0 + j: x for j, x in enumerate(row) if x} for row in B]
        col0 += width
    rows += [{} for _ in range(extra_rows)]
    cols = col0 + extra_cols
    perm = list(range(cols))
    rng.shuffle(perm)
    rng.shuffle(rows)
    return [{perm[j]: x for j, x in row.items()} for row in rows], cols


def test_integer_snf_fold_matches_pairwise_chain():
    # a diagonal block is all one-entry pieces, so its divisors are the fold
    # of its entries alone: repeated values, units, signs and big values
    rng = random.Random(18)
    pool = [2, 3, 4, 6, 9, 12, 5, 10, 15, 30, 7, 49, 2**64, 3**40, 2**200 * 3,
            2**200 * 5, 6**90]
    repeated = 0
    for _ in range(2000):
        values = [rng.choice(pool) * rng.choice([1, 1, -1]) for _ in range(rng.randint(0, 6))]
        values += rng.choices(values, k=rng.randint(0, 6)) if values else []
        values += [rng.choice([1, -1]) for _ in range(rng.randint(0, 2))]
        repeated += len(set(map(abs, values))) < len(values)
        A, cols = _permuted([[[v]] for v in values], rng, rng.randint(0, 2), rng.randint(0, 2))
        expected = gcd_lcm_chain(values) + [0] * (min(len(A), cols) - len(values))
        assert integer_elementary_divisors(A, cols) == expected, values
    assert repeated > 1000
    assert integer_elementary_divisors([{0: 2**200 * 3}, {1: 2**200 * 3}, {2: 6}], 3) == [
        6, 2**200 * 3, 2**200 * 3]


def test_integer_snf_block_diagonal_against_piece_oracle():
    # block-diagonal matrices of up to 40 x 40, rows and columns shuffled:
    # the divisors are the chain of every piece's own minor-gcd divisors
    rng = random.Random(1018)
    seen = {"one_column": 0, "rank_deficient": 0, "several_pieces": 0}
    for _ in range(60):
        blocks, target = [], rng.randint(4, 34)
        while max(sum(len(B) for B in blocks), sum(len(B[0]) for B in blocks)) < target:
            m, n = rng.randint(1, 4), rng.choice([1, 1, 2, 3, 4])
            hi = rng.choice([1, 4, 12])
            B = [[rng.choice([0, rng.randint(-hi, hi) * rng.choice([1, 6])]) for _ in range(n)]
                 for _ in range(m)]
            if rng.random() < 0.2 and m > 1:
                B[-1] = [2 * x for x in B[0]]  # a dependent row
            if not any(map(any, B)):
                continue
            blocks.append(B)
        pieces = [minor_gcd_divisors(B) for B in blocks]
        seen["one_column"] += any(len(B[0]) == 1 and len(B) > 1 for B in blocks)
        seen["rank_deficient"] += any(0 in ds for ds in pieces)
        seen["several_pieces"] += len(blocks) > 1
        A, cols = _permuted(blocks, rng, rng.randint(0, 3), rng.randint(0, 3))
        assert len(A) <= 40 and cols <= 40
        nonzero = [d for ds in pieces for d in ds if d]
        expected = gcd_lcm_chain(nonzero) + [0] * (min(len(A), cols) - len(nonzero))
        assert integer_elementary_divisors(A, cols) == expected, blocks
    assert all(seen.values()), seen
    # a 32 x 32 partial permutation: 24 one-entry pieces and 8 zero rows
    values = [rng.choice([1, -1, 2, 3, 4, 6, -6, 9, 12]) for _ in range(24)]
    A, cols = _permuted([[[v]] for v in values], rng, 8, 8)
    assert (len(A), cols) == (32, 32)
    assert integer_elementary_divisors(A, cols) == gcd_lcm_chain(values) + [0] * 8
    # row orders that merge pieces late: k one-row parts on their own columns,
    # then a hub row meeting all k of them, or a chain of k - 1 link rows
    # joined from its far end; each order also reversed, and two such
    # matrices side by side with their rows interleaved
    def late(kind):
        k = rng.randint(3, 4)
        widths = [rng.randint(1, 2) for _ in range(k)]
        starts = [sum(widths[:i]) for i in range(k)]
        cols = sum(widths)

        def row(entries):
            r = [0] * cols
            for j in entries:
                r[j] = rng.choice([1, 2, 3, 4, 6, 9, 12]) * rng.choice([1, -1])
            return r

        def col(i):
            return starts[i] + rng.randrange(widths[i])

        B = [row(range(starts[i], starts[i] + widths[i])) for i in range(k)]
        if kind == "hub":
            return B + [row([col(i) for i in range(k)])]
        return B + [row([col(i), col(i + 1)]) for i in reversed(range(k - 1))]

    for _ in range(12):
        for kind in ("hub", "chain"):
            B = late(kind)
            perm = rng.sample(range(len(B[0])), len(B[0]))  # rows keep their order
            for order in (B, B[::-1]):
                A = [{perm[j]: x for j, x in enumerate(r) if x} for r in order]
                assert integer_elementary_divisors(A, len(B[0])) == minor_gcd_divisors(B), order
        B, C = late("hub"), late("chain")
        width, cols = len(B[0]), len(B[0]) + len(C[0])
        A = [{j: x for j, x in enumerate(r) if x} for r in B]
        A += [{width + j: x for j, x in enumerate(r) if x} for r in C]
        A = A[::2] + A[1::2]
        nonzero = [d for ds in (minor_gcd_divisors(B), minor_gcd_divisors(C)) for d in ds if d]
        expected = gcd_lcm_chain(nonzero) + [0] * (min(len(A), cols) - len(nonzero))
        assert integer_elementary_divisors(A, cols) == expected, (B, C)


def test_integer_snf_stalled_elimination_raises(monkeypatch):
    # with a divmod that leaves every remainder whole, [[3], [4]] keeps its
    # least entry 3 at every step: the progress bound raises instead of
    # looping forever
    monkeypatch.setattr("chevalley.snf.divmod", lambda x, p: (0, x), raising=False)
    with pytest.raises(RuntimeError, match="no progress"):
        integer_elementary_divisors(sparse_rows([[3], [4]]), 1)


def test_dvr_divisors_padic():
    q2 = RationalField(2)
    A = [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(3)]]
    vals = dvr_divisor_valuations(q2, sparse_rows(A), 2)
    # det = 8, gcd of entries has v = 0
    assert vals == [0, 3]
    assert sum(vals) == q2.valuation(det(_Q, A))


def test_dvr_divisors_function_field():
    F = FunctionField(3)
    t = F.t()
    one = F.one

    def scaled_unimodular(diag_exps):
        # diag(t^e) conjugated by v-integral unimodular (unit det) matrices
        n = len(diag_exps)
        D = [[(t if i == j else F.zero) for j in range(n)] for i in range(n)]
        for i, e in enumerate(diag_exps):
            x = one
            for _ in range(e):
                x = x * t
            D[i][i] = x
        # shear rows/columns with integral entries
        for i in range(n - 1):
            for j in range(n):
                D[i][j] = D[i][j] + (one + t) * D[i + 1][j]
        for j in range(n - 1):
            for i in range(n):
                D[i][j] = D[i][j] + t * D[i][j + 1]
        return D

    rng = random.Random(5)
    for _ in range(25):
        exps = sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        A = scaled_unimodular(exps)
        assert dvr_divisor_valuations(F, sparse_rows(A), len(A)) == exps


def test_dvr_divisors_rank_deficient():
    F = FunctionField(2)
    t = F.t()
    A = [[t, t], [t, t]]
    assert dvr_divisor_valuations(F, sparse_rows(A), 2) == [1, None]


def _valued_unit(field, rng):
    """A random unit of the valuation ring: over Q_p a signed a/b with
    p dividing neither; over GF(q)(t) (c0 + c1 t) / (1 + c2 t), c0 != 0."""
    if isinstance(field, RationalField):
        a, b = (rng.choice([x for x in range(1, 8) if x % field.p]) for _ in range(2))
        return Fraction(rng.choice([1, -1]) * a, b)
    elems = list(field.base.elements())  # elems[0] is 0
    num = Polynomial(field.base, [rng.choice(elems[1:]), rng.choice(elems)])
    return RatFunc(num, Polynomial(field.base, [field.base.one, rng.choice(elems)]))


def _valued_scalar(field, rng, lo, hi):
    """A unit times the uniformizer to a random power in lo..hi."""
    x, pi = _valued_unit(field, rng), field.uniformizer()
    e = rng.randint(lo, hi)
    for _ in range(abs(e)):
        x = x * pi if e > 0 else x / pi
    return x


@pytest.mark.parametrize("field", [RationalField(2), RationalField(3), FunctionField(2),
                                   FunctionField(4)], ids=repr)
def test_dvr_divisors_match_minor_oracle(field):
    """The partial sums of dvr_divisor_valuations are the least valuations
    of the k x k minors, on sparse rectangular matrices with entries of
    negative valuation, zero rows and columns and dependent rows."""
    rng = random.Random(f"dvr:{field!r}")
    seen = {"negative": 0, "zero_line": 0, "deficient": 0, "gap": 0, "non_unit": 0}
    cases = [[[field.zero] * 3 for _ in range(2)], [[], []]]  # all zero; n x 0
    for case in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        # the last ten have no unit entry: every pivot has positive valuation
        lo, hi = (-2, 2) if case < 30 else (1, 3)
        A = [[_valued_scalar(field, rng, lo, hi) if rng.random() < 0.6 else field.zero
              for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # a row that depends on the others, with multipliers of any valuation
            r = rng.randrange(rows)
            A[r] = [field.zero] * cols
            for s in range(rows):
                if s != r:
                    c = _valued_scalar(field, rng, -1, 1)
                    A[r] = [x + c * y for x, y in zip(A[r], A[s])]
        if rng.random() < 0.3:
            if rng.random() < 0.5:
                A[rng.randrange(rows)] = [field.zero] * cols
            else:
                j = rng.randrange(cols)
                for row in A:
                    row[j] = field.zero
        cases.append(A)
    for A in cases:
        rows, cols = len(A), len(A[0])
        vals = dvr_divisor_valuations(field, sparse_rows(A), cols)
        size = min(rows, cols)
        finite = [v for v in vals if v is not INF]
        assert len(vals) == size and vals == finite + [INF] * (size - len(finite))
        assert finite == sorted(finite)
        for k in range(1, size + 1):
            expected = sum(vals[:k]) if k <= len(finite) else None
            assert dvr_minor_valuations(field, A, k) == expected, (A, vals, k)
        seen["negative"] += any(v < 0 for v in finite)
        seen["zero_line"] += any(not any(row) for row in A) or any(
            not any(row[j] for row in A) for j in range(cols))
        seen["deficient"] += len(finite) < size
        seen["gap"] += any(b - a > 1 for a, b in zip(finite, finite[1:]))
        seen["non_unit"] += bool(finite) and finite[0] > 0
    assert all(seen.values()), seen
    assert dvr_divisor_valuations(field, [], 3) == []  # 0 x n
    assert dvr_divisor_valuations(field, [{}, {}], 2) == [INF, INF]


def test_det_shapes_and_an_inconsistent_solve():
    q = RationalField()
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        det(q, [[Fraction(1), Fraction(2)]])
    assert det(q, []) == 1  # the empty product
    one = Fraction(1)
    assert solve(q, [[one, one], [one, one]], [one, Fraction(2)]) is None
