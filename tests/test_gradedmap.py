import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from chevalley import (AbsValue, FunctionField, PrimeField, RationalField,
                       bracket, build, cartan_vector, graded_ad,
                       lattice_image, optimal_cocharacter, phi, phi_of, root_vector,
                       structure_constants, torus_conjugate, verify_phi_inverse,
                       verify_rrao)
from chevalley.corpus import element_from_support, run_instance, standard_instances
from chevalley.gradedmap import (GradedBlockMap, block_divisors, block_report,
                                 check_kernel, kernel_from_divisors)
from chevalley.lie import LieElement
from chevalley.fields import QQ, Polynomial, RatFunc
from chevalley.linalg import det
from chevalley.optimality import minimum_norm_cocharacter
from chevalley.snf import INF, dvr_divisor_valuations, sparse_rows

from conftest import (check_lattice_image, check_phi_homogeneity, check_phi_identities,
                      random_graded_element, random_polynomial_element, random_square_grading)


@pytest.fixture(scope="module")
def sl3():
    rs = build("A2")
    return rs, structure_constants(rs)


def _minimal_instance(rs, field):
    Y = root_vector(rs, field, rs.root_index[(1, 1)])
    return Y, (1, 1), 2


def test_minimal_sl3_block_is_antidiagonal_units(sl3):
    rs, sc = sl3
    q = RationalField()
    Y, lam, k = _minimal_instance(rs, q)
    gbm = graded_ad(rs, sc, Y, lam, k)
    assert set(gbm.blocks) == {1}
    assert gbm.shapes() == {1: (2, 2)}
    flat = sorted(abs(x) for row in gbm.blocks[1] for x in row)
    assert flat == [0, 0, 1, 1]
    assert abs(det(q, gbm.blocks[1])) == 1
    kern = check_kernel(q, gbm)
    assert kern[1]["injective"] and kern[1]["surjective"]


def test_minimal_sl3_block_mod_small_primes(sl3):
    rs, sc = sl3
    for p in (2, 3):
        fp = PrimeField(p)
        Y, lam, k = _minimal_instance(rs, fp)
        kern = check_kernel(fp, graded_ad(rs, sc, Y, lam, k))
        assert kern[1]["injective"]


def test_sl2_regular_has_no_blocks():
    rs = build("A1")
    sc = structure_constants(rs)
    q2 = RationalField(2)
    Y = root_vector(rs, q2, rs.simple_roots[0])
    gbm = graded_ad(rs, sc, Y, (1,), 2)
    assert gbm.shapes() == {1: (0, 0)}  # d_1 = 0: the block family is empty
    assert phi(q2, gbm) == AbsValue(2, 0)


def test_graded_ad_rejects_mixed_degrees(sl3):
    rs, sc = sl3
    q = RationalField()
    Y = element_from_support(rs, q, [rs.root_index[(1, 1)], rs.simple_roots[0]])
    with pytest.raises(ValueError):
        graded_ad(rs, sc, Y, (1, 1), 2)


def test_graded_ad_scaling_linearity(sl3):
    rs, sc = sl3
    q = RationalField()
    Y, lam, k = _minimal_instance(rs, q)
    c = Fraction(7, 3)
    a = graded_ad(rs, sc, Y.scaled(c), lam, k)
    b = graded_ad(rs, sc, Y, lam, k)
    for i in b.blocks:
        assert a.blocks[i] == [[c * x for x in row] for row in b.blocks[i]]


def test_zero_matrix_block_not_injective():
    gbm = GradedBlockMap(k=2, rows={1: sparse_rows([[Fraction(0), Fraction(0)],
                                                    [Fraction(0), Fraction(0)]])},
                         domain_basis={1: [0, 1]}, codomain_basis={1: [2, 3]},
                         zero=Fraction(0))
    kern = check_kernel(QQ, gbm)
    assert not kern[1]["injective"]
    assert phi(RationalField(5), gbm).is_zero()


def test_phi_examples(sl3):
    rs, sc = sl3
    for p in (2, 5):
        qp = RationalField(p)
        Y, lam, k = _minimal_instance(rs, qp)
        assert phi_of(rs, sc, Y, lam, k) == AbsValue(p, 0)
        # phi(pY): one 2x2 block scales entrywise
        assert phi_of(rs, sc, Y.scaled(qp.element(p)), lam, k) == AbsValue(p, 2)
    with pytest.raises(ValueError):
        phi_of(rs, sc, _minimal_instance(rs, RationalField())[0], (1, 1), 2)


def test_phi_zero_element(sl3):
    rs, sc = sl3
    q2 = RationalField(2)
    assert phi_of(rs, sc, LieElement(q2), (1, 1), 2).is_zero()
    # k = 1: empty product even for the zero element
    assert phi_of(rs, sc, LieElement(q2), (1, 1), 1) == AbsValue(2, 0)
    # phi(-0) = phi(0): both infinite exponents count as equal
    assert verify_phi_inverse(rs, sc, LieElement(q2), (1, 1), 2)
    # the zero element follows phi's rules: a non-square grading (A2 at
    # lam = (1, 1), k = 3 has 1x2 and 2x1 blocks) or k < 1 raises
    with pytest.raises(ValueError, match="blocks are not square"):
        phi_of(rs, sc, LieElement(q2), (1, 1), 3)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"degree k = {k} >= 1"):
            phi_of(rs, sc, LieElement(q2), (1, 1), k)


def test_graded_ad_accepts_zero_element(sl3):
    """Y = 0 lies in every degree: its blocks are all-zero rows of the
    shapes the grading gives, and its lattice divisors are all infinite."""
    rs, sc = sl3
    for field in (RationalField(2), FunctionField(2)):
        gbm = graded_ad(rs, sc, LieElement(field), (1, 1), 3)
        assert gbm.rows == {1: [{}], 2: [{}, {}]}
        assert gbm.shapes() == {1: (1, 2), 2: (2, 1)}
    F = FunctionField(2)
    assert lattice_image(rs, sc, LieElement(F), (1, 1), 2, 1, 3) == [None, None]
    assert lattice_image(rs, sc, LieElement(F), (1, 1), 3, 2, 3) == [None]


def test_absvalue_multiplication():
    assert AbsValue(3, 2) * AbsValue(3, 5) == AbsValue(3, 7)
    assert (AbsValue(3, None) * AbsValue(3, 1)).is_zero()
    with pytest.raises(ValueError):
        AbsValue(3, 1) * AbsValue(5, 1)


@pytest.mark.parametrize("t", ["A2", "B2", "C3"])
def test_phi_inverse_and_rrao_randomized(t):
    rs = build(t)
    fields = [RationalField(2), RationalField(3), RationalField(7), FunctionField(4)]
    check_phi_identities(rs, structure_constants(rs), random.Random(f"rrao-{t}"), fields, 60)


def test_rrao_examples(sl3):
    rs, sc = sl3
    q2 = RationalField(2)
    Y, lam, k = _minimal_instance(rs, q2)
    assert verify_rrao(rs, sc, Y, lam, k, (0, 0))
    assert verify_rrao(rs, sc, Y, lam, k, (1, 0))
    # explicit exponent check: Ad_m scales coefficients by p^<a, v>
    v = (1, 0)
    before = phi_of(rs, sc, Y, lam, k)
    after = phi_of(rs, sc, torus_conjugate(rs, Y, v), lam, k)
    from chevalley import delta_exponent

    assert after.half_exponent - before.half_exponent == 2 * delta_exponent(rs, lam, 1, k, v)
    # v = (1/2, 1/3) is no torus point: refused as grade refuses a
    # non-integral lam, where a truncating int() used to report True
    with pytest.raises(ValueError):
        torus_conjugate(rs, Y, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        verify_rrao(rs, sc, Y, lam, k, (Fraction(1, 2), Fraction(1, 3)))
    assert verify_rrao(rs, sc, Y, lam, k, (Fraction(2), Fraction(-1)))


def test_torus_conjugate_keeps_cartan_components(sl3):
    """The torus acts trivially on the Cartan: H components pass through
    unchanged while E_a is scaled by p**<a, v>."""
    rs, sc = sl3
    q2 = RationalField(2)
    a1, a12 = rs.root_index[(1, 0)], rs.root_index[(1, 1)]
    X = (root_vector(rs, q2, a1, 3) + root_vector(rs, q2, rs.negative(a12), 5)
         + cartan_vector(rs, q2, (7, Fraction(1, 2))))
    # at v = (1, 0): <a1, v> = 2 and <-(a1 + a2), v> = -1
    Xv = torus_conjugate(rs, X, (1, 0))
    assert Xv.roots == {a1: Fraction(12), rs.negative(a12): Fraction(5, 2)}
    assert Xv.cartan == {0: Fraction(7), 1: Fraction(1, 2)}


def test_phi_homogeneity_random():
    rs = build("B2")
    check_phi_homogeneity(random.Random(2024), [(rs, structure_constants(rs))],
                          [RationalField(3), FunctionField(2)], 30)


def test_phi_rejects_non_square_blocks():
    # A3: phi_of refuses X = E_theta at lam = (1, 1, 1), k = 3, and phi
    # refuses the rectangular blocks of a correctly graded X
    rs = build("A3")
    sc = structure_constants(rs)
    q2 = RationalField(2)
    lam = (1, 1, 1)
    theta = rs.root_index[(1, 1, 1)]
    X = root_vector(rs, q2, theta)
    with pytest.raises(ValueError):
        phi_of(rs, sc, X, lam, 3)
    # lam above is given in coroot coordinates, where theta has degree 2,
    # so graded_ad refuses k = 3 before phi sees a block.  lam = 2 rho-check
    # = (3, 4, 3) puts theta in degree 6, and its i = 2 block maps g(-2)
    # (3 roots) to g(4) (2 roots); so does the zero element's.
    gbm = graded_ad(rs, sc, X, (3, 4, 3), 6)
    assert gbm.shapes()[2] == (2, 3)
    for call in (lambda: phi(q2, gbm), lambda: phi_of(rs, sc, X, (3, 4, 3), 6),
                 lambda: phi_of(rs, sc, LieElement(q2), (3, 4, 3), 6)):
        with pytest.raises(ValueError, match="blocks are not square"):
            call()


def _zero_lines(mat) -> tuple[bool, bool]:
    """(a zero row, a zero column) of a dense block."""
    return not all(map(any, mat)), not all(map(any, zip(*mat)))


def test_phi_zero_line_rule_matches_elimination():
    """phi settles a block with a zero row or column as 0 before any DVR
    pass; on a seeded C3/F4/E6 pool over Q_2, Q_3, GF(2)(t) and GF(4)(t) it
    equals the elimination rule: a DVR pass per block, the first infinite
    divisor giving 0.  The pool holds every kind of zero line, and zeros
    that only the elimination finds."""
    rng = random.Random("zero-line-rule")
    seen = set()
    for t in ("C3", "F4", "E6"):
        rs = build(t)
        sc = structure_constants(rs)
        for field in (RationalField(2), RationalField(3), FunctionField(2), FunctionField(4)):
            made = 0
            while made < 10:
                lam, k, degs = random_square_grading(rs, rng)
                X = random_graded_element(rs, field, rng, degs[k])
                if X.is_zero():
                    continue
                made += 1
                gbm = graded_ad(rs, sc, X, lam, k)
                half = 0
                for _, rows, cols in gbm.sparse_blocks():
                    divisors = dvr_divisor_valuations(field, rows, cols)
                    if INF in divisors:
                        half = None
                        break
                    half += sum(divisors)
                assert phi(field, gbm) == AbsValue(field.residue_cardinality, half), (t, lam, k)
                # the same support over Q, where no entry y N vanishes
                pattern = graded_ad(rs, sc, LieElement(QQ, roots=dict.fromkeys(X.roots, QQ.one)),
                                    lam, k).blocks
                lines = {i: _zero_lines(mat) for i, mat in gbm.blocks.items() if mat}
                for i, (row, col) in lines.items():
                    if row and not col:
                        seen.add("zero row only")
                    if col and not row:
                        seen.add("zero column only")
                    if (row or col) and i != min(lines):
                        seen.add("zero line after the first block")
                    if (row or col) and repr(field) == "GF(2)(t)" \
                            and not any(_zero_lines(pattern[i])):
                        seen.add("zero line from N = +-2 over GF(2)(t)")
                if half is None and not any(map(any, lines.values())):
                    seen.add("zero found by elimination only")
    assert seen == {"zero row only", "zero column only", "zero line after the first block",
                    "zero line from N = +-2 over GF(2)(t)", "zero found by elimination only"}


def test_phi_checks_field_and_shape_before_zero_lines():
    # a block with a zero row still needs a valued field and square blocks
    square = GradedBlockMap(k=2, rows={1: [{}, {0: Fraction(1)}]}, domain_basis={1: [0, 1]},
                            codomain_basis={1: [2, 3]}, zero=Fraction(0))
    with pytest.raises(ValueError, match="^need a valued field, got Q, which carries no"):
        phi(QQ, square)
    assert phi(RationalField(2), square).is_zero()
    tall = GradedBlockMap(k=2, rows={1: [{}, {0: Fraction(1)}]}, domain_basis={1: [0]},
                          codomain_basis={1: [2, 3]}, zero=Fraction(0))
    with pytest.raises(ValueError, match="^blocks are not square"):
        phi(RationalField(2), tall)


def test_unimodular_base_change_leaves_exponent(sl3):
    # permuting/shearing the bases multiplies det by a unit
    rs, sc = sl3
    q3 = RationalField(3)
    Y, lam, k = _minimal_instance(rs, q3)
    Y = Y.scaled(q3.element(9))
    gbm = graded_ad(rs, sc, Y, lam, k)
    e0 = phi(q3, gbm).half_exponent
    M = [row[:] for row in gbm.blocks[1]]
    M[0], M[1] = M[1], M[0]                        # row swap
    M[0] = [a + 2 * b for a, b in zip(M[0], M[1])]  # integral shear
    for c in range(2):                              # column operation
        M[1][c] = M[1][c] - M[0][c]
    changed = GradedBlockMap(k=2, rows={1: sparse_rows(M)}, domain_basis=gbm.domain_basis,
                             codomain_basis=gbm.codomain_basis, zero=gbm.zero)
    assert phi(q3, changed).half_exponent == e0


def test_resigned_chevalley_basis_leaves_exponent():
    # E_a -> eps_a E_a with eps_a eps_{-a} = 1 is another Chevalley basis;
    # phi exponents must not move
    rng = random.Random(31)
    for t in ["A2", "B2"]:
        rs = build(t)
        sc = structure_constants(rs)
        q2 = RationalField(2)
        npos = len(rs.positive_roots)
        eps = {}
        for ri in rs.positive_roots:
            s = rng.choice([1, -1])
            eps[ri] = s
            eps[ri + npos] = s  # the negative root partner keeps the product 1
        done = 0
        while done < 10:
            lam, k, degs = random_square_grading(rs, rng)
            X = random_graded_element(rs, q2, rng, degs[k])
            if X.is_zero():
                continue
            base = phi_of(rs, sc, X, lam, k)
            Xs = LieElement(q2, roots={a: (val if eps[a] == 1 else -val)
                                       for a, val in X.roots.items()})
            gbm = graded_ad(rs, sc, Xs, lam, k)
            resigned = GradedBlockMap(
                k=k,
                rows={i: sparse_rows([[(v if eps[gbm.domain_basis[i][c]] == 1 else -v)
                                       for c, v in enumerate(row)]
                                      for row in gbm.blocks[i]])
                      for i in gbm.blocks},
                domain_basis=gbm.domain_basis, codomain_basis=gbm.codomain_basis,
                zero=gbm.zero)
            # conjugating the blocks by the sign change of the bases gives the
            # blocks of the re-signed basis; row signs are units anyway, so it
            # is enough that the exponent matches
            assert phi(q2, resigned).half_exponent == base.half_exponent
            done += 1


def test_product_formula_over_rationals(sl3):
    # prod_p p^{v_p(det)} = |det|_inf for the block determinants of a
    # rational instance: the adelic phi of a rational point is 1
    rs, sc = sl3
    q = RationalField()
    rng = random.Random(6)
    for _ in range(20):
        Y = root_vector(rs, q, rs.root_index[(1, 1)],
                        Fraction(rng.randint(1, 40), rng.randint(1, 40)))
        gbm = graded_ad(rs, sc, Y, (1, 1), 2)
        d = det(q, gbm.blocks[1])
        if not d:
            continue
        prod = Fraction(1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            prod *= Fraction(p) ** RationalField(p).valuation(d)
        assert prod == abs(d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lattice_image_examples(q, sl3):
    rs, sc = sl3
    F = FunctionField(q)
    Y = root_vector(rs, F, rs.root_index[(1, 1)], F.element(1))
    assert lattice_image(rs, sc, Y, (1, 1), 2, 1, 4) == [0, 0]
    Yt = root_vector(rs, F, rs.root_index[(1, 1)], F.t())
    assert lattice_image(rs, sc, Yt, (1, 1), 2, 1, 4) == [1, 1]
    assert lattice_image(rs, sc, Yt, (1, 1), 2, 1, 1) == [1, 1]


def test_lattice_image_divisor_sum_and_stabilization():
    rng = random.Random(55)
    for qv in (2, 3, 4):
        F = FunctionField(qv)
        for t in ["A2", "B2"]:
            rs = build(t)
            sc = structure_constants(rs)
            done = 0
            while done < 8:
                lam, k, degs = random_square_grading(rs, rng)
                X = random_polynomial_element(rs, F, rng, degs[k])
                if not X.is_zero():
                    check_lattice_image(rs, sc, X, lam, k)
                    done += 1


def test_lattice_image_requires_integral_coefficients(sl3):
    rs, sc = sl3
    F = FunctionField(2)
    Y = root_vector(rs, F, rs.root_index[(1, 1)], F.one / F.t())
    with pytest.raises(ValueError):
        lattice_image(rs, sc, Y, (1, 1), 2, 1, 3)
    Yok = root_vector(rs, F, rs.root_index[(1, 1)], F.one)
    with pytest.raises(ValueError):
        lattice_image(rs, sc, Yok, (1, 1), 2, 5, 3)  # block index out of range
    with pytest.raises(ValueError):
        lattice_image(rs, sc, Yok, (1, 1), 2, 1, 0)  # m < 1
    for field in (QQ, PrimeField(3)):
        Y = root_vector(rs, field, rs.root_index[(1, 1)])
        with pytest.raises(ValueError, match="need a valued field"):
            lattice_image(rs, sc, Y, (1, 1), 2, 1, 3)


def test_every_valued_field_verdict_has_one_gate(sl3):
    # phi, block_report, lattice_image and torus_conjugate refuse Q and GF(p)
    # through fields.check_valued, with one message; torus_conjugate raised
    # AttributeError over GF(p), and Q's residue_cardinality had its own message
    rs, sc = sl3
    for field, name in ((QQ, "Q"), (PrimeField(5), "GF(5)")):
        Y, lam, k = _minimal_instance(rs, field)
        gbm = graded_ad(rs, sc, Y, lam, k)
        calls = [lambda: phi(field, gbm), lambda: block_report(field, gbm),
                 lambda: lattice_image(rs, sc, Y, lam, k, 1, 3),
                 lambda: torus_conjugate(rs, Y, (1, 0))]
        if field is QQ:
            calls.append(lambda: QQ.residue_cardinality)
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"need a valued field, got {name}, which carries no valuation"


def test_verdicts_check_degree_and_k_before_sharing_a_grading(sl3):
    """phi_of, both functional equations and lattice_image grade lam once
    per call; each still refuses a mixed-degree X, and k = 0, as graded_ad does."""
    rs, sc = sl3
    F = FunctionField(2)
    X = root_vector(rs, F, rs.root_index[(1, 1)])
    mixed = X + root_vector(rs, F, rs.root_index[(1, 0)])  # degrees 2 and 1 at (1, 1)
    calls = (lambda Y, k: phi_of(rs, sc, Y, (1, 1), k),
             lambda Y, k: verify_phi_inverse(rs, sc, Y, (1, 1), k),
             lambda Y, k: verify_rrao(rs, sc, Y, (1, 1), k, (1, 0)),
             lambda Y, k: lattice_image(rs, sc, Y, (1, 1), k, 1, 3))
    for call in calls:
        with pytest.raises(ValueError, match="single degree"):
            call(mixed, 2)
        with pytest.raises(ValueError, match="degree k = 0 >= 1, found 2"):
            call(X, 0)
    # the block index is checked against k itself: blocks are 1..k-1, and
    # i is an int, not a bool (True and 1.0 were read as block 1)
    for i in (0, 2, 5, True, 1.0, None):
        with pytest.raises(ValueError, match=f"block index i = {i} outside 1..1"):
            lattice_image(rs, sc, X, (1, 1), 2, i, 3)
    # k is an int that is not a bool: on E_0, in degree 1 of (1, 1), k = True
    # gave graded_ad a map with k = True and phi over Q_2 the value 2^(-0/2),
    # and k = 2.0 raised TypeError from range
    E0 = root_vector(rs, RationalField(2), rs.root_index[(1, 0)])
    for k in (True, 1.0, 2.0, Fraction(1), "1", None):
        for call in calls + (lambda Y, k: graded_ad(rs, sc, Y, (1, 1), k),):
            for Y in (X, E0):
                with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                    call(Y, k)


def test_lattice_image_takes_an_int_truncation_level(sl3):
    # m is an int >= 1, not a bool: m = 2.5 gave [2.5, 2.5] and m = True
    # gave [True, True]
    rs, sc = sl3
    F = FunctionField(2)
    t = F.uniformizer()
    Y = root_vector(rs, F, rs.root_index[(1, 1)], t * t * t)
    assert lattice_image(rs, sc, Y, (1, 1), 2, 1, 2) == [2, 2]
    for m in (0, -1, 2.5, 2.0, True, Fraction(2), "2", None):
        with pytest.raises(ValueError, match="truncation level"):
            lattice_image(rs, sc, Y, (1, 1), 2, 1, m)


@pytest.mark.parametrize("t", ["C3", "F4"])
def test_lattice_image_block_matches_full_build(t):
    """lattice_image builds block i alone; on seeded square-graded X with
    k >= 3 over GF(2)(t) and GF(4)(t) it equals the capped divisors of
    block i of graded_ad's full build, for every i."""
    rs = build(t)
    sc = structure_constants(rs)
    rng = random.Random(f"lattice-block:{t}")
    for q in (2, 4):
        F = FunctionField(q)
        done = 0
        while done < 4:
            lam, k, degs = random_square_grading(rs, rng)
            X = random_polynomial_element(rs, F, rng, degs[k])
            if k < 3 or X.is_zero():
                continue
            done += 1
            gbm = graded_ad(rs, sc, X, lam, k)
            for i in range(1, k):
                full = dvr_divisor_valuations(F, gbm.rows[i], len(gbm.domain_basis[i]))
                for m in (1, 2, 64):
                    assert lattice_image(rs, sc, X, lam, k, i, m) == [
                        v if v is None else min(v, m) for v in full], (t, q, lam, k, i, m)


def _divisor_oracle_instances():
    """Seeded integer instances (type, isogeny, support, coefficients),
    homogenized to their active roots so Y sits in one degree; the
    coefficient pool has multiples of 2, 3, 5 and 7."""
    rng = random.Random(20261018)
    pool = [1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 35]
    out = [("D4", "simply_connected", [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [1, 1, 1]),
           ("D4", "simply_connected", [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [3, 1, 5])]
    for t in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "E6", "F4", "G2"):
        for isogeny in ("simply_connected", "adjoint"):
            rs = build(t, isogeny)
            for _ in range(4):
                size = rng.randint(1, min(4, len(rs.positive_roots)))
                supp = rng.sample(rs.positive_roots, size)
                active = sorted(minimum_norm_cocharacter(rs, supp)[1])
                out.append((t, isogeny, [rs.roots[ri] for ri in active],
                            [rng.choice(pool) for _ in active]))
    return out


def test_block_divisors_match_field_by_field_oracle():
    """Every verdict read off one integer Smith form per block agrees with
    check_kernel over Q and over GF(p) on graded_ad of Y mod p, and the
    corpus phi exponent with phi over Q_2."""
    q, q2 = RationalField(), RationalField(2)
    systems = {}
    seen = {"square": 0, "degenerate": 0, "failing_p": 0}
    for t, isogeny, support, coeffs in _divisor_oracle_instances():
        if (t, isogeny) not in systems:
            rs = build(t, isogeny)
            systems[t, isogeny] = (rs, structure_constants(rs))
        rs, sc = systems[t, isogeny]
        Y = element_from_support(rs, q, support, coeffs)
        cert = optimal_cocharacter(rs, Y)
        gbm = graded_ad(rs, sc, Y, cert.lam, cert.k)
        divisors = block_divisors(gbm)
        assert kernel_from_divisors(gbm, divisors) == check_kernel(q, gbm)
        entry = {"support": [list(a) for a in support], "coefficients": coeffs}
        report = run_instance(rs, sc, entry, [2, 3, 5, 7])
        assert report["blocks_over_Q"] == {str(i): v for i, v in check_kernel(q, gbm).items()}
        for p in (2, 3, 5, 7):
            fp = PrimeField(p)
            try:
                Yp = element_from_support(rs, fp, support, coeffs)
            except ValueError:  # Y vanishes mod p
                assert report["mod_p"][str(p)]["injective"] is None
                continue
            oracle = check_kernel(fp, graded_ad(rs, sc, Yp, cert.lam, cert.k))
            assert kernel_from_divisors(gbm, divisors, p) == oracle
            if set(Yp.support_roots()) != set(Y.support_roots()):
                seen["degenerate"] += 1
                assert report["mod_p"][str(p)]["injective"] is None
            else:
                inj = all(v["injective"] for v in oracle.values())
                seen["failing_p"] += not inj
                assert report["mod_p"][str(p)]["injective"] == inj
        if gbm.is_square():
            seen["square"] += 1
            assert report["phi_over_Q_v2"] == phi(q2, gbm).to_json()
            assert block_report(q2, gbm)["phi"] == phi(q2, gbm).to_json()
        else:
            assert "phi_over_Q_v2" not in report
    assert all(seen.values()), seen


def test_kernel_from_divisors_takes_only_a_prime():
    """p goes through fields.check_prime: on the D4 outer-nodes block
    (divisors 1, 1, 1, 1, 2, 2), p = 4 read rank 6, p = 1 and True rank 0,
    p = 2.0 passed and p = 0 raised ZeroDivisionError."""
    rs = build("D4")
    Y = element_from_support(rs, QQ, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    cert = optimal_cocharacter(rs, Y)
    gbm = graded_ad(rs, structure_constants(rs), Y, cert.lam, cert.k)
    divisors = block_divisors(gbm)
    assert divisors == {1: [1, 1, 1, 1, 2, 2]}
    assert kernel_from_divisors(gbm, divisors, 2)[1]["rank"] == 4
    for p in (4, 1, True, 2.0, 0):
        with pytest.raises(ValueError, match=f"^p must be prime, got {re.escape(repr(p))}$"):
            kernel_from_divisors(gbm, divisors, p)


def test_e8_block_divisors_pinned():
    """The elementary divisors of every graded block of the 380 E8
    standard instances (343 blocks), pinned by digest: a change to the
    integer Smith form must leave each of them as it is."""
    rs = build("E8")
    sc = structure_constants(rs)
    pinned = []
    for entry in standard_instances("E8"):
        Y = element_from_support(rs, QQ, entry["support"], entry["coefficients"])
        cert = optimal_cocharacter(rs, Y)
        gbm = graded_ad(rs, sc, Y, cert.lam, cert.k)
        pinned.append({str(i): divs for i, divs in block_divisors(gbm).items()})
    assert (len(pinned), sum(map(len, pinned))) == (380, 343)
    digest = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    assert digest == "29e04c8eb97fd69cb01aee57cb81173108451b758984b8746eccf427a7c2e8a0"


def test_e7_block_divisors_pinned():
    """The elementary divisors of every graded block of the 63 single-root
    and 127 simple-root-subset supports of E7, with seeded coefficients
    1..9, pinned by digest.  Their blocks carry repeated non-unit
    divisors, so the step that folds the diagonal into a chain is pinned."""
    rs = build("E7")
    sc = structure_constants(rs)
    n = rs.rank
    supports = [[list(rs.roots[i])] for i in sorted(rs.positive_roots)]
    supports += [[[int(j == i) for j in range(n)] for i in range(n) if mask >> i & 1]
                 for mask in range(1, 1 << n)]
    rng = random.Random(7)
    pinned, non_units = [], 0
    for support in supports:
        coeffs = [rng.randint(1, 9) for _ in support]
        Y = element_from_support(rs, QQ, support, coeffs)
        cert = optimal_cocharacter(rs, Y)
        divisors = block_divisors(graded_ad(rs, sc, Y, cert.lam, cert.k))
        non_units += sum(d != 1 for divs in divisors.values() for d in divs)
        pinned.append({str(i): divs for i, divs in divisors.items()})
    assert len(pinned) == 63 + 127
    assert non_units > 0
    digest = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    assert digest == "8b342e1dc6086a7a45a2f37239a0c905629963a6e740628c0625136425d76c94"


def test_block_report_matches_rank_and_det_oracle():
    """block_report's ranks and det valuations, read off one DVR
    elimination per block, agree with check_kernel's row reduction and
    with the valuation of linalg.det, on square and non-square blocks,
    singular ones included; a field without a valuation is refused."""
    rng = random.Random(8)
    fields = (RationalField(2), RationalField(3), FunctionField(2), FunctionField(4))
    seen = {"inf": 0, "positive": 0, "non_square": 0}
    for t in ("A3", "B3", "D4", "G2"):
        rs = build(t)
        sc = structure_constants(rs)
        for _ in range(12):
            lam = tuple(rng.randint(-1, 2) for _ in range(rs.rank))
            by_k = {}
            for ri in rs.positive_roots:
                d = rs.pair(rs.roots[ri], lam)
                if 2 <= d <= 4:
                    by_k.setdefault(d, []).append(ri)
            for k, roots in sorted(by_k.items()):
                support = rng.sample(roots, min(3, len(roots)))
                for field in fields:
                    pi = field.uniformizer()
                    coeffs = [field.element(rng.choice([1, -1])) for _ in support]
                    for j in range(len(coeffs)):
                        for _ in range(rng.randint(0, 2)):
                            coeffs[j] = coeffs[j] * pi
                    Y = element_from_support(rs, field, support, coeffs)
                    gbm = graded_ad(rs, sc, Y, lam, k)
                    report = block_report(field, gbm)
                    kern = check_kernel(field, gbm)
                    for i, mat in gbm.blocks.items():
                        entry = dict(report["blocks"][str(i)])
                        if "det_valuation" in entry:
                            d = det(field, mat)
                            expected = field.valuation(d) if d else "inf"
                            assert entry.pop("det_valuation") == expected
                            seen["inf"] += expected == "inf"
                            seen["positive"] += expected not in ("inf", 0)
                        assert entry == kern[i]
                    seen["non_square"] += not gbm.is_square()
                    assert ("phi" in report) == gbm.is_square()
                    if gbm.is_square():
                        assert report["phi"] == phi(field, gbm).to_json()
                        # phi and block_report share the DVR pass; det is the reference
                        dets = [det(field, mat) for mat in gbm.blocks.values() if mat]
                        half = (sum(field.valuation(d) for d in dets) if all(dets)
                                else "inf")
                        assert phi(field, gbm).to_json()["half_exponent"] == half
    assert all(seen.values()), seen
    with pytest.raises(ValueError, match="valuation"):
        block_report(RationalField(), gbm)


def _oracle_coefficients(field, rng):
    """A nonzero coefficient sampler over Q, Q_2, GF(3) or GF(4)(t); over
    GF(4)(t) it draws (c + w t)/(1 + t) with w outside the prime field."""
    if isinstance(field, RationalField):
        return lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
    if isinstance(field, FunctionField):
        base = field.base
        w = RatFunc(Polynomial(base, [base.from_coeffs((0, 1))]), Polynomial(base, [base.one]))
        return lambda: (field.element(rng.randint(0, 1)) + w * field.t()) / field.poly([1, 1])
    return lambda: field.element(rng.randint(1, field.char - 1))


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("t", ["A3", "B3", "C3", "D4", "G2", "F4", "E6", "A2xA1"])
def test_graded_ad_columns_match_bracket(t, isogeny):
    """Every column of every block is the bracket [Y, E_ri] of its
    domain root vector, read in the codomain basis, over every field kind."""
    rs = build(t, isogeny)
    sc = structure_constants(rs)
    rng = random.Random(f"{t}:{isogeny}")
    top = (rs.positive_roots[-1],)  # the highest root: k = 2
    instances = {top: optimal_cocharacter(rs, element_from_support(rs, RationalField(), top))}
    for _ in range(40):
        size = rng.randint(1, min(4, len(rs.positive_roots)))
        support = tuple(sorted(minimum_norm_cocharacter(
            rs, rng.sample(rs.positive_roots, size))[1]))
        cert = optimal_cocharacter(rs, element_from_support(rs, RationalField(), support))
        if cert.k >= 2:  # k = 1 has no blocks
            instances.setdefault(support, cert)
        if len(instances) == 4:
            break
    entries = 0
    for support, cert in instances.items():
        for field in (RationalField(), RationalField(2), PrimeField(3), FunctionField(4)):
            draw = _oracle_coefficients(field, rng)
            Y = element_from_support(rs, field, support, [draw() for _ in support])
            gbm = graded_ad(rs, sc, Y, cert.lam, cert.k)
            assert sorted(gbm.blocks) == list(range(1, cert.k))
            for i, mat in gbm.blocks.items():
                row_of = {ri: r for r, ri in enumerate(gbm.codomain_basis[i])}
                for c, ri in enumerate(gbm.domain_basis[i]):
                    img = bracket(sc, Y, root_vector(rs, field, ri))
                    assert not img.cartan
                    column = [field.zero] * len(row_of)
                    for a, val in img.roots.items():
                        column[row_of[a]] = val
                    assert [row[c] for row in mat] == column, (support, i, ri)
                    entries += sum(1 for v in column if v)
    assert len(instances) >= 2 and entries > 0


@pytest.mark.parametrize("t", ["B2", "C3", "F4", "G2"])
def test_graded_ad_stores_no_entry_that_vanishes_mod_p(t):
    """In characteristic p the entry y N is 0 when p divides N (N = +-2 over
    GF(2) and GF(2)(t), N = +-3 over GF(3)(t)).  graded_ad stores no zero
    entry, the dense view still reads the bracket, and phi, block_report
    and lattice_image agree with linalg.det and check_kernel on that view."""
    rs = build(t)
    sc = structure_constants(rs)
    rng = random.Random(f"vanishing:{t}")
    vanished = {}
    for field in (PrimeField(2), FunctionField(2), FunctionField(3)):
        p = field.char
        vanished[repr(field)] = 0
        for _ in range(20):
            lam, k, degs = random_square_grading(rs, rng)
            support = rng.sample(degs[k], rng.randint(1, len(degs[k])))
            if isinstance(field, FunctionField):  # c t^j, integral for lattice_image
                coeffs = [field.poly([0] * rng.randint(0, 2) + [rng.randint(1, p - 1)])
                          for _ in support]
            else:
                coeffs = [field.element(rng.randint(1, p - 1)) for _ in support]
            Y = element_from_support(rs, field, support, coeffs)
            gbm = graded_ad(rs, sc, Y, lam, k)
            assert all(x for rows in gbm.rows.values() for row in rows for x in row.values())
            for i, mat in gbm.blocks.items():
                vanished[repr(field)] += sum(
                    1 for a in support for ri in gbm.domain_basis[i]
                    if sc.root_sum(a, ri) is not None and sc.n(a, ri) % p == 0)
                row_of = {ri: r for r, ri in enumerate(gbm.codomain_basis[i])}
                for c, ri in enumerate(gbm.domain_basis[i]):
                    column = [field.zero] * len(row_of)
                    img = bracket(sc, Y, root_vector(rs, field, ri))
                    assert not img.cartan
                    for a, val in img.roots.items():
                        column[row_of[a]] = val
                    assert [row[c] for row in mat] == column
            if not isinstance(field, FunctionField):
                continue
            # the blocks are square: random_square_grading picks k so
            report, kern = block_report(field, gbm), check_kernel(field, gbm)
            dets = {i: det(field, mat) for i, mat in gbm.blocks.items() if mat}
            for i in gbm.blocks:
                entry = dict(report["blocks"][str(i)])
                if i in dets:
                    d = dets[i]
                    assert entry.pop("det_valuation") == (field.valuation(d) if d else "inf")
                assert entry == kern[i]
                lattice = lattice_image(rs, sc, Y, lam, k, i, 50)
                assert lattice.count(None) == entry["cols"] - entry["rank"]
                if dets.get(i):
                    assert sum(lattice) == field.valuation(dets[i])
            half = (sum(map(field.valuation, dets.values())) if all(dets.values())
                    else None)
            assert phi(field, gbm) == AbsValue(field.residue_cardinality, half)
    # N = +-2 occurs in every type; N = +-3 only in G2
    assert vanished["GF(2)"] > 0 and vanished["GF(2)(t)"] > 0
    assert (vanished["GF(3)(t)"] > 0) == (t == "G2"), vanished


def _pinned_coefficient(field, rng):
    """A coefficient integral at the uniformizer: c * pi**j, or, one time in
    three, c/5 over Q_p and (c + w t)/(1 + t) over GF(q)(t), w the generator
    of GF(q) over GF(p) (so GF(q)(t) divides out nontrivial gcds)."""
    pi = field.uniformizer()
    c = field.element(rng.choice([-3, -2, -1, 1, 2, 3, 5, 7]))
    if rng.random() < 1 / 3:
        if isinstance(field, RationalField):
            return c / 5
        base = field.base
        w = base.from_coeffs((0, 1)) if base.degree > 1 else base.one
        wt = RatFunc(Polynomial(base, [base.zero, w]), Polynomial(base, [base.one]))
        return (c + wt) / field.poly([1, 1])
    for _ in range(rng.randint(0, 2)):
        c = c * pi
    return c


def test_valued_field_outputs_pinned():
    """phi_of (of X, -X and a torus conjugate of X), verify_phi_inverse,
    verify_rrao and lattice_image on a seeded square-graded C3/F4/E6 pool
    over Q_2, Q_3, GF(2)(t) and GF(4)(t), pinned by one digest: a change
    to the valued-field path must leave every exponent and verdict as it is."""
    rng = random.Random("valued-field-outputs")
    digest = hashlib.sha256()
    records = 0
    for t in ("C3", "F4", "E6"):
        rs = build(t)
        sc = structure_constants(rs)
        for field in (RationalField(2), RationalField(3), FunctionField(2), FunctionField(4)):
            made = 0
            while made < 6:
                lam, k, degs = random_square_grading(rs, rng)
                X = LieElement(field)
                for ri in degs[k]:
                    if rng.random() < 0.85:
                        X = X + root_vector(rs, field, ri, _pinned_coefficient(field, rng))
                if X.is_zero():
                    continue
                made += 1
                v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
                record = {
                    "type": t, "field": repr(field), "lam": list(lam), "k": k, "v": list(v),
                    "phi": phi_of(rs, sc, X, lam, k).to_json(),
                    "phi_neg": phi_of(rs, sc, -X, lam, k, field).to_json(),
                    "phi_conj": phi_of(rs, sc, torus_conjugate(rs, X, v), lam, k).to_json(),
                    "inverse": verify_phi_inverse(rs, sc, X, lam, k, field),
                    "rrao": verify_rrao(rs, sc, X, lam, k, v, field),
                    "lattice": {str(i): [["inf" if d is None else d
                                          for d in lattice_image(rs, sc, X, lam, k, i, m)]
                                         for m in (2, 64)]
                                for i in range(1, k)},
                }
                digest.update(json.dumps(record, sort_keys=True).encode())
                records += 1
    assert records == 72
    assert digest.hexdigest() == (
        "294e6d0780e90fd8cec4c6297209b775677af390102b60f53b40b4aabb70b964")


def test_conftest_generator_draws_pinned():
    """The first 20 draws of conftest's random_square_grading (lam, k and
    the degree-k roots), random_graded_element and random_polynomial_element
    per type, pinned by one digest taken from the per-module copies they
    replaced: the seeded tests above draw the same instances as before."""
    digest = hashlib.sha256()
    for t in ("A2", "B2", "C3"):
        rs = build(t)
        rng = random.Random(f"conftest-generators:{t}")
        for _ in range(20):
            lam, k, degs = random_square_grading(rs, rng)
            X = random_graded_element(rs, RationalField(3), rng, degs[k])
            P = random_polynomial_element(rs, FunctionField(4), rng, degs[k])
            digest.update(json.dumps([t, lam, k, degs[k], repr(X), repr(P)]).encode())
    assert digest.hexdigest() == (
        "d983d224f5cf3cfb8486e4570c9e7bfc189455b6373c5a05aecdd76693586789")


def test_check_kernel_lives_in_gradedmap_only():
    # the oracle is no package export; the tests and the benchmark's tracer
    # reach it through its module
    import chevalley
    assert not hasattr(chevalley, "check_kernel") and "check_kernel" not in chevalley.__all__
    assert check_kernel.__module__ == "chevalley.gradedmap"
