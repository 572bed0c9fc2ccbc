import random
from fractions import Fraction

import pytest

from chevalley import (PrimeField, RationalField, bracket, build, c_gamma,
                       cartan_vector, coker_eta, destabilizing_certificate,
                       graded_ad, kirwan_ness_torus_check, optimal_cocharacter,
                       regular_counterexample, regular_nilpotent, root_vector,
                       scan_destabilizers, sl2_completion_check,
                       structure_constants)
from chevalley.fields import QQ
from chevalley.gradedmap import check_kernel
from chevalley.lie import LieElement, element_from_support
from chevalley.linalg import det
from chevalley.snf import integer_elementary_divisors, sparse_rows

from conftest import half_sum_of_positive_coroots
from snf_oracles import int_det

PRIMES = [2, 3, 5, 7]


def test_coker_eta_pgl_n():
    for n in range(2, 7):
        rs = build(f"A{n - 1}", "adjoint")
        divs = coker_eta(rs)
        assert divs == [1] * (n - 2) + [n]


def test_coker_eta_simply_connected_trivial():
    for t in ["A2", "A4", "B3", "G2"]:
        rs = build(t, "simply_connected")
        assert coker_eta(rs) == [1] * rs.rank


def test_coker_eta_divisor_product_is_cartan_determinant():
    for t in ["A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"]:
        rs = build(t, "adjoint")
        divs = coker_eta(rs)
        prod = 1
        for d in divs:
            prod *= d
        assert prod == abs(int_det(rs.cartan))


def test_pgl3_counterexample_at_3():
    rs = build("A2", "adjoint")
    sc = structure_constants(rs)
    X = regular_counterexample(rs, sc, 3)
    assert X is not None
    supp = X.support_roots()
    neg_simples = {rs.root_index[tuple(-c for c in rs.roots[i])] for i in rs.simple_roots}
    assert set(supp) <= neg_simples
    # coefficients proportional to (1, -1) mod 3
    f3 = PrimeField(3)
    cs = [X.roots[ri] for ri in sorted(supp)]
    assert cs[0] + cs[1] == f3.zero
    Y = regular_nilpotent(rs, f3)
    assert not bracket(sc, X, Y).cartan
    assert regular_counterexample(rs, sc, 2) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pgl_n_counterexample_iff_p_divides_n(n):
    rs = build(f"A{n - 1}", "adjoint")
    sc = structure_constants(rs)
    for p in PRIMES:
        X = regular_counterexample(rs, sc, p)
        assert (X is not None) == (n % p == 0), (n, p)


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"])
def test_counterexample_iff_p_divides_coker_divisor(t):
    rs = build(t, "adjoint")
    sc = structure_constants(rs)
    divs = coker_eta(rs)
    for p in PRIMES:
        found = regular_counterexample(rs, sc, p) is not None
        assert found == any(d % p == 0 for d in divs if d), (t, p)


def test_regular_lambda_is_half_sum_cross_check():
    # the optimality module recomputes lambda; the classical half-sum of
    # positive coroots is the cross-check, not an input
    for t in ["A2", "B2", "G2", "A3"]:
        rs = build(t, "adjoint")
        q = RationalField()
        cert = optimal_cocharacter(rs, regular_nilpotent(rs, q))
        half = half_sum_of_positive_coroots(rs)
        assert cert.mu.coords == tuple(half)


def test_c_gamma_examples():
    rs = build("A2")
    na1 = rs.root_index[(-1, 0)]
    theta = rs.root_index[(1, 1)]
    tab = c_gamma(rs, [na1], [theta])
    a2 = rs.simple_roots[1]
    assert tab.nonempty() == {a2: [(na1, theta)]}
    # disjoint degrees with no additive coincidences
    tab2 = c_gamma(rs, [rs.simple_roots[0]], [rs.simple_roots[0]])
    assert tab2.nonempty() == {}


def test_c_gamma_to_json_pinned():
    # both supports sorted by root index, and one [a, b] list per pair in
    # the order the supports were given, keyed by the index of a + b
    rs = build("A2")
    tab = c_gamma(rs, [(1, 1), (1, 0)], [(0, -1), (0, 1), (-1, 0)])
    assert tab.to_json() == {"supp_x": [0, 2], "supp_y": [1, 3, 4],
                             "pairs": {"0": [[2, 4]], "1": [[2, 3]], "2": [[0, 1]]}}


def test_c_gamma_matches_bracket_support():
    # with algebraically independent (distinct prime) coefficients no
    # cancellation can occur, so the bracket support is exactly the set of
    # nonempty C(gamma) with gamma a root, plus the Cartan when some
    # alpha + beta = 0
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    rng = random.Random(10)
    q = RationalField()
    for t in ["A3", "B2", "G2"]:
        rs = build(t)
        sc = structure_constants(rs)
        for _ in range(15):
            sx = rng.sample(range(len(rs.roots)), rng.randint(1, 3))
            sy = rng.sample(range(len(rs.roots)), rng.randint(1, 3))
            X = element_from_support(rs, q, sx, primes[:len(sx)])
            Y = element_from_support(rs, q, sy, primes[len(sx):len(sx) + len(sy)])
            tab = c_gamma(rs, sx, sy)
            br = bracket(sc, X, Y)
            got_roots = set(br.support_roots())
            expected = set()
            for g, pairs in tab.nonempty().items():
                # N can vanish only when the sum is not a root, never here
                expected.add(g)
            assert got_roots == expected


def test_g2_regular_c_gamma_against_bracket():
    rs = build("G2")
    sc = structure_constants(rs)
    q = RationalField()
    neg_simples = [rs.root_index[tuple(-c for c in rs.roots[i])] for i in rs.simple_roots]
    tab = c_gamma(rs, neg_simples, list(rs.simple_roots))
    X = element_from_support(rs, q, neg_simples, [2, 3])
    Y = element_from_support(rs, q, rs.simple_roots, [5, 7])
    br = bracket(sc, X, Y)
    assert set(br.support_roots()) == set(tab.nonempty())
    assert br.cartan  # the alpha + (-alpha) pairs hit the Cartan


def test_destabilizing_certificate_rejects_true_optimum():
    rs = build("A2")
    q = RationalField()
    Y = root_vector(rs, q, rs.root_index[(1, 1)])
    lam_tilde = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        destabilizing_certificate(rs, Y, lam_tilde, rs.simple_roots[0])
    assert scan_destabilizers(rs, Y, lam_tilde) == []


def test_destabilizing_certificate_improves_bad_lambda():
    rs = build("A2")
    q = RationalField()
    Y = root_vector(rs, q, rs.root_index[(1, 1)])
    bad = (Fraction(1), Fraction(0))  # feasible but not optimal
    a, mu = destabilizing_certificate(rs, Y, bad, rs.simple_roots[1])
    assert a == 2
    assert mu.coords == (Fraction(1), Fraction(1, 2))
    assert mu.norm_sq < rs.norm_sq(bad)
    assert rs.pair(rs.roots[rs.root_index[(1, 1)]], mu.coords) >= 1
    # the scan agrees some root works
    assert rs.simple_roots[1] in scan_destabilizers(rs, Y, bad)


def test_scan_destabilizers_refuses_a_y_without_root_support():
    # the certificate refuses such a Y for every alpha, so the scan raises
    # rather than read the refusal as "no root gives a certificate"
    rs = build("A2")
    for Y in (LieElement(QQ), cartan_vector(rs, QQ, (1, 0))):
        with pytest.raises(ValueError, match="^Y must be supported on root vectors$"):
            scan_destabilizers(rs, Y, (1, 1))


def test_destabilizing_certificate_precondition_errors():
    rs = build("A2")
    q = RationalField()
    Y = root_vector(rs, q, rs.root_index[(1, 1)])
    with pytest.raises(ValueError):
        # support pairs negatively with -theta
        destabilizing_certificate(rs, Y, (Fraction(1), Fraction(0)),
                                  rs.root_index[(-1, -1)])
    with pytest.raises(ValueError):
        # lam_tilde does not dominate the support
        destabilizing_certificate(rs, Y, (Fraction(0), Fraction(0)), rs.simple_roots[0])


def test_d4_characteristic_two_kernel_phenomenon():
    """The three-outer-node instance in D4: char-0 optimal, torus-
    semistable for the orthogonal Levi, yet the graded block is singular
    mod 2 by pure incidence parity (det = -4).  This contradicts the
    simply-laced expectation for the kernel theorem at p = 2, a bad prime
    for D.  Acceptance criterion 4 therefore gates A/D injectivity at good
    primes only and pins this instance as the one non-injective D entry at
    p = 2; see README "Acceptance status" and the corpus report's
    `counterexample_to_expected` flag."""
    rs = build("D4")
    sc = structure_constants(rs)
    q = RationalField()
    outer = [rs.simple_roots[i] for i in (0, 2, 3)]
    Y = element_from_support(rs, q, outer)
    cert = optimal_cocharacter(rs, Y)
    assert cert.lam == (1, 0, 1, 1) and cert.k == 2
    # genuine char-0 optimality: an sl2-triple completes through h = 2 mu
    assert sl2_completion_check(rs, sc, Y, cert)
    # semistability for the orthogonal torus; the Levi A1 of the highest
    # root fixes the whole degree-2 space, so this is conclusive
    assert kirwan_ness_torus_check(rs, Y, cert.lam)
    theta = rs.root_index[(1, 2, 1, 1)]
    for ri in outer:
        for sign in (1, -1):
            coords = tuple(sign * c for c in rs.roots[theta])
            e_theta = root_vector(rs, q, rs.root_index[coords])
            assert bracket(sc, e_theta, root_vector(rs, q, ri)).is_zero()
    # over Q the kernel theorem holds: det = -4
    gbm = graded_ad(rs, sc, Y, cert.lam, cert.k)
    assert abs(det(q, gbm.blocks[1])) == 4
    # every row has exactly two unit entries, so mod 2 the all-ones vector
    # is in the kernel regardless of any sign convention
    for row in gbm.blocks[1]:
        assert sorted(abs(x) for x in row if x) == [1, 1]
    f2 = PrimeField(2)
    Y2 = element_from_support(rs, f2, outer)
    kern2 = check_kernel(f2, graded_ad(rs, sc, Y2, cert.lam, cert.k))
    assert not kern2[1]["injective"]
    X = element_from_support(rs, f2, [ri for ri, a in enumerate(rs.roots)
                                      if rs.pair(a, cert.lam) == -1])
    assert bracket(sc, Y2, X).is_zero()
    # at odd primes the instance behaves as expected
    for p in (3, 5, 7):
        fp = PrimeField(p)
        Yp = element_from_support(rs, fp, outer)
        kern = check_kernel(fp, graded_ad(rs, sc, Yp, cert.lam, cert.k))
        assert all(v["injective"] for v in kern.values())


def test_coker_eta_matches_snf_of_cartan_for_adjoint():
    for t in ["A2", "B2", "G2", "D4"]:
        rs = build(t, "adjoint")
        assert coker_eta(rs) == integer_elementary_divisors(sparse_rows(rs.cartan), rs.rank)


def test_destabilizing_certificate_needs_a_root_and_a_root_supported_y():
    q = RationalField()
    rs = build("A2")
    Y = root_vector(rs, q, rs.root_index[(1, 1)])
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a root of A2$"):
        destabilizing_certificate(rs, Y, (1, 1), (1, 2))
    cartan_only = LieElement(q, cartan={0: q.element(1)})
    with pytest.raises(ValueError, match="Y must be supported on root vectors"):
        destabilizing_certificate(rs, cartan_only, (1, 1), 0)
