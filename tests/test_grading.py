import random
from fractions import Fraction

import pytest

from chevalley import (RationalField, build, delta_exponent, grade,
                       instability_ratio_sq, kirwan_ness_torus_check, m_of, phi_of,
                       root_vector, structure_constants, torus_conjugate, verify_rrao)
from chevalley.grading import CocharRational, degrees_of, single_degree
from chevalley.lie import element_from_support


def test_grade_sl2():
    rs = build("A1")
    rep = grade(rs, (1,))  # lam = coroot
    assert rep.dims == {-2: 1, 2: 1}
    assert rep.dim_at(0) == 1
    assert rep.dim_at(2) == 1
    total = sum(rep.dims.values()) + rs.rank
    assert total == rs.dim()


def test_grade_sl3_regular():
    rs = build("A2")
    rep = grade(rs, (1, 1))
    assert {i: rep.dim_at(i) for i in (-2, -1, 0, 1, 2)} == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def test_grade_dimension_totals():
    rng = random.Random(21)
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = build(t)
        for _ in range(10):
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            rep = grade(rs, lam)
            assert sum(rep.dims.values()) + rs.rank == rs.dim()


def test_grade_zero_cocharacter():
    for t in ["A2", "G2"]:
        rs = build(t)
        rep = grade(rs, (0,) * rs.rank)
        assert rep.dims == {0: len(rs.roots)}
        assert rep.dim_at(0) == rs.dim()


def test_grade_rejects_non_integral():
    rs = build("A2")
    with pytest.raises(ValueError):
        grade(rs, (Fraction(1, 2), 0))


def test_wrong_length_vectors_are_rejected():
    """A cocharacter or valuation vector needs rank coordinates; zip would
    drop a missing or extra one, so (1,) graded like (1, 0) and (1, 1, 5)
    like (1, 1) on A2."""
    rs = build("A2")
    sc = structure_constants(rs)
    q2 = RationalField(2)
    Y = root_vector(rs, q2, rs.root_index[(1, 1)])
    a = rs.roots[0]
    for bad in ((1,), (1, 1, 5)):
        for call in (lambda: grade(rs, bad), lambda: degrees_of(rs, Y, bad),
                     lambda: single_degree(rs, Y, bad), lambda: m_of(rs, Y, bad),
                     lambda: kirwan_ness_torus_check(rs, Y, bad),
                     lambda: delta_exponent(rs, bad, 1, 2, (0, 0)),
                     lambda: delta_exponent(rs, (1, 1), 1, 2, bad),
                     lambda: torus_conjugate(rs, Y, bad),
                     lambda: verify_rrao(rs, sc, Y, (1, 1), 2, bad),
                     lambda: phi_of(rs, sc, Y, bad, 2), lambda: rs.pair(a, bad),
                     lambda: rs.cochar_form(bad, (1, 1)), lambda: rs.cochar_form((1, 1), bad),
                     lambda: rs.norm_sq(bad)):
            with pytest.raises(ValueError, match=f"has {len(bad)} coordinates, A2 has rank 2"):
                call()


def test_grade_weyl_equivariance():
    rng = random.Random(4)
    for t in ["A3", "B3", "G2"]:
        rs = build(t)
        for _ in range(25):
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            dims = sorted(grade(rs, lam).dims.values())
            w_lam = lam
            for _ in range(rng.randint(1, 4)):
                w_lam = rs.reflect_cochar(rng.randrange(rs.rank), w_lam)
            assert sorted(grade(rs, w_lam).dims.values()) == dims


def test_m_of_examples():
    q = RationalField()
    sl2 = build("A1")
    assert m_of(sl2, root_vector(sl2, q, sl2.simple_roots[0]), (1,)) == 2

    sl3 = build("A2")
    theta = sl3.root_index[(1, 1)]
    assert m_of(sl3, root_vector(sl3, q, theta), (1, 1)) == 2
    Y = element_from_support(sl3, q, sl3.simple_roots)
    assert m_of(sl3, Y, (1, 1)) == 1
    assert instability_ratio_sq(sl3, Y, (1, 1)) == Fraction(1, 2)


def test_m_of_errors():
    q = RationalField()
    rs = build("A2")
    from chevalley.lie import LieElement

    with pytest.raises(ValueError):
        m_of(rs, LieElement(q), (1, 1))
    # negative root support is outside the unipotent radical
    neg = rs.root_index[(-1, 0)]
    with pytest.raises(ValueError):
        m_of(rs, root_vector(rs, q, neg), (1, 1))


def test_delta_exponent_examples():
    sl2 = build("A1")
    assert delta_exponent(sl2, (1,), 1, None, (1,)) == 2
    assert delta_exponent(sl2, (1,), 1, None, (0,)) == 0

    sl3 = build("A2")
    assert delta_exponent(sl3, (1, 1), 1, 2, (1, 0)) == 1
    with pytest.raises(ValueError):
        delta_exponent(sl3, (1, 1), 0, None, (1, 0))
    with pytest.raises(ValueError):
        delta_exponent(sl3, (1, 1), 2, 2, (1, 0))
    # v = (1/2, 1/3) is no torus point: refused, not truncated to 0
    with pytest.raises(ValueError):
        delta_exponent(sl3, (1, 1), 1, 2, (Fraction(1, 2), Fraction(1, 3)))
    assert delta_exponent(sl3, (1, 1), 1, 2, (Fraction(1), 0)) == 1


def test_delta_telescoping_identity():
    # delta_{lam,(1,k)} delta_{lam,(k,k+1)} delta_{lam,k+1} = delta_{lam,1}
    rng = random.Random(8)
    for t in ["A3", "B2", "C3", "G2"]:
        rs = build(t)
        for _ in range(40):
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            k = rng.randint(2, 5)
            e = (delta_exponent(rs, lam, 1, k, v)
                 + delta_exponent(rs, lam, k, k + 1, v)
                 + delta_exponent(rs, lam, k + 1, None, v))
            assert e == delta_exponent(rs, lam, 1, None, v)


def test_cochar_rational_primitivity():
    rs = build("A2")
    mu = CocharRational.of(rs, (Fraction(1, 2), Fraction(1, 2)))
    assert not mu.is_integral()
    lam, scale = mu.primitive_multiple()
    assert lam == (1, 1) and scale == 2
    assert CocharRational.of(rs, lam).is_primitive()
    assert not CocharRational.of(rs, (2, 2)).is_primitive()
    assert mu.norm_sq == Fraction(1, 2)


@pytest.mark.parametrize("coords,primitive,multiple", [
    ((Fraction(1, 2), 0), False, ((1, 0), 2)),
    ((Fraction(-1, 2), Fraction(1, 3)), False, ((-3, 2), 6)),
    ((Fraction(3, 2), Fraction(-9, 4)), False, ((2, -3), Fraction(4, 3))),
    ((Fraction(-2, 3), Fraction(2, 3)), False, ((-1, 1), Fraction(3, 2))),
    ((0, Fraction(-2, 3)), False, ((0, -1), Fraction(3, 2))),
    ((-2, 4), False, ((-1, 2), Fraction(1, 2))),
    ((-3, 0), False, ((-1, 0), Fraction(1, 3))),
    ((-1, 0), True, ((-1, 0), 1)),
    ((0, -1), True, ((0, -1), 1)),
])
def test_primitive_multiple_signs_and_denominators(coords, primitive, multiple):
    """Zero, non-integral and negative coordinates: the sign stays on lam,
    the scale k is a positive Fraction and self = lam / k."""
    mu = CocharRational.of(build("A2"), coords)
    assert mu.is_primitive() is primitive
    lam, k = mu.primitive_multiple()
    assert (lam, k) == multiple and isinstance(k, Fraction)
    assert tuple(Fraction(c) / k for c in lam) == mu.coords


def test_zero_cocharacter_is_not_primitive():
    zero = CocharRational.of(build("A2"), (0, 0))
    assert not zero.is_primitive()
    with pytest.raises(ValueError, match="zero cocharacter"):
        zero.primitive_multiple()


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("t", ["A3", "B3", "C3", "G2", "F4", "E6", "A2xA1"])
def test_grade_and_delta_match_pair_oracle(t, isogeny):
    """grade and delta_exponent, read off the pairing rows, agree with
    rs.pair on every root, for lam and v given as ints or as integral
    Fractions; every weight-space list is sorted."""
    rs = build(t, isogeny)
    rng = random.Random(f"grade-oracle-{t}-{isogeny}")
    for trial in range(20):
        lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        if trial % 2:
            lam, v = tuple(map(Fraction, lam)), tuple(map(Fraction, v))
        degree = [rs.pair(a, lam) for a in rs.roots]
        expected = {}
        for ri, d in enumerate(degree):
            expected.setdefault(d, []).append(ri)
        spaces = grade(rs, lam).weight_spaces
        assert spaces == expected
        assert all(type(d) is int for d in spaces)
        assert all(ri == sorted(ri) for ri in spaces.values())
        for s, stop in ((1, None), (1, 3), (2, 4)):
            e = sum(rs.pair(a, v) for a, d in zip(rs.roots, degree)
                    if d >= s and (stop is None or d < stop))
            assert delta_exponent(rs, lam, s, stop, v) == e
