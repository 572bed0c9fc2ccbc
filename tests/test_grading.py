import random
import re
from fractions import Fraction
from itertools import product

import pytest

from chevalley import (FunctionField, RationalField, build, cartan_vector, delta_exponent,
                       destabilizing_certificate, grade, graded_ad, instability_ratio_sq,
                       kirwan_ness_torus_check, lattice_image, m_of, phi_of, root_vector,
                       scan_destabilizers, structure_constants, torus_conjugate,
                       verify_phi_inverse, verify_rrao)
from chevalley.fields import QQ
from chevalley.grading import CocharRational, degrees_of, single_degree
from chevalley.lie import element_from_support

from conftest import ISOGENIES, SC_TYPES, SCALED_BUILDS


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


def test_grade_matches_direct_pairing():
    # the height-parent walk of rs.degrees, and grade's grouping of it,
    # against one dot product per root, for zero and seeded lam on every
    # pinned and scaled build (E7, E8 and products among them): the same
    # degrees and lists, in the same order
    rng = random.Random("grade-direct-pairing")
    for (t, scale), isogeny in product([(t, None) for t in SC_TYPES] + SCALED_BUILDS, ISOGENIES):
        rs = build(t, isogeny, scale=scale)
        lams = [(0,) * rs.rank] + [tuple(rng.randint(-5, 5) for _ in range(rs.rank))
                                   for _ in range(3)]
        for lam in lams:
            direct = [sum(r * l for r, l in zip(row, lam)) for row in rs.pairing_rows]
            assert rs.degrees(lam) == direct, (t, scale, isogeny, lam)
            expected = {}
            for i, d in enumerate(direct):
                expected.setdefault(d, []).append(i)
            spaces = grade(rs, lam).weight_spaces
            assert list(spaces.items()) == list(expected.items()), (t, scale, isogeny, lam)


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
    """A cocharacter, valuation or Cartan vector needs rank coordinates; zip
    would drop a missing or extra one, so (1,) graded like (1, 0) and
    (1, 1, 5) like (1, 1) on A2, and cartan_vector stored an H2."""
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
                     lambda: cartan_vector(rs, q2, bad), lambda: rs.reflect_cochar(0, bad),
                     lambda: rs.cochar_form(bad, (1, 1)), lambda: rs.cochar_form((1, 1), bad),
                     lambda: rs.norm_sq(bad), lambda: rs.root_form(bad, a),
                     lambda: rs.root_form(a, bad)):
            with pytest.raises(ValueError, match=f"has {len(bad)} coordinates, A2 has rank 2"):
                call()


def test_vectors_take_only_exact_coordinates():
    """A vector is a sequence (else TypeError used to escape) and a
    cocharacter's coordinates are ints that are not bools, or Fractions: a
    float, a bool or a string used to be read as a number, or to raise TypeError."""
    rs = build("A2")
    Y = root_vector(rs, RationalField(2), rs.root_index[(1, 1)])
    refused = [
        (lambda: rs.pair(0, 5), "the cocharacter must be a sequence of coordinates, got 5"),
        (lambda: cartan_vector(rs, QQ, 7),
         "the Cartan vector must be a sequence of coordinates, got 7"),
        (lambda: grade(rs, None), "lam must be a sequence of coordinates, got None"),
        (lambda: rs.norm_sq((1, "a")),
         "the cocharacter must have int or Fraction coordinates, got (1, 'a')"),
        (lambda: rs.norm_sq((0.5, 0.5)),
         "the cocharacter must have int or Fraction coordinates, got (0.5, 0.5)"),
        (lambda: kirwan_ness_torus_check(rs, Y, (1.0, 1.0)),
         "lam must have int or Fraction coordinates, got (1.0, 1.0)"),
        (lambda: grade(rs, (1.0, 1.0)),
         "lam must have int or Fraction coordinates, got (1.0, 1.0)"),
        (lambda: grade(rs, (True, False)),
         "lam must have int or Fraction coordinates, got (True, False)"),
        (lambda: rs.lattice_vector(("1", "2"), "v"),
         "v must have int or Fraction coordinates, got ('1', '2')"),
        (lambda: torus_conjugate(rs, Y, (1.0, 0)),
         "the valuation vector v must have int or Fraction coordinates, got (1.0, 0)"),
        (lambda: rs.pair(0, (0.5, 1)),
         "the cocharacter must have int or Fraction coordinates, got (0.5, 1)"),
        (lambda: degrees_of(rs, Y, (0.5, 1)),
         "lam must have int or Fraction coordinates, got (0.5, 1)"),
        (lambda: CocharRational.of(rs, (0.5, 1)),
         "the cocharacter must have int or Fraction coordinates, got (0.5, 1)"),
        (lambda: delta_exponent(rs, (0.5, 1.5), 1, None, (1, 0)),
         "lam must have int or Fraction coordinates, got (0.5, 1.5)"),
        (lambda: destabilizing_certificate(rs, Y, (0.5, 1), 0),
         "lam_tilde must have int or Fraction coordinates, got (0.5, 1)"),
        # the scan reads a ValueError per root as "no certificate", so it
        # gates lam_tilde once, before the loop, rather than return []
        (lambda: scan_destabilizers(rs, Y, (0.5, 1)),
         "lam_tilde must have int or Fraction coordinates, got (0.5, 1)"),
    ]
    for call, message in refused:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # ints and Fractions pass, and a generator is read once
    assert rs.pair(0, (Fraction(1, 2), 1)) == 0
    assert rs.reflect_cochar(0, iter((1, 2))) == (1, 2)
    assert cartan_vector(rs, QQ, iter((1, 2))) == cartan_vector(rs, QQ, (1, 2))


def test_entry_points_read_a_one_shot_vector_once():
    # each entry point gates lam (and v) once and passes the tuple on, so a
    # one-shot iterator gives the answer its tuple gives
    rs = build("A2")
    Y = root_vector(rs, QQ, rs.root_index[(1, 1)])
    assert instability_ratio_sq(rs, Y, iter((1, 1))) == instability_ratio_sq(rs, Y, (1, 1))
    assert rs.norm_sq(iter((1, 1))) == rs.norm_sq((1, 1))
    rs = build("B2")
    sc = structure_constants(rs)
    q3, ft2 = RationalField(3), FunctionField(2)
    top = next(ri for ri in rs.positive_roots if rs.pair(ri, (1, 1)) == 2)
    X = root_vector(rs, q3, top, q3.element(3))
    T = root_vector(rs, ft2, top, ft2.uniformizer())
    calls = [
        lambda lam: instability_ratio_sq(rs, X, lam),
        lambda lam: graded_ad(rs, sc, X, lam, 2).rows,
        lambda lam: phi_of(rs, sc, X, lam, 2),
        lambda lam: verify_phi_inverse(rs, sc, X, lam, 2),
        lambda lam: verify_rrao(rs, sc, X, lam, 2, (1, -1)),
        lambda lam: lattice_image(rs, sc, T, lam, 2, 1, 5),
    ]
    for call in calls:
        assert call(iter((1, 1))) == call((1, 1))
    assert verify_rrao(rs, sc, X, (1, 1), 2, iter((1, -1))) == \
        verify_rrao(rs, sc, X, (1, 1), 2, (1, -1))


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


def test_m_of_keeps_a_rational_minimum():
    # rho is scale-invariant: lam = (3/4,) gives m = 3/2 and the ratio of lam = (1,)
    q = RationalField()
    sl2 = build("A1")
    E = root_vector(sl2, q, sl2.simple_roots[0])
    assert m_of(sl2, E, (Fraction(3, 4),)) == Fraction(3, 2)
    assert instability_ratio_sq(sl2, E, (Fraction(3, 4),)) == instability_ratio_sq(sl2, E, (1,)) == 2


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
    # s and t are ints, not bools: s = 1.5 read as 1 gave 1, s = True ran as
    # s = 1, and t = 2.5 was accepted
    for s, t in ((1.5, None), (True, None), (Fraction(1), None), ("1", None)):
        with pytest.raises(ValueError, match=f"^the filtration slice starts at an int "
                                             f"s >= 1, got {re.escape(repr(s))}$"):
            delta_exponent(sl3, (1, 1), s, t, (1, 0))
    for t in (2.5, True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^need t None or an int t > s = 1, "
                                             f"got {re.escape(repr(t))}$"):
            delta_exponent(sl3, (1, 1), 1, t, (1, 0))


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
    """rs.degrees, grade and delta_exponent agree with rs.pair on every
    root, for lam and v given as ints or as integral Fractions, and
    delta_exponent and rs.degrees for a half-integral lam too; every
    weight-space list is sorted."""
    rs = build(t, isogeny)
    rng = random.Random(f"grade-oracle-{t}-{isogeny}")
    for trial in range(20):
        lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        if trial % 2:
            lam, v = tuple(map(Fraction, lam)), tuple(map(Fraction, v))
        degree = [rs.pair(a, lam) for a in rs.roots]
        assert rs.degrees(lam) == degree
        assert rs.degrees(v) == [rs.pair(a, v) for a in rs.roots]
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
        # a half-integral lam, which grade refuses, still slices the roots
        half = tuple(Fraction(2 * c + 1, 2) for c in lam)
        degree = [rs.pair(a, half) for a in rs.roots]
        assert rs.degrees(half) == degree
        for s, stop in ((1, None), (1, 3), (2, 4)):
            e = sum(rs.pair(a, v) for a, d in zip(rs.roots, degree)
                    if d >= s and (stop is None or d < stop))
            assert delta_exponent(rs, half, s, stop, v) == e
