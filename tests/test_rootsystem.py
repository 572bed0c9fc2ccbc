import random
from fractions import Fraction
from itertools import product

import pytest

from chevalley import build, parse_cartan_type
from chevalley.rootsystem import ROOT_COUNTS

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "E6", "F4", "G2"]


@pytest.mark.parametrize("t", ALL_TYPES + ["E7", "E8", "D5", "C2", "B4"])
def test_classical_root_counts(t):
    rs = build(t)
    series, r = t[0], int(t[1:])
    assert len(rs.roots) == ROOT_COUNTS[series](r)
    assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_invalid_types():
    for bad in ["G3", "F5", "E9", "E5", "A0", "B1", "H4", "D2"]:
        with pytest.raises(ValueError):
            build(bad)
    with pytest.raises(ValueError):
        build("A2", isogeny="weird")


def test_parse_products():
    assert parse_cartan_type("A2xA1") == [("A", 2), ("A", 1)]
    rs = build("A1xA1")
    assert len(rs.roots) == 4
    assert rs.rank == 2


@pytest.mark.parametrize("t", ALL_TYPES)
def test_plus_minus_pairs_and_positivity(t):
    rs = build(t)
    index = rs.root_index
    for a in rs.roots:
        assert tuple(-c for c in a) in index
    for ri in rs.positive_roots:
        a = rs.roots[ri]
        assert all(c >= 0 for c in a)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_reflection_closure_and_weyl_invariance(t):
    rs = build(t)
    if len(rs.roots) <= 48:
        for a in rs.roots:  # closure under every root reflection
            for b in rs.roots:
                assert rs.reflect(a, b) in rs.root_index
    else:
        for a in rs.roots:
            for i in range(rs.rank):
                s = rs.roots[rs.simple_roots[i]]
                assert rs.reflect(s, a) in rs.root_index
    # (w a, w b) = (a, b) for simple reflections
    rng = random.Random(hash(t) & 0xFFFF)
    for _ in range(40):
        a = rng.choice(rs.roots)
        b = rng.choice(rs.roots)
        i = rng.randrange(rs.rank)
        s = rs.roots[rs.simple_roots[i]]
        assert rs.root_form(rs.reflect(s, a), rs.reflect(s, b)) == rs.root_form(a, b)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_coroot_pairing_normalization(t):
    rs = build(t)
    for a in rs.roots:
        assert rs.pair(a, rs.coroot(a)) == 2
    # long roots have squared length 2 in every irreducible factor
    assert max(rs.root_len_sq(a) for a in rs.roots) == Fraction(2)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_chain_identity(t):
    # q - r = <b, coroot(a)> for non-proportional roots, by enumeration
    rs = build(t)
    rng = random.Random(len(t))
    roots = rs.roots
    for _ in range(200):
        a, b = rng.choice(roots), rng.choice(roots)
        if a == b or a == tuple(-c for c in b):
            continue
        q, r = rs.alpha_chain(a, b)
        assert q - r == rs.pair(b, rs.coroot(a))


def test_chain_examples():
    a2 = build("A2")
    a1, s2 = (a2.roots[i] for i in a2.simple_roots)
    assert a2.alpha_chain(a1, s2) == (0, 1)
    g2 = build("G2")
    short, long_ = (g2.roots[i] for i in g2.simple_roots)
    assert g2.root_len_sq(short) < g2.root_len_sq(long_)
    assert g2.alpha_chain(short, long_) == (0, 3)
    prod = build("A1xA1")
    x, y = (prod.roots[i] for i in prod.simple_roots)
    assert prod.alpha_chain(x, y) == (0, 0)
    with pytest.raises(ValueError):
        a2.alpha_chain(a1, a1)
    with pytest.raises(ValueError):
        a2.alpha_chain(a1, tuple(-c for c in a1))


def test_g2_adjoint_counts():
    rs = build("G2", "adjoint")
    assert len(rs.roots) == 12
    assert len(rs.positive_roots) == 6


def test_cochar_norm_positive_definite():
    rng = random.Random(17)
    for t in ["A2", "B2", "G2", "A2xA1"]:
        rs = build(t)
        for _ in range(30):
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            if any(lam):
                assert rs.norm_sq(lam) > 0
        assert rs.norm_sq((0,) * rs.rank) == 0


def test_a1_simply_connected():
    rs = build("A1")
    assert len(rs.roots) == 2
    a = rs.roots[rs.simple_roots[0]]
    assert rs.root_len_sq(a) == 2
    assert rs.coroot(a) == (1,)


def test_a2_adjoint_lattice():
    # cocharacter lattice = coweights; Gram of the simple coroots is the
    # Cartan matrix; the coroots have Cartan-matrix rows as coordinates
    rs = build("A2", "adjoint")
    s1, s2 = (rs.roots[i] for i in rs.simple_roots)
    assert rs.coroot(s1) == (2, -1)
    assert rs.coroot(s2) == (-1, 2)
    g11 = rs.cochar_form(rs.coroot(s1), rs.coroot(s1))
    g12 = rs.cochar_form(rs.coroot(s1), rs.coroot(s2))
    assert (g11, g12) == (Fraction(2), Fraction(-1))
    # fundamental coweights pair to delta with the simple roots
    assert rs.pair(s1, (1, 0)) == 1 and rs.pair(s2, (1, 0)) == 0


def test_degree_symmetry_under_negation():
    # d_{-i} = d_i for every integral cocharacter
    rng = random.Random(2)
    for t in ["A3", "B3", "G2", "D4"]:
        rs = build(t)
        for _ in range(20):
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            degs = {}
            for a in rs.roots:
                d = rs.pair(a, lam)
                degs[d] = degs.get(d, 0) + 1
            for d, count in degs.items():
                assert degs.get(-d, 0) == count


def test_nu_compatibilities():
    # <b, nu(a)> = (b, a) and (lam, nu(a)) = <a, lam>, in both isogeny types
    rng = random.Random(9)
    for t, isogeny in product(["A2", "B2", "G2", "C3"], ["simply_connected", "adjoint"]):
        rs = build(t, isogeny)
        for _ in range(30):
            a = rng.choice(rs.roots)
            b = rng.choice(rs.roots)
            nu = rs.nu(a)
            assert rs.pair(b, nu) == rs.root_form(b, a)
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert rs.cochar_form(lam, nu) == rs.pair(a, lam)


def test_scale_knob_changes_norm_not_coroots():
    plain = build("G2")
    scaled = build("G2", scale=[Fraction(3, 5)])
    a = plain.roots[plain.simple_roots[0]]
    assert plain.coroot(a) == scaled.coroot(a)
    assert scaled.norm_sq((1, 0)) == plain.norm_sq((1, 0)) * Fraction(5, 3)


def test_json_dump_shape():
    rs = build("B2")
    d = rs.to_json()
    assert d["root_count"] == 8
    assert len(d["roots"]) == 8
    assert len(d["pairing_matrix"]) == 2
    assert set(d["coroots"]) == {str(i) for i in range(8)}


def test_integrality_guard_raises_under_O():
    # the root-data invariants raise RuntimeError, which `python -O` keeps
    from chevalley.rootsystem import integer

    assert integer(Fraction(6, 3), "Cartan entry") == 2
    with pytest.raises(RuntimeError, match="non-integral coroot coordinate 1/2"):
        integer(Fraction(1, 2), "coroot coordinate")


@pytest.mark.parametrize("isogeny", ["simply_connected", "weird"])
@pytest.mark.parametrize("cartan_type, message", [
    *((t, f"invalid Cartan type {t}") for t in ["A0", "B1", "D2", "E5", "E9", "F3", "G3", "Z9"]),
    ("A2xG3", "invalid Cartan type G3"),
    ([("z", 9)], "invalid Cartan type Z9"),
    ("", "cannot parse Cartan type ''"),
    ([], "empty Cartan type"),
])
def test_build_error_messages_and_their_order(cartan_type, message, isogeny):
    # a bad type is reported before a bad isogeny
    with pytest.raises(ValueError) as exc:
        build(cartan_type, isogeny)
    assert str(exc.value) == message


@pytest.mark.parametrize("scale", [[0], [Fraction(-1, 2)], [1, 1], []])
def test_build_rejects_a_bad_scale(scale):
    with pytest.raises(ValueError) as exc:
        build("G2", scale=scale)
    assert str(exc.value) == "scale must give one positive rational per factor"
    # the isogeny is checked before the scale
    with pytest.raises(ValueError, match="unknown isogeny type 'weird'"):
        build("G2", "weird", scale=scale)
