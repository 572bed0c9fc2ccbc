import hashlib
import json
import random

import pytest

from chevalley import (PrimeField, RationalField, bracket, build, coroot_element,
                       root_vector, structure_constants)
from chevalley.fields import QQ
from chevalley.lie import element_from_support

from conftest import jacobiator, random_element

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"]


@pytest.fixture(scope="module")
def systems():
    out = {}
    for t in TYPES + ["E6"]:
        rs = build(t)
        out[t] = (rs, structure_constants(rs))
    return out


@pytest.mark.parametrize("t", TYPES + ["E6"])
def test_magnitudes_match_chain_formula(t, systems):
    # |N_{a,b}| = q + 1 for every pair with a + b a root
    rs, sc = systems[t]
    checked = 0
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index:
                q, _ = rs.alpha_chain(a, b)
                assert abs(sc.n(i, j)) == q + 1, (a, b)
                checked += 1
    assert checked > 0 or t == "A1"  # rank 1 has no summable pairs


@pytest.mark.parametrize("t", TYPES + ["E6"])
def test_antisymmetry_and_negation(t, systems):
    rs, sc = systems[t]
    for (i, j), v in sc._n.items():
        assert sc.n(j, i) == -v
        ni = rs.root_index[tuple(-c for c in rs.roots[i])]
        nj = rs.root_index[tuple(-c for c in rs.roots[j])]
        assert sc.n(ni, nj) == -v


def test_max_n_values(systems):
    expected = {"A1": 0, "A2": 1, "A3": 1, "B2": 2, "B3": 2, "C3": 2,
                "D4": 1, "F4": 2, "G2": 3, "E6": 1}
    for t, m in expected.items():
        assert systems[t][1].max_abs_n() == m, t


def test_b2_contains_two(systems):
    rs, sc = systems["B2"]
    assert 2 in {abs(v) for v in sc._n.values()}


def test_a2_extraspecial_sign(systems):
    rs, sc = systems["A2"]
    a1, a2 = rs.simple_roots
    assert sc.n(a1, a2) == 1
    assert sc.n(a2, a1) == -1


def test_sl2_coroot_bracket(systems):
    rs, sc = systems["A1"]
    q = RationalField()
    e = root_vector(rs, q, rs.simple_roots[0])
    f = root_vector(rs, q, rs.root_index[(-1,)])
    h = bracket(sc, e, f)
    assert h == coroot_element(rs, q, rs.simple_roots[0])
    assert h.cartan_part() == {0: q.one}
    # [h, e] = 2e, [h, f] = -2f
    assert bracket(sc, h, e) == e.scaled(q.element(2))
    assert bracket(sc, h, f) == f.scaled(q.element(-2))


@pytest.mark.parametrize("t", TYPES)
def test_cartan_relations(t, systems):
    # [H_a, E_b] = <b, coroot(a)> E_b
    rs, sc = systems[t]
    q = RationalField()
    rng = random.Random(t)
    for _ in range(60):
        a = rng.choice(rs.roots)
        bi = rng.randrange(len(rs.roots))
        b = rs.roots[bi]
        h = coroot_element(rs, q, rs.root_index[a])
        eb = root_vector(rs, q, bi)
        got = bracket(sc, h, eb)
        assert got == eb.scaled(q.element(int(rs.pair(b, rs.coroot(a)))))


@pytest.mark.parametrize("t", TYPES + ["E6"])
def test_jacobi_identity_char0(t, systems):
    rs, sc = systems[t]
    q = RationalField()
    rng = random.Random(f"jacobi-{t}")
    for _ in range(150):
        X, Y, Z = (random_element(rs, q, rng) for _ in range(3))
        j = jacobiator(sc, X, Y, Z)
        assert j.is_zero()
        assert bracket(sc, X, X).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jacobi_identity_mod_p(p, systems):
    fp = PrimeField(p)
    rng = random.Random(p)
    for t in ["A3", "B3", "G2", "D4"]:
        rs, sc = systems[t]
        for _ in range(80):
            X, Y, Z = (random_element(rs, fp, rng) for _ in range(3))
            j = jacobiator(sc, X, Y, Z)
            assert j.is_zero()


@pytest.mark.parametrize("t", ["A2", "A3", "D4", "B2"])
def test_jacobi_identity_adjoint_lattice_mod_p(t):
    # the Cartan reduces into the coweight basis for adjoint type; the
    # bracket must still satisfy Jacobi mod p there
    rs = build(t, "adjoint")
    sc = structure_constants(rs)
    for p in (2, 3):
        fp = PrimeField(p)
        rng = random.Random(f"adj-{t}-{p}")
        for _ in range(60):
            X, Y, Z = (random_element(rs, fp, rng) for _ in range(3))
            j = jacobiator(sc, X, Y, Z)
            assert j.is_zero()


def test_bilinearity(systems):
    rs, sc = systems["B2"]
    q = RationalField()
    rng = random.Random(42)
    for _ in range(30):
        X, Y, Z = (random_element(rs, q, rng) for _ in range(3))
        c = q.element(rng.randint(-4, 4))
        lhs = bracket(sc, X.scaled(c) + Y, Z)
        rhs = bracket(sc, X, Z).scaled(c) + bracket(sc, Y, Z)
        assert lhs == rhs


def test_mixed_fields_rejected(systems):
    rs, sc = systems["A2"]
    X = root_vector(rs, RationalField(), 0)
    Y = root_vector(rs, PrimeField(5), 1)
    with pytest.raises(ValueError):
        bracket(sc, X, Y)


def test_zero_coefficients_pruned(systems):
    rs, _ = systems["A2"]
    q = RationalField()
    X = root_vector(rs, q, 0)
    assert (X - X).coeffs == {}
    assert not (X - X)


def test_element_from_support_coefficient_count():
    """Only coefficients=None means all ones; any list must match the
    support in length, where zip used to drop the unmatched roots."""
    rs = build("A2")
    support = [(1, 0), (0, 1)]
    for coeffs in ([5], [], [1, 2, 3]):
        with pytest.raises(ValueError, match=f"^{len(coeffs)} coefficients for 2 support roots$"):
            element_from_support(rs, QQ, support, coeffs)
    assert element_from_support(rs, QQ, support) == element_from_support(rs, QQ, support, [1, 1])
    assert element_from_support(rs, QQ, support, (5, 7)).coeffs == {
        ("E", rs.root_index[(1, 0)]): 5, ("E", rs.root_index[(0, 1)]): 7}


@pytest.mark.parametrize("t,count", [("E7", 126), ("E8", 240)])
def test_high_rank_exceptional_types(t, count):
    # rank <= 8 coverage: counts, N = +-1, Jacobi on random sparse triples
    rs = build(t)
    sc = structure_constants(rs)
    assert len(rs.roots) == count
    assert sc.max_abs_n() == 1
    q = RationalField()
    f2 = PrimeField(2)
    rng = random.Random(t)
    for field in (q, f2):
        for _ in range(50):
            X, Y, Z = (random_element(rs, field, rng) for _ in range(3))
            j = jacobiator(sc, X, Y, Z)
            assert j.is_zero()


def test_pgl3_cartan_degeneration_mod3():
    # coroots of a1 and a2 agree mod 3 in the coweight basis, so the
    # Cartan component of [E_-a1 - E_-a2, E_a1 + E_a2] vanishes over F_3
    rs = build("A2", "adjoint")
    sc = structure_constants(rs)
    f3 = PrimeField(3)
    a1, a2 = rs.simple_roots
    na1 = rs.root_index[tuple(-c for c in rs.roots[a1])]
    na2 = rs.root_index[tuple(-c for c in rs.roots[a2])]
    X = element_from_support(rs, f3, [na1, na2], [1, -1])
    Y = element_from_support(rs, f3, [a1, a2])
    assert not bracket(sc, X, Y).cartan_part()
    # over Q the same bracket has a nonzero Cartan component
    q = RationalField()
    Xq = element_from_support(rs, q, [na1, na2], [1, -1])
    Yq = element_from_support(rs, q, [a1, a2])
    assert bracket(sc, Xq, Yq).cartan_part()


def test_structure_constant_json(systems):
    rs, sc = systems["A2"]
    d = sc.to_json()
    assert d["type"] == "A2"
    assert d["n"]["0,1"] == 1
    assert set(d["coroots"]) == {str(i) for i in range(6)}


def test_structure_constant_regression_snapshots(systems):
    # frozen tables: the extraspecial-pair convention must stay reproducible
    a2 = systems["A2"][1].to_json()["n"]
    assert a2 == {"0,1": 1, "0,5": -1, "1,0": -1, "1,5": 1, "2,3": -1,
                  "2,4": 1, "3,2": 1, "3,4": -1, "4,2": -1, "4,3": 1,
                  "5,0": 1, "5,1": -1}
    g2 = systems["G2"][1].to_json()["n"]
    assert g2["0,1"] == 1 and g2["0,2"] == 2 and g2["0,3"] == 3
    assert g2["2,3"] == -3 and g2["6,2"] == 3 and g2["9,6"] == 3
    assert len(g2) == 60


# SHA-256 of the to_json() dumps below, taken before the tables were keyed
# by root index; any changed N_{a,b} or coroot turns this red
SC_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5", "D4",
            "D5", "D6", "E6", "E7", "E8", "F4", "G2", "A1xA1", "A2xA1", "B2xG2", "A3xC3"]
SC_SHA256 = "04a7c03fb811eea50e0897b45b2d63f69dbdf7fb09e67d513e03f2447d615280"


def test_structure_constant_tables_pinned():
    h = hashlib.sha256()
    for t in SC_TYPES:
        for isogeny in ("simply_connected", "adjoint"):
            sc = structure_constants(build(t, isogeny))
            h.update(json.dumps(sc.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == SC_SHA256


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "A2xA1"])
def test_root_sum_and_negative_indices(t):
    rs = build(t)
    sc = structure_constants(rs)
    for i, a in enumerate(rs.roots):
        assert rs.roots[rs.negative(i)] == tuple(-x for x in a)
        for j, b in enumerate(rs.roots):
            s = rs.root_index.get(tuple(x + y for x, y in zip(a, b)))
            assert sc.root_sum(i, j) == s
            assert (sc.n(i, j) != 0) == (s is not None)
