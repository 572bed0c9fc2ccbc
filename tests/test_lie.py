import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from chevalley import (PrimeField, RationalField, bracket, build, c_gamma, cartan_vector,
                       coroot_element, destabilizing_certificate, root_vector,
                       structure_constants)
from chevalley.fields import QQ, FiniteField, FunctionField
from chevalley.lie import element_from_support

from conftest import ISOGENIES, SC_TYPES, SCALED_BUILDS, jacobiator, random_element

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
    # each is read once, so a one-shot iterator counts: iter([0]) raised
    # "object of type 'list_iterator' has no len()"
    assert element_from_support(rs, QQ, iter([0])) == root_vector(rs, QQ, 0)
    assert (element_from_support(rs, QQ, iter(support), iter([5, 7]))
            == element_from_support(rs, QQ, support, [5, 7]))
    with pytest.raises(ValueError, match="^1 coefficients for 2 support roots$"):
        element_from_support(rs, QQ, iter(support), iter([5]))
    # one that is not iterable raised "TypeError: 'int' object is not iterable"
    with pytest.raises(ValueError, match="^the support must be a sequence of roots, got 5$"):
        element_from_support(rs, QQ, 5)
    with pytest.raises(ValueError,
                       match="^the coefficients must be a sequence of coefficients, got 5$"):
        element_from_support(rs, QQ, [0], 5)


def test_only_real_roots_enter_an_element():
    """A root is an int index in range or the coordinates of a root: -1
    would key rs.roots[-1], a negative root that optimal_cocharacter takes
    for a support root, and True would be E_1."""
    rs = build("A2")
    for bad in (-1, True, 99, (5, 5)):
        message = f"^{re.escape(repr(bad))} is not a root of A2$"
        for make in (lambda: element_from_support(rs, QQ, [bad]),
                     lambda: root_vector(rs, QQ, bad), lambda: coroot_element(rs, QQ, bad),
                     lambda: c_gamma(rs, [bad], [0]), lambda: c_gamma(rs, [0], [bad])):
            with pytest.raises(ValueError, match=message):
                make()
    for ri, a in enumerate(rs.roots):
        assert root_vector(rs, QQ, ri) == root_vector(rs, QQ, a) == root_vector(rs, QQ, list(a))


def test_every_root_argument_goes_through_one_gate():
    """Each entry point that takes a root refuses a non-root with the one
    message of RootSystem.index: no KeyError, no IndexError, and no -1
    or True read as a root index."""
    rs = build("A2")
    Y = root_vector(rs, QQ, (1, 1))
    entry_points = [
        rs.index, rs.coroot, rs.nu, rs.root_len_sq,
        lambda r: rs.pair(r, (1, 1)),
        lambda r: rs.reflect(r, (1, 0)), lambda r: rs.reflect((1, 0), r),
        lambda r: rs.alpha_chain(r, (1, 0)), lambda r: rs.alpha_chain((1, 0), r),
        lambda r: root_vector(rs, QQ, r), lambda r: element_from_support(rs, QQ, [r]),
        lambda r: coroot_element(rs, QQ, r),
        lambda r: c_gamma(rs, [r], [0]), lambda r: c_gamma(rs, [0], [r]),
        lambda r: destabilizing_certificate(rs, Y, (1, 1), r),
    ]
    for bad in ((5, 5), (2, 0), (1, 0, 0), -1, len(rs.roots), True, 1.5, "a1"):
        message = f"^{re.escape(repr(bad))} is not a root of A2$"
        for call in entry_points:
            with pytest.raises(ValueError, match=message):
                call(bad)
    # every root argument takes an index as a support root does
    for i, a in enumerate(rs.roots):
        assert rs.index(i) == rs.index(a) == rs.index(list(a)) == i
        assert rs.coroot(i) == rs.coroot(a) and rs.nu(i) == rs.nu(a)
        assert rs.pair(i, (1, 2)) == rs.pair(a, (1, 2))
        assert rs.reflect(i, 0) == rs.reflect(a, rs.roots[0])


def test_coefficients_enter_only_their_own_field():
    """field.element passes the field's own elements as they are and
    refuses another field's, naming that field (a GF(p) element prints
    as a bare int); the Lie constructors take coefficients through it."""
    rs = build("A2")
    fields = [QQ, RationalField(3), PrimeField(3), PrimeField(5), FiniteField(4),
              FunctionField(3), FunctionField(4)]
    gf4, k3, k4 = fields[4], fields[5], fields[6]
    own = [Fraction(1, 2), Fraction(1, 3), fields[2].element(2), fields[3].element(2),
           gf4.from_coeffs((0, 1)), k3.t() + k3.one, k4.one / k4.t()]
    constructors = [
        lambda F, x: F.element(x),
        lambda F, x: root_vector(rs, F, 0, x).coeffs[("E", 0)],
        lambda F, x: element_from_support(rs, F, [(1, 0)], [x]).coeffs[("E", 0)],
        lambda F, x: cartan_vector(rs, F, [x, 0]).coeffs[("H", 0)],
    ]
    for F in fields:
        for G, x in zip(fields, own):
            if G == F or isinstance(F, RationalField) and isinstance(x, Fraction):
                for make in constructors:
                    assert make(F, x) is x
                continue
            why = "not an integer" if isinstance(x, Fraction) else f"an element of {G!r}"
            message = f"^{re.escape(f'cannot embed {x!r} in {F!r}: {why}')}$"
            for make in constructors:
                with pytest.raises(ValueError, match=message):
                    make(F, x)
    # a bool is no coefficient: True entered every field as 1, so
    # element_from_support(rs, QQ, [0], [True]) built E_0
    for F in fields:
        for x in (True, False):
            message = f"^{re.escape(f'cannot embed {x!r} in {F!r}: a bool is not a number')}$"
            for make in constructors:
                with pytest.raises(ValueError, match=message):
                    make(F, x)


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
SC_SHA256 = "04a7c03fb811eea50e0897b45b2d63f69dbdf7fb09e67d513e03f2447d615280"


def test_structure_constant_tables_pinned():
    h = hashlib.sha256()
    for t in SC_TYPES:
        for isogeny in ISOGENIES:
            sc = structure_constants(build(t, isogeny))
            h.update(json.dumps(sc.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == SC_SHA256


@pytest.mark.parametrize("isogeny", ISOGENIES)
@pytest.mark.parametrize("t, scale", SCALED_BUILDS)
def test_structure_constants_do_not_depend_on_the_scale(t, scale, isogeny):
    # the table is built from length ratios, which a per-factor scale keeps
    scaled = structure_constants(build(t, isogeny, scale=scale))
    assert scaled.to_json() == structure_constants(build(t, isogeny)).to_json()


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
