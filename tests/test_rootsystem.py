import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from chevalley import build, parse_cartan_type

from conftest import ISOGENIES, SC_TYPES, SCALED_BUILDS

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "E6", "F4", "G2"]


# the classical root counts (Bourbaki, Plates I-IX), written out rather
# than read from the table the build checks itself against
CLASSICAL_ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30, "B2": 8, "B3": 18, "B4": 32,
    "C2": 8, "C3": 18, "D4": 24, "D5": 40, "E6": 72, "E7": 126, "E8": 240,
    "F4": 48, "G2": 12,
}


@pytest.mark.parametrize("t", ALL_TYPES + ["E7", "E8", "D5", "C2", "B4"])
def test_classical_root_counts(t):
    rs = build(t)
    assert len(rs.roots) == CLASSICAL_ROOT_COUNTS[t]
    assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_invalid_types():
    for bad in ["G3", "F5", "E9", "E5", "A0", "B1", "H4", "D2"]:
        with pytest.raises(ValueError):
            build(bad)
    with pytest.raises(ValueError):
        build("A2", isogeny="weird")


def test_parse_products():
    assert parse_cartan_type("A2xA1") == [("A", 2), ("A", 1)]
    assert parse_cartan_type(" b3 X g2 ") == [("B", 3), ("G", 2)]
    rs = build("A1xA1")
    assert len(rs.roots) == 4
    assert rs.rank == 2


@pytest.mark.parametrize("text", ["A1_0", "A+2", "A 2", "A2.5", "A-2", "A\u0663", "A\u00b2",
                                  "A", "2A", "A2xB", "A2x"])
def test_parse_cartan_type_reads_one_letter_and_ascii_digits(text):
    # int() would read "A1_0" as A10 and "A+2", "A 2" and an Arabic-Indic
    # digit as a rank; every factor is one letter and ASCII digits instead
    with pytest.raises(ValueError) as exc:
        parse_cartan_type(text)
    assert str(exc.value) == f"cannot parse Cartan type {text!r}"
    with pytest.raises(ValueError, match="cannot parse Cartan type"):
        build(text)


@pytest.mark.parametrize("t", SC_TYPES)
def test_height_parents(t):
    # each positive root is its parent plus the simple root alpha_j, the
    # first with <a, alpha_j^v> > 0; a parent comes before its child
    for isogeny in ISOGENIES:
        rs = build(t, isogeny)
        assert len(rs.height_parents) == len(rs.positive_roots)
        for i, (parent, j) in enumerate(rs.height_parents):
            a = rs.roots[i]
            on_coroots = [sum(x * c for x, c in zip(a, row)) for row in rs.cartan]
            assert j == min(j for j, c in enumerate(on_coroots) if c > 0)
            below = (0,) * rs.rank if parent is None else rs.roots[parent]
            assert parent is None or parent < i
            assert tuple(x + (n == j) for n, x in enumerate(below)) == a


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


def test_reflect_cochar_takes_only_a_simple_root_index():
    # -1 used to reflect in the last simple root and rank raised IndexError
    rs = build("A2")
    for bad in (-1, rs.rank, True, 1.5, "0", (1, 0)):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a simple root "
                                             f"index of A2$"):
            rs.reflect_cochar(bad, (1, 1))
    assert rs.reflect_cochar(0, (1, 1)) == (0, 1) and rs.reflect_cochar(1, (1, 1)) == (1, 0)


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


ROOT_TABLES_SHA256 = "4c84c83ef894901a8b8558237b934664e29de1c9028117d0f36ee4c3b2dd793f"


def test_root_system_tables_pinned():
    # every table the build derives, with the type of each squared length:
    # len_sq is the Fraction view of the integer table len_num / len_den
    h = hashlib.sha256()
    for (t, scale), isogeny in product([(t, None) for t in SC_TYPES] + SCALED_BUILDS, ISOGENIES):
        rs = build(t, isogeny, scale=scale)
        tables = {
            "json": rs.to_json(),
            "len_sq": [(type(x).__name__, str(x)) for x in rs.len_sq],
            "pairing_rows": rs.pairing_rows,
            "char_form": [[str(x) for x in row] for row in rs.char_form],
            "gram_num": rs.gram_num,
            "gram_den": rs.gram_den,
        }
        h.update(json.dumps(tables, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == ROOT_TABLES_SHA256


@pytest.mark.parametrize("t, scale", [
    *((t, None) for t in ["A8", "B6", "C6", "D7", "D8", "E7xA1"]),
    ("A2xB3xG2", [Fraction(7, 3), Fraction(5), Fraction(9, 11)]),
    ("C4xF4", [Fraction(13, 5), Fraction(3, 7)]),
])
def test_gram_and_coroots_beyond_the_pinned_types(t, scale):
    # types the table digest does not reach, checked in plain Fraction
    # arithmetic: the simply connected Gram is the simple coroots' 4 f_ij /
    # (f_ii f_jj), the adjoint Gram inverts char_form (the fundamental
    # coweights are dual to the nu(simple roots)), each adjoint coroot is
    # the Cartan-row image of its simply connected coroot, and <a, a^v> = 2
    sc, ad = (build(t, isogeny, scale=scale) for isogeny in ISOGENIES)
    f, n = sc.char_form, sc.rank
    assert sc.gram == [[4 * f[i][j] / (f[i][i] * f[j][j]) for j in range(n)] for i in range(n)]
    assert ad.char_form == f
    assert [[sum(g * x for g, x in zip(row, col)) for col in zip(*f)] for row in ad.gram] == \
        [[int(i == j) for j in range(n)] for i in range(n)]
    assert ad.roots == sc.roots
    for a, k in zip(sc.roots, sc.coroots):
        assert ad.coroot(a) == tuple(sum(x * row[j] for x, row in zip(k, sc.cartan))
                                     for j in range(n))
    for rs in (sc, ad):
        assert all(rs.pair(a, rs.coroot(a)) == 2 for a in rs.roots)


def test_basis_pairing_and_length_table():
    # basis_pairing[i][j] = <alpha_i, basis_j>: the simple coroots' Cartan
    # entries when simply connected, the fundamental coweights' delta when
    # adjoint; and len_sq is the integer table len_num over len_den
    for (t, scale), isogeny in product([(t, None) for t in SC_TYPES] + SCALED_BUILDS, ISOGENIES):
        rs = build(t, isogeny, scale=scale)
        for i, j in product(range(rs.rank), repeat=2):
            expected = rs.cartan[j][i] if isogeny == "simply_connected" else int(i == j)
            assert rs.basis_pairing[i][j] == expected, (t, isogeny, i, j)
        assert all(type(x) is int for x in rs.len_num) and type(rs.len_den) is int
        assert [Fraction(x, rs.len_den) for x in rs.len_num] == rs.len_sq, (t, isogeny)


def test_exact_division_raises_under_O():
    # the integer build's divisions raise RuntimeError on a remainder, which `python -O` keeps
    from chevalley.rootsystem import exact_div

    q = exact_div(-12, 4, "structure constant")
    assert q == -3 and type(q) is int
    assert exact_div(6, -3, "structure constant") == -2
    with pytest.raises(RuntimeError, match="non-integral coroot coordinate 1/2"):
        exact_div(3, 6, "coroot coordinate")
    with pytest.raises(RuntimeError, match="non-integral structure constant -7/3"):
        exact_div(7, -3, "structure constant")


@pytest.mark.parametrize("isogeny", ["simply_connected", "weird"])
@pytest.mark.parametrize("cartan_type, message", [
    *((t, f"invalid Cartan type {t}") for t in ["A0", "B1", "D2", "E5", "E9", "F3", "G3", "Z9"]),
    ("A2xG3", "invalid Cartan type G3"),
    ([("z", 9)], "invalid Cartan type Z9"),
    ("", "cannot parse Cartan type ''"),
    ([], "empty Cartan type"),
    ([("A", 2.5)], "invalid Cartan type A2.5"),  # not truncated to A2
    ([("a", Fraction(5, 2))], "invalid Cartan type A5/2"),
    ([("A", 2.0)], "invalid Cartan type A2.0"),  # an integral float is no rank either
    # a string, or a list or tuple of (letter, int) pairs, the int not a bool:
    # True built A1, "2" and " 2 " built A2, and the rest raised TypeError or
    # Python's own unpacking ValueError
    *((t, "a Cartan type is a string or a list of (letter, int rank) pairs, "
          f"got {t!r}")
      for t in [[("A", True)], [("A", "2")], [("A", " 2 ")], None, 5, [5], [("A",)],
                {"A": 2}, [(1, 2)], [("A", None)]]),
])
def test_build_error_messages_and_their_order(cartan_type, message, isogeny):
    # a bad type is reported before a bad isogeny
    with pytest.raises(ValueError) as exc:
        build(cartan_type, isogeny)
    assert str(exc.value) == message


@pytest.mark.parametrize("scale", [[0], [Fraction(-1, 2)], [1, 1], [],
                                   # one int (not a bool) or Fraction per factor: a
                                   # float is not exact, a string is not parsed
                                   [2 ** 0.5], [True], ["1/2"], 2, [None],
                                   [float("inf")], [float("nan")], ["x"]])
def test_build_rejects_a_bad_scale(scale):
    with pytest.raises(ValueError) as exc:
        build("G2", scale=scale)
    assert str(exc.value) == "scale must give one positive rational per factor"
    # the isogeny is checked before the scale
    with pytest.raises(ValueError, match="unknown isogeny type 'weird'"):
        build("G2", "weird", scale=scale)
