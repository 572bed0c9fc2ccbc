import json

import pytest

from chevalley.corpus import (element_from_support, run_corpus, run_instance,
                              standard_corpus, standard_instances)
from chevalley.fields import PrimeField, RationalField

from conftest import REPO_ROOT


def test_standard_instances_families():
    entries = standard_instances("B2")
    origins = {e["origin"] for e in entries}
    assert origins == {"single_root", "simple_root_sum", "random"}
    singles = [e for e in entries if e["origin"] == "single_root"]
    assert len(singles) == 4  # positive roots of B2
    sums = [e for e in entries if e["origin"] == "simple_root_sum"]
    assert len(sums) == 3  # nonempty subsets of the 2 simple roots


def test_standard_corpus_is_deterministic_and_matches_shipped_file():
    c1 = standard_corpus()
    c2 = standard_corpus()
    assert c1 == c2
    shipped = json.loads((REPO_ROOT / "corpus" / "standard.json").read_text())
    assert shipped == c1


def test_run_corpus_small():
    corpus = {
        "schema": 1,
        "primes": [2, 3],
        "entries": [
            {"cartan_type": "A2", "isogeny": "simply_connected",
             "support": [[1, 1]], "coefficients": [1], "origin": "test"},
            {"cartan_type": "A2", "isogeny": "simply_connected",
             "support": [[1, 0], [0, 1]], "coefficients": [1, 1], "origin": "test"},
        ],
    }
    rep = run_corpus(corpus)
    assert rep["ok"] and rep["count"] == 2
    inst = rep["instances"][0]
    assert inst["lambda"] == [1, 1] and inst["k"] == 2
    assert inst["injective_over_Q"] and inst["dims_symmetric"]
    assert inst["mod_p"]["2"]["injective"] and inst["mod_p"]["2"]["asserted"]
    assert inst["phi_over_Q_v2"] == {"q": 2, "half_exponent": 0}


def test_run_corpus_rejects_unknown_schema():
    with pytest.raises(ValueError):
        run_corpus({"schema": 99, "entries": []})
    # the corpus must be an object whose entries are a list of objects
    for corpus in ([], "corpus", {"schema": 1}, {"schema": 1, "entries": {"a": 1}},
                   {"schema": 1, "entries": [5]}, {"schema": 1, "entries": [[1, 0]]}):
        with pytest.raises(ValueError):
            run_corpus(corpus)
    # malformed entries raise; no coefficient or prime is coerced
    good = {"cartan_type": "A2", "support": [[1, 0], [0, 1]], "coefficients": [1, 1]}
    bad_entries = [{"coefficients": [2.5, 1]}, {"coefficients": ["1/2", 1]},
                   {"coefficients": [True, 1]}, {"coefficients": [1]},
                   {"primes": [4]}, {"primes": [2, "3"]}]
    for patch in bad_entries:
        with pytest.raises(ValueError):
            run_corpus({"schema": 1, "entries": [{**good, **patch}]})
    for primes in ([4], [2, 1], [2.0], 3):
        with pytest.raises(ValueError):
            run_corpus({"schema": 1, "primes": primes, "entries": [good]})
    assert run_corpus({"schema": 1, "primes": [11], "entries": [good]})["ok"]


def test_run_instance_rejects_a_coefficient_count_mismatch():
    from chevalley import build, structure_constants

    rs = build("A2")
    sc = structure_constants(rs)
    entry = {"support": [[1, 0], [0, 1]], "coefficients": [1]}
    with pytest.raises(ValueError, match="^1 coefficients for 2 support roots$"):
        run_instance(rs, sc, entry, [2])
    with pytest.raises(ValueError, match="^3 coefficients for 2 support roots$"):
        run_instance(rs, sc, {**entry, "coefficients": [1, 2, 3]}, [2])
    # no coefficients at all means all ones
    report = run_instance(rs, sc, {"support": entry["support"]}, [2])
    assert report["coefficients"] == [1, 1]


def test_element_from_support_mod_p_degeneration():
    from chevalley import build

    rs = build("A2")
    f7 = PrimeField(7)
    with pytest.raises(ValueError):
        element_from_support(rs, f7, [[1, 0]], [7])
    # a repeated root adds its coefficients, by coordinates or by index
    Y = element_from_support(rs, f7, [[1, 0], [0, 1], rs.root_index[(1, 0)]], [2, 1, 3])
    assert Y.coeffs == {("E", rs.root_index[(1, 0)]): f7.element(5),
                        ("E", rs.root_index[(0, 1)]): f7.element(1)}
    # cancelling coefficients leave nothing
    with pytest.raises(ValueError, match="support collapsed to zero"):
        element_from_support(rs, f7, [[1, 1], [1, 1]], [3, 4])
    with pytest.raises(ValueError, match="support collapsed to zero"):
        element_from_support(rs, RationalField(), [[1, 1], [1, 1]], [2, -2])


def test_shipped_corpus_runs_green_and_flags_the_d4_finding():
    shipped = json.loads((REPO_ROOT / "corpus" / "standard.json").read_text())
    rep = run_corpus(shipped)
    assert rep["ok"]
    assert rep["count"] >= 20
    flagged = [(r["cartan_type"], tuple(map(tuple, r["support"])), p)
               for r in rep["instances"]
               for p, v in r["mod_p"].items()
               if v.get("counterexample_to_expected")]
    assert flagged == [("D4", ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "2")]
    # every type-A instance is asserted and injective at every prime
    for r in rep["instances"]:
        if r["cartan_type"].startswith("A"):
            for v in r["mod_p"].values():
                if v["injective"] is not None:
                    assert v["injective"]
    # phi positivity on the corpus: finite exponent for every optimal
    # instance taken with its own lambda
    for r in rep["instances"]:
        assert r["phi_over_Q_v2"]["half_exponent"] != "inf", r["support"]
