"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 4's mod-p
clause for types A and D asserts injectivity at every prime p <= 7 that
is good for the type, and pins the census at the bad prime: in type D
at p = 2 exactly one shipped instance, the D4 outer-nodes support, is
not injective, a genuine characteristic-2 counterexample (see README
"Acceptance status",
tests/test_badprimes.py::test_d4_characteristic_two_kernel_phenomenon
and the corpus report's `counterexample_to_expected` flag).
"""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from chevalley import (FunctionField, PrimeField, RationalField, bracket,
                       brute_force_verify, build, coker_eta, optimal_cocharacter,
                       regular_counterexample, regular_nilpotent,
                       structure_constants)
from chevalley.corpus import run_corpus

from conftest import (CORPUS_STDOUT_SHA256, REPO_ROOT, check_lattice_image,
                      check_phi_homogeneity, check_phi_identities,
                      half_sum_of_positive_coroots, jacobiator, random_element,
                      random_polynomial_element, random_square_grading)

# bad primes of the series that criterion 4's mod-p clause covers
BAD_PRIMES = {"A": (), "D": (2,)}
# the one documented D-type instance that is not injective at its bad prime
D4_OUTER_NODES_P2 = ("D4", ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "2")

CONSTANT_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "F4", "G2", "E6"]


def report(num, ok, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}", flush=True)


@pytest.fixture(scope="module")
def systems():
    return {t: (lambda rs: (rs, structure_constants(rs)))(build(t))
            for t in CONSTANT_TYPES}


def test_criterion_1_structure_constants_and_jacobi(systems):
    start = time.monotonic()
    fields = [RationalField(), PrimeField(2), PrimeField(3), PrimeField(5)]
    pairs_checked = 0
    triples_checked = 0
    for t in CONSTANT_TYPES:
        rs, sc = systems[t]
        for i, a in enumerate(rs.roots):
            for j, b in enumerate(rs.roots):
                s = tuple(x + y for x, y in zip(a, b))
                if s in rs.root_index:
                    q, _ = rs.alpha_chain(a, b)
                    assert abs(sc.n(i, j)) == q + 1, (t, a, b)
                    pairs_checked += 1
        rng = random.Random(f"acceptance1:{t}")
        for field in fields:
            for _ in range(1000):
                X, Y, Z = (random_element(rs, field, rng, max_terms=4) for _ in range(3))
                j = jacobiator(sc, X, Y, Z)
                assert j.is_zero(), (t, field)
                triples_checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 120
    report(1, ok, f"|N|=q+1 on {pairs_checked} pairs, Jacobi on {triples_checked} "
                  f"random triples across {len(CONSTANT_TYPES)} types", elapsed)
    assert ok, f"runtime bound exceeded: {elapsed:.1f}s >= 120s"


def test_criterion_2_n_value_bounds(systems):
    for t in CONSTANT_TYPES:
        rs, sc = systems[t]
        m = sc.max_abs_n()
        series = t[0]
        if series in "ADE":
            assert m <= 1, t
        elif series in "BCF":
            assert m <= 2, t
    assert systems["B2"][1].max_abs_n() == 2
    assert systems["F4"][1].max_abs_n() == 2
    assert systems["G2"][1].max_abs_n() == 3
    report(2, True, "max |N| = 1 on A/D/E, <= 2 on B/C/F4, = 3 attained in G2")


def test_criterion_3_regular_optimality():
    overall = time.monotonic()
    worst = 0.0
    for t in ["A2", "A3", "B2", "G2"]:
        start = time.monotonic()
        rs = build(t)
        q = RationalField()
        Y = regular_nilpotent(rs, q)
        cert = optimal_cocharacter(rs, Y)
        half_sum = half_sum_of_positive_coroots(rs)
        assert cert.mu.coords == tuple(half_sum), t
        rep = brute_force_verify(rs, Y, cert, 6)
        assert rep["ok"], (t, rep["violations"][:3])
        per_type = time.monotonic() - start
        worst = max(worst, per_type)
        assert per_type < 60, f"{t}: {per_type:.1f}s >= 60s"
    report(3, True, "regular mu = half sum of positive coroots in A2/A3/B2/G2; "
                    f"no violator in radius-6 boxes (worst type {worst:.1f}s)",
           time.monotonic() - overall)


def test_criterion_4_kernel_proposition_suite():
    start = time.monotonic()
    corpus = json.loads((REPO_ROOT / "corpus" / "standard.json").read_text())
    rank_le_4 = [e for e in corpus["entries"] if build(e["cartan_type"]).rank <= 4]
    corpus = {**corpus, "entries": rank_le_4, "primes": [2, 3, 5, 7]}
    rep = run_corpus(corpus)
    count = rep["count"]
    assert count >= 20, "corpus too small"
    bad_q = [r for r in rep["instances"] if not r["injective_over_Q"]]
    bad_sym = [r for r in rep["instances"] if not r["dims_symmetric"]]
    assert not bad_q, f"Q-injectivity failed on {len(bad_q)} instances"
    assert not bad_sym, f"dimension symmetry failed on {len(bad_sym)} instances"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"runtime bound exceeded: {elapsed:.1f}s"
    # the mod-p clause for types A and D at p <= 7, in two parts.  The
    # graded kernel proposition is expected only at good primes (Premet,
    # J. Algebra 260, 2003): every prime is good for A, every prime but 2
    # for D.  (1) Good-prime gate: every A/D instance is injective at each
    # good p.  (2) Exact census at the bad prime: the D instances that are
    # not injective at p = 2 are exactly the documented D4 outer-nodes
    # instance (det = -4, parity kernel), flagged by the corpus report.
    # See README "Acceptance status" and
    # tests/test_badprimes.py::test_d4_characteristic_two_kernel_phenomenon.
    bad_good_p = []
    census = []
    for r in rep["instances"]:
        series = r["cartan_type"][0]
        if series not in BAD_PRIMES:
            continue
        for p, v in sorted(r["mod_p"].items()):
            if v["injective"] is not False:
                continue
            inst = (r["cartan_type"], tuple(map(tuple, r["support"])), p)
            if int(p) in BAD_PRIMES[series]:
                census.append((inst, v.get("counterexample_to_expected", False)))
            else:
                bad_good_p.append(inst)
    census_ok = census == [(D4_OUTER_NODES_P2, True)]
    ok = not bad_good_p and census_ok
    report(4, ok,
           f"{count} optimal instances: Q-injectivity and dim symmetry PASS; "
           "A/D injective at every good p <= 7 "
           f"{'PASS' if not bad_good_p else 'FAIL on ' + repr(bad_good_p)}; "
           "D at p = 2 non-injective exactly on the D4 outer-nodes instance "
           f"{'PASS' if census_ok else 'FAIL, got ' + repr(census)}",
           elapsed)
    assert not bad_good_p, (
        f"criterion 4 good-prime gate: {bad_good_p} are not injective at a "
        "prime that is good for the type")
    assert census_ok, (
        "criterion 4 bad-prime census: the D instances that are not injective "
        f"mod 2 must be exactly {[D4_OUTER_NODES_P2]}, each flagged "
        f"counterexample_to_expected; got {census} as (instance, flag). "
        "See README \"Acceptance status\" and "
        "tests/test_badprimes.py::test_d4_characteristic_two_kernel_phenomenon.")


def test_criterion_5_phi_functional_equations():
    start = time.monotonic()
    fields = [RationalField(2), RationalField(3), RationalField(5),
              RationalField(7), FunctionField(2), FunctionField(3), FunctionField(4)]
    for t in ["A2", "B2", "C3"]:
        rs = build(t)
        check_phi_identities(rs, structure_constants(rs), random.Random(f"acceptance5:{t}"),
                             fields, 200)
    report(5, True, "phi(-X) = phi(X) and the conjugation law hold on 600 "
                    "random (X, v) instances across A2/B2/C3",
           time.monotonic() - start)


def test_criterion_6_phi_homogeneity():
    start = time.monotonic()
    systems = [(rs, structure_constants(rs)) for rs in map(build, ["A2", "B2", "C3"])]
    check_phi_homogeneity(random.Random("acceptance6"), systems,
                          [RationalField(2), RationalField(3), FunctionField(2)], 50)
    report(6, True, "half-exponent shift equals v(c) * sum of block sizes on 50 "
                    "random instances", time.monotonic() - start)


def test_criterion_7_counterexample_reproduction():
    start = time.monotonic()
    checked = 0
    for n in range(2, 7):
        rs = build(f"A{n - 1}", "adjoint")
        sc = structure_constants(rs)
        divs = coker_eta(rs)
        assert divs[-1] == n, f"PGL_{n} divisors {divs}"
        for p in (2, 3, 5, 7):
            X = regular_counterexample(rs, sc, p)
            assert (X is not None) == (n % p == 0), (n, p)
            if X is not None:
                fp = PrimeField(p)
                Y = regular_nilpotent(rs, fp)
                assert not bracket(sc, X, Y).cartan, (n, p)
            checked += 1
    report(7, True, f"PGL_n degeneracy found iff p | n across {checked} (n, p) pairs; "
                    "coker divisors end in n", time.monotonic() - start)


def test_criterion_8_lattice_snf():
    start = time.monotonic()
    rng = random.Random("acceptance8")
    done = 0
    systems = [(rs, structure_constants(rs)) for rs in map(build, ["A2", "B2"])]
    cases = [(q, rs, sc) for q in (2, 3, 4) for rs, sc in systems]
    while done < 50:
        q, rs, sc = cases[done % len(cases)]
        lam, k, degs = random_square_grading(rs, rng)
        X = random_polynomial_element(rs, FunctionField(q), rng, degs[k])
        if not X.is_zero() and check_lattice_image(rs, sc, X, lam, k):
            done += 1
    report(8, True, f"divisor-sum = det valuation and m-stabilization on {done} "
                    "instances over GF(q)[t], q in 2/3/4", time.monotonic() - start)


def test_criterion_9_cli_determinism():
    start = time.monotonic()
    corpus_path = str(REPO_ROOT / "corpus" / "standard.json")
    outs = []
    # the second run under -O: no check the output relies on may be an assert
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "chevalley.cli", "corpus", "--corpus", corpus_path],
            capture_output=True)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    digest = hashlib.sha256(outs[0]).hexdigest()
    ok = outs[0] == outs[1] and digest == CORPUS_STDOUT_SHA256
    report(9, ok, f"corpus CLI output byte-identical across runs (plain and -O) and to the pinned "
                  f"SHA-256 ({len(outs[0])} bytes, {digest[:12]})", time.monotonic() - start)
    assert ok
