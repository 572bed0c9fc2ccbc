"""Corpus of optimal nilpotent instances and the verification runner.

An instance is (type, isogeny, support, integer coefficients); the
runner attaches the exact optimal cocharacter, builds the graded blocks
once over Q and takes one Smith normal form over Z of each.  Those
elementary divisors give the kernel theorem over Q and over every
requested prime field, and the 2-adic phi exponent; the runner emits a
JSON-able report.  Y mod p counts as Y's instance only when it keeps
Y's support (`keeps_support_mod`, which `chevalley kernel-check` applies
too); otherwise the prime is reported as degenerate.  Support
coordinates and coefficients that are not JSON integers, unknown roots,
primes that are not primes and names that are not strings raise
ValueError.  Mod-p outcomes are asserted for type A only; for every
other type (B/C/D/E/F/G) they are reported as data, never asserted, and
a non-injective A/D/E outcome is flagged `counterexample_to_expected`.
"""

from __future__ import annotations

import random

from .fields import QQ, check_prime
from .gradedmap import AbsValue, block_divisors, graded_ad, kernel_from_divisors
from .lie import element_from_support, structure_constants
from .optimality import (certified_torus_check, minimum_norm_cocharacter,
                         optimal_cocharacter, sl2_completion_check)
from .rootsystem import RootSystem, build

SCHEMA_VERSION = 1

def standard_instances(rs_type: str) -> list[dict]:
    """Instance entries for one type: every positive single-root support,
    every nonempty simple-root subset, and up to five seeded random supports
    that pass the characteristic-0 optimality filter."""
    rs = build(rs_type)
    sc = structure_constants(rs)
    entries = []
    for ri in rs.positive_roots:
        entries.append({"support": [list(rs.roots[ri])], "coefficients": [1],
                        "origin": "single_root"})
    n = rs.rank
    for mask in range(1, 1 << n):
        supp = [list(rs.roots[rs.simple_roots[i]]) for i in range(n) if mask >> i & 1]
        entries.append({"support": supp, "coefficients": [1] * len(supp),
                        "origin": "simple_root_sum"})
    rng = random.Random(f"{rs_type}:20260808")
    drawn = 0
    seen = set()
    attempts = 0
    size_hi = min(6, len(rs.positive_roots))
    while size_hi >= 2 and drawn < 5 and attempts < 400:
        attempts += 1
        size = rng.randint(2, size_hi)
        supp = sorted(rng.sample(rs.positive_roots, size))
        mu, active = minimum_norm_cocharacter(rs, supp)
        active = sorted(active)
        key = tuple(active)
        if key in seen or not active:
            continue
        # homogenize to the active constraints: same mu by KKT
        coeffs = [rng.randint(1, 9) for _ in active]
        Y = element_from_support(rs, QQ, active, coeffs)
        cert = optimal_cocharacter(rs, Y)
        if not sl2_completion_check(rs, sc, Y, cert):
            continue
        seen.add(key)
        drawn += 1
        entries.append({"support": [list(rs.roots[ri]) for ri in active],
                        "coefficients": coeffs, "origin": "random"})
    return entries


def standard_corpus() -> dict:
    entries = []
    for t in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2"]:
        for e in standard_instances(t):
            entries.append({"cartan_type": t, "isogeny": "simply_connected", **e})
    return {"schema": SCHEMA_VERSION, "primes": [2, 3, 5, 7], "entries": entries}


def _integers(values, what: str) -> list[int]:
    """values itself, if it is a list of JSON integers."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return values


def keeps_support_mod(Y, p: int) -> bool:
    """The mod-p reduction rule: Y mod p is Y's instance, with Y's support,
    when p divides no numerator and no denominator of Y's coefficients."""
    return all(c.numerator % p and c.denominator % p for c in Y.coefficients())


def run_instance(rs: RootSystem, sc, entry: dict, primes) -> dict:
    """Verify one corpus entry; every computed fact lands in the report.

    Y has integer coefficients, so one Smith form over Z per block
    (`block_divisors`) gives its rank over Q, its rank mod every p and
    the 2-adic valuation of its determinant."""
    primes = list(map(check_prime, _integers(entry.get("primes", primes), "primes")))
    if "support" not in entry:
        raise ValueError("corpus entry has no 'support'")
    support = entry["support"]
    if not isinstance(support, list):
        raise ValueError(f"support must be a list of roots, got {support!r}")
    for root in support:
        _integers(root, "a support root")
    coefficients = _integers(entry.get("coefficients", [1] * len(support)), "coefficients")
    Y = element_from_support(rs, QQ, support, coefficients)
    cert = optimal_cocharacter(rs, Y)
    report = {
        "cartan_type": rs.type_string(),
        "support": [list(map(int, r)) for r in support],
        "coefficients": list(coefficients),
        "origin": entry.get("origin", "corpus"),
        "lambda": list(cert.lam),
        "k": cert.k,
        "mu": cert.mu.to_json(),
        "torus_check": certified_torus_check(rs, Y, cert),
    }
    gbm = graded_ad(rs, sc, Y, cert.lam, cert.k)
    shapes = gbm.shapes()
    report["dims_symmetric"] = square = gbm.is_square()
    report["block_shapes"] = {str(i): list(shapes[i]) for i in sorted(shapes)}
    divisors = block_divisors(gbm)
    kern = kernel_from_divisors(gbm, divisors)
    report["detail"] = {"k": gbm.k, "blocks": {str(i): kern[i] for i in sorted(kern)}}
    report["blocks_over_Q"] = report["detail"]["blocks"]
    report["injective_over_Q"] = all(v["injective"] for v in kern.values())
    mod_p = {}
    # type A brackets factor through GL_n, where every prime is very good, so
    # only type A asserts mod-p injectivity; D already fails at p = 2
    series = {s for s, _ in rs.cartan_type}
    type_a, ade = series <= {"A"}, series <= {"A", "D", "E"}
    for p in primes:
        if not keeps_support_mod(Y, p):
            mod_p[str(p)] = {"injective": None, "note": "support degenerates mod p"}
            continue
        inj = all(v["injective"] for v in kernel_from_divisors(gbm, divisors, p).values())
        entry_p = {
            "injective": inj,
            "asserted": type_a,
            "expected_simply_laced": ade,
        }
        if ade and not inj:
            entry_p["counterexample_to_expected"] = True
        mod_p[str(p)] = entry_p
    report["mod_p"] = mod_p
    if square:
        ds = [d for block in divisors.values() for d in block if d != 1]
        # the 2-adic valuation of an int d != 0 is the index of its lowest set bit
        e = None if 0 in ds else sum((d & -d).bit_length() - 1 for d in ds)
        report["phi_over_Q_v2"] = AbsValue(2, e).to_json()
    return report


def run_corpus(corpus: dict) -> dict:
    """Run every entry; the report carries a global ok flag covering the
    asserted facts (Q-injectivity, dim symmetry, type-A mod-p injectivity)."""
    if not isinstance(corpus, dict):
        raise ValueError(f"a corpus must be a JSON object, got {type(corpus).__name__}")
    if corpus.get("schema") != SCHEMA_VERSION:
        raise ValueError("unknown corpus schema version")
    if not isinstance(corpus.get("entries"), list) or not all(
            isinstance(entry, dict) for entry in corpus["entries"]):
        raise ValueError("corpus entries must be a list of JSON objects")
    primes = list(map(check_prime, _integers(corpus.get("primes", [2, 3, 5, 7]), "primes")))
    cache: dict[tuple, tuple] = {}
    reports = []
    ok = True
    for entry in corpus["entries"]:
        if "cartan_type" not in entry:
            raise ValueError("corpus entry has no 'cartan_type'")
        key = (entry["cartan_type"], entry.get("isogeny", "simply_connected"))
        if not all(isinstance(name, str) for name in key):
            raise ValueError(f"cartan_type and isogeny must be strings, got {list(key)!r}")
        if key not in cache:
            rs = build(key[0], key[1])
            cache[key] = (rs, structure_constants(rs))
        rs, sc = cache[key]
        rep = run_instance(rs, sc, entry, primes)
        entry_ok = rep["injective_over_Q"] and rep["dims_symmetric"]
        entry_ok = entry_ok and all(
            v["injective"] for v in rep["mod_p"].values()
            if v.get("asserted") and v["injective"] is not None)
        rep["ok"] = entry_ok
        ok = ok and entry_ok
        reports.append(rep)
    return {"schema": SCHEMA_VERSION, "instances": reports, "count": len(reports), "ok": ok}
