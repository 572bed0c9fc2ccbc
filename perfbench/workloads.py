"""The three benchmark workloads.

Each workload builds a fixed pool of inputs (the same at every commit,
since it is generated here and not filtered through the library), and a
seed turns the pool into passes: the seed sets the order and the
per-op choices that do not change which frozen reference applies.  A
run measures whole passes, so every seed times the same multiset of
inputs; that keeps the heavy-tailed qp_e8 pool and its capped
Fourier-Motzkin checks from moving the figures from seed to seed.

The library is reached only through module attributes looked up at call
time (`corpus.run_instance`, ...), so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import chevalley
from chevalley import corpus, gradedmap, lie, optimality
from chevalley.fields import FunctionField, RationalField

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STANDARD_CORPUS = os.path.join(ROOT, "corpus", "standard.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def positive_roots(rs) -> list[tuple[int, ...]]:
    """Positive roots in a canonical order: height, then coordinates."""
    return sorted((rs.roots[i] for i in rs.positive_roots), key=lambda a: (sum(a), a))


def pairing(rs, a, lam) -> int:
    n = rs.rank
    return sum(a[i] * lam[j] * rs.basis_pairing[i][j] for i in range(n) for j in range(n))


class Workload:
    name = ""
    cap_s = 2.0
    types: list[tuple[str, bool]] = []  # (Cartan type, needs structure constants)

    def setup(self) -> dict:
        """Build every root system (and structure constants) the ops use."""
        systems = {}
        for t, needs_sc in self.types:
            rs = chevalley.build(t)
            systems[t] = (rs, lie.structure_constants(rs) if needs_sc else None)
        return systems

    def pool(self, systems) -> list[dict]:
        raise NotImplementedError

    def all_items(self, pool) -> list[dict]:
        """Every input any seed can run, for freezing references."""
        return list(pool)

    def make_pass(self, pool, rng: random.Random) -> list[dict]:
        items = list(pool)
        rng.shuffle(items)
        return items

    def run(self, systems, item):
        raise NotImplementedError

    def reference_view(self, output):
        """The part of an op's output that the frozen reference pins."""
        return digest(output)

    def check(self, systems, item, output) -> list[str]:
        """Independent checks beyond the frozen reference."""
        return []


class CorpusE7(Workload):
    """All 63 single positive roots and all 127 simple-root subsets of E7.

    Each support has four frozen coefficient vectors in 1..9; the seed
    picks one per support per pass, and the order.
    """

    name = "corpus_e7"
    cap_s = 5.0
    types = [("E7", True)]
    primes = [2, 3, 5, 7]
    choices = 4

    def pool(self, systems):
        rs, _ = systems["E7"]
        n = rs.rank
        supports = [([list(a)], "single_root") for a in positive_roots(rs)]
        for mask in range(1, 1 << n):
            supports.append(([[1 if j == i else 0 for j in range(n)]
                              for i in range(n) if mask >> i & 1], "simple_root_sum"))
        rng = random.Random("corpus_e7:coefficients")
        out = []
        for slot, (support, origin) in enumerate(supports):
            variants = []
            for _ in range(self.choices):
                entry = {"support": support, "origin": origin,
                         "coefficients": [rng.randint(1, 9) for _ in support]}
                variants.append({"key": digest(entry), "slot": slot, "entry": entry})
            out.append(variants)
        return out

    def all_items(self, pool):
        return [v for variants in pool for v in variants]

    def make_pass(self, pool, rng):
        items = [rng.choice(variants) for variants in pool]
        rng.shuffle(items)
        return items

    def run(self, systems, item):
        rs, sc = systems["E7"]
        return corpus.run_instance(rs, sc, item["entry"], self.primes)


class QpE8(Workload):
    """Seeded random E8 supports, eight each with 8, 9 and 10 roots.

    An op is the exact QP (`optimal_cocharacter`), then the Kirwan-Ness
    torus check (Fourier-Motzkin) on Y restricted to the active roots.
    The pool is drawn once, unfiltered; Fourier-Motzkin blows up on some
    of it, and those ops fail at the cap.  The seed sets the order and
    the coefficients, which the certificate does not depend on.
    """

    name = "qp_e8"
    cap_s = 2.0
    types = [("E8", False)]
    sizes = (8, 9, 10)
    per_size = 8

    def pool(self, systems):
        rs, _ = systems["E8"]
        roots = positive_roots(rs)
        rng = random.Random("qp_e8:pool")
        out = []
        for m in self.sizes:
            for _ in range(self.per_size):
                support = [list(a) for a in sorted(rng.sample(roots, m))]
                out.append({"key": digest(support), "support": support})
        return out

    def make_pass(self, pool, rng):
        items = super().make_pass(pool, rng)
        return [dict(it, coefficients=[rng.randint(1, 9) for _ in it["support"]])
                for it in items]

    def run(self, systems, item):
        rs, _ = systems["E8"]
        q = RationalField()
        Y = corpus.element_from_support(rs, q, item["support"], item.get("coefficients"))
        cert = optimality.optimal_cocharacter(rs, Y)
        coeff = dict(zip(map(tuple, item["support"]), item.get("coefficients")
                         or [1] * len(item["support"])))
        active = [list(rs.roots[ri]) for ri in cert.active_constraints]
        Yh = corpus.element_from_support(rs, q, active, [coeff[tuple(a)] for a in active])
        torus = optimality.kirwan_ness_torus_check(rs, Yh, cert.lam)
        return {"cert": cert, "torus": torus}

    def reference_view(self, output):
        return {"cert": digest(output["cert"].to_json()), "torus": output["torus"]}

    def check(self, systems, item, output):
        rs, _ = systems["E8"]
        return checks.kkt_errors(rs, item["support"], output["cert"])


class ValuedFields(Workload):
    """Square-graded (X, lam, k) in C3/F4/E6 over Q_2, Q_3, GF(2)(t), GF(4)(t).

    An op evaluates phi(X), checks phi(-X) = phi(X) and the torus
    conjugation law for a seeded valuation vector v, and over GF(q)(t)
    takes the t-adic elementary divisors of every block.
    """

    name = "valued_fields"
    cap_s = 2.0
    types = [("C3", True), ("F4", True), ("E6", True)]
    fields = (("Q", 2), ("Q", 3), ("Ft", 2), ("Ft", 4))
    per_cell = 10
    trunc_m = 64

    def _field(self, spec):
        kind, q = spec
        return RationalField(q) if kind == "Q" else FunctionField(q)

    def pool(self, systems):
        rng = random.Random("valued_fields:pool")
        out = []
        for t, _ in self.types:
            rs, _ = systems[t]
            roots = sorted((tuple(a) for a in rs.roots), key=lambda a: (sum(a), a))
            for spec in self.fields:
                field = self._field(spec)
                made = 0
                while made < self.per_cell:
                    lam, k, degs = self._square_grading(rs, roots, rng)
                    terms = []
                    for a in degs[k]:
                        if rng.random() < 0.85:
                            terms.append([list(a), rng.randint(1, 8), rng.randint(0, 2)])
                    X = self._element(rs, field, terms)
                    if X.is_zero():
                        continue
                    made += 1
                    desc = {"type": t, "field": list(spec), "lam": list(lam), "k": k,
                            "terms": terms}
                    out.append({"key": digest(desc), "type": t, "field": field,
                                "lam": lam, "k": k, "X": X, "terms": terms})
        return out

    @staticmethod
    def _square_grading(rs, roots, rng):
        while True:
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            degs: dict[int, list] = {}
            for a in roots:
                degs.setdefault(pairing(rs, a, lam), []).append(a)
            ks = sorted(k for k in degs if k > 1 and all(
                len(degs.get(-i, [])) == len(degs.get(k - i, [])) for i in range(1, k)))
            if ks:
                return lam, rng.choice(ks), degs

    @staticmethod
    def _element(rs, field, terms):
        X = lie.LieElement(field)
        pi = field.uniformizer()
        for a, c, j in terms:
            coeff = field.element(c)
            for _ in range(j):
                coeff = coeff * pi
            X = X + lie.root_vector(rs, field, tuple(a), coeff)
        return X

    def make_pass(self, pool, rng):
        items = super().make_pass(pool, rng)
        out = []
        for it in items:
            rank = len(it["lam"])
            out.append(dict(it, v=tuple(rng.randint(-3, 3) for _ in range(rank))))
        return out

    def run(self, systems, item):
        rs, sc = systems[item["type"]]
        field, X, lam, k = item["field"], item["X"], item["lam"], item["k"]
        out = {
            "phi": gradedmap.phi_of(rs, sc, X, lam, k, field).to_json(),
            "inverse": gradedmap.verify_phi_inverse(rs, sc, X, lam, k, field),
            "rrao": gradedmap.verify_rrao(rs, sc, X, lam, k, item["v"], field),
        }
        if isinstance(field, FunctionField):
            out["lattice"] = [
                ["inf" if v is None else v
                 for v in gradedmap.lattice_image(rs, sc, X, lam, k, i, self.trunc_m)]
                for i in range(1, k)]
        return out

    def check(self, systems, item, output):
        """phi's half-exponent is the sum of block det valuations, and over
        GF(q)(t) each block's divisor valuations sum to its det valuation."""
        rs, sc = systems[item["type"]]
        field = item["field"]
        errors = []
        if not (output["inverse"] and output["rrao"]):
            errors.append("phi(-X) = phi(X) or the conjugation law failed")
        gbm = gradedmap.graded_ad(rs, sc, item["X"], item["lam"], item["k"])
        vals = {}
        for i in range(1, item["k"]):
            mat = gbm.blocks[i]
            if isinstance(field, FunctionField):
                F = checks.GF(field.residue_cardinality)
                vals[i] = checks.poly_det_valuation(
                    F, [[checks.ratfunc_to_poly(F, x) for x in row] for row in mat])
            else:
                d = checks.q_det(mat)
                vals[i] = checks.p_adic_valuation(d, field.p) if d else None
        finite = [v for v in vals.values() if v is not None]
        expected = "inf" if len(finite) < len(vals) else sum(finite)
        if output["phi"]["half_exponent"] != expected:
            errors.append(f"phi half-exponent {output['phi']['half_exponent']} "
                          f"!= sum of det valuations {expected}")
        for i, divs in enumerate(output.get("lattice", []), start=1):
            if vals[i] is None:
                if "inf" not in divs:
                    errors.append(f"block {i}: singular but no infinite divisor")
            elif "inf" in divs or sum(divs) != vals[i]:
                errors.append(f"block {i}: divisor valuations {divs} do not sum "
                              f"to the det valuation {vals[i]}")
        return errors


WORKLOADS = {w.name: w for w in (CorpusE7, QpE8, ValuedFields)}

