"""Self-tests of the benchmark: deterministic inputs, caps, and output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, QpE8  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(run.REFERENCE, encoding="utf-8") as fh:
    REFS = json.load(fh)


@pytest.fixture(scope="module", autouse=True)
def alarm_handler():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def built():
    out = {}
    for name, cls in WORKLOADS.items():
        w = cls()
        systems = w.setup()
        out[name] = (w, systems, w.pool(systems))
    return out


def _choices(item):
    return (item["key"], item.get("coefficients"), item.get("v"))


def _passes(w, pool, seed, count=2):
    rng = random.Random(f"{w.name}:{seed}")
    return [[_choices(it) for it in w.make_pass(pool, rng)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(built, name):
    w, systems, pool = built[name]
    again = w.pool(w.setup())
    assert [it["key"] for it in w.all_items(again)] == \
        [it["key"] for it in w.all_items(pool)]
    assert _passes(w, pool, 7) == _passes(w, pool, 7)
    assert _passes(w, pool, 7) != _passes(w, pool, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_input_has_a_frozen_reference(built, name):
    w, _, pool = built[name]
    assert {it["key"] for it in w.all_items(pool)} <= set(REFS[name])


def test_cap_exceeded_op_counts_as_failed(built):
    w, systems, pool = built["qp_e8"]

    class Tiny(QpE8):
        cap_s = 0.001

        def make_pass(self, pool, rng):
            return pool[-2:]

    tiny = Tiny()
    phase = run.timed_phase(tiny, systems, pool, 0, 0,
                            run.Phase(tiny, systems, REFS["qp_e8"], {}))
    assert phase.failed == 2 and phase.completed == 0
    assert phase.problems == []
    assert {f.split(":")[1] for f in phase.failures} == {"cap"}


def test_wrong_output_is_a_failed_op(built):
    w, systems, pool = built["valued_fields"]
    refs = dict(REFS["valued_fields"])
    refs[pool[0]["key"]] = "0" * 16
    phase = run.timed_phase(w, systems, pool[:3], 0, 0, run.Phase(w, systems, refs, {}))
    assert phase.failed == 1 and phase.completed == 2
    assert len(phase.problems) == 1


def test_latency_figures_are_per_input_scaled_and_capped_ops_count_at_the_cap(built):
    w, systems, _ = built["qp_e8"]
    phase = run.Phase(w, systems, {}, {})
    phase.latencies = [0.1, 0.3, 0.2, 2.05]
    phase.inputs = ["a", "a", "a", "b"]
    phase.capped = [False, False, False, True]
    phase.completed = 3
    phase.ref_loop_s = [0.0015, 0.0025]  # the host at half the nominal speed
    phase.ref_before = [1, 1, 1, 1]
    stats = phase.stats()
    assert stats["scale"] == pytest.approx(0.5)
    assert stats["raw"]["ops_per_s"] == pytest.approx(3 / 2.65)
    assert stats["ops_per_s"] == pytest.approx(3 / (0.3 + w.cap_s))
    assert stats["raw"]["op_p50_ms"] == pytest.approx((200 + 2050) / 2)
    assert stats["op_p50_ms"] == pytest.approx((100 + 1000 * w.cap_s) / 2)
    phase.latencies[1] = 0.15  # "a" now has two samples below 0.2: its lower median is 0.15
    phase.latencies[2] = 0.1
    assert phase.stats()["raw"]["op_p50_ms"] == pytest.approx((100 + 2050) / 2)
    assert stats["inputs"] == 2 and stats["tail_beyond"] == 1


def test_kkt_check_rejects_a_scaled_certificate(built):
    w, systems, pool = built["qp_e8"]
    rs, _ = systems["E8"]
    item = dict(pool[0], coefficients=[1] * len(pool[0]["support"]))
    cert = w.run(systems, item)["cert"]
    assert checks.kkt_errors(rs, item["support"], cert) == []
    doubled = dataclasses.replace(cert, lam=tuple(2 * x for x in cert.lam), k=2 * cert.k)
    assert checks.kkt_errors(rs, item["support"], doubled) == \
        ["lambda is not a primitive integral vector with k > 0"]
    from chevalley.grading import CocharRational
    cert.mu = CocharRational.of(rs, [2 * c for c in cert.mu.coords])
    assert checks.kkt_errors(rs, item["support"], cert)


def test_polynomial_determinant_valuation():
    F = checks.GF(4)
    assert F.mul(2, 2) == 3  # x * x = x + 1
    t = [0, 1]
    assert checks.poly_det_valuation(F, [[t, [1]], [[], [0, 0, 1]]]) == 3
    assert checks.poly_det_valuation(F, [[t, t], [t, t]]) is None
    assert checks.p_adic_valuation(checks.q_det([[2, 1], [0, Fraction(3, 4)]]), 2) == -1


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
                           "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name == "qp_e8":
        undecided = sum(1 for v in REFS["qp_e8"].values() if v["torus"] is None)
        assert result["failed"] >= undecided > 0
    else:
        assert result["failed"] == 0


def test_traced_smoke_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "valued_fields",
                           "--seed", "5", "--seconds", "0.2", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_bare_directory_exits_nonzero_without_a_result():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, f)):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qp_e8",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
