"""Benchmark of the chevalley library and CLI, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from its
`src/` and the CLI runs as `python -m chevalley.cli` on the same tree.
The loop is closed, single-threaded, with one caller: each op starts
when the previous one returns.  Whole passes over the workload's pool
run until the ops have taken `--seconds`; each output is checked as it
arrives, outside the op's timing, against the frozen references
(`reference.json`) and the independent checks.  Set-up and CLI samples
are spread over the run, so that slow drifts of the host's speed reach
every metric alike.

Timings are reported at a fixed host speed.  A shared host's speed
swings by more than half within seconds, and a run's own mean swings
with it.  So a fixed reference computation (`reference_loop`, stdlib
`Fraction` arithmetic, no library code) is timed all through the run,
and every timing is scaled by REF_NOMINAL_S / (the reference's time
around it).  Per-op caps are nominal-host time too.  Both commits of a
comparison run the same reference, so the scale cancels the host and
not the code.  The raw timings go to the run record beside the scaled
ones.

--trace 0 prints the end-to-end metrics.  --trace 1 takes the seed's
first pass and runs it untraced, then traced, in turn until the ops have
taken `--seconds`; the per-layer metrics come from the first traced
pass, so its counts are fixed by the seed, and the tracing overhead
from all of them.  A human-readable report goes to stdout first, and
the last line is one JSON object.  The exit code is nonzero if any
output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 7
CLI_REPEATS = 5
CLI_TIMEOUT_S = 120
MEMORY_CAP_BYTES = 2 << 30  # RLIMIT_AS of this process only; the CLI runs without it
TAIL_BEYOND = 10
WARM_UP_S = 1.0
REF_NOMINAL_S = 0.001  # reported timings are those of a host where reference_loop takes this
REF_EVERY_S = 0.1  # of op time, between two reference samples
REF_AROUND = 5  # reference samples before and after each set-up or CLI sample

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "cli_corpus_s": "s",
}
# Per-layer metrics of the JSON line: counts over the ops of one traced
# pass (the set-up's are kept apart), and the times that every workload
# exercises.  Self times of layers that some workload never calls would
# read 0 on every run there; they go to the printed table and the run
# record instead.
PER_LAYER_COUNTS = [
    "rootsystem.nu.calls", "rootsystem.pair.calls", "lie.bracket.calls",
    "gradedmap.graded_ad.calls", "gradedmap.check_kernel.calls", "gradedmap.block_entries",
    "corpus.element_from_support.calls", "optimality.minimum_norm_cocharacter.calls",
    "optimality.solve.calls", "optimality.kirwan_ness_torus_check.failed",
]
PER_LAYER_UNITS = {
    **{name: "count" for name in PER_LAYER_COUNTS},
    "rootsystem.build.self_s": "s", "cli.overhead_s": "s",
    "trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}
# Spans of the traced report, each with the end-to-end metric it should move.
LAYER_TABLE = [
    ("rootsystem.build", "setup_s"),
    ("lie.structure_constants", "setup_s, cli_corpus_s"),
    ("lie.bracket", "ops_per_s (corpus_e7)"),
    ("gradedmap.graded_ad", "ops_per_s (corpus_e7)"),
    ("gradedmap.check_kernel", "ops_per_s, op_tail_ms (corpus_e7)"),
    ("linalg.rank.Q", "ops_per_s, op_tail_ms (corpus_e7)"),
    ("linalg.rank.GFp", "ops_per_s, op_tail_ms (corpus_e7)"),
    ("gradedmap.block_report", "op_p50_ms (corpus_e7), cli_corpus_s"),
    ("gradedmap.phi", "op_p50_ms (corpus_e7), cli_corpus_s"),
    ("corpus.run_instance", "op_p50_ms (corpus_e7), cli_corpus_s"),
    ("corpus.element_from_support", "op_p50_ms (corpus_e7), cli_corpus_s"),
    ("optimality.optimal_cocharacter", "ops_per_s, op_p50_ms (qp_e8)"),
    ("optimality.minimum_norm_cocharacter", "ops_per_s, op_p50_ms (qp_e8)"),
    ("optimality.solve", "ops_per_s, op_p50_ms (qp_e8)"),
    ("grading.m_of", "ops_per_s, op_p50_ms (qp_e8)"),
    ("optimality.kirwan_ness_torus_check", "failed ops, op_tail_ms, peak_rss_mb (qp_e8)"),
    ("optimality.sl2_completion_check", "no workload calls it"),
    ("linalg.det.Qp", "ops_per_s (valued_fields)"),
    ("linalg.det.GFqt", "ops_per_s (valued_fields)"),
    ("snf.dvr_divisor_valuations", "ops_per_s (valued_fields)"),
    ("gradedmap.lattice_image", "ops_per_s (valued_fields)"),
    ("grading.delta_exponent", "ops_per_s (valued_fields)"),
]


class CapExceeded(Exception):
    """Raised by SIGALRM when an op runs past its time cap."""


def _on_alarm(signum, frame):
    raise CapExceeded()


def tree_problem() -> str | None:
    for path in (os.path.join(SRC, "chevalley", "__init__.py"),
                 os.path.join(ROOT, "corpus", "standard.json"), REFERENCE):
        if not os.path.isfile(path):
            return f"missing {os.path.relpath(path, ROOT)}"
    return None


def environment() -> dict:
    """Commit (and a digest of src/, which also works outside git),
    Python version, nproc and load average."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, SRC).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def reference_loop() -> float:
    """Seconds for a fixed computation in the interpreter's own objects:
    the yardstick of the host's speed at this moment."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 400):
        x += Fraction(i % 7, i)
    return time.perf_counter() - t0


def host_scale() -> float:
    """REF_NOMINAL_S over the reference's mean time right now."""
    return REF_NOMINAL_S / statistics.fmean(reference_loop() for _ in range(REF_AROUND))


class Phase:
    """One timed phase: latencies, failures, and each output checked as it
    arrives (frozen reference, then the independent checks, once per input)."""

    def __init__(self, workload, systems, refs, check_cache):
        self.workload, self.systems = workload, systems
        self.refs, self.check_cache = refs, check_cache
        self.latencies: list[float] = []
        self.inputs: list = []  # the pool input of each op, for per-input figures
        self.capped: list[bool] = []
        self.busy = 0.0
        self.completed = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: set[str] = set()
        self.views: dict = {}
        self.ref_loop_s: list[float] = []  # reference_loop times, one per REF_EVERY_S of ops
        self.ref_before: list[int] = []  # per op: how many reference samples precede it
        self._ref_loop_due = 0.0

    def record(self, item, output, error, latency):
        self.latencies.append(latency)
        self.inputs.append(item.get("slot", item["key"]))
        self.capped.append(error == "cap")
        self.ref_before.append(len(self.ref_loop_s))
        self.busy += latency
        if self.busy >= self._ref_loop_due:
            self.ref_loop_s.append(reference_loop())
            self._ref_loop_due = self.busy + REF_EVERY_S
        key = item["key"]
        if error is not None:
            self.failed += 1
            self.failures.add(f"{key}:{error.split('(')[0]}")
            if error.startswith("raised"):
                self.problems.append(f"{key}: {error}")
            return
        errors = self._check(key, item, output)
        if errors:
            self.failed += 1
            self.problems += [f"{key}: {e}" for e in errors]
        else:
            self.completed += 1

    def _check(self, key, item, output) -> list[str]:
        view = self.workload.reference_view(output)
        errors = []
        if key in self.views and self.views[key] != view:
            errors.append("output differs from an earlier output on the same input")
        self.views[key] = view
        ref = self.refs.get(key)
        if ref is None:
            errors.append("no frozen reference for this input")
        elif isinstance(ref, dict):
            if view["cert"] != ref["cert"]:
                errors.append("certificate differs from the frozen reference")
            if ref["torus"] is not None and view["torus"] != ref["torus"]:
                errors.append("torus verdict differs from the frozen reference")
        elif view != ref:
            errors.append("output differs from the frozen reference")
        if key not in self.check_cache:
            self.check_cache[key] = self.workload.check(self.systems, item, output)
        return errors + self.check_cache[key]

    def wall_cap_s(self) -> float:
        """The workload's cap, which is nominal-host time, in wall time at
        the host's recent speed: an op gets the same work before it is
        cut off however fast the host runs."""
        if not self.ref_loop_s:
            self.ref_loop_s.append(reference_loop())
        return self.workload.cap_s * statistics.fmean(self.ref_loop_s[-REF_AROUND:]) / REF_NOMINAL_S

    def stats(self) -> dict:
        """Latency figures scaled to the nominal host, and raw.  Each op is
        scaled by the reference samples just before and just after it; an
        op cut off by its cap counts at the cap.  op_p50_ms and op_tail_ms
        are taken over the pool's inputs, each at its lower median latency
        over the run's passes, so the tail sits at the same input rank
        whatever the number of passes, and one slow pass of two does not
        lift an input."""
        refs = self.ref_loop_s
        scaled = [self.workload.cap_s if capped
                  else x * REF_NOMINAL_S / statistics.fmean(refs[max(0, m - 1):m + 1])
                  for x, capped, m in zip(self.latencies, self.capped, self.ref_before)]
        figures = {}
        for name, lat in (("raw", self.latencies), ("scaled", scaled)):
            by_input: dict = {}
            for key, x in zip(self.inputs, lat):
                by_input.setdefault(key, []).append(x)
            per_input = sorted(statistics.median_low(v) for v in by_input.values())
            j = max(0, len(per_input) - 1 - TAIL_BEYOND)
            figures[name] = {"ops_per_s": self.completed / sum(lat),
                             "op_p50_ms": statistics.median(per_input) * 1000,
                             "op_tail_ms": per_input[j] * 1000}
        return {
            "n": len(self.latencies),
            "inputs": len(per_input),
            "completed": self.completed,
            "failed": self.failed,
            "busy_s": self.busy,
            "scale": REF_NOMINAL_S / statistics.fmean(refs),
            "raw": figures["raw"],
            **figures["scaled"],
            "tail_percentile": 100.0 * (j + 1) / len(per_input),
            "tail_beyond": len(per_input) - 1 - j,
        }


def run_op(workload, systems, item, cap_s, tracer=None):
    """One op under a time cap of `cap_s` wall seconds: (output, error or None)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            if tracer is None:
                return workload.run(systems, item), None
            return tracer.span("op", workload.run, systems, item), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapExceeded:
        return None, "cap"
    except MemoryError:
        return None, "memory"
    except Exception as exc:  # an op that raises is a failed, wrong op
        return None, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.reset_stack()


def run_pass(workload, systems, items, phase, tracer=None):
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        output, error = run_op(workload, systems, item, phase.wall_cap_s(), tracer)
        phase.record(item, output, error, time.perf_counter() - t0)
    if tracer is not None:
        tracer.op_id = -1


def warm_up(workload, systems, pool):
    """Untimed ops before any sample: the host needs a moment after a
    process starts before it runs at its usual speed."""
    host_scale()
    end = time.perf_counter() + WARM_UP_S
    for item in workload.make_pass(pool, random.Random(f"{workload.name}:warm-up")):
        if time.perf_counter() >= end:
            return
        run_op(workload, systems, item, workload.cap_s)


def timed_phase(workload, systems, pool, seed, seconds, phase, progress=None):
    """Whole passes until the ops have taken `seconds`; `progress` is
    called between passes with the fraction of `seconds` done."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        run_pass(workload, systems, workload.make_pass(pool, rng), phase)
        if progress is not None:
            progress(phase.busy / seconds)
        if phase.busy >= seconds:
            return phase


def traced_phases(workload, systems, items, seconds, plain, traced, progress):
    """`items` untraced, then traced, in turn until the ops have taken
    `seconds`.  Returns the first traced pass's tracer, which also traced
    one set-up; later traced passes only add to the overhead figures."""
    first = None
    while True:
        run_pass(workload, systems, items, plain)
        tracer = Tracer()
        tracer.install()
        try:
            if first is None:
                workload.setup()
            run_pass(workload, systems, items, traced, tracer)
        finally:
            tracer.uninstall()
        first = first or tracer
        progress((plain.busy + traced.busy) / seconds)
        if plain.busy + traced.busy >= seconds:
            return first


class Samples:
    """Set-up and CLI samples, taken at evenly spaced points of the run,
    each scaled by the reference timed just before and just after it.
    The traced run skips the set-up samples and times `run_corpus` in
    process beside each CLI sample, for cli.overhead_s."""

    def __init__(self, workload, cli_stdout_sha, trace):
        self.workload = workload
        self.cli_stdout_sha = cli_stdout_sha
        self.trace = trace
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.setup_scaled: list[float] = []
        self.cli_scaled: list[float] = []
        self.corpus_in_process: list[float] = []
        self.corpus_in_process_scaled: list[float] = []
        self.problems: list[str] = []

    def take(self, fraction):
        while not self.trace and len(self.setup) < SETUP_REPEATS and \
                fraction >= len(self.setup) / (SETUP_REPEATS - 1):
            self._timed(self.workload.setup, self.setup, self.setup_scaled)
        while len(self.cli) < CLI_REPEATS and fraction >= len(self.cli) / (CLI_REPEATS - 1):
            self._timed(self._cli, self.cli, self.cli_scaled)
            if self.trace:
                self._timed(self._in_process_corpus, self.corpus_in_process,
                            self.corpus_in_process_scaled)

    @staticmethod
    def _timed(fn, raw, scaled):
        before = host_scale()
        t0 = time.perf_counter()
        fn()
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * (before + host_scale()) / 2)

    def _cli(self):
        """`chevalley corpus --corpus corpus/standard.json`, timed and checked."""
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "chevalley.cli", "corpus", "--corpus",
               os.path.join("corpus", "standard.json")]
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (hard, hard)))
        if proc.returncode != 0:
            self.problems.append(f"cli exit code {proc.returncode}")
        elif hashlib.sha256(proc.stdout).hexdigest() != self.cli_stdout_sha:
            self.problems.append("cli stdout differs from the frozen reference")

    def _in_process_corpus(self):
        """`run_corpus` on the same corpus in this process, for cli.overhead_s."""
        from chevalley import corpus
        from workloads import STANDARD_CORPUS

        with open(STANDARD_CORPUS, encoding="utf-8") as fh:
            corpus.run_corpus(json.load(fh))


def run(args) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    with open(REFERENCE, encoding="utf-8") as fh:
        refs = json.load(fh)
    workload = WORKLOADS[args.workload]()
    env = environment()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    systems = workload.setup()
    pool = workload.pool(systems)
    warm_up(workload, systems, pool)
    samples = Samples(workload, refs["cli_corpus_stdout_sha256"], bool(args.trace))
    samples.take(0.0)
    check_cache: dict = {}
    wl_refs = refs[workload.name]
    plain = Phase(workload, systems, wl_refs, check_cache)
    phases = [plain]
    if not args.trace:
        timed_phase(workload, systems, pool, args.seed, args.seconds, plain,
                    progress=samples.take)
        samples.take(1.0)
        stats = plain.stats()
        metrics = {
            "setup_s": statistics.median(samples.setup_scaled),
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_corpus_s": statistics.median(samples.cli_scaled),
        }
        units = END_TO_END_UNITS
        record_extra = {}
    else:
        items = workload.make_pass(pool, random.Random(f"{workload.name}:{args.seed}"))
        traced = Phase(workload, systems, wl_refs, check_cache)
        phases.append(traced)
        tracer = traced_phases(workload, systems, items, args.seconds, plain, traced,
                               samples.take)
        samples.take(1.0)
        for key, view in traced.views.items():
            if key in plain.views and plain.views[key] != view:
                traced.problems.append(f"{key}: traced output differs from untraced")
        summary = tracer.summary()
        overhead = statistics.median(
            c - i for c, i in zip(samples.cli_scaled, samples.corpus_in_process_scaled))
        metrics = per_layer_metrics(summary, overhead)
        plain_rate, traced_rate = plain.stats()["ops_per_s"], traced.stats()["ops_per_s"]
        metrics["trace.ops_per_s_untraced"] = plain_rate
        metrics["trace.ops_per_s_traced"] = traced_rate
        metrics["trace.overhead_pct"] = 100 * (plain_rate / traced_rate - 1)
        units = PER_LAYER_UNITS
        record_extra = {"traced_latency": traced.stats(), "layers": summary,
                        "traced_pass_ops": len(items),
                        "in_process_corpus_s_samples": samples.corpus_in_process,
                        "in_process_corpus_s_scaled": samples.corpus_in_process_scaled}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.tsv.gz"))
        print_layer_table(summary, len(items))

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "cap_s": workload.cap_s,
              "setup_s_samples": samples.setup, "cli_corpus_s_samples": samples.cli,
              "setup_s_scaled": samples.setup_scaled, "cli_corpus_s_scaled": samples.cli_scaled,
              "latency": plain.stats(), **record_extra}
    problems = samples.problems + [p for ph in phases for p in ph.problems]
    result = {
        "correct": not problems,
        "attempted": sum(len(ph.latencies) for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result=result, problems=problems[:50],
                  failures=sorted(set().union(*(ph.failures for ph in phases))))
    return result, record


def per_layer_metrics(summary, cli_overhead) -> dict:
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for name in PER_LAYER_COUNTS:
        base, _, field = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif base in counts:
            out[name] = counts[base]
        else:
            out[name] = spans.get(base, {}).get(field, 0)
    out["rootsystem.build.self_s"] = summary["setup_spans"]["rootsystem.build"]["self_s"]
    out["cli.overhead_s"] = cli_overhead
    return out


def print_layer_table(summary, ops):
    spans, counts = summary["spans"], summary["counts"]
    empty = {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0}
    print(f"# first traced pass: {ops} ops")
    print(f"{'span':42s} {'calls':>9s} {'calls/op':>9s} {'failed':>6s} {'self_s':>10s}"
          f" {'total_s':>10s}  moves")
    rows = LAYER_TABLE + [(name, "") for name in sorted(set(spans) - {n for n, _ in LAYER_TABLE})]
    for name, moves in rows:
        rec = spans.get(name, empty)
        print(f"{name:42s} {rec['calls']:9d} {rec['calls'] / ops:9.2f} {rec['failed']:6d}"
              f" {rec['self_s']:10.4f} {rec['total_s']:10.4f}  {moves}")
    for name in sorted(counts):
        print(f"{name:42s} {counts[name]:9d} {counts[name] / ops:9.2f}")
    print("# set-up, traced once (not in the counts above)")
    for name, rec in sorted(summary["setup_spans"].items()):
        print(f"{name:42s} {rec['calls']:9d} {'':9s} {rec['failed']:6d}"
              f" {rec['self_s']:10.4f} {rec['total_s']:10.4f}")
    for name, n in sorted(summary["setup_counts"].items()):
        print(f"{name:42s} {n:9d}")


def print_report(record, result):
    env = record["env"]
    lat = record["latency"]
    print(f"# perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} commit={env['commit']} "
          f"src_sha256={env['src_sha256']} python={env['python']} nproc={env['nproc']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.4f} ratio, "
          f"distinct failing inputs={len(record['failures'])}, cap={record['cap_s']} s")
    print(f"# {lat['n']} ops on {lat['inputs']} inputs; op_p50_ms and op_tail_ms are over the"
          f" inputs, each at its median latency; op_tail_ms is p{lat['tail_percentile']:.2f}"
          f" ({lat['tail_beyond']} inputs beyond it)")
    print(f"# timings scaled op by op to the nominal host, by {lat['scale']:.4f} on average; raw: "
          + ", ".join(f"{k}={v:.6f}" for k, v in lat["raw"].items()))
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    for p in record["problems"]:
        print(f"! {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus_e7", "qp_e8", "valued_fields"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    problem = tree_problem()
    if problem:
        print(f"error: not a chevalley source tree ({problem})", file=sys.stderr)
        return 2
    result, record = run(args)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_report(record, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
