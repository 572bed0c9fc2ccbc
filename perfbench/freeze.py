"""Regenerate `reference.json`: the frozen outputs every run is checked against.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted: it records, for every
input any seed can produce, a digest of the op's output, plus the
digest of the `chevalley corpus --corpus corpus/standard.json` stdout.
qp_e8 torus verdicts are computed under a long cap; a verdict still
undecided there is stored as null and is then not compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time

from run import MEMORY_CAP_BYTES, REFERENCE, ROOT, SRC, CapExceeded, _on_alarm

FREEZE_CAP_S = 60.0


def main() -> int:
    sys.path.insert(0, SRC)
    from chevalley import optimality
    from chevalley.fields import RationalField
    from workloads import WORKLOADS, corpus, digest

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "chevalley.cli", "corpus", "--corpus",
                           os.path.join("corpus", "standard.json")],
                          cwd=ROOT, env=env, capture_output=True, check=True)
    refs = {"cli_corpus_stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, resource.RLIM_INFINITY))
    signal.signal(signal.SIGALRM, _on_alarm)
    for name, cls in WORKLOADS.items():
        workload = cls()
        systems = workload.setup()
        items = workload.all_items(workload.pool(systems))
        if name == "qp_e8":
            items = [dict(it, coefficients=[1] * len(it["support"])) for it in items]
        if name == "valued_fields":
            items = [dict(it, v=(0,) * len(it["lam"])) for it in items]
        table = {}
        t0 = time.perf_counter()
        for item in items:
            signal.setitimer(signal.ITIMER_REAL, FREEZE_CAP_S)
            try:
                output = workload.run(systems, item)
            except (CapExceeded, MemoryError) as exc:
                if name != "qp_e8":
                    raise
                rs, _ = systems["E8"]
                Y = corpus.element_from_support(rs, RationalField(), item["support"])
                cert = optimality.optimal_cocharacter(rs, Y)
                table[item["key"]] = {"cert": digest(cert.to_json()), "torus": None}
                print(f"{name} {item['key']}: torus check undecided ({type(exc).__name__})")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            errors = workload.check(systems, item, output)
            if errors:
                raise SystemExit(f"{name} {item['key']}: {errors}")
            table[item["key"]] = workload.reference_view(output)
        refs[name] = table
        print(f"{name}: {len(table)} references in {time.perf_counter() - t0:.1f}s")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
