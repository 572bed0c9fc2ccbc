"""Spans recorded around the library's layer boundaries, from outside.

`Tracer.install()` replaces each traced function in every chevalley
module that binds it (modules that did `from .x import f` hold their own
reference), and `uninstall()` puts the originals back.  Spans are kept
in memory as (name, start, end, parent, op id, ok) and written out at
the end; self time is a span's duration minus its children's.  Spans
and counts made outside an op (op id -1, the set-up) are kept apart
from the ops'.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, field-kind argument index or None)
TRACED = [
    ("rootsystem", "build", None),
    ("lie", "structure_constants", None),
    ("lie", "bracket", None),
    ("grading", "m_of", None),
    ("grading", "delta_exponent", None),
    ("optimality", "minimum_norm_cocharacter", None),
    ("optimality", "optimal_cocharacter", None),
    ("optimality", "kirwan_ness_torus_check", None),
    ("optimality", "sl2_completion_check", None),
    ("linalg", "rank", 0),
    ("linalg", "det", 0),
    ("gradedmap", "graded_ad", None),
    ("gradedmap", "check_kernel", None),
    ("gradedmap", "block_report", None),
    ("gradedmap", "phi", None),
    ("gradedmap", "phi_of", None),
    ("gradedmap", "verify_phi_inverse", None),
    ("gradedmap", "verify_rrao", None),
    ("gradedmap", "lattice_image", None),
    ("snf", "dvr_divisor_valuations", None),
    ("corpus", "element_from_support", None),
    ("corpus", "run_instance", None),
    ("corpus", "run_corpus", None),
]

# Counted, not spanned: these run millions of times per pass.
COUNTED_METHODS = [("rootsystem", "RootSystem", "nu"), ("rootsystem", "RootSystem", "pair")]


def field_kind(field) -> str:
    """Q, Qp (Q with a p-adic valuation), GFp, GFq or GFqt."""
    from chevalley.fields import FiniteField, FunctionField, RationalField

    if isinstance(field, FunctionField):
        return "GFqt"
    if isinstance(field, FiniteField):
        return "GFp" if field.degree == 1 else "GFq"
    if isinstance(field, RationalField) and field.p is not None:
        return "Qp"
    return "Q"  # RationalField() and the modules' private Q stand-ins


def _chevalley_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chevalley" or name.startswith("chevalley."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.setup_counts: Counter = Counter()
        self._patches: list = []

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op_id, ok)

    def reset_stack(self):
        """After an op is cut off by a cap, drop any spans left open."""
        del self.stack[1:]

    def _wrap(self, name, fn, kind_arg):
        tracer = self

        if kind_arg is None:
            def traced(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.span(f"{name}.{field_kind(args[kind_arg])}", fn, *args, **kwargs)
        return traced

    def count(self, name, n=1):
        (self.counts if self.op_id >= 0 else self.setup_counts)[name] += n

    def _counted(self, name, fn):
        count = self.count

        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installing -----------------------------------------------------

    def install(self):
        import chevalley  # noqa: F401  (loads every submodule)
        from chevalley import gradedmap, optimality

        mods = _chevalley_modules()
        by_name = {m.__name__: m for m in mods}
        for modname, attr, kind_arg in TRACED:
            orig = getattr(by_name[f"chevalley.{modname}"], attr)
            wrapped = self._wrap(f"{modname}.{attr}", orig, kind_arg)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, wrapped)
        # optimality binds linalg.solve by name; its calls are the QP's
        # Lagrange systems, counted apart from every other solve
        self._patch(optimality, "solve",
                    self._wrap("optimality.solve", optimality.solve, None))
        for modname, cls, meth in COUNTED_METHODS:
            owner = getattr(by_name[f"chevalley.{modname}"], cls)
            self._patch(owner, meth, self._counted(f"{modname}.{meth}", getattr(owner, meth)))
        # Sigma rows x cols of the blocks handed to check_kernel
        check = gradedmap.check_kernel

        def counting_check_kernel(field, gbm):
            self.count("gradedmap.block_entries", sum(
                len(gbm.codomain_basis[i]) * len(gbm.domain_basis[i]) for i in gbm.blocks))
            return check(field, gbm)
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is check:
                    self._patch(m, name, counting_check_kernel)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summarizing ----------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, failed, total_s, self_s} for the ops' spans and,
        apart, for the set-up's, plus the plain counts of each."""
        child = defaultdict(float)
        done = [s for s in self.spans if s is not None]
        for name, t0, t1, parent, _, _ in done:
            if parent >= 0:
                child[parent] += t1 - t0
        ops, setup = {}, {}
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, _, op, ok = span
            rec = (ops if op >= 0 else setup).setdefault(
                name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["failed"] += 0 if ok else 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[sid]
        return {"spans": ops, "counts": dict(self.counts),
                "setup_spans": setup, "setup_counts": dict(self.setup_counts)}

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tok\n")
            for s in self.spans:
                if s is not None:
                    fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%d\n" % (s[0], s[1], s[2], s[3], s[4], s[5]))
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "setup_counts": dict(self.setup_counts)}) + "\n")
