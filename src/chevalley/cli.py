"""Command-line entry point: build systems, verify instances, emit JSON.

Output is deterministic (sorted keys, no unseeded randomness); exit
codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys

from .badprimes import regular_counterexample_report
from .corpus import run_corpus, standard_corpus
from .fields import QQ, FunctionField, PrimeField, RationalField
from .gradedmap import (block_divisors, block_report, graded_ad, kernel_from_divisors,
                        lattice_image, verify_phi_inverse, verify_rrao)
from .grading import grade
from .lie import element_from_support, structure_constants
from .optimality import brute_force_verify, certified_torus_check, optimal_cocharacter
from .rootsystem import build

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3

# sign, integer (absent only before t), t, exponent: 3, -2t, t^2, -t, 2*t^3
_COEFF_RE = re.compile(r"^(-?)(\d+|(?=t))(?:\*?(t)(?:\^(\d+))?)?$")


def _parse_support(rs, text: str):
    """Tokens like a1,a2 or a1+a2=3; returns (roots, coefficient strings)."""
    roots, coeffs = [], []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            root_part, coeff = token.split("=", 1)
        else:
            root_part, coeff = token, "1"
        total = [0] * rs.rank
        for name in root_part.split("+"):
            name = name.strip()
            if not (name.startswith("a") and name[1:].isdecimal()):
                raise ValueError(f"bad simple-root name {name!r}")
            i = int(name[1:])
            if not 1 <= i <= rs.rank:
                raise ValueError(f"simple root index out of range in {name!r}")
            total[i - 1] += 1
        if tuple(total) not in rs.root_index:
            raise ValueError(f"{root_part!r} is not a root of {rs.type_string()}")
        roots.append(tuple(total))
        coeffs.append(coeff)
    if not roots:
        raise ValueError("empty support")
    return roots, coeffs


def _coeff_to_field(field, coeff: str):
    """Parse a coefficient string over GF(p) or GF(q)(t); Q and Q_p take
    the strings as they are (`field.element` reads "3" and "1/2")."""
    if isinstance(field, FunctionField):
        m = _COEFF_RE.match(coeff.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse coefficient {coeff!r} over GF(q)(t)")
        sign, digits, t, e = m.groups()
        c = int(sign + (digits or "1"))
        return field.poly([0] * int(e or 1) + [c]) if t else field.element(c)
    try:
        return field.element(int(coeff))
    except ValueError:
        raise ValueError(f"cannot parse coefficient {coeff!r} over {field!r}") from None


def _instance(args, p=None):
    """Root system, support, Y over Q (p-adic when p is given), Y's certificate."""
    rs = build(args.type, args.isogeny)
    roots, coeffs = _parse_support(rs, args.support)
    Y = element_from_support(rs, QQ if p is None else RationalField(p), roots, coeffs)
    return rs, roots, coeffs, Y, optimal_cocharacter(rs, Y)


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the --out file first, so that a path that cannot be written
    leaves stdout empty."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


COMMANDS: dict = {}   # name -> handler(args) returning (payload, exit code)
OPTIONS: dict = {}    # name -> the flags its handler reads, besides --out
_SYSTEM = ("--type", "--isogeny")


def _command(name: str, *flags: str):
    def register(fn):
        COMMANDS[name], OPTIONS[name] = fn, flags
        return fn
    return register


@_command("roots", *_SYSTEM)
def cmd_roots(args):
    rs = build(args.type, args.isogeny)
    return rs.to_json(), 0


@_command("constants", *_SYSTEM)
def cmd_constants(args):
    rs = build(args.type, args.isogeny)
    sc = structure_constants(rs)
    payload = sc.to_json()
    payload["max_abs_n"] = sc.max_abs_n()
    return payload, 0


@_command("grade", *_SYSTEM, "--support")
def cmd_grade(args):
    rs, _, _, _, cert = _instance(args)
    report = grade(rs, cert.lam)
    return {"certificate": cert.to_json(), "grading": report.to_json()}, 0


@_command("optimal", *_SYSTEM, "--support", "--box-radius")
def cmd_optimal(args):
    rs, _, _, Y, cert = _instance(args)
    payload, code = cert.to_json(), 0
    if args.box_radius is not None:
        bf = payload["brute_force_checked"] = brute_force_verify(rs, Y, cert, args.box_radius)
        code = 0 if bf["ok"] else VERIFY_ERROR
    payload["torus_check"] = certified_torus_check(rs, Y, cert)
    return payload, code


@_command("kernel-check", *_SYSTEM, "--support", "--prime")
def cmd_kernel_check(args):
    rs, roots, coeffs, Y, cert = _instance(args)
    # D Y has integer coefficients and the same ranks over Q
    D = math.lcm(*(c.denominator for c in Y.coeffs.values()))
    gbm = graded_ad(rs, structure_constants(rs), Y.scaled(D), cert.lam, cert.k)
    divisors = block_divisors(gbm)
    kerns = {"Q": kernel_from_divisors(gbm, divisors)}
    if args.prime is not None:
        # parsed over GF(p) too, so a bad or collapsing support exits 2; then D = 1
        fp = PrimeField(args.prime)
        element_from_support(rs, fp, roots, [_coeff_to_field(fp, c) for c in coeffs])
        kerns[f"F{args.prime}"] = kernel_from_divisors(gbm, divisors, args.prime)
    ok = all(v["injective"] for kern in kerns.values() for v in kern.values())
    payload = {"certificate": cert.to_json(), "all_injective": ok,
               "fields": {name: {str(i): kern[i] for i in sorted(kern)}
                          for name, kern in kerns.items()}}
    return payload, 0 if ok else VERIFY_ERROR


@_command("phi", *_SYSTEM, "--support", "--prime")
def cmd_phi(args):
    rs, _, _, Y, cert = _instance(args, 2 if args.prime is None else args.prime)
    gbm = graded_ad(rs, structure_constants(rs), Y, cert.lam, cert.k)
    return {"certificate": cert.to_json(), **block_report(Y.field, gbm)}, 0


@_command("rrao-check", *_SYSTEM, "--support", "--prime", "--seed", "--trials")
def cmd_rrao_check(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rs, _, _, Y, cert = _instance(args, 2 if args.prime is None else args.prime)
    sc, field = structure_constants(rs), Y.field
    rng = random.Random(args.seed)
    degree_k = grade(rs, cert.lam).weight_spaces[cert.k]
    p = field.residue_cardinality
    trials, failures = [], 0
    for t in range(args.trials):
        terms = [(ri, rng.randint(1, 9) * p ** rng.randint(0, 2))
                 for ri in degree_k if rng.random() < 0.8]
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        if not terms:
            continue
        X = element_from_support(rs, field, *zip(*terms))
        ok_rrao = verify_rrao(rs, sc, X, cert.lam, cert.k, v)
        ok_inv = verify_phi_inverse(rs, sc, X, cert.lam, cert.k)
        if not (ok_rrao and ok_inv):
            failures += 1
        trials.append({"trial": t, "rrao": ok_rrao, "inverse": ok_inv,
                       "v": list(v)})
    if not trials:
        raise ValueError(f"no trial ran: --trials {args.trials} drew only empty X")
    payload = {"certificate": cert.to_json(), "trials": trials,
               "failures": failures, "ok": failures == 0}
    return payload, 0 if failures == 0 else VERIFY_ERROR


@_command("snf", *_SYSTEM, "--support", "--q", "--trunc-m")
def cmd_snf(args):
    m = 4 if args.trunc_m is None else args.trunc_m
    if m < 1:
        raise ValueError(f"truncation level --trunc-m must be >= 1, got {m}")
    rs = build(args.type, args.isogeny)
    sc = structure_constants(rs)
    roots, coeffs = _parse_support(rs, args.support)
    field = FunctionField(2 if args.q is None else args.q)
    Y = element_from_support(rs, field, roots, [_coeff_to_field(field, c) for c in coeffs])
    cert = optimal_cocharacter(rs, element_from_support(rs, QQ, roots))
    divisors = {}
    for i in range(1, cert.k):
        vals = lattice_image(rs, sc, Y, cert.lam, cert.k, i, m)
        divisors[str(i)] = ["inf" if v is None else v for v in vals]
    payload = {"certificate": cert.to_json(), "q": field.residue_cardinality,
               "trunc_m": m, "divisor_valuations": divisors}
    return payload, 0


@_command("counterexample", *_SYSTEM, "--prime")
def cmd_counterexample(args):
    rs = build(args.type, args.isogeny)
    sc = structure_constants(rs)
    if args.prime is None:
        raise ValueError("--prime is required")
    return regular_counterexample_report(rs, sc, args.prime), 0


@_command("corpus", "--corpus")
def cmd_corpus(args):
    if args.corpus:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            corpus = json.load(fh)
    else:
        corpus = standard_corpus()
    report = run_corpus(corpus)
    return report, 0 if report["ok"] else VERIFY_ERROR


_OPTION_SPECS = {
    "--type": dict(required=True, help="Cartan type, e.g. A2 or A2xA1"),
    "--isogeny": dict(choices=["simply_connected", "adjoint"], default="simply_connected"),
    "--support": dict(required=True, help="e.g. a1,a2 or a1+a2=3"),
    "--prime": dict(type=int, help="prime for mod-p / p-adic computations"),
    "--q": dict(type=int, help="residue cardinality for GF(q)(t)"),
    "--trunc-m": dict(type=int, help="lattice truncation level"),
    "--box-radius": dict(type=int, help="brute-force verification box radius"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
    "--trials": dict(type=int, default=20, help="number of randomized trials"),
    "--corpus": dict(help="corpus JSON file"),
    "--out": dict(help="also write the JSON report to this path"),
}


def make_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMANDS entry, taking the OPTIONS it reads and --out."""
    parser = argparse.ArgumentParser(
        prog="chevalley",
        description="Exact computations in Chevalley-basis Lie algebras: "
                    "gradings, optimal cocharacters, kernel checks, phi.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag in OPTIONS[name] + ("--out",):
            p.add_argument(flag, **_OPTION_SPECS[flag])
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = COMMANDS[args.command](args)
        _emit(payload, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
