import contextlib
import hashlib
import io
import json
import subprocess
import sys

from chevalley import FunctionField
from chevalley.cli import _coeff_to_field, main
from chevalley.cli import _instance, make_parser
from chevalley.fields import QQ, RationalField

from conftest import REPO_ROOT


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "chevalley.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(*args):
    """run_cli in-process through main; argparse's own exit is caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_optimal_example():
    code, out, _ = run_cli("optimal", "--type", "A2", "--support", "a1,a2")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == [1, 1]
    assert payload["k"] == 1
    assert payload["mu"]["coords"] == ["1", "1"]


def test_kernel_check_example():
    code, out, _ = run_cli("kernel-check", "--type", "A2", "--support", "a1+a2",
                           "--prime", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_injective"]
    assert payload["fields"]["F5"]["1"]["injective"]
    # rational coefficients: the ranks over Q are those of the cleared 2Y
    code, out, _ = run_cli("kernel-check", "--type", "A2", "--support", "a1+a2=1/2")
    assert code == 0
    assert json.loads(out)["fields"]["Q"]["1"] == {
        "rows": 2, "cols": 2, "rank": 2, "injective": True, "surjective": True}
    # a coefficient divisible by p drops out of Y mod p; the rest stays nonzero
    code, out, _ = run_cli("kernel-check", "--type", "D4", "--support", "a1=3,a3,a4",
                           "--prime", "3")
    payload = json.loads(out)
    assert code == 1 and payload["fields"]["Q"]["1"]["rank"] == 6
    assert payload["fields"]["F3"]["1"]["rank"] == 4


def test_counterexample_example():
    code, out, _ = run_cli("counterexample", "--type", "A2", "--isogeny", "adjoint",
                           "--prime", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["coker_divisors"] == [1, 3]
    assert payload["bracket_cartan_component_zero"] is True
    code2, out2, _ = run_cli("counterexample", "--type", "A2", "--isogeny", "adjoint",
                             "--prime", "2")
    assert code2 == 0 and json.loads(out2)["found"] is False


def test_roots_constants_grade_phi_snf_rrao():
    code, out, _ = run_cli("roots", "--type", "G2")
    assert code == 0 and json.loads(out)["root_count"] == 12

    code, out, _ = run_cli("constants", "--type", "G2")
    assert code == 0 and json.loads(out)["max_abs_n"] == 3

    code, out, _ = run_cli("grade", "--type", "A2", "--support", "a1,a2")
    assert code == 0
    assert json.loads(out)["grading"]["dims"]["1"] == 2

    code, out, _ = run_cli("phi", "--type", "A2", "--support", "a1+a2", "--prime", "3")
    assert code == 0
    assert json.loads(out)["phi"] == {"q": 3, "half_exponent": 0}

    code, out, _ = run_cli("snf", "--type", "A2", "--support", "a1+a2=t", "--q", "4",
                           "--trunc-m", "3")
    assert code == 0
    assert json.loads(out)["divisor_valuations"]["1"] == [1, 1]

    code, out, _ = run_cli("rrao-check", "--type", "A2", "--support", "a1+a2",
                           "--prime", "2", "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["failures"] == 0


def test_optimal_adjoint_b2():
    # coweight Gram = char_form^-1: lambda = 2 omega_1 - omega_2 pairs 2 with a1
    code, out, _ = run_cli("optimal", "--type", "B2", "--isogeny", "adjoint",
                           "--support", "a1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == [2, -1]
    assert payload["k"] == 2


def test_snf_trunc_m_zero_exits_2():
    code, out, err = run_cli("snf", "--type", "A2", "--support", "a1+a2=t", "--q", "4",
                             "--trunc-m", "0")
    assert code == 2, out
    assert "truncation level" in err
    # the regular A2 support has k = 1, so there is no block to check m on
    for m in ("0", "-1"):
        code, out, err = run_cli("snf", "--type", "A2", "--support", "a1,a2", "--trunc-m", m)
        assert code == 2, out
        assert "truncation level" in err and not out


def test_snf_reads_minus_t_as_minus_one_t():
    # a monomial in t may carry a bare sign, as -2t carries a signed integer
    for minus, minus_one in (("-t", "-1t"), ("-t^2", "-1*t^2")):
        outs = [run_main("snf", "--type", "A2", "--support", f"a1+a2={c}", "--q", "3")
                for c in (minus, minus_one)]
        assert outs[0] == outs[1] and outs[0][0] == 0, outs
    field = FunctionField(3)
    t = field.t()
    assert _coeff_to_field(field, "-t") == -t
    assert _coeff_to_field(field, "-t^2") == -(t * t)


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    from chevalley import cli

    # a KeyError is a broken invariant too: malformed input raises ValueError
    for exc, message in ((RuntimeError("invariant broken"), "RuntimeError: invariant broken"),
                         (KeyError("root"), "KeyError: 'root'")):
        def broken(args):
            raise exc
        monkeypatch.setitem(cli.COMMANDS, "roots", broken)
        assert main(["roots", "--type", "A1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"internal error: {message}\n"
        assert not captured.out


def test_support_coefficient_parsing():
    code, out, _ = run_cli("optimal", "--type", "B2", "--support", "a1+a2=3,a2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["support"]) == 2
    # rational coefficients
    code, out, _ = run_cli("optimal", "--type", "A2", "--support", "a1+a2=1/2")
    assert code == 0
    assert json.loads(out)["k"] == 2


def test_usage_errors_exit_2(tmp_path):
    bad_corpora = []
    for n, patch in enumerate([{"coefficients": [2.5]}, {"coefficients": ["1/2"]},
                               {"coefficients": [True]}, {"primes": [4]},
                               # names that are not strings
                               {"cartan_type": 5}, {"cartan_type": ["A", 2]},
                               {"cartan_type": []}, {"isogeny": 5}, {"isogeny": []},
                               # support roots that are not lists of integers
                               {"support": [1]}, {"support": [None]},
                               {"support": [[True, 1]]}, {"support": [[1.0, 1]]},
                               {"support": 5}]):
        entry = {"cartan_type": "A2", "support": [[1, 1]], "coefficients": [1], **patch}
        path = tmp_path / f"bad{n}.json"
        path.write_text(json.dumps({"schema": 1, "primes": [2], "entries": [entry]}))
        bad_corpora.append(["corpus", "--corpus", str(path)])
    # corpora of the wrong shape: not an object, entries not a list of objects
    for n, corpus in enumerate([[], {"schema": 1, "entries": [5]},
                                {"schema": 1, "entries": {"a": 1}}]):
        path = tmp_path / f"shape{n}.json"
        path.write_text(json.dumps(corpus))
        bad_corpora.append(["corpus", "--corpus", str(path)])
    a2 = ("--type", "A2", "--support", "a1+a2")
    for args in (["nonsense"],
                 ["optimal", "--type", "Z9", "--support", "a1"],
                 ["optimal", "--type", "A2", "--support", "a1+a1"],
                 ["optimal", "--type", "A2", "--support", "a9"],
                 ["optimal", "--type", "A2"],
                 ["counterexample", "--type", "A2"],
                 ["optimal", "--type", "A2", "--support", "a1", "--unknown-flag"],
                 # 0 is a radius too small for any optimum, as -1 is
                 ["optimal", "--type", "A2", "--support", "a1,a2", "--box-radius", "0"],
                 ["optimal", "--type", "A2", "--support", "a1,a2", "--box-radius", "-1"],
                 # flags the subcommand does not read
                 ["roots", "--type", "A1", "--prime", "4", "--box-radius", "3"],
                 ["corpus", "--type", "E8"],
                 # --type A2 is the one spelling of a type; there is no --rank
                 ["roots", "--type", "A", "--rank", "2"],
                 # 0 is a value, not an absent flag; trials below 1 would pass vacuously
                 ["phi", *a2, "--prime", "0"],
                 ["rrao-check", *a2, "--prime", "0"],
                 ["kernel-check", *a2, "--prime", "0"],
                 ["snf", *a2, "--q", "0"],
                 ["counterexample", "--type", "A2", "--prime", "0"],
                 ["rrao-check", *a2, "--trials", "-3"],
                 ["rrao-check", *a2, "--trials", "0"],
                 *bad_corpora):
        code, out, err = run_main(*args)
        assert code == 2 and not out and "Traceback" not in err, (args, err)
    # exit status 2 from a real process too: argparse's exit, and main's return value
    for args in (["nonsense"], ["phi", *a2, "--prime", "0"]):
        code, out, err = run_cli(*args)
        assert code == 2 and not out and "Traceback" not in err, (args, err)
    unknown_root = tmp_path / "unknown_root.json"
    unknown_root.write_text(json.dumps({"schema": 1, "entries": [
        {"cartan_type": "A2", "support": [[1, 5]]}]}))
    for key in ("cartan_type", "support"):
        entry = {"cartan_type": "A2", "support": [[1, 1]]}
        del entry[key]
        (tmp_path / f"no_{key}.json").write_text(json.dumps({"schema": 1, "entries": [entry]}))
    # malformed supports: one error line that names the fault
    for args, message in [
            (["corpus", "--corpus", str(unknown_root)], "[1, 5] is not a root of A2"),
            *[(["corpus", "--corpus", str(tmp_path / f"no_{key}.json")],
               f"corpus entry has no {key!r}") for key in ("cartan_type", "support")],
            (["optimal", "--type", "A2", "--support", "a1=1/0"], "'1/0' has a zero denominator"),
            (["grade", "--type", "A2", "--support", "a1=1/0"], "'1/0' has a zero denominator"),
            (["kernel-check", "--type", "A2", "--support", "a1=1/0"],
             "'1/0' has a zero denominator"),
            (["optimal", "--type", "A2", "--support", "a"], "bad simple-root name 'a'"),
            (["optimal", "--type", "A2", "--support", "a1,ax2"], "bad simple-root name 'ax2'"),
            # an empty coefficient, or '*t' with no integer before the '*'
            (["snf", "--type", "A2", "--support", "a1+a2="],
             "cannot parse coefficient '' over GF(q)(t)"),
            (["snf", "--type", "A2", "--support", "a1+a2=*t"],
             "cannot parse coefficient '*t' over GF(q)(t)"),
            # Q reads 1/2, GF(3) reads integers only
            (["kernel-check", "--type", "A2", "--support", "a1=1/2,a2", "--prime", "3"],
             "cannot parse coefficient '1/2' over GF(3)"),
            # a1 + a2 has degree 2 under the optimal lam = (1, 1), a1 and a2 degree 1
            (["phi", "--type", "A2", "--support", "a1,a2,a1+a2"],
             "Y must be concentrated in a single degree")]:
        code, out, err = run_main(*args)
        assert code == 2 and not out, (args, err)
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [f"error: {message}"], (args, err)


def test_large_primes_finish(tmp_path):
    # 2**61 - 1 is decided by Miller-Rabin, not trial division up to its root
    code, out, err = run_cli("phi", "--type", "A2", "--support", "a1+a2",
                             "--prime", "2305843009213693951")
    assert code == 0 and json.loads(out)["phi"]["q"] == 2305843009213693951, err
    # GF(100003^2): its modulus comes from Rabin's irreducibility test, not
    # trial division by every monic polynomial of degree 1
    code, out, err = run_cli("snf", "--type", "A2", "--support", "a1+a2=t", "--q", "10000600009")
    assert code == 0 and json.loads(out)["q"] == 10000600009, err
    # the least strong pseudoprime to the 13 primes <= 41: undecided, so a usage error
    path = tmp_path / "psi13.json"
    path.write_text(json.dumps({"schema": 1, "primes": [3317044064679887385961981],
                                "entries": [{"cartan_type": "A2", "support": [[1, 1]]}]}))
    code, out, err = run_cli("corpus", "--corpus", str(path))
    assert code == 2 and not out, err
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: primality is decided only below 3317044064679887385961981 or with a prime "
        "factor up to 41, got 3317044064679887385961981"]


def test_optimal_inhomogeneous_support_exits_2():
    # a1 + a2 has degree 2 under lam = (1, 1), where a1 and a2 have degree 1
    code, out, err = run_cli("optimal", "--type", "A2", "--support", "a1,a2,a1+a2")
    assert code == 2 and not out
    assert err.splitlines()[0] == "error: Y must be concentrated in a single degree"


def test_verification_failure_exit_1():
    # the D4 outer-nodes instance is singular mod 2 (see test_badprimes)
    code, out, _ = run_cli("kernel-check", "--type", "D4", "--support", "a1,a3,a4",
                           "--prime", "2")
    payload = json.loads(out)
    assert not payload["all_injective"]
    assert payload["fields"]["Q"]["1"]["injective"]
    assert code == 1


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("roots", "--type", "A1", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    code, plain, _ = run_cli("roots", "--type", "A1")
    assert code == 0 and out == plain
    # an --out path that cannot be written (a missing directory, a directory)
    # is a usage error, reported before anything reaches stdout
    for path in (tmp_path / "no" / "r.json", tmp_path):
        code, out, err = run_cli("roots", "--type", "A1", "--out", str(path))
        assert code == 2 and not out and "Traceback" not in err, err
        assert err.startswith("error: [Errno ")


def test_main_entry_direct(capsys):
    assert main(["roots", "--type", "A1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root_count"] == 2


def test_corpus_cli_deterministic_bytes():
    corpus_path = str(REPO_ROOT / "corpus" / "standard.json")
    code1, out1, _ = run_cli("corpus", "--corpus", corpus_path)
    code2, out2, _ = run_cli("corpus", "--corpus", corpus_path)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"]


def _pinned_argv():
    argv = []
    for t in ("A2", "B3", "C3", "G2", "F4", "D4", "A2xA1"):
        for iso in ("simply_connected", "adjoint"):
            argv += [["roots", "--type", t, "--isogeny", iso],
                     ["constants", "--type", t, "--isogeny", iso]]
    argv += [
        ["grade", "--type", "A2", "--support", "a1,a2"],
        ["grade", "--type", "B3", "--support", "a1+a2+a3"],
        ["grade", "--type", "G2", "--support", "a2", "--isogeny", "adjoint"],
        ["optimal", "--type", "A2", "--support", "a1,a2", "--box-radius", "2"],
        ["optimal", "--type", "B2", "--support", "a1+a2=3,a2", "--box-radius", "3"],
        ["optimal", "--type", "B2", "--isogeny", "adjoint", "--support", "a1",
         "--box-radius", "2"],
        ["optimal", "--type", "A3", "--support", "a1+a2,a2+a3", "--box-radius", "2"],
        ["kernel-check", "--type", "A2", "--support", "a1+a2", "--prime", "5"],
        ["kernel-check", "--type", "A2", "--support", "a1+a2=1/2"],
        ["kernel-check", "--type", "D4", "--support", "a1,a3,a4", "--prime", "2"],
        ["kernel-check", "--type", "D4", "--support", "a1=3,a3,a4", "--prime", "3"],
        ["kernel-check", "--type", "G2", "--support", "a1+a2"],
        ["phi", "--type", "A2", "--support", "a1+a2", "--prime", "3"],
        ["phi", "--type", "A2", "--support", "a1+a2=1/2"],
        ["phi", "--type", "D4", "--support", "a1,a3,a4"],
        ["phi", "--type", "B3", "--support", "a2+a3", "--prime", "5"],
        ["phi", "--type", "C3", "--support", "a1+a2+a3=3", "--prime", "3"],
        ["phi", "--type", "G2", "--support", "a1+a2", "--isogeny", "adjoint"],
        ["phi", "--type", "A2", "--support", "a1,a2"],
        ["snf", "--type", "A2", "--support", "a1+a2=t", "--q", "2"],
        ["snf", "--type", "A2", "--support", "a1+a2=t", "--q", "4", "--trunc-m", "3"],
        ["snf", "--type", "B3", "--support", "a2+a3=t^2", "--q", "9"],
        ["counterexample", "--type", "A2", "--isogeny", "adjoint", "--prime", "3"],
        ["counterexample", "--type", "A2", "--isogeny", "adjoint", "--prime", "2"],
        ["counterexample", "--type", "A3", "--isogeny", "adjoint", "--prime", "2"],
        ["counterexample", "--type", "B3", "--prime", "2"],
        ["rrao-check", "--type", "A2", "--support", "a1+a2", "--prime", "2", "--trials", "5"],
        ["rrao-check", "--type", "B2", "--support", "a1+a2", "--prime", "3", "--seed", "7",
         "--trials", "4"],
        ["optimal", "--type", "Z9", "--support", "a1"],
        ["optimal", "--type", "A2", "--support", "a9"],
    ]
    return argv


def test_cli_outputs_pinned():
    """Every byte of these invocations (exit code, stdout, stderr) is pinned
    by one digest; a refactor that changes any output fails here."""
    digest = hashlib.sha256()
    for argv in _pinned_argv():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    assert digest.hexdigest() == (
        "5abd79c3162a7ebd6fadca3739e0d241291d6d94b308d41d165d217032d6f9e9")


def test_rrao_check_with_no_trial_exits_2():
    """--trials counts draws; a draw whose X has no terms is skipped, and a
    run in which every draw was skipped has verified nothing."""
    argv = ["rrao-check", "--type", "A2", "--support", "a1+a2", "--seed", "0"]
    code, out, err = run_main(*argv, "--trials", "1")
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: no trial ran: --trials 1 drew only empty X"]
    # the draws stay as they were: the first run with a trial checks draw 1 only
    code, out, _ = run_main(*argv, "--trials", "2")
    assert code == 0 and [t["trial"] for t in json.loads(out)["trials"]] == [1]


def test_support_separators():
    # an empty token between commas is skipped; a support of no tokens is refused
    assert run_main("optimal", "--type", "A2", "--support", "a1,,a2") == run_main(
        "optimal", "--type", "A2", "--support", "a1,a2")
    code, out, err = run_main("optimal", "--type", "A2", "--support", ",")
    assert code == 2 and out == "" and "error: empty support" in err.splitlines()


def test_instance_uses_the_one_plain_q():
    args = make_parser().parse_args(["grade", "--type", "A2", "--support", "a1+a2"])
    assert _instance(args)[3].field is QQ
    assert _instance(args, 3)[3].field == RationalField(3)
