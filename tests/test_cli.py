import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from chevalley import FunctionField
from chevalley.cli import _instance, main, make_parser
from chevalley.fields import QQ

from conftest import CORPUS_STDOUT_SHA256, REPO_ROOT


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
    # 3 divides no numerator and no denominator of 1/2, a unit mod 3 as 2 is
    a2 = ("kernel-check", "--type", "A2", "--prime", "3", "--support")
    half, two = run_main(*a2, "a1+a2=1/2"), run_main(*a2, "a1+a2=2")
    assert half == two and half[0] == 0
    # a coefficient divisible by p drops a root from Y mod p, which is then
    # no longer the instance certified over Q: a usage error, not a verdict
    code, out, err = run_cli("kernel-check", "--type", "D4", "--support", "a1=3,a3,a4",
                             "--prime", "3")
    assert code == 2 and not out
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: support degenerates mod 3"]


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


def test_counterexample_checks_prime_before_the_table(monkeypatch):
    """A missing --prime exits 2 before any structure constant is built,
    and a bad --type still reports first."""
    from chevalley import cli

    def no_table(rs):
        raise RuntimeError("structure constants built")
    monkeypatch.setattr(cli, "structure_constants", no_table)
    for argv, message in ((["--type", "E8"], "error: --prime is required"),
                          (["--type", "Z9"], "error: invalid Cartan type Z9")):
        code, out, err = run_main("counterexample", *argv)
        assert code == 2 and not out
        assert [line for line in err.splitlines() if "error" in line] == [message]


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
    assert field.element("-t") == -t
    assert field.element("-t^2") == -(t * t)


def test_snf_certifies_its_own_y():
    # 2 = 0 in GF(2)(t): Y is a3 + a4, and so is the element its certificate is for
    assert run_main("snf", "--type", "D4", "--support", "a1=2,a3,a4", "--q", "2") == run_main(
        "snf", "--type", "D4", "--support", "a3,a4", "--q", "2")


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


def test_unparsable_type_is_named():
    # the message names the type, where int() on the rank would name
    # neither, or read "A1_0" as A10
    for text in ("A2.5", "A1_0"):
        code, out, err = run_main("roots", "--type", text)
        assert code == 2 and not out and f"cannot parse Cartan type {text!r}" in err, err


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
            # 3 divides the denominator of 1/3, so Y mod 3 loses a1 + a2
            (["kernel-check", "--type", "A2", "--support", "a1+a2=1/3", "--prime", "3"],
             "support degenerates mod 3"),
            # a coefficient that is no rational number fails over Q and Q_p first
            (["kernel-check", "--type", "A2", "--support", "a1=x,a2", "--prime", "3"],
             "cannot parse coefficient 'x' over Q"),
            (["phi", "--type", "A2", "--support", "a1+a2=x", "--prime", "3"],
             "cannot parse coefficient 'x' over Q(v_3)"),
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


F4_OPTIMAL_SUPPORT = "a1=2,a1+a2,a1+a2+a3=3,a1+a2+a2+a3+a3+a3+a3+a4+a4"
E6_SNF_SUPPORT = "a1+a2+a3+a4=t^2,a3=t^2,a3+a4=t"
F4_SNF_SUPPORT = "a1+a2+a3+a3+a4+a4=t,a1+a1+a2+a2+a2+a3+a3+a3+a3+a4+a4=t^4,a2+a3+a3+a4=t^2"
PINNED_STDOUT = [
    # with no --corpus the standard corpus is rebuilt through standard_instances
    pytest.param(["corpus"], CORPUS_STDOUT_SHA256, id="corpus-regenerated"),
    pytest.param(["corpus", "--corpus", str(REPO_ROOT / "corpus" / "standard.json")],
                 CORPUS_STDOUT_SHA256, id="corpus-shipped"),
    # the E8 structure constants and adjoint roots pin the integer set-up
    pytest.param(["constants", "--type", "E8"],
                 "36056420261d9b4e9fc6ef3288775b8900e9e23f1263475b914ad58389d0e2ff",
                 id="constants-E8"),
    pytest.param(["roots", "--type", "E8", "--isogeny", "adjoint"],
                 "5267081434d00e6db40dc3126e4fdb5ec0a42cf1761394810cd1aa3364126e08",
                 id="roots-E8-adjoint"),
    # F4 and B3xG2 pin the coroots and coweight Gram where roots have two
    # lengths (on E8 both coroot formulas agree)
    pytest.param(["roots", "--type", "F4", "--isogeny", "adjoint"],
                 "5b8a012eb6a221c9cf243c46d84bd17da994941a2fc138ff7823acf7f8a8bf95",
                 id="roots-F4-adjoint"),
    pytest.param(["roots", "--type", "B3xG2", "--isogeny", "adjoint"],
                 "686b5c82883fa9b6b0bfa529ea291b3ab0e1b04ff217f5229bcd46a5bb7e093e",
                 id="roots-B3xG2-adjoint"),
    # grade and the optimal cocharacter in both isogenies
    pytest.param(["grade", "--type", "E8", "--support", "a1,a2,a3,a4,a5,a6,a7,a8"],
                 "2df16491c6ab22ab7d14f26127e79bf60063213e6b3faecaf0b3dde94b569cfe",
                 id="grade-E8-simple-roots"),
    pytest.param(["grade", "--type", "E8", "--isogeny", "adjoint", "--support", "a1,a4,a6"],
                 "1e3be425cfaf17aa8f61fb1ee260e3bd6b2ea90618bf74df3a5f8d271aa9d6ce",
                 id="grade-E8-adjoint"),
    # long and short roots, so the Gram's diagonal is not constant; its
    # Wolfe run drops a point in a minor cycle
    pytest.param(["optimal", "--type", "F4", "--support", F4_OPTIMAL_SUPPORT, "--box-radius", "3"],
                 "9fba47c5ded65db4aa1b8d6641b420602d47f810a927aba7c51e4af9362f8809",
                 id="optimal-F4"),
    # k = 6, five blocks each: GF(4)(t) and GF(9)(t) in characteristics 2 and 3
    pytest.param(["snf", "--type", "E6", "--support", E6_SNF_SUPPORT, "--q", "4"],
                 "8f71b3239c84dfcd88a72c9b190001b98083b05e0c171baba83271d0413bc7af",
                 id="snf-E6-q4"),
    pytest.param(["snf", "--type", "E6", "--support", E6_SNF_SUPPORT, "--q", "9"],
                 "fb75f2bdd373f43be32489691592821bfe3fd0ed757fa913156f3a1072a1274f",
                 id="snf-E6-q9"),
    pytest.param(["snf", "--type", "F4", "--support", F4_SNF_SUPPORT, "--q", "4"],
                 "c97efe02ba29210164c9f8ff03b07a99d73e4d25f4069c9780a1a50b98e24d57",
                 id="snf-F4-q4"),
    pytest.param(["snf", "--type", "F4", "--support", F4_SNF_SUPPORT, "--q", "9"],
                 "efe3f1071c281ca1a0a9fc9e8f804f532387881b1fad0e06a174d289b5319985",
                 id="snf-F4-q9"),
    # GF(100003^2)(t), whose products run digit by digit, beyond the exp/log tables
    pytest.param(["snf", "--type", "A2", "--support", "a1+a2=t", "--q", "10000600009"],
                 "b72377c653969c836eac1b22f47b3584b20c292cfba135092b576dd701635dab",
                 id="snf-A2-q10000600009"),
    pytest.param(["snf", "--type", "C3", "--support", "a2+a3=t,a1+a2+a3=t^2",
                  "--q", "10000600009"],
                 "6a55c5b4ca82180fddfa1923793d0b4d1f7f8d89976199e1deb05da7b378982e",
                 id="snf-C3-q10000600009"),
]


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT)
def test_pinned_stdout(argv, expected):
    """The SHA-256 of stdout is pinned; CI runs this plain and under -O."""
    code, out, err = run_main(*argv)
    assert code == 0 and not err, err
    assert hashlib.sha256(out.encode()).hexdigest() == expected


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
        # k = 3: snf builds two blocks, one lattice_image call each
        ["snf", "--type", "C3", "--support", "a2+a3=t,a1+a2+a3=t^2", "--q", "4"],
        ["rrao-check", "--type", "E6", "--support", "a1,a6", "--prime", "2", "--seed", "3",
         "--trials", "3"],
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
        "cf2b3321eb9c9597da04a92fedee191aa251d2947f6f922e7db864490df0b450")


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


def test_rrao_check_failing_trial_exits_1(monkeypatch):
    """A trial whose conjugation law fails is counted, and the run exits 1."""
    import chevalley.cli

    calls = []

    def verify_rrao(*args):
        calls.append(args)
        return len(calls) != 2  # the second trial that runs fails
    monkeypatch.setattr(chevalley.cli, "verify_rrao", verify_rrao)
    code, out, err = run_main("rrao-check", "--type", "A2", "--support", "a1+a2",
                              "--prime", "2", "--trials", "5")
    payload = json.loads(out)
    assert code == 1 and err == ""
    assert payload["failures"] == 1 and payload["ok"] is False
    assert [t["rrao"] for t in payload["trials"]] == [True, False] + [True] * (len(calls) - 2)
    assert all(t["inverse"] for t in payload["trials"])


def test_support_separators():
    # an empty token between commas is skipped; a support of no tokens is refused
    assert run_main("optimal", "--type", "A2", "--support", "a1,,a2") == run_main(
        "optimal", "--type", "A2", "--support", "a1,a2")
    code, out, err = run_main("optimal", "--type", "A2", "--support", ",")
    assert code == 2 and out == "" and "error: empty support" in err.splitlines()


def test_instance_uses_the_one_plain_q():
    args = make_parser().parse_args(["grade", "--type", "A2", "--support", "a1+a2"])
    rs, Y, cert = _instance(args, QQ)
    assert Y.field is QQ and cert.support == Y.support_roots() == [rs.root_index[(1, 1)]]
