"""A seeded fuzzer of the CLI, run in-process through `main`.

Each case starts from a valid invocation (an argv of the pinned table in
`test_cli.py`, or a small valid corpus) and applies one seeded mutation: a
flag set to a malformed or merely different value, a flag dropped or added,
another command, a corpus of the wrong JSON shape or with one bad key.  A
second family sets two flags of one argv at once.
Whatever the mutation, the CLI exits 0, 1 or 2; exit 2 leaves stdout empty
and says why on stderr; no case reaches the internal-error exit 3.  Cases
stay small: ranks at most 4, --box-radius at most 2, --trials at most 5, q
at most 25.
"""

import json
import random

import pytest

from chevalley import cli
from chevalley.rootsystem import parse_cartan_type

from test_cli import _pinned_argv, run_main

PSI_13 = "3317044064679887385961981"  # least strong pseudoprime to the 13 primes up to 41

FLAG_VALUES = {
    "--type": ["A1", "A2", "B2", "G2", "A3", "C3", "D4", "F4", "A2xA1", "A1xA1xA1",
               "Z9", "A0", "B1", "D2", "E9", "G3", "A2.5", "a2", "A", "2", "A-1", "A2x", ""],
    "--isogeny": ["simply_connected", "adjoint", "bogus", ""],
    "--support": ["a1", "a2", "a1,a2", "a1+a2", "a1+a2=3", "a2+a3", "a1+a2+a3", "a1=1/2",
                  "a1=-2", "a1=t", "a1+a2=t^2", "a2=-2t", "a1=1/0", "a1=1.5", "a1=0",
                  "a1=x", "a1=", "=1", "a0", "a5", "b1", "a", "a1+", "a1+a1", "a1,,a2",
                  ",", "", "a1,a1+a2,a2", "a1=2,a1=-2", "a1=1/2/3", "a1=1e3", "a1 + a2"],
    "--prime": ["2", "3", "5", "7", "0", "-3", "1", "4", "9", "15", PSI_13, "x", "2.5", ""],
    "--q": ["2", "3", "4", "8", "9", "16", "25", "0", "1", "-4", "6", "12", "24", "x"],
    "--trunc-m": ["1", "3", "5", "0", "-1", "x"],
    "--box-radius": ["0", "1", "2", "-1", "x"],
    "--seed": ["0", "7", "-5", "x"],
    "--trials": ["1", "3", "5", "0", "-2", "x"],
}

CORPUS = {
    "schema": 1,
    "primes": [2, 3],
    "entries": [
        {"cartan_type": "A2", "support": [[1, 0], [0, 1]], "coefficients": [1, 2]},
        {"cartan_type": "B2", "isogeny": "adjoint", "support": [[1, 1]], "origin": "x"},
    ],
}

# wrong JSON types, and values of the right type that are still wrong
JSON_VALUES = [None, True, 0, 1, 4, 1.5, "x", "1", [], {}, [[]], [1], [[1, 0]], [4],
               [0], [-3], [1.0], [True], [int(PSI_13)], ["t"], ["1/0"], [1.5], [[1, 2]],
               [[1, 0, 0]], [[-1, 0]], [[1.0, 0]], [[True, 0]], "A2", "Z9", "adjoint"]
NOT_CORPORA = ["[]", '"corpus"', "5", "null", "{", "", '{"schema": 1,}', "NaN", "[{}]"]


def _rank(argv):
    return sum(r for _, r in parse_cartan_type(argv[argv.index("--type") + 1]))


def _box_radius(argv):
    return int(argv[argv.index("--box-radius") + 1]) if "--box-radius" in argv else 0


# the pinned invocations within the bounds; every one of them is valid
# (the table's exit-2 rows go as they are malformed already)
BASES = [argv for argv in _pinned_argv()
         if "Z9" not in argv and "a9" not in argv and "a1=3,a3,a4" not in argv
         and _rank(argv) <= 4 and _box_radius(argv) <= 2]
# and kernel-check argvs that exit 1 (a graded block is not injective at p),
# so exit 1 comes from many cases, not from a few that a reordering could drop
BASES += [["kernel-check", "--type", t, "--support", support, "--prime", p]
          for t, support, p in [("B3", "a1,a3", "2"), ("B4", "a1,a4", "2"), ("F4", "a1,a3", "2"),
                                ("F4", "a1,a3,a4", "3"), ("G2", "a1", "2")]]


def _settable(command):
    """The flags of the command that have a pool of values."""
    return [f for f in cli.OPTIONS[command] if f in FLAG_VALUES]


# the values each flag takes in the valid invocations
VALID_VALUES = {}
for _argv in BASES:
    for _flag, _value in zip(_argv[1::2], _argv[2::2]):
        VALID_VALUES.setdefault(_flag, []).append(_value)
VALID_VALUES = {flag: sorted(set(values)) for flag, values in VALID_VALUES.items()}


def _set_flag(argv, flag, value):
    """Set flag to value, in place or appended."""
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]


def _few_trials(argv):
    if argv[0] == "rrao-check" and "--trials" not in argv:
        argv += ["--trials", "5"]  # not the default 20
    return argv


def _mutate_argv(rng, argv):
    argv, command = list(argv), argv[0]
    flags = cli.OPTIONS[command]
    # mostly a new value for a flag: the other kinds end in argparse's usage error
    kind = rng.choices(range(5), weights=(6, 1, 1, 1, 1))[0]
    if kind == 0 and flags:  # one flag the command takes, set to a value of the pool
        flag = rng.choice(_settable(command))
        _set_flag(argv, flag, rng.choice(FLAG_VALUES[flag]))
    elif kind == 1 and len(argv) > 1:  # drop one flag with its value
        i = rng.randrange(1, len(argv) - 1, 2)
        del argv[i:i + 2]
    elif kind == 2:  # a flag the command does not take, or a flag without its value
        flag = rng.choice(sorted(set(FLAG_VALUES) - set(flags)) or ["--bogus"])
        argv += [flag, rng.choice(FLAG_VALUES.get(flag, ["1"]))] if rng.random() < 0.7 else [
            rng.choice(flags or ("--out",))]
    elif kind == 3:  # the same flags under another command
        argv[0] = rng.choice(sorted(set(cli.COMMANDS) - {"corpus"}))
    else:  # --out to a directory, which cannot be written, or to a file
        argv += ["--out", "{dir}" if rng.random() < 0.5 else "{dir}/out.json"]
    return _few_trials(argv)


def _mutate_two_flags(rng, argv):
    """Two flags the command takes, each set to a value of its pool or, half
    the time, to one it takes in a valid invocation: so a new type can come
    with a support of that type, or a prime with an isogeny that it breaks."""
    argv = list(argv)
    for flag in rng.sample(_settable(argv[0]), 2):
        pool = VALID_VALUES.get(flag) if rng.random() < 0.5 else None
        _set_flag(argv, flag, rng.choice(pool or FLAG_VALUES[flag]))
    return _few_trials(argv)


def _mutate_corpus(rng):
    """The text of one mutated corpus file."""
    corpus = json.loads(json.dumps(CORPUS))
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(NOT_CORPORA)
    if kind == 1:  # a top-level key set to another value, or dropped
        key = rng.choice(["schema", "primes", "entries"])
        if rng.random() < 0.2:
            del corpus[key]
        else:
            corpus[key] = rng.choice(JSON_VALUES)
    else:  # one key of one entry
        entry = rng.choice(corpus["entries"])
        key = rng.choice(["cartan_type", "isogeny", "support", "coefficients", "primes",
                          "origin"])
        if rng.random() < 0.2:
            entry.pop(key, None)
        else:
            entry[key] = rng.choice(JSON_VALUES)
    return json.dumps(corpus)


def _check(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err, (argv, err)
    if code == 2:
        assert out == "", argv
        # main's own "error: ..." line, or argparse's "chevalley <command>: error: ..."
        assert any(line.startswith("error: ") or ": error: " in line
                   for line in err.splitlines()), (argv, err)


@pytest.fixture
def one_parser(monkeypatch):
    # one parser for every case: make_parser builds the same parser each
    # time, and building it is most of a small case's cost
    parser = cli.make_parser()
    monkeypatch.setattr(cli, "make_parser", lambda: parser)


def test_mutated_inputs_exit_0_1_or_2(tmp_path, one_parser):
    path = tmp_path / "corpus.json"
    codes = {}
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        for _ in range(300):
            if rng.random() < 0.25:
                path.write_text(_mutate_corpus(rng))
                argv = ["corpus", "--corpus", str(path)]
                if rng.random() < 0.1:
                    argv[2] = str(tmp_path / "missing.json")
            else:
                argv = [a.replace("{dir}", str(tmp_path))
                        for a in _mutate_argv(rng, rng.choice(BASES))]
            code, out, err = run_main(*argv)
            _check(argv, code, out, err)
            codes[code] = codes.get(code, 0) + 1
    assert sum(codes.values()) == 1200
    assert set(codes) == {0, 1, 2}, codes  # the mutations reach every exit code


def test_two_flag_mutations_exit_0_1_or_2(one_parser):
    codes = {}
    for seed in (5, 6, 7, 8):
        rng = random.Random(seed)
        for _ in range(600):
            argv = _mutate_two_flags(rng, rng.choice(BASES))
            code, out, err = run_main(*argv)
            _check(argv, code, out, err)
            codes[code] = codes.get(code, 0) + 1
    assert sum(codes.values()) == 2400
    assert set(codes) == {0, 1, 2}, codes  # the mutations reach every exit code
