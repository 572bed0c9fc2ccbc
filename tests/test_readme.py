"""The README's examples run as written: every `chevalley` line of its
CLI block exits 0, and the quick tour's commented values are what the
library returns."""

import ast
import contextlib
import io
import re
import shlex

from chevalley.cli import main

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

# the quick-tour lines whose comment starts with the value they return
CHECKED = ("blocks.rows", "block_divisors(", "phi(")


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _claim(comment: str) -> str:
    """The value a comment starts with: up to its first ',' or ':' outside brackets."""
    depth = 0
    for i, ch in enumerate(comment):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0 and ch in ",:":
            return comment[:i]
    return comment


def test_readme_cli_examples_exit_0(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # the corpus example names a path under the repo root
    lines = [line for line in _block("CLI", "sh").splitlines() if line.startswith("chevalley ")]
    assert lines
    for line in lines:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(line)[1:])
        assert code == 0, (line, err.getvalue())


def test_readme_quick_tour_values():
    source = _block("Library quick tour", "python")
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        code, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if not any(name in code for name in CHECKED):
            continue
        claim = _claim(comment.strip())
        if claim[:1] in "{[":
            assert ast.literal_eval(claim) == value, code
        else:
            assert claim == repr(value), code
        checked.append(code.strip())
    assert len(checked) == len(CHECKED), checked
