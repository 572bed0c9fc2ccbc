"""Source guards: invariant checks in the package raise, so `python -O` keeps
them, `optimality` keeps its one elimination to itself, `rootsystem` imports
nothing from the package, only `rootsystem` derives squared lengths or
subscripts its root table or walks its height parents, no module reads
its `char_form` view, each field parses its own coefficient strings, the
prime, degree, valued-field and truncation-level rules each raise from one
module, no module keys a Lie element's coefficients by a tagged ("E", a)
or ("H", j) tuple, and no module imports a name it does not use."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chevalley"


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} has assert statements at lines {lines}"


def _imported_modules(name):
    """Dotted names of the modules (and imported names) of src/chevalley/<name>."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "chevalley" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_optimality_imports_neither_snf_nor_linalg():
    # its one elimination, for the Wolfe corral and the sl2 verdict alike,
    # is its own fraction-free solve
    assert not _imported_modules("optimality.py") & {"chevalley.snf", "chevalley.linalg"}
    assert "chevalley.linalg" in _imported_modules("badprimes.py")  # the guard sees imports


def test_rootsystem_imports_no_package_module():
    # the root datum is the package's leaf: no field object and no
    # elimination, both isogenies' Grams come from root sums
    assert not {m for m in _imported_modules("rootsystem.py") if m.split(".")[0] == "chevalley"}
    assert "chevalley.rootsystem" in _imported_modules("lie.py")  # the guard sees relative imports


def _modules_with(found):
    """Names of the modules of src/chevalley/ with an AST node that found accepts."""
    return {p.name for p in SRC.glob("*.py")
            if any(map(found, ast.walk(ast.parse(p.read_text(encoding="utf-8")))))}


def _modules_reading(attr):
    """Names of the modules of src/chevalley/ that read `<expr>.attr`."""
    return _modules_with(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_rootsystem_reads_len_sq():
    # every other module reads the integer table len_num / len_den, so no
    # module re-derives the squared lengths from len_sq's Fractions
    assert _modules_reading("len_sq") == {"rootsystem.py"}  # the guard sees its own reads


def test_only_rootsystem_walks_the_height_parents():
    # every pairing of a vector with all of the roots is rs.degrees; the
    # other modules pair a handful of roots, one pairing row each
    assert _modules_reading("height_parents") == {"rootsystem.py"}
    whole = set()
    for p in SRC.glob("*.py"):
        nodes = list(ast.walk(ast.parse(p.read_text(encoding="utf-8"))))
        one_row = {id(node.value) for node in nodes if isinstance(node, ast.Subscript)
                   and not isinstance(node.slice, ast.Slice)}
        if any(isinstance(node, ast.Attribute) and node.attr == "pairing_rows"
               and id(node) not in one_row for node in nodes):
            whole.add(p.name)
    assert whole == {"rootsystem.py"}  # the guard sees the table's own build
    assert {"grading.py", "optimality.py"} <= _modules_reading("pairing_rows")


def test_no_module_reads_char_form():
    # the form on the simple roots is a Fraction view of the integer Cartan
    # matrix and len_num / len_den; root_form and every other module read those
    assert not _modules_reading("char_form")
    assert _modules_with(lambda node: isinstance(node, ast.FunctionDef)
                         and node.name == "char_form") == {"rootsystem.py"}


def test_only_rootsystem_subscripts_root_index():
    # every other module turns a root into its index through RootSystem.index,
    # which refuses a non-root with one ValueError; `in` and .get reads stay
    assert _modules_with(lambda node: isinstance(node, ast.Subscript)
                         and isinstance(node.value, ast.Attribute)
                         and node.value.attr == "root_index") == {"rootsystem.py"}
    # the guard sees its own subscripts, and reads that are no subscript
    assert {"cli.py", "badprimes.py"} <= _modules_reading("root_index")


def test_cli_parses_no_coefficient_strings():
    # every coefficient string goes to field.element of the field it lands in
    assert "re" not in _imported_modules("cli.py")
    assert "re" in _imported_modules("fields.py")  # the guard sees plain imports


def _modules_raising(phrase):
    """Names of the modules of src/chevalley/ with a raise whose message text holds phrase."""
    return _modules_with(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str) and phrase in part.value
        for part in ast.walk(node)))


def _modules_calling(name):
    """Names of the modules of src/chevalley/ that call `name(...)` or `<expr>.name(...)`."""
    return _modules_with(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_fields_decides_primality():
    # every prime, the corpus's included, goes through fields.check_prime;
    # the guards see fields' own raise and its own is_prime calls
    assert _modules_raising("must be prime") == {"fields.py"}
    assert _modules_calling("is_prime") == {"fields.py"}


def test_only_grading_raises_the_degree_rule():
    # graded_ad's blocks and the sl2 check both gate Y's degree through
    # grading.check_degree (and single_degree, beside it)
    assert _modules_raising("concentrated in") == {"grading.py"}  # the guard sees grading's own


def test_only_fields_raises_the_valued_field_rule():
    # phi, block_report, lattice_image and torus_conjugate call fields.check_valued;
    # no other module words a message about a valuation
    assert _modules_raising("valued field") == {"fields.py"}  # the guard sees fields' own
    assert _modules_raising("valuation") == {"fields.py"}
    assert _modules_calling("check_valued") >= {"fields.py", "gradedmap.py"}


def test_only_gradedmap_raises_the_truncation_level_rule():
    # lattice_image and chevalley snf both call gradedmap.check_truncation_level
    assert _modules_raising("truncation level") == {"gradedmap.py"}
    assert _modules_calling("check_truncation_level") == {"cli.py", "gradedmap.py"}


def _tagged_key(node):
    """A tuple whose first item is the string "E" or "H"."""
    return (isinstance(node, ast.Tuple) and bool(node.elts)
            and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in ("E", "H"))


def test_no_module_builds_a_tagged_basis_key():
    # a Lie element holds its root and Cartan coefficients in two dicts,
    # `roots` and `cartan`, each keyed by a plain index
    sample = 'out[("E", rs.index(root))] = c\nseries == "E" or ("A", 2)\n'
    assert [n.elts[0].value for n in ast.walk(ast.parse(sample)) if _tagged_key(n)] == ["E"]
    assert not _modules_with(_tagged_key)


def _unused_imports(source):
    """Names that source imports and never reads; a name listed in `__all__`
    counts as read, as __init__.py re-exports what it imports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_does_not_read():
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert not {name: found for name, found in unused.items() if found}
    # the guard sees plain, dotted, aliased and from-imports, and __all__
    assert _unused_imports("import os\nimport os.path as osp\nfrom a import b, c as d\n"
                           "__all__ = ['b']\n") == [(1, "os"), (2, "osp"), (3, "d")]
    assert not _unused_imports("from __future__ import annotations\nimport os.path\n"
                               "from x import y\nos.path.join(y)\n")
