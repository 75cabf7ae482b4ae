"""Lint steps the suite can run without a linter installed: no module of
the package or of the tests imports a name it never uses, and every
module-level function and class of the package is referenced from the
package, the tests or the benchmark.

A name counts as used when it appears as a bare name anywhere in the
module, including as the root of an attribute chain (``np.linalg``), or
when it is listed in ``__all__``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nlchns").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
REFERRERS = FILES + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source):
    """(line, name) of every import binding that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    found = unused_imports(path.read_text())
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)


def test_checker_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


def test_checker_counts_all_and_attribute_roots():
    source = ("import os.path\nfrom x import y\n__all__ = ['y']\n"
              "os.path.join('a')\n")
    assert unused_imports(source) == []


def definitions(source):
    """(line, name) of every module-level function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(source):
    """Every name the module reads: bare names, attribute names, and the
    parts of a dotted string such as ``"nlchns.ch_step:ImplicitMap"``, the
    form in which the benchmark names the callables it wraps."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.:]+", node.value)):
            names.update(re.split(r"[.:]", node.value))
    return names


def test_every_definition_is_referenced():
    used = set().union(*(references(p.read_text()) for p in REFERRERS))
    orphans = [f"{p.name}:{line} {name}" for p in PACKAGE
               for line, name in definitions(p.read_text()) if name not in used]
    assert not orphans, ", ".join(orphans)


def test_reference_checker_reads_names_attributes_and_dotted_strings():
    source = ("def f(): pass\nclass C: pass\nasync def g(): pass\n"
              "x = mod.attr(y)\nT = ('pkg.mod:Cls', 'two words')\n")
    assert definitions(source) == [(1, "f"), (2, "C"), (3, "g")]
    assert references(source) == {"x", "mod", "attr", "y", "T", "pkg", "Cls"}
