"""Lint steps the suite can run without a linter installed: no module of
the package or of the tests imports a name it never uses, every
module-level function and class of the package and every method and
property of those classes is referenced from the package, the tests or the
benchmark, every one that only the tests use is listed in TEST_ORACLES,
and every defaulted parameter or dataclass field of the package is passed
by some call there (a default nobody overrides is a constant, not a
setting), and no function of the package imports a package module, so
an import cycle cannot hide in a function body.

A name counts as used when it appears as a bare name anywhere in the
module, including as the root of an attribute chain (``np.linalg``), or
when it is listed in ``__all__``.

Every callable that the benchmark wraps by name (``TARGETS`` in
bench/tracing.py, ``FIRST_WORK`` in bench/op.py) must resolve by import
plus getattr, so a deletion cannot silently break a traced run.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nlchns").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
FILES = PACKAGE + TESTS
REFERRERS = FILES + BENCH

# Package names that only the tests call, with the reason each stays.
# Every other name must be used by the package or the benchmark, so a
# second copy of an operator the solver runs cannot hide behind a test.
TEST_ORACLES = (
    ("ch_energy_identity_residual", "energy identity of the CH step alone, "
                                    "checked by the acceptance suite"),
    ("energy_identity_residuals", "coupled energy identity per step, the "
                                  "oracle for the series residual column"),
    ("scheme_law_residuals", "energy law of the convex-split CH step with "
                             "its own chemical potential"),
    ("translate", "time shift of a trajectory, for the semigroup check"),
    ("observed_order", "convergence order fitted in the dt-refinement tests"),
    ("trajectory_metric", "the paper's metric on trajectories, criterion 12"),
    ("momentum_residual", "residual of the discrete momentum equation, the "
                          "consistency oracle of the NS step"),
    ("grad_form_apply", "the componentwise stiffness that grad_form_inverse "
                        "inverts, its round-trip oracle"),
    ("verify_potential_lemmas", "sampled audit of the comparison bounds of F_eps"),
    ("LemmaReport.passed", "verdict of verify_potential_lemmas"),
    ("ScalarField.integral", "quadrature of a field, for the zero-integral "
                             "check of the Laplacian"),
    ("norm_linf", "max norm, tested beside norm_l2 and norm_lp"),
    ("KernelSpec.grad_directional_l1_continuum", "closed form that the "
                                                 "discrete kernel TV approaches"),
)


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
    """(line, name) of every module-level function and class, and of every
    method and property of such a class as ``Class.name``; dunder methods,
    which Python calls, are left out."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _last(name):
    return name.rpartition(".")[2]


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
               for line, name in definitions(p.read_text()) if _last(name) not in used]
    assert not orphans, ", ".join(orphans)


def test_reference_checker_reads_names_attributes_and_dotted_strings():
    source = ("def f(): pass\nclass C: pass\nasync def g(): pass\n"
              "x = mod.attr(y)\nT = ('pkg.mod:Cls', 'two words')\n")
    assert definitions(source) == [(1, "f"), (2, "C"), (3, "g")]
    assert references(source) == {"x", "mod", "attr", "y", "T", "pkg", "Cls"}


def unused_by_program(package_sources, program_sources):
    """Names from definitions() that no bare name or attribute of
    program_sources reads.  Strings do not count: a metric name such as
    ``"kernel.convolve.per_step"`` or a JSON key calls nothing."""
    used = set()
    for source in program_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {name for source in package_sources
            for _, name in definitions(source) if _last(name) not in used}


def test_test_only_names_are_listed():
    texts = {p: p.read_text() for p in REFERRERS}
    found = unused_by_program([texts[p] for p in PACKAGE],
                              [texts[p] for p in PACKAGE + BENCH])
    listed = {name for name, _ in TEST_ORACLES}
    assert len(listed) == len(TEST_ORACLES), "TEST_ORACLES lists a name twice"
    assert not found - listed, (
        "used only by tests, delete or list in TEST_ORACLES: "
        + ", ".join(sorted(found - listed)))
    assert not listed - found, (
        "TEST_ORACLES entries that are gone or that src/ or bench/ now uses: "
        + ", ".join(sorted(listed - found)))


def test_member_checker_reads_methods_and_properties():
    source = ("def f(): pass\nclass C:\n    def __init__(self): pass\n"
              "    def m(self): pass\n    @property\n    def p(self): pass\n")
    assert definitions(source) == [(1, "f"), (2, "C"), (4, "C.m"), (6, "C.p")]
    program = source + "C().m()\nkey = 'p'\n"
    assert unused_by_program([source], [program]) == {"f", "C.p"}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted(args, skip=0):
    """(line, name, position) of the defaulted parameters of an arguments
    node; position is None for keyword-only ones."""
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    out = [(a.lineno, a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.lineno, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def defaulted_parameters(source):
    """(line, callable, parameter, position) of every defaulted parameter of
    a module-level function or class __init__ and every defaulted dataclass
    field, except fields built by field(default_factory=...)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(line, node.name, arg, pos)
                    for line, arg, pos in _defaulted(node.args)]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    out += [(line, node.name, arg, pos)
                            for line, arg, pos in _defaulted(item.args, skip=1)]
            if not _is_dataclass(node):
                continue
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            for pos, item in enumerate(fields):
                factory = (isinstance(item.value, ast.Call)
                           and any(k.arg == "default_factory" for k in item.value.keywords))
                if item.value is not None and not factory:
                    out.append((item.lineno, node.name, item.target.id, pos))
    return out


def passed_arguments(sources):
    """For every callable name that some call uses (``f(...)`` or
    ``obj.f(...)``): the keywords passed and the most positional arguments
    passed.  A ``**kw`` counts as every keyword, a ``*args`` as every
    position."""
    keywords, positions = {}, {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            positions[name] = max(positions.get(name, 0), n)
    return keywords, positions


def unpassed_parameters(package_sources, caller_sources):
    """(line, callable, parameter) of every defaulted parameter that no call
    in caller_sources passes, by keyword or by position."""
    keywords, positions = passed_arguments(caller_sources)
    return [(line, name, arg)
            for source in package_sources
            for line, name, arg, pos in defaulted_parameters(source)
            if not ({arg, None} & keywords.get(name, set())
                    or pos is not None and positions.get(name, 0) > pos)]


def test_every_defaulted_parameter_is_passed():
    texts = {p: p.read_text() for p in REFERRERS}
    callers = list(texts.values())
    unpassed = [f"{p.name}:{line} {name}({arg})" for p in PACKAGE
                for line, name, arg in unpassed_parameters([texts[p]], callers)]
    assert not unpassed, ", ".join(unpassed)


def test_parameter_checker_reads_positions_keywords_and_fields():
    source = ("def f(a, b=1, c=2, *, d=3): pass\n"
              "class C:\n    def __init__(self, x, y=0): pass\n"
              "@dataclass\nclass D:\n    p: int\n    q: int = 0\n"
              "    r: list = field(default_factory=list)\n    s: int = 1\n")
    assert [(n, a, i) for _, n, a, i in defaulted_parameters(source)] == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("C", "y", 1),
        ("D", "q", 1), ("D", "s", 3)]
    callers = source + "f(0, 1)\nm.f(0, d=4)\nC(1)\nD(1, 2)\n"
    assert unpassed_parameters([source], [callers]) == [
        (1, "f", "c"), (3, "C", "y"), (9, "D", "s")]
    assert unpassed_parameters([source], [callers + "D(*xs)\nC(**kw)\nf(c=1)\n"]) == []


def function_package_imports(source):
    """(line, module) of every import inside a function or method body that
    names an nlchns module, relatively (``from .x import y``) or absolutely;
    the module is written as in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Import):
                found.update((inner.lineno, alias.name) for alias in inner.names
                             if alias.name.partition(".")[0] == "nlchns")
            elif isinstance(inner, ast.ImportFrom) and (
                    inner.level or (inner.module or "").partition(".")[0] == "nlchns"):
                found.add((inner.lineno, "." * inner.level + (inner.module or "")))
    return sorted(found)


def test_no_function_imports_the_package():
    found = [f"{p.name}:{line} {module}" for p in PACKAGE
             for line, module in function_package_imports(p.read_text())]
    assert not found, "import these at module top: " + ", ".join(found)


def test_function_import_checker_reads_relative_and_absolute():
    source = ("from . import a\nimport nlchns\n"
              "def f():\n    from .b import c\n    import nlchns.d\n"
              "    from nlchns import e\n    from scipy import optimize\n"
              "    def g():\n        import os\n"
              "class C:\n    def m(self):\n        from .. import h\n")
    assert function_package_imports(source) == [
        (4, ".b"), (5, "nlchns.d"), (6, "nlchns"), (12, "..")]


def bench_table(path, name):
    """The literal tuple that a benchmark module assigns to ``name``, read
    from its source without importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def unresolved(entries):
    """``path.attr`` of every (path, attr) entry, path being "module" or
    "module:name", that import plus getattr cannot resolve."""
    missing = []
    for path, attr in entries:
        module, _, inner = path.partition(":")
        try:
            owner = importlib.import_module(module)
            if inner:
                owner = getattr(owner, inner)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{path}.{attr}")
    return missing


def test_benchmark_wrap_targets_resolve():
    targets = bench_table(ROOT / "bench" / "tracing.py", "TARGETS")
    first_work = bench_table(ROOT / "bench" / "op.py", "FIRST_WORK")
    assert targets and first_work
    missing = unresolved([(path, attr) for _, path, attr in targets]
                         + list(first_work))
    assert not missing, "benchmark wraps names that are gone: " + ", ".join(missing)


def test_target_checker_flags_missing_names():
    assert unresolved([("nlchns.ch_step:ImplicitMap", "invert"),
                       ("nlchns.ch_step:sfft", "dctn"),
                       ("nlchns.ch_step:ImplicitMap", "m"),
                       ("nlchns.ch_step:Gone", "invert"),
                       ("nlchns.gone", "f")]) == [
        "nlchns.ch_step:ImplicitMap.m", "nlchns.ch_step:Gone.invert",
        "nlchns.gone.f"]
