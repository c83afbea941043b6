"""Four guards over the package source. No function in the package calls
itself: the parser, the chain walk and the backtracking searches keep
explicit stacks, so their declared limits (MAX_NESTING, the size budget,
the search budget), not the interpreter's recursion limit, decide what they
refuse. The constructions refuse unverified output from one verifier,
one profile check and nervify's final refusal only. Each poset owns its
one upset algebra: nothing else in the package builds one, and geometry
reads open sets through the face poset's algebra, not through semantics.
And every refusal is a PolynerveError: the only builtin exceptions the
package raises are RuntimeError for internal errors and TypeError for
objects that are not formulas."""
import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import polynerve

SOURCES = sorted(Path(polynerve.__file__).parent.glob("*.py"))


def _self_calls(tree):
    """(function name, line) for every call of a function to its own name,
    directly or as a method of self or cls."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((fn.name, node.lineno))
    return found


def test_guard_finds_recursion():
    tree = ast.parse(
        "def walk(k):\n    return walk(k - 1) if k else 0\n"
        "class A:\n    def go(self):\n        def inner():\n            return self.go()\n        return inner\n"
    )
    assert _self_calls(tree) == [("walk", 2), ("go", 6)]


def test_no_function_in_the_package_calls_itself():
    assert len(SOURCES) > 10
    found = {
        path.name: calls for path in SOURCES if (calls := _self_calls(ast.parse(path.read_text())))
    }
    assert found == {}
    assert not any("RecursionError" in path.read_text() for path in SOURCES)


def _postcondition_raises(tree):
    """(function name, line) for every raise of ConstructionPostconditionFailed,
    attributed to each function that encloses it."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ConstructionPostconditionFailed" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                found.append((fn.name, node.lineno))
    return found


def test_guard_finds_postcondition_raises():
    tree = ast.parse(
        "def check(ok):\n    if not ok:\n        raise ConstructionPostconditionFailed('no')\n"
        "def build():\n    def inner():\n        raise errors.ConstructionPostconditionFailed\n"
        "    raise ValueError('other')\n"
    )
    assert _postcondition_raises(tree) == [("check", 3), ("build", 6), ("inner", 6)]


def test_constructions_refuse_through_one_verifier():
    source = Path(polynerve.__file__).parent / "constructions.py"
    names = [name for name, _ in _postcondition_raises(ast.parse(source.read_text()))]
    assert set(names) == {"_verify", "_check_profiles", "nervify"}
    assert names.count("nervify") == 1  # the final refusal, after every candidate


def _algebra_builders(tree):
    """(enclosing function name, line) for every call of UpsetAlgebra, by
    name or as an attribute; None for a call outside any function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "UpsetAlgebra" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            found.append(node)
    owners = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owners[node] = fn.name  # inner functions come later and win
    return [(owners.get(node), node.lineno) for node in found]


def _imports(tree):
    """Every name an import names: modules by their last part, and what is
    imported from them, so that ``from . import semantics`` counts too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
            if getattr(node, "module", None):
                names.add(node.module.split(".")[-1])
    return names


def test_guard_finds_algebra_builders_and_imports():
    tree = ast.parse(
        "from . import semantics\nfrom .semantics import UpsetAlgebra\nimport polynerve.posets\n"
        "a = UpsetAlgebra(p)\n"
        "def f(p):\n    return posets.UpsetAlgebra(p)\n"
    )
    assert _algebra_builders(tree) == [(None, 4), ("f", 6)]
    assert _imports(tree) == {"semantics", "UpsetAlgebra", "posets"}


def test_the_poset_owns_its_upset_algebra():
    builders = {
        path.name: calls for path in SOURCES if (calls := _algebra_builders(ast.parse(path.read_text())))
    }
    assert {name: [fn for fn, _ in calls] for name, calls in builders.items()} == {
        "posets.py": ["_upset_algebra"]
    }
    geometry = Path(polynerve.__file__).parent / "geometry.py"
    assert "semantics" not in _imports(ast.parse(geometry.read_text()))


def _builtin_raises(tree):
    """(exception name, line) for every raise that builds or names a builtin
    exception class; a bare re-raise names none."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        named = getattr(builtins, getattr(exc, "id", ""), None)
        if isinstance(named, type) and issubclass(named, BaseException):
            found.append((exc.id, node.lineno))
    return sorted(found, key=lambda raised: raised[1])


def test_guard_finds_builtin_raises():
    tree = ast.parse(
        "def f(x):\n    if x:\n        raise ValueError('bad')\n    raise KeyError\n"
        "def g():\n    try:\n        pass\n    except OSError:\n        raise\n"
        "    raise errors.MalformedInput('bad') from None\n"
        "raise argparse.ArgumentTypeError('x')\nraise RuntimeError('internal error: y')\n"
    )
    assert _builtin_raises(tree) == [("ValueError", 3), ("KeyError", 4), ("RuntimeError", 12)]


def test_every_refusal_is_a_polynerve_error():
    allowed = ("RuntimeError", "TypeError")
    found = {
        path.name: [(name, line) for name, line in raises if name not in allowed]
        for path in SOURCES
        if (raises := _builtin_raises(ast.parse(path.read_text())))
    }
    assert {name: raises for name, raises in found.items() if raises} == {}


LOW_LIMIT_SCRIPT = """
import sys
from polynerve import FinitePoset, parse_formula
from polynerve.errors import ParseError, SizeBudgetExceeded
from polynerve.formulas import Var
from polynerve.morphisms import _search_up_reduction, exists_monotone_surjection, is_up_reduction

def chain(n):
    return FinitePoset([f"c{i}" for i in range(n)], [(1 << n) - (1 << i) for i in range(n)])

sys.setrecursionlimit(120)
assert parse_formula("(" * 500 + "p" + ")" * 500) == Var("p")
try:
    parse_formula("(" * 501 + "p" + ")" * 501)
    raise AssertionError("501 parentheses parsed")
except ParseError as exc:
    assert "nested too deeply" in str(exc) and exc.position == 501, exc
long = chain(1100)
try:
    sum(1 for _ in long.iter_chain_masks(budget=5000))
    raise AssertionError("the chain budget was not enforced")
except SizeBudgetExceeded:
    pass
assert exists_monotone_surjection(long, chain(1))
witness = _search_up_reduction(chain(150), chain(150))
assert witness is not None and is_up_reduction(witness)
print("ok")
"""


def test_limits_hold_under_a_low_recursion_limit():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", LOW_LIMIT_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
