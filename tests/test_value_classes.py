"""The package's value classes are plain classes: importing the package loads
neither dataclasses nor inspect, and each class keeps the repr, equality,
hash, frozenness and pickling it had as a dataclass. The expected texts
were recorded from the dataclass versions."""
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from polynerve import FinitePoset, PMorphism, Signature
from polynerve.constructions import ConstructionResult
from polynerve.formulas import FALSE, TRUE, And, Const, Imp, Or, Var
from polynerve.geometry import OpenPolyhedralSet, Simplex, upset_to_open, validate_complex


def test_import_loads_neither_dataclasses_nor_inspect():
    script = "import sys, polynerve; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


POINT = FinitePoset(["a"], [1])
IDENTITY = PMorphism(POINT, POINT, frozenset(["a"]), {"a": "a"})
TRIANGLE = Simplex(((0, 0), (1, 0), (Fraction(1, 2), 1)))
POSET_TEXT = "FinitePoset(1 elements, height 0)"
MORPHISM_TEXT = (
    f"PMorphism(source={POSET_TEXT}, target={POSET_TEXT}, domain=frozenset({{'a'}}), mapping={{'a': 'a'}})"
)


def _open_set():
    tri = Simplex(((0, 0), (1, 0), (0, 1)))
    return upset_to_open(validate_complex(tri.faces()), [tri])


# (value, an equal value built anew, an unequal value, its repr, a field, the
# hash the dataclass gave it as a function of the value, or None if unhashable)
CASES = {
    "Var": (Var("p"), lambda: Var("p"), Var("q"), "Var(name='p')", "name", hash),
    "Const": (Const(False), lambda: Const(False), TRUE, "Const(value=False)", "value", hash),
    "And": (
        And(Var("p"), TRUE),
        lambda: And(Var("p"), Const(True)),
        Or(Var("p"), TRUE),
        "And(left=Var(name='p'), right=Const(value=True))",
        "left",
        hash,
    ),
    "Or": (
        Or(Var("q"), FALSE),
        lambda: Or(Var("q"), FALSE),
        Or(FALSE, Var("q")),
        "Or(left=Var(name='q'), right=Const(value=False))",
        "left",
        hash,
    ),
    "Imp": (
        Imp(Var("p"), FALSE),
        lambda: Imp(Var("p"), FALSE),
        Imp(FALSE, Var("p")),
        "Imp(left=Var(name='p'), right=Const(value=False))",
        "right",
        hash,
    ),
    "Signature": (
        Signature.parse("3^2.1"),
        lambda: Signature(((1, 1), (3, 1), (3, 1))),
        Signature.parse("3.1"),
        "Signature('3^2.1')",
        "entries",
        lambda s: hash((s.entries,)),
    ),
    "PMorphism": (
        IDENTITY,
        lambda: PMorphism(POINT, FinitePoset(["a"], [1]), frozenset(["a"]), {"a": "a"}),
        PMorphism(POINT, POINT, frozenset(), {}),
        MORPHISM_TEXT,
        "mapping",
        lambda f: hash((f.source, f.target, f.domain)),
    ),
    "Simplex": (
        TRIANGLE,
        lambda: Simplex([(1, 0), (Fraction(1, 2), 1), (0, 0)]),
        Simplex(((0, 0), (1, 0))),
        "Simplex(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 1)),"
        " (Fraction(1, 1), Fraction(0, 1))))",
        "vertices",
        lambda s: hash((s.vertices,)),
    ),
    "OpenPolyhedralSet": (
        _open_set(),
        _open_set,
        OpenPolyhedralSet(_open_set().complex, ()),
        "OpenPolyhedralSet(complex=RationalComplex(7 simplices in Q^2), _mask=64)",
        "_mask",
        lambda u: hash((u.complex, u._mask)),
    ),
    "ConstructionResult": (
        ConstructionResult(POINT, IDENTITY, [{"step": "x"}]),
        lambda: ConstructionResult(POINT, IDENTITY, [{"step": "x"}]),
        ConstructionResult(POINT, IDENTITY),
        f"ConstructionResult(output={POSET_TEXT}, witness={MORPHISM_TEXT}, trace=[{{'step': 'x'}}])",
        "trace",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_former_dataclasses_keep_their_behaviour(name):
    value, build, other, text, field, hashed = CASES[name]
    again = build()
    assert again is not value
    assert repr(value) == repr(again) == text
    assert value == again and not value != again
    assert value != other and not value == other
    assert value.__eq__(42) is NotImplemented and value != 42
    if hashed is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(again) == hashed(value)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == text
    if hashed is not None:
        assert hash(copy) == hash(value)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"ConstructionResult"}))
def test_former_frozen_dataclasses_stay_frozen(name):
    value, _, _, text, field, _ = CASES[name]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert repr(value) == text


def test_construction_results_stay_mutable():
    result = ConstructionResult(POINT, IDENTITY)
    assert result.trace == [] and result.trace is not ConstructionResult(POINT, IDENTITY).trace
    result.trace.append({"step": "x"})
    result.output = FinitePoset(["b"], [1])
    assert result != ConstructionResult(POINT, IDENTITY, [{"step": "x"}])
