import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polynerve as pn
from polynerve.cli import build_parser, main
from polynerve.errors import MalformedInput
from polynerve.morphisms import SEARCH_BUDGET


@pytest.fixture
def theta_file(tmp_path, theta_frame):
    path = tmp_path / "F.json"
    path.write_text(theta_frame.to_json())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys, theta_file):
    code, out, _ = run(capsys, ["validate", "-i", theta_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == 5 and payload["height"] == 3


def test_nerve_dot_output(capsys, theta_file):
    code, out, _ = run(capsys, ["nerve", "-i", theta_file, "-k", "1", "--dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count('";') >= 19


def test_nerve_json_counts(capsys, theta_file):
    code, out, _ = run(capsys, ["nerve", "-i", theta_file])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 19


def test_jankov_exit_codes(capsys, theta_file, tmp_path, theta_frame):
    code, out, _ = run(capsys, ["jankov", "-i", theta_file, "--target", "2.1"])
    assert code == 0
    assert json.loads(out)["result"] is True

    nerve_file = tmp_path / "NF.json"
    nerve_file.write_text(pn.nerve(theta_frame).to_json())
    code, out, _ = run(capsys, ["jankov", "-i", str(nerve_file), "--target", "2.1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"]["map"]


@pytest.mark.parametrize(
    "verb, target",
    [("connected", "1^1000000000"), ("jankov", "1000000000"), ("jankov", "1^1000000000"), ("jankov", "20000")],
)
def test_targets_larger_than_the_frame_hold_at_once(capsys, theta_file, verb, target):
    # no frame maps onto a larger tree, and a signature's size is read off
    # its entries, so neither the tree nor the heights are built
    start = time.perf_counter()
    code, out, _ = run(capsys, [verb, "-i", theta_file, "--target", target])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["result"] is True


def test_census_with_a_huge_signature(capsys):
    code, out, _ = run(capsys, ["census", "--size", "4", "--samples", "3", "--lambda", "1^1000000000"])
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 3
    assert all(row.endswith(",1^1000000000,true,true,true,true") for row in rows)


def test_jankov_target_of_the_frame_size_is_searched(capsys, tmp_path):
    path = tmp_path / "C.json"
    path.write_text(pn.validate_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]).to_json())
    code, out, _ = run(capsys, ["jankov", "-i", str(path), "--target", "3"])
    assert code == 1 and json.loads(out)["witness"]["map"]["a"] == "r"
    code, out, _ = run(capsys, ["jankov", "-i", str(path), "--target", "4"])
    assert code == 0 and json.loads(out)["result"] is True


def test_contype(capsys, tmp_path):
    poset = pn.validate_poset(["a1", "a2", "b"], [("a1", "a2")])
    path = tmp_path / "P.json"
    path.write_text(poset.to_json())
    code, out, _ = run(capsys, ["contype", "-i", str(path)])
    assert code == 0
    assert json.loads(out)["contype"] == "2.1"


def test_connected_verb(capsys, theta_file):
    code, out, _ = run(capsys, ["connected", "-i", theta_file, "--target", "2.1"])
    assert code == 0 and json.loads(out)["result"] is True


def test_witness_verb(capsys, theta_file):
    code, out, _ = run(capsys, ["witness", "-i", theta_file, "--lambda", "2.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["map"]
    assert payload["trace"]
    output = pn.FinitePoset.from_json(json.dumps(payload["output"]))
    assert pn.is_graded(output) is not None


def test_witness_verb_on_a_frame_labelled_inf(capsys, tmp_path):
    path = tmp_path / "F.json"
    path.write_text('{"elements":["inf","a","b"],"edges":[["inf","a"],["inf","b"]]}')
    code, out, _ = run(capsys, ["witness", "-i", str(path), "--lambda", "2.1"])
    assert code == 0
    assert json.loads(out)["witness"]["map"]


def test_gradify_and_nervify_verbs(capsys, tmp_path, two_track_frame):
    path = tmp_path / "F8.json"
    path.write_text(two_track_frame.to_json())
    code, out, _ = run(capsys, ["gradify", "-i", str(path), "--lambda", "2^2"])
    assert code == 0
    graded = pn.FinitePoset.from_json(json.dumps(json.loads(out)["output"]))
    assert pn.is_graded(graded) is not None

    path2 = tmp_path / "G.json"
    path2.write_text(graded.to_json())
    code, out, _ = run(capsys, ["nervify", "-i", str(path2)])
    assert code == 0


def test_subdivide_and_realize(capsys, tmp_path):
    chain = pn.validate_poset(["a", "b"], [("a", "b")])
    path = tmp_path / "C.json"
    path.write_text(chain.to_json())
    code, out, _ = run(capsys, ["realize", "-i", str(path)])
    assert code == 0
    complex_path = tmp_path / "K.json"
    complex_path.write_text(out)
    code, out, _ = run(capsys, ["subdivide", "-i", str(complex_path), "-k", "1"])
    assert code == 0
    divided = pn.RationalComplex.from_json(out)
    assert len([s for s in divided.simplices if s.dim == 1]) == 2


TETRAHEDRON = json.dumps(
    {
        "dim": 3,
        "vertices": [[[0, 1]] * 3, [[1, 1], [0, 1], [0, 1]], [[0, 1], [1, 1], [0, 1]], [[0, 1], [0, 1], [1, 1]]],
        "simplices": [[0, 1, 2, 3]],
    }
)


def test_subdivide_budget_exits_2(capsys, tmp_path):
    path = tmp_path / "T.json"
    path.write_text(TETRAHEDRON)
    code, _, err = run(capsys, ["subdivide", "--budget", "10", "-i", str(path)])
    assert code == 2 and "budget of 10" in err
    code, out, _ = run(capsys, ["subdivide", "-i", str(path)])
    assert code == 0 and len(json.loads(out)["simplices"]) == 24  # the maximal flags


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        json.dumps({"dim": 1, "vertices": [[[0, 0]], [[1, 1]]], "simplices": [[0, 1]]}),
        json.dumps({"dim": 1, "vertices": [[[0, 1]], [[1, 1]]], "simplices": [[0, 2]]}),
        json.dumps({"dim": 1, "vertices": [[[0, 1]]], "simplices": [[]]}),
        json.dumps({"dim": 1, "vertices": [[[0, 1]], [[1, 1]]], "simplices": [[0, True]]}),
        json.dumps({"dim": 1, "vertices": [[[True, 1]], [[0, 1]]], "simplices": [[0, 1]]}),
        json.dumps({"dim": True, "vertices": [[[0, 1]], [[1, 1]]], "simplices": [[0, 1]]}),
        json.dumps({"dim": 1, "vertices": [[[0, 1, 1]], [[1, 1]]], "simplices": [[0, 1]]}),
        json.dumps({"dim": -1, "vertices": [], "simplices": []}),
        json.dumps({"dim": 3, "vertices": [], "simplices": []}),
        "not json",
        "[" * 200_000,
    ],
    ids=["empty-object", "list", "zero-denominator", "index-out-of-range", "empty-simplex",
         "boolean-index", "boolean-coordinate", "boolean-dim", "coordinate-triple",
         "negative-dim", "empty-with-dim", "not-json", "nested-too-deep"],
)
def test_malformed_complex_exits_2(capsys, tmp_path, text):
    path = tmp_path / "K.json"
    path.write_text(text)
    code, out, err = run(capsys, ["subdivide", "-i", str(path)])
    assert code == 2 and out == "" and err.startswith("polynerve: error:")
    with pytest.raises(MalformedInput):
        pn.RationalComplex.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        json.dumps({"elements": ["a"]}),
        json.dumps({"elements": [1, 2], "edges": []}),
        json.dumps({"elements": "ab", "edges": []}),
        json.dumps({"elements": ["a", "b"], "edges": [["a"]]}),
        json.dumps({"elements": ["a", "b"], "edges": [["a", 2]]}),
    ],
    ids=["empty-object", "list", "missing-edges", "integer-labels", "string-elements",
         "short-edge", "integer-endpoint"],
)
def test_malformed_poset_exits_2(capsys, tmp_path, text):
    path = tmp_path / "F.json"
    path.write_text(text)
    code, out, err = run(capsys, ["validate", "-i", str(path)])
    assert code == 2 and out == "" and err.startswith("polynerve: error:")


@pytest.mark.parametrize("text", ["{}", "[]"])
def test_loaders_raise_malformed_input(text):
    with pytest.raises(MalformedInput):
        pn.FinitePoset.from_json(text)
    with pytest.raises(MalformedInput):
        pn.RationalComplex.from_json(text)


def test_budget_only_on_verbs_that_read_it(capsys, theta_file):
    code, _, err = run(capsys, ["witness", "--budget", "5", "--lambda", "2.1", "-i", theta_file])
    assert code == 2 and "--budget" in err
    code, _, err = run(capsys, ["nerve", "--budget", "5", "-i", theta_file])
    assert code == 2 and "budget of 5" in err  # the nerve has 19 elements
    # reductions onto starlike trees are constructed, so nothing is budgeted
    code, _, err = run(capsys, ["jankov", "--budget", "5", "--target", "2.1", "-i", theta_file])
    assert code == 2 and "--budget" in err


def test_jankov_witness_bytes(capsys, tmp_path, theta_frame):
    path = tmp_path / "NF.json"
    path.write_text(pn.nerve(theta_frame).to_json())
    code, out, _ = run(capsys, ["jankov", "--target", "2.1", "-i", str(path)])
    assert code == 1
    assert out == (
        '{"result": false, "target": "2.1", "verb": "jankov", "witness": {"domain": '
        '["(r|a1|a2|t)", "(r|a1|t)", "(r|a2|t)", "(r|b|t)", "(r|t)"], "map": '
        '{"(r|a1|a2|t)": "b1.2", "(r|a1|t)": "b1.1", "(r|a2|t)": "b1.1", '
        '"(r|b|t)": "b2.1", "(r|t)": "r"}}}\n'
    )
    # a root under a two-chain and two leaves: the surplus leaf joins the
    # first block, so it goes to the top of the long branch
    path.write_text(json.dumps({
        "elements": ["pbb", "tur", "edo", "pmo", "icj"],
        "edges": [["edo", "icj"], ["pmo", "edo"], ["pmo", "tur"], ["pmo", "pbb"]],
    }))
    code, out, _ = run(capsys, ["jankov", "--target", "2.1", "-i", str(path)])
    assert code == 1
    assert out == (
        '{"result": false, "target": "2.1", "verb": "jankov", "witness": {"domain": '
        '["edo", "icj", "pbb", "pmo", "tur"], "map": {"edo": "b1.1", "icj": "b1.2", '
        '"pbb": "b2.1", "pmo": "r", "tur": "b1.2"}}}\n'
    )


def test_iso_verb(capsys, tmp_path, theta_frame):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    a.write_text(theta_frame.to_json())
    b.write_text(theta_frame.to_json())
    code, out, _ = run(capsys, ["iso", "-i", str(a), str(b)])
    assert code == 0
    chain = pn.validate_poset(["p", "q"], [("p", "q")])
    b.write_text(chain.to_json())
    code, out, _ = run(capsys, ["iso", "-i", str(a), str(b)])
    assert code == 1


def test_iso_verb_passes_budget(capsys, tmp_path, double_chain):
    a = tmp_path / "A.json"
    a.write_text(double_chain.to_json())
    code, _, err = run(capsys, ["iso", "--budget", "1", "-i", str(a), str(a)])
    assert code == 2 and "exceeded 1" in err
    code, out, _ = run(capsys, ["iso", "-i", str(a), str(a)])
    assert code == 0 and json.loads(out)["result"] is True
    # without --budget, the library's own default applies
    assert build_parser().parse_args(["iso", "x"]).budget == SEARCH_BUDGET


def test_census_determinism_and_agreement(capsys):
    code, out1, _ = run(
        capsys, ["census", "--size", "5", "--samples", "30", "--seed", "9", "--lambda", "2.1"]
    )
    assert code == 0
    code, out2, _ = run(
        capsys, ["census", "--size", "5", "--samples", "30", "--seed", "9", "--lambda", "2.1"]
    )
    assert out1 == out2
    rows = [line.split(",") for line in out1.strip().splitlines()]
    header, body = rows[0], rows[1:]
    agree = header.index("agree")
    assert body and all(row[agree] == "true" for row in body)


def test_census_output_is_pinned(capsys):
    """The census bytes, pinned: heights, types and witnesses feed every row."""
    code, out, _ = run(
        capsys,
        ["census", "--size", "7", "--samples", "200", "--seed", "0", "--lambda", "2,1^3,2.1,2^2,3.1"],
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5a402a0fb41d10a7e14f56ab1862228bd8df37765571d141453e0a021e460b1a"


def test_census_rejects_size_zero(capsys):
    code, _, err = run(capsys, ["census", "--size", "0", "--samples", "5"])
    assert code == 2
    assert "size" in err


def test_bad_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["validate", "-i", str(bad)])
    assert code == 2 and err


def test_deeply_nested_input_exits_2_without_a_traceback(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "polynerve.cli", "validate", "-i", str(deep)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "polynerve: error: poset JSON nests more than 500 levels deep\n"


def test_output_file(capsys, tmp_path, theta_file):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, ["nerve", "-i", theta_file, "-o", str(out_path)])
    assert code == 0 and out == ""
    assert len(json.loads(out_path.read_text())["elements"]) == 19


def test_validate_with_named_logic(capsys, theta_file):
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--logic", "BD:4"])
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--logic", "BD:3"])
    assert code == 1 and json.loads(out)["result"] is False
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--logic", "SFL:2.1"])
    assert code == 0 and json.loads(out)["result"] is True
    code, _, err = run(capsys, ["validate", "-i", theta_file, "--logic", "XY:1"])
    assert code == 2 and err
    # the depth bound does not set the size of the forbidden chain
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--logic", "BD:1000000000"])
    assert code == 0 and json.loads(out)["result"] is True


@pytest.mark.parametrize(
    "formula", ["~" * 600 + "p", "(" * 501 + "p" + ")" * 501], ids=["negations", "parentheses"]
)
def test_deeply_nested_formula_exits_2(capsys, theta_file, formula):
    code, out, err = run(capsys, ["validate", "-i", theta_file, "--formula", formula])
    assert code == 2 and out == ""
    assert err.startswith("polynerve: error: formula is nested too deeply")
    assert err.count("\n") == 1


def test_250_nested_parentheses_validate(capsys, theta_file):
    formula = "(" * 250 + "p|~p" + ")" * 250
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", formula])
    assert code == 1 and json.loads(out)["counter_valuation"] == {"p": ["t"]}


@pytest.mark.parametrize("op", ["|", "&"], ids=["disjunction", "conjunction"])
def test_flat_1200_term_formula_validates(capsys, tmp_path, theta_file, op):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"elements": ["r"], "edges": []}))
    formula = op.join(["p"] * 1200) + "|~p"
    code, out, _ = run(capsys, ["validate", "-i", str(point), "--formula", formula])
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", formula])
    payload = json.loads(out)
    assert code == 1 and payload["result"] is False
    theta = pn.FinitePoset.from_json(Path(theta_file).read_text())
    refutation = pn.counter_valuation(theta, pn.parse_formula("p|~p"))
    assert payload["counter_valuation"] == {k: sorted(v) for k, v in refutation.items()}


def test_deeply_nested_implications_exit_2(capsys, theta_file):
    formula = "->".join(["p"] * 600)
    code, out, err = run(capsys, ["validate", "-i", theta_file, "--formula", formula])
    assert code == 2 and out == ""
    assert err.startswith("polynerve: error: formula is nested too deeply")


@pytest.mark.parametrize(
    "frame, formula, code, stdout",
    [
        (
            {"elements": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]]},
            "~p|~~p",
            1,
            '{"components": 1, "counter_valuation": {"p": ["a"]}, "elements": 3, '
            '"formula": "~p|~~p", "height": 1, "result": false, "verb": "validate"}\n',
        ),
        (
            {"elements": ["r", "a", "b", "c"], "edges": [["r", "a"], ["r", "b"], ["r", "c"]]},
            "(p0->p1|p2)|(p1->p0|p2)|(p2->p0|p1)",
            1,
            '{"components": 1, "counter_valuation": {"p0": ["a"], "p1": ["b"], "p2": ["c"]}, '
            '"elements": 4, "formula": "(p0->p1|p2)|(p1->p0|p2)|(p2->p0|p1)", "height": 1, '
            '"result": false, "verb": "validate"}\n',
        ),
        (
            {"elements": ["x0", "x1", "x2", "x3"], "edges": [["x0", "x1"], ["x1", "x2"], ["x2", "x3"]]},
            "(p->q)|(q->p)",
            0,
            '{"components": 1, "elements": 4, "formula": "(p->q)|(q->p)", "height": 3, '
            '"result": true, "verb": "validate"}\n',
        ),
    ],
    ids=["fork-KC", "three-fork-BW2", "chain-LC"],
)
def test_validate_formula_output_is_pinned(capsys, tmp_path, frame, formula, code, stdout):
    # the first refuting valuation in enumeration order, byte for byte
    path = tmp_path / "F.json"
    path.write_text(json.dumps(frame))
    assert run(capsys, ["validate", "-i", str(path), "--formula", formula])[:2] == (code, stdout)


def test_validate_with_formula(capsys, theta_file):
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", "p->p"])
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", "p|~p"])
    payload = json.loads(out)
    assert code == 1 and payload["result"] is False
    assert payload["counter_valuation"]
