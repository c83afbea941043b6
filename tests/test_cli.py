import json

import pytest

import polynerve as pn
from polynerve.cli import main


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
    ],
    ids=["empty-object", "list", "zero-denominator", "index-out-of-range"],
)
def test_malformed_complex_exits_2(capsys, tmp_path, text):
    path = tmp_path / "K.json"
    path.write_text(text)
    code, out, err = run(capsys, ["subdivide", "-i", str(path)])
    assert code == 2 and out == "" and err.startswith("polynerve: error:")


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


def test_census_rejects_size_zero(capsys):
    code, _, err = run(capsys, ["census", "--size", "0", "--samples", "5"])
    assert code == 2
    assert "size" in err


def test_bad_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["validate", "-i", str(bad)])
    assert code == 2 and err


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


def test_validate_with_formula(capsys, theta_file):
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", "p->p"])
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, ["validate", "-i", theta_file, "--formula", "p|~p"])
    payload = json.loads(out)
    assert code == 1 and payload["result"] is False
    assert payload["counter_valuation"]
