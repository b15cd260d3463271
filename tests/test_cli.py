import json

import pytest

from hovm.cli import main


def run(capsys, argv, payload=None, tmp_path=None):
    if payload is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        argv = argv + ["--input", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_member_example(capsys, tmp_path):
    code, out = run(
        capsys,
        ["member"],
        {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]], "depth": [1, 1]},
        tmp_path,
    )
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_weights_sorted(capsys, tmp_path):
    code, out = run(
        capsys,
        ["weights", "--height", "3"],
        {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]]},
        tmp_path,
    )
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 3
    ws = data["weights"]
    assert ws == sorted(ws)
    assert [1, 1] not in ws and [0, 3] in ws


def test_order_product_example(capsys, tmp_path):
    code, out = run(
        capsys, ["order-product"], {"algebra": "A5", "holes": [[1], [2, 4]]}, tmp_path
    )
    assert code == 0
    assert json.loads(out) == {"order": 6}


def test_verify_zero_trials(capsys):
    code, out = run(capsys, ["verify", "--suite", "weights", "--trials", "0"])
    assert code == 0
    assert json.loads(out) == {"status": "ok", "trials": 0}


def test_verify_suites_small(capsys):
    for suite in ["weights", "chars", "reciprocity", "kl", "resolutions"]:
        code, out = run(
            capsys, ["verify", "--suite", suite, "--trials", "5", "--seed", "3"]
        )
        assert code == 0, (suite, out)
        assert json.loads(out)["status"] == "ok"


def test_char_methods_agree(capsys, tmp_path):
    payload = {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]], "N": 6}
    chars = {}
    for method in ["union", "inclusion-exclusion", "koszul", "taylor"]:
        code, out = run(capsys, ["char", "--method", method], payload, tmp_path)
        assert code == 0
        chars[method] = json.loads(out)["char"]
    assert len({json.dumps(c, sort_keys=True) for c in chars.values()}) == 1


def test_resolution_taylor(capsys, tmp_path):
    payload = {
        "algebra": "A1^3",
        "lambda": [0, 0, 0],
        "holes": [[1, 2], [2, 3], [1, 3]],
        "N": 5,
    }
    code, out = run(capsys, ["resolution", "--setting", "taylor"], payload, tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["d_squared_zero"]
    assert data["report"]["support_matches_weight_set"]
    assert len(data["levels"]) == 4


def test_resolution_dihedral(capsys, tmp_path):
    payload = {"algebra": "A2", "lambda": [0, 0], "holes": [[1], [2]], "N": 6}
    code, out = run(capsys, ["resolution", "--setting", "dihedral"], payload, tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["order"] == 3
    assert data["report"]["experimental"]


def test_check_consistency(capsys, tmp_path):
    payload = {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]], "N": 6}
    code, out = run(capsys, ["check"], payload, tmp_path)
    assert code == 0
    assert json.loads(out)["consistent"]


def test_approx(capsys, tmp_path):
    payload = {
        "algebra": "A1^3",
        "lambda": [0, 0, 0],
        "holes": [[1, 2], [2, 3], [1, 3]],
        "N": 4,
    }
    code, up = run(
        capsys, ["approx", "--k", "1", "--side", "upper"], payload, tmp_path
    )
    assert code == 0
    assert json.loads(up)["holes"] == []
    code, low = run(
        capsys, ["approx", "--k", "1", "--side", "lower"], payload, tmp_path
    )
    assert json.loads(low)["holes"] == [[1, 2], [1, 3], [2, 3]]


def test_reciprocity_and_kl(capsys, tmp_path):
    payload = {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]]}
    code, out = run(capsys, ["reciprocity"], payload, tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["all_equal"]
    assert data["simple_index"] == [[], [1], [2]]
    code, out = run(capsys, ["kl"], payload, tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["mutually_inverse"]
    assert data["index"] == [[1], [2], [1, 2]]


def test_validation_errors(capsys, tmp_path):
    code, out = run(capsys, ["weights"], {"algebra": "Z9", "lambda": []}, tmp_path)
    assert code == 2
    assert "error" in json.loads(out)
    code, out = run(
        capsys,
        ["weights", "--height", "31"],
        {"algebra": "A1^2", "lambda": [0, 0], "holes": []},
        tmp_path,
    )
    assert code == 2
    code, out = run(
        capsys,
        ["member"],
        {"algebra": "A1^2", "lambda": [0, 0], "holes": [], "depth": [1]},
        tmp_path,
    )
    assert code == 2


V00 = {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]]}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["weights"], {"algebra": "A1^2", "lambda": [1.5, 0], "holes": [[2]], "N": 6}),
        (["weights"], {"algebra": "A1^2", "lambda": [True, 0], "holes": [[2]], "N": 6}),
        (["member"], dict(V00, depth=["a", 1])),
        (["member"], dict(V00, depth=[1.5, 1])),
        (["member"], dict(V00, depth=[True, 1])),
        (["weights"], dict(V00, N=True)),
        (["weights"], dict(V00, N=2.0)),
        (["weights"], dict(V00, holes=[[True, 2]])),
        (["weights"], dict(V00, holes=[[1.0, 2]])),
        (["weights"], dict(V00, holes=[[[1], 2]])),
        (["order-product"], {"algebra": "A4", "holes": [[9], [1]]}),
        (["order-product"], {"algebra": "A4", "holes": [[0], [3]]}),
        (["order-product"], {"algebra": "A4", "holes": [[True], [3]]}),
    ],
)
def test_malformed_values(capsys, tmp_path, argv, payload):
    # never coerced, never a traceback: exit 2 with one JSON error
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert list(json.loads(captured.out)) == ["error"]
    assert captured.err == ""


def test_deterministic_output(capsys, tmp_path):
    payload = {"algebra": "A1^3", "lambda": [1, 0, 0], "holes": [[1, 2], [3]], "N": 7}
    _, out1 = run(capsys, ["weights"], payload, tmp_path)
    _, out2 = run(capsys, ["weights"], payload, tmp_path)
    assert out1 == out2
    _, v1 = run(capsys, ["verify", "--suite", "chars", "--trials", "4", "--seed", "9"])
    _, v2 = run(capsys, ["verify", "--suite", "chars", "--trials", "4", "--seed", "9"])
    assert v1 == v2
