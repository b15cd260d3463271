import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hovm.cli import main
from hovm.rootdata import parse_gcm

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


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


def test_order_product_without_holes(capsys, tmp_path):
    # the empty product restricts to the 0x0 matrix, which is of finite type
    code, out = run(capsys, ["order-product"], {"algebra": "A1", "holes": []}, tmp_path)
    assert code == 0
    assert json.loads(out) == {"order": 1}


def test_koszul_on_a61(capsys, tmp_path):
    # A_n is of finite type for every n: no root-height cap refuses A61
    payload = {"algebra": "A61", "lambda": [0] + ["x"] * 60, "holes": [[1]], "N": 2}
    code, out = run(capsys, ["char", "--method", "koszul"], payload, tmp_path)
    assert code == 0
    mults = {tuple(t["depth"]): t["mult"] for t in json.loads(out)["char"]["terms"]}

    def e(*nodes):
        return tuple(nodes.count(i) for i in range(1, 62))

    assert mults[e()] == 1 and e(1) not in mults and mults[e(1, 2)] == 1


def _never(*args, **kwargs):
    raise AssertionError("enumerated past the cap")


@pytest.mark.parametrize(
    "argv,payload,builder",
    [
        # 16 minimal transversals: 2^16 - 1 inclusion-exclusion terms
        (["char", "--method", "inclusion-exclusion"],
         {"algebra": "A1^8", "lambda": [0] * 8,
          "holes": [[1, 2], [3, 4], [5, 6], [7, 8]], "N": 4},
         "hovm.weightsets.dot_orbit_terms"),
        # 16 holes: 2^16 Koszul levels
        (["char", "--method", "koszul"],
         {"algebra": "A1^16", "lambda": [0] * 16,
          "holes": [[i] for i in range(1, 17)], "N": 4},
         "hovm.resolutions.lambda_H"),
        # C(22, 11) independent 11-subsets: the lower approximation at k = 10
        (["approx", "--k", "10", "--side", "lower"],
         {"algebra": "A1^22", "lambda": [0] * 22, "holes": [], "N": 1},
         "hovm.weightsets.weight_set"),
    ],
)
def test_enumeration_caps(capsys, tmp_path, monkeypatch, argv, payload, builder):
    # refused with exit 2 before a single term or level is built
    monkeypatch.setattr(builder, _never)
    code, out = run(capsys, argv, payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"].startswith("enumeration cap")


def test_alternate_union_cap(capsys, tmp_path, monkeypatch):
    # 2^13 subsets of J_lambda: `check` exits 2 before the alternate union
    # enumerates a single one
    monkeypatch.setattr(
        "hovm.weightsets.itertools", types.SimpleNamespace(combinations=_never)
    )
    payload = {"algebra": "A1^13", "lambda": [0] * 13, "holes": [[1]], "N": 1}
    code, out = run(capsys, ["check"], payload, tmp_path)
    assert code == 2
    assert json.loads(out)["error"].startswith("enumeration cap")


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "nosuch"], ["verify", "--suite", "weights", "--trials", "-3"]]
)
def test_malformed_verify_args(capsys, argv):
    # the parser takes any suite name and count; run_suite and cmd_verify
    # refuse them like any validation error: exit 2 with one JSON error
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert list(json.loads(captured.out)) == ["error"]
    assert captured.err == ""


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


def _drop_least(f):
    return lambda *args: set(sorted(f(*args))[1:])


def _doubled(f):
    return lambda *args: f(*args) + f(*args)


@pytest.mark.parametrize(
    "suite,target,spoil,what",
    [
        ("weights", "hovm.verify.weight_set", _drop_least, "weight_set"),
        ("weights", "hovm.verify.weight_set_minkowski", _drop_least,
         "weight_set_minkowski"),
        ("chars", "hovm.verify.inclusion_exclusion_char", _doubled,
         "inclusion_exclusion_char"),
        ("resolutions", "hovm.resolutions.verify_complex",
         lambda f: lambda res: False, "verify_complex"),
        ("resolutions", "hovm.resolutions.euler_char", _doubled, "taylor_euler_char"),
        ("reciprocity", "hovm.cat_o.reciprocity_table",
         lambda f: lambda bh: {k: dict(v, equal=False) for k, v in f(bh).items()},
         "reciprocity"),
        ("reciprocity", "hovm.verify.oracle_jh", lambda f: lambda mod: f(mod)[1:],
         "oracle_jh"),
        ("kl", "hovm.cat_o.kl_bases",
         lambda f: lambda bh: dict(f(bh), product=dict.fromkeys(f(bh)["product"], 0)),
         "kl_inversion"),
        ("kl", "hovm.verify.oracle_simple_char", _doubled, "kl_signed_characters"),
    ],
)
def test_verify_mismatch(capsys, monkeypatch, suite, target, spoil, what):
    # one library answer made wrong: the suite names the failing check and
    # its instance, and the CLI exits 3
    from hovm.verify import run_suite

    home, _, name = target.rpartition(".")
    monkeypatch.setattr(target, spoil(getattr(importlib.import_module(home), name)))
    report = run_suite(suite, 0, 30)
    assert report["status"] == "mismatch" and report["what"] == what, report
    assert set(report["instance"]) == {"n", "lambda", "holes"}
    code, out = run(capsys, ["verify", "--suite", suite, "--trials", "30"])
    assert code == 3 and json.loads(out) == json.loads(json.dumps(report))


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


def test_approx_lower_sparse_independent_sets(capsys, tmp_path):
    # 14 of the C(26, 13) 13-subsets of the A26 path are independent; the
    # walk only grows branches that can still reach one
    payload = {"algebra": "A26", "lambda": [0] * 26, "holes": [], "N": 1}
    start = time.perf_counter()
    code, out = run(capsys, ["approx", "--k", "12", "--side", "lower"], payload, tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert len(json.loads(out)["holes"]) == 14


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


@pytest.mark.parametrize("command", ["member", "reciprocity", "kl", "order-product"])
@pytest.mark.parametrize("flag", [["--height", "7"], ["--allow-large-height"]])
def test_height_flags_only_where_read(capsys, command, flag):
    # these subcommands take no cutoff, so the flags are refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main([command] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
        (["weights"], dict(V00, holes=[[1, 1]])),  # not read as the hole [1]
        (["approx", "--k", "-1", "--side", "lower"], V00),  # read as the zero module
        (["approx", "--k", "-1", "--side", "upper"], V00),  # read as the Verma module
        (["order-product"], {"algebra": "A4", "holes": [[9], [1]]}),
        (["order-product"], {"algebra": "A4", "holes": [[0], [3]]}),
        (["order-product"], {"algebra": "A4", "holes": [[True], [3]]}),
        (["order-product"], {"algebra": [[2, -2], [-2, 2]], "holes": [[1], [2]]}),
        # Cartan matrices are taken as given: no float, string or bool entry,
        # no rank 0
        (["weights"], {"algebra": [[2.0, -1.7], [-1, 2]], "lambda": [0, 0], "N": 2}),
        (["weights"], {"algebra": [[2, "-1"], ["-1", 2]], "lambda": [0, 0], "N": 2}),
        (["weights"], {"algebra": [[2, True], [True, 2]], "lambda": [0, 0], "N": 2}),
        (["weights"], {"algebra": "A1^0", "lambda": [], "N": 2}),
        (["weights"], {"algebra": "A1^0xA2", "lambda": [0, 0], "N": 2}),
        (["weights"], {"algebra": [], "lambda": [], "N": 2}),
        (["weights"], {"algebra": "A0", "lambda": [], "N": 2}),
        # lambda must be an array (an object is not read as its keys), the
        # algebra a type string or an array of rows
        (["weights"], {"algebra": "A1", "lambda": {"x": 5}, "holes": [], "N": 2}),
        (["weights"], {"algebra": "A1", "lambda": None, "holes": [], "N": 2}),
        (["weights"], {"algebra": 7, "lambda": [0], "holes": [], "N": 2}),
        (["weights"], {"algebra": None, "lambda": [0], "holes": [], "N": 2}),
    ],
)
def test_malformed_values(capsys, tmp_path, argv, payload):
    # never coerced, never a traceback: exit 2 with one JSON error, which is
    # not the text of a Python TypeError
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert list(error) == ["error"]
    assert "object is not iterable" not in error["error"]
    assert captured.err == ""


def test_deterministic_output(capsys, tmp_path):
    payload = {"algebra": "A1^3", "lambda": [1, 0, 0], "holes": [[1, 2], [3]], "N": 7}
    _, out1 = run(capsys, ["weights"], payload, tmp_path)
    _, out2 = run(capsys, ["weights"], payload, tmp_path)
    assert out1 == out2
    _, v1 = run(capsys, ["verify", "--suite", "chars", "--trials", "4", "--seed", "9"])
    _, v2 = run(capsys, ["verify", "--suite", "chars", "--trials", "4", "--seed", "9"])
    assert v1 == v2


def _cli_process(argv, payload, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "hovm.cli"] + argv,
        stdin=subprocess.PIPE,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


AFFINE = [[2, -2], [-2, 2]]


@pytest.mark.parametrize(
    "lam,holes", [([0, 0], [[1], [2]]), ([0, 0], [[1]]), ([1, -1], [[1]])]
)
@pytest.mark.parametrize(
    "argv", [["weights"], ["check"], ["member"], ["char", "--method", "koszul"]]
)
def test_affine_jobs_exit_cleanly(argv, lam, holes):
    # A1^(1) is outside finite type: each job answers or exits 2 with one
    # JSON error, fast and without a traceback (the Levi on J = {1, 2} is
    # affine, so its slice test is refused rather than answered)
    payload = {"algebra": AFFINE, "lambda": lam, "holes": holes, "N": 4, "depth": [1, 1]}
    proc = _cli_process(argv, payload)
    out, err = proc.communicate(json.dumps(payload), timeout=5)
    assert proc.returncode in (0, 2), err
    data = json.loads(out)
    assert (proc.returncode == 2) == (list(data) == ["error"])
    assert "Traceback" not in err
    if lam == [0, 0] and holes == [[1], [2]]:
        assert proc.returncode == 2  # not the wrong weights of the trivial L(0)
    if lam == [1, -1] and argv == ["weights"]:
        assert proc.returncode == 0
        assert data["weights"] == [
            [0, 0], [0, 1], [0, 2], [0, 3], [0, 4], [1, 0],
            [1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 1],
        ]


@pytest.mark.parametrize(
    "algebra,lam,depth,member",
    [
        ("A6", [6] * 6, [6, 10, 12, 12, 10, 6], True),
        ("E8", [3] * 8, [50] * 8, False),
    ],
)
def test_tall_member_is_fast(algebra, lam, depth, member):
    # member has no cap on the depth: its test must stay linear in the depth
    # height (56 and 400 here), not grow with the number of depths below it
    holes = [[i] for i in range(1, len(lam) + 1)]
    payload = {"algebra": algebra, "lambda": lam, "holes": holes, "depth": depth}
    proc = subprocess.run(
        [sys.executable, "-m", "hovm.cli", "member"],
        input=json.dumps(payload), capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"member": member}


def test_broken_pipe_exits_quietly():
    # about 2 MB of output: the reader closes the pipe long before the end
    payload = {"algebra": "A1^4", "lambda": ["x"] * 4, "holes": [], "N": 30}
    proc = _cli_process(["weights"], payload)
    proc.stdin.write(json.dumps(payload))
    proc.stdin.close()
    assert proc.stdout.read(150)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=30) == 1
    assert err == ""


FUZZ_ALGEBRAS = [
    "A1", "A1^2", "A1^3", "A2", "B2", AFFINE, [[2, -3], [-3, 2]],
]
FUZZ_ARGV = [
    ["weights"], ["member"], ["check"], ["approx", "--k", "1", "--side", "lower"],
    ["approx", "--k", "2", "--side", "upper"], ["reciprocity"], ["kl"],
    ["order-product"],
] + [["char", "--method", m] for m in ("union", "inclusion-exclusion", "koszul", "taylor")] + [
    ["resolution", "--setting", s] for s in ("koszul", "taylor", "dihedral")
]
_JUNK = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.sampled_from(["x", "a", "", "1"]),
    st.none(),
)


@st.composite
def _fuzz_job(draw):
    """(argv, payload): a small well-formed job, and in five cases of eight
    one spike: an entry of lambda, a hole or depth, or N, replaced by a
    float, bool, string or null, or one key dropped."""
    algebra = draw(st.sampled_from(FUZZ_ALGEBRAS))
    n = parse_gcm(algebra).n
    entries = st.one_of(st.integers(-1, 3), st.just("x"))
    payload = {
        "algebra": algebra,
        "lambda": draw(st.lists(entries, min_size=n, max_size=n)),
        "holes": draw(st.lists(st.lists(st.integers(1, n), min_size=1, max_size=2),
                               max_size=3)),
        "N": draw(st.integers(0, 4)),
        "depth": draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
    }
    target = draw(st.sampled_from(["", "", "", "lambda", "depth", "holes", "N", "drop"]))
    if target == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif target == "N":
        payload["N"] = draw(_JUNK)
    elif target in ("lambda", "depth"):
        payload[target][draw(st.integers(0, n - 1))] = draw(_JUNK)
    elif target == "holes" and payload["holes"]:
        hole = draw(st.sampled_from(payload["holes"]))
        hole[draw(st.integers(0, len(hole) - 1))] = draw(_JUNK)
    return draw(st.sampled_from(FUZZ_ARGV)), payload


def _run_in_process(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_job())
def test_fuzz_every_subcommand(job):
    argv, payload = job
    code, out, err = _run_in_process(argv, json.dumps(payload))
    assert code in (0, 2, 3), (argv, payload, out, err)
    json.loads(out)  # exactly one JSON document
    assert err == ""


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.sampled_from(["weights", "chars", "resolutions", "reciprocity", "kl"]),
       st.integers(0, 10**6), st.integers(0, 2))
def test_fuzz_verify(suite, seed, trials):
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]
    code, out, err = _run_in_process(argv, "")
    assert code in (0, 3)
    assert json.loads(out)["status"] in ("ok", "mismatch")
    assert err == ""


def _hovm_modules_after(code, stdin=""):
    """The hovm modules a fresh process has loaded once `code` has run."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hovm')),"
        " file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=30, check=True,
    )
    return {m.partition(".")[2] for m in json.loads(proc.stderr)} - {""}


def test_import_loads_only_the_core():
    # every fresh process pays for what `import hovm` compiles and runs, so
    # it resolves its public names on first use and loads no submodule
    assert _hovm_modules_after("import hovm") == set()


def test_lazy_public_names():
    import hovm

    for name in hovm.__all__:
        home = importlib.import_module("hovm." + hovm._HOME[name])
        assert getattr(hovm, name) is getattr(home, name), name
    namespace = {}
    exec("from hovm import *", namespace)
    assert set(hovm.__all__) <= set(namespace)
    assert set(hovm.__all__) <= set(dir(hovm))
    with pytest.raises(AttributeError):
        hovm.no_such_name
    with pytest.raises(ImportError):
        exec("from hovm import no_such_name", {})


@pytest.mark.parametrize(
    "argv,payload,absent",
    [
        (["order-product"], {"algebra": "A5", "holes": [[1], [2, 4]]},
         {"weightsets", "characters", "resolutions", "cat_o", "oracle", "verify"}),
        (["weights"], {"algebra": "A4", "lambda": [1, 0, 2, -1], "holes": [[1], [3]]},
         {"resolutions", "cat_o", "oracle", "verify", "weyl"}),
        (["verify", "--suite", "weights", "--trials", "2"], {},
         {"cat_o", "resolutions", "weyl"}),
    ],
)
def test_subcommand_footprint(argv, payload, absent):
    # each job is a fresh process that loads only the modules it uses
    code = "from hovm.cli import main\nmain(%r)" % (argv,)
    loaded = _hovm_modules_after(code, json.dumps(payload))
    assert "cli" in loaded and not loaded & absent, sorted(loaded & absent)


def test_cli_import_loads_no_fractions():
    # every CLI start pays for its imports; the oracles work in integers
    code = "import sys, hovm.cli\nprint('fractions' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=30, check=True,
    )
    assert proc.stdout.strip() == "False"


DEMOS = sorted((pathlib.Path(SRC).parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
