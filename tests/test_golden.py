"""Golden corpus: the CLI's stdout on fixed jobs must not change by a byte.

`tests/golden/corpus.json` holds the exit code and stdout of every job
below.  A refactor that changes any of them changes behaviour.  To
regenerate the corpus on purpose (and review the diff):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from hovm.cli import main

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"

# Two instances per algebra: "res" has orthogonal holes on independent
# integrable nodes (the Koszul and Taylor settings), "dih" has two
# disjoint holes (the dihedral candidate).  Every command runs on both,
# so the validation errors of the settings that do not apply are pinned
# too.
INSTANCES = {
    "A2-res": {"algebra": "A2", "lambda": [0, "x"], "holes": [[1]], "N": 8},
    "A2-dih": {"algebra": "A2", "lambda": [0, 0], "holes": [[1], [2]], "N": 8},
    "B2-res": {"algebra": "B2", "lambda": [1, "x"], "holes": [[1]], "N": 8},
    "B2-dih": {"algebra": "B2", "lambda": [1, 0], "holes": [[1], [2]], "N": 8},
    "C3-res": {"algebra": "C3", "lambda": [0, "x", 1], "holes": [[1], [3]], "N": 6},
    "C3-dih": {"algebra": "C3", "lambda": ["x", 0, 1], "holes": [[2], [3]], "N": 6},
    "D4-res": {
        "algebra": "D4",
        "lambda": [0, "x", 0, 1],
        "holes": [[1, 3], [4]],
        "N": 5,
    },
    "D4-dih": {
        "algebra": "D4",
        "lambda": [0, 0, "x", "x"],
        "holes": [[1], [2]],
        "N": 5,
    },
    "A1^3-res": {
        "algebra": "A1^3",
        "lambda": [0, 0, 0],
        "holes": [[1, 2], [2, 3], [1, 3]],
        "N": 7,
    },
    "A1^3-dih": {
        "algebra": "A1^3",
        "lambda": [1, 0, 0],
        "holes": [[1, 2], [3]],
        "N": 8,
    },
}

COMMANDS = [
    ["char", "--method", "union"],
    ["char", "--method", "inclusion-exclusion"],
    ["char", "--method", "koszul"],
    ["char", "--method", "taylor"],
    ["resolution", "--setting", "koszul"],
    ["resolution", "--setting", "taylor"],
    ["resolution", "--setting", "dihedral"],
    ["check"],
]


def jobs():
    """(id, argv, payload) for every job of the corpus, in a fixed order."""
    out = []
    for name, payload in INSTANCES.items():
        for argv in COMMANDS:
            out.append(("%s %s" % (name, " ".join(argv)), argv, payload))
    verify = ["verify", "--suite", "weights", "--seed", "3", "--trials", "5"]
    out.append((" ".join(verify), verify, None))
    return out


def run_job(argv, payload):
    """Run one CLI job in process; return (exit code, stdout)."""
    stdin = io.StringIO("" if payload is None else json.dumps(payload))
    stdout = io.StringIO()
    saved, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, stdout.getvalue()


@functools.lru_cache(maxsize=None)
def _corpus():
    return {rec["id"]: rec for rec in json.loads(CORPUS.read_text())}


def test_corpus_covers_every_job():
    assert sorted(_corpus()) == sorted(job_id for job_id, _, _ in jobs())


@pytest.mark.parametrize("job_id,argv,payload", jobs(), ids=[j[0] for j in jobs()])
def test_golden(job_id, argv, payload):
    expected = _corpus()[job_id]
    code, stdout = run_job(argv, payload)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    records = []
    for job_id, argv, payload in jobs():
        code, stdout = run_job(argv, payload)
        records.append({"id": job_id, "exit": code, "stdout": stdout})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
