"""Workload finite_cli: a fixed list of `hovm` jobs, each in a fresh process.

Every job reads its JSON from stdin, as a user's shell pipeline would, so
every cache starts cold.  One round is the whole list in a seeded order;
the seed changes nothing else, so every run attempts whole rounds of the
same operations.  F1 to F3 are malformed inputs that must exit 2 with one
JSON error object; each fails today and is counted in `failed`.
"""

import itertools
import json
import random
import subprocess
import sys

import reference as ref
import tracing
from common import Op, child_env, process_setup_times

TAIL_PCT = 80
CLI = [sys.executable, "-m", "hovm.cli"]
TRIVIAL_JOB = (["order-product"], {"algebra": "A1", "holes": []})

SL2N = ("A1^4",)
A4_ORTH = {"algebra": "A4", "lambda": [1, 0, 2, -1], "holes": [[1], [3]]}
C3_ORTH = {"algebra": "C3", "lambda": [1, -1, 2], "holes": [[1], [3]]}
E6_ORTH = {"algebra": "E6", "lambda": [1, "x", 0, -1, 2, 0], "holes": [[1], [5]]}
A14_CHAIN = {"algebra": "A1^4", "lambda": [1, 0, 2, 0], "holes": [[1, 2], [2, 3], [3, 4]]}
A14_X = {"algebra": "A1^4", "lambda": [1, "x", 2, 0], "holes": [[1, 3], [3, 4]]}
A14_BLOCK = {"algebra": "A1^4", "lambda": [1, -3, 2, 0], "holes": [[1, 2], [3, 4]]}

# (argv, payload, kind, fault); payload None means an empty stdin
JOBS = [
    (["weights"], {"algebra": "A1^4", "lambda": [0, "x", 1, -1], "holes": [[1], [3]],
                   "N": 30}, "weights", None),
    (["weights"], dict(A4_ORTH, N=10), "weights", None),
    (["weights"], {"algebra": "B3", "lambda": [1, 0, 2], "holes": [[1, 3]], "N": 10},
     "weights", None),
    (["weights"], dict(E6_ORTH, N=10), "weights", None),
    (["member"], {"algebra": "D4", "lambda": [1, 0, 2, 1], "holes": [[1, 3, 4]],
                  "depth": [3, 4, 2, 2]}, "member", None),
    (["member"], dict(A14_CHAIN, depth=[2, 0, 3, 5]), "member", None),
    (["member"], dict(A4_ORTH, depth=[1, 2, 1, 0]), "member", None),
    (["member"], dict(E6_ORTH, depth=[1, 1, 1, 1, 0, 0]), "member", None),
    (["member"], dict(C3_ORTH, depth=[2, 1, 3]), "member", None),
    (["check"], {"algebra": "A4", "lambda": [1, 0, 2, -1], "holes": [[1, 3], [2]], "N": 8},
     "check", None),
    (["check"], {"algebra": "B3", "lambda": [1, "x", 2], "holes": [[1, 3]], "N": 10},
     "check", None),
    (["check"], dict(E6_ORTH, N=8), "check", None),
    (["char", "--method", "union"], dict(A14_X, N=16), "char01", None),
    (["char", "--method", "inclusion-exclusion"], dict(A14_X, N=10), "char01", None),
    (["char", "--method", "koszul"], dict(C3_ORTH, N=10), "koszul", None),
    (["char", "--method", "koszul"], dict(E6_ORTH, N=8), "koszul", None),
    (["char", "--method", "taylor"], dict(A14_CHAIN, N=10), "taylor", None),
    (["resolution", "--setting", "koszul"], {"algebra": "D4", "lambda": [1, 0, 2, 1],
                                             "holes": [[1], [3, 4]], "N": 8},
     "resolution", None),
    (["resolution", "--setting", "taylor"], {"algebra": "A4", "lambda": [0, -1, 2, "x"],
                                             "holes": [[1], [3]], "N": 8},
     "resolution", None),
    (["resolution", "--setting", "dihedral"], {"algebra": "A4", "lambda": [0, 0, 0, -1],
                                               "holes": [[1], [2]], "N": 8},
     "dihedral", None),
    (["approx", "--k", "1", "--side", "lower"], dict(A14_CHAIN, N=12), "approx", None),
    (["approx", "--k", "1", "--side", "upper"], dict(A14_X, N=14), "approx", None),
    (["order-product"], {"algebra": "E6", "holes": [[1, 4, 6], [2, 3], [5]]},
     "order", None),
    (["order-product"], {"algebra": "A4", "holes": [[1], [2, 4]]}, "order", None),
    (["order-product"], {"algebra": "D4", "holes": [[1, 3, 4], [2]]}, "order", None),
    (["reciprocity"], A14_BLOCK, "reciprocity", None),
    (["reciprocity"], {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]]},
     "reciprocity", None),
    (["kl"], A14_BLOCK, "kl", None),
    (["kl"], {"algebra": "A1^3", "lambda": [0, -2, 1], "holes": [[1, 2], [2, 3]]}, "kl", None),
    (["verify", "--suite", "weights", "--seed", "3", "--trials", "5"], None, "verify", None),
    (["weights"], {"algebra": "A1^2", "lambda": [1.5, 0], "holes": [[2]], "N": 6},
     "error", "F1"),
    (["member"], {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]],
                  "depth": ["a", 1]}, "error", "F2"),
    (["weights"], {"algebra": "A1^2", "lambda": [0, 0], "holes": [[1, 2]], "N": True},
     "error", "F3"),
]


class _References:
    """Untimed reference data, kept across rounds: partition tables by
    (algebra, N) and alternating characters by job."""

    def __init__(self):
        self.tables = {}
        self.chars = {}

    def table(self, algebra, N):
        key = (algebra, N)
        if key not in self.tables:
            self.tables[key] = ref.PartitionTable(algebra, N)
        return self.tables[key]

    def alternating(self, p, N):
        key = json.dumps(p, sort_keys=True) + str(N)
        if key not in self.chars:
            self.chars[key] = ref.alternating_char(
                self.table(p["algebra"], N), p["lambda"], p["holes"], N)
        return self.chars[key]


def _weight_set(refs, p, N):
    """Reference weight set: the monomial model over sl2^n; elsewhere the
    support of the alternating sum, which is the weight set for pairwise
    orthogonal holes (the jobs use no others there)."""
    if p["algebra"] in SL2N:
        return ref.monomial_weights(p["lambda"], p["holes"], N)
    return set(refs.alternating(p, N))


def _terms(char_json):
    return {tuple(t["depth"]): t["mult"] for t in char_json["terms"]}


def _checker(kind, p, refs):
    """Check of one job's parsed stdout; returns None or a reason."""

    def weights(out):
        want = sorted(list(c) for c in _weight_set(refs, p, p["N"]))
        return None if out["weights"] == want and out["N"] == p["N"] else "weights differ"

    def member(out):
        depth = tuple(p["depth"])
        want = depth in _weight_set(refs, p, sum(depth))
        return None if out["member"] == want else "membership differs"

    def check(out):
        ok = out["consistent"] is True and all(out["checks"].values())
        return None if ok else "weight-set formulas disagree"

    def char01(out):
        want = dict.fromkeys(ref.monomial_weights(p["lambda"], p["holes"], p["N"]), 1)
        return None if _terms(out["char"]) == want else "character differs from the model"

    def alternating(out, nonneg):
        got = _terms(out["char"] if "char" in out else out["euler_char"])
        if got != refs.alternating(p, p["N"]):
            return "character differs from the alternating partition sum"
        if nonneg and min(got.values()) < 0:
            return "negative Koszul Euler character"
        return None

    def resolution(out):
        if not all(out["report"].values()):
            return "resolution report not all true"
        hs = ref.minimal(p["holes"])
        want = sorted(
            list(ref.hole_exponent(p["lambda"], frozenset().union(*S)))
            for t in range(len(hs) + 1) for S in itertools.combinations(hs, t)
        )
        got = sorted(m["weight"] for lv in out["levels"] for m in lv["modules"])
        return alternating(out, False) or (None if got == want else "level weights differ")

    def dihedral(out):
        if not all(out["report"].values()):
            return "dihedral report not all true"
        table = refs.table(p["algebra"], p["N"])
        want = {}
        for lv in out["levels"]:
            for w in lv["weights"]:
                for c in ref.vectors(len(w), p["N"]):
                    d = tuple(a - b for a, b in zip(c, w))
                    if min(d) >= 0:
                        want[c] = want.get(c, 0) + (-1) ** lv["t"] * table(d)
        want = {c: m for c, m in want.items() if m}
        return None if _terms(out["euler_char"]) == want else "dihedral character differs"

    def approx(out):
        J = ref.integrable_nodes(p["lambda"])
        holes = ref.order_k_holes(p["holes"], p["k"], J, p["side"])
        want = sorted(list(c) for c in ref.monomial_weights(p["lambda"], holes, p["N"]))
        if out["holes"] != [sorted(h) for h in holes]:
            return "approximation holes differ"
        return None if out["weights"] == want else "approximation weights differ"

    def order(out):
        want = ref.order_of_product(p["algebra"], p["holes"])
        return None if out["order"] == want else "order differs"

    def reciprocity(out):
        return None if out["all_equal"] is True else "reciprocity fails"

    def kl(out):
        t_in_c = [r["coeffs"] for r in out["T_in_C"]]
        c_in_t = [r["coeffs"] for r in out["C_in_T"]]
        k = len(out["index"])
        prod_ok = all(
            sum(c_in_t[i][l] * t_in_c[l][j] for l in range(k)) == int(i == j)
            for i in range(k) for j in range(k)
        )
        return None if out["mutually_inverse"] is True and prod_ok else "KL not inverse"

    def verify(out):
        return None if out.get("status") == "ok" else "verify suite reports a mismatch"

    return {
        "weights": weights, "member": member, "check": check, "char01": char01,
        "koszul": lambda out: alternating(out, True),
        "taylor": lambda out: alternating(out, False),
        "resolution": resolution, "dihedral": dihedral, "approx": approx,
        "order": order, "reciprocity": reciprocity, "kl": kl, "verify": verify,
    }[kind]


def _check_job(kind, payload, refs):
    check_out = None if kind == "error" else _checker(kind, payload, refs)

    def check(result):
        code, stdout, stderr = result
        if "Traceback" in stderr:
            return "traceback on stderr, exit %d" % code
        try:
            out = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document, exit %d" % code
        if kind == "error":
            ok = code == 2 and isinstance(out, dict) and list(out) == ["error"]
            return None if ok else "expected exit 2 with a JSON error, got exit %d" % code
        if code != 0:
            return "exit %d" % code
        return check_out(out)

    return check


class Workload:
    tail_pct = TAIL_PCT
    in_process = False

    def __init__(self, src, seed):
        self.src = src
        self.seed = seed
        self.env = child_env(src)
        self.refs = _References()
        self.tracer = None  # set by run.py for a traced run
        self.output_bytes = 0

    def setup_times(self):
        argv, payload = TRIVIAL_JOB
        return process_setup_times(CLI + argv, json.dumps(payload), self.src)

    def _runner(self, argv, stdin):
        def run():
            cmd = CLI + argv
            if self.tracer is not None:
                cmd = [sys.executable, tracing.__file__] + argv
            proc = subprocess.run(cmd, input=stdin, env=self.env,
                                  capture_output=True, text=True)
            stderr = proc.stderr
            if self.tracer is not None:
                stderr = self._take_trace(stderr)
            self.output_bytes += len(proc.stdout.encode())
            return proc.returncode, proc.stdout, stderr

        return run

    def _take_trace(self, stderr):
        kept = []
        for line in stderr.splitlines(True):
            if line.startswith(tracing.TRACE_MARK):
                tracing.merge(self.tracer.stats, json.loads(line[len(tracing.TRACE_MARK):]))
            else:
                kept.append(line)
        return "".join(kept)

    def round_ops(self):
        jobs = list(JOBS)
        random.Random(self.seed).shuffle(jobs)
        ops = []
        for argv, payload, kind, fault in jobs:
            p = dict(payload or {})
            if argv[0] == "approx":
                p.update(k=int(argv[2]), side=argv[4])
            stdin = "" if payload is None else json.dumps(payload)
            name = "hovm %s %s" % (" ".join(argv), stdin)
            ops.append(Op(name, self._runner(argv, stdin), _check_job(kind, p, self.refs), fault))
        return ops
