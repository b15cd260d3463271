"""Pieces shared by the workloads: the operation record and the set-up probe."""

import os
import subprocess
import sys
import time

SETUP_REPEATS = 9


class Op:
    """One timed operation of a round.

    `run()` is timed and returns the output; `check(output)` is not timed
    and returns None when the output is right, else a one-line reason.
    `fault` names the known program fault an operation is expected to hit
    (its failure is counted, not treated as a wrong result).
    """

    __slots__ = ("name", "run", "check", "fault")

    def __init__(self, name, run, check, fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.fault = fault


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_setup_times(src, algebras):
    """Seconds to import hovm and parse `algebras`, each in a fresh process.

    One untimed process first, so that byte-code compilation is not counted.
    """
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import hovm\n"
        "from hovm.rootdata import parse_gcm\n"
        "for a in %r:\n"
        "    parse_gcm(a)\n"
        "print(time.perf_counter() - t0)\n" % (list(algebras),)
    )
    out = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(src),
            capture_output=True, text=True, check=True,
        )
        if i:
            out.append(float(proc.stdout))
    return out


def process_setup_times(argv, stdin, src):
    """Wall seconds of a fresh process on a trivial job, timed from outside."""
    out = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(
            argv, input=stdin, env=child_env(src), capture_output=True,
            text=True, check=True,
        )
        if i:
            out.append(time.perf_counter() - t0)
    return out
