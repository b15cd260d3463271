"""One-command benchmark for hovm.

    python3 perfbench/run.py --workload sl2n_chars --seed 1 --seconds 40 --trace 0

Runs one workload (sl2n_chars, finite_cli or blocks_jh; see README.md) from
the root of a source checkout.  It times every operation from outside,
checks every output untimed, and prints one JSON object as the last line of
stdout: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same rounds run with
every public hovm function wrapped, and the metrics are the per-layer
counts and self times, per round.  Diagnostics go to stderr.

All load comes from this process (and, for finite_cli, one `hovm` child at
a time); there are no worker threads.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("sl2n_chars", "finite_cli", "blocks_jh")
# A run of one round would cover half the time window of the others and
# ride one phase of the host's speed drift.
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB",
}

# (metric, unit, better); "module.function.field" metrics come from the
# tracer's stats, the others are computed in per_layer_metrics().
PER_LAYER = [
    ("rootdata.positive_roots.calls", "count", "lower"),
    ("rootdata.positive_roots.self_s", "s", "lower"),
    ("characters.kostant_partition.calls", "count", "lower"),
    ("characters.kostant_partition.self_s", "s", "lower"),
    ("characters.parabolic_verma_char.self_s", "s", "lower"),
    ("characters.simple_finite_char.self_s", "s", "lower"),
    ("weights.dominant_conjugate_J.calls", "count", "lower"),
    ("weights.dominant_conjugate_J.self_s", "s", "lower"),
    ("weightsets.pvm_member.calls", "count", "lower"),
    ("weightsets.pvm_member.self_s", "s", "lower"),
    ("weightsets.weight_member.calls", "count", "lower"),
    ("weightsets.pvm_per_member", "ratio", "lower"),
    ("weightsets.weight_set.self_s", "s", "lower"),
    ("weightsets.weight_set_minkowski.self_s", "s", "lower"),
    ("weightsets.psi_k.self_s", "s", "lower"),
    ("weightsets.altwts_check.self_s", "s", "lower"),
    ("weightsets.inclusion_exclusion_char.self_s", "s", "lower"),
    ("holes.transversals.calls", "count", "lower"),
    ("holes.transversals.self_s", "s", "lower"),
    ("holes.transversals.sets_out", "count", "lower"),
    ("holes.admissible_sets.families_out", "count", "lower"),
    ("weyl.compose.calls", "count", "lower"),
    ("weyl.weyl_group.self_s", "s", "lower"),
    ("weyl.order_of_hole_product.self_s", "s", "lower"),
    ("resolutions.euler_char.self_s", "s", "lower"),
    ("resolutions.verify_complex.self_s", "s", "lower"),
    ("resolutions.taylor_resolution.self_s", "s", "lower"),
    ("resolutions.koszul_resolution.self_s", "s", "lower"),
    ("resolutions.dihedral_candidate.self_s", "s", "lower"),
    ("cat_o.reciprocity_table.self_s", "s", "lower"),
    ("cat_o.kl_bases.self_s", "s", "lower"),
    ("cat_o.universal_cover.self_s", "s", "lower"),
    ("oracle.oracle_jh.calls", "count", "lower"),
    ("oracle.oracle_jh.self_s", "s", "lower"),
    ("oracle.oracle_jh.factors_out", "count", "lower"),
    ("oracle.oracle_weights.self_s", "s", "lower"),
    ("oracle.oracle_simple_char.self_s", "s", "lower"),
    ("verify.run_suite.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
]


def percentile(values, pct):
    """Linear interpolation between closest ranks (inclusive method)."""
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def run_rounds(ops, seconds, min_samples):
    """Whole rounds of `ops`; returns (per-op seconds, failures, rounds).

    A further round starts while there are fewer than MIN_ROUNDS rounds or
    `min_samples` timings, or while it is expected to end within `seconds`.
    """
    times, failures = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # a fault in the program: count it, go on
                times.append(time.perf_counter() - t0)
                failures.append((op, "raised %s: %s" % (type(e).__name__, e)))
                continue
            times.append(time.perf_counter() - t0)
            try:
                problem = op.check(out)
            except (KeyError, TypeError, ValueError) as e:  # malformed output
                problem = "unexpected output: %s: %s" % (type(e).__name__, e)
            if problem:
                failures.append((op, problem))
        rounds += 1
        elapsed = time.perf_counter() - start
        if (rounds >= MIN_ROUNDS and len(times) >= min_samples
                and elapsed + elapsed / rounds > seconds):
            return times, failures, rounds


def per_layer_metrics(stats, rounds, output_bytes):
    """Per-round values of the PER_LAYER metrics from the tracer's totals."""

    def total(metric):
        function, _, field = metric.rpartition(".")
        return stats.get(function, {}).get(field, 0)

    values = {m: total(m) / rounds for m, _, _ in PER_LAYER}
    members = values["weightsets.weight_member.calls"]
    values["weightsets.pvm_per_member"] = (
        values["weightsets.pvm_member.calls"] / members if members else 0.0)
    values["cli.output_bytes"] = output_bytes / rounds
    return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hovm", "__init__.py")):
        sys.stderr.write("perfbench: no hovm source tree at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import tracing

    workload = importlib.import_module(args.workload).Workload(SRC, args.seed)
    setup = None if args.trace else workload.setup_times()
    ops = workload.round_ops()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if workload.in_process:
            tracer.install()
        else:
            workload.tracer = tracer
    min_samples = int(10 / (1 - workload.tail_pct / 100.0)) + 1
    times, failures, rounds = run_rounds(ops, args.seconds, min_samples)

    unexpected = [(op, why) for op, why in failures if op.fault is None]
    for op, why in failures:
        sys.stderr.write("%s: %s: %s\n" % (op.fault or "WRONG", why, op.name[:200]))
    sys.stderr.write(
        "%s: %d rounds of %d ops, %d samples, tail = p%s, %.1f s busy\n"
        % (args.workload, rounds, len(ops), len(times), workload.tail_pct, sum(times))
    )

    if tracer is not None:
        metrics = per_layer_metrics(
            tracer.stats, rounds, getattr(workload, "output_bytes", 0))
    else:
        if workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": percentile(times, workload.tail_pct) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
