"""Command line interface: JSON jobs in, sorted JSON out.

Exit codes: 0 success, 2 validation error (any ValueError or CapExceeded,
reported as {"error": ...}) or a job that runs out of memory, 3
verification mismatch, 1 when the reader closes stdout before the output
is written (a broken pipe, e.g. `| head`).
All output is deterministic for a fixed (input, seed), and every job's
answer is written as it is encoded, so no job holds its output text whole.
"""

import argparse
import itertools
import json
import math
import os
import sys

# Every job is a fresh process, so each cmd_* imports the modules it alone
# uses; holes (for CapExceeded) already loads rootdata and weights.
from . import rootdata
from .holes import CapExceeded, minimalize, order_k_truncations
from .weights import HighestWeight, integrability

HEIGHT_DEFAULT = 10
HEIGHT_CAP = 30


def _load_payload(args):
    if getattr(args, "input", None):
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("malformed JSON input: %s" % e)
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object")
    return payload


def _gcm_of(payload):
    if "algebra" not in payload:
        raise ValueError("missing 'algebra'")
    algebra = payload["algebra"]
    if not isinstance(algebra, str) and not (
        isinstance(algebra, list) and all(isinstance(row, list) for row in algebra)
    ):
        raise ValueError("'algebra' must be a type string or an array of rows")
    return rootdata.parse_gcm(algebra)


def _lam_of(payload, gcm):
    if "lambda" not in payload:
        raise ValueError("missing 'lambda'")
    if not isinstance(payload["lambda"], list):
        raise ValueError("'lambda' must be an array")
    return HighestWeight(gcm, payload["lambda"])


def _hole_list(payload, gcm):
    """'holes' as frozensets; every node a non-bool int in 1..n, none twice
    in one hole."""
    raw = payload.get("holes", [])
    if not isinstance(raw, list) or any(not isinstance(h, list) for h in raw):
        raise ValueError("'holes' must be an array of node arrays")
    for h in raw:
        for i in h:
            if type(i) is not int or not 1 <= i <= gcm.n:  # JSON true is an int
                raise ValueError(
                    "hole node %r is not an integer in 1..%d" % (i, gcm.n)
                )
        if len(set(h)) != len(h):
            raise ValueError("hole %r repeats a node" % (h,))
    return [frozenset(h) for h in raw]


def _holes_of(payload, gcm, lam=None, context=None):
    holes = _hole_list(payload, gcm)
    if context is None:
        context = integrability(lam)
    return minimalize(gcm, context, holes)


def _spec_of(payload):
    from .weightsets import HovmSpec

    gcm = _gcm_of(payload)
    lam = _lam_of(payload, gcm)
    return HovmSpec(lam, _holes_of(payload, gcm, lam))


def _height_of(args, payload):
    N = args.height if args.height is not None else payload.get("N", HEIGHT_DEFAULT)
    if type(N) is not int or N < 0:  # JSON true is a Python int
        raise ValueError("height must be a nonnegative integer")
    if N > HEIGHT_CAP and not args.allow_large_height:
        raise ValueError(
            "height %d exceeds the cap %d (pass --allow-large-height)"
            % (N, HEIGHT_CAP)
        )
    return N


def _sorted_vectors(vectors):
    return [list(c) for c in sorted(vectors)]


def cmd_weights(args):
    from .weightsets import weight_set

    payload = _load_payload(args)
    spec = _spec_of(payload)
    N = _height_of(args, payload)
    return {"N": N, "weights": _sorted_vectors(weight_set(spec, N))}, 0


def cmd_member(args):
    from .weightsets import weight_member

    payload = _load_payload(args)
    spec = _spec_of(payload)
    depth = payload.get("depth")
    if not isinstance(depth, list) or len(depth) != spec.gcm.n:
        raise ValueError("'depth' must be an array of length n")
    return {"member": weight_member(spec, tuple(depth))}, 0


def cmd_check(args):
    """Cross-check the independent weight-set code paths on one instance."""
    from .weightsets import altwts_check, psi_k, weight_set, weight_set_minkowski

    payload = _load_payload(args)
    spec = _spec_of(payload)
    N = _height_of(args, payload)
    base = weight_set(spec, N)
    checks = {
        "minkowski": weight_set_minkowski(spec, N) == base,
        "psi_1": psi_k(spec, 1, N) == base,
        "psi_2": psi_k(spec, 2, N) == base,
        "psi_inf": psi_k(spec, math.inf, N) == base,
        "alternate_union": altwts_check(spec, N),
    }
    ok = all(checks.values())
    return {"consistent": ok, "checks": checks, "N": N}, 0 if ok else 3


def cmd_char(args):
    from .characters import FormalCharacter
    from .weightsets import inclusion_exclusion_char, weight_set

    payload = _load_payload(args)
    spec = _spec_of(payload)
    N = _height_of(args, payload)
    if args.method in ("union", "inclusion-exclusion"):
        if not spec.gcm.is_sl2n:
            raise ValueError(
                "method %r is defined over sl2^n only" % args.method
            )
        if args.method == "union":
            char = FormalCharacter(N, dict.fromkeys(weight_set(spec, N), 1))
        else:
            char = inclusion_exclusion_char(spec, N)
    else:
        from .resolutions import euler_char, koszul_resolution, taylor_resolution

        build = koszul_resolution if args.method == "koszul" else taylor_resolution
        char = euler_char(build(spec.lam, spec.holes), N)
    return {"method": args.method, "char": char.to_json()}, 0


def cmd_resolution(args):
    from .resolutions import (
        dihedral_candidate,
        euler_char,
        koszul_resolution,
        taylor_resolution,
        verify_complex,
    )
    from .weightsets import weight_set

    payload = _load_payload(args)
    spec = _spec_of(payload)
    N = _height_of(args, payload)
    if args.setting == "dihedral":
        hs = spec.holes.min_holes
        if len(hs) != 2:
            raise ValueError("the dihedral setting needs exactly two holes")
        levels, char, report = dihedral_candidate(spec.lam, hs[0], hs[1], N)
        return {
            "setting": "dihedral",
            "levels": [
                {"t": t, "weights": sorted(list(w) for _, w in levels[t])}
                for t in sorted(levels)
            ],
            "euler_char": char.to_json(),
            "report": report,
        }, 0
    build = koszul_resolution if args.setting == "koszul" else taylor_resolution
    res = build(spec.lam, spec.holes)
    char = euler_char(res, N)
    report = {
        "d_squared_zero": verify_complex(res),
        "euler_nonnegative": all(m >= 0 for m in char.coeffs.values()),
        "support_matches_weight_set": char.support() == weight_set(spec, N),
    }
    out = res.to_json()
    out.update({"setting": args.setting, "euler_char": char.to_json(), "report": report})
    return out, 0 if all(report.values()) else 3


def cmd_approx(args):
    from .weightsets import HovmSpec, weight_set

    if args.k < 0:
        raise ValueError("--k must be a nonnegative integer")
    payload = _load_payload(args)
    spec = _spec_of(payload)
    N = _height_of(args, payload)
    J = integrability(spec.lam)
    upper, lower = order_k_truncations(spec.gcm, spec.holes, args.k, J)
    holeset = upper if args.side == "upper" else lower
    approx = HovmSpec(spec.lam, holeset)
    return {
        "k": args.k,
        "side": args.side,
        "holes": holeset.to_json(),
        "weights": _sorted_vectors(weight_set(approx, N)),
    }, 0


def _blockholes_of(payload):
    from .cat_o import build_block, simples_in_block

    gcm = _gcm_of(payload)
    if not gcm.is_sl2n:
        raise ValueError("block data is defined over sl2^n only")
    lam = _lam_of(payload, gcm)
    block = build_block(lam)
    holes = _holes_of(payload, gcm, context=frozenset(gcm.nodes))
    return simples_in_block(block, holes)


def cmd_reciprocity(args):
    from .cat_o import reciprocity_table

    payload = _load_payload(args)
    bh = _blockholes_of(payload)
    # "all_equal", like each entry's "equal", states the theorem and is not
    # computed; both go with kl's "mutually_inverse" (see cmd_kl)
    return {
        "k_star": sorted(bh.block.k_star),
        "simple_index": sorted(
            (sorted(K) for K in bh.simple_index), key=lambda s: (len(s), s)
        ),
        "table": list(reciprocity_table(bh).values()),
        "all_equal": True,
    }, 0


def cmd_kl(args):
    from .cat_o import kl_bases

    payload = _load_payload(args)
    bh = _blockholes_of(payload)
    bases = kl_bases(bh)
    index = bases["index"]

    def matrix(rows):
        return [
            {"K": sorted(K), "coeffs": [rows[K][K2] for K2 in index]}
            for K in index
        ]

    # "mutually_inverse" states an identity of every upper-closed index (the
    # binomial theorem) and is not computed; it goes with reciprocity's
    # "equal" and "all_equal" once the benchmark stops reading them
    return {
        "index": [sorted(K) for K in index],
        "T_in_C": matrix(bases["T_in_C"]),
        "C_in_T": matrix(bases["C_in_T"]),
        "mutually_inverse": True,
    }, 0


def cmd_order_product(args):
    from .weyl import order_of_hole_product

    payload = _load_payload(args)
    gcm = _gcm_of(payload)
    holes = _hole_list(payload, gcm)
    return {"order": order_of_hole_product(gcm, holes)}, 0


def cmd_verify(args):
    from .verify import run_suite

    if args.trials < 0:
        raise ValueError("--trials must be a nonnegative integer")
    report = run_suite(args.suite, args.seed, args.trials)
    return report, 0 if report["status"] == "ok" else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hovm",
        description="Weight sets, characters, resolutions and block data "
        "for higher order Verma modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def job(name, help_text, cutoff=True):
        """A JSON job; `cutoff` adds the height flags read by _height_of."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="read the JSON job from a file, not stdin")
        if cutoff:
            p.add_argument("--height", type=int, default=None, help="cutoff N")
            p.add_argument(
                "--allow-large-height",
                action="store_true",
                help="lift the hard cap of %d" % HEIGHT_CAP,
            )
        return p

    job("weights", "enumerate the weight set up to the cutoff")
    job("member", "test one depth vector for membership", cutoff=False)
    job("check", "cross-check the weight-set formulas on one instance")
    p = job("char", "truncated formal character")
    p.add_argument(
        "--method",
        choices=["union", "inclusion-exclusion", "koszul", "taylor"],
        default="union",
    )
    p = job("resolution", "BGG-type resolution data")
    p.add_argument(
        "--setting", choices=["koszul", "taylor", "dihedral"], required=True
    )
    p = job("approx", "order-k truncation of the hole set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--side", choices=["upper", "lower"], required=True)
    job("reciprocity", "BGG reciprocity table of a block", cutoff=False)
    job("kl", "truncated Kazhdan-Lusztig change-of-basis matrices", cutoff=False)
    job("order-product", "order of a product of hole reflections", cutoff=False)
    p = sub.add_parser("verify", help="seeded randomized oracle suites")
    # the names are hovm.verify.SUITES, checked by run_suite: listing them
    # here as choices would load verify and its oracles for every job
    p.add_argument("--suite", required=True, help="a name in hovm.verify.SUITES")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    return parser


_DISPATCH = {
    "weights": cmd_weights,
    "member": cmd_member,
    "check": cmd_check,
    "char": cmd_char,
    "resolution": cmd_resolution,
    "approx": cmd_approx,
    "reciprocity": cmd_reciprocity,
    "kl": cmd_kl,
    "order-product": cmd_order_product,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, code = _DISPATCH[args.command](args)
        indent = 2
    except (ValueError, CapExceeded) as e:
        result, code, indent = {"error": str(e)}, 2, None
    except MemoryError:
        # a last resort: the job's partial data is freed when this handler
        # ends, so there is room to write the error
        result, code, indent = {"error": "out of memory: the job needs more "
                                "memory than this process may use"}, 2, None
    # the answer is written as it is encoded, in batches of chunks: with an
    # indent, json.dumps runs this same encoder and joins every chunk first
    chunks = json.JSONEncoder(sort_keys=True, indent=indent).iterencode(result)
    try:
        for batch in iter(lambda: "".join(itertools.islice(chunks, 1 << 16)), ""):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the flush at
        # interpreter exit cannot raise again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
