"""Seeded randomized cross-checks of the sl2^n formulas against the oracle.

Each suite draws (lambda, holes) instances from a seeded RNG, runs one of
the library code paths and the brute-force monomial model side by side,
and reports either ok or the first counterexample.  Used by the `verify`
CLI subcommand and by the test harness.  Each suite imports the modules it
alone uses, so a run loads no other suite's code.
"""

import random

from . import rootdata
from .holes import HoleSet, minimalize
from .oracle import (
    oracle_char,
    oracle_jh,
    oracle_module,
    oracle_simple_char,
    oracle_weights,
)
from .weights import HighestWeight, NONINT, integrability
from .weightsets import (
    HovmSpec,
    inclusion_exclusion_char,
    weight_set,
    weight_set_minkowski,
)

# height cutoff of the weights, chars and resolutions suites
SUITE_N = 12


def random_weight(rng, gcm, lo=-1, hi=3, nonint_prob=0.2):
    evals = []
    for _ in range(gcm.n):
        if rng.random() < nonint_prob:
            evals.append(NONINT)
        else:
            evals.append(rng.randint(lo, hi))
    return HighestWeight(gcm, evals)


def random_holeset(rng, gcm, context, max_holes=3):
    candidates = rootdata.independent_sets(gcm, context)
    if not candidates:
        return HoleSet(context, [])
    count = rng.randint(0, min(max_holes, len(candidates)))
    picks = rng.sample(candidates, count)
    return minimalize(gcm, context, picks)


def random_sl2n_spec(rng):
    n = rng.choice([2, 3, 4])
    gcm = rootdata.parse_gcm("A1^%d" % n)
    lam = random_weight(rng, gcm)
    holes = random_holeset(rng, gcm, integrability(lam))
    return HovmSpec(lam, holes)


def _instance_json(lam, holes):
    return {
        "n": lam.gcm.n,
        "lambda": ["x" if e is NONINT else e for e in lam.evals],
        "holes": holes.to_json(),
    }


def _report(trials):
    return {"status": "ok", "trials": trials}


def _mismatch(lam, holes, what, trial, extra=None):
    out = {
        "status": "mismatch",
        "what": what,
        "trial": trial,
        "instance": _instance_json(lam, holes),
    }
    if extra:
        out.update(extra)
    return out


def suite_weights(seed, trials):
    rng = random.Random(seed)
    for t in range(trials):
        spec = random_sl2n_spec(rng)
        mod = oracle_module(spec.lam, spec.holes, SUITE_N)
        expected = oracle_weights(mod)
        got = weight_set(spec, SUITE_N)
        if got != expected:
            return _mismatch(
                spec.lam,
                spec.holes,
                "weight_set",
                t,
                {"only_lib": sorted(got - expected), "only_oracle": sorted(expected - got)},
            )
        if weight_set_minkowski(spec, SUITE_N) != expected:
            return _mismatch(spec.lam, spec.holes, "weight_set_minkowski", t)
    return _report(trials)


def suite_chars(seed, trials):
    rng = random.Random(seed)
    for t in range(trials):
        spec = random_sl2n_spec(rng)
        expected = oracle_char(oracle_module(spec.lam, spec.holes, SUITE_N))
        got = inclusion_exclusion_char(spec, SUITE_N)
        if got != expected:
            return _mismatch(spec.lam, spec.holes, "inclusion_exclusion_char", t)
    return _report(trials)


def suite_resolutions(seed, trials):
    from .resolutions import euler_char, taylor_resolution, verify_complex

    rng = random.Random(seed)
    for t in range(trials):
        spec = random_sl2n_spec(rng)
        res = taylor_resolution(spec.lam, spec.holes)
        if not verify_complex(res):
            return _mismatch(spec.lam, spec.holes, "verify_complex", t)
        expected = oracle_char(oracle_module(spec.lam, spec.holes, SUITE_N))
        if euler_char(res, SUITE_N) != expected:
            return _mismatch(spec.lam, spec.holes, "taylor_euler_char", t)
    return _report(trials)


def random_blockholes(rng, max_n=3):
    from .cat_o import build_block, simples_in_block

    n = rng.choice(list(range(2, max_n + 1)))
    gcm = rootdata.parse_gcm("A1^%d" % n)
    lam = random_weight(rng, gcm, lo=-4, hi=3)
    block = build_block(lam)
    holes = random_holeset(rng, gcm, frozenset(gcm.nodes))
    return simples_in_block(block, holes)


def _absolute_coeffs(coeffs, base, N):
    """Depth -> value, shifted by base into block coordinates, cut at N."""
    out = {}
    for c, m in coeffs.items():
        d = tuple(a + b for a, b in zip(base, c))
        if sum(d) <= N:
            out[d] = m
    return out


def _cover_module(bh, K, N):
    """Oracle model of the cover indexed by K, and its depth in the block."""
    from .cat_o import universal_cover

    spec = universal_cover(bh, K)
    base = bh.block.member_depth(K)
    return oracle_module(spec.lam, spec.holes, N - sum(base)), base


def suite_reciprocity(seed, trials):
    from .cat_o import reciprocity_table

    rng = random.Random(seed)
    for t in range(trials):
        bh = random_blockholes(rng)
        block = bh.block
        N = block.cutoff()
        table = reciprocity_table(bh)
        # the printed table against the oracle: the JH peel of the cover K2
        # has its tops at exactly the K of nonzero rhs, with those
        # multiplicities, and by reciprocity at exactly those of nonzero lhs
        for K2 in bh.simple_index:
            mod, base = _cover_module(bh, K2, N)
            got = sorted(_absolute_coeffs(dict(oracle_jh(mod)), base, N).items())
            for what, side in (("oracle_jh", "rhs"), ("reciprocity", "lhs")):
                expected = sorted(
                    (block.member_depth(K), table[(K, K2)][side])
                    for K in bh.simple_index
                    if table[(K, K2)][side]
                )
                if got != expected:
                    return _mismatch(block.lam, bh.holes, what, t, {
                        "index": sorted(K2),
                        "got": [[list(c), m] for c, m in got],
                        "expected": [[list(c), m] for c, m in expected],
                    })
    return _report(trials)


def _combination(row, chars):
    """Sum of row[K] * chars[K] over the labels K, zero terms dropped."""
    out = {}
    for K, a in row.items():
        if a:
            for c, m in chars[K].items():
                out[c] = out.get(c, 0) + a * m
    return {c: m for c, m in out.items() if m}


def suite_kl(seed, trials):
    from .cat_o import kl_bases, kl_weight_of_index

    rng = random.Random(seed)
    for t in range(trials):
        bh = random_blockholes(rng)
        block = bh.block
        N = block.cutoff()
        ks = block.k_star
        bases = kl_bases(bh)
        # each label's simple and cover character, once, in block coordinates
        simple, cover = {}, {}
        for K in bases["index"]:
            base = block.member_depth(ks - K)
            mu = kl_weight_of_index(bh, K)
            simple[K] = _absolute_coeffs(
                oracle_simple_char(mu, N - sum(base)).coeffs, base, N
            )
            mod, base = _cover_module(bh, ks - K, N)
            cover[K] = _absolute_coeffs(oracle_char(mod).coeffs, base, N)
        # both printed matrices against the oracle: row K of C_in_T takes the
        # cover characters to ch L(K), row K of T_in_C the simple characters
        # to ch cover(K)
        for K in bases["index"]:
            for what, lhs, row, chars in (
                ("kl_signed_characters", simple[K], bases["C_in_T"][K], cover),
                ("kl_cover_characters", cover[K], bases["T_in_C"][K], simple),
            ):
                if lhs != _combination(row, chars):
                    return _mismatch(
                        block.lam, bh.holes, what, t, {"label": sorted(K)}
                    )
    return _report(trials)


SUITES = {
    "weights": suite_weights,
    "chars": suite_chars,
    "resolutions": suite_resolutions,
    "reciprocity": suite_reciprocity,
    "kl": suite_kl,
}


def run_suite(name, seed, trials):
    if name not in SUITES:
        raise ValueError("unknown suite %r (one of %s)" % (name, ", ".join(SUITES)))
    return SUITES[name](seed, trials)
