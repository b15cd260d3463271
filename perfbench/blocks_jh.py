"""Workload blocks_jh: sl2^n blocks of the category O^H in one process.

One round is every sl2^n block with n <= 3 and m_i <= 3 against every hole
antichain (564 blocks), plus the n = 4 blocks of N4_SHAPES.  The seed
picks, for every block, which member w_K . lambda~ is handed to
`build_block` (all members give the same block), relabels the nodes of the
n = 4 shapes, and orders the round.  Each block runs `reciprocity_table`,
`kl_bases`, and `oracle_jh` on each universal cover; the covers' peels are
checked by additivity over a composition series in the monomial model.
The n = 4 shapes are fixed so that the round's work does not swing with
the seed: one n = 4 peel costs from 0.01 s to several seconds.
"""

import itertools
import random

import hovm.cat_o as cat_o
import hovm.holes as holes_mod
import hovm.oracle as oracle
import hovm.rootdata as rootdata
import hovm.weights as weights

import reference as ref
from common import Op, import_setup_times

TAIL_PCT = 99.5
ALGEBRAS = ("A1^1", "A1^2", "A1^3", "A1^4")

# (lambda~ evaluations, minimal holes) of the n = 4 blocks before relabelling
N4_SHAPES = [
    ([1, 2, 0, 2], [{2}, {1, 4}]),
    ([0, 1, 2, 2], [{2}, {1, 3}]),
    ([0, 2, 2, 1], [{3}, {1, 2}]),
    ([1, 1, 2, 0], [{3}, {1, 2}, {2, 4}]),
    ([0, 0, 1, 0], [{1, 2}, {1, 4}, {2, 4}]),
    ([1, 2, 0, 2], [{1, 3}, {2, 3}, {1, 2, 4}]),
    ([0, 2, 0, 1], [{3}, {1, 2}]),
]


def antichains(n):
    """Every antichain of nonempty subsets of {1..n}, the empty one first."""
    subsets = [
        frozenset(s) for size in range(1, n + 1)
        for s in itertools.combinations(range(1, n + 1), size)
    ]
    out = [[]]
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            if all(not (a <= b or b <= a) for a, b in itertools.combinations(combo, 2)):
                out.append(sorted(combo, key=sorted))
    return out


def _conjugate(rng, lam_tilde):
    """A random block member w_K . lambda~ (dot action: m -> -m - 2 on K)."""
    return [-m - 2 if rng.random() < 0.5 else m for m in lam_tilde]


def blocks(seed):
    """[(lambda, minimal holes)] of one round, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3):
        chains = antichains(n)
        for lam_tilde in itertools.product(range(3), repeat=n):
            for chain in chains:
                out.append((_conjugate(rng, lam_tilde), [sorted(h) for h in chain]))
    for lam_tilde, hs in N4_SHAPES:
        perm = [1, 2, 3, 4]
        rng.shuffle(perm)
        relabelled = [0] * 4
        for i, m in enumerate(lam_tilde):
            relabelled[perm[i] - 1] = m
        out.append((_conjugate(rng, relabelled),
                    sorted((sorted(perm[i - 1] for i in h) for h in hs))))
    rng.shuffle(out)
    return out


def _plain(lam):
    return [ref.NONINT if ev is weights.NONINT else ev for ev in lam.evals]


def _check_reciprocity(table):
    bad = [k for k, v in table.items() if not v["equal"]]
    return "reciprocity fails at %d pairs" % len(bad) if bad else None


def _check_kl(bases):
    index = bases["index"]
    t_in_c, c_in_t = bases["T_in_C"], bases["C_in_T"]
    for K in index:
        for K2 in index:
            prod = sum(c_in_t[K][L] * t_in_c[L][K2] for L in index)
            if prod != int(K == K2):
                return "KL matrices are not mutually inverse"
    return None


def _check_peel(cover_lam, cover_holes, N, factors):
    """Additivity: sum of mult * ch L(lambda - top), shifted by top, equals
    the cover's character in the monomial model."""
    acc = {}
    for top, mult in factors:
        rest = N - sum(top)
        for c in ref.sl2n_simple_char(ref.sl2n_lower(cover_lam, top), rest):
            d = tuple(a + b for a, b in zip(top, c))
            acc[d] = acc.get(d, 0) + mult
    want = dict.fromkeys(ref.monomial_weights(cover_lam, cover_holes, N), 1)
    return None if acc == want else "JH factors do not add up to the cover"


def _block_ops(gcm, lam, hs):
    hw = weights.HighestWeight(gcm, lam)
    holeset = holes_mod.HoleSet(frozenset(gcm.nodes), [frozenset(h) for h in hs])
    bh = cat_o.simples_in_block(cat_o.build_block(hw), holeset)
    label = "%s %s" % (lam, hs)
    ops = [
        Op("reciprocity_table " + label, lambda: cat_o.reciprocity_table(bh),
           _check_reciprocity),
        Op("kl_bases " + label, lambda: cat_o.kl_bases(bh), _check_kl),
    ]
    N = bh.block.cutoff()
    for K in sorted(bh.simple_index, key=lambda s: (len(s), sorted(s))):
        ops.append(_peel_op(bh, K, N, "oracle_jh %s K=%s" % (label, sorted(K))))
    return ops


def _peel_op(bh, K, N, name):
    height = N - sum(bh.block.member_depth(K))

    def run():
        spec = cat_o.universal_cover(bh, K)
        mod = oracle.oracle_module(spec.lam, spec.holes, height)
        return spec, oracle.oracle_jh(mod)

    def check(out):
        spec, factors = out
        return _check_peel(_plain(spec.lam), [sorted(h) for h in spec.holes.min_holes],
                           height, factors)

    return Op(name, run, check)


class Workload:
    tail_pct = TAIL_PCT
    in_process = True

    def __init__(self, src, seed):
        self.src = src
        self.seed = seed
        self.gcms = {int(a.split("^")[1]): rootdata.parse_gcm(a) for a in ALGEBRAS}

    def setup_times(self):
        return import_setup_times(self.src, ALGEBRAS)

    def round_ops(self):
        ops = []
        for lam, hs in blocks(self.seed):
            ops.extend(_block_ops(self.gcms[len(lam)], lam, hs))
        return ops
