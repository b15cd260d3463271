"""Workload sl2n_chars: seeded sl2^n instances in one warm process.

One round is one instance per shape in SHAPES, in a seeded order.  A shape
fixes the rank, the evaluations of lambda (integers, negative ones and "x")
and the minimal holes; the seed relabels the nodes of each shape, so every
seed hands the library other lambda vectors and hole lists of the same
difficulty.  Each instance runs four operations at N = 12, each checked
against the monomial-ideal model.

The evaluations are part of the shape because the work depends on them:
the dot-shifted Verma terms of a character start at depth sum(lambda_h + 1),
and the Minkowski form enumerates prod(lambda_j + 1) finite weights.  With
evaluations drawn at random per seed, a round's work varied 1.5 times from
seed to seed, more than the benchmark's bounds allow.

Each rank-4 shape costs about a second at most, so that a round takes 3 s
to 7 s and a run holds four rounds or more.  Rank-4 shapes with two or
three holes and evaluations up to 3 cost 1.3 s to 3.5 s each; with three
of them a round took 10 s to 15 s, a run held one round or two, and the
median and the tail spread 0.22 to 0.26 over ten seeds.
"""

import random

import hovm.resolutions as resolutions
import hovm.rootdata as rootdata
import hovm.weights as weights
import hovm.weightsets as weightsets

import reference as ref
from common import Op, import_setup_times

N = 12
TAIL_PCT = 80
ALGEBRAS = ("A1^2", "A1^3", "A1^4")

# (lambda, minimal holes) with nodes 1..rank before relabelling
SHAPES = [
    (["x", -1], []), ([2, "x"], [{1}]), ([1, 3], [{1, 2}]), ([0, 2], [{1}, {2}]),
    ([1, -2, "x"], []), ([3, "x", 0], [{1}]), ([0, 2, -1], [{1, 2}]),
    ([1, 0, 3], [{1, 2, 3}]), ([2, 1, "x"], [{1}, {2}]), ([1, 3, 0], [{1, 2}, {3}]),
    ([0, 2, 1], [{1, 2}, {2, 3}]), ([3, 0, 2], [{1}, {2}, {3}]),
    ([2, 2, 0], [{1, 2}, {1, 3}, {2, 3}]),
    ([2, -1, "x", 1], []), ([1, 2, "x", 0], [{1, 2}]), ([3, 1, 0, -2], [{1}, {2, 3}]),
    ([2, "x", 1, 3], [{1}, {3}, {4}]),
]


def instances(seed):
    """[(lambda, holes)] of one round: every shape, relabelled, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for lam, holes in SHAPES:
        perm = list(range(1, len(lam) + 1))
        rng.shuffle(perm)
        relabelled = [None] * len(lam)
        for i, ev in enumerate(lam):
            relabelled[perm[i] - 1] = ev
        out.append((relabelled, sorted(sorted(perm[i - 1] for i in h) for h in holes)))
    rng.shuffle(out)
    return out


def _ops(gcm, lam, holes):
    """The four timed operations of one instance and their checks."""
    hw = weights.HighestWeight(gcm, lam)

    def spec():
        return weightsets.spec_from_sets(hw, [frozenset(h) for h in holes])

    want = ref.monomial_weights(lam, holes, N)

    def check_set(got):
        return None if got == want else "weight set differs from the monomial model"

    def check_char(ch):
        if ch.cutoff != N or ch.coeffs != dict.fromkeys(want, 1):
            return "character differs from the 0/1 monomial model"
        return None

    def taylor_euler():
        s = spec()
        return resolutions.euler_char(resolutions.taylor_resolution(s.lam, s.holes), N)

    label = "%s %s" % (lam, holes)
    return [
        Op("weight_set " + label, lambda: weightsets.weight_set(spec(), N), check_set),
        Op("weight_set_minkowski " + label,
           lambda: weightsets.weight_set_minkowski(spec(), N), check_set),
        Op("inclusion_exclusion_char " + label,
           lambda: weightsets.inclusion_exclusion_char(spec(), N), check_char),
        Op("taylor_euler_char " + label, taylor_euler, check_char),
    ]


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
        for lam, holes in instances(self.seed):
            ops.extend(_ops(self.gcms[len(lam)], lam, holes))
        return ops
