"""BGG-type resolutions of M(lambda, H) and their character consequences.

Setting 1 (pairwise orthogonal holes) gives a Koszul-shaped complex;
Setting 2 (independent integrable nodes, arbitrary holes) gives the
Taylor complex of the corresponding monomial ideal.  Both store each
level entry indexed by its subset of hole indices -- coincident level
weights are kept as distinct entries -- and each differential entry as a
sign together with the exponent vector of its monomial factor.
"""

import itertools

from .characters import shifted_partition_sum
from .holes import CapExceeded, minimalize
from .weights import integrability, lambda_H
from .weightsets import HovmSpec, weight_set
from .weyl import hole_dot, order_of_hole_product

# _build makes one level entry per subset of the k holes: 2^k of them, and
# k 2^(k-1) differentials.
_LEVEL_CAP = 2**12


class Resolution:
    """levels[t] = [(J, weight)] with |J| = t; diffs[(J2, J)] = (sign, factor)."""

    __slots__ = ("gcm", "lam", "hole_list", "levels", "diffs")

    def __init__(self, gcm, lam, hole_list, levels, diffs):
        self.gcm = gcm
        self.lam = lam
        self.hole_list = hole_list
        self.levels = levels
        self.diffs = diffs

    def entries(self):
        for t in sorted(self.levels):
            for J, w in self.levels[t]:
                yield t, J, w

    def to_json(self):
        return {
            "holes": [sorted(h) for h in self.hole_list],
            "levels": [
                {
                    "t": t,
                    "modules": [
                        {"index": sorted(J), "weight": list(w)}
                        for J, w in self.levels[t]
                    ],
                }
                for t in sorted(self.levels)
            ],
            "differentials": [
                {
                    "from": sorted(J2),
                    "to": sorted(J),
                    "sign": sign,
                    "factor": list(factor),
                }
                for (J2, J), (sign, factor) in sorted(
                    self.diffs.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
                )
            ],
        }


def _build(lam, hole_list):
    """Shared constructor: levels lambda_H(union) and lcm-quotient factors.

    The lcm of the generators lambda_{H_i}, i in J, is the level weight of J,
    lambda_H of the union of its holes; so the factor of the differential
    J2 -> J is the difference of the two level weights.
    """
    gcm = lam.gcm
    k = len(hole_list)
    if 2**k > _LEVEL_CAP:
        raise CapExceeded(_LEVEL_CAP, 2**k)
    idx = list(range(1, k + 1))
    levels = {t: [] for t in range(k + 1)}
    weight = {}
    for t in range(k + 1):
        for J in itertools.combinations(idx, t):
            J = frozenset(J)
            union = frozenset().union(*(hole_list[i - 1] for i in J)) if J else frozenset()
            weight[J] = lambda_H(lam, union)
            levels[t].append((J, weight[J]))
        levels[t].sort(key=lambda e: sorted(e[0]))
    diffs = {}
    for t in range(1, k + 1):
        for J2, w2 in levels[t]:
            for pos, i in enumerate(sorted(J2)):
                J = J2 - {i}
                factor = tuple(a - b for a, b in zip(w2, weight[J]))
                diffs[(J2, J)] = ((-1) ** pos, factor)
    return Resolution(gcm, lam, tuple(hole_list), levels, diffs)


def _ordered_holes(holeset):
    return sorted(holeset.min_holes, key=lambda h: sorted(h))


def koszul_resolution(lam, holeset):
    """Setting 1: pairwise orthogonal holes (disjoint, no edges between)."""
    hs = _ordered_holes(holeset)
    for h1, h2 in itertools.combinations(hs, 2):
        if h1 & h2 or any(lam.gcm.adjacent(a, b) for a in h1 for b in h2):
            raise ValueError("holes are not pairwise orthogonal")
    return _build(lam, hs)  # lambda_H refuses a hole that is not independent


def taylor_resolution(lam, holeset):
    """Setting 2: the integrable nodes form an independent set."""
    J = integrability(lam)
    if not lam.gcm.is_independent(J):
        raise ValueError("integrable nodes are not independent")
    if not holeset.support() <= J:
        raise ValueError("holes leave the integrable nodes")
    return _build(lam, _ordered_holes(holeset))


def verify_complex(res):
    """Symbolic d o d = 0 over the commutative monomial algebra."""
    k = len(res.hole_list)
    by_level = {t: [J for J, _ in res.levels[t]] for t in res.levels}
    for t in range(2, k + 1):
        for J2 in by_level[t]:
            targets = {}
            for i in sorted(J2):
                J1 = J2 - {i}
                s1, f1 = res.diffs[(J2, J1)]
                for j in sorted(J1):
                    J0 = J1 - {j}
                    s0, f0 = res.diffs[(J1, J0)]
                    total = tuple(a + b for a, b in zip(f1, f0))
                    key = (J0, total)
                    targets[key] = targets.get(key, 0) + s1 * s0
            if any(v != 0 for v in targets.values()):
                return False
    return True


def euler_char(res, N):
    """Alternating sum of shifted Verma characters over the levels."""
    terms = [((-1) ** t, w) for t, J, w in res.entries()]
    return shifted_partition_sum(res.gcm, terms, N)


def wcf_terms(lam, holeset, setting):
    """Numerator data of the Weyl character formula: one term per element of
    W_H -- the group (Z/2)^k in the Koszul setting, the parabolic Weyl
    semigroup in the Taylor setting.  Either way the terms are indexed by
    subsets J of holes with weight lambda_{H_J} and sign (-1)^{|J|}."""
    if setting not in ("koszul", "taylor"):
        raise ValueError("unknown setting %r" % setting)
    res = (koszul_resolution if setting == "koszul" else taylor_resolution)(
        lam, holeset
    )
    return [((-1) ** t, w, t) for t, J, w in res.entries()]


def sign_symmetry_check(lam, holeset):
    """Numerator-level sign symmetry in the Koszul setting: the dot action of
    w_K permutes the terms via J -> K symm-diff J, checked here on the
    weights, and scales the numerator by (-1)^{|K|}.  The sign of a permuted
    term needs no check: (-1)^{|K ^ J|} = (-1)^{|K|} (-1)^{|J|} for all sets,
    since |K ^ J| = |K| + |J| - 2|K & J|."""
    res = koszul_resolution(lam, holeset)  # validates orthogonality
    weight = {J: w for _, J, w in res.entries()}
    for K in weight:
        HK = frozenset().union(*(res.hole_list[i - 1] for i in K))
        for J, w in weight.items():
            if hole_dot(lam, w, HK) != weight[K ^ J]:
                return False
    return True


def dihedral_candidate(lam, H1, H2, N):
    """Conjectured dihedral resolution skeleton for two disjoint holes.

    Emits levels only (no differentials): level t < m holds the two
    alternating words of length t in s_{H1}, s_{H2}; level m holds the
    longest word.  The report accepts the candidate only if the alternating
    character sum is coefficient-wise nonnegative up to N with support equal
    to the weight set of M(lambda, {H1, H2}).
    """
    gcm = lam.gcm
    H1, H2 = frozenset(H1), frozenset(H2)
    if H1 & H2:
        raise ValueError("holes are not disjoint")
    m = order_of_hole_product(gcm, [H1, H2])

    def word_weight(first):
        # weights of the alternating words first, other, first, ... by length
        out = []
        for t in range(1, m + 1):
            gens = [first if i % 2 == 0 else (H2 if first is H1 else H1) for i in range(t)]
            c = tuple([0] * gcm.n)
            for H in reversed(gens):
                c = hole_dot(lam, c, H)
            out.append(c)
        return out

    w1, w2 = word_weight(H1), word_weight(H2)
    assert w1[m - 1] == w2[m - 1], "the two longest words disagree"
    levels = {0: [(frozenset(), tuple([0] * gcm.n))]}
    for t in range(1, m):
        levels[t] = sorted({("a", w1[t - 1]), ("b", w2[t - 1])}, key=lambda e: e[1])
    levels[m] = [("top", w1[m - 1])]

    terms = [((-1) ** t, w) for t, entries in levels.items() for _, w in entries]
    char = shifted_partition_sum(gcm, terms, N)
    spec = HovmSpec(lam, minimalize(gcm, integrability(lam), [H1, H2]))
    expected = weight_set(spec, N)
    nonneg = all(v >= 0 for v in char.coeffs.values())
    support_ok = char.support() == expected
    report = {
        "order": m,
        "nonnegative": nonneg,
        "support_matches_weight_set": support_ok,
        "accepted": nonneg and support_ok,
        "experimental": True,
    }
    return levels, char, report
