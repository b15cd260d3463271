import itertools
import math
import random
import time

import pytest

from hovm.holes import (
    CapExceeded,
    HoleSet,
    admissible_sets,
    closure_member,
    h_prime,
    minimalize,
    order_k_truncations,
    transversals,
    upper_closure,
)
from hovm import rootdata
from hovm.rootdata import parse_gcm
from hovm.weights import HighestWeight

SL23 = parse_gcm("A1^3")
TRIANGLE = HoleSet({1, 2, 3}, [{1, 2}, {2, 3}, {1, 3}])


def test_holeset_canonical():
    hs = HoleSet({1, 2, 3}, [{2, 1}, {1, 2}, {3}])
    assert hs.min_holes == (frozenset({1, 2}), frozenset({3}))
    assert hs.support() == {1, 2, 3}
    assert not hs.is_zero()
    assert HoleSet({1}, [set()]).is_zero()
    with pytest.raises(ValueError):
        HoleSet({1, 2}, [{1}, {1, 2}])  # not an antichain
    with pytest.raises(ValueError):
        HoleSet({1}, [{2}])  # leaves the context


def test_minimalize():
    hs = minimalize(SL23, {1, 2, 3}, [{1, 2}, {1, 2, 3}, {3}])
    assert hs.min_holes == (frozenset({1, 2}), frozenset({3}))
    a3 = parse_gcm("A3")
    with pytest.raises(ValueError):
        minimalize(a3, {1, 2, 3}, [{1, 2}])  # adjacent nodes


def test_closure_member():
    assert closure_member(SL23, TRIANGLE, {1, 2, 3})
    assert closure_member(SL23, TRIANGLE, {1, 2})
    assert not closure_member(SL23, TRIANGLE, {1})
    assert not closure_member(SL23, TRIANGLE, {1, 4})


def test_transversals_triangle():
    ts = transversals(TRIANGLE)
    assert ts == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]


def test_transversals_simple():
    hs = HoleSet({1, 2, 3}, [{1, 2}])
    assert transversals(hs) == [frozenset({1}), frozenset({2})]
    # the zero module: no set hits the empty hole
    assert transversals(HoleSet({1}, [set()])) == []
    assert transversals(HoleSet({1, 2}, [])) == [frozenset()]


def test_transversals_domination_pruning():
    hs = HoleSet({1, 2, 3}, [{1}, {2, 3}])
    # {1} is forced; only minimal hitting sets survive
    assert transversals(hs) == [frozenset({1, 2}), frozenset({1, 3})]


def test_transversals_cap(monkeypatch):
    # six disjoint pairs: 2^6 partial sets after the last, each a transversal
    big = HoleSet(set(range(1, 13)), [{2 * i + 1, 2 * i + 2} for i in range(6)])
    monkeypatch.setattr("hovm.holes._TRANSVERSAL_CAP", 64)
    assert len(transversals(big)) == 64
    monkeypatch.setattr("hovm.holes._TRANSVERSAL_CAP", 63)
    with pytest.raises(CapExceeded):
        transversals(big)


def _quadratic_transversals(holeset, cap):
    """The all-pairs domination pruning the element index replaced."""
    holes = sorted(holeset.min_holes, key=lambda h: (len(h), sorted(h)))
    partial = [frozenset()]
    for hole in holes:
        nxt = set()
        for p in partial:
            if p & hole:
                nxt.add(p)
            else:
                for v in sorted(hole):
                    nxt.add(p | {v})
            if len(nxt) > cap:
                raise CapExceeded(cap, len(nxt))
        partial = [p for p in nxt if not any(q < p for q in nxt)]
    return sorted(partial, key=lambda p: (len(p), sorted(p)))


def _outcome(f, *args):
    try:
        return f(*args)
    except CapExceeded:
        return "cap"


def test_transversals_match_quadratic_pruning(monkeypatch):
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(1, 10)
        sets = [
            frozenset(rng.sample(range(1, m + 1), rng.randrange(1, m + 1)))
            for _ in range(rng.randrange(1, 9))
        ]
        hs = HoleSet(range(1, m + 1), [s for s in sets if not any(t < s for t in sets)])
        for cap in (10, 10**4):
            monkeypatch.setattr("hovm.holes._TRANSVERSAL_CAP", cap)
            assert _outcome(transversals, hs) == _outcome(
                _quadratic_transversals, hs, cap
            ), (hs, cap)


@pytest.mark.parametrize("n,k,budget", [(12, 6, 1), (13, 7, 10)])
def test_transversals_of_all_k_subsets_are_fast(n, k, budget):
    # the minimal hitting sets of all k-subsets of n nodes are the
    # (n - k + 1)-subsets; all-pairs pruning took 10 s on the 12-node case
    nodes = range(1, n + 1)
    hs = HoleSet(nodes, itertools.combinations(nodes, k))
    start = time.perf_counter()
    try:
        ts = transversals(hs)
    except CapExceeded:
        ts = None
    assert time.perf_counter() - start < budget
    if ts is not None:
        assert ts == [frozenset(c) for c in itertools.combinations(nodes, n - k + 1)]


def test_admissible_sets(monkeypatch):
    fams = admissible_sets(TRIANGLE, 1)
    # one node from each 2-element hole, collected as a set
    assert all(all(len(p) == 1 for p in fam) for fam in fams)
    # 8 raw choice tuples collapse to 4 distinct families of singletons
    assert len(fams) == 4
    assert frozenset({frozenset({1}), frozenset({2}), frozenset({3})}) in fams
    assert admissible_sets(TRIANGLE, 2) == admissible_sets(TRIANGLE, math.inf)
    assert admissible_sets(TRIANGLE, math.inf) == [frozenset(TRIANGLE.min_holes)]
    with pytest.raises(ValueError):
        admissible_sets(TRIANGLE, 0)
    # 8 choice tuples at k = 1
    monkeypatch.setattr("hovm.holes._FAMILY_CAP", 8)
    assert len(admissible_sets(TRIANGLE, 1)) == 4
    monkeypatch.setattr("hovm.holes._FAMILY_CAP", 7)
    with pytest.raises(CapExceeded):
        admissible_sets(TRIANGLE, 1)


def test_h_prime():
    lam = HighestWeight(SL23, [0, -2, 0])  # J = {1, 3}
    hp = h_prime(lam, [frozenset({1, 2}), frozenset({3})])
    assert hp.min_holes == (frozenset({1}), frozenset({3}))
    # an empty trace minimalizes to the zero module
    zero = h_prime(lam, [frozenset({2}), frozenset({1, 2})])
    assert zero.is_zero() and zero == HoleSet({1, 3}, [set()])


def test_order_k_truncations():
    j = frozenset({1, 2, 3})
    upper, lower = order_k_truncations(SL23, TRIANGLE, 1, j)
    assert upper.min_holes == ()
    # lower adds every independent 2-subset (none contain a size-<=1 hole)
    assert lower.min_holes == TRIANGLE.min_holes
    upper2, lower2 = order_k_truncations(SL23, TRIANGLE, 2, j)
    assert upper2 == TRIANGLE
    assert lower2 == TRIANGLE  # the 3-subset contains a minimal hole
    upper0, lower0 = order_k_truncations(SL23, TRIANGLE, 0, j)
    assert upper0.min_holes == ()
    assert lower0.min_holes == (frozenset({1}), frozenset({2}), frozenset({3}))


def _combinations_walk(gcm, holeset, k, J):
    """order_k_truncations for k >= 1 by testing every (k+1)-subset."""
    small = [h for h in holeset.min_holes if len(h) <= k]
    lower = list(small)
    for combo in itertools.combinations(sorted(J), k + 1):
        s = frozenset(combo)
        if gcm.is_independent(s) and not any(h <= s for h in small):
            lower.append(s)
    return HoleSet(J, small), HoleSet(J, lower)


# A1 beside the affine A4^(1): once node 1 is chosen the nodes left form a
# 5-cycle, where the independence bound is not exact
A1_CYCLE5 = [[2, 0, 0, 0, 0, 0]] + [
    [0] + [2 if i == j else -1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)]
    for i in range(5)
]


@pytest.mark.parametrize("algebra", ["A1^5", "A5", "D5", "E6", A1_CYCLE5])
def test_order_k_truncations_match_combinations_walk(algebra):
    g = parse_gcm(algebra)
    J = frozenset(g.nodes)
    indep = rootdata.independent_sets(g, J)
    rng = random.Random(3)
    holesets = [HoleSet(J, []), HoleSet(J, [set()])]
    holesets += [minimalize(g, J, rng.sample(indep, rng.randint(1, 4))) for _ in range(8)]
    for holeset in holesets:
        for k in range(1, g.n + 2):
            assert order_k_truncations(g, holeset, k, J) == \
                _combinations_walk(g, holeset, k, J), (holeset, k)


def test_order_k_truncations_cap(monkeypatch):
    # the A1^22 lower approximation at k = 10 would hold C(22, 11) = 705,432
    # holes; it is refused after 10^4, and quickly
    g = parse_gcm("A1^22")
    J = frozenset(g.nodes)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        order_k_truncations(g, HoleSet(J, []), 10, J)
    assert time.perf_counter() - start < 5
    g12 = parse_gcm("A1^12")
    J12 = frozenset(g12.nodes)
    upper, lower = order_k_truncations(g12, HoleSet(J12, [{1, 2}]), 5, J12)
    assert len(lower) == 1 + math.comb(12, 6) - math.comb(10, 4)
    monkeypatch.setattr("hovm.holes._LOWER_HOLE_CAP", len(lower))
    order_k_truncations(g12, HoleSet(J12, [{1, 2}]), 5, J12)
    monkeypatch.setattr("hovm.holes._LOWER_HOLE_CAP", len(lower) - 1)
    with pytest.raises(CapExceeded):
        order_k_truncations(g12, HoleSet(J12, [{1, 2}]), 5, J12)


def test_antichain_across_sizes():
    with pytest.raises(ValueError):
        HoleSet({1, 2, 3}, [{1, 2}, {3}, {1, 2, 3}])
    hs = HoleSet(range(1, 9), itertools.combinations(range(1, 9), 4))
    assert len(hs) == 70


def test_upper_closure():
    members = upper_closure(SL23, TRIANGLE)
    assert sorted(sorted(m) for m in members) == [[1, 2], [1, 2, 3], [1, 3], [2, 3]]
