import itertools
import random

import pytest

from hovm.holes import HoleSet, minimalize
from hovm.oracle import (
    lam_below,
    oracle_char,
    oracle_holes,
    oracle_jh,
    oracle_module,
    oracle_simple_char,
    oracle_weights,
    MonomialModule,
)
from hovm.rootdata import parse_gcm
from hovm.verify import random_sl2n_spec
from hovm.weights import HighestWeight, NONINT, depth_vectors, integrability

SL22 = parse_gcm("A1^2")
SL23 = parse_gcm("A1^3")


def test_generators():
    lam = HighestWeight(SL22, [0, 0])
    mod = oracle_module(lam, HoleSet({1, 2}, [{1, 2}]), 6)
    assert mod.generators == ((1, 1),)
    lam3 = HighestWeight(SL23, [1, 0, 0])
    mod3 = oracle_module(lam3, HoleSet({1, 2, 3}, [{1, 2}, {3}]), 6)
    assert mod3.generators == ((0, 0, 1), (2, 1, 0))


def test_weights_axes():
    lam = HighestWeight(SL22, [0, 0])
    mod = oracle_module(lam, HoleSet({1, 2}, [{1, 2}]), 4)
    assert oracle_weights(mod) == {
        c for c in depth_vectors(2, 4) if c[0] == 0 or c[1] == 0
    }


def test_no_generators_full_orthant():
    lam = HighestWeight(SL22, ["x", -1])
    mod = oracle_module(lam, HoleSet(frozenset(), []), 3)
    assert oracle_weights(mod) == set(depth_vectors(2, 3))
    assert oracle_char(mod).is_zero_one()


def test_requires_sl2n():
    lam = HighestWeight(parse_gcm("A2"), [0, 0])
    with pytest.raises(ValueError):
        oracle_module(lam, HoleSet({1}, [{1}]), 4)


def test_holes_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        spec = random_sl2n_spec(rng)
        mod = oracle_module(spec.lam, spec.holes, 6)
        assert oracle_holes(mod) == spec.holes


def test_holes_rejects_non_hole_generators():
    lam = HighestWeight(SL22, [0, 0])
    bad = MonomialModule(SL22, lam, [(2, 1)], 6)  # exponent 2 != m_1 = 1
    with pytest.raises(ValueError):
        oracle_holes(bad)
    lam2 = HighestWeight(SL22, [-3, 0])
    outside = MonomialModule(SL22, lam2, [(1, 0)], 6)  # node 1 not integrable
    with pytest.raises(ValueError):
        oracle_holes(outside)


def test_simple_char():
    lam = HighestWeight(SL22, [2, "x"])
    ch = oracle_simple_char(lam, 5)
    assert ch.coeff((0, 0)) == 1
    assert ch.coeff((2, 3)) == 1
    assert ch.coeff((3, 0)) == 0  # string of length 3 in coordinate 1
    assert ch.is_zero_one()


def test_jh_v00_length_three():
    lam = HighestWeight(SL22, [0, 0])
    mod = oracle_module(lam, HoleSet({1, 2}, [{1, 2}]), 8)
    factors = sorted(oracle_jh(mod))
    assert factors == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]


def test_jh_sl2_verma():
    g = parse_gcm("A1")
    lam = HighestWeight(g, [1])
    mod = oracle_module(lam, HoleSet({1}, []), 8)
    assert sorted(oracle_jh(mod)) == [((0,), 1), ((2,), 1)]


def test_jh_reconstruction():
    rng = random.Random(11)
    for _ in range(20):
        spec = random_sl2n_spec(rng)
        N = 8
        mod = oracle_module(spec.lam, spec.holes, N)
        total = {}
        for top, mult in oracle_jh(mod):
            mu = lam_below(spec.lam, top)
            simple = oracle_simple_char(mu, N - sum(top))
            for c, m in simple.coeffs.items():
                d = tuple(a + b for a, b in zip(top, c))
                if sum(d) <= N:
                    total[d] = total.get(d, 0) + mult * m
        assert total == oracle_char(mod).coeffs


# A brute-force reference oracle: a filter over every depth vector, a
# product-and-filter simple character and a peel that scans for the least
# remaining weight each time.
def _brute_weights(mod):
    return {
        c for c in depth_vectors(mod.gcm.n, mod.cutoff)
        if not any(all(a >= b for a, b in zip(c, g)) for g in mod.generators)
    }


def _brute_simple_char(lam, N):
    ranges = [
        range(ev + 1) if isinstance(ev, int) and ev >= 0 else range(N + 1)
        for ev in lam.evals
    ]
    return {c: 1 for c in itertools.product(*ranges) if sum(c) <= N}


def _brute_jh(mod):
    N = mod.cutoff
    remaining = dict.fromkeys(_brute_weights(mod), 1)
    factors = []
    while remaining:
        top = min(remaining, key=lambda c: (sum(c), c))
        mult = remaining[top]
        factors.append((top, mult))
        for c_rel in _brute_simple_char(lam_below(mod.lam, top), N - sum(top)):
            c = tuple(a + b for a, b in zip(top, c_rel))
            remaining[c] = remaining.get(c, 0) - mult
            assert remaining[c] >= 0
            if remaining[c] == 0:
                del remaining[c]
    return factors


def _random_instance(rng):
    """sl2^n, n = 1..5, with negative and "x" evaluations and up to four
    holes of one size on the integrable nodes, so that two of size >= 2
    often overlap."""
    n = rng.randint(1, 5)
    gcm = parse_gcm("A1^%d" % n)
    evals = [rng.choice([NONINT, -2, -1, 0, 0, 1, 1, 2, 3]) for _ in range(n)]
    lam = HighestWeight(gcm, evals)
    J = sorted(integrability(lam))
    count = rng.randint(0, 4) if J else 0
    size = min(len(J), rng.choice([1, 2, 2, 3]))
    holes = minimalize(gcm, J, [rng.sample(J, size) for _ in range(count)])
    return lam, holes, rng.randint(0, 14)


def _agrees(lam, holes, N):
    mod = oracle_module(lam, holes, N)
    assert oracle_weights(mod) == _brute_weights(mod)
    assert oracle_jh(mod) == _brute_jh(mod)  # the factors and their order
    assert oracle_simple_char(lam, N).coeffs == _brute_simple_char(lam, N)


def test_generated_oracle_matches_brute_force():
    rng = random.Random(13)
    for _ in range(150):
        _agrees(*_random_instance(rng))
    # a Verma coordinate beside strings, overlapping holes, no holes, and
    # the zero module (the empty hole)
    g3 = parse_gcm("A1^3")
    lam = HighestWeight(g3, [1, "x", 0])
    _agrees(lam, HoleSet({1, 3}, [{1, 3}]), 9)
    _agrees(HighestWeight(g3, [0, 2, 1]), HoleSet({1, 2, 3}, [{1, 2}, {2, 3}]), 12)
    _agrees(lam, HoleSet({1, 3}, []), 14)
    for lam in [lam, HighestWeight(parse_gcm("A1"), [2])]:
        zero = oracle_module(lam, HoleSet(integrability(lam), [set()]), 10)
        assert oracle_weights(zero) == set() == _brute_weights(zero)
        assert oracle_jh(zero) == []
    # the cutoff N = 0 (codes in radix 1) and rank n = 1 (one run)
    g1 = parse_gcm("A1")
    for N in (0, 1, 2, 7):
        _agrees(HighestWeight(g1, [1]), HoleSet({1}, [{1}]), N)
        _agrees(HighestWeight(g1, [3]), HoleSet({1}, []), N)
        _agrees(HighestWeight(g1, ["x"]), HoleSet(frozenset(), []), N)
    _agrees(HighestWeight(g3, [0, 2, 1]), HoleSet({1, 2, 3}, [{1, 2}, {2, 3}]), 0)
    _agrees(HighestWeight(g3, [1, "x", 0]), HoleSet({1, 3}, [{1}]), 0)


def test_jh_refuses_a_box_outside_the_weights():
    # not a module M(lambda, H): the generator (1, 0) cuts the string of
    # length 3 above the top (0, 0), so its coefficient at (1, 0) would go
    # negative
    lam = HighestWeight(SL22, [2, "x"])
    with pytest.raises(AssertionError, match="negative multiplicity while peeling"):
        oracle_jh(MonomialModule(SL22, lam, [(1, 0)], 5))
