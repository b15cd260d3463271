import itertools
import random

import pytest

from hovm.characters import dot_orbit_terms
from hovm.holes import HoleSet
from hovm.resolutions import taylor_resolution
from hovm.rootdata import independent_sets, parse_gcm
from hovm.weights import HighestWeight, depth_vectors, lambda_H
from hovm.weyl import hole_dot, order_of_hole_product


def _weyl_orbit(g):
    # lambda = 0 is regular for the dot action, so its orbit is W itself
    return dot_orbit_terms(HighestWeight(g, [0] * g.n), g.nodes, 200)


@pytest.mark.parametrize(
    "name,size", [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("A1^3", 8)]
)
def test_weyl_group_sizes(name, size):
    assert len(_weyl_orbit(parse_gcm(name))) == size


def test_simple_reflection_involution():
    g = parse_gcm("B2")
    lam = HighestWeight(g, [1, 0])
    for i in (1, 2):
        assert order_of_hole_product(g, [{i}], method="direct") == 2
        for c in depth_vectors(2, 4):
            assert hole_dot(lam, hole_dot(lam, c, {i}), {i}) == c


def test_braid_orders():
    # order of s_i s_j is 2, 3, 4, 6 for a_ij a_ji = 0, 1, 2, 3
    for name, expected in [("A1^2", 2), ("A2", 3), ("B2", 4), ("G2", 6)]:
        g = parse_gcm(name)
        assert order_of_hole_product(g, [{1}, {2}], method="direct") == expected


def test_lengths_via_bfs():
    # levels 0, 1, 1, 2, 2, 3: three terms of each sign
    signs = [sign for sign, _ in _weyl_orbit(parse_gcm("A2"))]
    assert signs == [1, -1, -1, 1, 1, -1]


def test_hole_reflection():
    g = parse_gcm("A3")
    lam = HighestWeight(g, [2, 0, 1])
    for c in depth_vectors(3, 3):
        # s_{1,3} = s_1 s_3, and s_1, s_3 commute
        assert hole_dot(lam, c, {1, 3}) == hole_dot(lam, hole_dot(lam, c, {3}), {1})
        assert hole_dot(lam, c, {1, 3}) == hole_dot(lam, hole_dot(lam, c, {1}), {3})
    assert order_of_hole_product(g, [{1, 3}], method="direct") == 2
    with pytest.raises(ValueError):
        order_of_hole_product(g, [{1, 2}], method="direct")


@pytest.mark.parametrize("name", ["A2", "B3", "D4", "E6", "A1^4"])
def test_lambda_H_is_hole_dot(name):
    # weights.lambda_H: the depth of (prod_{h in H} s_h) . lambda
    g = parse_gcm(name)
    rng = random.Random(name)
    zero = (0,) * g.n
    for H in independent_sets(g, g.nodes):
        lam = HighestWeight(g, [rng.randint(0, 4) for _ in g.nodes])
        assert lambda_H(lam, H) == hole_dot(lam, zero, H)


def test_order_of_hole_product_sl5():
    g = parse_gcm("A4")
    assert order_of_hole_product(g, [{1}, {2, 4}]) == 6
    assert order_of_hole_product(g, [{1}, {3}]) == 2
    assert order_of_hole_product(g, [{3}, {2, 4}]) == 4


def _bipartition(g):
    """The two colour classes of a connected Dynkin diagram."""
    colour = {1: 0}
    while len(colour) < g.n:
        for i, j in itertools.permutations(g.nodes, 2):
            if i in colour and j not in colour and g.adjacent(i, j):
                colour[j] = 1 - colour[i]
    return [{i for i in g.nodes if colour[i] == side} for side in (0, 1)]


def test_order_lcm_equals_direct():
    for name in ["A3", "A4", "D4", "F4", "E6", "E7", "E8"]:
        g = parse_gcm(name)
        indep = [
            frozenset(s)
            for size in (1, 2)
            for s in itertools.combinations(g.nodes, size)
            if g.is_independent(s)
        ]
        for h1, h2 in itertools.combinations(indep, 2):
            if h1 & h2:
                continue
            assert order_of_hole_product(g, [h1, h2]) == order_of_hole_product(
                g, [h1, h2], method="direct"
            )
    # a bipartite Coxeter element has the Coxeter number as its order; A9
    # and B10 exceed rank 8
    for name, h in [("F4", 12), ("E6", 12), ("E7", 18), ("E8", 30), ("A9", 10),
                    ("B10", 20)]:
        g = parse_gcm(name)
        holes = _bipartition(g)
        assert order_of_hole_product(g, holes) == h
        assert order_of_hole_product(g, holes, method="direct") == h


def test_order_product_validation():
    g = parse_gcm("A3")
    with pytest.raises(ValueError):
        order_of_hole_product(g, [{1, 2}, {3}])
    with pytest.raises(ValueError):
        order_of_hole_product(g, [{1}, {1, 3}])
    for bad in ([{9}, {1}], [{0}, {3}]):
        with pytest.raises(ValueError):
            order_of_hole_product(g, bad)
        with pytest.raises(ValueError):
            order_of_hole_product(g, bad, method="direct")
    assert order_of_hole_product(g, []) == 1


@pytest.mark.parametrize("method", ["lcm_formula", "direct"])
def test_order_product_refuses_affine(method):
    g = parse_gcm([[2, -2], [-2, 2]])
    with pytest.raises(ValueError, match="not of finite type"):
        order_of_hole_product(g, [{1}, {2}], method=method)


def test_semigroup():
    # the parabolic Weyl semigroup is the subset index of the Taylor levels:
    # w_J .' lambda = lambda_{H_J} for the union H_J of the holes in J, and
    # the product w_J w_K = w_{J u K} stays in the index
    holes = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    lam = HighestWeight(parse_gcm("A1^3"), [0, 1, 0])
    res = taylor_resolution(lam, HoleSet({1, 2, 3}, holes))
    index = {J: w for _, J, w in res.entries()}
    assert len(index) == 2 ** len(holes)
    for J, w in index.items():
        union = frozenset().union(*(res.hole_list[i - 1] for i in J))
        assert w == lambda_H(lam, union)
    for J, K in itertools.combinations(index, 2):
        assert J | K in index
    assert index[frozenset()] == (0, 0, 0)
    assert index[frozenset({1, 2})] == lambda_H(lam, {1, 2, 3}) == (1, 2, 1)
