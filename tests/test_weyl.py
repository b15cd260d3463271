import itertools

import pytest

from hovm.characters import dot_orbit_terms
from hovm.rootdata import DynkinGraph, parse_gcm
from hovm.weights import HighestWeight, lambda_H
from hovm.weyl import (
    compose,
    hole_reflection,
    identity_matrix,
    order,
    order_of_hole_product,
    semigroup,
    simple_reflection,
)


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
    for i in (1, 2):
        s = simple_reflection(g, i)
        assert compose(s, s) == identity_matrix(2)
        assert order(s) == 2


def test_braid_orders():
    # order of s_i s_j is 2, 3, 4, 6 for a_ij a_ji = 0, 1, 2, 3
    for name, expected in [("A1^2", 2), ("A2", 3), ("B2", 4), ("G2", 6)]:
        g = parse_gcm(name)
        w = compose(simple_reflection(g, 1), simple_reflection(g, 2))
        assert order(w) == expected


def test_lengths_via_bfs():
    # levels 0, 1, 1, 2, 2, 3: three terms of each sign
    signs = [sign for sign, _ in _weyl_orbit(parse_gcm("A2"))]
    assert signs == [1, -1, -1, 1, 1, -1]


def test_hole_reflection():
    g = parse_gcm("A3")
    graph = DynkinGraph(g)
    w = hole_reflection(g, {1, 3}, graph)
    assert w == compose(simple_reflection(g, 1), simple_reflection(g, 3))
    assert order(w) == 2
    with pytest.raises(ValueError):
        hole_reflection(g, {1, 2}, graph)


def test_order_of_hole_product_sl5():
    g = parse_gcm("A4")
    assert order_of_hole_product(g, [{1}, {2, 4}]) == 6
    assert order_of_hole_product(g, [{1}, {3}]) == 2
    assert order_of_hole_product(g, [{3}, {2, 4}]) == 4


def test_order_lcm_equals_direct():
    for name in ["A3", "A4", "D4"]:
        g = parse_gcm(name)
        graph = DynkinGraph(g)
        singles = [frozenset({i}) for i in g.nodes]
        indep = [
            frozenset(s)
            for size in (1, 2)
            for s in itertools.combinations(g.nodes, size)
            if graph.is_independent(s)
        ]
        for h1, h2 in itertools.combinations(indep, 2):
            if h1 & h2:
                continue
            assert order_of_hole_product(g, [h1, h2]) == order_of_hole_product(
                g, [h1, h2], method="direct"
            )


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


def test_semigroup():
    holes = [frozenset({1, 2}), frozenset({2, 3})]
    elems = semigroup(holes)
    assert len(elems) == 4
    e, a, b, ab = elems
    assert (a * b).index_set == {1, 2}
    assert (a * a) == a  # idempotent
    assert ab.length == 2
    lam = HighestWeight(parse_gcm("A1^3"), [0, 0, 0])
    # w_{1} .' lambda_{H_2} = lambda_{H_1 u H_2}
    assert a.act(lam, other_index={2}) == lambda_H(lam, {1, 2, 3})
    assert e.act(lam) == (0, 0, 0)
