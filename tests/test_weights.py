import math

import pytest

from hovm.rootdata import DynkinGraph, parse_gcm
from hovm.weights import (
    HighestWeight,
    NONINT,
    depth_vectors,
    dominant_conjugate_J,
    dot_reflect,
    eval_at,
    integrability,
    lambda_H,
)

A2 = parse_gcm("A2")
SL22 = parse_gcm("A1^2")


def test_nonint_marker():
    assert NONINT + 3 is NONINT
    assert 1 + NONINT is NONINT
    assert NONINT - 2 is NONINT
    lam = HighestWeight(A2, [1, "x"])
    assert lam.evals[1] is NONINT


@pytest.mark.parametrize(
    "evals", [[1.5, 0], [True, 0], [0, False], ["y", 0], [None, 0], [[0], 0], "xx"]
)
def test_highest_weight_rejects_non_integers(evals):
    # no coercion: 1.5 and true are not 1, "xx" is not ["x", "x"]
    with pytest.raises(ValueError):
        HighestWeight(A2, evals)


def test_integrability():
    assert integrability(HighestWeight(A2, [1, 0])) == {1, 2}
    assert integrability(HighestWeight(A2, [-1, 2])) == {2}
    assert integrability(HighestWeight(A2, ["x", 0])) == {2}


def test_eval_at():
    lam = HighestWeight(A2, [1, 1])
    # mu = lambda - alpha_1: <mu, a1^v> = 1 - 2, <mu, a2^v> = 1 + 1
    assert eval_at(lam, (1, 0), 1) == -1
    assert eval_at(lam, (1, 0), 2) == 2
    lam2 = HighestWeight(A2, ["x", 1])
    assert eval_at(lam2, (1, 0), 1) is NONINT


def test_dot_reflect():
    lam = HighestWeight(SL22, [0, 0])
    assert dot_reflect(lam, (0, 0), 1) == (1, 0)
    assert dot_reflect(lam, (1, 0), 1) == (0, 0)  # involution of the dot action
    with pytest.raises(ValueError):
        dot_reflect(HighestWeight(SL22, ["x", 0]), (0, 0), 1)


def test_lambda_H():
    lam = HighestWeight(SL22, [0, 0])
    assert lambda_H(lam, {1, 2}) == (1, 1)
    assert lambda_H(lam, set()) == (0, 0)
    lam3 = HighestWeight(parse_gcm("A1^3"), [1, 0, 0])
    assert lambda_H(lam3, {1, 2}) == (2, 1, 0)
    with pytest.raises(ValueError):
        lambda_H(HighestWeight(SL22, [-1, 0]), {1})
    with pytest.raises(ValueError):
        lambda_H(HighestWeight(A2, [1, 1]), {1, 2}, graph=DynkinGraph(A2))


def test_dominant_conjugate_sl2():
    lam = HighestWeight(SL22, [2, 0])
    # c = (4, 0): eval at node 1 is 2 - 8 = -6; one reflection lands at d = (-2, 0)
    d = dominant_conjugate_J(lam, (4, 0), {1})
    assert d == (-2, 0)
    assert eval_at(lam, d, 1) >= 0
    # already dominant
    assert dominant_conjugate_J(lam, (1, 5), {1}) == (1, 5)


def test_dominant_conjugate_off_J_untouched():
    lam = HighestWeight(A2, [1, 1])
    d = dominant_conjugate_J(lam, (3, 2), {1})
    assert d[1] == 2


def test_depth_vectors():
    vs = list(depth_vectors(2, 3))
    assert len(vs) == math.comb(3 + 2, 2)
    assert vs == sorted(vs)
    assert all(sum(v) <= 3 for v in vs)
    assert list(depth_vectors(1, 0)) == [(0,)]
