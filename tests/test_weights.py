import itertools
import math
import operator
import random

import pytest

from hovm import weights
from hovm.rootdata import parse_gcm
from hovm.weights import (
    DepthCode,
    HighestWeight,
    NONINT,
    depth_vectors,
    dot_reflect,
    eval_at,
    height,
    integrability,
    lambda_H,
)
from hovm.weightsets import pvm_member

A2 = parse_gcm("A2")
SL22 = parse_gcm("A1^2")


def test_nonint_marker():
    # no arithmetic on "x": a shift of it is never silently absorbed
    for shift in (lambda e: e + 3, lambda e: 1 + e, lambda e: e - 2):
        with pytest.raises(TypeError):
            shift(NONINT)
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
    # kept on lambda, and outside its equality and hash
    lam = HighestWeight(A2, [3, -2])
    assert lam.integrable == {1}
    assert lam == HighestWeight(A2, [3, -2]) and hash(lam) == hash((A2, (3, -2)))


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
        lambda_H(HighestWeight(A2, [1, 1]), {1, 2})


def test_dominant_conjugate_sl2():
    # the slice walk of pvm_member: on sl2 the weights of L(2) have c_1 in 0..2
    lam = HighestWeight(SL22, [2, 0])
    # c = (4, 0): eval at node 1 is 2 - 8 = -6; one reflection lands at
    # c_1 = -2, so the walk stops there
    assert not pvm_member(lam, {1}, (4, 0))
    assert not pvm_member(lam, {1}, (3, 0))
    assert pvm_member(lam, {1}, (2, 0))  # reflects onto c_1 = 0
    # already dominant
    assert pvm_member(lam, {1}, (1, 5))


def test_dominant_conjugate_off_J_untouched():
    # J = {1} on A2: the walk moves only c_1; c_2 enters through the
    # evaluation <nu, alpha_1^vee> = 1 + c_2 of nu = lambda - c_2 alpha_2
    lam = HighestWeight(A2, [1, 1])
    assert pvm_member(lam, {1}, (3, 2))
    assert not pvm_member(lam, {1}, (4, 2))
    for c in depth_vectors(2, 8):
        assert pvm_member(lam, {1}, c) == (c[0] <= 1 + c[1])


def _depth_vectors_rec(n, N):
    if n == 0:
        yield ()
        return
    for v in range(N + 1):
        for rest in _depth_vectors_rec(n - 1, N - v):
            yield (v,) + rest


def _depth_vectors_by_combinations(n, N):
    """The difference sequences of the nondecreasing n-tuples in 0..N, which
    combinations_with_replacement yields in lex order."""
    for s in itertools.combinations_with_replacement(range(N + 1), n):
        yield tuple(map(operator.sub, s, (0,) + s[:-1]))


def test_depth_vectors_match_recursive():
    # against the recursion and the combinations_with_replacement formula
    for n in range(6):
        for N in range(-2, 8):
            want = list(_depth_vectors_rec(n, N))
            assert list(_depth_vectors_by_combinations(n, N)) == want, (n, N)
            assert list(depth_vectors(n, N)) == want, (n, N)
    assert list(depth_vectors(0, -1)) == list(depth_vectors(0, -2)) == [()]
    assert list(depth_vectors(3, -1)) == list(depth_vectors(1, -2)) == []


def test_depth_vectors():
    vs = list(depth_vectors(2, 3))
    assert len(vs) == math.comb(3 + 2, 2)
    assert vs == sorted(vs)
    assert all(sum(v) <= 3 for v in vs)
    assert list(depth_vectors(1, 0)) == [(0,)]


def _check_code(n, N, vectors):
    """The properties of DepthCode(n, N) on these depth vectors of height
    <= N, and on all of height N + 1 and N + 2."""
    code = DepthCode(n, N)
    codes = [code.encode(c) for c in vectors]
    by_height = sorted(vectors, key=lambda c: (height(c), c))
    assert sorted(codes) == [code.encode(c) for c in by_height]
    assert code.decode(codes) == set(vectors)
    assert all(code.decode([x]) == {c} for x, c in zip(codes, vectors))
    taller = [c for c in depth_vectors(n, N + 2) if height(c) > N]
    assert all(x < code.limit for x in codes)
    assert all(code.encode(c) >= code.limit for c in taller)
    for h in range(N + 1):
        cut = list(DepthCode.cut(sorted(codes), (h + 1) * code.top))
        assert cut == sorted(x for x, c in zip(codes, vectors) if height(c) <= h)
    return code, codes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5])
def test_depth_code(n, N):
    vectors = list(depth_vectors(n, N))
    code, codes = _check_code(n, N, vectors)
    # no carry: the code of a sum is the sum of the codes
    for a, x in zip(vectors, codes):
        for b, y in zip(vectors, codes):
            if height(a) + height(b) <= N:
                assert x + y == code.encode(tuple(map(sum, zip(a, b))))


def test_depth_code_past_2_30():
    # E8 at N = 10: radix 11, and codes of height 10 exceed 2^30
    vectors = list(depth_vectors(8, 10))
    code, codes = _check_code(8, 10, vectors)
    assert max(codes) > 2**30
    a, b = (4, 0, 1, 0, 0, 2, 0, 0), (0, 0, 0, 1, 0, 1, 0, 1)
    assert code.encode(a) + code.encode(b) == code.encode((4, 0, 1, 1, 0, 3, 0, 1))


def _digits(x, n, radix):
    """The depth vector of a code by plain division, an independent decode."""
    out = []
    for _ in range(n):
        x, d = divmod(x, radix)
        out.append(d)
    return tuple(reversed(out))


@pytest.mark.parametrize("n, N", [(1, 0), (1, 7), (3, 0), (2, 5), (4, 4), (8, 3)])
def test_warm_decode_equals_cold(n, N):
    # radix 1 (N = 0), rank 1, and E8's rank at N = 3, over codes of every
    # height; cold decodes by halves, warm by lookup, and a part-warm map
    # decodes only its misses
    code = DepthCode(n, N)
    vectors = list(depth_vectors(n, N))
    codes = [code.encode(c) for c in vectors]
    assert [_digits(x % code.top, n, code.radix) for x in codes] == vectors
    code.vectors = {}
    assert code.tuples(codes) == vectors  # cold
    assert len(code.vectors) == len(codes)
    assert code.tuples(codes) == vectors  # warm
    assert code.decode(codes) == set(vectors)
    for h in range(N + 1):
        at_h = [x for x, c in zip(codes, vectors) if height(c) == h]
        code.vectors = {}
        assert code.decode(at_h) == {c for c in vectors if height(c) == h}
        assert code.tuples(codes[::-1]) == vectors[::-1]  # part warm
    code.vectors = {}
    assert code.decode([]) == set() and code.tuples([]) == []
    # decode keeps what it decodes, as tuples does
    assert code.decode(codes) == set(vectors) and len(code.vectors) == len(codes)
    assert code.decode(codes) == set(vectors)


@pytest.mark.parametrize(
    "n, N, nodes",
    [(3, 0, [1, 2, 3]), (3, 4, []), (1, 6, [1]), (4, 5, [1, 3, 4]), (5, 4, [5, 2]),
     (8, 3, list(range(1, 9)))],
)
def test_simplex_is_the_sorted_codes_on_its_nodes(n, N, nodes):
    # N = 0, no nodes, rank 1, proper node subsets (one given out of order)
    # and E8's rank at N = 3
    code = DepthCode(n, N)
    want = sorted(
        code.encode(c)
        for c in depth_vectors(n, N)
        if all(c[i - 1] == 0 for i in range(1, n + 1) if i not in nodes)
    )
    assert code.simplex(nodes) == want


def test_depth_codes_are_shared_in_a_bounded_lru():
    assert weights._CODES_KEPT == 8
    assert DepthCode.__new__.cache_info().maxsize == weights._CODES_KEPT
    code = DepthCode(2, 3)
    assert DepthCode(2, 3) is code
    assert DepthCode(3, 2) is not code
    # each use makes a code the most recent; past the bound the oldest goes
    for N in range(100, 100 + weights._CODES_KEPT - 1):
        DepthCode(1, N)
        assert DepthCode(2, 3) is code
    for N in range(200, 200 + weights._CODES_KEPT):
        DepthCode(1, N)
        assert DepthCode.__new__.cache_info().currsize <= weights._CODES_KEPT
    fresh = DepthCode(2, 3)
    assert fresh is not code and fresh.places == code.places
    assert fresh.decode([code.encode((1, 2))]) == {(1, 2)}


@pytest.fixture
def fresh_codes():
    """No shared DepthCode before or after the test, so a patched cap decides
    the maps of the codes the test builds, and of those only."""
    DepthCode.__new__.cache_clear()
    yield
    DepthCode.__new__.cache_clear()


@pytest.mark.parametrize("cap, kept", [(220, True), (219, False)])
def test_a_code_keeps_a_map_only_when_its_simplex_fits(
    monkeypatch, fresh_codes, cap, kept
):
    # the simplex of rank 3 and height <= 9 holds comb(12, 3) = 220 vectors:
    # a cap of 220 keeps its map, warm by lookup; one less keeps none, and
    # every decode is by halves
    assert weights._DECODE_CAP == 2**15
    monkeypatch.setattr(weights, "_DECODE_CAP", cap)
    code = DepthCode(3, 9)
    vectors = list(depth_vectors(3, 9))
    assert len(vectors) == math.comb(12, 3) == 220
    assert code.vectors == ({} if kept else None)
    codes = [code.encode(c) for c in vectors]
    want = dict(zip(codes, vectors))
    rng = random.Random(5)
    for size in [5, 30, 12, 220, 3, 60, 1]:
        part = rng.sample(codes, size)
        assert code.tuples(part) == [want[x] for x in part]
        assert code.decode(part) == {want[x] for x in part}
        if kept:
            assert code.vectors.items() <= want.items()
    assert code.tuples(codes) == vectors
    assert code.tuples(codes[::-1]) == vectors[::-1]
    assert code.vectors == (want if kept else None)


@pytest.mark.parametrize("n, N", [(1, -1), (2, -1), (2, -5), (8, -3)])
def test_a_code_below_height_0_builds(n, N):
    # no vector has a negative height, so nothing to decode, but the code
    # builds: math.comb refuses the negative sizes of its simplex
    code = DepthCode(n, N)
    assert code.decode([]) == set() and code.tuples([]) == []
