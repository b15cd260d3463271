import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hovm.holes import HoleSet
from hovm.oracle import oracle_module, oracle_weights
from hovm.resolutions import euler_char, koszul_resolution
from hovm.rootdata import independent_sets, parse_gcm
from hovm.verify import random_sl2n_spec
from hovm.weights import DepthCode, HighestWeight, depth_vectors, eval_at, integrability
from hovm.weightsets import (
    HovmSpec,
    _code_sum,
    altwts_check,
    inclusion_exclusion_char,
    minkowski_family_check,
    psi_k,
    psi_separating_weight,
    pvm_member,
    pvm_weight_set,
    spec_from_sets,
    weight_member,
    weight_set,
    weight_set_minkowski,
)

SL22 = parse_gcm("A1^2")
SL23 = parse_gcm("A1^3")
A4 = parse_gcm("A4")


def v00():
    lam = HighestWeight(SL22, [0, 0])
    return HovmSpec(lam, HoleSet({1, 2}, [{1, 2}]))


def test_pvm_member_sl22():
    lam = HighestWeight(SL22, [0, 0])
    for n in range(6):
        assert pvm_member(lam, {1}, (0, n))
    assert not pvm_member(lam, {1}, (1, 0))
    assert pvm_member(lam, set(), (5, 3))  # Verma
    assert pvm_member(lam, {1}, (0, 0))
    with pytest.raises(ValueError):
        pvm_member(HighestWeight(SL22, [-1, 0]), {1}, (0, 0))


def _unbounded_walk_member(lam, J, c):
    """The walk pvm_member replaced: reflect at the first node of J with a
    negative evaluation until none is left, then test the J-coordinates."""
    if any(x < 0 for x in c):
        return False
    d = list(c)
    while True:
        j = next((j for j in sorted(J) if eval_at(lam, d, j) < 0), None)
        if j is None:
            return all(d[j - 1] >= 0 for j in J)
        d[j - 1] += eval_at(lam, d, j)


PIN_TYPES = [
    ("A2", 5), ("B2", 5), ("G2", 5), ("A3", 4), ("B3", 4), ("C3", 4),
    ("D4", 4), ("A1^3", 4), ("E6", 3),
]


def test_pvm_member_matches_unbounded_walk():
    rng = random.Random(7)
    answers = {True: 0, False: 0}
    proper = nonint = 0
    for name, N in PIN_TYPES:
        g = parse_gcm(name)
        vectors = list(depth_vectors(g.n, N))
        for _ in range(8):
            evals = [rng.choice([-1, 0, 1, 2, 3, "x"]) for _ in range(g.n)]
            lam = HighestWeight(g, evals)
            J_lam = integrability(lam)
            J = frozenset(j for j in J_lam if rng.random() < 0.6)
            proper += J < J_lam
            nonint += "x" in evals
            for c in vectors:
                got = pvm_member(lam, J, c)
                assert got == _unbounded_walk_member(lam, J, c), (name, evals, J, c)
                answers[got] += 1
    assert proper >= 30 and nonint >= 20 and min(answers.values()) >= 500


SET_TYPES = [
    ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 6), ("B3", 6), ("C3", 6),
    ("C4", 6), ("D4", 6), ("F4", 6), ("A4", 6), ("E6", 4), ("A1^4", 6),
    # B3 numbered from the short end: c_K = (0, 2) and (1, 0) on K = {1, 3}
    # give the same slice at J = {2}, the first of them in lexicographic order
    # being the taller one
    ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], 6),
]


def test_pvm_weight_set_matches_walk():
    """Slice-by-slice generation against the per-vector walk, for single J
    and for the union over the minimal transversals of random holes."""
    rng = random.Random(11)
    empty_J = nonint = negative = 0
    for name, top in SET_TYPES:
        g = parse_gcm(name)
        for _ in range(34):
            evals = [rng.choice([-2, -1, 0, 0, 1, 2, 3, "x"]) for _ in range(g.n)]
            lam = HighestWeight(g, evals)
            J_lam = integrability(lam)
            J = frozenset(j for j in J_lam if rng.random() < 0.5)
            N = rng.randint(0, top)
            vectors = list(depth_vectors(g.n, N))
            walk = {c for c in vectors if _unbounded_walk_member(lam, J, c)}
            assert pvm_weight_set(lam, J, N) == walk, (name, evals, J, N)
            indep = independent_sets(g, J_lam)
            holes = rng.sample(indep, min(len(indep), rng.randint(0, 3)))
            spec = spec_from_sets(lam, holes)
            if spec.holes.min_holes:
                ts = spec.min_transversals()
                walk = {
                    c for c in vectors
                    if any(_unbounded_walk_member(lam, T, c) for T in ts)
                }
            else:
                walk = set(vectors)
            assert weight_set(spec, N) == walk, (name, evals, holes, N)
            empty_J += not J
            nonint += "x" in evals
            negative += any(e != "x" and e < 0 for e in evals)
    assert min(empty_J, nonint, negative) >= 50


def test_weight_set_levi_must_be_finite():
    affine = HighestWeight(parse_gcm([[2, -2], [-2, 2]]), [0, 0])
    with pytest.raises(ValueError, match="finite type"):
        weight_set(spec_from_sets(affine, [{1}, {2}]), 4)
    assert weight_set(spec_from_sets(affine, [{1}]), 3) == {
        c for c in depth_vectors(2, 3) if pvm_member(affine, {1}, c)
    }


def test_pvm_member_levi_must_be_finite():
    affine = HighestWeight(parse_gcm([[2, -2], [-2, 2]]), [0, 0])
    with pytest.raises(ValueError, match="finite type"):
        pvm_member(affine, {1, 2}, (1, 1))
    # the Levi on {1} is sl2: nu = lambda - alpha_2 has <nu, alpha_1^vee> = 2
    assert pvm_member(affine, {1}, (2, 1))
    assert not pvm_member(affine, {1}, (3, 1))
    with pytest.raises(ValueError, match="integrable"):
        pvm_member(affine, {3}, (0, 0))


def test_weight_member_v00():
    spec = v00()
    assert not weight_member(spec, (1, 1))
    assert weight_member(spec, (0, 3))
    assert weight_member(spec, (4, 0))
    assert not weight_member(spec, (-1, 0))
    for bad in [("a", 1), (1.5, 1), (True, 1), (1,)]:
        with pytest.raises(ValueError):
            weight_member(spec, bad)


def test_weight_set_v00():
    spec = v00()
    ws = weight_set(spec, 4)
    assert ws == {c for c in depth_vectors(2, 4) if c[0] * c[1] == 0}
    assert len(ws) == 9


def test_zero_module(monkeypatch):
    # the empty hole takes the general path: it has no transversal
    lam = HighestWeight(SL22, [0, 0])
    spec = HovmSpec(lam, HoleSet({1, 2}, [set()]))
    assert spec.min_transversals() == []
    assert weight_set(spec, 5) == set()
    assert not weight_member(spec, (0, 0))
    assert psi_k(spec, 1, 5) == psi_k(spec, math.inf, 5) == set()
    # an empty signed sum builds no partition table
    with monkeypatch.context() as m:
        m.setattr("hovm.characters.partition_table", None)
        assert inclusion_exclusion_char(spec, 5).coeffs == {}
    assert weight_set_minkowski(spec, 5) == set()
    assert altwts_check(spec, 5)
    # kept guard: no finite-type character of the affine J_lambda is built
    affine = HighestWeight(parse_gcm([[2, -2], [-2, 2]]), [0, 0])
    affine_zero = HovmSpec(affine, HoleSet({1, 2}, [set()]))
    assert weight_set_minkowski(affine_zero, 3) == set()
    # its Euler character is an empty sum, still refused outside finite type
    with pytest.raises(ValueError, match="not of finite type"):
        euler_char(koszul_resolution(affine, affine_zero.holes), 3)
    # kept guard: answered before the 2^12 subset cap of |J_lambda| = 13
    big = HighestWeight(parse_gcm("A1^13"), [0] * 13)
    assert altwts_check(HovmSpec(big, HoleSet(range(1, 14), [set()])), 1)


def test_sl5_rank4_weight_set():
    lam = HighestWeight(A4, [1, 0, 0, -1])
    assert integrability(lam) == {1, 2, 3}
    spec = spec_from_sets(lam, [{2}, {1, 3}])
    assert sorted(map(sorted, spec.min_transversals())) == [[1, 2], [2, 3]]
    ws = weight_set(spec, 8)
    assert ws == pvm_weight_set(lam, {1, 2}, 8) | pvm_weight_set(lam, {2, 3}, 8)


def test_triple_hole_axes():
    lam = HighestWeight(SL23, [0, 0, 0])
    spec = spec_from_sets(lam, [{1, 2}, {2, 3}, {1, 3}])
    ws = weight_set(spec, 5)
    axes = {c for c in depth_vectors(3, 5) if sum(1 for x in c if x) <= 1}
    assert ws == axes


def test_parabolic_specialization():
    # holes = all singletons of J reproduces the parabolic Verma weight set
    lam = HighestWeight(parse_gcm("A3"), [1, 0, "x"])
    spec = spec_from_sets(lam, [{1}, {2}])
    for c in depth_vectors(3, 6):
        assert weight_member(spec, c) == pvm_member(lam, {1, 2}, c)


def test_monotonicity_adding_holes():
    lam = HighestWeight(SL23, [1, 0, 2])
    small = spec_from_sets(lam, [{1, 2}])
    large = spec_from_sets(lam, [{1, 2}, {3}])
    assert weight_set(large, 6) <= weight_set(small, 6)


def test_t2_minkowski_small_types():
    cases = [
        ("A2", [1, 1], [[1], [2]]),
        ("A3", [1, 0, 1], [[1, 3]]),
        ("B2", [1, 0], [[1]]),
        ("A1^2", [0, 0], [[1, 2]]),
    ]
    for name, evals, holes in cases:
        lam = HighestWeight(parse_gcm(name), evals)
        spec = spec_from_sets(lam, [frozenset(h) for h in holes])
        assert weight_set_minkowski(spec, 8) == weight_set(spec, 8)


def _pair_sums(A, B, n, N):
    """{a + b} cut to height N as the Minkowski forms sum them: encoded,
    summed on codes below the limit, decoded once."""
    code = DepthCode(n, N)
    sums = _code_sum(map(code.encode, A), sorted(map(code.encode, B)), code.limit)
    return code.decode(sums)


def test_minkowski_sum_is_pair_sums():
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        for N in range(7):
            # coordinates up to N + 2, so some vectors lie past the cutoff
            A = {tuple(rng.randrange(N + 3) for _ in range(n)) for _ in range(5)}
            B = {tuple(rng.randrange(N + 3) for _ in range(n)) for _ in range(9)}
            want = {
                tuple(x + y for x, y in zip(a, b))
                for a in A for b in B if sum(a) + sum(b) <= N
            }
            assert _pair_sums(A, B, n, N) == want, (A, B, N)
            assert _pair_sums(A, set(), n, N) == _pair_sums(set(), B, n, N) == set()
    assert _pair_sums({(2,), (0,)}, {(0,), (3,)}, 1, 4) == {(0,), (2,), (3,)}


def test_minkowski_family():
    lam = HighestWeight(parse_gcm("A2"), [1, 1])
    assert minkowski_family_check(lam, {1}, {1, 2}, 6)
    assert minkowski_family_check(lam, {1}, {1}, 6)
    assert minkowski_family_check(lam, set(), {1, 2}, 6)
    with pytest.raises(ValueError):
        minkowski_family_check(lam, {1, 2}, {1}, 6)
    sl2 = HighestWeight(parse_gcm("A1"), [2])
    assert minkowski_family_check(sl2, set(), {1}, 8)


def test_psi_k_stability():
    lam = HighestWeight(SL23, [0, 1, 0])
    spec = spec_from_sets(lam, [{1, 2}, {2, 3}, {1, 3}])
    base = weight_set(spec, 6)
    for k in (1, 2, 3, math.inf):
        assert psi_k(spec, k, 6) == base


def test_psi_separating_weight():
    lam = HighestWeight(SL22, [0, 0])
    h1 = HoleSet({1, 2}, [{1, 2}])
    h2 = HoleSet({1, 2}, [{1}])
    # {1} is in the closure of h2 but not of h1, so the witness is lambda_{1}
    w = psi_separating_weight(lam, h1, h2)
    assert w == (1, 0)
    s1, s2 = HovmSpec(lam, h1), HovmSpec(lam, h2)
    assert weight_member(s1, w) != weight_member(s2, w)
    with pytest.raises(ValueError):
        psi_separating_weight(lam, h1, h1)
    hs1, hs2 = HoleSet({1, 2}, [{1}]), HoleSet({1, 2}, [{2}])
    assert psi_separating_weight(lam, hs1, hs2) in {(1, 0), (0, 1)}


PSI_TYPES = ["A3", "B3", "D4", "A1^3"]


def test_psi_separating_weight_separates():
    """The paper's pairwise distinct weight sets: the witness lies in the
    weight set of exactly one antichain, or the closures agree."""
    rng = random.Random(3)
    separated = agreed = 0
    for name in PSI_TYPES:
        g = parse_gcm(name)
        for _ in range(30):
            lam = HighestWeight(g, [rng.choice([0, 0, 1, 2, -1, "x"]) for _ in g.nodes])
            J = integrability(lam)
            indep = independent_sets(g, J)
            if not indep:
                continue
            sets1 = rng.sample(indep, rng.randint(0, min(3, len(indep))))
            if rng.random() < 0.3:
                # same closure: add supersets of holes already present
                sets2 = sets1 + [h for h in indep if any(s < h for s in sets1)]
            else:
                sets2 = rng.sample(indep, rng.randint(0, min(3, len(indep))))
            spec1, spec2 = spec_from_sets(lam, sets1), spec_from_sets(lam, sets2)
            closure1 = {h for h in indep if any(s <= h for s in sets1)}
            closure2 = {h for h in indep if any(s <= h for s in sets2)}
            if closure1 == closure2:
                with pytest.raises(ValueError, match="same closure"):
                    psi_separating_weight(lam, spec1.holes, spec2.holes)
                agreed += 1
                continue
            w = psi_separating_weight(lam, spec1.holes, spec2.holes)
            assert weight_member(spec1, w) != weight_member(spec2, w), (lam, sets1, sets2)
            separated += 1
    assert separated >= 50 and agreed >= 20


def test_altwts():
    assert altwts_check(v00(), 6)
    lam = HighestWeight(A4, [1, 0, 0, -1])
    assert altwts_check(spec_from_sets(lam, [{2}, {1, 3}]), 6)
    verma = HovmSpec(lam, HoleSet(integrability(lam), []))
    assert altwts_check(verma, 5)
    # 2^12 subsets of J_lambda is the most the alternate union runs over
    wide = HighestWeight(parse_gcm("A1^12"), [0] * 12)
    assert altwts_check(spec_from_sets(wide, [{1}]), 0)


def test_inclusion_exclusion_char_requires_sl2n():
    lam = HighestWeight(parse_gcm("A2"), [1, 1])
    with pytest.raises(ValueError):
        inclusion_exclusion_char(spec_from_sets(lam, [{1}]), 4)


def test_inclusion_exclusion_char_v00():
    ch = inclusion_exclusion_char(v00(), 5)
    assert ch.is_zero_one()
    assert ch.support() == weight_set(v00(), 5)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    spec = random_sl2n_spec(rng)
    mod = oracle_module(spec.lam, spec.holes, 8)
    assert weight_set(spec, 8) == oracle_weights(mod)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_weak_minkowski_random(seed):
    # freeness over the nodes outside the hole support
    rng = random.Random(seed)
    spec = random_sl2n_spec(rng)
    ws = weight_set(spec, 8)
    outside = [i for i in spec.gcm.nodes if i not in spec.holes.support()]
    for c in ws:
        for i in outside:
            bumped = tuple(
                x + 1 if k == i - 1 else x for k, x in enumerate(c)
            )
            if sum(bumped) <= 8:
                assert bumped in ws


def _walk_weight_set(spec, N):
    """wt M(lambda, H) up to height N, vector by vector, by the unbounded walk."""
    vectors = depth_vectors(spec.gcm.n, N)
    if not spec.holes.min_holes:
        return set(vectors)
    ts = spec.min_transversals()
    return {c for c in vectors if any(_unbounded_walk_member(spec.lam, T, c) for T in ts)}


CODE_CASES = [
    # (algebra, lambda, holes, N): no weight, radix 1, rank 1, rank 8, "x",
    # no hole
    ("A1^2", [1, 0], [[1]], -1),
    ("A3", [1, 0, 2], [[1], [3]], -1),
    ("A1", [2], [[1]], 0),
    ("A1", [2], [[1]], 1),
    ("A1", [2], [[1]], 7),
    ("A1", ["x"], [], 3),
    ("A1^3", [1, 0, 2], [[1, 2], [3]], 0),
    ("A3", [1, "x", 0], [[1], [3]], 0),
    ("A3", [1, "x", 0], [[1], [3]], 5),
    ("B3", [0, 2, "x"], [[2]], 5),
    ("E8", [0, 1, 0, 0, 2, 0, 0, 1], [[1, 4, 6], [2, 3], [5, 7]], 3),
    ("E8", [1, 0, "x", 0, 0, 1, 0, 0], [[1], [2, 6]], 3),
    ("E8", [0, -1, 0, 0, 0, 0, 0, "x"], [], 2),
]


@pytest.mark.parametrize("name,evals,holes,N", CODE_CASES)
def test_code_paths_match_walk(name, evals, holes, N):
    """Every formula on codes, at radix 1, rank 1 and rank 8 (eight digits
    and the height digit), against the per-vector walk."""
    lam = HighestWeight(parse_gcm(name), evals)
    spec = spec_from_sets(lam, [frozenset(h) for h in holes])
    want = _walk_weight_set(spec, N)
    assert weight_set(spec, N) == want
    assert weight_set_minkowski(spec, N) == want
    for k in (1, 2, math.inf):
        assert psi_k(spec, k, N) == want
    assert altwts_check(spec, N)
    for T in spec.min_transversals() or [frozenset()]:
        assert pvm_weight_set(lam, T, N) == {
            c for c in depth_vectors(lam.gcm.n, N) if _unbounded_walk_member(lam, T, c)
        }


def test_empty_J_is_the_verma():
    lam = HighestWeight(parse_gcm("A3"), ["x", 2, -1])
    for N in (0, 1, 4):
        assert pvm_weight_set(lam, set(), N) == set(depth_vectors(3, N))


def test_refusals_come_before_any_code(monkeypatch):
    def no_codes(*args):
        raise AssertionError("code work started")

    monkeypatch.setattr("hovm.weightsets.DepthCode", no_codes)
    affine = HighestWeight(parse_gcm([[2, -2], [-2, 2]]), [0, 0])
    spec = spec_from_sets(affine, [{1}, {2}])
    for call in (
        lambda: weight_set(spec, 4),
        lambda: psi_k(spec, 1, 4),
        lambda: altwts_check(spec, 4),
        lambda: pvm_weight_set(affine, {1, 2}, 4),
    ):
        with pytest.raises(ValueError, match="finite type"):
            call()
    with pytest.raises(ValueError, match="integrable"):
        pvm_weight_set(HighestWeight(SL22, ["x", 0]), {1}, 3)


def test_one_spec_at_several_heights():
    """The spec's store is keyed by height: asked at N = 4, 8, 4, one spec
    answers as a fresh spec does, and so do psi_k and the alternate union
    after weight_set at another height."""
    lam = HighestWeight(parse_gcm("A4"), [1, 0, 2, 0])
    holes = [{1, 3}, {2}, {4}]
    spec = spec_from_sets(lam, holes)
    for N in (4, 8, 4):
        fresh = spec_from_sets(lam, holes)
        assert weight_set(spec, N) == weight_set(fresh, N)
        assert psi_k(spec, 2, N + 1) == weight_set(spec_from_sets(lam, holes), N + 1)
        assert weight_set_minkowski(spec, N) == weight_set(fresh, N)
    zero = HighestWeight(SL23, [0, 0, 0])  # the Minkowski frame shares this store
    spec = spec_from_sets(zero, [{1, 2}, {3}])
    weight_set(spec, 3)
    assert weight_set_minkowski(spec, 5) == weight_set(spec_from_sets(zero, [{1, 2}, {3}]), 5)
    assert altwts_check(spec, 6) and psi_k(spec, 1, 2) == _walk_weight_set(spec, 2)


def test_store_holds_the_minimal_transversals_only():
    lam = HighestWeight(parse_gcm("A1^4"), [1, 0, 2, 1])
    spec = spec_from_sets(lam, [{1, 2}, {3}])
    assert spec._pvm_codes == {}
    weight_set(spec, 5)
    keys = {(T, 5) for T in spec.min_transversals()}
    assert set(spec._pvm_codes) == keys
    assert altwts_check(spec, 5)  # builds every K that hits each hole, keeps none
    assert set(spec._pvm_codes) == keys
    assert spec_from_sets(lam, [{1, 2}, {3}])._pvm_codes == {}


def test_sparse_weight_set_decodes_its_output_only():
    # the parabolic Verma of E8 on all nodes at lambda = 0 is L(0): one weight,
    # found without touching the C(68, 8) vectors of height <= 60
    lam = HighestWeight(parse_gcm("E8"), [0] * 8)
    spec = spec_from_sets(lam, [{i} for i in range(1, 9)])
    start = time.perf_counter()
    assert weight_set(spec, 60) == {(0,) * 8}
    assert time.perf_counter() - start < 0.5
