import pytest

from hovm.characters import parabolic_verma_char, verma_char
from hovm.holes import HoleSet
from hovm.oracle import oracle_char, oracle_module
from hovm.resolutions import (
    dihedral_candidate,
    euler_char,
    koszul_resolution,
    sign_symmetry_check,
    taylor_resolution,
    verify_complex,
    wcf_terms,
)
from hovm.rootdata import parse_gcm
from hovm.weights import HighestWeight
from hovm.weightsets import HovmSpec, spec_from_sets, weight_set

SL22 = parse_gcm("A1^2")
SL23 = parse_gcm("A1^3")


def test_koszul_v00():
    lam = HighestWeight(SL22, [0, 0])
    res = koszul_resolution(lam, HoleSet({1, 2}, [{1, 2}]))
    assert res.levels[0] == [(frozenset(), (0, 0))]
    assert res.levels[1] == [(frozenset({1}), (1, 1))]
    assert verify_complex(res)
    ch = euler_char(res, 8)
    assert ch.is_zero_one()
    assert ch.support() == weight_set(HovmSpec(lam, res_holes(res)), 8)


def res_holes(res):
    return HoleSet(
        frozenset().union(*res.hole_list) if res.hole_list else frozenset(),
        res.hole_list,
    )


def test_koszul_rejects_non_orthogonal():
    lam = HighestWeight(SL23, [0, 0, 0])
    with pytest.raises(ValueError):
        koszul_resolution(lam, HoleSet({1, 2, 3}, [{1, 2}, {2, 3}]))
    a3 = HighestWeight(parse_gcm("A3"), [0, 0, 0])
    with pytest.raises(ValueError):
        # adjacent holes {1} and {2} are not orthogonal
        koszul_resolution(a3, HoleSet({1, 2, 3}, [{1}, {2}]))
    with pytest.raises(ValueError, match="hole is not independent"):
        koszul_resolution(a3, HoleSet({1, 2, 3}, [{1, 2}]))


def test_koszul_square_a3():
    lam = HighestWeight(parse_gcm("A3"), [1, "x", 1])
    res = koszul_resolution(lam, HoleSet({1, 3}, [{1}, {3}]))
    assert len(res.levels[2]) == 1
    assert res.levels[2][0][1] == (2, 0, 2)
    assert verify_complex(res)
    # anticommuting square: the two paths to level 0 carry opposite signs
    s1 = res.diffs[(frozenset({1, 2}), frozenset({1}))][0]
    s2 = res.diffs[(frozenset({1, 2}), frozenset({2}))][0]
    assert s1 == -s2


def test_no_holes_single_level():
    lam = HighestWeight(SL22, [1, "x"])
    res = koszul_resolution(lam, HoleSet({1}, []))
    assert list(res.entries()) == [(0, frozenset(), (0, 0))]
    assert euler_char(res, 6) == verma_char(lam, 6)


def test_taylor_triple_coincident_weights():
    lam = HighestWeight(SL23, [0, 0, 0])
    hs = HoleSet({1, 2, 3}, [{1, 2}, {1, 3}, {2, 3}])
    res = taylor_resolution(lam, hs)
    assert verify_complex(res)
    # all level-2 and level-3 highest weights coincide at depth (1,1,1)
    for t in (2, 3):
        for _, w in res.levels[t]:
            assert w == (1, 1, 1)
    # kept as distinct indexed entries, never merged
    assert len(res.levels[2]) == 3 and len(res.levels[3]) == 1
    assert euler_char(res, 8) == oracle_char(oracle_module(lam, hs, 8))


def test_taylor_two_holes_factors():
    lam = HighestWeight(SL23, [0, 0, 0])
    hs = HoleSet({1, 2, 3}, [{1, 2}, {2, 3}])
    res = taylor_resolution(lam, hs)
    # d2 factors are the lcm quotients f_{H2\H1} and f_{H1\H2}
    top = frozenset({1, 2})
    assert res.diffs[(top, frozenset({1}))][1] == (0, 0, 1)
    assert res.diffs[(top, frozenset({2}))][1] == (1, 0, 0)
    assert verify_complex(res)


def test_taylor_requires_independent_integrability():
    lam = HighestWeight(parse_gcm("A2"), [0, 0])
    with pytest.raises(ValueError):
        taylor_resolution(lam, HoleSet({1}, [{1}]))


def test_taylor_disjoint_equals_koszul():
    lam = HighestWeight(SL23, [1, 0, 2])
    hs = HoleSet({1, 2, 3}, [{1}, {2, 3}])
    k = koszul_resolution(lam, hs)
    t = taylor_resolution(lam, hs)
    assert k.levels == t.levels
    assert k.diffs == t.diffs


def test_euler_orthogonal_singletons_is_parabolic_verma():
    lam = HighestWeight(parse_gcm("A3"), [2, "x", 1])
    res = koszul_resolution(lam, HoleSet({1, 3}, [{1}, {3}]))
    assert euler_char(res, 7) == parabolic_verma_char(lam, {1, 3}, 7)


def test_wcf_terms():
    lam = HighestWeight(SL22, [0, 0])
    terms = wcf_terms(lam, HoleSet({1, 2}, [{1, 2}]), "koszul")
    assert terms == [(1, (0, 0), 0), (-1, (1, 1), 1)]
    lam3 = HighestWeight(SL23, [0, 0, 0])
    terms3 = wcf_terms(
        lam3, HoleSet({1, 2, 3}, [{1, 2}, {1, 3}, {2, 3}]), "taylor"
    )
    assert len(terms3) == 8
    # net coefficient of the shift at (1,1,1): three level-2 terms and one
    # level-3 term
    net = sum(s for s, w, _ in terms3 if w == (1, 1, 1))
    assert net == 3 - 1
    with pytest.raises(ValueError):
        wcf_terms(lam, HoleSet({1, 2}, [{1, 2}]), "dihedral")


def test_sign_symmetry():
    lam = HighestWeight(SL22, [0, 0])
    assert sign_symmetry_check(lam, HoleSet({1, 2}, [{1, 2}]))
    lam3 = HighestWeight(parse_gcm("A3"), [1, "x", 2])
    assert sign_symmetry_check(lam3, HoleSet({1, 3}, [{1}, {3}]))


def test_dihedral_orthogonal_reproduces_koszul_square():
    lam = HighestWeight(SL23, [0, 1, 0])
    levels, char, report = dihedral_candidate(lam, {1}, {3}, 6)
    assert report["order"] == 2
    assert report["accepted"]
    assert sorted(len(v) for v in levels.values()) == [1, 1, 2]
    res = koszul_resolution(lam, HoleSet({1, 3}, [{1}, {3}]))
    assert euler_char(res, 6) == char


def test_dihedral_a2():
    lam = HighestWeight(parse_gcm("A2"), [0, 0])
    levels, char, report = dihedral_candidate(lam, {1}, {2}, 6)
    assert report["order"] == 3
    assert report["experimental"]
    # 2m = 6 modules across m+1 = 4 levels
    assert sum(len(v) for v in levels.values()) == 6
    assert report["accepted"]


def test_dihedral_sl5():
    lam = HighestWeight(parse_gcm("A4"), [0, 0, 0, 0])
    levels, char, report = dihedral_candidate(lam, {1}, {2, 4}, 6)
    assert report["order"] == 6
    assert len(levels) == 7
    assert sum(len(v) for v in levels.values()) == 12


def test_dihedral_rejects_overlap():
    lam = HighestWeight(SL23, [0, 0, 0])
    with pytest.raises(ValueError):
        dihedral_candidate(lam, {1, 2}, {2, 3}, 5)
