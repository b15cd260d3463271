import itertools

import pytest

from hovm import cat_o
from hovm.cat_o import (
    Block,
    build_block,
    kl_bases,
    kl_weight_of_index,
    reciprocity_table,
    simples_in_block,
    universal_cover,
)
from hovm.holes import CapExceeded, HoleSet
from hovm.rootdata import parse_gcm
from hovm.weights import HighestWeight, integrability

SL22 = parse_gcm("A1^2")
SL23 = parse_gcm("A1^3")


def block_v00():
    lam = HighestWeight(SL22, [0, 0])
    return build_block(lam)


def bh_v00():
    return simples_in_block(block_v00(), HoleSet({1, 2}, [{1, 2}]))


def test_build_block():
    b = block_v00()
    assert b.k_star == {1, 2}
    assert b.lam_tilde.evals == (0, 0)
    assert b.member(set()).evals == (0, 0)
    assert b.member({1}).evals == (-2, 0)
    assert b.member_depth({1}) == (1, 0)
    assert b.member_depth({1, 2}) == (1, 1)
    with pytest.raises(ValueError):
        b.member({3})


def test_build_block_nontrivial_conjugate():
    lam = HighestWeight(SL22, [-2, 0])
    b = build_block(lam)
    assert b.k_star == {1, 2}
    assert b.lam_tilde.evals == (0, 0)


@pytest.mark.parametrize(
    "lam, fits",
    [
        ([0, 0], True),  # 2^2 members: at the cap
        ([0, -1, "x"], True),  # K* = {1}: the cap counts K*, not n
        ([0, 0, 0], False),  # 2^3 members: past it
    ],
)
def test_a_block_is_refused_past_its_cap(monkeypatch, lam, fits):
    assert cat_o._BLOCK_CAP == 2**9
    monkeypatch.setattr(cat_o, "_BLOCK_CAP", 4)
    hw = HighestWeight(parse_gcm("A1^%d" % len(lam)), lam)
    if fits:
        assert len(build_block(hw).all_indices()) <= 4
    else:
        with pytest.raises(CapExceeded):
            build_block(hw)


def test_k_star_exclusions():
    lam = HighestWeight(SL22, ["x", -1])
    b = build_block(lam)
    assert b.k_star == frozenset()
    lam2 = HighestWeight(SL23, [2, -1, "x"])
    assert build_block(lam2).k_star == {1}


def test_block_integrability_identity():
    # J of the member indexed by K is exactly K* \ K
    lam = HighestWeight(SL23, [1, 0, 2])
    b = build_block(lam)
    for K in b.all_indices():
        assert integrability(b.member(K)) == b.k_star - K


def test_simples_in_block():
    bh = bh_v00()
    assert bh.simple_index == {frozenset(), frozenset({1}), frozenset({2})}
    all_bh = simples_in_block(block_v00(), HoleSet({1, 2}, []))
    assert len(all_bh.simple_index) == 4
    one = simples_in_block(block_v00(), HoleSet({1, 2}, [{1}]))
    assert one.simple_index == {frozenset(), frozenset({2})}


def test_universal_covers_v00():
    bh = bh_v00()
    top = universal_cover(bh, set())
    assert top.holes.min_holes == (frozenset({1, 2}),)
    c1 = universal_cover(bh, {1})
    assert c1.lam.evals == (-2, 0)
    assert c1.holes.min_holes == (frozenset({2}),)
    # {1, 2} is outside the simple index: J of its member misses the hole
    assert universal_cover(bh, {1, 2}).holes.is_zero()


def test_jh_multiplicities_v00():
    bh = bh_v00()
    # rhs of (K, K2) is [cover(K2) : L(K)]; {1, 2} is not in the category
    rhs = {(tuple(sorted(K)), tuple(sorted(K2))): v["rhs"]
           for (K, K2), v in reciprocity_table(bh).items()}
    # the cover of the dominant member has length 3
    assert rhs[(), ()] == 1
    assert rhs[(1,), ()] == 1
    assert rhs[(2,), ()] == 1
    assert ((1, 2), ()) not in rhs
    # the covers of the singleton members are simple
    assert rhs[(1,), (1,)] == 1
    assert rhs[(2,), (1,)] == 0
    assert ((1, 2), (1,)) not in rhs


def test_reciprocity_v00():
    bh = bh_v00()
    table = reciprocity_table(bh)
    assert len(table) == 9
    for (K, K2), entry in table.items():
        assert entry["lhs"] == entry["rhs"] == int(K2 <= K)
        assert (entry["K"], entry["K2"]) == (sorted(K), sorted(K2))
        assert entry["equal"]
    # the short exact sequences of the two singleton projectives:
    # 0 -> M(lam, {1}) -> P(s2.lam) -> M(s2.lam, {1}) -> 0 and its mirror
    e = table[(frozenset({2}), frozenset())]
    assert e["lhs"] == 1 and e["standard_holes"] == [[1]]
    assert e["breakdown"] == [{"holes": [[1]], "mult": 1}]
    e2 = table[(frozenset({1}), frozenset())]
    assert e2["standard_holes"] == [[2]]


def test_reciprocity_no_holes_classical():
    bh = simples_in_block(block_v00(), HoleSet({1, 2}, []))
    table = reciprocity_table(bh)
    assert len(table) == 16
    assert all(v["equal"] for v in table.values())
    # Verma covers throughout
    assert all(v["standard_holes"] == [] for v in table.values())


def test_kl_bases_v00():
    bh = bh_v00()
    bases = kl_bases(bh)
    index = bases["index"]
    assert index == [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    top = frozenset({1, 2})
    # C_{12} = T_{12} - T_1 - T_2 in the quotient without T_empty
    assert bases["C_in_T"][top] == {
        frozenset({1}): -1,
        frozenset({2}): -1,
        top: 1,
    }
    assert bases["T_in_C"][top] == {
        frozenset({1}): 1,
        frozenset({2}): 1,
        top: 1,
    }
    for K in index:
        for K2 in index:
            product = sum(
                bases["C_in_T"][K][L] * bases["T_in_C"][L][K2] for L in index
            )
            assert product == (1 if K == K2 else 0)


def test_kl_group_algebra_identity():
    # T_{12} = T_1 T_2 at q=1 in the group algebra of (Z/2)^2: both sides
    # are the sum over all subsets of {1,2} of the group elements w_K
    subsets = [frozenset(s) for r in range(3) for s in itertools.combinations((1, 2), r)]
    t1 = [frozenset(), frozenset({1})]
    t2 = [frozenset(), frozenset({2})]
    product = sorted((a ^ b for a in t1 for b in t2), key=sorted)
    assert product == sorted(subsets, key=sorted)


def test_kl_weight_of_index():
    bh = bh_v00()
    assert kl_weight_of_index(bh, {1, 2}).evals == (0, 0)
    assert kl_weight_of_index(bh, {1}).evals == (0, -2)  # s2 . lam


def test_cutoff_covers_block():
    lam = HighestWeight(SL23, [2, 1, 0])
    b = build_block(lam)
    assert b.cutoff() == (3 + 2 + 1) + 4
    deepest = b.member_depth(b.k_star)
    assert sum(deepest) < b.cutoff()


def test_requires_sl2n():
    with pytest.raises(ValueError):
        build_block(HighestWeight(parse_gcm("A2"), [0, 0]))
