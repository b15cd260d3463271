"""End-to-end acceptance suite: ten numbered criteria, one line each.

Every check is exact integer equality; each criterion also carries a
wall-clock budget.  Run with -s to see the per-criterion lines.
"""

import itertools
import math
import random
import time

from hovm.cat_o import (
    build_block,
    kl_bases,
    kl_weight_of_index,
    reciprocity_table,
    simples_in_block,
    universal_cover,
)
from hovm.holes import HoleSet, minimalize
from hovm.oracle import (
    oracle_char,
    oracle_jh,
    oracle_module,
    oracle_simple_char,
    oracle_weights,
)
from hovm.resolutions import (
    euler_char,
    koszul_resolution,
    sign_symmetry_check,
    taylor_resolution,
    verify_complex,
)
from hovm.rootdata import independent_sets, parse_gcm
from hovm.verify import random_sl2n_spec, random_weight
from hovm.weights import HighestWeight, depth_vectors, integrability
from hovm.weightsets import (
    HovmSpec,
    inclusion_exclusion_char,
    minkowski_family_check,
    psi_k,
    pvm_weight_set,
    spec_from_sets,
    weight_set,
    weight_set_minkowski,
)
from hovm.weyl import order_of_hole_product


def _report(num, ok, desc, dt, budget):
    status = "PASS" if ok and dt < budget else "FAIL"
    line = "criterion %2d: %s - %s (%.2fs, budget %ds)" % (
        num, status, desc, dt, budget
    )
    print(line)
    assert status == "PASS", line


def test_criterion_1_v00_suite():
    t0 = time.monotonic()
    lam = HighestWeight(parse_gcm("A1^2"), [0, 0])
    hs = HoleSet({1, 2}, [{1, 2}])
    spec = HovmSpec(lam, hs)
    ws = weight_set(spec, 10)
    ok = ws == {c for c in depth_vectors(2, 10) if c[0] * c[1] == 0}
    res = koszul_resolution(lam, hs)
    ok = ok and res.levels[0] == [(frozenset(), (0, 0))]
    ok = ok and res.levels[1] == [(frozenset({1}), (1, 1))]
    ch = euler_char(res, 10)
    ok = ok and ch.is_zero_one() and ch.support() == ws
    _report(1, ok, "V00 weight set, resolution, Euler character", time.monotonic() - t0, 1)


def test_criterion_2_sl5_rank4_suite():
    t0 = time.monotonic()
    g = parse_gcm("A4")
    lam = HighestWeight(g, [1, 0, 0, -1])
    ok = integrability(lam) == {1, 2, 3}
    indep = independent_sets(g, integrability(lam))
    ok = ok and sorted(map(sorted, indep)) == [[1], [1, 3], [2], [3]]
    spec = spec_from_sets(lam, [{2}, {1, 3}])
    ws = weight_set(spec, 10)
    ok = ok and ws == pvm_weight_set(lam, {1, 2}, 10) | pvm_weight_set(lam, {2, 3}, 10)
    v1 = HovmSpec(lam, HoleSet(integrability(lam), []))
    ok = ok and weight_set(v1, 10) == set(depth_vectors(4, 10))
    v2 = spec_from_sets(lam, [{1}])
    ok = ok and weight_set(v2, 10) == pvm_weight_set(lam, {1}, 10)
    _report(2, ok, "sl5 rank-4 weight sets", time.monotonic() - t0, 10)


def _criterion3_instances():
    rng = random.Random(31)
    return [random_sl2n_spec(rng) for _ in range(200)]


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    N = 12
    ok = True
    for spec in _criterion3_instances():
        mod = oracle_module(spec.lam, spec.holes, N)
        expected_w = oracle_weights(mod)
        expected_c = oracle_char(mod)
        if weight_set(spec, N) != expected_w:
            ok = False
            break
        if weight_set_minkowski(spec, N) != expected_w:
            ok = False
            break
        if inclusion_exclusion_char(spec, N) != expected_c:
            ok = False
            break
        res = taylor_resolution(spec.lam, spec.holes)
        if euler_char(res, N) != expected_c:
            ok = False
            break
    _report(3, ok, "200 sl2^n instances vs oracle at N=12", time.monotonic() - t0, 60)


def test_criterion_4_minkowski_family():
    t0 = time.monotonic()
    rng = random.Random(47)
    count, ok = 0, True
    while count < 50 and ok:
        name = rng.choice(["A2", "A3", "B2"])
        g = parse_gcm(name)
        lam = random_weight(rng, g)
        J_lam = sorted(integrability(lam))
        j2_size = rng.randint(0, len(J_lam))
        J2 = frozenset(rng.sample(J_lam, j2_size))
        J = frozenset(rng.sample(sorted(J2), rng.randint(0, len(J2))))
        ok = minkowski_family_check(lam, J, J2, 8)
        count += 1
    _report(4, ok and count >= 50, "Minkowski family on A2/A3/B2", time.monotonic() - t0, 60)


def _orthogonal_instances(names, trials, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < trials:
        g = parse_gcm(rng.choice(names))
        lam = random_weight(rng, g, nonint_prob=0.15)
        J = integrability(lam)
        candidates = independent_sets(g, J)
        rng.shuffle(candidates)
        holes = []
        for h in candidates:
            if all(
                not (h & h2)
                and not any(g.adjacent(a, b) for a in h for b in h2)
                for h2 in holes
            ):
                holes.append(h)
            if len(holes) == 3:
                break
        if not holes:
            continue
        out.append((lam, minimalize(g, J, holes)))
    return out


def test_criterion_5_psi_k_stability():
    t0 = time.monotonic()
    N = 8
    ok = True
    instances = [(s.lam, s.holes) for s in _criterion3_instances()]
    instances += _orthogonal_instances(["A3"], 10, seed=53)
    for lam, holes in instances:
        spec = HovmSpec(lam, holes)
        base = psi_k(spec, 1, N)
        if psi_k(spec, 2, N) != base or psi_k(spec, math.inf, N) != base:
            ok = False
            break
        if base != weight_set(spec, N):
            ok = False
            break
    _report(5, ok, "psi_k identical for k = 1, 2, inf", time.monotonic() - t0, 60)


def test_criterion_6_setting1_positivity():
    t0 = time.monotonic()
    N = 8
    ok = True
    for lam, holes in _orthogonal_instances(["A3", "B3"], 30, seed=61):
        res = koszul_resolution(lam, holes)
        if not verify_complex(res):
            ok = False
            break
        ch = euler_char(res, N)
        if any(m < 0 for m in ch.coeffs.values()):
            ok = False
            break
        if ch.support() != weight_set(HovmSpec(lam, holes), N):
            ok = False
            break
    _report(6, ok, "Koszul Euler positivity on A3/B3", time.monotonic() - t0, 60)


def _all_blocks_n_le_3():
    """All sl2^n blocks with n <= 3, m_i <= 3, paired with every hole antichain."""
    for n in (1, 2, 3):
        gcm = parse_gcm("A1^%d" % n)
        nodes = list(gcm.nodes)
        subsets = [
            frozenset(s)
            for size in range(1, n + 1)
            for s in itertools.combinations(nodes, size)
        ]
        antichains = [[]]
        for r in range(1, len(subsets) + 1):
            for combo in itertools.combinations(subsets, r):
                if all(
                    not (a <= b or b <= a)
                    for a, b in itertools.combinations(combo, 2)
                ):
                    antichains.append(list(combo))
        for evals in itertools.product(range(3), repeat=n):  # m_i = eval+1 in 1..3
            lam = HighestWeight(gcm, list(evals))
            block = build_block(lam)
            for chain in antichains:
                yield simples_in_block(block, HoleSet(frozenset(nodes), chain))


def test_criterion_7_bgg_reciprocity():
    t0 = time.monotonic()
    ok = True
    for bh in _all_blocks_n_le_3():
        table = reciprocity_table(bh)
        block = bh.block
        N = block.cutoff()
        # oracle cross-check of the left-hand sides: the JH peel of the
        # cover K2 has its tops at the K whose projective has a standard
        # subquotient of index K2
        for K2 in bh.simple_index:
            spec = universal_cover(bh, K2)
            base = block.member_depth(K2)
            mod = oracle_module(spec.lam, spec.holes, N - sum(base))
            got = sorted(
                (tuple(a + b for a, b in zip(base, c)), m) for c, m in oracle_jh(mod)
            )
            expected = sorted(
                (block.member_depth(K), table[(K, K2)]["lhs"])
                for K in bh.simple_index
                if table[(K, K2)]["lhs"]
            )
            if got != expected:
                ok = False
        if not ok:
            break
    # Eses: the singleton projectives in the V00 block have length-2
    # standard filtrations by M(lam,{1}) resp. M(s2.lam,{1}) etc., and the
    # cover of the dominant member has length 3
    lam00 = HighestWeight(parse_gcm("A1^2"), [0, 0])
    bh = simples_in_block(build_block(lam00), HoleSet({1, 2}, [{1, 2}]))
    table = reciprocity_table(bh)
    e = table[(frozenset({2}), frozenset())]
    ok = ok and e["lhs"] == 1 and e["standard_holes"] == [[1]]
    e2 = table[(frozenset({1}), frozenset())]
    ok = ok and e2["lhs"] == 1 and e2["standard_holes"] == [[2]]
    cover = universal_cover(bh, frozenset())
    mod = oracle_module(cover.lam, cover.holes, bh.block.cutoff())
    ok = ok and len(oracle_jh(mod)) == 3
    _report(7, ok, "exhaustive BGG reciprocity, n <= 3", time.monotonic() - t0, 120)


def test_criterion_8_truncated_kl():
    t0 = time.monotonic()
    ok = True
    for bh in _all_blocks_n_le_3():
        bases = kl_bases(bh)
        index = bases["index"]
        t_in_c, c_in_t = bases["T_in_C"], bases["C_in_T"]
        if not all(
            sum(c_in_t[K][L] * t_in_c[L][K2] for L in index) == int(K == K2)
            for K in index
            for K2 in index
        ):
            ok = False
            break
        # signed character identity in the oracle
        block = bh.block
        N = block.cutoff()
        ks = block.k_star
        for K in index:
            mu = kl_weight_of_index(bh, K)
            base = block.member_depth(ks - K)
            lhs = {}
            for c, m in oracle_simple_char(mu, N - sum(base)).coeffs.items():
                lhs[tuple(a + b for a, b in zip(base, c))] = m
            rhs = {}
            for K2 in index:
                if not K2 <= K:
                    continue
                sign = (-1) ** (len(K) - len(K2))
                spec = universal_cover(bh, ks - K2)
                b2 = block.member_depth(ks - K2)
                mod = oracle_module(spec.lam, spec.holes, N - sum(b2))
                for c, m in oracle_char(mod).coeffs.items():
                    d = tuple(a + b for a, b in zip(b2, c))
                    rhs[d] = rhs.get(d, 0) + sign * m
            rhs = {c: m for c, m in rhs.items() if m}
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    # sl2^2: C_{{1,2}} = T_{{1,2}} - T_{{1}} - T_{{2}} with T_{{1,2}} = T_1 T_2
    lam00 = HighestWeight(parse_gcm("A1^2"), [0, 0])
    bh = simples_in_block(build_block(lam00), HoleSet({1, 2}, [{1, 2}]))
    bases = kl_bases(bh)
    top = frozenset({1, 2})
    ok = ok and bases["C_in_T"][top] == {
        frozenset({1}): -1,
        frozenset({2}): -1,
        top: 1,
    }
    _report(8, ok, "truncated KL inversion and characters", time.monotonic() - t0, 120)


def test_criterion_9_coxeter_order():
    t0 = time.monotonic()
    ok = True
    for name in ["A1", "A2", "A3", "A4", "A5", "A6", "D4"]:
        g = parse_gcm(name)
        indep = independent_sets(g, set(g.nodes))
        for k in (2, 3):
            for combo in itertools.combinations(indep, k):
                if any(a & b for a, b in itertools.combinations(combo, 2)):
                    continue
                lcm_val = order_of_hole_product(g, list(combo))
                direct = order_of_hole_product(g, list(combo), method="direct")
                if lcm_val != direct:
                    ok = False
    a4 = parse_gcm("A4")
    ok = ok and order_of_hole_product(a4, [{1}, {2, 4}]) == 6
    ok = ok and order_of_hole_product(a4, [{1}, {3}]) == 2
    ok = ok and order_of_hole_product(a4, [{3}, {2, 4}]) == 4
    _report(9, ok, "lcm order formula vs direct, sl5 values", time.monotonic() - t0, 60)


def test_criterion_10_sign_symmetry():
    t0 = time.monotonic()
    ok = True
    for lam, holes in _orthogonal_instances(["A3", "B3"], 30, seed=61):
        if not sign_symmetry_check(lam, holes):
            ok = False
            break
    _report(10, ok, "numerator sign symmetry in Setting 1", time.monotonic() - t0, 60)
