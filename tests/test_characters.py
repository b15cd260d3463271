import collections
import itertools
import math
import operator
import random

import pytest

from hovm import characters, weights
from hovm.characters import (
    FormalCharacter,
    _two_rho_vee,
    dot_orbit_terms,
    kostant_partition,
    parabolic_verma_char,
    partition_table,
    shifted_partition_sum,
    simple_finite_char,
    verma_char,
)
from hovm.oracle import freudenthal_char
from hovm.rootdata import parse_gcm, positive_roots
from hovm.weights import DepthCode, HighestWeight, depth_vectors, dot_reflect, height

A2 = parse_gcm("A2")
B2 = parse_gcm("B2")
SL22 = parse_gcm("A1^2")


def test_formal_character_algebra():
    a = FormalCharacter(5, {(0, 0): 1, (1, 0): 2})
    b = FormalCharacter(4, {(1, 0): 2, (0, 1): 1})
    s = a + b
    assert s.cutoff == 4
    assert s.coeff((1, 0)) == 4
    d = a - b
    assert d.coeff((1, 0)) == 0 and (1, 0) not in d.coeffs


def test_kostant_partition_a2():
    assert kostant_partition(A2, (0, 0)) == 1
    assert kostant_partition(A2, (1, 1)) == 2
    assert kostant_partition(A2, (2, 2)) == 3
    assert kostant_partition(A2, (2, 1)) == 2
    assert kostant_partition(A2, (1, 0)) == 1


def test_kostant_partition_b2():
    # B2 positive roots here: a1, a2, a1+a2, 2a1+a2
    assert kostant_partition(B2, (1, 1)) == 2
    assert kostant_partition(B2, (2, 1)) == 3
    assert kostant_partition(B2, (1, 2)) == 2


@pytest.mark.parametrize("name", ["A3", "B2", "C3", "G2"])
def test_kostant_partition_brute_force(name):
    # count multisets of positive roots directly; each root has height >= 1,
    # so a multiset summing to height <= 6 has at most 6 members
    g = parse_gcm(name)
    roots = positive_roots(g).positive_roots
    counts = collections.Counter()
    for size in range(7):
        for combo in itertools.combinations_with_replacement(roots, size):
            counts[tuple(map(sum, zip(*combo))) if combo else (0,) * g.n] += 1
    for beta in depth_vectors(g.n, 6):
        assert kostant_partition(g, beta) == counts[beta], beta
    assert kostant_partition(g, (-1,) + (0,) * (g.n - 1)) == 0


@pytest.mark.parametrize("beta", [(1,), (1, 1, 5), ()])
def test_kostant_partition_refuses_a_wrong_length(beta):
    # a malformed vector is refused, not read as "no partition"
    with pytest.raises(ValueError):
        kostant_partition(A2, beta)
    assert kostant_partition(A2, (-1, 3)) == 0


def test_partition_table_grows_in_place(monkeypatch):
    # the kept table grows for a taller N; a shorter N is answered from the
    # taller table, at exactly N
    g = parse_gcm("C3")
    monkeypatch.setattr(characters, "_tables", {})
    small = partition_table(g, 4)
    assert small.cutoff == 4 and characters._tables[g].cutoff == 4
    tall = partition_table(g, 8)
    table = characters._tables[g]
    assert list(characters._tables) == [g] and table.cutoff == 8
    assert tall.cutoff == 8 and {c: tall.coeffs[c] for c in small.coeffs} == small.coeffs
    assert partition_table(g, 4) == small
    assert kostant_partition(g, (1, 1, 1)) == tall.coeff((1, 1, 1))
    assert characters._tables[g] is table


def test_partition_tables_are_kept_in_a_bounded_lru(monkeypatch):
    assert characters._TABLES_KEPT == 8
    monkeypatch.setattr(characters, "_tables", {})
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]
    gcms = [parse_gcm(name) for name in names]
    first = characters._table(gcms[0], 6)
    # each use moves a table to the back; past the bound the oldest goes
    for g in gcms[1:8]:
        characters._table(g, 3)
        assert characters._table(gcms[0], 4) is first
    assert len(characters._tables) == characters._TABLES_KEPT
    for g in gcms[8:]:
        characters._table(g, 3)
        assert len(characters._tables) == characters._TABLES_KEPT
    assert gcms[0] in characters._tables and gcms[1] not in characters._tables
    for g in gcms[1:8]:
        characters._table(g, 3)
    assert gcms[0] not in characters._tables
    rebuilt = characters._table(gcms[0], 6)  # an evicted table rebuilds equal
    assert rebuilt is not first and rebuilt.cutoff == first.cutoff
    assert (rebuilt.codes, rebuilt.values) == (first.codes, first.values)


def test_sums_decode_through_the_shared_code(monkeypatch):
    # a table does not hold a code of its own: once the shared codes have
    # dropped (2, 5), a sum at (2, 5) decodes through the one DepthCode(2, 5)
    monkeypatch.setattr(characters, "_tables", {})
    characters._table(A2, 5)
    for N in range(300, 300 + weights._CODES_KEPT):
        DepthCode(1, N)
    code = DepthCode(2, 5)
    assert code.vectors == {}
    ch = shifted_partition_sum(A2, [(1, (0, 0)), (-1, (1, 0))], 5)
    assert ch.support() and ch.support() <= set(code.vectors.values())
    assert DepthCode(2, 5) is code


def test_root_caches_are_bounded():
    assert positive_roots.cache_info().maxsize == 256
    assert _two_rho_vee.cache_info().maxsize == 256


def test_tables_of_one_rank_stay_apart():
    # C3 at N = 4, then B3 (same rank) at N = 8: C3 still answers at a
    # taller N, by its own table, on the code of its own new cutoff
    c3, b3 = parse_gcm("C3"), parse_gcm("B3")
    for g in (c3, b3):
        characters._tables.pop(g, None)
    assert partition_table(c3, 4).coeffs == _tuple_table(c3, 4)
    assert partition_table(b3, 8).coeffs == _tuple_table(b3, 8)
    want = FormalCharacter(6, _tuple_table(c3, 6))
    assert shifted_partition_sum(c3, [(1, (0, 0, 0))], 6) == want
    assert list(partition_table(c3, 6).coeffs.items()) == list(want.coeffs.items())


def _tuple_table(gcm, N):
    """The tuple engine the integer codes replaced: coin change on depth
    vectors, keys in order of height."""
    vectors = sorted(depth_vectors(gcm.n, N), key=height)
    counts = dict.fromkeys(vectors, 0)
    counts[vectors[0]] = 1
    for beta in positive_roots(gcm).positive_roots:
        for c in vectors:
            rest = tuple(map(operator.sub, c, beta))
            if min(rest) >= 0:
                counts[c] += counts[rest]
    return counts


def _tuple_shifted_sum(table, n, terms, N):
    numerator = {}
    for sign, d in terms:
        if height(d) <= N:
            numerator[d] = numerator.get(d, 0) + sign
    coeffs = {}
    for d, sign in numerator.items():
        room = N - height(d)
        for c, m in itertools.islice(table.items(), math.comb(room + n, n)):
            c = tuple(map(operator.add, c, d))
            coeffs[c] = coeffs.get(c, 0) + sign * m
    return {c: m for c, m in coeffs.items() if m}


def _random_depth(rng, n, top):
    c = [0] * n
    for _ in range(rng.randrange(top + 1)):
        c[rng.randrange(n)] += 1
    return tuple(c)


@pytest.mark.parametrize("name", ["A1^4", "B2", "G2", "B3", "C3", "D4", "F4", "E6"])
def test_code_engine_matches_tuple_engine(name):
    g = parse_gcm(name)
    rng = random.Random(name)
    table = _tuple_table(g, 8)
    for N in range(9):
        prefix = dict(itertools.islice(table.items(), math.comb(N + g.n, g.n)))
        got = partition_table(g, N).coeffs
        assert list(itertools.islice(got.items(), len(prefix))) == list(prefix.items())
        for _ in range(6):
            # shifts up to N + 3 tall, so some fall past the cutoff
            terms = [
                (rng.choice([-2, -1, 1, 2]), _random_depth(rng, g.n, N + 3))
                for _ in range(rng.randrange(6))
            ]
            d = _random_depth(rng, g.n, N)
            terms += [(1, d), (-1, d)]  # equal shifts that cancel
            e = _random_depth(rng, g.n, N)
            terms += [(2, e), (-1, e), (-1, e)]  # net sign 0
            rng.shuffle(terms)
            want = _tuple_shifted_sum(prefix, g.n, terms, N)
            assert shifted_partition_sum(g, terms, N) == FormalCharacter(N, want)


@pytest.mark.parametrize("name", ["A1^3", "B2", "A3", "G2"])
def test_sums_on_codes_match_tuples(name):
    # random signed terms, with repeated shifts, numerators that cancel, signs
    # of +-2 and N = 0, on a table built taller first and then queried lower
    g = parse_gcm(name)
    rng = random.Random("codes " + name)
    characters._tables.pop(g, None)
    table = _tuple_table(g, 12)
    partition_table(g, 12)
    for N in [5, 0, 12, 3, 8, 1]:
        prefix = dict(itertools.islice(table.items(), math.comb(N + g.n, g.n)))
        for _ in range(8):
            pool = [_random_depth(rng, g.n, N + 2) for _ in range(4)]
            terms = [
                (rng.choice([-2, -1, 1, 2]), rng.choice(pool))
                for _ in range(rng.randrange(1, 9))
            ]
            d = rng.choice(pool)
            terms += [(2, d), (-1, d), (-1, d)]  # a numerator that cancels
            rng.shuffle(terms)
            got = shifted_partition_sum(g, terms, N)
            assert got == FormalCharacter(N, _tuple_shifted_sum(prefix, g.n, terms, N))
            assert characters._tables[g].cutoff == 12


def test_check_on_codes_holds_at_the_limit():
    # codes of height N + 1, all at or past (N + 1) top, are refused as the
    # constructor refuses their vectors; a zero there is dropped first
    table = characters._table(B2, 9)
    code, N = DepthCode(B2.n, table.cutoff), 4
    limit = (N + 1) * code.top
    last, over = code.encode((N, 0)), code.encode((0, N + 1))
    assert last < limit <= over
    ch = characters._char_of_codes(code, N, {last: 3, over: 0, 0: 0})
    assert ch == FormalCharacter(N, {(N, 0): 3})
    for bad in (limit, over):
        with pytest.raises(AssertionError):
            characters._char_of_codes(code, N, {last: 3, bad: 1})
    with pytest.raises(AssertionError):
        FormalCharacter(N, {(N, 0): 3, (0, N + 1): 1})


def test_shifted_partition_sum():
    zero = (0, 0)
    assert shifted_partition_sum(B2, [], 6) == FormalCharacter(6, {})
    verma = shifted_partition_sum(B2, [(1, zero)], 6)
    # a shift past the cutoff contributes nothing; equal shifts cancel
    assert shifted_partition_sum(B2, [(1, zero), (-1, (4, 3))], 6) == verma
    assert shifted_partition_sum(B2, [(1, (1, 2)), (-1, (1, 2))], 6).coeffs == {}
    terms = [(1, zero), (-1, (2, 0)), (-1, (0, 1)), (2, (1, 1)), (1, (3, 3))]
    got = shifted_partition_sum(B2, terms, 6)
    for c in depth_vectors(2, 6):
        want = sum(
            sign * kostant_partition(B2, (c[0] - d[0], c[1] - d[1]))
            for sign, d in terms
        )
        assert got.coeff(c) == want, c


def _full_orbit(lam, J, N):
    """Unpruned reference: BFS over every dot_reflect step, up or down, so
    the level of w.lambda is the length of w; truncated at N afterwards."""
    start = tuple([0] * lam.gcm.n)
    level_of = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for j in J:
                c2 = dot_reflect(lam, c, j)
                if c2 not in level_of:
                    level_of[c2] = level_of[c] + 1
                    nxt.append(c2)
        frontier = nxt
    return [
        ((-1) ** l, c)
        for l, c in sorted((l, c) for c, l in level_of.items())
        if height(c) <= N
    ]


def test_dot_orbit_terms_match_full_orbit():
    rng = random.Random(6)
    names = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1^3", "A2xA1",
             "A4", "B4", "C4", "D4", "F4", "A1^4", "A2xB2"]
    for _ in range(240):
        g = parse_gcm(rng.choice(names))
        lam = HighestWeight(g, [rng.randrange(4) for _ in g.nodes])
        J = [j for j in g.nodes if rng.random() < 0.7]
        N = rng.randrange(13)
        assert dot_orbit_terms(lam, J, N) == _full_orbit(lam, J, N), (g, lam, J, N)


def test_dot_orbit_terms_requires_dominant_integral():
    for evals in ([-1, 0], ["x", 0]):
        with pytest.raises(ValueError):
            dot_orbit_terms(HighestWeight(A2, evals), {1, 2}, 4)
    assert dot_orbit_terms(HighestWeight(A2, [0, "x"]), {1}, 4) == [
        (1, (0, 0)), (-1, (1, 0))
    ]


def test_verma_char():
    ch = verma_char(HighestWeight(A2, ["x", "x"]), 6)
    for c in depth_vectors(2, 6):
        assert ch.coeff(c) == kostant_partition(A2, c)
    # over sl2^n every Verma is multiplicity free
    assert verma_char(HighestWeight(SL22, [0, 0]), 6).is_zero_one()


def test_parabolic_verma_sl2():
    g = parse_gcm("A1")
    lam = HighestWeight(g, [2])
    ch = parabolic_verma_char(lam, {1}, 8)
    assert ch.coeffs == {(0,): 1, (1,): 1, (2,): 1}


def test_parabolic_verma_a2_support():
    lam = HighestWeight(A2, [1, 1])
    full = parabolic_verma_char(lam, {1, 2}, 8)
    # adjoint representation: 8 weights counted with multiplicity
    assert sum(full.coeffs.values()) == 8
    assert full.coeff((1, 1)) == 2  # the zero weight of the adjoint
    part = parabolic_verma_char(lam, {1}, 6)
    assert all(m >= 1 for m in part.coeffs.values())
    with pytest.raises(ValueError):
        parabolic_verma_char(HighestWeight(A2, [-1, 1]), {1}, 4)


def test_simple_finite_char_embedding():
    lam = HighestWeight(A2, [1, "x"])
    ch = simple_finite_char(lam, {1}, 6)
    assert ch.coeffs == {(0, 0): 1, (1, 0): 1}
    assert simple_finite_char(lam, set(), 6).coeffs == {(0, 0): 1}


@pytest.mark.parametrize(
    "name,evals,J",
    [
        ("A2", [1, 1], {1, 2}),
        ("A2", [2, 0], {1, 2}),
        ("B2", [1, 0], {1, 2}),
        ("B2", [0, 1], {1, 2}),
        ("A3", [1, 0, 1], {1, 2, 3}),
        ("A2", [3, 1], {1}),
        ("A1^2", [2, 1], {1, 2}),
    ],
)
def test_freudenthal_agrees_with_weyl(name, evals, J):
    lam = HighestWeight(parse_gcm(name), evals)
    assert freudenthal_char(lam, J, 8) == simple_finite_char(lam, J, 8)


def test_freudenthal_agrees_with_weyl_e6():
    # all of W(E6) has 51,840 elements; only the orbit below height 8 is built
    lam = HighestWeight(parse_gcm("E6"), [0, 1, 0, 0, 1, 0])
    J = set(lam.gcm.nodes)
    assert freudenthal_char(lam, J, 8) == simple_finite_char(lam, J, 8)


@pytest.mark.parametrize(
    "name, nu, N",
    [
        ("D4", [1, 0, 0, 0], 20),  # 8 weights, the deepest at height 6
        ("B3", [0, 1, 1], 24),
        ("G2", [1, 1], 30),
        ("A3", [2, 0, 1], 20),
        ("C3", [1, 0, 1], 22),
    ],
)
def test_freudenthal_far_past_the_lowest_weight(name, nu, N):
    # the recursion stops at the first empty height layer, so a cutoff far
    # past w_0 nu costs nothing more
    g = parse_gcm(name)
    lam = HighestWeight(g, nu)
    ch = freudenthal_char(lam, g.nodes, N)
    assert ch == simple_finite_char(lam, g.nodes, N)
    bound = sum(map(operator.mul, _two_rho_vee(g), nu))
    assert max(map(height, ch.coeffs)) == bound < N


# every nu in 0..2 per node with <nu, 2 rho^vee> <= 14, where the uncut
# Weyl sum and Freudenthal stay fast (D4 alone reaches 56)
_BOUND_CASES = [
    (name, nu)
    for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4")
    for nu in itertools.product(range(3), repeat=parse_gcm(name).n)
    if sum(map(operator.mul, _two_rho_vee(parse_gcm(name)), nu)) <= 14
]


def test_finite_char_height_bound_is_exact():
    # simple_finite_char runs the Weyl sum only to <nu, 2 rho^vee>: past it
    # the uncut sum and Freudenthal find nothing more, and the lowest weight
    # w_0 nu lies exactly at it
    for name, nu in _BOUND_CASES:
        g = parse_gcm(name)
        lam = HighestWeight(g, nu)
        bound = sum(map(operator.mul, _two_rho_vee(g), nu))
        ch = simple_finite_char(lam, g.nodes, bound + 2)
        assert ch == parabolic_verma_char(lam, g.nodes, bound + 2), (name, nu)
        assert ch == freudenthal_char(lam, g.nodes, bound + 2), (name, nu)
        assert max(map(height, ch.coeffs)) == bound, (name, nu)
    assert len(_BOUND_CASES) == 73


def test_two_rho_vee():
    # the sum of the positive coroots, read on the simple coroots: 2 rho^vee
    # of B3 is 2 rho of C3 and the other way round, and a simply laced type
    # keeps 2 rho
    assert _two_rho_vee(parse_gcm("A3")) == (3, 4, 3)
    assert _two_rho_vee(parse_gcm("B3")) == (5, 8, 9)
    assert _two_rho_vee(parse_gcm("C3")) == (6, 10, 6)
    assert _two_rho_vee(parse_gcm("G2")) == (10, 6)
    for name in ("A4", "D4", "E6"):
        g = parse_gcm(name)
        two_rho = tuple(map(sum, zip(*positive_roots(g).positive_roots)))
        assert _two_rho_vee(g) == two_rho


def _dim(name, evals):
    g = parse_gcm(name)
    lam = HighestWeight(g, evals)
    ch = simple_finite_char(lam, set(g.nodes), 16)
    return sum(ch.coeffs.values())


def test_known_dimensions():
    assert _dim("A3", [1, 0, 0]) == 4
    assert _dim("A2", [1, 1]) == 8
    # the two B2 fundamentals are the vector (5) and spin (4) representations
    assert {_dim("B2", [1, 0]), _dim("B2", [0, 1])} == {4, 5}
    assert _dim("G2", [1, 0]) + _dim("G2", [0, 1]) == 7 + 14
