import itertools
import random

import pytest

from hovm import rootdata
from hovm.rootdata import (
    GCM,
    independent_sets,
    parse_gcm,
    positive_roots,
    restrict,
    symmetrizer,
)


def test_parse_named_types():
    assert parse_gcm("A2").a == ((2, -1), (-1, 2))
    assert parse_gcm("A1^3").a == (
        (2, 0, 0),
        (0, 2, 0),
        (0, 0, 2),
    )
    g = parse_gcm("A2xB2")
    assert g.n == 4
    assert g.a[2][3] == -2 and g.a[3][2] == -1
    assert g.a[1][2] == 0


def test_parse_matrix_passthrough():
    g = parse_gcm([[2, -1], [-1, 2]])
    assert g == parse_gcm("A2")


def test_gcm_validation():
    with pytest.raises(ValueError):
        GCM([[1]])
    with pytest.raises(ValueError):
        GCM([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        GCM([[2, -1], [0, 2]])  # asymmetric zero pattern


@pytest.mark.parametrize(
    "spec,message",
    [
        ([[2.0, -1.7], [-1, 2]], "integers"),
        ([[2, -1.0], [-1, 2]], "integers"),
        ([[2, "-1"], ["-1", 2]], "integers"),
        ([[2, False], [False, 2]], "integers"),
        ("A1^0", "power"),
        ("A2xA1^0", "power"),
        ([], "rank"),
        ("A0", "rank"),
    ],
)
def test_parse_gcm_refuses_coercion_and_rank_0(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_gcm(spec)


def test_bcfg_conventions():
    b3 = parse_gcm("B3")
    assert b3.a[1][2] == -2 and b3.a[2][1] == -1
    c3 = parse_gcm("C3")
    assert c3.a[1][2] == -1 and c3.a[2][1] == -2
    g2 = parse_gcm("G2")
    assert g2.a[0][1] == -1 and g2.a[1][0] == -3
    f4 = parse_gcm("F4")
    assert f4.a[1][2] == -2 and f4.a[2][1] == -1


def test_e_series_numbering():
    e6 = parse_gcm("E6")
    # node 2 is the branch node target: attached to node 4 only
    assert e6.neighbours(2) == {4}
    assert e6.neighbours(4) == {2, 3, 5}


POSITIVE_ROOT_COUNTS = {
    "A1": 1,
    "A3": 6,
    "A4": 10,
    "B2": 4,
    "B3": 9,
    "C3": 9,
    "D4": 12,
    "G2": 6,
    "F4": 24,
    "E6": 36,
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = positive_roots(parse_gcm(name))
    assert len(rs.positive_roots) == count


COXETER = {"A3": 4, "A4": 5, "B3": 6, "D4": 6, "G2": 6, "F4": 12, "E6": 12}


@pytest.mark.parametrize("name,h", sorted(COXETER.items()))
def test_coxeter_numbers(name, h):
    rs = positive_roots(parse_gcm(name))
    assert set(rs.coxeter_numbers.values()) == {h}


def test_product_coxeter_numbers():
    rs = positive_roots(parse_gcm("A2xA1"))
    assert sorted(rs.coxeter_numbers.values()) == [2, 3]


def test_not_finite_type():
    affine = GCM([[2, -2], [-2, 2]])
    assert not affine.finite_type
    with pytest.raises(ValueError):
        positive_roots(affine)


def test_finite_type_flag():
    assert parse_gcm("E8").finite_type
    assert not GCM([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]).finite_type


def test_independent_sets():
    g = parse_gcm("A3")
    got = independent_sets(g, {1, 2, 3})
    assert got == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
    ]
    assert independent_sets(g, {1, 2, 3}, include_empty=True)[0] == frozenset()
    with pytest.raises(ValueError):
        independent_sets(g, {1, 5})


def test_components():
    g = parse_gcm("A2xA1")
    assert g.components() == [frozenset({1, 2}), frozenset({3})]
    assert g.components({1, 3}) == [frozenset({1}), frozenset({3})]


def _capped_closure_finite(gcm, cap=60):
    """Finite type by brute force, independent of the minors: the reflection
    closure of the simple roots stays below height `cap` (every finite root
    system of rank <= 8 has highest root of height <= 29)."""
    n = gcm.n
    roots = frontier = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    while frontier:
        new = set()
        for beta in frontier:
            for j in range(n):
                ev = sum(gcm.a[j][i] * beta[i] for i in range(n))
                img = beta[:j] + (beta[j] - ev,) + beta[j + 1:]
                if img in roots or min(img) < 0:
                    continue
                if sum(img) > cap:
                    return False
                new.add(img)
        roots = roots | new
        frontier = new
    return True


NAMED = (
    ["A%d" % n for n in range(1, 9)]
    + ["%s%d" % (x, n) for x in "BC" for n in range(2, 9)]
    + ["D%d" % n for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A2xB2", "A1^3", "G2xC3"]
)


@pytest.mark.parametrize("name", NAMED)
def test_named_types_are_finite(name):
    g = parse_gcm(name)
    assert g.finite_type and _capped_closure_finite(g)


def _random_gcm(rng):
    n = rng.randint(2, 5)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                a[i][j] = -rng.choice([1, 1, 1, 2, 3])
                a[j][i] = -rng.choice([1, 1, 1, 2, 3])
    return GCM(a)


def test_finite_type_agrees_with_closure():
    rng = random.Random(11)
    finite = 0
    for _ in range(2000):
        g = _random_gcm(rng)
        assert g.finite_type == _capped_closure_finite(g), g
        finite += g.finite_type
    # both verdicts are well represented
    assert 600 < finite < 1400


@pytest.mark.parametrize("n", [61, 100])
def test_long_type_a_is_finite(n):
    g = parse_gcm("A%d" % n)
    assert g.finite_type
    rs = positive_roots(g)
    assert len(rs.positive_roots) == n * (n + 1) // 2
    assert list(rs.coxeter_numbers.values()) == [n + 1]


@pytest.mark.parametrize(
    "rows",
    [
        [[2, -2], [-2, 2]],
        [[2, -3], [-3, 2]],
        [[2, -1], [-4, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    ],
)
def test_not_finite(rows):
    g = GCM(rows)
    assert not g.finite_type
    with pytest.raises(ValueError, match="not of finite type"):
        positive_roots(g)


def test_empty_restriction_is_finite():
    g = restrict(parse_gcm("A3"), [])
    assert g.n == 0 and g.finite_type
    rs = positive_roots(g)
    assert rs.positive_roots == () and rs.coxeter_numbers == {}


@pytest.mark.parametrize("name", ["B3", "D4", "E6"])
def test_is_independent_matches_pairwise(name):
    g = parse_gcm(name)
    for size in range(g.n + 1):
        for subset in itertools.combinations(g.nodes, size):
            pairwise = not any(g.adjacent(i, j) for i in subset for j in subset)
            assert g.is_independent(subset) == pairwise, subset
            assert g.is_independent(frozenset(subset)) == pairwise, subset


def test_is_sl2n():
    for n in range(1, 6):
        assert parse_gcm("A1^%d" % n).is_sl2n
    assert restrict(parse_gcm("A3"), []).is_sl2n
    assert restrict(parse_gcm("A3"), [1, 3]).is_sl2n
    assert not parse_gcm("A1xA2").is_sl2n
    assert not parse_gcm("B2").is_sl2n


def test_structure_kept_outside_equality_and_hash():
    rows = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]
    g = GCM(rows)
    assert g.nodes == (1, 2, 3)
    assert g == parse_gcm("A2xA1") and hash(g) == hash(tuple(map(tuple, rows)))
    empty = restrict(g, [])
    assert empty == GCM([]) and hash(empty) == hash(()) and empty.nodes == ()


def test_symmetrizer():
    assert symmetrizer(parse_gcm("B2")) == (1, 2)
    assert symmetrizer(parse_gcm("G2")) == (3, 1)
    assert symmetrizer(parse_gcm("F4")) == (1, 1, 2, 2)
    assert symmetrizer(parse_gcm("A2xB2")) == (1, 1, 1, 2)
    # a triangle whose ratios multiply to 2 around the cycle
    assert symmetrizer(GCM([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])) is None
    for name in NAMED:
        g = parse_gcm(name)
        d = symmetrizer(g)
        assert min(d) > 0
        assert all(
            d[i] * g.a[i][j] == d[j] * g.a[j][i] for i in range(g.n) for j in range(g.n)
        )
