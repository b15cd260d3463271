"""Tests of the benchmark's reference models and checkers.

    python3 -m pytest perfbench/test_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import reference as ref  # noqa: E402


def test_partition_hand_values():
    a2 = ref.PartitionTable("A2", 4)
    assert a2((1, 1)) == 2  # alpha1 + alpha2 is a root, or the sum of two
    assert a2((2, 2)) == 3
    assert a2((2, 1)) == 2
    # B2 as the CLI names it: roots a1, a2, a1+a2, 2a1+a2
    b2 = ref.PartitionTable("B2", 4)
    assert (b2((1, 1)), b2((2, 1)), b2((1, 2))) == (2, 3, 2)
    sl2 = ref.PartitionTable("A1^3", 5)
    assert all(sl2(c) == 1 for c in ref.vectors(3, 5))


@pytest.mark.parametrize("algebra,count,top", [
    ("A4", 10, (1, 1, 1, 1)), ("B3", 9, (2, 2, 1)), ("C3", 9, (1, 2, 2)),
    ("D4", 12, (1, 2, 1, 1)), ("E6", 36, (1, 2, 2, 3, 2, 1)), ("A1^4", 4, None),
])
def test_root_counts_and_highest_roots(algebra, count, top):
    roots = ref.positive_roots(algebra)
    assert len(roots) == count == ref.expected_root_count(algebra)
    if top is not None:
        assert roots[-1] == top


def test_monomial_model_v00():
    # M((0,0), {{1,2}}) over sl2 x sl2: the two coordinate axes
    got = ref.monomial_weights([0, 0], [[1, 2]], 6)
    assert got == {c for c in ref.vectors(2, 6) if c[0] * c[1] == 0}


def test_alternating_sum_is_the_monomial_model_over_sl2n():
    lam, holes = [1, 0, 2], [[1, 2], [2, 3]]
    char = ref.alternating_char(ref.PartitionTable("A1^3", 8), lam, holes, 8)
    assert char == dict.fromkeys(ref.monomial_weights(lam, holes, 8), 1)


def test_sl2n_simple_char():
    got = ref.sl2n_simple_char([1, "x"], 3)
    assert got == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)}


def test_order_of_hole_products():
    assert ref.order_of_product("A4", [[1], [2, 4]]) == 6
    assert ref.order_of_product("A4", [[1], [3]]) == 2
    assert ref.order_of_product("A4", [[3], [2, 4]]) == 4
    assert ref.order_of_product("E6", [[1, 4, 6], [2, 3], [5]]) == 12


def test_order_k_holes():
    holes = [[1, 2], [2, 3], [4]]
    J = frozenset({1, 2, 3, 4})
    assert ref.order_k_holes(holes, 1, J, "upper") == [frozenset({4})]
    lower = ref.order_k_holes(holes, 1, J, "lower")
    assert frozenset({1, 2}) in lower and frozenset({4}) in lower
    assert not any(4 in h and len(h) > 1 for h in lower)


def test_in_process_checker_rejects_a_missing_weight():
    import hovm.rootdata as rootdata
    import sl2n_chars

    lam, holes = [1, "x", 2], [[1], [3]]
    op = sl2n_chars._ops(rootdata.parse_gcm("A1^3"), lam, holes)[0]
    good = op.run()
    assert op.check(good) is None
    assert op.check(good - {max(good)}) is not None


def test_cli_checker_rejects_a_missing_weight():
    import finite_cli

    payload = {"algebra": "A4", "lambda": [1, 0, 2, -1], "holes": [[1], [3]], "N": 6}
    check = finite_cli._check_job("weights", payload, finite_cli._References())
    weights = sorted(list(c) for c in finite_cli._weight_set(
        finite_cli._References(), payload, 6))
    assert check((0, json.dumps({"N": 6, "weights": weights}), "")) is None
    assert check((0, json.dumps({"N": 6, "weights": weights[:-1]}), "")) is not None


def test_cli_checker_wants_exit_2_and_one_json_error():
    import finite_cli

    check = finite_cli._check_job("error", {}, finite_cli._References())
    assert check((2, '{"error": "bad lambda"}', "")) is None
    assert check((0, '{"N": true, "weights": []}', "")) is not None
    assert check((1, "", "Traceback (most recent call last):\n")) is not None


def test_benchmark_json_names_every_metric():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [m for m, _, _ in run.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
