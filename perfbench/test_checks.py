"""Tests of the benchmark's own checks: each must reject a wrong answer.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import itertools
import math
import random

import checks
import gen


def fig8a_output(vector: dict[str, int]):
    """The composed net fig8a would give for a firing vector."""
    f, h, k = vector["f"], vector["h"], vector["k"]
    pre = {"A": 2 * f}
    post = {"B": f, "D": h, "E": k}
    return {"C": dict(vector)}, ["A", "B", "D", "E"], [("f*3+h+k", pre, post)]


def test_least_firing_total():
    assert checks.least_firing_total([("f", 1)], [("h", 2), ("k", 1)]) == 5
    # 7 + 11 = 18 = 5 + 13; nothing smaller balances
    assert checks.least_firing_total([("a", 7), ("b", 11)], [("c", 5), ("d", 13)]) == 4
    assert checks.least_firing_total([("a", 2)], [("b", 3)]) == 5


def test_fig8a_accepts_the_paper_answer():
    vectors, places, transitions = fig8a_output({"f": 3, "h": 1, "k": 1})
    spec = gen.fig8a_pair()
    assert checks.check_composition(spec, vectors, places, transitions) == []
    assert checks.check_fig8a(vectors, transitions) == []


def test_rejects_a_non_minimal_vector():
    # balanced and all counts >= 1, but 10 firings where 5 suffice
    vectors, places, transitions = fig8a_output({"f": 6, "h": 2, "k": 2})
    problems = checks.check_composition(gen.fig8a_pair(), vectors, places, transitions)
    assert any("5 suffice" in p for p in problems)
    assert checks.check_fig8a(vectors, transitions)


def test_rejects_an_unbalanced_vector_and_wrong_arithmetic():
    vectors, places, transitions = fig8a_output({"f": 3, "h": 1, "k": 1})
    unbalanced = {"C": {"f": 2, "h": 1, "k": 1}}
    assert any("unbalanced" in p for p in
               checks.check_composition(gen.fig8a_pair(), unbalanced, places, transitions))
    wrong_pre = [("t", {"A": 5}, transitions[0][2])]
    assert checks.check_composition(gen.fig8a_pair(), vectors, places, wrong_pre)


def test_rejects_a_surviving_boundary_place():
    vectors, places, transitions = fig8a_output({"f": 3, "h": 1, "k": 1})
    problems = checks.check_composition(
        gen.fig8a_pair(), vectors, ["A", "C", "B", "D", "E"], transitions)
    assert problems


def test_generated_compose_pairs_are_well_formed():
    for spec in gen.compose_inputs(5)[:-1]:
        heavy = [a for _, _, q in spec["left"]["transitions"] for p, a in q.items() if p == "X0"]
        assert len(heavy) == 2 and all(5 <= a <= 19 for a in heavy)
        used = {p for net in (spec["left"], spec["right"])
                for _, pre, post in net["transitions"] for p in list(pre) + list(post)}
        assert used == set(spec["left"]["places"]) | set(spec["right"]["places"])


def test_heavy_splits_are_coprime_and_stratified():
    splits = gen.heavy_splits()
    assert all(math.gcd(a, b) == 1 for s in splits for a, b in itertools.combinations(s, 2))
    totals = [gen.least_total(s[:2], s[2:]) for s in splits]
    assert totals == sorted(totals)
    assert (7, 11, 13, 17) in splits and (13, 17, 7, 11) in splits


def test_rejects_a_flipped_verdict():
    assert checks.check_verdict(True, True) == []
    assert checks.check_verdict(False, True)
    assert checks.check_verdict(True, False)


def test_transpositions_keep_labels_and_change_a_wire():
    rng = random.Random(3)
    steps = gen.chain_steps(rng, 50)
    other = gen.transpose_on_wire(rng, steps)
    assert sorted(steps) == sorted(other)
    wires = [[g for w, g in s if w == wire] for s in (steps, other) for wire in range(3)]
    assert wires[:3] != wires[3:]
    first, perm, second = gen.tensor_layers(rng, 20)
    swapped = gen.transpose_tensor(rng, (first, perm, second))
    assert sorted(first + second) == sorted(swapped[0] + swapped[2])
    assert (first, second) != (swapped[0], swapped[2])


def small_identify_spec():
    net = {
        "places": ["A", "B", "C", "D"],
        "transitions": [
            {"name": "t", "pre": {"A": 1}, "post": {"B": 1}},
            {"name": "u", "pre": {"C": 1}, "post": {"D": 1}},
            {"name": "v", "pre": {"A": 1, "C": 1}, "post": {}},
        ],
    }
    witness = {
        "places": ["a", "b"],
        "transitions": [{"name": "x", "pre": {"a": 1}, "post": {"b": 1}}],
    }
    lmap = {"objects": {"a": ["A"], "b": ["B"]}, "morphisms": {"x": "gen(t)"}}
    rmap = {"objects": {"a": ["C"], "b": ["D"]}, "morphisms": {"x": "gen(u)"}}
    return {"net": net, "witness": witness, "l": lmap, "r": rmap}


def test_identify_quotient():
    expected = checks.expected_identify(small_identify_spec())
    assert expected == {
        "places": ["A", "B"],
        "transitions": [("t", {"A": 1}, {"B": 1}), ("v", {"A": 2}, {})],
    }
    doc = {"places": ["A", "B"], "transitions": [
        {"name": "t", "pre": {"A": 1}, "post": {"B": 1}},
        {"name": "v", "pre": {"A": 2}, "post": {}},
    ]}
    assert checks.check_net(doc, expected) == []


def test_rejects_a_quotient_with_one_class_too_few():
    expected = checks.expected_identify(small_identify_spec())
    doc = {"places": ["A"], "transitions": [
        {"name": "t", "pre": {"A": 1}, "post": {"A": 1}},
        {"name": "v", "pre": {"A": 2}, "post": {}},
    ]}
    assert checks.check_net(doc, expected)
    merged_transitions = {"places": ["A", "B"], "transitions": [
        {"name": "t", "pre": {"A": 1}, "post": {"B": 1}},
    ]}
    assert checks.check_net(merged_transitions, expected)


def test_coproduct_primes_colliding_names_and_pushout_merges_them():
    left = {"places": ["P", "Q"], "transitions": [{"name": "t", "pre": {"P": 1}, "post": {"Q": 1}}]}
    right = {"places": ["Q", "P"], "transitions": [{"name": "t", "pre": {"Q": 1}, "post": {"P": 2}}]}
    expected = checks.expected_coproduct({"left": left, "right": right})
    assert expected["places"] == ["P", "Q", "Q'", "P'"]
    assert expected["transitions"][1] == ("t'", {"Q'": 1}, {"P'": 2})
    pushout = checks.expected_pushout({
        "left": left, "right": right,
        "witness": {"places": ["w"], "transitions": []},
        "l": {"objects": {"w": ["Q"]}, "morphisms": {}},
        "r": {"objects": {"w": ["Q"]}, "morphisms": {}},
    })
    assert pushout["places"] == ["P", "Q", "P'"]
    assert pushout["transitions"][1] == ("t'", {"Q": 1}, {"P'": 2})


def test_inputs_depend_only_on_the_seed():
    assert gen.compose_inputs(4) == gen.compose_inputs(4)
    assert gen.compose_inputs(4) != gen.compose_inputs(5)
    assert gen.terms_inputs(4) == gen.terms_inputs(4)
    assert gen.glue_inputs(4) == gen.glue_inputs(4)
    assert len(gen.terms_inputs(4)) == len(gen.terms_inputs(5))
    assert len(gen.glue_inputs(4)) == len(gen.glue_inputs(5))
