"""Cross-validate the diagram layer against two oracles.

The library decides diagram equality by comparing canonical keys: a
port-ordered breadth-first walk anchored at the interface numbers the
boxes joined to it, and closed components are encoded by their least
walk and sorted.  One oracle here tries every label-preserving box
bijection outright; the other is the earlier recursive builder with
colour refinement and backtracking, kept in ``reference_fssmc``.  Any
disagreement on random equal pairs (rewrites), arbitrary pairs,
perturbed wirings or closed components would expose a key bug.
"""
from __future__ import annotations

import itertools
import random

import pytest

import petriglue.fssmc
import reference_fssmc as reference
from petriglue import (
    Compose,
    Gen,
    MorphismGenerator,
    Perm,
    SmcPresentation,
    StringDiagram,
    Tensor,
    diagram_equal,
    diagram_key,
    free_smc,
    to_diagram,
)
from petriglue.fssmc import compose_terms
from support import diagram_from_wires, fig1_net, random_rewrite, random_term, wires

SIG = free_smc(fig1_net())

# Generators with an empty side build closed components: u;v has no wire
# to the interface.  u and w are told apart only by label, so (u⊗w);m and
# (w⊗u);m differ by the port order of m alone.
CLOSED_SIG = SmcPresentation(
    ("A",),
    (
        MorphismGenerator("u", (), ("A",)),
        MorphismGenerator("w", (), ("A",)),
        MorphismGenerator("v", ("A",), ()),
        MorphismGenerator("m", ("A", "A"), ()),
        MorphismGenerator("s", ("A",), ("A", "A")),
        MorphismGenerator("j", ("A", "A"), ("A",)),
    ),
)


def brute_force_equal(d1: StringDiagram, d2: StringDiagram) -> bool:
    if d1.inputs != d2.inputs or d1.outputs != d2.outputs:
        return False
    if sorted(d1.boxes) != sorted(d2.boxes):
        return False

    def mapped(endpoint, assignment):
        if endpoint[0] in ("bi", "bo"):
            return (endpoint[0], assignment[endpoint[1]], endpoint[2])
        return endpoint

    n = len(d1.boxes)
    for perm in itertools.permutations(range(n)):
        if any(d1.boxes[b] != d2.boxes[perm[b]] for b in range(n)):
            continue
        assignment = {b: perm[b] for b in range(n)}
        image = {
            (mapped(src, assignment), mapped(tgt, assignment)) for src, tgt in wires(d1)
        }
        if image == wires(d2):
            return True
    return False


def test_matches_brute_force_on_equal_pairs():
    rng = random.Random(71)
    for _ in range(150):
        term = random_term(rng, SIG, 3)
        other = term
        for _ in range(rng.randint(1, 4)):
            other = random_rewrite(rng, other, SIG)
        d1 = to_diagram(term, SIG)
        d2 = to_diagram(other, SIG)
        if len(d1.boxes) > 6:
            continue
        assert brute_force_equal(d1, d2)
        assert diagram_equal(d1, d2)


def test_matches_brute_force_on_arbitrary_pairs():
    rng = random.Random(72)
    agreements = 0
    for _ in range(300):
        t1 = random_term(rng, SIG, 3)
        t2 = random_term(rng, SIG, 3)
        d1 = to_diagram(t1, SIG)
        d2 = to_diagram(t2, SIG)
        if len(d1.boxes) > 6 or len(d2.boxes) > 6:
            continue
        assert diagram_equal(d1, d2) == brute_force_equal(d1, d2)
        agreements += 1
    assert agreements >= 200


def source_label(d: StringDiagram, source) -> str:
    """The object a wire from ``source``, ("in", i) or ("bo", b, k), carries."""
    return d.inputs[source[1]] if source[0] == "in" else d.box_cods[source[1]][source[2]]


def perturbed(rng: random.Random, d: StringDiagram) -> StringDiagram | None:
    """``d`` with the targets of two same-label wires swapped, if any."""
    links = sorted(wires(d))
    pairs = [
        (i, j)
        for i in range(len(links))
        for j in range(i + 1, len(links))
        if source_label(d, links[i][0]) == source_label(d, links[j][0])
        and links[i][1] != links[j][1]
    ]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    swapped = set(links)
    swapped.discard(links[i])
    swapped.discard(links[j])
    swapped.add((links[i][0], links[j][1]))
    swapped.add((links[j][0], links[i][1]))
    return diagram_from_wires(
        d.boxes, d.box_doms, d.box_cods, d.inputs, d.outputs, frozenset(swapped)
    )


def test_detects_single_wire_perturbations():
    rng = random.Random(73)
    checked = 0
    while checked < 60:
        term = random_term(rng, SIG, 3)
        d = to_diagram(term, SIG)
        # swap the targets of two wires carrying the same label; if the
        # result is a different wiring it must not compare equal
        mutated = perturbed(rng, d)
        if mutated is None:
            continue
        mutated.validate()
        assert diagram_equal(d, mutated) == brute_force_equal(d, mutated)
        checked += 1


def test_builder_matches_reference_builder():
    rng = random.Random(74)
    for _ in range(300):
        term = random_term(rng, SIG, rng.randint(1, 12))
        for _ in range(rng.randint(0, 3)):
            term = random_rewrite(rng, term, SIG)
        assert to_diagram(term, SIG) == reference.to_diagram(term, SIG)


def large_diagrams(rng: random.Random, count: int):
    """Random diagrams of 7 to about 40 boxes, each with a rewritten twin."""
    made = 0
    while made < count:
        term = random_term(rng, SIG, rng.randint(8, 24))
        d = to_diagram(term, SIG)
        if not 7 <= len(d.boxes) <= 40:
            continue
        other = term
        for _ in range(rng.randint(1, 4)):
            other = random_rewrite(rng, other, SIG)
        yield d, to_diagram(other, SIG)
        made += 1


def test_matches_reference_on_large_equal_and_perturbed_pairs():
    rng = random.Random(75)
    unequal = 0
    for d, twin in large_diagrams(rng, 60):
        assert diagram_equal(d, twin) and reference.diagram_equal(d, twin)
        mutated = perturbed(rng, twin)
        if mutated is not None:
            mutated.validate()
            verdict = diagram_equal(d, mutated)
            assert verdict == reference.diagram_equal(d, mutated)
            unequal += not verdict
    assert unequal >= 30


def test_matches_reference_on_large_arbitrary_pairs():
    rng = random.Random(76)
    diagrams = [d for d, _ in large_diagrams(rng, 60)]
    for d1 in diagrams:
        for d2 in rng.sample(diagrams, 10):
            assert diagram_equal(d1, d2) == reference.diagram_equal(d1, d2)


def test_key_is_computed_once_per_diagram():
    d = to_diagram(random_term(random.Random(77), SIG, 6), SIG)
    assert diagram_key(d) is diagram_key(d)


U, W, V, M, S, J = (Gen(name) for name in "uwvmsj")
SWAP = Perm(("A", "A"), (1, 0))


@pytest.mark.parametrize(
    "left, right, equal",
    [
        # two closed components, built in either order
        (Tensor(Compose(U, V), Compose(W, V)), Tensor(Compose(W, V), Compose(U, V)), True),
        # two isomorphic closed components, built apart or interleaved
        (Tensor(Compose(U, V), Compose(U, V)), Compose(Tensor(U, U), Tensor(V, V)), True),
        (Compose(Tensor(U, U), Tensor(V, V)),
         Compose(Compose(Tensor(U, U), SWAP), Tensor(V, V)), True),
        # components that differ only by the port order of m
        (Compose(Tensor(U, W), M), Compose(Tensor(W, U), M), False),
        (Compose(Tensor(U, W), M), Compose(Compose(Tensor(W, U), SWAP), M), True),
        # one component whose inner wires cross, against straight wires
        (compose_terms([U, S, J, V]), compose_terms([U, S, SWAP, J, V]), False),
        # a closed component beside an interface wire
        (Tensor(Compose(U, V), S), Tensor(S, Compose(U, V)), True),
        (Tensor(Compose(U, V), S), Tensor(Compose(W, V), S), False),
    ],
)
def test_closed_components(left, right, equal):
    d1, d2 = to_diagram(left, CLOSED_SIG), to_diagram(right, CLOSED_SIG)
    assert brute_force_equal(d1, d2) == equal
    assert reference.diagram_equal(d1, d2) == equal
    assert diagram_equal(d1, d2) == equal


def test_closed_components_on_random_pairs():
    rng = random.Random(78)
    closed = small = 0
    for _ in range(400):
        term = random_term(rng, CLOSED_SIG, rng.randint(2, 8))
        d1 = to_diagram(term, CLOSED_SIG)
        other = term
        for _ in range(rng.randint(0, 3)):
            other = random_rewrite(rng, other, CLOSED_SIG)
        for d2 in (to_diagram(other, CLOSED_SIG), perturbed(rng, d1),
                   to_diagram(random_term(rng, CLOSED_SIG, 4), CLOSED_SIG)):
            if d2 is None:
                continue
            verdict = diagram_equal(d1, d2)
            assert verdict == reference.diagram_equal(d1, d2)
            if len(d1.boxes) <= 6 and len(d2.boxes) <= 6:
                assert verdict == brute_force_equal(d1, d2)
                small += 1
        closed += len(diagram_key(d1)[-1]) > 0
    assert closed >= 60 and small >= 200


def renumbered(rng: random.Random, d: StringDiagram) -> StringDiagram:
    """``d`` with its boxes numbered in a random order: an isomorphic copy."""
    order = list(range(len(d.boxes)))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)} | {-1: -1}

    def moved(row):
        return tuple((new[b], k) for b, k in row)

    return StringDiagram(
        boxes=tuple(d.boxes[b] for b in order),
        box_doms=tuple(d.box_doms[b] for b in order),
        box_cods=tuple(d.box_cods[b] for b in order),
        inputs=d.inputs,
        outputs=d.outputs,
        feeds=tuple(moved(d.feeds[b]) for b in order),
        results=moved(d.results),
    )


def test_closed_components_against_the_walk_from_every_box():
    """Walks start from the rarest label of a closed component only; the
    key the walk from every box gives must decide the same, on renumbered,
    perturbed and unrelated copies."""
    rng = random.Random(79)
    closed = small = unequal = 0
    for _ in range(300):
        d1 = to_diagram(random_term(rng, CLOSED_SIG, rng.randint(2, 12)), CLOSED_SIG)
        copy = renumbered(rng, d1)
        copy.validate()
        assert diagram_equal(d1, copy)
        others = [copy, perturbed(rng, copy),
                  to_diagram(random_term(rng, CLOSED_SIG, 6), CLOSED_SIG)]
        for d2 in filter(None, others):
            verdict = diagram_equal(d1, d2)
            assert verdict == (reference.canonical_key(d1) == reference.canonical_key(d2))
            if len(d1.boxes) <= 6 and len(d2.boxes) <= 6:
                assert verdict == brute_force_equal(d1, d2)
                small += 1
            unequal += not verdict
        closed += len(diagram_key(d1)[-1]) > 0
    assert closed >= 80 and small >= 100 and unequal >= 200


CHAIN_SIG = SmcPresentation(
    ("A",),
    (
        MorphismGenerator("s", (), ("A",)),
        MorphismGenerator("f", ("A",), ("A",)),
        MorphismGenerator("k", ("A",), ()),
    ),
)


def test_closed_chain_keys_with_three_walks(monkeypatch):
    """The closed chain ``s ; f^1000 ; k`` starts one walk from the least
    of its two rarest labels, after the interface walk and the walk that
    finds the component."""
    n = 1000
    d = to_diagram(compose_terms([Gen("s")] + [Gen("f")] * n + [Gen("k")]), CHAIN_SIG)
    walk = petriglue.fssmc._walk
    calls = [0]

    def counting_walk(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(petriglue.fssmc, "_walk", counting_walk)
    key = diagram_key(d)
    assert calls[0] <= 3
    assert len(key[-1]) == 1
    assert key[-1][0][0] == ("k", 1, 0)
