"""Correctness checks, computed apart from the program.

Every check takes plain data (names, dicts of counts, lists) and returns
a list of problems; an empty list means the output is correct.  None of
them imports petriglue: each expected answer comes from this file's own
search, union-find or token arithmetic.
"""
from __future__ import annotations

from collections import Counter
from itertools import count


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` positive integers summing to ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def least_firing_total(producers: list[tuple[str, int]], consumers: list[tuple[str, int]]) -> int:
    """Fewest firings, every transition at least once, that balance the place.

    Brute force: try every total from the number of transitions upward
    and every way to split it.
    """
    amounts = [a for _, a in producers] + [-a for _, a in consumers]
    for total in count(len(amounts)):
        for counts in _compositions(total, len(amounts)):
            if sum(c * a for c, a in zip(counts, amounts)) == 0:
                return total
    raise AssertionError("unreachable")


def _scaled(counts: dict[str, int], sides: dict[str, dict[str, int]], skip: str) -> Counter:
    out: Counter = Counter()
    for name, n in counts.items():
        for place, k in sides[name].items():
            if place != skip:
                out[place] += n * k
    return out


def check_composition(spec: dict, vectors: dict[str, dict[str, int]], places: list[str],
                      transitions: list[tuple[str, dict, dict]]) -> list[str]:
    """Check a boundary composition against token arithmetic.

    ``spec`` is the generated pair (left and right net specs and the
    pairing); ``vectors`` maps each reported boundary place to its firing
    counts; ``places`` and ``transitions`` are the composed net.  Every
    transition of the pair must touch exactly one boundary place.
    """
    left, right = spec["left"], spec["right"]
    pre = {name: p for net in (left, right) for name, p, _ in net["transitions"]}
    post = {name: q for net in (left, right) for name, _, q in net["transitions"]}
    problems: list[str] = []
    expected_transitions = []
    unmatched = dict(vectors)
    for lp, rp in spec["pairing"]:
        producers = [(n, q[lp]) for n, _, q in left["transitions"] if lp in q]
        consumers = [(n, p[rp]) for n, p, _ in right["transitions"] if rp in p]
        names = {n for n, _ in producers + consumers}
        found = [key for key, v in unmatched.items() if set(v) == names]
        if len(found) != 1:
            problems.append(f"no single firing vector over {sorted(names)}")
            continue
        counts = unmatched.pop(found[0])
        if any(counts[n] < 1 for n in names):
            problems.append(f"{lp}: a count below 1 in {counts}")
        made = sum(counts[n] * a for n, a in producers)
        used = sum(counts[n] * a for n, a in consumers)
        if made != used:
            problems.append(f"{lp}: unbalanced, {made} tokens made and {used} used")
        least = least_firing_total(producers, consumers)
        if sum(counts.values()) != least:
            problems.append(f"{lp}: {sum(counts.values())} firings where {least} suffice")
        expected_transitions.append(
            (
                sorted(_scaled(counts, pre, rp).items()),
                sorted(_scaled(counts, post, lp).items()),
            )
        )
    if unmatched:
        problems.append(f"firing vectors for unknown places {sorted(unmatched)}")
    actual = [(sorted(p.items()), sorted(q.items())) for _, p, q in transitions]
    if sorted(actual) != sorted(expected_transitions):
        problems.append(f"composed transitions {actual} != {expected_transitions}")
    boundary = {lp for lp, _ in spec["pairing"]} | {rp for _, rp in spec["pairing"]}
    keep = [p for p in left["places"] if p not in boundary]
    keep += [p for p in right["places"] if p not in boundary]
    if list(places) != keep:
        problems.append(f"places {list(places)} != {keep}")
    return problems


FIG8A = {
    "vectors": {"C": {"f": 3, "h": 1, "k": 1}},
    "transitions": [({"A": 6}, {"B": 3, "D": 1, "E": 1})],
}


def check_fig8a(vectors: dict[str, dict[str, int]], transitions: list[tuple[str, dict, dict]]) -> list[str]:
    """The paper's figure 8a: f fires 3 times, h and k once each."""
    got = {"vectors": vectors, "transitions": [(pre, post) for _, pre, post in transitions]}
    return [] if got == FIG8A else [f"fig8a gave {got}, expected {FIG8A}"]


def check_verdict(actual: bool, expected: bool) -> list[str]:
    if actual is not expected:
        return [f"verdict {actual!r}, expected {expected!r} from how the pair was built"]
    return []


# ---------------------------------------------------------------------------
# Gluing


class UnionFind:
    """Classes named by their member of least position in ``order``."""

    def __init__(self, order: list[str]) -> None:
        self.position = {name: i for i, name in enumerate(order)}
        self.parent = {name: name for name in order}

    def find(self, name: str) -> str:
        while self.parent[name] != name:
            name = self.parent[name]
        return name

    def union(self, a: str, b: str) -> None:
        a, b = self.find(a), self.find(b)
        if self.position[b] < self.position[a]:
            a, b = b, a
        self.parent[b] = a


def _net_of(doc: dict) -> tuple[list[str], list[tuple[str, dict, dict]]]:
    return list(doc["places"]), [(t["name"], t["pre"], t["post"]) for t in doc["transitions"]]


def _only_name(term: str) -> str:
    if not (term.startswith("gen(") and term.endswith(")")):
        raise ValueError(f"witness image {term!r} is not a single generator")
    return term[4:-1]


def quotient(places: list[str], transitions: list[tuple[str, dict, dict]],
             place_pairs: list[tuple[str, str]], transition_pairs: list[tuple[str, str]]) -> dict:
    """The net with the paired places and transitions merged.

    Each class keeps its first member's name; a transition keeps its
    representative's pre and post, with places renamed to their classes.
    """
    pclass = UnionFind(places)
    for a, b in place_pairs:
        pclass.union(a, b)
    tclass = UnionFind([name for name, _, _ in transitions])
    for a, b in transition_pairs:
        tclass.union(a, b)

    def rename(side: dict) -> dict:
        out: Counter = Counter()
        for place, n in side.items():
            out[pclass.find(place)] += n
        return dict(out)

    return {
        "places": [p for p in places if pclass.find(p) == p],
        "transitions": [
            (name, rename(pre), rename(post))
            for name, pre, post in transitions
            if tclass.find(name) == name
        ],
    }


def _witness_pairs(witness: dict, lmap: dict, rmap: dict, right_name=lambda name: name):
    """Place and transition pairs the witness selects, as (left, right)."""
    place_pairs = [
        (lmap["objects"][w][0], right_name(rmap["objects"][w][0])) for w in witness["places"]
    ]
    transition_pairs = [
        (_only_name(lmap["morphisms"][t["name"]]), right_name(_only_name(rmap["morphisms"][t["name"]])))
        for t in witness["transitions"]
    ]
    return place_pairs, transition_pairs


def expected_identify(spec: dict) -> dict:
    places, transitions = _net_of(spec["net"])
    place_pairs, transition_pairs = _witness_pairs(spec["witness"], spec["l"], spec["r"])
    return quotient(places, transitions, place_pairs, transition_pairs)


def _fresh_names(names: list[str], taken: set[str]) -> dict[str, str]:
    """Rename colliding names by appending primes, in order."""
    taken = set(taken)
    out = {}
    for name in names:
        new = name
        while new in taken:
            new += "'"
        out[name] = new
        taken.add(new)
    return out


def _coproduct(left: dict, right: dict):
    lplaces, ltrans = _net_of(left)
    rplaces, rtrans = _net_of(right)
    pmap = _fresh_names(rplaces, set(lplaces))
    tmap = _fresh_names([n for n, _, _ in rtrans], {n for n, _, _ in ltrans})
    places = lplaces + [pmap[p] for p in rplaces]
    transitions = ltrans + [
        (tmap[n], {pmap[p]: k for p, k in pre.items()}, {pmap[p]: k for p, k in post.items()})
        for n, pre, post in rtrans
    ]
    return places, transitions, pmap, tmap


def expected_coproduct(spec: dict) -> dict:
    places, transitions, _, _ = _coproduct(spec["left"], spec["right"])
    return quotient(places, transitions, [], [])


def expected_pushout(spec: dict) -> dict:
    places, transitions, pmap, tmap = _coproduct(spec["left"], spec["right"])
    rename = {**pmap, **tmap}
    place_pairs, transition_pairs = _witness_pairs(
        spec["witness"], spec["l"], spec["r"], right_name=rename.__getitem__
    )
    return quotient(places, transitions, place_pairs, transition_pairs)


EXPECTED_NET = {
    "identify-places": expected_identify,
    "identify-transitions": expected_identify,
    "pushout": expected_pushout,
    "coproduct": expected_coproduct,
}


def check_net(doc: dict, expected: dict) -> list[str]:
    """Compare an output document's net with the expected quotient."""
    places, transitions = _net_of(doc)
    problems = []
    if places != expected["places"]:
        problems.append(f"places {places} != {expected['places']}")
    if transitions != expected["transitions"]:
        problems.append(f"transitions {transitions} != {expected['transitions']}")
    return problems
