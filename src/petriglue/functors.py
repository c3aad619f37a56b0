"""Strict monoidal functors between presentations, with predicate checks.

A functor is determined by generator images.  Strictness is enforced on
the nose: the boundaries of every morphism image must equal the mapped
boundary words exactly, permutations being encoded by explicit ``Perm``
nodes rather than held implicitly.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Iterator, Mapping, Sequence

from .errors import (
    BudgetExceededError,
    PreconditionFailedError,
    SourceMismatchError,
    ValidationError,
)
from .fssmc import (
    Compose,
    Gen,
    Id,
    MorphismTerm,
    Perm,
    StringDiagram,
    Tensor,
    _walk,
    block_permutation,
    compose_terms,
    decomposition,
    diagram_key,
    fold_term,
    identity_perm,
    sorting_permutation,
    to_diagram,
    typecheck,
)
from .net_model import SmcPresentation, Word, _built


@dataclass(frozen=True)
class StrictFunctor:
    """A strict monoidal functor presented by generator images.

    ``object_map`` sends each source object generator to a word over the
    target; ``morphism_map`` sends each source morphism generator to a
    target term whose boundaries are the mapped boundary words.
    """

    source: SmcPresentation
    target: SmcPresentation
    object_map: Mapping[str, Word]
    morphism_map: Mapping[str, MorphismTerm]

    def __post_init__(self) -> None:
        for obj in self.source.objects:
            if obj not in self.object_map:
                raise ValidationError(f"object generator {obj!r} has no image")
        for obj, word in self.object_map.items():
            if obj not in self.source.object_rank:
                raise ValidationError(f"image given for unknown object generator {obj!r}")
            for letter in word:
                if letter not in self.target.object_rank:
                    raise ValidationError(
                        f"image of {obj!r} uses undeclared target object {letter!r}"
                    )
        for name in self.morphism_map:
            if name not in self.source.morphism_index:
                raise ValidationError(f"image given for unknown morphism generator {name!r}")
        for gen in self.source.morphisms:
            if gen.name not in self.morphism_map:
                raise ValidationError(f"morphism generator {gen.name!r} has no image")
            image = self.morphism_map[gen.name]
            dom, cod = typecheck(image, self.target)
            if dom != self.map_word(gen.dom) or cod != self.map_word(gen.cod):
                raise ValidationError(
                    f"image of {gen.name!r} is not strict: expected "
                    f"{self.map_word(gen.dom)} -> {self.map_word(gen.cod)}, "
                    f"got {dom} -> {cod}"
                )

    def map_object(self, name: str) -> Word:
        return self.object_map[name]

    def map_word(self, word: Word) -> Word:
        out: list[str] = []
        for letter in word:
            out.extend(self.object_map[letter])
        return tuple(out)


def identity_functor(sig: SmcPresentation) -> StrictFunctor:
    object_map = {obj: (obj,) for obj in sig.objects}
    return _built(StrictFunctor, sig, sig, object_map, {g.name: Gen(g.name) for g in sig.morphisms})


def apply_functor(functor: StrictFunctor, t: MorphismTerm) -> MorphismTerm:
    """Homomorphic image of a term; permutations become block permutations."""

    def leaf(node: MorphismTerm) -> MorphismTerm:
        if isinstance(node, Gen):
            return functor.morphism_map[node.name]
        if isinstance(node, Id):
            return Id(functor.map_word(node.word))
        sizes = [len(functor.map_object(letter)) for letter in node.word]
        return Perm(functor.map_word(node.word), block_permutation(sizes, node.perm))

    return fold_term(t, leaf, Compose, Tensor)


def compose_functors(first: StrictFunctor, second: StrictFunctor) -> StrictFunctor:
    """Diagrammatic composite ``first ; second``: strict, since both are."""
    if first.target != second.source:
        raise SourceMismatchError("target of first functor differs from source of second")
    object_map = {obj: second.map_word(word) for obj, word in first.object_map.items()}
    morphism_map = {name: apply_functor(second, t) for name, t in first.morphism_map.items()}
    return _built(StrictFunctor, first.source, second.target, object_map, morphism_map)


def is_generator_preserving_on_objects(functor: StrictFunctor) -> bool:
    """True iff every object image is a single generator."""
    return all(len(functor.map_object(obj)) == 1 for obj in functor.source.objects)


def is_injective_on_object_generators(functor: StrictFunctor) -> bool:
    """True iff the object map is injective as a map of generator names."""
    if not is_generator_preserving_on_objects(functor):
        raise PreconditionFailedError("object images must be single generators")
    images = [functor.map_object(obj)[0] for obj in functor.source.objects]
    return len(set(images)) == len(images)


def is_transition_preserving(functor: StrictFunctor) -> bool:
    """True iff every generator image is a symmetry-conjugated single box:
    images are typechecked, so that is one ``Gen`` leaf."""
    return all(
        fold_term(functor.morphism_map[gen.name], lambda n: isinstance(n, Gen), add, add) == 1
        for gen in functor.source.morphisms
    )


def uncovered_target_generators(functor: StrictFunctor) -> tuple[str, ...]:
    """Target generators that occur in no generator image, in target order."""
    covered: set[str] = set()
    for gen in functor.source.morphisms:
        covered |= decomposition(functor.morphism_map[gen.name])
    return tuple(gen.name for gen in functor.target.morphisms if gen.name not in covered)


# ---------------------------------------------------------------------------
# Bounded faithfulness

@dataclass(frozen=True)
class FaithfulUpTo:
    """No collapse among the enumerated morphisms with <= bound generators."""

    bound: int


@dataclass(frozen=True)
class CounterexampleFound:
    """Two parallel source terms with distinct diagrams but equal images."""

    bound: int
    left: MorphismTerm
    right: MorphismTerm


FaithfulnessVerdict = FaithfulUpTo | CounterexampleFound


def _firing_boundary(
    sig: SmcPresentation, sequence: Sequence[str]
) -> tuple[Word, Word]:
    """The smallest initial marking feeding ``sequence`` and the marking
    it leaves, both as words sorted by object order."""
    available: dict[str, int] = {}
    initial: dict[str, int] = {}
    for name in sequence:
        gen = sig.morphism(name)
        for letter in gen.dom:
            if available.get(letter, 0) > 0:
                available[letter] -= 1
            else:
                initial[letter] = initial.get(letter, 0) + 1
        for letter in gen.cod:
            available[letter] = available.get(letter, 0) + 1

    def word(counts: dict[str, int]) -> Word:
        letters = sorted(counts, key=sig.object_rank.__getitem__)
        return tuple(letter for letter in letters for _ in range(counts[letter]))

    return word(initial), word(available)


def _leftmost_route(current: Sequence[str], dom: Word) -> tuple[list[int], list[int]]:
    """Positions of ``current`` that a firing with domain ``dom`` consumes,
    the leftmost free occurrence of each letter in turn, and those it leaves."""
    free: list[str | None] = list(current)
    chosen: list[int] = []
    for letter in dom:
        chosen.append(free.index(letter))
        free[chosen[-1]] = None
    return chosen, [i for i, letter in enumerate(free) if letter is not None]


def _readback_generators(
    functor: StrictFunctor, images: Mapping[str, StringDiagram]
) -> frozenset[str]:
    """Source generators whose image reads back to them alone.

    Under an object map sending objects injectively to single objects, a
    generator reads back when its image has a box, shares no box label
    with another image, and is rigid and connected through hidden wires
    (:func:`_rigid_through_hidden`).  In the image of a term over such
    generators, labels name each box's generator, the hidden-wire
    components are the copies and rigidity fixes their ports, so no other
    term has that image.  Empty when an image has no box: it leaves no trace.
    """
    if not all(d.boxes for d in images.values()):
        return frozenset()
    visible: set[str] = set()
    for word in functor.object_map.values():
        if len(word) != 1 or word[0] in visible:
            return frozenset()
        visible.add(word[0])
    users = Counter(label for d in images.values() for label in set(d.boxes))
    return frozenset(
        name
        for name, d in images.items()
        if all(users[label] == 1 for label in d.boxes) and _rigid_through_hidden(d, visible)
    )


def _rigid_through_hidden(d: StringDiagram, visible: set[str]) -> bool:
    """Whether every wire between boxes of ``d`` carries an object outside
    ``visible``, those wires connect all boxes (the walk from box 0, taken
    first, reaches them all), no wire joins the two interfaces, and no
    automorphism moves a box, coding interface ends by one marker, as a
    splice loses positions.  On a connected diagram an automorphism that
    fixes a box fixes its ports' ends, so every box: one that moves a box
    moves box 0 onto a box of its label, whose walk equals box 0's, and
    equal walks from box 0 and box ``b`` map 0 to ``b``."""
    if any(b < 0 for b, _ in d.results):
        return False
    if any(b >= 0 and d.box_cods[b][k] in visible for ends in d.feeds for b, k in ends):
        return False
    blind = [[(b, k if b >= 0 else 0) for b, k in ends] for ends in d.feeds]
    walks = (tuple(_walk(d, blind, [b])[2]) for b, x in enumerate(d.boxes) if x == d.boxes[0])
    first = next(walks)
    return len(first) == len(d.boxes) and first not in walks


def _firing_sequences(
    names: Sequence[str], bound: int, wanted: frozenset[str]
) -> Iterator[tuple[str, ...]]:
    """Sequences of 1..``bound`` names that use some name in ``wanted``,
    by length and then by name index: a prefix without a wanted name
    takes only wanted names last."""
    singles = [(name,) for name in names]
    hits = [(name,) for name in names if name in wanted]
    for length in range(1, bound + 1):
        for prefix in product(names, repeat=length - 1):
            yield from map(prefix.__add__, hits if wanted.isdisjoint(prefix) else singles)


def _spliced_diagram(
    sig: SmcPresentation,
    dom: Word,
    sequence: Sequence[str],
    object_map: Mapping[str, Word],
    pieces: Mapping[str, StringDiagram],
) -> StringDiagram:
    """The diagram of the canonical firing term of ``sequence`` from ``dom``
    under the functor with ``object_map`` and generator diagrams ``pieces``.

    No term is built or folded: tokens hold the sources of their
    object's block, each piece's interface inputs are the tokens
    :func:`_leftmost_route` picks, and its results become the first tokens.
    """
    letters = list(dom)
    inputs = [x for letter in dom for x in object_map[letter]]
    ports = iter([(-1, i) for i in range(len(inputs))])
    tokens = [[next(ports) for _ in object_map[letter]] for letter in dom]
    boxes: list[str] = []
    box_doms: list[Word] = []
    box_cods: list[Word] = []
    feeds: list[tuple] = []
    for name in sequence:
        gen, piece, offset = sig.morphism_index[name], pieces[name], len(boxes)
        chosen, rest = _leftmost_route(letters, gen.dom)
        feed = [end for i in chosen for end in tokens[i]]
        rows = [tuple(feed[k] if b < 0 else (b + offset, k) for b, k in row)
                for row in (*piece.feeds, piece.results)]
        ends = iter(rows.pop())
        feeds += rows
        tokens = [[next(ends) for _ in object_map[x]] for x in gen.cod] + [tokens[i] for i in rest]
        letters = list(gen.cod) + [letters[i] for i in rest]
        boxes += piece.boxes
        box_doms += piece.box_doms
        box_cods += piece.box_cods
    order = sorting_permutation(letters, sig.object_rank)
    results = tuple(end for i in order for end in tokens[i])
    outputs = tuple(x for i in order for x in object_map[letters[i]])
    return StringDiagram(
        tuple(boxes), tuple(box_doms), tuple(box_cods), tuple(inputs), outputs,
        tuple(feeds), results,
    )


def _firing_term(d: StringDiagram) -> MorphismTerm:
    """The term read off ``d``, whose boxes are in firing order: before each
    box a symmetry brings the sources of its ports to the front, in port
    order, and keeps the rest in order; a last one orders the outputs as
    ``d.results`` does.  Identity symmetries are left out."""
    ends = [(-1, i) for i in range(len(d.inputs))]
    steps: list[MorphismTerm] = []
    for b, front in enumerate((*d.feeds, d.results)):
        chosen = [ends.index(end) for end in front]
        perm = (*chosen, *(i for i in range(len(ends)) if i not in chosen))
        word = tuple(d.inputs[k] if c < 0 else d.box_cods[c][k] for c, k in ends)
        if perm != identity_perm(len(ends)):
            steps.append(Perm(word, perm))
        if b < len(d.boxes):
            rest, fire = perm[len(front):], Gen(d.boxes[b])
            steps.append(Tensor(fire, Id(tuple(word[i] for i in rest))) if rest else fire)
            ends = [(b, k) for k in range(len(d.box_cods[b]))] + [ends[i] for i in rest]
    return compose_terms(steps) if steps else Id(d.inputs)


def _first_collapse(
    functor: StrictFunctor, dom: Word, sequences: list[tuple[str, ...]], pieces: tuple[dict, dict]
) -> tuple[StringDiagram, StringDiagram] | None:
    """The diagrams of the first two members of the first image group with
    two, after sequences with equal diagrams collapse to the first.
    ``pieces`` holds each generator's own diagram, so a member's boxes
    spell its sequence, and that of its image."""
    sig = functor.source
    own = {obj: (obj,) for obj in sig.objects}
    members: dict[tuple, StringDiagram] = {}
    for seq in sequences:
        d = _spliced_diagram(sig, dom, seq, own, pieces[0])
        members.setdefault(diagram_key(d), d)
    by_image: dict[tuple, list[StringDiagram]] = {}
    for d in members.values():
        image = _spliced_diagram(sig, dom, d.boxes, functor.object_map, pieces[1])
        by_image.setdefault(diagram_key(image), []).append(d)
    for group in by_image.values():
        if len(group) > 1:
            return group[0], group[1]
    return None


def check_faithful_bounded(
    functor: StrictFunctor, bound: int, node_limit: int = 50_000
) -> FaithfulnessVerdict:
    """Search canonical firing diagrams for a collapse.

    Firing sequences of up to ``bound`` generator occurrences, in order
    of length and then of generator index, are grouped into parallel
    classes by boundary.  In each class of two or more, sequences
    collapse by the key of their spliced diagram (:func:`_spliced_diagram`)
    and the rest are grouped by the key of their spliced image.  The
    first image group with two members, in the first class that has
    one, is the certificate of unfaithfulness, as the terms read off its
    first two diagrams (:func:`_firing_term`).  Otherwise the functor is
    faithful on everything the enumeration reaches.  Tokens are routed
    canonically: no collapse that needs a symmetry between boxes is built.

    Sequences of generators that read back (:func:`_readback_generators`)
    alone collapse with nothing and are not built; when every generator
    reads back, nothing is.  When none reads back, each class with equal
    boundaries also holds the identity.  Otherwise no identity can
    collapse, and when several classes collapse the winner is the one
    whose boundaries a sequence reaches first.  ``node_limit`` caps the
    sequences built plus those scanned for boundaries: none, for a functor
    that reads back whole.
    """
    if bound < 1:
        raise PreconditionFailedError("faithfulness bound must be >= 1")
    sig = functor.source
    names = [gen.name for gen in sig.morphisms]
    images = {n: to_diagram(functor.morphism_map[n], functor.target) for n in names}
    readback = _readback_generators(functor, images)
    if len(readback) == len(names):
        return FaithfulUpTo(bound)
    work = 0

    def spend() -> None:
        nonlocal work
        if work == node_limit:
            raise BudgetExceededError(
                f"node limit {node_limit} reached: {work} firing sequences "
                "built or scanned"
            )
        work += 1

    classes: dict[tuple[Word, Word], list[tuple[str, ...]]] = {}
    for seq in _firing_sequences(names, bound, frozenset(names) - readback):
        spend()
        classes.setdefault(_firing_boundary(sig, seq), []).append(seq)

    own = None
    collapses: dict[tuple[Word, Word], tuple[StringDiagram, StringDiagram]] = {}
    for (dom, cod), seqs in classes.items():
        if dom == cod and not readback:
            seqs.append(())
        if len(seqs) < 2:
            continue
        own = own or {n: to_diagram(Gen(n), sig) for n in names}
        pair = _first_collapse(functor, dom, seqs, (own, images))
        if pair is None:
            continue
        if not readback:
            return CounterexampleFound(bound, *map(_firing_term, pair))
        collapses[(dom, cod)] = pair
    if not collapses:
        return FaithfulUpTo(bound)
    first = next(iter(collapses))
    if len(collapses) > 1:
        # A skipped sequence may reach a class before its first built one.
        for seq in _firing_sequences(names, bound, frozenset(names)):
            spend()
            first = _firing_boundary(sig, seq)
            if first in collapses:
                break
    return CounterexampleFound(bound, *map(_firing_term, collapses[first]))
