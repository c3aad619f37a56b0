"""Bounded faithfulness by earlier designs, kept as oracles.

Before parallel classes were grouped by diagram key, the check built a
diagram and an image for every enumerated term and compared each pair
of a class: a pair with distinct diagrams and equal images is the
certificate.  Before relabelled generators were skipped, every sequence
was built.  That is :func:`check_faithful_bounded` here.

Before generators were certified by unique readback, the search skipped
only those the functor merely relabels (:func:`relabelled_generators`),
and the sequences to build were filtered out of the full product.  That
is :func:`check_faithful_by_relabelling`.

Before diagrams were spliced from firing sequences, the grouped search
realized every sequence of a class as its canonical term, folded it,
mapped it with ``apply_functor`` and folded the image again.  That is
:func:`check_faithful_by_terms`, which skips the library's readback set.
The tests compare the library's ``check_faithful_bounded`` against all
three on random small functors; verdicts and certificates must agree.

Before the rigidity test stopped at a walk from box 0 that misses a box,
it walked from every box first.  That is :func:`rigid_by_every_walk`.

:func:`small_diagram_collapses` is a brute force, not an earlier design:
it maps every diagram of at most two boxes and reports the collapses,
so no diagram over readback generators alone may appear in one.
"""
from __future__ import annotations

from itertools import combinations_with_replacement, filterfalse, permutations, product

from petriglue import (
    BudgetExceededError,
    CounterexampleFound,
    FaithfulUpTo,
    Id,
    MorphismTerm,
    PreconditionFailedError,
    StrictFunctor,
    apply_functor,
    diagram_equal,
    diagram_key,
    to_diagram,
)
from petriglue.fssmc import (
    Gen,
    Perm,
    StringDiagram,
    Tensor,
    _walk,
    apply_perm,
    block_permutation,
    compose_terms,
    decomposition,
    identity_perm,
    sorting_permutation,
)
from petriglue.functors import (
    FaithfulnessVerdict,
    _canonical_firing_term,
    _first_collapse,
    _firing_boundary,
    _firing_sequences,
    _readback_generators,
    is_generator_preserving_on_objects,
    is_injective_on_object_generators,
)
from petriglue.net_model import Word
from support import diagram_from_wires, wires


def parallel_classes(
    functor: StrictFunctor, bound: int
) -> dict[tuple[Word, Word], list[tuple[tuple[str, ...], MorphismTerm, StringDiagram]]]:
    """Every enumerated term with its sequence and diagram, by boundaries.

    Classes and members come in enumeration order; a class with equal
    boundaries ends with the identity, whose sequence is empty.
    """
    groups: dict[tuple[Word, Word], list] = {}

    def add(seq: tuple[str, ...], term: MorphismTerm, dom: Word, cod: Word) -> None:
        groups.setdefault((dom, cod), []).append((seq, term, to_diagram(term, functor.source)))

    names = [gen.name for gen in functor.source.morphisms]
    sequences: list[list[str]] = [[]]
    for _ in range(bound):
        sequences = [seq + [name] for seq in sequences for name in names]
        for seq in sequences:
            dom, cod, term = _canonical_firing_term(functor.source, seq)
            add(tuple(seq), term, dom, cod)

    for (dom, cod) in list(groups):
        if dom == cod:
            add((), Id(dom), dom, cod)
    return groups


def collapsing_pair(
    functor: StrictFunctor, members: list[tuple[tuple[str, ...], MorphismTerm, StringDiagram]]
) -> tuple[MorphismTerm, MorphismTerm] | None:
    """The first pair of a class with distinct diagrams and equal images."""
    images = [
        to_diagram(apply_functor(functor, term), functor.target)
        for _, term, _ in members
    ]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if diagram_equal(members[i][2], members[j][2]):
                continue
            if diagram_equal(images[i], images[j]):
                return members[i][1], members[j][1]
    return None


def check_faithful_bounded(
    functor: StrictFunctor, bound: int, node_limit: int = 50_000
) -> FaithfulnessVerdict:
    """Semi-decide faithfulness by enumerating canonical firing terms.

    All firing sequences of up to ``bound`` generator occurrences are
    realized as terms with canonical symmetries, grouped into parallel
    classes together with the identity on each boundary word.  A pair
    with distinct diagrams but diagram-equal images is a certificate of
    unfaithfulness; otherwise the functor is faithful on everything the
    enumeration reaches.
    """
    if bound < 1:
        raise PreconditionFailedError("faithfulness bound must be >= 1")
    total = sum(len(functor.source.morphisms) ** n for n in range(1, bound + 1))
    if total > node_limit:
        raise BudgetExceededError(
            f"{total} candidate sequences exceed the node limit {node_limit}"
        )
    for members in parallel_classes(functor, bound).values():
        pair = collapsing_pair(functor, members)
        if pair is not None:
            return CounterexampleFound(bound, *pair)
    return FaithfulUpTo(bound)


def first_collapse_by_terms(
    functor: StrictFunctor, terms: list[MorphismTerm]
) -> tuple[MorphismTerm, MorphismTerm] | None:
    """The first two terms of the first image group with two members,
    after terms with equal diagrams collapse to the first."""
    members: dict[tuple, MorphismTerm] = {}
    for term in terms:
        members.setdefault(diagram_key(to_diagram(term, functor.source)), term)
    by_image: dict[tuple, list[MorphismTerm]] = {}
    for term in members.values():
        image = to_diagram(apply_functor(functor, term), functor.target)
        by_image.setdefault(diagram_key(image), []).append(term)
    for group in by_image.values():
        if len(group) > 1:
            return group[0], group[1]
    return None


def check_faithful_by_terms(
    functor: StrictFunctor, bound: int, node_limit: int = 50_000
) -> FaithfulnessVerdict:
    """The grouped search with every enumerated sequence built as a term.

    Same enumeration, readback skip, identity members, class ranking
    and ``node_limit`` accounting as the library; each
    sequence goes sequence -> canonical term -> diagram, and each
    distinct source term -> ``apply_functor`` -> diagram.
    """
    if bound < 1:
        raise PreconditionFailedError("faithfulness bound must be >= 1")
    sig = functor.source
    names = [gen.name for gen in sig.morphisms]
    relabelled = _readback_generators(functor, image_diagrams(functor))
    work = 0

    def spend() -> None:
        nonlocal work
        if work == node_limit:
            raise BudgetExceededError(
                f"node limit {node_limit} reached: {work} firing sequences "
                "built or scanned"
            )
        work += 1

    classes: dict[tuple[Word, Word], list[MorphismTerm]] = {}
    for seq in _firing_sequences(names, bound, frozenset(names) - relabelled):
        spend()
        dom, cod, term = _canonical_firing_term(sig, seq)
        classes.setdefault((dom, cod), []).append(term)

    collapses: dict[tuple[Word, Word], tuple[MorphismTerm, MorphismTerm]] = {}
    for (dom, cod), terms in classes.items():
        if dom == cod and not relabelled:
            terms.append(Id(dom))
        pair = first_collapse_by_terms(functor, terms) if len(terms) > 1 else None
        if pair is None:
            continue
        if not relabelled:
            return CounterexampleFound(bound, *pair)
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
    return CounterexampleFound(bound, *collapses[first])


def image_diagrams(functor: StrictFunctor) -> dict[str, StringDiagram]:
    """The diagram of every generator image, by generator name."""
    return {
        gen.name: to_diagram(functor.morphism_map[gen.name], functor.target)
        for gen in functor.source.morphisms
    }


def rigid_by_every_walk(d: StringDiagram, visible: set[str]) -> bool:
    """``functors._rigid_through_hidden`` with a walk from every box taken
    before any verdict."""
    if any(b < 0 for b, _ in d.results):
        return False
    if any(b >= 0 and d.box_cods[b][k] in visible for ends in d.feeds for b, k in ends):
        return False
    blind = [[(b, k if b >= 0 else 0) for b, k in ends] for ends in d.feeds]
    walks = [tuple(_walk(d, blind, [b])[2]) for b in range(len(d.boxes))]
    return len(walks[0]) == len(d.boxes) == len(set(walks))


def relabelled_generators(functor: StrictFunctor) -> frozenset[str]:
    """Source generators the functor merely relabels, where skipping them is safe.

    A generator is relabelled when its image is ``Gen(h)`` and no other
    image uses ``h``, under an object map sending objects injectively to
    single objects.  Terms built from relabelled generators alone keep
    their diagram up to a one-to-one renaming, so they collapse with
    nothing, provided every other image holds a box: the set is empty
    otherwise.
    """
    single = is_generator_preserving_on_objects(functor)
    if not single or not is_injective_on_object_generators(functor):
        return frozenset()
    users: dict[str, int] = {}
    for image in functor.morphism_map.values():
        for name in decomposition(image):
            users[name] = users.get(name, 0) + 1
    relabelled = frozenset(
        name
        for name, image in functor.morphism_map.items()
        if isinstance(image, Gen) and users[image.name] == 1
    )
    if any(
        not decomposition(image)
        for name, image in functor.morphism_map.items()
        if name not in relabelled
    ):
        return frozenset()
    return relabelled


def firing_sequences_by_filter(
    names: list[str], bound: int, wanted: frozenset[str]
):
    """Sequences of 1..``bound`` names that use some name in ``wanted``,
    by length and then by name index, filtered out of the full product."""
    for length in range(1, bound + 1):
        yield from filterfalse(wanted.isdisjoint, product(names, repeat=length))


def check_faithful_by_relabelling(
    functor: StrictFunctor, bound: int, node_limit: int = 50_000
) -> FaithfulnessVerdict:
    """The spliced search skipping sequences of relabelled generators alone.

    Sequences that use a generator outside :func:`relabelled_generators`
    are filtered out of the full product and built; when none is
    relabelled, each class with equal boundaries also holds the
    identity, and when several classes collapse the winner is the one
    whose boundaries a sequence reaches first.
    """
    if bound < 1:
        raise PreconditionFailedError("faithfulness bound must be >= 1")
    sig = functor.source
    names = [gen.name for gen in sig.morphisms]
    relabelled = relabelled_generators(functor)
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
    for seq in firing_sequences_by_filter(names, bound, frozenset(names) - relabelled):
        spend()
        classes.setdefault(_firing_boundary(sig, seq), []).append(seq)

    pieces = None
    collapses: dict[tuple[Word, Word], tuple[MorphismTerm, MorphismTerm]] = {}
    for (dom, cod), seqs in classes.items():
        if dom == cod and not relabelled:
            seqs.append(())
        if len(seqs) < 2:
            continue
        pieces = pieces or (
            {n: to_diagram(Gen(n), sig) for n in names},
            image_diagrams(functor),
        )
        pair = _first_collapse(functor, dom, seqs, pieces)
        if pair is None:
            continue
        if not relabelled:
            return CounterexampleFound(bound, *pair)
        collapses[(dom, cod)] = pair
    if not collapses:
        return FaithfulUpTo(bound)
    first = next(iter(collapses))
    if len(collapses) > 1:
        # A skipped sequence may reach a class before its first built one.
        for seq in firing_sequences_by_filter(names, bound, frozenset(names)):
            spend()
            first = _firing_boundary(sig, seq)
            if first in collapses:
                break
    return CounterexampleFound(bound, *collapses[first])


def small_diagram_terms(sig, max_boxes: int = 2, max_letters: int = 4):
    """Every diagram with at most ``max_boxes`` boxes whose interface words
    have at most ``max_letters`` letters, sorted by object order.

    Boxes fire one after another, and each takes any free tokens of its
    input letters, in any order, so every routing between boxes occurs.
    The final tokens are sorted stably, and every symmetry of the sorted
    word that swaps equal letters is yielded with the term, to follow it;
    the identities on non-empty words are the box-free terms followed by
    each of those symmetries.  Sorted interfaces lose no collapse:
    composing with a symmetry before and after keeps two terms distinct
    and their images equal.  Yields ``(names, term, symmetries)``.
    """
    rank = sig.object_rank
    names = [gen.name for gen in sig.morphisms]

    def routings(current, dom):
        """Every ordered choice of positions of ``current`` spelling ``dom``."""
        if not dom:
            yield []
            return
        for i, letter in enumerate(current):
            if letter == dom[0]:
                for rest in routings(current[:i] + (None,) + current[i + 1:], dom[1:]):
                    yield [i] + rest

    def fire(current, boxes, steps):
        if boxes:
            gen = sig.morphism(boxes[0])
            for chosen in routings(current, gen.dom):
                rest = [i for i in range(len(current)) if i not in chosen]
                route = tuple(chosen + rest)
                rest_word = tuple(current[i] for i in rest)
                step = [Perm(current, route)] if route != identity_perm(len(current)) else []
                box = Gen(gen.name)
                step.append(Tensor(box, Id(rest_word)) if rest_word else box)
                yield from fire(gen.cod + rest_word, boxes[1:], steps + step)
        elif len(current) <= max_letters:
            order = sorting_permutation(current, rank)
            if order != identity_perm(len(current)):
                steps = steps + [Perm(current, order)]
            word = apply_perm(current, order)
            blocks = [
                [i for i, x in enumerate(word) if x == letter] for letter in dict.fromkeys(word)
            ]
            swaps = [sum(map(list, perms), []) for perms in product(*map(permutations, blocks))]
            yield compose_terms(steps) if steps else Id(word), swaps

    for count in range(max_boxes + 1):
        for boxes in product(names, repeat=count):
            for size in range(max_letters + 1):
                for dom in combinations_with_replacement(sig.objects, size):
                    for term, swaps in fire(tuple(dom), boxes, []):
                        yield boxes, term, swaps


def _then_swap(d: StringDiagram, perm: list[int]) -> StringDiagram:
    """``d`` followed by the symmetry ``perm`` of its output word."""
    moved = {("out", p): ("out", i) for i, p in enumerate(perm)}
    pairs = frozenset((src, moved.get(tgt, tgt)) for src, tgt in wires(d))
    return diagram_from_wires(d.boxes, d.box_doms, d.box_cods, d.inputs, d.outputs, pairs)


def small_diagram_collapses(functor: StrictFunctor, max_boxes: int = 2, max_letters: int = 4):
    """Pairs ``(names, names)`` of distinct small diagrams with equal images.

    Every term of :func:`small_diagram_terms` is folded, mapped with
    ``apply_functor`` and folded again, and each of its final symmetries
    is applied to both diagrams (widened to object blocks on the image).
    Diagrams are grouped by their boundaries and their image key; the box
    labels of both sides of a collapse are returned, one pair per extra
    member of a group.
    """
    sig = functor.source
    sizes = {obj: len(functor.map_object(obj)) for obj in sig.objects}
    seen: set[tuple] = set()
    by_image: dict[tuple, tuple[str, ...]] = {}
    collapses = []
    for names, term, swaps in small_diagram_terms(sig, max_boxes, max_letters):
        source = to_diagram(term, sig)
        image = to_diagram(apply_functor(functor, term), functor.target)
        widths = [sizes[letter] for letter in source.outputs]
        for swap in swaps:
            key = diagram_key(_then_swap(source, swap))
            if key in seen:
                continue
            seen.add(key)
            mapped = diagram_key(_then_swap(image, block_permutation(widths, swap)))
            group = (key[:2], mapped)
            if group in by_image:
                collapses.append((by_image[group], names))
            else:
                by_image[group] = names
    return collapses
