"""Bounded faithfulness by earlier designs, kept as oracles.

Before parallel classes were grouped by diagram key, the check built a
diagram and an image for every enumerated term and compared each pair
of a class: a pair with distinct diagrams and equal images is the
certificate.  Before relabelled generators were skipped, every sequence
was built.  That is :func:`check_faithful_bounded` here.

Before diagrams were spliced from firing sequences, the grouped search
realized every sequence of a class as its canonical term, folded it,
mapped it with ``apply_functor`` and folded the image again.  That is
:func:`check_faithful_by_terms`.  The tests compare the library's
``check_faithful_bounded`` against both on random small functors;
verdicts and certificates must agree.
"""
from __future__ import annotations

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
from petriglue.fssmc import StringDiagram
from petriglue.functors import (
    FaithfulnessVerdict,
    _canonical_firing_term,
    _firing_boundary,
    _firing_sequences,
    _relabelled_generators,
)
from petriglue.net_model import Word


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

    Same enumeration, relabelled-generator skip, identity members,
    class ranking and ``node_limit`` accounting as the library; each
    sequence goes sequence -> canonical term -> diagram, and each
    distinct source term -> ``apply_functor`` -> diagram.
    """
    if bound < 1:
        raise PreconditionFailedError("faithfulness bound must be >= 1")
    sig = functor.source
    names = [gen.name for gen in sig.morphisms]
    relabelled = _relabelled_generators(functor)
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
