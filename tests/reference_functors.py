"""Bounded faithfulness by comparing every pair, kept as an oracle.

Before parallel classes were grouped by diagram key, the check built a
diagram and an image for every enumerated term and compared each pair
of a class: a pair with distinct diagrams and equal images is the
certificate.  Before relabelled generators were skipped, every sequence
was built.  The tests compare ``check_faithful_bounded`` against this
function on random small functors; verdicts and certificates must agree.
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
    to_diagram,
)
from petriglue.fssmc import StringDiagram
from petriglue.functors import FaithfulnessVerdict, _canonical_firing_term
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
