"""Bounded faithfulness by comparing every pair, kept as an oracle.

Before parallel classes were grouped by diagram key, the check built a
diagram and an image for every enumerated term and compared each pair
of a class: a pair with distinct diagrams and equal images is the
certificate.  The tests compare ``check_faithful_bounded`` against this
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
    names = [gen.name for gen in functor.source.morphisms]
    total = sum(len(names) ** n for n in range(1, bound + 1))
    if total > node_limit:
        raise BudgetExceededError(
            f"{total} candidate sequences exceed the node limit {node_limit}"
        )

    groups: dict[tuple[Word, Word], list[tuple[MorphismTerm, StringDiagram]]] = {}

    def add(term: MorphismTerm, dom: Word, cod: Word) -> None:
        groups.setdefault((dom, cod), []).append((term, to_diagram(term, functor.source)))

    sequences: list[list[str]] = [[]]
    for _ in range(bound):
        sequences = [seq + [name] for seq in sequences for name in names]
        for seq in sequences:
            dom, cod, term = _canonical_firing_term(functor.source, seq)
            add(term, dom, cod)

    for (dom, cod) in list(groups):
        if dom == cod:
            add(Id(dom), dom, cod)

    for members in groups.values():
        images = [
            to_diagram(apply_functor(functor, term), functor.target)
            for term, _ in members
        ]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if diagram_equal(members[i][1], members[j][1]):
                    continue
                if diagram_equal(images[i], images[j]):
                    return CounterexampleFound(bound, members[i][0], members[j][0])
    return FaithfulUpTo(bound)
