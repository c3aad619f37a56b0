"""Chained two-place merges, the induced fold that found its classes by
scanning, and the exhaustive firing-vector search, kept as oracles.

Before every witness went through the coequalizer, ``identify`` handled
a witness without transitions by composing one ``merge_two_places`` per
witness place.  Each merge re-sorts the words the previous one left, so
the composite's symmetries can differ from the single stable sort of
``coequalize_tp``; the induced fold is then rejected although the
identification is valid.  The tests compare ``identify`` against this
path wherever it succeeds.

``factor_fold_through_coequalizer`` found each quotient class again
from the coequalizer's images: the members of every place class, and
the first source generator whose image decomposes to each quotient
generator, checking every representative's re-sorted boundaries.  The
library now reads each class from the coequalizer's naming; the tests
require repr-identical folds, or the same error type, from both.  The
chained merges above use this copy, so that oracle does not depend on
the rewrite.

``minimal_firing_vector`` tried every split of every flow up to its
bound before the change-making tables replaced it; the tests require
equal results from both.
"""
from __future__ import annotations

from typing import Sequence

from petriglue import (
    Fold,
    FreeFold,
    MorphismGenerator,
    NetWithSemantics,
    PairFold,
    Perm,
    PetriGlueError,
    PreconditionFailedError,
    SemanticsObstructionError,
    SmcPresentation,
    SourceMismatchError,
    StrictFunctor,
    TerminalFold,
    WellDefinednessError,
    Witness,
    compose_functors,
    identity_functor,
    merge_two_places,
    net_of_presentation,
    sem_equal,
)
from petriglue.fssmc import (
    MorphismTerm,
    apply_perm,
    block_permutation,
    compose_terms,
    decomposition,
    identity_perm,
    invert_perm,
)
from petriglue.net_model import Word


def _sequential_merge(
    sig: SmcPresentation, pairs: Sequence[tuple[str, str]]
) -> StrictFunctor:
    """Composite of two-place merges, keeping the order-minimal name."""
    total = identity_functor(sig)
    current = sig
    for left_name, right_name in pairs:
        a = total.map_object(left_name)[0]
        b = total.map_object(right_name)[0]
        if a == b:
            continue
        order = {name: i for i, name in enumerate(current.objects)}
        keep, drop = (a, b) if order[a] <= order[b] else (b, a)
        current, step = merge_two_places(current, keep, drop)
        total = compose_functors(total, step)
    return total


def identify_by_merges(
    net_sem: NetWithSemantics, witness: Witness
) -> tuple[NetWithSemantics, StrictFunctor]:
    """The old ``identify`` on a witness with places only."""
    assert not witness.net.transitions
    fold = net_sem.fold
    pairs = [
        (witness.left.map_object(o)[0], witness.right.map_object(o)[0])
        for o in witness.net.places
    ]
    for obj, (left_obj, right_obj) in zip(witness.net.places, pairs):
        if fold.object_image(left_obj) != fold.object_image(right_obj):
            raise SemanticsObstructionError(
                f"witness place {obj!r} pairs places with different semantics"
            )
    coequalizer = _sequential_merge(net_sem.presentation, pairs)
    induced = factor_fold_through_coequalizer(coequalizer, fold)
    result = NetWithSemantics(net_of_presentation(coequalizer.target), induced)
    return result, coequalizer


def sorting_permutation(word: Word, order: Sequence[str]) -> tuple[int, ...]:
    """Stable permutation p with ``apply_perm(word, p)`` sorted by ``order``."""
    position = {name: i for i, name in enumerate(order)}
    return tuple(sorted(range(len(word)), key=lambda i: (position[word[i]], i)))


def factor_fold_through_coequalizer(coequalizer: StrictFunctor, fold: Fold) -> Fold:
    """Induce a fold on the quotient, checking it is single-valued.

    Every quotient generator takes the fold image of its order-minimal
    member, conjugated by the block symmetries the re-sorted boundaries
    demand; all other members must agree up to backend equality.
    """
    if coequalizer.source != fold.source:
        raise SourceMismatchError("fold is not defined on the coequalizer's source")
    if isinstance(fold, TerminalFold):
        return TerminalFold(coequalizer.target)
    if isinstance(fold, PairFold):
        return PairFold(
            factor_fold_through_coequalizer(coequalizer, fold.left),
            factor_fold_through_coequalizer(coequalizer, fold.right),
        )

    source = coequalizer.source
    quotient = coequalizer.target
    carrier = fold.functor

    place_members: dict[str, list[str]] = {obj: [] for obj in quotient.objects}
    for o in source.objects:
        image = coequalizer.map_object(o)
        if len(image) == 1:
            place_members[image[0]].append(o)
    first_member: dict[str, MorphismGenerator] = {}
    for m in source.morphisms:
        parts = decomposition(coequalizer.morphism_map[m.name])
        if len(parts) == 1:
            first_member.setdefault(next(iter(parts)), m)

    object_map: dict[str, Word] = {}
    for obj, members in place_members.items():
        images = {carrier.map_object(o) for o in members}
        if len(images) != 1:
            raise WellDefinednessError(
                f"merged places {members} carry different semantics objects"
            )
        object_map[obj] = images.pop()

    morphism_map: dict[str, MorphismTerm] = {}
    for gen in quotient.morphisms:
        if gen.name not in first_member:
            raise WellDefinednessError(f"class {gen.name!r} has no members")
        rep = first_member[gen.name]

        def conjugating_perm(rep_word: Word, sorted_word: Word, inverse: bool) -> tuple[int, ...]:
            classes = tuple(coequalizer.map_object(letter)[0] for letter in rep_word)
            sort = sorting_permutation(classes, quotient.objects)
            if apply_perm(classes, sort) != sorted_word:
                raise WellDefinednessError(
                    f"class {gen.name!r} boundaries disagree with its members"
                )
            sizes = [len(carrier.map_object(letter)) for letter in rep_word]
            if inverse:
                return block_permutation([sizes[i] for i in sort], invert_perm(sort))
            return block_permutation(sizes, sort)

        core = carrier.morphism_map[rep.name]
        parts: list[MorphismTerm] = []
        pre = conjugating_perm(rep.dom, gen.dom, inverse=True)
        mapped_dom = tuple(
            letter for cls in gen.dom for letter in object_map[cls]
        )
        if pre != identity_perm(len(pre)):
            parts.append(Perm(mapped_dom, pre))
        parts.append(core)
        post = conjugating_perm(rep.cod, gen.cod, inverse=False)
        if post != identity_perm(len(post)):
            parts.append(Perm(carrier.map_word(rep.cod), post))
        morphism_map[gen.name] = compose_terms(parts)

    induced = FreeFold(
        StrictFunctor(
            source=quotient,
            target=carrier.target,
            object_map=object_map,
            morphism_map=morphism_map,
        )
    )
    handle = fold.semantics
    for gen in source.morphisms:
        expected = fold.morphism_image(gen.name)
        actual = induced.term_image(coequalizer.morphism_map[gen.name])
        if not sem_equal(handle, expected, actual):
            raise WellDefinednessError(
                f"induced fold disagrees with the original on {gen.name!r}"
            )
    return induced


class NoSolutionWithinBoundError(PetriGlueError):
    """Stand-in for the removed library error; nothing ever raises it."""


def minimal_firing_vector(
    producers: Sequence[tuple[str, int]], consumers: Sequence[tuple[str, int]]
) -> dict[str, int]:
    """Balance token flow with the fewest total firings, all at least one.

    Searches flows exhaustively up to a bound past which no assignment
    can beat the guaranteed fallback (every producer fires once per
    consumed token and vice versa); ties are broken lexicographically
    in declaration order, producers first.
    """
    if not producers or not consumers:
        raise PreconditionFailedError("producer and consumer lists must be nonempty")
    for name, amount in tuple(producers) + tuple(consumers):
        if amount < 1:
            raise PreconditionFailedError(f"amount for {name!r} must be >= 1")
    names = [name for name, _ in producers] + [name for name, _ in consumers]
    if len(set(names)) != len(names):
        raise PreconditionFailedError("transition names must be unique")

    produced = [amount for _, amount in producers]
    consumed = [amount for _, amount in consumers]

    def side_best(amounts: list[int], flow: int) -> tuple[int, tuple[int, ...]] | None:
        best: tuple[int, tuple[int, ...]] | None = None

        def recurse(i: int, remaining: int, total: int, acc: list[int]) -> None:
            nonlocal best
            if i == len(amounts) - 1:
                if remaining >= amounts[i] and remaining % amounts[i] == 0:
                    count = remaining // amounts[i]
                    candidate = (total + count, tuple(acc + [count]))
                    if best is None or candidate < best:
                        best = candidate
                return
            floor_rest = sum(amounts[i + 1 :])
            count = 1
            while amounts[i] * count + floor_rest <= remaining:
                recurse(i + 1, remaining - amounts[i] * count, total + count, acc + [count])
                count += 1

        recurse(0, flow, 0, [])
        return best

    sum_p, sum_c = sum(produced), sum(consumed)
    fallback = (
        len(produced) * sum_c + len(consumed) * sum_p,
        tuple([sum_c] * len(produced)),
        tuple([sum_p] * len(consumed)),
    )
    best = fallback
    max_p, max_c = max(produced), max(consumed)
    flow_cap = fallback[0] * max_p * max_c // (max_p + max_c)
    for flow in range(max(sum_p, sum_c), flow_cap + 1):
        side_p = side_best(produced, flow)
        side_c = side_best(consumed, flow)
        if side_p is None or side_c is None:
            continue
        candidate = (side_p[0] + side_c[0], side_p[1], side_c[1])
        if candidate < best:
            best = candidate
    if best is None:  # pragma: no cover - the fallback always exists
        raise NoSolutionWithinBoundError("no balanced firing vector within bound")
    counts = {name: count for (name, _), count in zip(producers, best[1])}
    counts.update({name: count for (name, _), count in zip(consumers, best[2])})
    return counts
