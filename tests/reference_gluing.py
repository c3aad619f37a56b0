"""Two-place merges and chains of them, the induced fold that found its
classes by scanning, and the exhaustive firing-vector search, kept as
oracles.

``merge_two_places`` substituted, re-sorted and conjugated every word
itself and validated the functor it built; the library now builds that
quotient through the coequalizer's builder, and the tests require equal
presentations and functors, or the same error, from both.

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
bound before the change-making tables replaced it, and
``table_firing_vector`` is those tables: one suffix table per side
filled up to a flow cap, read back into counts, under a cell budget.
The library now runs one shortest-path search over token balances; the
tests require equal results from all three.

``boundary_compose`` glued the nets with ``pushout_glue`` and then ran
every synchronization step on a net with semantics, composing the fold
and the running functor at each step; its event expression spelled out
the boundary words and the token routing by hand.  The library now
merges through ``identify`` on the coproduct, synchronizes the bare net
and carries the fold once along the total functor; the tests require
equal compositions, or the same error, from both.

``net_coproduct`` returned its injections as ``RenameMap`` name tables,
and ``monoidal_product`` turned those into renaming functors before it
copaired the folds.  The library's coproduct now builds the functors
itself; the tests require equal nets, injections and folds, or the same
error, from both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from petriglue import (
    BoundaryComposition,
    BoundaryOrientationError,
    BudgetExceededError,
    Fold,
    FreeFold,
    MorphismGenerator,
    NetWithSemantics,
    PairFold,
    Perm,
    PetriNet,
    PetriGlueError,
    PreconditionFailedError,
    SemanticsMismatchError,
    SamePlaceError,
    SemanticsObstructionError,
    SmcPresentation,
    SourceMismatchError,
    StrictFunctor,
    SyncRecipe,
    TerminalFold,
    UnknownGeneratorError,
    UnknownPlaceError,
    ValidationError,
    WellDefinednessError,
    Witness,
    compose_functors,
    identity_functor,
    net_of_presentation,
    pushout_glue,
    sem_equal,
    synchronize_transitions,
)
from petriglue import minimal_firing_vector as library_firing_vector
from petriglue.fssmc import (
    Gen,
    Id,
    MorphismTerm,
    Tensor,
    alignment_permutation,
    apply_perm,
    block_permutation,
    compose_terms,
    decomposition,
    identity_perm,
    invert_perm,
    tensor_terms,
)
from petriglue.net_model import Multiset, Transition, Word


def _conjugate(
    core: MorphismTerm,
    core_dom: Word,
    core_cod: Word,
    outer_dom: Word,
    outer_cod: Word,
) -> MorphismTerm:
    """Wrap a term in the symmetries matching it to the outer boundaries."""
    parts: list[MorphismTerm] = []
    if outer_dom != core_dom:
        parts.append(Perm(outer_dom, alignment_permutation(outer_dom, core_dom)))
    parts.append(core)
    if core_cod != outer_cod:
        parts.append(Perm(core_cod, alignment_permutation(core_cod, outer_cod)))
    return compose_terms(parts)


def merge_two_places(
    sig: SmcPresentation, keep: str, drop: str
) -> tuple[SmcPresentation, StrictFunctor]:
    """Identify two places directly: drop one, rename its occurrences."""
    if keep == drop:
        raise SamePlaceError("cannot merge a place with itself")
    for name in (keep, drop):
        if name not in sig.object_rank:
            raise UnknownGeneratorError(f"unknown object generator {name!r}")

    objects = tuple(o for o in sig.objects if o != drop)
    rank = sig.object_rank.__getitem__

    def substitute(word: Word) -> Word:
        return tuple(keep if letter == drop else letter for letter in word)

    generators: list[MorphismGenerator] = []
    morphism_map: dict[str, MorphismTerm] = {}
    for gen in sig.morphisms:
        dom_sub = substitute(gen.dom)
        cod_sub = substitute(gen.cod)
        dom_sorted = tuple(sorted(dom_sub, key=rank))
        cod_sorted = tuple(sorted(cod_sub, key=rank))
        generators.append(MorphismGenerator(gen.name, dom_sorted, cod_sorted))
        morphism_map[gen.name] = _conjugate(
            Gen(gen.name), dom_sorted, cod_sorted, dom_sub, cod_sub
        )
    merged = SmcPresentation(objects, tuple(generators))
    functor = StrictFunctor(
        source=sig,
        target=merged,
        object_map={o: (keep,) if o == drop else (o,) for o in sig.objects},
        morphism_map=morphism_map,
    )
    return merged, functor


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


#: Most cells the firing-vector tables may hold.
TABLE_CELLS = 2 * 10**6


def table_firing_vector(
    producers: Sequence[tuple[str, int]], consumers: Sequence[tuple[str, int]]
) -> dict[str, int]:
    """Balance token flow with the fewest total firings, all at least one.

    One change-making table per side covers every flow up to a bound
    past which no assignment beats the fallback (every producer fires
    once per consumed token and vice versa), in O((|producers| +
    |consumers|) * bound) time and cells; ties go to the
    lexicographically smallest counts, producers first.  Raises
    :class:`BudgetExceededError` past :data:`TABLE_CELLS` cells.
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
    fallback_total = len(produced) * sum(consumed) + len(consumed) * sum(produced)
    max_p, max_c = max(produced), max(consumed)
    flow_cap = fallback_total * max_p * max_c // (max_p + max_c)
    cells = (len(produced) + len(consumed) + 2) * (flow_cap + 1)
    if cells > TABLE_CELLS:
        raise BudgetExceededError(
            f"firing-vector tables need {cells} cells, more than {TABLE_CELLS}"
        )
    p_rows = _change_making_rows(produced, flow_cap)
    c_rows = _change_making_rows(consumed, flow_cap)
    totals = [p + c for p, c in zip(p_rows[0], c_rows[0])]
    least = min(totals)
    p_counts, c_counts = min(
        (_fewest_counts(produced, p_rows, flow), _fewest_counts(consumed, c_rows, flow))
        for flow, total in enumerate(totals)
        if total == least
    )
    return dict(zip(names, p_counts + c_counts))


def _change_making_rows(amounts: list[int], cap: int) -> list[list[float]]:
    """Suffix tables: ``rows[i][f]`` is the fewest firings of transitions
    ``i..``, each at least once, that move exactly ``f`` tokens, or
    ``math.inf`` when none do."""
    rows = [[0] + [math.inf] * cap]
    for amount in reversed(amounts):
        row = [math.inf] * (cap + 1)
        for f in range(amount, cap + 1):
            row[f] = 1 + min(row[f - amount], rows[0][f - amount])
        rows.insert(0, row)
    return rows


def _fewest_counts(amounts: list[int], rows: list[list[float]], flow: int) -> tuple[int, ...]:
    """The lexicographically smallest counts that move ``flow`` tokens in
    ``rows[0][flow]`` firings, which must be finite."""
    counts = []
    for i, amount in enumerate(amounts):
        # A fitting count exists, so every smaller one leaves flow >= 0.
        count = 1
        while count + rows[i + 1][flow - count * amount] != rows[i][flow]:
            count += 1
        counts.append(count)
        flow -= count * amount
    return tuple(counts)


def _synchronization_expression(
    sig: SmcPresentation,
    boundary: str,
    producer_counts: Sequence[tuple[str, int]],
    consumer_counts: Sequence[tuple[str, int]],
) -> MorphismTerm:
    """The conflated event: producers, a canonical routing, consumers."""
    producer_term = tensor_terms(
        [Gen(name) for name, count in producer_counts for _ in range(count)]
    )
    consumer_term = tensor_terms(
        [Gen(name) for name, count in consumer_counts for _ in range(count)]
    )
    out_word: Word = tuple(
        letter
        for name, count in producer_counts
        for _ in range(count)
        for letter in sig.morphism(name).cod
    )
    need_word: Word = tuple(
        letter
        for name, count in consumer_counts
        for _ in range(count)
        for letter in sig.morphism(name).dom
    )
    out_rest = tuple(letter for letter in out_word if letter != boundary)
    need_rest = tuple(letter for letter in need_word if letter != boundary)

    stage_in = producer_term if not need_rest else Tensor(producer_term, Id(need_rest))
    mid_word = out_word + need_rest
    target_word = need_word + out_rest

    boundary_positions = [i for i, letter in enumerate(out_word) if letter == boundary]
    rest_positions = [i for i, letter in enumerate(out_word) if letter != boundary]
    extra_positions = list(range(len(out_word), len(mid_word)))
    route: list[int] = []
    take_boundary = iter(boundary_positions)
    take_extra = iter(extra_positions)
    take_rest = iter(rest_positions)
    for letter in need_word:
        route.append(next(take_boundary) if letter == boundary else next(take_extra))
    for _ in out_rest:
        route.append(next(take_rest))

    stage_out = consumer_term if not out_rest else Tensor(consumer_term, Id(out_rest))
    parts: list[MorphismTerm] = [stage_in]
    if tuple(route) != identity_perm(len(mid_word)):
        parts.append(Perm(mid_word, tuple(route)))
    parts.append(stage_out)
    assert apply_perm(mid_word, tuple(route)) == target_word
    return compose_terms(parts)


def boundary_compose(
    left_sem: NetWithSemantics,
    right_sem: NetWithSemantics,
    pairing: Sequence[tuple[str, str]],
    bound: int = 3,
) -> BoundaryComposition:
    """The per-step composition: pushout, then one synchronization per
    merged place, each carrying the fold and the running functor."""
    if left_sem.semantics != right_sem.semantics:
        raise SemanticsMismatchError("nets carry different semantics")
    for side, places in zip(("left", "right"), zip(*pairing)):
        repeated = [p for i, p in enumerate(places) if p in places[:i]]
        if repeated:
            raise ValidationError(f"{side} place {repeated[0]!r} is paired twice")
    for left_place, right_place in pairing:
        if left_place not in left_sem.net.places:
            raise UnknownPlaceError(f"unknown left place {left_place!r}")
        if right_place not in right_sem.net.places:
            raise UnknownPlaceError(f"unknown right place {right_place!r}")
        if left_sem.fold.object_image(left_place) != right_sem.fold.object_image(
            right_place
        ):
            raise SemanticsObstructionError(
                f"paired places {left_place!r} and {right_place!r} "
                "carry different semantics"
            )
        offenders = [t.name for t in left_sem.net.transitions if left_place in t.pre]
        if offenders:
            raise BoundaryOrientationError(
                f"left transitions {offenders} consume from boundary place "
                f"{left_place!r}"
            )
        offenders = [t.name for t in right_sem.net.transitions if right_place in t.post]
        if offenders:
            raise BoundaryOrientationError(
                f"right transitions {offenders} produce on boundary place "
                f"{right_place!r}"
            )

    witness_net = PetriNet(tuple(f"b{i}" for i in range(len(pairing))), ())
    left = StrictFunctor(
        witness_net.presentation,
        left_sem.presentation,
        {f"b{i}": (lp,) for i, (lp, _) in enumerate(pairing)},
        {},
    )
    right = StrictFunctor(
        witness_net.presentation,
        right_sem.presentation,
        {f"b{i}": (rp,) for i, (_, rp) in enumerate(pairing)},
        {},
    )
    pushout = pushout_glue(left_sem, right_sem, witness_net, left, right)

    current = pushout.net
    total: StrictFunctor | None = None
    vectors: list[tuple[str, tuple[tuple[str, int], ...]]] = []
    for left_place, _ in pairing:
        merged_place = pushout.left_leg.map_object(left_place)[0]
        producers = [
            (t.name, t.post.count(merged_place))
            for t in current.net.transitions
            if merged_place in t.post
        ]
        consumers = [
            (t.name, t.pre.count(merged_place))
            for t in current.net.transitions
            if merged_place in t.pre
        ]
        if not producers or not consumers:
            raise BoundaryOrientationError(
                f"merged place {merged_place!r} lacks a producer or a consumer"
            )
        both = {name for name, _ in producers} & {name for name, _ in consumers}
        if both:
            raise BoundaryOrientationError(
                f"transitions {sorted(both)} both produce and consume on "
                f"{merged_place!r}"
            )
        counts = library_firing_vector(producers, consumers)
        vectors.append((merged_place, tuple(sorted(counts.items()))))
        expression = _synchronization_expression(
            current.presentation,
            merged_place,
            [(name, counts[name]) for name, _ in producers],
            [(name, counts[name]) for name, _ in consumers],
        )
        new_name = "+".join(
            f"{name}*{counts[name]}" if counts[name] > 1 else name
            for name, _ in producers + consumers
        )
        new_name = _fresh(new_name, {t.name for t in current.net.transitions})
        current, step = synchronize_transitions(
            current, SyncRecipe(new_name, expression, prune=True), bound
        )
        total = step if total is None else compose_functors(step, total)

    if total is None:
        total = identity_functor(current.presentation)
    return BoundaryComposition(
        net=current,
        merged=pushout.net,
        functor=total,
        firing_vectors=tuple(vectors),
    )


@dataclass(frozen=True)
class RenameMap:
    """Injection of one coproduct summand: old name -> new name."""

    places: tuple[tuple[str, str], ...]
    transitions: tuple[tuple[str, str], ...]

    def place(self, name: str) -> str:
        return dict(self.places)[name]

    def transition(self, name: str) -> str:
        return dict(self.transitions)[name]


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name = name + "'"
    return name


def _rename_side(ms: Multiset, renaming: Mapping[str, str]) -> Multiset:
    return Multiset.from_counts({renaming[n]: count for n, count in ms.entries})


def net_coproduct(m: PetriNet, n: PetriNet) -> tuple[PetriNet, RenameMap, RenameMap]:
    """Disjoint union of nets; colliding names on the right gain a prime."""
    place_map_m = {p: p for p in m.places}
    taken = set(m.places)
    place_map_n: dict[str, str] = {}
    for p in n.places:
        fresh = _fresh(p, taken)
        place_map_n[p] = fresh
        taken.add(fresh)

    trans_map_m = {t.name: t.name for t in m.transitions}
    taken_t = {t.name for t in m.transitions}
    trans_map_n: dict[str, str] = {}
    for t in n.transitions:
        fresh = _fresh(t.name, taken_t)
        trans_map_n[t.name] = fresh
        taken_t.add(fresh)

    places = tuple(m.places) + tuple(place_map_n[p] for p in n.places)
    transitions = tuple(m.transitions) + tuple(
        Transition(trans_map_n[t.name], _rename_side(t.pre, place_map_n), _rename_side(t.post, place_map_n))
        for t in n.transitions
    )
    net = PetriNet(places, transitions)
    iota1 = RenameMap(tuple(place_map_m.items()), tuple(trans_map_m.items()))
    iota2 = RenameMap(
        tuple((p, place_map_n[p]) for p in n.places),
        tuple((t.name, trans_map_n[t.name]) for t in n.transitions),
    )
    return net, iota1, iota2


def _copair_folds(
    left: Fold, right: Fold, iota1: StrictFunctor, iota2: StrictFunctor
) -> Fold:
    """Copair two folds along the coproduct injections ``iota1``, ``iota2``."""
    coproduct = iota1.target
    if isinstance(left, TerminalFold):
        return TerminalFold(coproduct)
    if isinstance(left, PairFold):
        return PairFold(
            _copair_folds(left.left, right.left, iota1, iota2),
            _copair_folds(left.right, right.right, iota1, iota2),
        )
    object_map: dict[str, Word] = {}
    morphism_map: dict[str, MorphismTerm] = {}
    for iota, fold in ((iota1, left), (iota2, right)):
        for old, (new,) in iota.object_map.items():
            object_map[new] = fold.functor.object_map[old]
        for old, image in iota.morphism_map.items():
            morphism_map[image.name] = fold.functor.morphism_map[old]
    return FreeFold(StrictFunctor(coproduct, left.functor.target, object_map, morphism_map))


def monoidal_product(
    m_sem: NetWithSemantics, n_sem: NetWithSemantics
) -> tuple[NetWithSemantics, StrictFunctor, StrictFunctor]:
    """Place two nets side by side; the fold is the copairing."""
    if m_sem.semantics != n_sem.semantics:
        raise SemanticsMismatchError("nets carry different semantics")
    coproduct, rename1, rename2 = net_coproduct(m_sem.net, n_sem.net)
    iota1, iota2 = (
        StrictFunctor(
            source=summand.presentation,
            target=coproduct.presentation,
            object_map={old: (new,) for old, new in rename.places},
            morphism_map={old: Gen(new) for old, new in rename.transitions},
        )
        for summand, rename in ((m_sem, rename1), (n_sem, rename2))
    )
    fold = _copair_folds(m_sem.fold, n_sem.fold, iota1, iota2)
    return NetWithSemantics(coproduct, fold), iota1, iota2
