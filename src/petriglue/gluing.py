"""Composition algebra on nets with semantics.

Synchronizations conflate transitions into single events whose meaning
is the composite of the parts; identifications merge places and
transitions that carry equal semantics, computed as coequalizers of
transition-preserving functors.  Coproducts, pushout gluing and
two-stage boundary composition are derived from those two primitives;
a coproduct's injections are the renaming functors of its summands.

Quotient classes are named by their order-minimal member, and every
sorting symmetry introduced when words are re-linearized is
materialized explicitly in generator images, keeping all functors
strict on the nose.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BoundaryOrientationError,
    BudgetExceededError,
    EmptyDecompositionError,
    PreconditionFailedError,
    SamePlaceError,
    SemanticsMismatchError,
    SemanticsObstructionError,
    SourceMismatchError,
    UnknownGeneratorError,
    UnknownPlaceError,
    ValidationError,
    VerdictFailedError,
    WellDefinednessError,
)
from .fssmc import (
    Gen,
    Id,
    MorphismTerm,
    Perm,
    Tensor,
    alignment_permutation,
    apply_perm,
    block_permutation,
    compose_terms,
    decomposition,
    identity_perm,
    invert_perm,
    sorting_permutation,
    tensor_terms,
    typecheck,
)
from .functors import (
    CounterexampleFound,
    StrictFunctor,
    apply_functor,
    check_faithful_bounded,
    compose_functors,
    identity_functor,
    is_generator_preserving_on_objects,
    is_transition_preserving,
    uncovered_target_generators,
)
from .net_model import (
    Multiset,
    MorphismGenerator,
    PetriNet,
    SmcPresentation,
    Transition,
    Word,
    _built,
    net_of_presentation,
    prune_isolated_places,
)
from .semantics import (
    Fold,
    FreeFold,
    FreeSmc,
    NetWithSemantics,
    PairFold,
    TerminalFold,
    commutes_with_semantics,
    sem_equal,
    terminal_net,
)


@dataclass(frozen=True)
class SyncRecipe:
    """How to conflate transitions: a name and the composite they become."""

    new_name: str
    expression: MorphismTerm
    prune: bool = False


@dataclass(frozen=True)
class ConditionFailure:
    condition: str
    detail: str
    certificate: tuple = ()


@dataclass(frozen=True)
class Verdict:
    """Outcome of a checked definition, with one entry per failed condition."""

    failures: tuple[ConditionFailure, ...]
    faithfulness_bound: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Witness:
    """A net selecting components to identify, via two pattern functors."""

    net: PetriNet
    left: StrictFunctor
    right: StrictFunctor

    def __post_init__(self) -> None:
        for name, functor in (("left", self.left), ("right", self.right)):
            if functor.source != self.net.presentation:
                raise PreconditionFailedError(
                    f"{name} witness functor is not defined on the witness net"
                )
            if not is_generator_preserving_on_objects(functor):
                raise PreconditionFailedError(
                    f"{name} witness functor must send places to places"
                )
            if not is_transition_preserving(functor):
                raise PreconditionFailedError(
                    f"{name} witness functor must be transition-preserving"
                )
        if self.left.target != self.right.target:
            raise PreconditionFailedError("witness functors must share their target")


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


# ---------------------------------------------------------------------------
# Synchronizations

def _definition_conditions(functor: StrictFunctor, bound: int) -> list[ConditionFailure]:
    failures: list[ConditionFailure] = []
    if not is_generator_preserving_on_objects(functor):
        failures.append(
            ConditionFailure(
                "generator_preserving_on_objects",
                "some object generator is sent to a non-generator word",
            )
        )
        return failures
    images = [functor.map_object(obj) for obj in functor.source.objects]
    if len(set(images)) < len(images):
        failures.append(
            ConditionFailure(
                "injective_on_object_generators",
                "two object generators share an image",
            )
        )
    verdict = check_faithful_bounded(functor, bound)
    if isinstance(verdict, CounterexampleFound):
        failures.append(
            ConditionFailure(
                "faithful",
                f"distinct parallel morphisms collapse at bound {bound}",
                (verdict.left, verdict.right),
            )
        )
    uncovered = uncovered_target_generators(functor)
    if uncovered:
        failures.append(
            ConditionFailure(
                "covers_all_target_generators",
                f"target generators never used: {', '.join(uncovered)}",
                uncovered,
            )
        )
    return failures


def is_synchronization(
    functor: StrictFunctor,
    src: NetWithSemantics,
    tgt: NetWithSemantics,
    bound: int = 3,
) -> Verdict:
    """Check the synchronization conditions plus semantics commutation."""
    if src.semantics != tgt.semantics:
        raise SemanticsMismatchError("source and target carry different semantics")
    if functor.source != src.presentation or functor.target != tgt.presentation:
        raise SourceMismatchError("functor does not run between the given nets")
    failures = _definition_conditions(functor, bound)
    if not commutes_with_semantics(functor, src, tgt):
        failures.append(
            ConditionFailure(
                "commutes_with_semantics",
                "source fold differs from functor followed by target fold",
            )
        )
    return Verdict(tuple(failures), bound)


def make_synchronization(
    tgt: NetWithSemantics,
    source_net: PetriNet,
    functor: StrictFunctor,
    bound: int = 3,
) -> NetWithSemantics:
    """Equip a conflated net with the semantics induced along the functor.

    The commutation condition then holds by construction; the remaining
    synchronization conditions are verified and failures are fatal.
    """
    if functor.source != source_net.presentation or functor.target != tgt.presentation:
        raise SourceMismatchError("functor does not run between the given nets")
    failures = _definition_conditions(functor, bound)
    if failures:
        raise VerdictFailedError(
            "; ".join(f"{f.condition}: {f.detail}" for f in failures),
            Verdict(tuple(failures), bound),
        )
    return NetWithSemantics(source_net, tgt.fold.after(functor))


def synchronize_transitions(
    net_sem: NetWithSemantics, recipe: SyncRecipe, bound: int = 3
) -> tuple[NetWithSemantics, StrictFunctor]:
    """Replace the transitions used by an expression with one new event.

    The new transition consumes and produces the boundary multisets of
    the expression; the emitted functor sends it to the expression and
    every surviving generator to itself.
    """
    sig = net_sem.presentation
    dom, cod = typecheck(recipe.expression, sig)
    conflated = decomposition(recipe.expression)
    if not conflated:
        raise EmptyDecompositionError("expression must use at least one generator")
    survivors = tuple(t for t in net_sem.net.transitions if t.name not in conflated)
    new_transition = Transition(
        recipe.new_name, Multiset.of_word(dom), Multiset.of_word(cod)
    )
    merged = PetriNet(net_sem.net.places, survivors + (new_transition,))
    if recipe.prune:
        merged, _ = prune_isolated_places(merged)

    merged_sig = merged.presentation
    new_gen = merged_sig.morphism(recipe.new_name)
    morphism_map: dict[str, MorphismTerm] = {t.name: Gen(t.name) for t in survivors}
    morphism_map[recipe.new_name] = _conjugate(
        recipe.expression, dom, cod, new_gen.dom, new_gen.cod
    )
    # Strict by construction: survivors keep their words, since places
    # keep their order, and the event is the conjugated expression.
    functor = _built(StrictFunctor, merged_sig, sig, {p: (p,) for p in merged.places}, morphism_map)
    return make_synchronization(net_sem, merged, functor, bound), functor


# ---------------------------------------------------------------------------
# Identifications

class _UnionFind:
    """Classes of ``items``, each named by its first member in ``items``."""

    def __init__(self, items: Sequence[str]) -> None:
        self.parent = {item: item for item in items}
        self.order = {item: i for i, item in enumerate(items)}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        keep, drop = (ra, rb) if self.order[ra] <= self.order[rb] else (rb, ra)
        self.parent[drop] = keep


def coequalize_tp(
    first: StrictFunctor, second: StrictFunctor
) -> tuple[SmcPresentation, StrictFunctor]:
    """Coequalizer of two transition-preserving, place-preserving functors.

    Object and morphism generators of the target are quotiented by the
    relations the two functors generate; each class is named by its
    order-minimal member and its boundaries are the re-sorted class
    images, with the sorting symmetries recorded in the coequalizing
    functor's generator images.
    """
    if first.source != second.source or first.target != second.target:
        raise SourceMismatchError("coequalized functors must be parallel")
    for functor in (first, second):
        if not is_generator_preserving_on_objects(functor):
            raise PreconditionFailedError("functors must send places to places")
        if not is_transition_preserving(functor):
            raise PreconditionFailedError("functors must be transition-preserving")
    return _coequalize(first, second)


def _coequalize(first: StrictFunctor, second: StrictFunctor) -> tuple[SmcPresentation, StrictFunctor]:
    """:func:`coequalize_tp` on a pair that a :class:`Witness` has checked."""
    target = first.target
    objects = _UnionFind(target.objects)
    for obj in first.source.objects:
        objects.union(first.map_object(obj)[0], second.map_object(obj)[0])

    morphisms = _UnionFind([m.name for m in target.morphisms])
    for gen in first.source.morphisms:
        # Transition-preserving images hold exactly one generator each.
        (left_gen,) = decomposition(first.morphism_map[gen.name])
        (right_gen,) = decomposition(second.morphism_map[gen.name])
        morphisms.union(left_gen, right_gen)

    quotient, coequalizer = _quotient(target, objects.find, morphisms.find)
    for gen in first.source.morphisms:
        left_image = apply_functor(coequalizer, first.morphism_map[gen.name])
        right_image = apply_functor(coequalizer, second.morphism_map[gen.name])
        if not sem_equal(FreeSmc(quotient), left_image, right_image):
            raise PreconditionFailedError(
                f"the two images of {gen.name!r} twist merged generators "
                "against each other; the coequalizer of this pair is not a "
                "free quotient of the target"
            )
    return quotient, coequalizer


def _quotient(
    target: SmcPresentation, object_class: Callable[[str], str], morphism_class: Callable[[str], str]
) -> tuple[SmcPresentation, StrictFunctor]:
    """Quotient of ``target`` by generator classes, and the quotient functor.

    Each class is named by a member, a morphism class by its first member
    in ``target``.  Class boundaries are sorted by the target's object
    order, and each image wraps its class in the symmetries back to its
    own class words; a member whose sorted boundaries differ is refused.
    """
    rank = target.object_rank.__getitem__
    boundaries: dict[str, tuple[Word, Word]] = {}
    morphism_map: dict[str, MorphismTerm] = {}
    for gen in target.morphisms:
        rep = morphism_class(gen.name)
        dom, cod = tuple(map(object_class, gen.dom)), tuple(map(object_class, gen.cod))
        sorted_boundaries = (tuple(sorted(dom, key=rank)), tuple(sorted(cod, key=rank)))
        if rep == gen.name:
            boundaries[rep] = sorted_boundaries
        elif boundaries[rep] != sorted_boundaries:
            raise PreconditionFailedError(
                f"the functors merge {gen.name!r} into {rep!r}, whose boundaries "
                "differ; the coequalizer of this pair is not a free quotient of "
                "the target"
            )
        morphism_map[gen.name] = _conjugate(Gen(rep), *boundaries[rep], dom, cod)
    object_map = {o: (object_class(o),) for o in target.objects}
    quotient_objects = tuple(o for o, (cls,) in object_map.items() if cls == o)
    morphisms = tuple(MorphismGenerator(rep, *words) for rep, words in boundaries.items())
    quotient = SmcPresentation(quotient_objects, morphisms)
    return quotient, _built(StrictFunctor, target, quotient, object_map, morphism_map)


def merge_two_places(
    sig: SmcPresentation, keep: str, drop: str
) -> tuple[SmcPresentation, StrictFunctor]:
    """Identify two places directly: drop one, rename its occurrences.

    The quotient :func:`coequalize_tp` builds for the one-place witness,
    with the class named ``keep``.
    """
    if keep == drop:
        raise SamePlaceError("cannot merge a place with itself")
    for name in (keep, drop):
        if name not in sig.object_rank:
            raise UnknownGeneratorError(f"unknown object generator {name!r}")
    return _quotient(sig, lambda o: keep if o == drop else o, lambda m: m)


def factor_fold_through_coequalizer(coequalizer: StrictFunctor, fold: Fold) -> Fold:
    """Induce a fold on the quotient, checking it is single-valued.

    Each morphism class must be named by one of its members, as it is in
    :func:`coequalize_tp` (the order-minimal one) and
    :func:`merge_two_places` (``keep``): quotient generator ``q`` then
    stands for the source generator of the same name.  It takes its fold
    image, conjugated by the block symmetries of the stable sort of its
    class boundaries; all other members must agree up to backend equality.
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
    if not is_generator_preserving_on_objects(coequalizer):
        raise PreconditionFailedError("the coequalizer must send places to places")

    source = coequalizer.source
    quotient = coequalizer.target
    carrier = fold.functor
    object_map: dict[str, Word] = {}
    for o in source.objects:
        (cls,) = coequalizer.map_object(o)
        if object_map.setdefault(cls, carrier.map_object(o)) != carrier.map_object(o):
            raise WellDefinednessError(
                f"merged places {cls!r} and {o!r} carry different semantics objects"
            )

    morphism_map: dict[str, MorphismTerm] = {}
    for gen in quotient.morphisms:
        rep = source.morphism(gen.name)
        dom_sort = sorting_permutation(coequalizer.map_word(rep.dom), quotient.object_rank)
        cod_sort = sorting_permutation(coequalizer.map_word(rep.cod), quotient.object_rank)
        dom_sizes = [len(carrier.map_object(letter)) for letter in rep.dom]
        cod_sizes = [len(carrier.map_object(letter)) for letter in rep.cod]
        pre = block_permutation([dom_sizes[i] for i in dom_sort], invert_perm(dom_sort))
        post = block_permutation(cod_sizes, cod_sort)
        parts: list[MorphismTerm] = []
        if pre != identity_perm(len(pre)):
            parts.append(Perm(carrier.map_word(apply_perm(rep.dom, dom_sort)), pre))
        parts.append(carrier.morphism_map[rep.name])
        if post != identity_perm(len(post)):
            parts.append(Perm(carrier.map_word(rep.cod), post))
        morphism_map[gen.name] = compose_terms(parts)

    induced = FreeFold(_built(StrictFunctor, quotient, carrier.target, object_map, morphism_map))
    handle = fold.semantics
    for gen in source.morphisms:
        expected = fold.morphism_image(gen.name)
        actual = induced.term_image(coequalizer.morphism_map[gen.name])
        if not sem_equal(handle, expected, actual):
            raise WellDefinednessError(
                f"induced fold disagrees with the original on {gen.name!r}"
            )
    return induced


def identify(
    net_sem: NetWithSemantics, witness: Witness
) -> tuple[NetWithSemantics, StrictFunctor]:
    """Merge the components a witness pairs, when their semantics agree.

    The quotient is the coequalizer of the witness's two functors, with
    or without witness transitions; the result fold is the one induced
    on quotient classes.
    """
    sig = net_sem.presentation
    if witness.left.target != sig:
        raise SourceMismatchError("witness functors do not land in the given net")
    fold = net_sem.fold
    witness_sig = witness.left.source
    for obj in witness_sig.objects:
        left_obj = witness.left.map_object(obj)[0]
        right_obj = witness.right.map_object(obj)[0]
        if fold.object_image(left_obj) != fold.object_image(right_obj):
            raise SemanticsObstructionError(
                f"witness place {obj!r} pairs places with different semantics: "
                f"{left_obj!r} vs {right_obj!r}"
            )
    handle = fold.semantics
    for gen in witness_sig.morphisms:
        left_image = fold.term_image(witness.left.morphism_map[gen.name])
        right_image = fold.term_image(witness.right.morphism_map[gen.name])
        if not sem_equal(handle, left_image, right_image):
            raise SemanticsObstructionError(
                f"witness transition {gen.name!r} pairs transitions "
                "with different semantics"
            )

    quotient, coequalizer = _coequalize(witness.left, witness.right)
    induced = factor_fold_through_coequalizer(coequalizer, fold)
    result = NetWithSemantics(net_of_presentation(quotient), induced)
    return result, coequalizer


# ---------------------------------------------------------------------------
# Coproducts and gluing between nets

def _fresh(name: str, taken: set[str]) -> str:
    """Prime ``name`` until it is not in ``taken``, then record it there."""
    while name in taken:
        name = name + "'"
    taken.add(name)
    return name


def net_coproduct(
    m: PetriNet, n: PetriNet
) -> tuple[PetriNet, StrictFunctor, StrictFunctor]:
    """Disjoint union of nets; colliding names on the right gain a prime.

    The place order is m's order followed by n's.  The injections are the
    renaming functors from each summand's presentation into the
    coproduct's: each place goes to one place and each transition to the
    ``Gen`` of one transition, and together they are jointly surjective.
    """
    taken = set(m.places)
    place_map = {p: _fresh(p, taken) for p in n.places}
    taken = {t.name for t in m.transitions}
    name_map = {t.name: _fresh(t.name, taken) for t in n.transitions}

    def rename(ms: Multiset) -> Multiset:
        return Multiset.from_counts({place_map[p]: count for p, count in ms.entries})

    def rename_word(word: Word) -> Word:
        return tuple(map(place_map.__getitem__, word))

    places = tuple(m.places) + tuple(place_map.values())
    transitions = tuple(m.transitions) + tuple(
        Transition(name_map[t.name], rename(t.pre), rename(t.post)) for t in n.transitions
    )
    # n's places follow m's in their own order, so renaming keeps every
    # word sorted: the presentation is m's followed by n's, renamed.  The
    # transitions are renamed too, as rebuilding them all from it costs more.
    renamed = tuple(
        MorphismGenerator(name_map[g.name], rename_word(g.dom), rename_word(g.cod))
        for g in n.presentation.morphisms
    )
    sig = SmcPresentation(places, m.presentation.morphisms + renamed)
    net = _built(PetriNet, places, transitions, presentation=sig)
    iota1, iota2 = (
        _built(
            StrictFunctor,
            summand.presentation,
            net.presentation,
            {old: (new,) for old, new in places.items()},
            {old: Gen(new) for old, new in names.items()},
        )
        for summand, places, names in (
            (m, {p: p for p in m.places}, {t.name: t.name for t in m.transitions}),
            (n, place_map, name_map),
        )
    )
    return net, iota1, iota2


def _copair_folds(
    left: Fold, right: Fold, iota1: StrictFunctor, iota2: StrictFunctor
) -> Fold:
    """Copair two folds along the coproduct injections ``iota1``, ``iota2``.

    The folds carry equal semantics, so they have the same shape.
    """
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
    return FreeFold(_built(StrictFunctor, coproduct, left.functor.target, object_map, morphism_map))


def monoidal_product(
    m_sem: NetWithSemantics, n_sem: NetWithSemantics
) -> tuple[NetWithSemantics, StrictFunctor, StrictFunctor]:
    """Place two nets side by side; the fold is the copairing."""
    if m_sem.semantics != n_sem.semantics:
        raise SemanticsMismatchError("nets carry different semantics")
    coproduct, iota1, iota2 = net_coproduct(m_sem.net, n_sem.net)
    fold = _copair_folds(m_sem.fold, n_sem.fold, iota1, iota2)
    return NetWithSemantics(coproduct, fold), iota1, iota2


@dataclass(frozen=True)
class PushoutResult:
    net: NetWithSemantics
    coequalizer: StrictFunctor
    left_leg: StrictFunctor
    right_leg: StrictFunctor
    product: NetWithSemantics


def pushout_glue(
    m_sem: NetWithSemantics,
    n_sem: NetWithSemantics,
    witness_net: PetriNet,
    left: StrictFunctor,
    right: StrictFunctor,
) -> PushoutResult:
    """Glue two nets along a witness: coequalize on their coproduct."""
    product, iota1, iota2 = monoidal_product(m_sem, n_sem)
    if left.target != m_sem.presentation or right.target != n_sem.presentation:
        raise SourceMismatchError("witness functors do not land in the given nets")
    witness = Witness(
        witness_net,
        compose_functors(left, iota1),
        compose_functors(right, iota2),
    )
    result, coequalizer = identify(product, witness)
    return PushoutResult(
        net=result,
        coequalizer=coequalizer,
        left_leg=compose_functors(iota1, coequalizer),
        right_leg=compose_functors(iota2, coequalizer),
        product=product,
    )


# ---------------------------------------------------------------------------
# Boundary composition

#: Most tokens one synchronized event may move, which is also the number
#: of wires in its diagram.  Below it the balance search settles at most
#: about twice as many states.
FIRING_FLOW_LIMIT = 500_000


def minimal_firing_vector(
    producers: Sequence[tuple[str, int]], consumers: Sequence[tuple[str, int]]
) -> dict[str, int]:
    """Balance token flow with the fewest total firings, all at least one;
    ties go to the lexicographically smallest counts, producers first.

    Dijkstra over token balances (produced minus consumed), starting
    from every transition firing once: a negative balance fires a
    producer, a positive one a consumer.  A path costs ``(total, n_1,
    ..., n_k)`` in lexicographic order, which every step raises and
    translation preserves, so the first balance 0 settled is the answer.
    Every balanced multiset of firings can be fired in that sign order,
    so none is missed, and balances stay between ``min(d0, 1 - max
    consumed)`` and ``max(d0, max produced)``.  Raises
    :class:`BudgetExceededError` when the answer moves more than
    :data:`FIRING_FLOW_LIMIT` tokens, before searching when firing each
    transition once already does.

    >>> minimal_firing_vector([("f", 1)], [("h", 2), ("k", 1)])
    {'f': 3, 'h': 1, 'k': 1}
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
    least_flow = max(sum(produced), sum(consumed))
    if least_flow > FIRING_FLOW_LIMIT:
        raise BudgetExceededError(
            f"the event moves at least {least_flow} tokens, more than {FIRING_FLOW_LIMIT}"
        )
    # A move is (position in the cost tuple, change of balance).
    raises = [(1 + i, amount) for i, amount in enumerate(produced)]
    lowers = [(1 + len(produced) + j, -amount) for j, amount in enumerate(consumed)]
    heap = [((len(names),) + (1,) * len(names), sum(produced) - sum(consumed))]
    settled = set()
    while True:
        cost, balance = heapq.heappop(heap)
        if balance == 0:
            break
        if balance in settled:
            continue
        settled.add(balance)
        for position, change in raises if balance < 0 else lowers:
            if balance + change not in settled:
                step = list(cost)
                step[0] += 1
                step[position] += 1
                heapq.heappush(heap, (tuple(step), balance + change))
    counts = cost[1:]
    flow = sum(n * amount for n, amount in zip(counts, produced))
    if flow > FIRING_FLOW_LIMIT:
        raise BudgetExceededError(
            f"the event moves {flow} tokens, more than {FIRING_FLOW_LIMIT}"
        )
    return dict(zip(names, counts))


@dataclass(frozen=True)
class BoundaryComposition:
    """Result of two-stage composition, kept with its audit trail."""

    net: NetWithSemantics
    merged: NetWithSemantics
    functor: StrictFunctor
    firing_vectors: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]


def _synchronization_expression(
    sig: SmcPresentation,
    boundary: str,
    producer_counts: Sequence[tuple[str, int]],
    consumer_counts: Sequence[tuple[str, int]],
) -> MorphismTerm:
    """The conflated event: producers, a canonical routing, consumers.

    Boundary tokens flow from producer outputs to consumer inputs in
    order; non-boundary producer outputs ride along on identities, and
    consumer inputs outside the boundary enter as extra identities on
    the producer side.
    """
    producer_term, consumer_term = (
        tensor_terms([Gen(name) for name, count in counts for _ in range(count)])
        for counts in (producer_counts, consumer_counts)
    )
    out_word = typecheck(producer_term, sig)[1]
    need_word = typecheck(consumer_term, sig)[0]
    out_rest = tuple(letter for letter in out_word if letter != boundary)
    need_rest = tuple(letter for letter in need_word if letter != boundary)

    def tagged(word: Word, tag: str) -> list[tuple[str, str]]:
        return [("boundary" if letter == boundary else tag, letter) for letter in word]

    # Letters are matched by tag and in order: boundary tokens cross the
    # cut, extra inputs reach the consumers and the rest passes by.
    route = alignment_permutation(
        tagged(out_word, "rest") + tagged(need_rest, "extra"),
        tagged(need_word, "extra") + tagged(out_rest, "rest"),
    )
    parts: list[MorphismTerm] = [
        producer_term if not need_rest else Tensor(producer_term, Id(need_rest))
    ]
    if route != identity_perm(len(route)):
        parts.append(Perm(out_word + need_rest, route))
    parts.append(consumer_term if not out_rest else Tensor(consumer_term, Id(out_rest)))
    return compose_terms(parts)


def boundary_compose(
    left_sem: NetWithSemantics,
    right_sem: NetWithSemantics,
    pairing: Sequence[tuple[str, str]],
    bound: int = 3,
) -> BoundaryComposition:
    """Compose nets along paired places: merge, then synchronize.

    Stage one identifies each paired place pair on the coproduct, left
    places keeping their names.  Stage two conflates, for every merged
    place, its producers and consumers with the minimal balanced firing
    counts; producers must all come from the left net and consumers from
    the right one.  Each step prunes every place no transition touches:
    the merged place, and any place of either net that none used to begin
    with.  The steps run under the trivial semantics, so none of them
    composes a fold: the merged net's fold is carried once along the
    total functor, which strict functors compose to the same fold on the
    nose.
    """
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

    product, _, iota2 = monoidal_product(left_sem, right_sem)
    # The witness's places are fresh and its patterns send them to checked
    # places, one each: nothing here needs checking again.
    witness_net = _built(PetriNet, tuple(f"b{i}" for i in range(len(pairing))), ())

    def pattern(images: list[Word]) -> StrictFunctor:
        object_map = dict(zip(witness_net.places, images))
        return _built(StrictFunctor, witness_net.presentation, product.presentation, object_map, {})

    witness = _built(
        Witness,
        witness_net,
        pattern([(lp,) for lp, _ in pairing]),
        pattern([iota2.map_object(rp) for _, rp in pairing]),
    )
    merged, coequalizer = identify(product, witness)

    current = terminal_net(merged.net)
    total = identity_functor(current.presentation)
    vectors: list[tuple[str, tuple[tuple[str, int], ...]]] = []
    for left_place, _ in pairing:
        (merged_place,) = coequalizer.map_object(left_place)
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
        counts = minimal_firing_vector(producers, consumers)
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
        total = compose_functors(step, total)

    return BoundaryComposition(
        net=NetWithSemantics(current.net, merged.fold.after(total)),
        merged=merged,
        functor=total,
        firing_vectors=tuple(vectors),
    )
