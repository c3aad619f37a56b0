"""Petri nets with well-ordered places and their monoidal presentations.

The declaration order of ``places`` is the well-order used everywhere a
multiset has to be linearized into a word.  All values are immutable;
every operation is a pure function.  Constructions whose maps are
functors, the coproduct among them, live in :mod:`petriglue.gluing`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Mapping

from .errors import UnknownGeneratorError, UnknownPlaceError, ValidationError

#: A word over object generators; the empty tuple is the monoidal unit.
Word = tuple[str, ...]


@dataclass(frozen=True)
class Multiset:
    """Finite multiset of place names; absence encodes count zero.

    >>> Multiset.from_counts({"A": 2, "C": 1}).total()
    3
    """

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValidationError("multiset entries must be name-sorted and unique")
        for name, count in self.entries:
            if count < 1:
                raise ValidationError(f"multiset count for {name!r} must be >= 1")

    @classmethod
    def empty(cls) -> Multiset:
        return cls(())

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> Multiset:
        """Nonzero counts, sorted and unique by construction: checked only below 1."""
        entries = tuple(sorted(counts.items()))
        if entries and min(counts.values()) < 1:
            return cls(tuple(entry for entry in entries if entry[1] != 0))
        return _built(cls, entries)

    @classmethod
    def of_word(cls, word: Iterable[str]) -> Multiset:
        counts: dict[str, int] = {}
        for letter in word:
            counts[letter] = counts.get(letter, 0) + 1
        return cls.from_counts(counts)

    @cached_property
    def _counts(self) -> dict[str, int]:
        return dict(self.entries)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def total(self) -> int:
        return sum(count for _, count in self.entries)

    def to_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass(frozen=True)
class Transition:
    name: str
    pre: Multiset
    post: Multiset


@dataclass(frozen=True)
class PetriNet:
    """A net: ordered places plus transitions with pre/post multisets."""

    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if len(set(self.places)) != len(self.places):
            raise ValidationError("place names must be pairwise distinct")
        names = [t.name for t in self.transitions]
        if len(set(names)) != len(names):
            raise ValidationError("transition names must be pairwise distinct")
        declared = set(self.places)
        for t in self.transitions:
            for side in (t.pre, t.post):
                for place, _ in side.entries:
                    if place not in declared:
                        raise UnknownPlaceError(
                            f"transition {t.name!r} refers to undeclared place {place!r}"
                        )

    @cached_property
    def presentation(self) -> SmcPresentation:
        """The net's free SMC, ``free_smc(self)``, built once per net."""
        return free_smc(self)

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise UnknownGeneratorError(f"no transition named {name!r}")


@dataclass(frozen=True)
class MorphismGenerator:
    name: str
    dom: Word
    cod: Word


@dataclass(frozen=True)
class SmcPresentation:
    """Generating data of a free symmetric strict monoidal category.

    ``object_rank`` (object to its position in ``objects``, the order
    every word is sorted by) and ``morphism_index`` (name to generator)
    are built once, at construction, and take no part in equality.
    """

    objects: tuple[str, ...]
    morphisms: tuple[MorphismGenerator, ...]
    object_rank: dict[str, int] = field(init=False, repr=False, compare=False)
    morphism_index: dict[str, MorphismGenerator] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_rank", {o: i for i, o in enumerate(self.objects)})
        object.__setattr__(self, "morphism_index", {m.name: m for m in self.morphisms})
        if len(self.object_rank) != len(self.objects):
            raise ValidationError("object generator names must be distinct")
        if len(self.morphism_index) != len(self.morphisms):
            raise ValidationError("morphism generator names must be distinct")
        for m in self.morphisms:
            for letter in m.dom + m.cod:
                if letter not in self.object_rank:
                    raise UnknownPlaceError(
                        f"generator {m.name!r} uses undeclared object {letter!r}"
                    )

    def morphism(self, name: str) -> MorphismGenerator:
        gen = self.morphism_index.get(name)
        if gen is None:
            raise UnknownGeneratorError(f"no morphism generator named {name!r}")
        return gen


def free_smc(net: PetriNet) -> SmcPresentation:
    """Present the category of executions of a net.

    Places become object generators in declaration order; each transition
    becomes a morphism generator between the linearized pre and post sets.
    """
    position = {place: i for i, place in enumerate(net.places)}

    def word(ms: Multiset) -> Word:
        entries = sorted(ms.entries, key=lambda entry: position[entry[0]])
        return tuple(place for place, count in entries for _ in range(count))

    morphisms = tuple(MorphismGenerator(t.name, word(t.pre), word(t.post)) for t in net.transitions)
    return SmcPresentation(net.places, morphisms)


def _built(cls, *fields, **cached):
    """An instance of the frozen dataclass ``cls`` made from parts that are
    already checked, without running its ``__post_init__``.

    ``fields`` go in declaration order; ``cached`` seeds cached properties
    such as ``PetriNet.presentation``.  This is the one construction that
    skips the checks.  Never use it for :class:`SmcPresentation`, whose
    ``init=False`` fields are computed in ``__post_init__``.
    """
    value = object.__new__(cls)
    # Set one attribute at a time: reading ``__dict__`` would make every
    # later attribute read of the value slower.
    for name, part in zip(cls.__dataclass_fields__, fields, strict=True):
        object.__setattr__(value, name, part)
    for name, part in cached.items():
        object.__setattr__(value, name, part)
    return value


def net_of_presentation(sig: SmcPresentation) -> PetriNet:
    """Forget word order: every generator becomes a transition.

    A checked presentation makes a valid net.  When every word of ``sig``
    is sorted by its object order, ``sig`` is the net's presentation.
    """
    transitions = tuple(
        Transition(m.name, Multiset.of_word(m.dom), Multiset.of_word(m.cod))
        for m in sig.morphisms
    )
    rank = sig.object_rank
    words = [word for m in sig.morphisms for word in (m.dom, m.cod)]
    ordered = all(rank[a] <= rank[b] for w in words for a, b in pairwise(w))
    return _built(PetriNet, sig.objects, transitions, **({"presentation": sig} if ordered else {}))


def prune_isolated_places(net: PetriNet) -> tuple[PetriNet, tuple[str, ...]]:
    """Drop places that no transition consumes from or produces to."""
    used: set[str] = set()
    for t in net.transitions:
        used.update(t.pre.names())
        used.update(t.post.names())
    removed = tuple(p for p in net.places if p not in used)
    survivors = tuple(p for p in net.places if p in used)
    return _built(PetriNet, survivors, net.transitions), removed


def presentations_isomorphic(p: SmcPresentation, q: SmcPresentation) -> bool:
    """Decide presentation isomorphism by exhaustive matching.

    An isomorphism is a pair of bijections on object and morphism
    generators such that every generator's dom/cod multisets correspond.
    Word order is not compared: an invertible transition-preserving
    functor may reorder letters by symmetries.
    """
    if len(p.objects) != len(q.objects) or len(p.morphisms) != len(q.morphisms):
        return False

    def profile(sig: SmcPresentation, obj: str) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((m.dom.count(obj), m.cod.count(obj)) for m in sig.morphisms))

    p_profiles = {o: profile(p, o) for o in p.objects}
    q_profiles = {o: profile(q, o) for o in q.objects}
    candidates = {
        o: [o2 for o2 in q.objects if q_profiles[o2] == p_profiles[o]] for o in p.objects
    }
    if any(not c for c in candidates.values()):
        return False

    def match_morphisms(obj_map: dict[str, str]) -> bool:
        remaining = list(q.morphisms)
        for m in p.morphisms:
            dom = Multiset.of_word(tuple(obj_map[letter] for letter in m.dom))
            cod = Multiset.of_word(tuple(obj_map[letter] for letter in m.cod))
            for i, cand in enumerate(remaining):
                if Multiset.of_word(cand.dom) == dom and Multiset.of_word(cand.cod) == cod:
                    del remaining[i]
                    break
            else:
                return False
        return True

    def assign(i: int, obj_map: dict[str, str], used: set[str]) -> bool:
        if i == len(p.objects):
            return match_morphisms(obj_map)
        obj = p.objects[i]
        for target in candidates[obj]:
            if target in used:
                continue
            obj_map[obj] = target
            if assign(i + 1, obj_map, used | {target}):
                return True
            del obj_map[obj]
        return False

    return assign(0, {}, set())
