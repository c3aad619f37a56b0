"""Semantics backends, folds, morphism equality and semantics transport.

A semantics is a symmetric monoidal category a net's executions are
mapped into.  Three backends ship: a free category given by a
presentation, the terminal category, and binary products of backends.
Presentations with extra equations are rejected at document load time;
their word problem is undecidable in general.

A fold assigns a semantics to a net: it maps the generators of the
net's presentation into the backend.  Folds into a product are stored
and compared componentwise, so the product's equality is definitionally
the conjunction of its components'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    SemanticsMismatchError,
    SourceMismatchError,
    TypeMismatchError,
    ValidationError,
)
from .fssmc import MorphismTerm, diagram_equal, to_diagram, typecheck
from .functors import StrictFunctor, apply_functor, compose_functors, identity_functor
from .net_model import PetriNet, SmcPresentation, Word


@dataclass(frozen=True)
class FreeSmc:
    """A free backend: equality is string-diagram isomorphism."""

    presentation: SmcPresentation


@dataclass(frozen=True)
class Terminal:
    """The terminal category: all parallel morphisms are equal."""


@dataclass(frozen=True)
class Product:
    """Componentwise product of two backends."""

    left: SemanticsHandle
    right: SemanticsHandle


SemanticsHandle = Union[FreeSmc, Terminal, Product]

#: Backend value of an object or morphism: a word or term for FreeSmc,
#: ``None`` for Terminal, and a pair of component values for Product.
SemValue = object


def sem_equal(handle: SemanticsHandle, first: SemValue, second: SemValue) -> bool:
    """Equality of backend morphism values; parallel inputs required.

    In a free backend, syntactically equal terms are equal once they
    typecheck; only terms that differ are compared by their diagrams.
    """
    if isinstance(handle, Terminal):
        return True
    if isinstance(handle, FreeSmc):
        if first == second:
            typecheck(first, handle.presentation)
            return True
        d1, d2 = (to_diagram(term, handle.presentation) for term in (first, second))
        if (d1.inputs, d1.outputs) != (d2.inputs, d2.outputs):
            raise TypeMismatchError("compared terms must be parallel")
        return diagram_equal(d1, d2)
    if isinstance(handle, Product):
        return sem_equal(handle.left, first[0], second[0]) and sem_equal(
            handle.right, first[1], second[1]
        )
    raise ValidationError(f"not a semantics handle: {handle!r}")


@dataclass(frozen=True)
class FreeFold:
    """Fold into a free backend, carried by a strict functor."""

    functor: StrictFunctor

    @property
    def source(self) -> SmcPresentation:
        return self.functor.source

    @property
    def semantics(self) -> SemanticsHandle:
        return FreeSmc(self.functor.target)

    def object_image(self, name: str) -> Word:
        return self.functor.map_object(name)

    def word_image(self, word: Word) -> Word:
        return self.functor.map_word(word)

    def morphism_image(self, name: str) -> MorphismTerm:
        return self.functor.morphism_map[name]

    def term_image(self, term: MorphismTerm) -> MorphismTerm:
        return apply_functor(self.functor, term)

    def after(self, functor: StrictFunctor) -> FreeFold:
        return FreeFold(compose_functors(functor, self.functor))


@dataclass(frozen=True)
class TerminalFold:
    """The unique fold into the terminal category."""

    source: SmcPresentation

    @property
    def semantics(self) -> SemanticsHandle:
        return Terminal()

    def object_image(self, name: str) -> None:
        return None

    def word_image(self, word: Word) -> None:
        return None

    def morphism_image(self, name: str) -> None:
        return None

    def term_image(self, term: MorphismTerm) -> None:
        return None

    def after(self, functor: StrictFunctor) -> TerminalFold:
        if functor.target != self.source:
            raise SourceMismatchError("functor target differs from fold source")
        return TerminalFold(functor.source)


@dataclass(frozen=True)
class PairFold:
    """Fold into a product, stored as its two component folds."""

    left: Fold
    right: Fold

    def __post_init__(self) -> None:
        if self.left.source != self.right.source:
            raise SourceMismatchError("paired folds must share their source")

    @property
    def source(self) -> SmcPresentation:
        return self.left.source

    @property
    def semantics(self) -> SemanticsHandle:
        return Product(self.left.semantics, self.right.semantics)

    def object_image(self, name: str) -> tuple[SemValue, SemValue]:
        return (self.left.object_image(name), self.right.object_image(name))

    def word_image(self, word: Word) -> tuple[SemValue, SemValue]:
        return (self.left.word_image(word), self.right.word_image(word))

    def morphism_image(self, name: str) -> tuple[SemValue, SemValue]:
        return (self.left.morphism_image(name), self.right.morphism_image(name))

    def term_image(self, term: MorphismTerm) -> tuple[SemValue, SemValue]:
        return (self.left.term_image(term), self.right.term_image(term))

    def after(self, functor: StrictFunctor) -> PairFold:
        return PairFold(self.left.after(functor), self.right.after(functor))


#: A semantics assignment: generator images in some backend.
Fold = FreeFold | TerminalFold | PairFold


def pair_folds(left: Fold, right: Fold) -> PairFold:
    """Pair two folds over the same source; projections are the fields."""
    return PairFold(left, right)


@dataclass(frozen=True)
class NetWithSemantics:
    """A net together with a fold out of its category of executions."""

    net: PetriNet
    fold: Fold

    def __post_init__(self) -> None:
        if self.fold.source != self.net.presentation:
            raise ValidationError("fold source must be the net's own presentation")

    @property
    def semantics(self) -> SemanticsHandle:
        return self.fold.semantics

    @property
    def presentation(self) -> SmcPresentation:
        return self.fold.source


def commutes_with_semantics(
    functor: StrictFunctor, src: NetWithSemantics, tgt: NetWithSemantics
) -> bool:
    """Check the morphism condition of nets-with-semantics.

    The source fold must equal the functor followed by the target fold,
    exactly on object generators and up to backend equality on morphism
    generators.
    """
    if src.semantics != tgt.semantics:
        raise SemanticsMismatchError("source and target carry different semantics")
    for obj in functor.source.objects:
        if src.fold.object_image(obj) != tgt.fold.word_image(functor.map_object(obj)):
            return False
    handle = src.semantics
    for gen in functor.source.morphisms:
        mine = src.fold.morphism_image(gen.name)
        theirs = tgt.fold.term_image(functor.morphism_map[gen.name])
        if not sem_equal(handle, mine, theirs):
            return False
    return True


def transport(change: Fold, nws: NetWithSemantics) -> NetWithSemantics:
    """Move a net to a new semantics along a functor between backends.

    The current backend must be free so the change of semantics is
    finitely presented: it is itself a fold out of that presentation.
    """
    if not isinstance(nws.fold, FreeFold):
        raise SemanticsMismatchError("transport requires a free current backend")
    if change.source != nws.fold.functor.target:
        raise SemanticsMismatchError(
            "semantics functor source differs from the net's backend presentation"
        )
    return NetWithSemantics(nws.net, change.after(nws.fold.functor))


def terminal_net(net: PetriNet) -> NetWithSemantics:
    """The net with the trivial semantics assignment."""
    return NetWithSemantics(net, TerminalFold(net.presentation))


def identity_fold(net: PetriNet) -> FreeFold:
    """Fold of a net into its own category of executions."""
    return FreeFold(identity_functor(net.presentation))
