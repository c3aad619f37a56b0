"""Morphism terms of a free symmetric strict monoidal category.

Terms are syntax trees built from generators, identities, permutations,
sequential composition and monoidal product.  :func:`to_diagram`
typechecks a term and evaluates it to a :class:`StringDiagram`, an
acyclic port graph anchored at its interface, in one pass with an
explicit stack.  A diagram stores one source per box input port and per
interface output: an output port of a box, or an interface input.  Two
terms denote the same morphism iff their diagrams are isomorphic by a
box bijection that preserves generator labels, every source, and the
interface positions.

:func:`diagram_key` turns that isomorphism into equality of a canonical
key.  A breadth-first walk from the interface inputs and then the
interface outputs, in position order, reads each box's sources and then
its targets (:attr:`StringDiagram.drains`) in port order; it numbers
every box connected to the interface the same way in any isomorphic
copy.  Each closed component (boxes no wire path joins to the
interface) is encoded by the least such walk from a box of its rarest
label, the least label on a tie, and the component codes are sorted.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    BadPermutationError,
    TypeMismatchError,
    UnknownGeneratorError,
    ValidationError,
)
from .net_model import SmcPresentation, Word


class MorphismTerm:
    """Base class of the term syntax; concrete nodes are the subclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Gen(MorphismTerm):
    name: str


@dataclass(frozen=True)
class Id(MorphismTerm):
    word: Word


@dataclass(frozen=True)
class Perm(MorphismTerm):
    """Symmetry on ``word``: output position ``i`` is fed by input ``perm[i]``."""

    word: Word
    perm: tuple[int, ...]


class _Operator(MorphismTerm):
    """Base of the binary nodes; their two fields are ``__match_args__``.
    Equality, hash and repr read a term as the flat list of its leaves and
    the repr text between them, so they work at any depth."""

    __slots__ = ()

    def _tokens(self) -> list:
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, _Operator):
                a, b = node.__match_args__
                name = type(node).__qualname__
                stack += (")", getattr(node, b), f", {b}=", getattr(node, a), f"{name}({a}=")
            else:
                out.append(node)
        return out

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(tuple(self._tokens()))

    def __repr__(self) -> str:
        return "".join(x if isinstance(x, str) else repr(x) for x in self._tokens())


@dataclass(frozen=True, eq=False, repr=False)
class Compose(_Operator):
    """Diagrammatic composite ``first ; second``."""

    first: MorphismTerm
    second: MorphismTerm


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(_Operator):
    left: MorphismTerm
    right: MorphismTerm


def _check_perm(word: Word, perm: Sequence[int]) -> None:
    if sorted(perm) != list(range(len(word))):
        raise BadPermutationError(
            f"{tuple(perm)} is not a permutation of 0..{len(word) - 1}"
        )


def symmetry(word: Word, perm: Sequence[int]) -> Perm:
    """Build the symmetry of ``word`` given by ``perm`` (validated)."""
    word = tuple(word)
    _check_perm(word, perm)
    return Perm(word, tuple(perm))


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def invert_perm(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def apply_perm(word: Word, perm: Sequence[int]) -> Word:
    return tuple(word[p] for p in perm)


def sorting_permutation(word: Word, rank: Mapping[str, int]) -> tuple[int, ...]:
    """Stable permutation p with ``apply_perm(word, p)`` sorted by ``rank``."""
    return tuple(sorted(range(len(word)), key=lambda i: rank[word[i]]))


def alignment_permutation(source: Word, target: Word) -> tuple[int, ...]:
    """Stable permutation p with ``apply_perm(source, p) == target``.

    Requires the two words to agree as multisets; equal letters are
    matched left to right.
    """
    pools: dict[str, deque[int]] = {}
    for i, letter in enumerate(source):
        pools.setdefault(letter, deque()).append(i)
    out: list[int] = []
    for letter in target:
        pool = pools.get(letter)
        if not pool:
            raise TypeMismatchError(f"words {source} and {target} differ as multisets")
        out.append(pool.popleft())
    if any(pools.values()):
        raise TypeMismatchError(f"words {source} and {target} differ as multisets")
    return tuple(out)


def block_permutation(sizes: Sequence[int], block_map: Sequence[int]) -> tuple[int, ...]:
    """Letter-level permutation whose output block ``j`` is input block ``block_map[j]``."""
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    out: list[int] = []
    for j in block_map:
        out.extend(range(offsets[j], offsets[j] + sizes[j]))
    return tuple(out)


def fold_term(
    t: MorphismTerm,
    leaf: Callable[[MorphismTerm], Any],
    compose: Callable[[Any, Any], Any],
    tensor: Callable[[Any, Any], Any],
) -> Any:
    """Evaluate ``t`` bottom-up with an explicit stack.

    ``leaf`` is applied to every ``Gen``, ``Id`` and ``Perm`` node, left
    to right; ``compose`` and ``tensor`` combine the values of a node's
    two operands.  Term depth is limited by memory, not by the recursion
    limit.
    """
    values: list[Any] = []
    # The combiner itself marks where a node's two operand values are ready.
    stack: list[Any] = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Compose):
            stack += (compose, node.second, node.first)
        elif isinstance(node, Tensor):
            stack += (tensor, node.right, node.left)
        elif isinstance(node, (Gen, Id, Perm)):
            values.append(leaf(node))
        elif node is compose or node is tensor:
            second = values.pop()
            values[-1] = node(values[-1], second)
        else:
            raise ValidationError(f"not a morphism term: {node!r}")
    return values[0]


def _concat(first: Sequence, second: Sequence) -> deque:
    """``first + second``, extending the longer operand in place.

    Leaf values are tuples or ranges and become deques on first use, so
    folding a product of any shape copies each position O(log n) times.
    """
    if len(first) >= len(second):
        first = first if isinstance(first, deque) else deque(first)
        first.extend(second)
        return first
    second = second if isinstance(second, deque) else deque(second)
    second.extendleft(reversed(first))
    return second


def _tensor_ends(left: tuple[Sequence, Sequence], right: tuple[Sequence, Sequence]):
    """The (inputs, outputs) of a product from those of its operands."""
    return _concat(left[0], right[0]), _concat(left[1], right[1])


def _leaf_type(t: Gen | Id | Perm, sig: SmcPresentation) -> tuple[Word, Word]:
    if isinstance(t, Gen):
        gen = sig.morphism_index.get(t.name)
        if gen is None:
            raise UnknownGeneratorError(f"unknown morphism generator {t.name!r}")
        return gen.dom, gen.cod
    for letter in t.word:
        if letter not in sig.object_rank:
            raise UnknownGeneratorError(f"unknown object generator {letter!r}")
    if isinstance(t, Id):
        return t.word, t.word
    _check_perm(t.word, t.perm)
    return t.word, apply_perm(t.word, t.perm)


def _check_composable(cod: Sequence[str], dom: Sequence[str]) -> None:
    if tuple(cod) != tuple(dom):
        raise TypeMismatchError(
            f"cannot compose: left codomain {tuple(cod)} != right domain {tuple(dom)}"
        )


def typecheck(t: MorphismTerm, sig: SmcPresentation) -> tuple[Word, Word]:
    """Return (dom, cod) of a well-formed term, or raise.

    A single ``Gen``, ``Id`` or ``Perm`` leaf is typed directly, without
    a fold.  Raises :class:`UnknownGeneratorError` for undeclared names,
    :class:`BadPermutationError` for invalid symmetries and
    :class:`TypeMismatchError` when a composition boundary disagrees.
    """

    def compose(first: tuple[Sequence, Sequence], second: tuple[Sequence, Sequence]):
        _check_composable(first[1], second[0])
        return first[0], second[1]

    if isinstance(t, (Gen, Id, Perm)):
        dom, cod = _leaf_type(t, sig)
    else:
        dom, cod = fold_term(t, lambda node: _leaf_type(node, sig), compose, _tensor_ends)
    return tuple(dom), tuple(cod)


def compose_terms(terms: Sequence[MorphismTerm]) -> MorphismTerm:
    """Left-nested sequential composite; a single term is returned as is."""
    if not terms:
        raise ValidationError("cannot compose an empty sequence of terms")
    out = terms[0]
    for t in terms[1:]:
        out = Compose(out, t)
    return out


def tensor_terms(terms: Sequence[MorphismTerm]) -> MorphismTerm:
    """Left-nested monoidal product; the empty product is ``Id(())``."""
    if not terms:
        return Id(())
    out = terms[0]
    for t in terms[1:]:
        out = Tensor(out, t)
    return out


def decomposition(t: MorphismTerm) -> frozenset[str]:
    """The set of morphism generators occurring in ``t``.

    For well-typed terms this is the unique decomposition: terms with
    equal diagrams always use the same generators.
    """
    names: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Gen):
            names.add(node.name)
        elif isinstance(node, Compose):
            stack += (node.second, node.first)
        elif isinstance(node, Tensor):
            stack += (node.right, node.left)
        elif not isinstance(node, (Id, Perm)):
            raise ValidationError(f"not a morphism term: {node!r}")
    return frozenset(names)


# ---------------------------------------------------------------------------
# String diagrams


def _walk(
    d: StringDiagram, feeds: Sequence[Sequence[tuple[int, int]]], starts: Iterable[int]
) -> tuple[list[int], dict[int, int], list[tuple]]:
    """Number boxes breadth-first from ``starts``, reading each box's
    sources in ``feeds`` (``d.feeds``, or a copy that codes interface
    inputs by one marker) and then its targets, in port order.

    Each box is encoded, in walk order, as its label followed by the
    (box number, port) of every source feeding it; interface inputs are
    numbered -1.
    """
    order = list(dict.fromkeys(starts))
    number = {b: i for i, b in enumerate(order)} | {-1: -1}
    drains = d.drains
    code = []
    for b in order:
        for ends in (feeds[b], drains[b]):
            for c, _ in ends:
                if c not in number:
                    number[c] = len(order)
                    order.append(c)
        record = [d.boxes[b]]
        for c, k in feeds[b]:
            record += number[c], k
        code.append(tuple(record))
    return order, number, code


def _canonical_key(d: StringDiagram) -> tuple:
    starts = (c for c, _ in (*d.drains[-1], *d.results) if c >= 0)
    _, number, code = _walk(d, d.feeds, starts)
    outputs = [x for c, k in d.results for x in (number[c], k)]
    seen = set(number)
    closed = []
    for b in range(len(d.boxes)):
        if b not in seen:
            component = _walk(d, d.feeds, [b])[0]
            seen.update(component)
            # Only boxes of the rarest label, the least on a tie, start a
            # walk: isomorphisms preserve that class.
            counts = Counter(d.boxes[c] for c in component)
            label = min(counts, key=lambda x: (counts[x], x))
            starts = (c for c in component if d.boxes[c] == label)
            closed.append(min(tuple(_walk(d, d.feeds, [s])[2]) for s in starts))
    return d.inputs, d.outputs, tuple(code), tuple(outputs), tuple(sorted(closed))


@dataclass(frozen=True)
class StringDiagram:
    """Canonical anchored form of a free-SMC morphism.

    ``boxes[b]`` is the generator label of box ``b``, typed
    ``box_doms[b] -> box_cods[b]``.  The wiring is the source of every
    port that takes one: ``feeds[b][p]`` feeds input port ``p`` of box
    ``b``, and ``results[j]`` feeds interface output ``j``.  A source is
    ``(b, k)`` for output port ``k`` of box ``b``, or ``(-1, i)`` for
    interface input ``i``; every source feeds exactly one port.
    """

    boxes: tuple[str, ...]
    box_doms: tuple[Word, ...]
    box_cods: tuple[Word, ...]
    inputs: Word
    outputs: Word
    feeds: tuple[tuple[tuple[int, int], ...], ...]
    results: tuple[tuple[int, int], ...]

    @cached_property
    def drains(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """What each source feeds, derived once: ``drains[b][k]`` for the
        source ``(b, k)``, so ``drains[-1]`` is the interface inputs' row.
        A target is ``(c, p)`` for input port ``p`` of box ``c``, or
        ``(-1, j)`` for interface output ``j``."""
        rows = [[None] * len(word) for word in (*self.box_cods, self.inputs)]
        for c, ends in enumerate((self.results, *self.feeds), -1):
            for p, (b, k) in enumerate(ends):
                rows[b][k] = (c, p)
        return tuple(map(tuple, rows))

    _key = cached_property(_canonical_key)


def to_diagram(t: MorphismTerm, sig: SmcPresentation) -> StringDiagram:
    """Typecheck a term and build its string diagram in one pass.

    Boxes are numbered by the left-to-right order of ``Gen`` occurrences.
    Every open end of a fragment is a link; composing two fragments joins
    each input link of the second to the matching output link of the
    first through ``alias``, so nothing is copied or renumbered, and
    interface positions are assigned once, at the root.  A box input or
    interface output then reads its source from the root of its link.
    """
    boxes: list[tuple[str, Word, Word, int]] = []
    letter: list[str] = []
    source: list[tuple[int, int] | None] = []
    alias: dict[int, int] = {}

    def find(link: int) -> int:
        root = link
        while root in alias:
            root = alias[root]
        while link != root:
            alias[link], link = root, alias[link]
        return root

    def leaf(node: MorphismTerm) -> tuple[Sequence[int], Sequence[int]]:
        dom, cod = _leaf_type(node, sig)
        first = len(letter)
        if isinstance(node, Gen):
            b = len(boxes)
            boxes.append((node.name, dom, cod, first))
            letter.extend(dom + cod)
            source.extend([None] * len(dom) + [(b, k) for k in range(len(cod))])
            middle = first + len(dom)
            return range(first, middle), range(middle, len(letter))
        letter.extend(dom)
        source.extend([None] * len(dom))
        links = range(first, len(letter))
        if isinstance(node, Perm):
            return links, tuple(links[p] for p in node.perm)
        return links, links

    def compose(first: tuple[Sequence, Sequence], second: tuple[Sequence, Sequence]):
        _check_composable([letter[x] for x in first[1]], [letter[y] for y in second[0]])
        for x, y in zip(first[1], second[0]):
            alias[find(y)] = find(x)
        return first[0], second[1]

    ins, outs = fold_term(t, leaf, compose, _tensor_ends)
    for i, x in enumerate(ins):
        source[find(x)] = (-1, i)
    return StringDiagram(
        boxes=tuple(label for label, _, _, _ in boxes),
        box_doms=tuple(dom for _, dom, _, _ in boxes),
        box_cods=tuple(cod for _, _, cod, _ in boxes),
        inputs=tuple(letter[x] for x in ins),
        outputs=tuple(letter[y] for y in outs),
        feeds=tuple(
            tuple(source[find(x)] for x in range(first, first + len(dom)))
            for _, dom, _, first in boxes
        ),
        results=tuple(source[find(y)] for y in outs),
    )


def diagram_key(d: StringDiagram) -> tuple:
    """Canonical form of ``d`` up to interface-preserving isomorphism.

    A breadth-first walk from the interface inputs, then the interface
    outputs, in position order, follows each box's ports in port order
    and so numbers every box connected to the interface the same way in
    every isomorphic copy.  Each closed component, one no wire path joins
    to the interface, is encoded by the least such walk from a box of its
    rarest label, the least label on a tie, and the component codes are
    sorted.  The key is computed once per diagram object.
    """
    return d._key


def diagram_equal(d1: StringDiagram, d2: StringDiagram) -> bool:
    """Interface-preserving isomorphism of diagrams: equal canonical keys.

    The interfaces are anchored: an isomorphism is a label-preserving box
    bijection that sends every wire of ``d1`` to a wire of ``d2`` with
    interface positions fixed pointwise.
    """
    return diagram_key(d1) == diagram_key(d2)


def terms_equal(t1: MorphismTerm, t2: MorphismTerm, sig: SmcPresentation) -> bool:
    """Convenience: compare two terms by their diagrams."""
    return diagram_equal(to_diagram(t1, sig), to_diagram(t2, sig))
