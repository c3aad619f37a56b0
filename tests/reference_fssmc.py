"""The diagram layer as it was before the canonical key, kept as an oracle.

``to_diagram`` folds a term recursively, merging copied wire tables at
every node; ``diagram_equal`` runs joint colour refinement and then a
backtracking search for a box bijection; ``typecheck`` folds every
term, a single leaf included; ``canonical_key`` encodes each closed
component by the least walk from every one of its boxes, which is
quadratic in the component's size.  The tests compare the library's
iterative builder, canonical key and typing against these.
"""
from __future__ import annotations

from petriglue.errors import ValidationError
from petriglue.fssmc import (
    Compose,
    Gen,
    Id,
    MorphismTerm,
    Perm,
    StringDiagram,
    Tensor,
    _check_composable,
    _leaf_type,
    _tensor_ends,
    _walk,
    fold_term,
    invert_perm,
)
from petriglue.net_model import SmcPresentation, Word
from support import diagram_from_wires, wires

# Endpoints of a wire, as ``support.wires`` gives them.
Endpoint = tuple


def typecheck(t: MorphismTerm, sig: SmcPresentation) -> tuple[Word, Word]:
    """(dom, cod) of a well-formed term by a fold over all of it, or raise."""

    def compose(first, second):
        _check_composable(first[1], second[0])
        return first[0], second[1]

    dom, cod = fold_term(t, lambda node: _leaf_type(node, sig), compose, _tensor_ends)
    return tuple(dom), tuple(cod)


class _Builder:
    """Mutable open diagram used while folding a term."""

    __slots__ = ("boxes", "producer", "consumer", "in_wires", "out_wires", "next_wire")

    def __init__(self) -> None:
        self.boxes: list[tuple[str, Word, Word]] = []
        self.producer: dict[int, Endpoint] = {}
        self.consumer: dict[int, Endpoint] = {}
        self.in_wires: list[int] = []
        self.out_wires: list[int] = []
        self.next_wire = 0

    def new_wire(self, producer: Endpoint, consumer: Endpoint) -> int:
        wire = self.next_wire
        self.next_wire += 1
        self.producer[wire] = producer
        self.consumer[wire] = consumer
        return wire


def _shift_endpoint(endpoint: Endpoint, box_offset: int) -> Endpoint:
    if endpoint[0] in ("bi", "bo"):
        return (endpoint[0], endpoint[1] + box_offset, endpoint[2])
    return endpoint


def _shift_interface(endpoint: Endpoint, kind: str, offset: int) -> Endpoint:
    if endpoint[0] == kind:
        return (kind, endpoint[1] + offset)
    return endpoint


def _merge(a: _Builder, b: _Builder, box_offset: int) -> tuple[_Builder, int]:
    """Copy ``a`` and import ``b``'s boxes and wires with offsets applied."""
    out = _Builder()
    out.boxes = list(a.boxes) + list(b.boxes)
    out.producer = dict(a.producer)
    out.consumer = dict(a.consumer)
    wire_offset = a.next_wire
    for wire, endpoint in b.producer.items():
        out.producer[wire + wire_offset] = _shift_endpoint(endpoint, box_offset)
    for wire, endpoint in b.consumer.items():
        out.consumer[wire + wire_offset] = _shift_endpoint(endpoint, box_offset)
    out.next_wire = a.next_wire + b.next_wire
    return out, wire_offset


def _build(t: MorphismTerm, sig: SmcPresentation) -> _Builder:
    if isinstance(t, Gen):
        gen = sig.morphism(t.name)
        builder = _Builder()
        builder.boxes.append((gen.name, gen.dom, gen.cod))
        builder.in_wires = [
            builder.new_wire(("in", i), ("bi", 0, i)) for i in range(len(gen.dom))
        ]
        builder.out_wires = [
            builder.new_wire(("bo", 0, j), ("out", j)) for j in range(len(gen.cod))
        ]
        return builder
    if isinstance(t, Id):
        builder = _Builder()
        builder.in_wires = [
            builder.new_wire(("in", i), ("out", i)) for i in range(len(t.word))
        ]
        builder.out_wires = list(builder.in_wires)
        return builder
    if isinstance(t, Perm):
        builder = _Builder()
        perm_wires = [
            builder.new_wire(("in", t.perm[j]), ("out", j)) for j in range(len(t.word))
        ]
        builder.in_wires = [perm_wires[j] for j in invert_perm(t.perm)]
        builder.out_wires = perm_wires
        return builder
    if isinstance(t, Compose):
        a = _build(t.first, sig)
        b = _build(t.second, sig)
        out, wire_offset = _merge(a, b, len(a.boxes))
        remap: dict[int, int] = {}
        for k, wa in enumerate(a.out_wires):
            wb = b.in_wires[k] + wire_offset
            out.consumer[wa] = out.consumer[wb]
            del out.producer[wb]
            del out.consumer[wb]
            remap[wb] = wa
        out.in_wires = list(a.in_wires)
        out.out_wires = [remap.get(w + wire_offset, w + wire_offset) for w in b.out_wires]
        return out
    if isinstance(t, Tensor):
        a = _build(t.left, sig)
        b = _build(t.right, sig)
        out, wire_offset = _merge(a, b, len(a.boxes))
        a_dom, a_cod = typecheck(t.left, sig)
        for wire in list(out.producer):
            if wire >= wire_offset:
                out.producer[wire] = _shift_interface(out.producer[wire], "in", len(a_dom))
                out.consumer[wire] = _shift_interface(out.consumer[wire], "out", len(a_cod))
        out.in_wires = list(a.in_wires) + [w + wire_offset for w in b.in_wires]
        out.out_wires = list(a.out_wires) + [w + wire_offset for w in b.out_wires]
        return out
    raise ValidationError(f"not a morphism term: {t!r}")


def to_diagram(t: MorphismTerm, sig: SmcPresentation) -> StringDiagram:
    """Evaluate a term to its string diagram; one box per Gen occurrence."""
    dom, cod = typecheck(t, sig)
    builder = _build(t, sig)
    pairs = frozenset(
        (builder.producer[w], builder.consumer[w]) for w in builder.producer
    )
    return diagram_from_wires(
        boxes=tuple(label for label, _, _ in builder.boxes),
        box_doms=tuple(d for _, d, _ in builder.boxes),
        box_cods=tuple(c for _, _, c in builder.boxes),
        inputs=dom,
        outputs=cod,
        pairs=pairs,
    )


def _connection_maps(d: StringDiagram) -> tuple[dict, dict]:
    by_consumer = {tgt: src for src, tgt in wires(d)}
    by_producer = {src: tgt for src, tgt in wires(d)}
    return by_consumer, by_producer


def _joint_colors(d1: StringDiagram, d2: StringDiagram) -> tuple[list[int], list[int]]:
    """Anchored color refinement run jointly so codes are comparable.

    Each round re-encodes box signatures over both diagrams into one
    shared integer alphabet, keeping colors small for long chains.
    """
    bc1, bp1 = _connection_maps(d1)
    bc2, bp2 = _connection_maps(d2)

    def signatures(d: StringDiagram, colors: list[int], bc: dict, bp: dict) -> list[tuple]:
        sigs = []
        for b in range(len(d.boxes)):
            ins = []
            for j in range(len(d.box_doms[b])):
                src = bc[("bi", b, j)]
                ins.append(("I", src[1]) if src[0] == "in" else ("B", colors[src[1]], src[2]))
            outs = []
            for j in range(len(d.box_cods[b])):
                tgt = bp[("bo", b, j)]
                outs.append(("O", tgt[1]) if tgt[0] == "out" else ("B", colors[tgt[1]], tgt[2]))
            sigs.append((d.boxes[b], tuple(ins), tuple(outs)))
        return sigs

    labels = sorted(set(d1.boxes) | set(d2.boxes))
    code = {label: i for i, label in enumerate(labels)}
    c1 = [code[label] for label in d1.boxes]
    c2 = [code[label] for label in d2.boxes]
    for _ in range(len(d1.boxes) + 1):
        sig1 = signatures(d1, c1, bc1, bp1)
        sig2 = signatures(d2, c2, bc2, bp2)
        recode = {s: i for i, s in enumerate(sorted(set(sig1) | set(sig2), key=repr))}
        n1 = [recode[s] for s in sig1]
        n2 = [recode[s] for s in sig2]
        if n1 == c1 and n2 == c2:
            break
        c1, c2 = n1, n2
    return c1, c2


def diagram_equal(d1: StringDiagram, d2: StringDiagram) -> bool:
    """Interface-preserving isomorphism of diagrams.

    The interfaces are anchored: the candidate box bijection must send
    every wire of ``d1`` to a wire of ``d2`` with interface positions
    fixed pointwise.  Colors from anchored refinement prune the search;
    a backtracking match settles residual symmetric cases.
    """
    if d1.inputs != d2.inputs or d1.outputs != d2.outputs:
        return False
    wires1, wires2 = wires(d1), wires(d2)
    if len(d1.boxes) != len(d2.boxes) or len(wires1) != len(wires2):
        return False
    if sorted(d1.boxes) != sorted(d2.boxes):
        return False

    colors1, colors2 = _joint_colors(d1, d2)
    if sorted(colors1) != sorted(colors2):
        return False

    candidates: list[list[int]] = [
        [b2 for b2 in range(len(d2.boxes)) if colors2[b2] == colors1[b1]]
        for b1 in range(len(d1.boxes))
    ]
    order = sorted(range(len(d1.boxes)), key=lambda b: len(candidates[b]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def map_endpoint(endpoint: Endpoint) -> Endpoint:
        if endpoint[0] in ("bi", "bo"):
            return (endpoint[0], mapping[endpoint[1]], endpoint[2])
        return endpoint

    def locally_consistent(b1: int) -> bool:
        for src, tgt in wires1:
            ends = []
            for endpoint in (src, tgt):
                if endpoint[0] in ("bi", "bo") and endpoint[1] not in mapping:
                    break
                ends.append(map_endpoint(endpoint))
            else:
                if (ends[0], ends[1]) not in wires2:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return all(
                (map_endpoint(src), map_endpoint(tgt)) in wires2
                for src, tgt in wires1
            )
        b1 = order[i]
        for b2 in candidates[b1]:
            if b2 in used:
                continue
            mapping[b1] = b2
            used.add(b2)
            if locally_consistent(b1) and search(i + 1):
                return True
            del mapping[b1]
            used.discard(b2)
        return False

    return search(0)


def canonical_key(d: StringDiagram) -> tuple:
    """The canonical key with a walk from every box of a closed component."""
    starts = (c for c, _ in (*d.drains[-1], *d.results) if c >= 0)
    _, number, code = _walk(d, d.feeds, starts)
    outputs = [x for c, k in d.results for x in (number[c], k)]
    seen = set(number)
    closed = []
    for b in range(len(d.boxes)):
        if b not in seen:
            component = _walk(d, d.feeds, [b])[0]
            seen.update(component)
            closed.append(min(tuple(_walk(d, d.feeds, [s])[2]) for s in component))
    return d.inputs, d.outputs, tuple(code), tuple(outputs), tuple(sorted(closed))
