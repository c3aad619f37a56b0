"""Shared builders, random generators and rewrites for the test suite."""
from __future__ import annotations

import random
from pathlib import Path

from petriglue import (
    Compose,
    FreeFold,
    Gen,
    Id,
    MorphismGenerator,
    Multiset,
    NetWithSemantics,
    Perm,
    PetriNet,
    SmcPresentation,
    StrictFunctor,
    StringDiagram,
    Tensor,
    Transition,
    free_smc,
    identity_fold,
    typecheck,
)
from petriglue.fssmc import (
    MorphismTerm,
    apply_perm,
    compose_terms,
    identity_perm,
    invert_perm,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def net(places, transitions) -> PetriNet:
    return PetriNet(
        tuple(places),
        tuple(
            Transition(name, Multiset.from_counts(pre), Multiset.from_counts(post))
            for name, pre, post in transitions
        ),
    )


def outcome(function, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return function(*args)
    except Exception as error:
        return type(error), str(error)


def wires(d: StringDiagram) -> frozenset:
    """The wiring of ``d`` as (source, target) endpoint pairs.

    A source is ("in", i) for interface input ``i`` or ("bo", b, k) for
    output port ``k`` of box ``b``; a target is ("out", j) for interface
    output ``j`` or ("bi", b, p) for input port ``p`` of box ``b``.
    """

    def source(b: int, k: int) -> tuple:
        return ("in", k) if b < 0 else ("bo", b, k)

    pairs = {(source(*end), ("out", j)) for j, end in enumerate(d.results)}
    pairs.update(
        (source(*end), ("bi", b, p))
        for b, ends in enumerate(d.feeds)
        for p, end in enumerate(ends)
    )
    return frozenset(pairs)


def diagram_from_wires(boxes, box_doms, box_cods, inputs, outputs, pairs) -> StringDiagram:
    """The diagram whose wiring is the endpoint pairs ``pairs``, in the
    format :func:`wires` returns; a port no pair reaches has source None."""
    feeds = [[None] * len(dom) for dom in box_doms]
    results = [None] * len(outputs)
    for src, tgt in pairs:
        end = (-1, src[1]) if src[0] == "in" else src[1:]
        if tgt[0] == "out":
            results[tgt[1]] = end
        else:
            feeds[tgt[1]][tgt[2]] = end
    return StringDiagram(
        tuple(boxes), tuple(box_doms), tuple(box_cods), tuple(inputs), tuple(outputs),
        tuple(map(tuple, feeds)), tuple(results),
    )


def fig1_net() -> PetriNet:
    return net(
        "ABCDEF",
        [
            ("f", {}, {"A": 3, "B": 1, "C": 5}),
            ("g", {"A": 2, "B": 1, "C": 3}, {"E": 1, "F": 1}),
            ("h", {"C": 1, "D": 4}, {"F": 1}),
            ("k", {"E": 1, "F": 1}, {}),
        ],
    )


def fig1_nws() -> NetWithSemantics:
    n = fig1_net()
    return NetWithSemantics(n, identity_fold(n))


def fig5a_nws() -> NetWithSemantics:
    n = net(
        ["A", "B", "C1", "C2"],
        [
            ("f1", {"A": 1}, {"B": 1}),
            ("f2", {"A": 1}, {"B": 1}),
            ("g", {"B": 2}, {"C1": 1, "C2": 1}),
            ("h", {"C1": 1, "C2": 1}, {}),
        ],
    )
    semantics = SmcPresentation(
        ("A", "B", "C"),
        (
            MorphismGenerator("f", ("A",), ("B",)),
            MorphismGenerator("g", ("B", "B"), ("C", "C")),
            MorphismGenerator("h", ("C", "C"), ()),
        ),
    )
    fold = FreeFold(
        StrictFunctor(
            free_smc(n),
            semantics,
            {"A": ("A",), "B": ("B",), "C1": ("C",), "C2": ("C",)},
            {"f1": Gen("f"), "f2": Gen("f"), "g": Gen("g"), "h": Gen("h")},
        )
    )
    return NetWithSemantics(n, fold)


def fig8a_semantics() -> SmcPresentation:
    return SmcPresentation(
        ("A", "B", "C", "D", "E"),
        (
            MorphismGenerator("f", ("A", "A"), ("C", "B")),
            MorphismGenerator("h", ("C", "C"), ("D",)),
            MorphismGenerator("k", ("C",), ("E",)),
        ),
    )


def fig8a_nets() -> tuple[NetWithSemantics, NetWithSemantics]:
    semantics = fig8a_semantics()
    left = net(["A", "C", "B"], [("f", {"A": 2}, {"C": 1, "B": 1})])
    right = net(
        ["C", "D", "E"],
        [("h", {"C": 2}, {"D": 1}), ("k", {"C": 1}, {"E": 1})],
    )
    left_sem = NetWithSemantics(
        left,
        FreeFold(
            StrictFunctor(
                free_smc(left),
                semantics,
                {"A": ("A",), "C": ("C",), "B": ("B",)},
                {"f": Gen("f")},
            )
        ),
    )
    right_sem = NetWithSemantics(
        right,
        FreeFold(
            StrictFunctor(
                free_smc(right),
                semantics,
                {"C": ("C",), "D": ("D",), "E": ("E",)},
                {"h": Gen("h"), "k": Gen("k")},
            )
        ),
    )
    return left_sem, right_sem


def collapsing_split_pair() -> tuple[NetWithSemantics, NetWithSemantics]:
    """Left ``p: A -> B``, ``q: A2 -> B`` and ``u: -> A2``, right
    ``c: B -> X`` and ``d: B ->``, with free semantics.  Composed on
    ``B``, they split into one event ``t``, and the sequences ``u t t``
    and ``t u t`` differ only by which event ``u`` feeds, with equal
    images, so the step fails faithfulness at bound 3."""
    places = ("A", "A2", "B", "X")
    steps = [("p", {"A": 1}, {"B": 1}), ("q", {"A2": 1}, {"B": 1}), ("u", {}, {"A2": 1}),
             ("c", {"B": 1}, {"X": 1}), ("d", {"B": 1}, {})]
    sides = [net(("A", "A2", "B"), steps[:3]), net(("B", "X"), steps[3:])]
    semantics = SmcPresentation(
        places, tuple(gen for n in sides for gen in n.presentation.morphisms)
    )
    return tuple(
        NetWithSemantics(n, FreeFold(StrictFunctor(
            n.presentation, semantics, {x: (x,) for x in n.places},
            {t.name: Gen(t.name) for t in n.transitions},
        )))
        for n in sides
    )


def o_n_witness_functor(
    witness_net: PetriNet, target: SmcPresentation, images: dict[str, str]
) -> StrictFunctor:
    return StrictFunctor(
        free_smc(witness_net), target, {p: (images[p],) for p in witness_net.places}, {}
    )


# ---------------------------------------------------------------------------
# Random structures

def random_presentation(
    rng: random.Random, max_objects: int = 3, max_morphisms: int = 3
) -> SmcPresentation:
    objects = tuple(f"x{i}" for i in range(rng.randint(1, max_objects)))
    morphisms: list[MorphismGenerator] = []
    target = rng.randint(0, max_morphisms)
    index = 0
    while len(morphisms) < target:
        dom = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
        cod = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
        morphisms.append(MorphismGenerator(f"m{index}", dom, cod))
        index += 1
        if len(morphisms) < target and rng.random() < 0.5:
            morphisms.append(MorphismGenerator(f"m{index}", dom, cod))
            index += 1
    return SmcPresentation(objects, tuple(morphisms))


def random_net(rng: random.Random, max_places: int = 4, max_transitions: int = 3) -> PetriNet:
    places = tuple(f"p{i}" for i in range(rng.randint(1, max_places)))
    transitions = []
    for i in range(rng.randint(0, max_transitions)):
        pre = {p: rng.randint(1, 2) for p in places if rng.random() < 0.5}
        post = {p: rng.randint(1, 2) for p in places if rng.random() < 0.5}
        transitions.append((f"t{i}", pre, post))
    return net(places, transitions)


def random_tp_pair(rng: random.Random) -> tuple[StrictFunctor, StrictFunctor]:
    """Identification-style parallel pair of transition-preserving functors.

    Images are plain generators with positionally matching boundaries, as
    arise from witnesses selecting duplicated substructure; twisted
    self-pairings, whose coequalizer degenerates, are never produced.
    """
    target = random_presentation(rng)
    src_objects = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    f_obj = {c: (rng.choice(target.objects),) for c in src_objects}
    g_obj = {c: (rng.choice(target.objects),) for c in src_objects}
    src_gens: list[MorphismGenerator] = []
    f_mor: dict[str, MorphismTerm] = {}
    g_mor: dict[str, MorphismTerm] = {}
    for _ in range(rng.randint(0, 3)):
        if not target.morphisms:
            break
        u = rng.choice(target.morphisms)
        if any(
            not [c for c in src_objects if f_obj[c][0] == letter]
            for letter in u.dom + u.cod
        ):
            continue
        dom_c = tuple(
            rng.choice([c for c in src_objects if f_obj[c][0] == letter])
            for letter in u.dom
        )
        cod_c = tuple(
            rng.choice([c for c in src_objects if f_obj[c][0] == letter])
            for letter in u.cod
        )
        g_dom = tuple(g_obj[c][0] for c in dom_c)
        g_cod = tuple(g_obj[c][0] for c in cod_c)
        candidates = [v for v in target.morphisms if v.dom == g_dom and v.cod == g_cod]
        if not candidates:
            continue
        v = rng.choice(candidates)
        name = f"w{len(src_gens)}"
        src_gens.append(MorphismGenerator(name, dom_c, cod_c))
        f_mor[name] = Gen(u.name)
        g_mor[name] = Gen(v.name)
    source = SmcPresentation(src_objects, tuple(src_gens))
    return (
        StrictFunctor(source, target, f_obj, f_mor),
        StrictFunctor(source, target, g_obj, g_mor),
    )


def random_embedding(rng: random.Random, sig: SmcPresentation) -> StrictFunctor:
    """A generator-preserving functor renaming ``sig`` into a larger target."""
    junk_objects = tuple(f"j{i}" for i in range(rng.randint(0, 2)))
    objects = tuple(f"t_{o}" for o in sig.objects) + junk_objects

    def mapped(word):
        return tuple(f"t_{letter}" for letter in word)

    morphisms = [
        MorphismGenerator(f"t_{m.name}", mapped(m.dom), mapped(m.cod))
        for m in sig.morphisms
    ]
    for i in range(rng.randint(0, 2)):
        dom = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
        cod = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
        morphisms.append(MorphismGenerator(f"junk{i}", dom, cod))
    target = SmcPresentation(objects, tuple(morphisms))
    return StrictFunctor(
        sig,
        target,
        {o: (f"t_{o}",) for o in sig.objects},
        {m.name: Gen(f"t_{m.name}") for m in sig.morphisms},
    )


# ---------------------------------------------------------------------------
# Random terms

def _fire_step(rng: random.Random, sig: SmcPresentation, word):
    """One canonical firing from ``word``; None if nothing is enabled."""
    enabled = [
        g
        for g in sig.morphisms
        if all(g.dom.count(x) <= word.count(x) for x in set(g.dom))
    ]
    if not enabled:
        return None
    gen = rng.choice(enabled)
    chosen: list[int] = []
    taken: set[int] = set()
    for letter in gen.dom:
        for i, have in enumerate(word):
            if i not in taken and have == letter:
                chosen.append(i)
                taken.add(i)
                break
    rest = [i for i in range(len(word)) if i not in taken]
    route = tuple(chosen) + tuple(rest)
    parts: list[MorphismTerm] = []
    if route != identity_perm(len(word)):
        parts.append(Perm(word, route))
    rest_word = tuple(word[i] for i in rest)
    parts.append(Gen(gen.name) if not rest_word else Tensor(Gen(gen.name), Id(rest_word)))
    return compose_terms(parts), gen.cod + rest_word


def random_term_with_dom(
    rng: random.Random, sig: SmcPresentation, dom, steps: int = 3
) -> MorphismTerm:
    """A random well-typed term with the given domain word."""
    word = tuple(dom)
    parts: list[MorphismTerm] = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            fired = _fire_step(rng, sig, word)
            if fired is not None:
                part, word = fired
                parts.append(part)
                continue
        if word and roll < 0.85:
            perm = list(range(len(word)))
            rng.shuffle(perm)
            parts.append(Perm(word, tuple(perm)))
            word = apply_perm(word, tuple(perm))
    if not parts:
        return Id(tuple(dom))
    return compose_terms(parts)


def random_term(rng: random.Random, sig: SmcPresentation, size: int = 4) -> MorphismTerm:
    if size >= 2 and rng.random() < 0.3:
        return Tensor(
            random_term(rng, sig, size // 2), random_term(rng, sig, size - size // 2)
        )
    dom = tuple(rng.choice(sig.objects) for _ in range(rng.randint(0, 3)))
    return random_term_with_dom(rng, sig, dom, steps=size)


# ---------------------------------------------------------------------------
# Meaning-preserving rewrites

def _positions(term: MorphismTerm, path=()):
    yield path, term
    if isinstance(term, Compose):
        yield from _positions(term.first, path + (0,))
        yield from _positions(term.second, path + (1,))
    elif isinstance(term, Tensor):
        yield from _positions(term.left, path + (0,))
        yield from _positions(term.right, path + (1,))


def _replace(term: MorphismTerm, path, new: MorphismTerm) -> MorphismTerm:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(term, Compose):
        if head == 0:
            return Compose(_replace(term.first, rest, new), term.second)
        return Compose(term.first, _replace(term.second, rest, new))
    if isinstance(term, Tensor):
        if head == 0:
            return Tensor(_replace(term.left, rest, new), term.right)
        return Tensor(term.left, _replace(term.right, rest, new))
    raise AssertionError("path into a leaf")


def _block_swap(first_len: int, second_len: int) -> tuple[int, ...]:
    return tuple(range(first_len, first_len + second_len)) + tuple(range(first_len))


def _rewrite_candidates(rng, term: MorphismTerm, sig: SmcPresentation):
    """All (path, replacement) pairs that keep the diagram unchanged."""
    out = []
    for path, sub in _positions(term):
        dom, cod = typecheck(sub, sig)
        if isinstance(sub, Compose):
            if isinstance(sub.first, Compose):
                out.append((path, Compose(sub.first.first, Compose(sub.first.second, sub.second))))
            if isinstance(sub.second, Compose):
                out.append((path, Compose(Compose(sub.first, sub.second.first), sub.second.second)))
            if isinstance(sub.first, Id):
                out.append((path, sub.second))
            if isinstance(sub.second, Id):
                out.append((path, sub.first))
            if isinstance(sub.first, Tensor) and isinstance(sub.second, Tensor):
                a, b = sub.first.left, sub.first.right
                c, d = sub.second.left, sub.second.right
                if typecheck(a, sig)[1] == typecheck(c, sig)[0] and typecheck(b, sig)[1] == typecheck(d, sig)[0]:
                    out.append((path, Tensor(Compose(a, c), Compose(b, d))))
        if isinstance(sub, Tensor):
            if isinstance(sub.left, Tensor):
                out.append((path, Tensor(sub.left.left, Tensor(sub.left.right, sub.right))))
            if isinstance(sub.right, Tensor):
                out.append((path, Tensor(Tensor(sub.left, sub.right.left), sub.right.right)))
            if isinstance(sub.left, Id) and sub.left.word == ():
                out.append((path, sub.right))
            if isinstance(sub.right, Id) and sub.right.word == ():
                out.append((path, sub.left))
            if isinstance(sub.left, Compose) and isinstance(sub.right, Compose):
                out.append((
                    path,
                    Compose(
                        Tensor(sub.left.first, sub.right.first),
                        Tensor(sub.left.second, sub.right.second),
                    ),
                ))
            # symmetry naturality: a⊗b = swap;(b⊗a);swap
            adom, acod = typecheck(sub.left, sig)
            bdom, bcod = typecheck(sub.right, sig)
            out.append((
                path,
                compose_terms([
                    Perm(adom + bdom, _block_swap(len(adom), len(bdom))),
                    Tensor(sub.right, sub.left),
                    Perm(bcod + acod, _block_swap(len(bcod), len(acod))),
                ]),
            ))
        # identity insertion and symmetry cancellation, at any position
        out.append((path, Compose(Id(dom), sub)))
        out.append((path, Compose(sub, Id(cod))))
        out.append((path, Tensor(sub, Id(()))))
        if cod:
            perm = list(range(len(cod)))
            rng.shuffle(perm)
            perm = tuple(perm)
            out.append((
                path,
                Compose(sub, Compose(Perm(cod, perm), Perm(apply_perm(cod, perm), invert_perm(perm)))),
            ))
    return out


def random_rewrite(rng, term: MorphismTerm, sig: SmcPresentation) -> MorphismTerm:
    """Apply one randomly chosen meaning-preserving rewrite."""
    path, replacement = rng.choice(_rewrite_candidates(rng, term, sig))
    return _replace(term, path, replacement)
