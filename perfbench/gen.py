"""Seeded inputs for the three workloads, as plain Python data.

Nothing here imports petriglue: the program receives only what these
functions generate.  A net spec is ``{"places": [...], "transitions":
[(name, pre, post), ...]}`` with ``pre`` and ``post`` dicts of positive
counts; a presentation spec is ``{"objects": [...], "morphisms": [(name,
dom, cod), ...]}`` with words as lists.
"""
from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import checks

# ---------------------------------------------------------------------------
# Shared helpers


def linearize(counts: dict[str, int], order: list[str]) -> list[str]:
    """The word of a multiset, letters in the given place order."""
    position = {name: i for i, name in enumerate(order)}
    word: list[str] = []
    for name in sorted(counts, key=position.__getitem__):
        word.extend([name] * counts[name])
    return word


def presentation_of(nets: list[dict], objects: list[str]) -> dict:
    """The presentation whose generators are the nets' transitions.

    Each generator's boundaries are the transition's pre and post,
    linearized in the order of the net that declares it, so that the
    identity-on-names fold of every net is strict.
    """
    morphisms = []
    for net in nets:
        for name, pre, post in net["transitions"]:
            morphisms.append(
                (name, linearize(pre, net["places"]), linearize(post, net["places"]))
            )
    return {"objects": list(objects), "morphisms": morphisms}


# ---------------------------------------------------------------------------
# compose: boundary composition of generated net pairs

COMPOSE_PAIRS = 100
COMPOSE_BOUND = 3


def heavy_splits() -> list[tuple[int, int, int, int]]:
    """Every split of four distinct, pairwise coprime amounts in 5..19.

    A split is (producer, producer, consumer, consumer).  The list is
    sorted by the least number of firings that balance it, the main
    factor in a composition's cost.
    """
    splits = []
    for amounts in combinations(range(5, 20), 4):
        if any(gcd(a, b) != 1 for a, b in combinations(amounts, 2)):
            continue
        for producers in combinations(amounts, 2):
            consumers = tuple(a for a in amounts if a not in producers)
            splits.append(producers + consumers)
    return sorted(splits, key=lambda s: (least_total(s[:2], s[2:]), s))


def least_total(produced: tuple[int, ...], consumed: tuple[int, ...]) -> int:
    return checks.least_firing_total(
        [(f"p{i}", a) for i, a in enumerate(produced)],
        [(f"c{i}", a) for i, a in enumerate(consumed)],
    )


def balanced(rng: random.Random, values: list, count: int) -> list:
    """``count`` items cycling through ``values`` in equal shares, shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def compose_pair(
    rng: random.Random, heavy: tuple[int, ...], light: list[tuple[int, int]], extras: list[bool]
) -> dict:
    """A left/right pair glued on three boundary places ``X0``..``X2``.

    ``X0`` has two producers and two consumers with the ``heavy``
    amounts; ``X1`` and ``X2`` have one producer and one consumer with
    the ``light`` amounts.  ``extras`` says, per producer and then per
    consumer, whether it also makes a side token or needs an extra one.
    Every transition touches exactly one boundary place, every other
    place is used, and left and right names differ except on the
    boundary, which both nets declare under the same name.
    """
    boundary = ["X0", "X1", "X2"]
    producers = [("X0", heavy[0]), ("X0", heavy[1])]
    consumers = [("X0", heavy[2]), ("X0", heavy[3])]
    for place, (made, used) in zip(boundary[1:], light):
        producers.append((place, made))
        consumers.append((place, used))

    left_t, left_extra = [], []
    for i, (place, amount) in enumerate(producers):
        pre = {f"I{i}": rng.randint(1, 2)}
        post = {place: amount}
        if extras[i]:
            side = f"S{i}"
            post[side] = 1
            left_extra.append(side)
        left_t.append((f"p{i}", pre, post))
    right_t, right_extra = [], []
    for i, (place, amount) in enumerate(consumers):
        pre = {place: amount}
        if extras[len(producers) + i]:
            need = f"R{i}"
            pre[need] = 1
            right_extra.append(need)
        post = {f"O{i}": rng.randint(1, 2)}
        right_t.append((f"c{i}", pre, post))

    left_places = [f"I{i}" for i in range(len(producers))] + left_extra + boundary
    rng.shuffle(left_places)
    right_places = boundary + right_extra + [f"O{i}" for i in range(len(consumers))]
    rng.shuffle(right_places)
    left = {"places": left_places, "transitions": left_t}
    right = {"places": right_places, "transitions": right_t}
    objects = sorted(set(left_places) | set(right_places))
    return {
        "left": left,
        "right": right,
        "semantics": presentation_of([left, right], objects),
        "pairing": [(b, b) for b in boundary],
    }


def fig8a_pair() -> dict:
    """The worked boundary composition of the paper (figure 8a)."""
    left = {"places": ["A", "C", "B"], "transitions": [("f", {"A": 2}, {"C": 1, "B": 1})]}
    right = {
        "places": ["C", "D", "E"],
        "transitions": [("h", {"C": 2}, {"D": 1}), ("k", {"C": 1}, {"E": 1})],
    }
    return {
        "left": left,
        "right": right,
        "semantics": presentation_of([left, right], ["A", "B", "C", "D", "E"]),
        "pairing": [("C", "C")],
    }


def compose_inputs(seed: int) -> list[dict]:
    """Seeded pairs, then fig8a.

    The draw is stratified so that every seed has the same mix of costs:
    the heavy splits, sorted by least firing total, are cut into one
    stratum per pair and each pair draws from its own; light amounts
    and extra places come in equal shares.
    """
    rng = random.Random(f"compose-{seed}")
    splits = heavy_splits()
    n = COMPOSE_PAIRS
    heavy = [rng.choice(splits[k * len(splits) // n:(k + 1) * len(splits) // n]) for k in range(n)]
    rng.shuffle(heavy)
    light = balanced(rng, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)], 2 * n)
    extras = balanced(rng, [True, False], 8 * n)
    pairs = [
        compose_pair(rng, heavy[k], light[2 * k:2 * k + 2], extras[8 * k:8 * k + 8])
        for k in range(n)
    ]
    return pairs + [fig8a_pair()]


# ---------------------------------------------------------------------------
# terms: equality of generated morphism terms
#
# A chain is a list of steps (wire, label) over ``width`` wires of one
# object ``W``.  A tensor is two layers of single-wire boxes around a
# symmetry.  Every generator is an endomorphism of ``W``.

CHAIN_WIDTH = 3
LABELS = 6
DEEP_CHAIN = 2000


def term_presentation() -> dict:
    return {
        "objects": ["W"],
        "morphisms": [(f"g{i}", ["W"], ["W"]) for i in range(LABELS)],
    }


def _ids(n: int) -> str:
    return "id([" + ",".join(["W"] * n) + "])"


def _step_text(width: int, wire: int, label: str) -> str:
    return f"ten(ten({_ids(wire)},gen({label})),{_ids(width - wire - 1)})"


def _swap_text(width: int, a: int, b: int) -> str:
    perm = list(range(width))
    perm[a], perm[b] = perm[b], perm[a]
    return "perm([" + ",".join(["W"] * width) + "],[" + ",".join(map(str, perm)) + "])"


def _bracket(parts: list[str], op: str, rng: random.Random | None) -> str:
    """Join parts with a binary operator: left-nested, or a random tree.

    The random tree splits each run near its middle, so its depth stays
    logarithmic.
    """
    if rng is None:
        out = parts[0]
        for part in parts[1:]:
            out = f"{op}({out},{part})"
        return out
    if len(parts) == 1:
        return parts[0]
    quarter = max(1, len(parts) // 4)
    cut = rng.randint(quarter, len(parts) - quarter) if len(parts) > 2 else 1
    return f"{op}({_bracket(parts[:cut], op, rng)},{_bracket(parts[cut:], op, rng)})"


def chain_steps(rng: random.Random, length: int) -> list[tuple[int, str]]:
    return [
        (rng.randrange(CHAIN_WIDTH), f"g{rng.randrange(LABELS)}")
        for _ in range(length)
    ]


def transpose_on_wire(rng: random.Random, steps: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Swap the labels of two consecutive boxes on one wire that differ.

    Labels, their counts and the interface are kept; the morphism is
    not, since the order of boxes along a wire is an invariant.
    """
    pairs = []
    last: dict[int, int] = {}
    for i, (wire, label) in enumerate(steps):
        if wire in last and steps[last[wire]][1] != label:
            pairs.append((last[wire], i))
        last[wire] = i
    i, j = rng.choice(pairs)
    out = list(steps)
    out[i], out[j] = (steps[i][0], steps[j][1]), (steps[j][0], steps[i][1])
    return out


def chain_text(steps: list[tuple[int, str]], rng: random.Random | None) -> str:
    """Render a chain; with ``rng``, rewrite it by the SMC axioms first.

    The rewrites are interchange (adjacent steps on distinct wires
    commute), naturality of the symmetry (a step is conjugated onto
    another wire by a swap) and associativity (random bracketing).
    """
    steps = list(steps)
    if rng is None:
        return _bracket([_step_text(CHAIN_WIDTH, w, g) for w, g in steps], "comp", None)
    for _ in range(len(steps)):
        i = rng.randrange(len(steps) - 1)
        if steps[i][0] != steps[i + 1][0]:
            steps[i], steps[i + 1] = steps[i + 1], steps[i]
    parts = []
    for wire, label in steps:
        if rng.random() < 0.1:
            other = (wire + rng.randrange(1, CHAIN_WIDTH)) % CHAIN_WIDTH
            parts.append(
                "comp(comp("
                + _swap_text(CHAIN_WIDTH, wire, other)
                + ","
                + _step_text(CHAIN_WIDTH, other, label)
                + "),"
                + _swap_text(CHAIN_WIDTH, wire, other)
                + ")"
            )
        else:
            parts.append(_step_text(CHAIN_WIDTH, wire, label))
    return _bracket(parts, "comp", rng)


def tensor_layers(rng: random.Random, width: int) -> tuple[list[str], list[int], list[str]]:
    first = [f"g{rng.randrange(LABELS)}" for _ in range(width)]
    perm = list(range(width))
    rng.shuffle(perm)
    second = [f"g{rng.randrange(LABELS)}" for _ in range(width)]
    return first, perm, second


def tensor_text(layers: tuple[list[str], list[int], list[str]], rng: random.Random | None) -> str:
    """``first ; perm ; second``; with ``rng``, rewritten by the axioms.

    The rewrite moves the second layer through the symmetry (naturality),
    fuses the two boxes on each wire into one composite (interchange)
    and brackets the product at random (associativity).
    """
    first, perm, second = layers
    width = len(first)
    word = "[" + ",".join(["W"] * width) + "]"
    perm_text = f"perm({word},[{','.join(map(str, perm))}])"
    if rng is None:
        first_text = _bracket([f"gen({g})" for g in first], "ten", None)
        second_text = _bracket([f"gen({g})" for g in second], "ten", None)
        return f"comp(comp({first_text},{perm_text}),{second_text})"
    moved = [""] * width
    for i, label in enumerate(second):
        moved[perm[i]] = label
    fused = [f"comp(gen({a}),gen({b}))" for a, b in zip(first, moved)]
    return f"comp({_bracket(fused, 'ten', rng)},{perm_text})"


def transpose_tensor(
    rng: random.Random, layers: tuple[list[str], list[int], list[str]]
) -> tuple[list[str], list[int], list[str]]:
    """Swap the two boxes on one wire whose labels differ."""
    first, perm, second = (list(x) for x in layers)
    wires = [i for i in range(len(first)) if first[perm[i]] != second[i]]
    i = rng.choice(wires)
    first[perm[i]], second[i] = second[i], first[perm[i]]
    return first, perm, second


CHAIN_LENGTH = 100
# An unequal tensor pair is told apart sooner than an equal one of the same
# width; the wider unequal pairs cost about as much as the equal ones.
TENSOR_WIDTH = 55
TENSOR_WIDTH_UNEQUAL = 85
TERM_PAIRS_PER_KIND = 75


def terms_inputs(seed: int) -> list[dict]:
    """Equal and unequal pairs of term texts, with the known verdict."""
    rng = random.Random(f"terms-{seed}")
    pairs = []
    for _ in range(TERM_PAIRS_PER_KIND):
        steps = chain_steps(rng, CHAIN_LENGTH)
        pairs.append(("chain-equal", chain_text(steps, None), chain_text(steps, rng), True))
        steps = chain_steps(rng, CHAIN_LENGTH)
        other = transpose_on_wire(rng, steps)
        pairs.append(("chain-unequal", chain_text(steps, None), chain_text(other, rng), False))
        layers = tensor_layers(rng, TENSOR_WIDTH)
        pairs.append(("tensor-equal", tensor_text(layers, None), tensor_text(layers, rng), True))
        layers = tensor_layers(rng, TENSOR_WIDTH_UNEQUAL)
        other_layers = transpose_tensor(rng, layers)
        pairs.append(
            ("tensor-unequal", tensor_text(layers, None), tensor_text(other_layers, rng), False)
        )
    rng.shuffle(pairs)
    return [
        {"kind": kind, "left": left, "right": right, "equal": equal}
        for kind, left, right, equal in pairs
    ]


# ---------------------------------------------------------------------------
# glue: CLI gluing commands on generated documents
#
# A document is a row of modules.  A module is a copy of one of a few
# seeded module types: a small net whose places and transitions are named
# ``P{m}_{i}`` and ``T{m}_{j}`` after the module index ``m``.  Copies of
# one type carry the same semantics (objects ``S{t}_{i}``, generators
# ``U{t}_{j}``), so a witness may pair them.

GLUE_TYPES = 3
TYPE_SIZES = (3, 4, 4)
TYPE_TRANSITIONS = 3
GLUE_OPS_PER_KIND = 80


def module_types(rng: random.Random) -> list[dict]:
    """Module types of fixed sizes with seeded arcs."""
    types = []
    for t in range(GLUE_TYPES):
        size = TYPE_SIZES[t]
        transitions = []
        for _ in range(TYPE_TRANSITIONS):
            ins = rng.sample(range(size), rng.randint(1, 2))
            outs = rng.sample(range(size), rng.randint(1, 2))
            transitions.append(
                ({i: rng.randint(1, 2) for i in ins}, {o: rng.randint(1, 2) for o in outs})
            )
        types.append({"size": size, "transitions": transitions})
    return types


def glue_presentation(types: list[dict]) -> dict:
    objects, morphisms = [], []
    for t, mtype in enumerate(types):
        local = [f"S{t}_{i}" for i in range(mtype["size"])]
        objects.extend(local)
        for j, (pre, post) in enumerate(mtype["transitions"]):
            dom = [local[i] for i in sorted(pre) for _ in range(pre[i])]
            cod = [local[i] for i in sorted(post) for _ in range(post[i])]
            morphisms.append((f"U{t}_{j}", dom, cod))
    return {"objects": objects, "morphisms": morphisms}


def module_net(types: list[dict], modules: list[tuple[int, int]]) -> dict:
    """Net spec of a row of ``(module index, type)`` copies."""
    places, transitions = [], []
    for m, t in modules:
        mtype = types[t]
        places.extend(f"P{m}_{i}" for i in range(mtype["size"]))
        for j, (pre, post) in enumerate(mtype["transitions"]):
            transitions.append(
                (
                    f"T{m}_{j}",
                    {f"P{m}_{i}": c for i, c in pre.items()},
                    {f"P{m}_{i}": c for i, c in post.items()},
                )
            )
    return {"places": places, "transitions": transitions}


def module_document(types: list[dict], modules: list[tuple[int, int]]) -> dict:
    """The JSON net document of a row of modules, folded onto the types."""
    net = module_net(types, modules)
    sem = glue_presentation(types)
    object_map, morphism_map = {}, {}
    for m, t in modules:
        for i in range(types[t]["size"]):
            object_map[f"P{m}_{i}"] = [f"S{t}_{i}"]
        for j in range(len(types[t]["transitions"])):
            morphism_map[f"T{m}_{j}"] = f"gen(U{t}_{j})"
    return {
        "places": net["places"],
        "transitions": [
            {"name": name, "pre": pre, "post": post} for name, pre, post in net["transitions"]
        ],
        "semantics": {
            "backend": "free",
            "objects": sem["objects"],
            "morphisms": [
                {"name": name, "dom": dom, "cod": cod} for name, dom, cod in sem["morphisms"]
            ],
        },
        "fold": {"objects": object_map, "morphisms": morphism_map},
    }


def module_row(rng: random.Random, first: int, count: int) -> list[tuple[int, int]]:
    """``count`` modules numbered from ``first``, types in equal shares."""
    kinds = [k % GLUE_TYPES for k in range(count)]
    rng.shuffle(kinds)
    return [(first + k, t) for k, t in enumerate(kinds)]


def same_type_pairs(
    rng: random.Random, left: list[tuple[int, int]], right: list[tuple[int, int]], count: int
) -> list[tuple[int, int, int]]:
    """``count`` pairs ``(left module, right module, type)`` of one type."""
    pairs = []
    while len(pairs) < count:
        a, t = rng.choice(left)
        options = [b for b, u in right if u == t and b != a]
        if options:
            pairs.append((a, rng.choice(options), t))
    return pairs


def copies_witness(types: list[dict], pairs: list[tuple[int, int, int]]) -> tuple[dict, dict, dict]:
    """Witness net of whole-module copies, with its two functor documents."""
    places, transitions = [], []
    left = {"objects": {}, "morphisms": {}}
    right = {"objects": {}, "morphisms": {}}
    for c, (a, b, t) in enumerate(pairs):
        mtype = types[t]
        for i in range(mtype["size"]):
            places.append(f"w{c}_{i}")
            left["objects"][f"w{c}_{i}"] = [f"P{a}_{i}"]
            right["objects"][f"w{c}_{i}"] = [f"P{b}_{i}"]
        for j, (pre, post) in enumerate(mtype["transitions"]):
            transitions.append(
                {
                    "name": f"v{c}_{j}",
                    "pre": {f"w{c}_{i}": n for i, n in pre.items()},
                    "post": {f"w{c}_{i}": n for i, n in post.items()},
                }
            )
            left["morphisms"][f"v{c}_{j}"] = f"gen(T{a}_{j})"
            right["morphisms"][f"v{c}_{j}"] = f"gen(T{b}_{j})"
    return {"places": places, "transitions": transitions}, left, right


def places_witness(
    rng: random.Random, types: list[dict], pairs: list[tuple[int, int, int]]
) -> tuple[dict, dict, dict]:
    """Witness net of single places, one paired place per module pair."""
    places = []
    left = {"objects": {}, "morphisms": {}}
    right = {"objects": {}, "morphisms": {}}
    for c, (a, b, t) in enumerate(pairs):
        i = rng.randrange(types[t]["size"])
        places.append(f"o{c}")
        left["objects"][f"o{c}"] = [f"P{a}_{i}"]
        right["objects"][f"o{c}"] = [f"P{b}_{i}"]
    return {"places": places, "transitions": []}, left, right


# Sized so that the four kinds of command cost about the same.
PLACES_MODULES = 12
PLACE_PAIRS = 4
COPIES_MODULES = 14
COPY_PAIRS = 3
PUSHOUT_MODULES = 7
PUSHOUT_PAIRS = 2
COPRODUCT_MODULES = 14


def glue_inputs(seed: int) -> list[dict]:
    """Documents and commands; file names are relative to a work directory.

    Each op is ``{"kind", "argv", "files"}`` where ``files`` maps a file
    name to the JSON document to write there and ``argv`` names those
    files and the output ``out.json``.  ``spec`` holds what the checks
    need: the input nets and the witness pairs.
    """
    rng = random.Random(f"glue-{seed}")
    types = module_types(rng)
    ops = []
    for n in range(GLUE_OPS_PER_KIND):
        modules = module_row(rng, 0, PLACES_MODULES)
        doc = module_document(types, modules)
        wnet, lmap, rmap = places_witness(
            rng, types, same_type_pairs(rng, modules, modules, PLACE_PAIRS)
        )
        ops.append(
            {
                "kind": "identify-places",
                "files": {
                    f"ip{n}.json": doc,
                    f"ip{n}-w.json": {"net": wnet, "l": lmap, "r": rmap},
                },
                "argv": ["identify", f"ip{n}.json", "--witness", f"ip{n}-w.json"],
                "spec": {"net": doc, "witness": wnet, "l": lmap, "r": rmap},
            }
        )
        modules = module_row(rng, 0, COPIES_MODULES)
        doc = module_document(types, modules)
        wnet, lmap, rmap = copies_witness(
            types, same_type_pairs(rng, modules, modules, COPY_PAIRS)
        )
        ops.append(
            {
                "kind": "identify-transitions",
                "files": {
                    f"it{n}.json": doc,
                    f"it{n}-w.json": {"net": wnet, "l": lmap, "r": rmap},
                },
                "argv": ["identify", f"it{n}.json", "--witness", f"it{n}-w.json"],
                "spec": {"net": doc, "witness": wnet, "l": lmap, "r": rmap},
            }
        )
        left = module_row(rng, 0, PUSHOUT_MODULES)
        right = module_row(rng, PUSHOUT_MODULES // 2, PUSHOUT_MODULES)
        ldoc, rdoc = module_document(types, left), module_document(types, right)
        wnet, lmap, rmap = copies_witness(
            types, same_type_pairs(rng, left, right, PUSHOUT_PAIRS)
        )
        ops.append(
            {
                "kind": "pushout",
                "files": {
                    f"po{n}-l.json": ldoc,
                    f"po{n}-r.json": rdoc,
                    f"po{n}-w.json": wnet,
                    f"po{n}-lm.json": lmap,
                    f"po{n}-rm.json": rmap,
                },
                "argv": [
                    "pushout", f"po{n}-l.json", f"po{n}-r.json",
                    "--witness", f"po{n}-w.json",
                    "--l", f"po{n}-lm.json", "--r", f"po{n}-rm.json",
                ],
                "spec": {"left": ldoc, "right": rdoc, "witness": wnet, "l": lmap, "r": rmap},
            }
        )
        left = module_row(rng, 0, COPRODUCT_MODULES)
        right = module_row(rng, COPRODUCT_MODULES // 2, COPRODUCT_MODULES)
        ldoc, rdoc = module_document(types, left), module_document(types, right)
        ops.append(
            {
                "kind": "coproduct",
                "files": {f"cp{n}-l.json": ldoc, f"cp{n}-r.json": rdoc},
                "argv": ["coproduct", f"cp{n}-l.json", f"cp{n}-r.json"],
                "spec": {"left": ldoc, "right": rdoc},
            }
        )
    rng.shuffle(ops)
    return ops
