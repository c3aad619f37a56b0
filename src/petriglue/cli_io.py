"""JSON document formats, term expressions, DOT export and the CLI.

Documents are canonicalized on output: object keys sorted, arrays in
declaration order, two-space indentation, trailing newline.  Terms are
embedded as strings in a small expression grammar::

    term := gen(NAME) | id([NAME,...]) | perm([NAME,...],[INT,...])
          | comp(term,term) | ten(term,term)

A NAME is a run of characters other than whitespace and ``()[],`` (so
``comp`` is a name); an INT is ASCII digits; a list may be empty.
Whitespace may stand between any two tokens, never inside one.
:func:`parse_term` reads one regex step per leaf.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Sequence

from .errors import (
    ParseError,
    PetriGlueError,
    SemanticsObstructionError,
    ValidationError,
    VerdictFailedError,
)
from .fssmc import Compose, Gen, Id, MorphismTerm, Perm, Tensor, symmetry
from .functors import StrictFunctor
from .gluing import (
    SyncRecipe,
    Verdict,
    Witness,
    boundary_compose,
    identify,
    is_synchronization,
    monoidal_product,
    pushout_glue,
    synchronize_transitions,
)
from .net_model import (
    Multiset,
    MorphismGenerator,
    PetriNet,
    SmcPresentation,
    Transition,
    Word,
)
from .semantics import (
    Fold,
    FreeFold,
    FreeSmc,
    NetWithSemantics,
    PairFold,
    Product,
    SemanticsHandle,
    Terminal,
    TerminalFold,
    transport,
)

# ---------------------------------------------------------------------------
# Term expressions

_NAME = r"[^\s()\[\],]+"
_TOKEN = re.compile(rf"[()\[\],]|{_NAME}")
_TERM_NAME = re.compile(_NAME)
# A bracketed name list; the names are captured by the group named by format().
_NAMES = rf"\[\s*(?P<{{}}>(?:{_NAME}\s*(?:,\s*{_NAME}\s*)*)?)\]"


# One step of a term: the comp/ten heads opened before a leaf, the leaf,
# the run of ")" closing nodes after it, and the "," that may follow.
_STEP = re.compile(
    rf"""\s*(?P<heads>(?:(?:comp|ten)\s*\(\s*)*)
    (?P<leaf>gen\s*\(\s*(?P<gen>{_NAME})\s*\)
      | id\s*\(\s*{_NAMES.format("id")}\s*\)
      | perm\s*\(\s*{_NAMES.format("word")}\s*,\s*{_NAMES.format("perm")}\s*\))
    (?P<close>(?:\s*\))*)\s*(?P<comma>,?)""",
    re.VERBOSE,
)


def _split(names: str) -> tuple[str, ...]:
    return tuple(names.replace(",", " ").split())


def _index(name: str) -> int:
    """A permutation index: ASCII digits only."""
    if not (name.isascii() and name.isdigit()):
        raise ValueError(name)
    return int(name)


def _leaf(m: re.Match, text: str, pos: int) -> MorphismTerm:
    if m["gen"] is not None:
        return Gen(m["gen"])
    if m["id"] is not None:
        return Id(_split(m["id"]))
    try:
        perm = tuple(map(_index, _split(m["perm"])))
    except ValueError:
        raise _step_error(text, pos) from None
    return symmetry(_split(m["word"]), perm)


def _step_error(text: str, pos: int) -> ParseError:
    """Read the step at ``pos`` token by token up to the token it fails at."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text, pos)] + [(None, len(text))]
    i = 0

    def error(message: str) -> ParseError:
        return ParseError(f"at position {tokens[i][1]}: {message}")

    def take(expected: str | None = None) -> str:
        nonlocal i
        token = tokens[i][0]
        if expected is None and (token is None or token in "()[],"):
            raise error("expected a name")
        if expected is not None and token != expected:
            raise error(f"expected {expected!r}")
        i += 1
        return token

    def names() -> list[str]:
        take("[")
        out = [] if tokens[i][0] == "]" else [take()]
        while out and tokens[i][0] == ",":
            take(",")
            out.append(take())
        take("]")
        return out

    head = take()
    take("(")
    while head in ("comp", "ten"):
        head = take()
        take("(")
    if head not in ("gen", "id", "perm"):
        raise error(f"unknown term constructor {head!r}")
    take() if head == "gen" else names()
    if head == "perm":
        take(",")
        try:
            list(map(_index, names()))
        except ValueError:
            raise error("expected a list of integers") from None
    take(")")
    raise AssertionError(f"the step at {pos} does not match, yet reads as a leaf")


def parse_term(text: str) -> MorphismTerm:
    """Parse a term expression; positions are reported on failure.

    Each step is one ``_STEP`` match.  Open nodes are kept on an explicit
    stack, so nesting depth is limited by memory only, and leaves with
    equal text are one node.
    """
    leaves: dict[str, MorphismTerm] = {}
    opened: dict[str, list[type]] = {}
    # Each open comp/ten node: its constructor, then its first operand once parsed.
    stack: list = []
    pos = 0
    while True:
        m = _STEP.match(text, pos)
        if m is None:
            raise _step_error(text, pos)
        heads, leaf, close, comma = m.group("heads", "leaf", "close", "comma")
        if heads not in opened:
            opened[heads] = [Compose if "comp" in h else Tensor for h in heads.split("(")[:-1]]
        stack += opened[heads]
        value = leaves.get(leaf)
        if value is None:
            value = leaves[leaf] = _leaf(m, text, pos)
        for k in range(close.count(")") if close else 0):
            if not stack or stack[-1] is Compose or stack[-1] is Tensor:
                at = m.start("close") + [i for i, c in enumerate(close) if c == ")"][k]
                expected = "expected ','" if stack else "trailing input after term"
                raise ParseError(f"at position {at}: {expected}")
            first = stack.pop()
            value = stack.pop()(first, value)
        if comma and stack and (stack[-1] is Compose or stack[-1] is Tensor):
            stack.append(value)
            pos = m.end()
            continue
        at = m.start("comma")  # the next token, or the end of the text
        if not stack and at == len(text):
            return value
        if not stack:
            raise ParseError(f"at position {at}: trailing input after term")
        expected = "','" if stack[-1] is Compose or stack[-1] is Tensor else "')'"
        raise ParseError(f"at position {at}: expected {expected}")


def _render(term: MorphismTerm, table: dict, brackets: tuple[str, str] = ("", "")) -> str:
    """Print ``term`` in one walk.  ``table`` maps each leaf type to its
    printer and each operator type to its (head, separator, tail);
    ``brackets`` enclose an operator node under the other operator."""
    parts: list[str] = []
    # Pending items: literal text, or a subterm and the operator type above it.
    stack: list = [(term, type(term))]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        t, above = item
        kind = type(t)
        entry = table.get(kind)
        if entry is None:
            raise ValidationError(f"not a morphism term: {t!r}")
        if callable(entry):
            parts.append(entry(t))
            continue
        head, separator, tail = entry
        opening, closing = ("", "") if kind is above else brackets
        parts.append(opening + head)
        first, second = (getattr(t, field) for field in t.__match_args__)
        stack += (tail + closing, (second, kind), separator, (first, kind))
    return "".join(parts)


_TEXT = {
    Gen: lambda t: f"gen({t.name})",
    Id: lambda t: f"id([{','.join(t.word)}])",
    Perm: lambda t: f"perm([{','.join(t.word)}],[{','.join(map(str, t.perm))}])",
    Compose: ("comp(", ",", ")"),
    Tensor: ("ten(", ",", ")"),
}
_PRETTY = {
    Gen: lambda t: t.name,
    Id: lambda t: f"id({'·'.join(t.word) or 'ε'})",
    Perm: lambda t: f"σ{list(t.perm)}",
    Compose: ("", ";", ""),
    Tensor: ("", "⊗", ""),
}


def term_to_text(term: MorphismTerm) -> str:
    """Canonical expression form; inverse of :func:`parse_term`."""
    return _render(term, _TEXT)


def pretty_term(term: MorphismTerm) -> str:
    """Human form used in DOT labels: ``(f⊗f);k`` style."""
    return _render(term, _PRETTY, ("(", ")"))


# ---------------------------------------------------------------------------
# JSON documents

def _require(doc: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: key {key!r} must be a {kind.__name__}")
    return value


def _names(doc: Any, key: str, where: str) -> Word:
    value = _require(doc, key, list, where)
    if not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: key {key!r} must be a list of names")
    return tuple(value)


def _counts(doc: Any, where: str) -> Multiset:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object of counts")
    for place, count in doc.items():
        if type(count) is not int or count < 1:
            raise ValidationError(f"{where}: count for {place!r} must be a positive integer")
    return Multiset.from_counts(doc)


def _term_names(names: Sequence[str], kind: str, where: str) -> Sequence[str]:
    """``names``, unless one cannot be read back from term text as a NAME."""
    for name in itertools.filterfalse(_TERM_NAME.fullmatch, names):
        raise ValidationError(
            f"{where}: {kind} name {name!r} is not a term NAME: it must be "
            "nonempty, without whitespace or any of ()[],"
        )
    return names


def parse_bare_net(doc: Any, where: str = "net") -> PetriNet:
    places = _term_names(_names(doc, "places", where), "place", where)
    transitions = []
    for i, tdoc in enumerate(_require(doc, "transitions", list, where)):
        name = _require(tdoc, "name", str, f"{where}.transitions[{i}]")
        pre = _counts(_require(tdoc, "pre", dict, f"{where}.transitions[{i}]"), f"{where}.{name}.pre")
        post = _counts(_require(tdoc, "post", dict, f"{where}.transitions[{i}]"), f"{where}.{name}.post")
        transitions.append(Transition(name, pre, post))
    _term_names([t.name for t in transitions], "transition", where)
    return PetriNet(places, tuple(transitions))


def bare_net_to_doc(net: PetriNet) -> dict:
    return {
        "places": list(net.places),
        "transitions": [
            {"name": t.name, "pre": t.pre.to_dict(), "post": t.post.to_dict()}
            for t in net.transitions
        ],
    }


#: Deepest nesting of product backends a document may declare.  Every
#: layer that walks a semantics or fold recurses once per level.
MAX_PRODUCT_DEPTH = 64


def parse_semantics(doc: Any) -> SemanticsHandle:
    """Parse a backend; products nest at most ``MAX_PRODUCT_DEPTH`` deep."""
    return _parse_semantics(doc, 0)


def _parse_semantics(doc: Any, depth: int) -> SemanticsHandle:
    backend = _require(doc, "backend", str, "semantics")
    if backend == "terminal":
        return Terminal()
    if backend == "product":
        if depth == MAX_PRODUCT_DEPTH:
            raise ValidationError(
                f"semantics: products nest deeper than {MAX_PRODUCT_DEPTH}"
            )
        return Product(
            _parse_semantics(_require(doc, "left", dict, "semantics"), depth + 1),
            _parse_semantics(_require(doc, "right", dict, "semantics"), depth + 1),
        )
    if backend == "free":
        if doc.get("equations"):
            raise ValidationError(
                "presentations with equations are not supported: "
                "their word problem is undecidable"
            )
        objects = _term_names(_names(doc, "objects", "semantics"), "object", "semantics")
        morphisms = []
        for i, mdoc in enumerate(_require(doc, "morphisms", list, "semantics")):
            morphisms.append(
                MorphismGenerator(
                    _require(mdoc, "name", str, f"semantics.morphisms[{i}]"),
                    _names(mdoc, "dom", f"semantics.morphisms[{i}]"),
                    _names(mdoc, "cod", f"semantics.morphisms[{i}]"),
                )
            )
        _term_names([m.name for m in morphisms], "morphism", "semantics")
        return FreeSmc(SmcPresentation(objects, tuple(morphisms)))
    raise ParseError(f"semantics: unknown backend {backend!r}")


def semantics_to_doc(handle: SemanticsHandle) -> dict:
    if isinstance(handle, Terminal):
        return {"backend": "terminal"}
    if isinstance(handle, Product):
        return {
            "backend": "product",
            "left": semantics_to_doc(handle.left),
            "right": semantics_to_doc(handle.right),
        }
    return {
        "backend": "free",
        "objects": list(handle.presentation.objects),
        "morphisms": [
            {"name": m.name, "dom": list(m.dom), "cod": list(m.cod)}
            for m in handle.presentation.morphisms
        ],
    }


def parse_fold(doc: Any, source: SmcPresentation, handle: SemanticsHandle) -> Fold:
    if isinstance(handle, Terminal):
        if not isinstance(doc, dict):
            raise ParseError("fold: expected an object")
        return TerminalFold(source)
    if isinstance(handle, Product):
        return PairFold(
            parse_fold(_require(doc, "left", dict, "fold"), source, handle.left),
            parse_fold(_require(doc, "right", dict, "fold"), source, handle.right),
        )
    return FreeFold(StrictFunctor(source, handle.presentation, *_generator_images(doc, "fold")))


def fold_to_doc(fold: Fold) -> dict:
    if isinstance(fold, TerminalFold):
        return {}
    if isinstance(fold, PairFold):
        return {"left": fold_to_doc(fold.left), "right": fold_to_doc(fold.right)}
    assert isinstance(fold, FreeFold)
    return {
        "objects": {name: list(word) for name, word in fold.functor.object_map.items()},
        "morphisms": {
            name: term_to_text(term) for name, term in fold.functor.morphism_map.items()
        },
    }


def parse_net(text: str) -> NetWithSemantics:
    """Load and validate a net document into a net with semantics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("document nests too deeply") from exc
    net = parse_bare_net(doc, "document")
    handle = parse_semantics(_require(doc, "semantics", dict, "document"))
    fold_doc = doc.get("fold", {})
    fold = parse_fold(fold_doc, net.presentation, handle)
    return NetWithSemantics(net, fold)


def serialize_net(net_sem: NetWithSemantics) -> str:
    """Canonical document text; parse and serialize are mutually inverse."""
    doc = bare_net_to_doc(net_sem.net)
    doc["semantics"] = semantics_to_doc(net_sem.semantics)
    doc["fold"] = fold_to_doc(net_sem.fold)
    return _document_text(doc) + "\n"


def _document_text(value: Any, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte, at
    nesting ``indent``, for what documents hold: strs, ints, lists, and
    dicts with str keys.  ``json.dumps`` runs its pure-Python encoder
    whenever it indents; this leaves only string escapes to the C one."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return str(value)
    if kind is not list and kind is not dict:
        raise ValidationError(f"documents hold no {kind.__name__} values: {value!r}")
    if not value:
        return "[]" if kind is list else "{}"
    inner = indent + "  "
    if kind is list:
        items = [_json_string(v) if type(v) is str else _document_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    try:
        items = [
            _json_string(key) + ": "
            + (_json_string(v) if type(v) is str else _document_text(v, inner))
            for key, v in sorted(value.items())
        ]
    except TypeError:  # from sorting or escaping a key that is not a str
        raise ValidationError("document keys must be strings") from None
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _generator_images(doc: Any, where: str) -> tuple[dict[str, Word], dict[str, MorphismTerm]]:
    """Object images as lists of names, morphism images as term strings."""
    objects = _require(doc, "objects", dict, where)
    morphisms = _require(doc, "morphisms", dict, where)
    return (
        {name: _names(objects, name, f"{where}.objects") for name in objects},
        {
            name: parse_term(_require(morphisms, name, str, f"{where}.morphisms"))
            for name in morphisms
        },
    )


def parse_functor(doc: Any, source: SmcPresentation, target: SmcPresentation) -> StrictFunctor:
    return StrictFunctor(source, target, *_generator_images(doc, "functor"))


def parse_witness(doc: Any, target: SmcPresentation) -> Witness:
    net = parse_bare_net(_require(doc, "net", dict, "witness"), "witness.net")
    return Witness(
        net,
        parse_functor(_require(doc, "l", dict, "witness"), net.presentation, target),
        parse_functor(_require(doc, "r", dict, "witness"), net.presentation, target),
    )


def parse_recipe(doc: Any) -> SyncRecipe:
    return SyncRecipe(
        new_name=_term_names([_require(doc, "name", str, "recipe")], "transition", "recipe")[0],
        expression=parse_term(_require(doc, "expression", str, "recipe")),
        prune=_require(doc, "prune", bool, "recipe") if "prune" in doc else False,
    )


# ---------------------------------------------------------------------------
# DOT export

def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _sem_label(value: object) -> str:
    if value is None:
        return "•"
    if isinstance(value, MorphismTerm):
        return pretty_term(value)
    if isinstance(value, tuple) and value and all(isinstance(x, str) for x in value):
        return "·".join(value)
    if isinstance(value, tuple) and len(value) == 2:
        return f"⟨{_sem_label(value[0])},{_sem_label(value[1])}⟩"
    if isinstance(value, tuple) and not value:
        return "ε"
    return str(value)


def export_dot(net: PetriNet, fold: Fold | None = None) -> str:
    """Render a decorated net as a deterministic DOT digraph.

    Places are circles, transitions boxes; arc weights above one label
    the edges.  Node and edge order follows declaration order, so the
    output is byte-identical across runs.
    """
    lines = ["digraph net {", "  rankdir=LR;"]
    for place in net.places:
        label = place
        if fold is not None:
            label = f"{place} : {_sem_label(fold.object_image(place))}"
        lines.append(f"  {_quote('place:' + place)} [shape=circle, label={_quote(label)}];")
    for t in net.transitions:
        label = t.name
        if fold is not None:
            label = f"{t.name} : {_sem_label(fold.morphism_image(t.name))}"
        lines.append(f"  {_quote('trans:' + t.name)} [shape=box, label={_quote(label)}];")
    for t in net.transitions:
        node = _quote("trans:" + t.name)
        for counts, into in ((t.pre.to_dict(), True), (t.post.to_dict(), False)):
            for place in net.places:
                count = counts.get(place, 0)
                if count:
                    ends = (_quote("place:" + place), node)
                    tail, head = ends if into else ends[::-1]
                    suffix = f" [label=\"{count}\"]" if count > 1 else ""
                    lines.append(f"  {tail} -> {head}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command line

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_net(path: str) -> NetWithSemantics:
    return parse_net(_read(path))


def _load_json(path: str) -> Any:
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: document nests too deeply") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PetriGlueError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _print_verdict(verdict: Verdict) -> None:
    if verdict.passed:
        print(f"pass (faithfulness bound {verdict.faithfulness_bound})")
        return
    for failure in verdict.failures:
        print(f"fail {failure.condition}: {failure.detail}")
        for item in failure.certificate:
            text = term_to_text(item) if isinstance(item, MorphismTerm) else str(item)
            print(f"  certificate: {text}")


def _presentation_text(sig: SmcPresentation) -> str:
    lines = ["objects: " + (" ".join(sig.objects) or "(none)")]
    for m in sig.morphisms:
        dom = "·".join(m.dom) or "ε"
        cod = "·".join(m.cod) or "ε"
        lines.append(f"{m.name} : {dom} -> {cod}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petriglue",
        description="Compose Petri nets while respecting their semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net document")
    p.add_argument("net")

    p = sub.add_parser("freecat", help="print the presentation of a net")
    p.add_argument("net")

    p = sub.add_parser("check-functor", help="verify the synchronization conditions")
    p.add_argument("functor")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--faithful-bound", type=int, default=3)

    p = sub.add_parser("sync", help="conflate transitions by a recipe")
    p.add_argument("net")
    p.add_argument("--recipe", required=True)
    p.add_argument("--faithful-bound", type=int, default=3)
    p.add_argument("--out")

    p = sub.add_parser("identify", help="merge components selected by a witness")
    p.add_argument("net")
    p.add_argument("--witness", required=True)
    p.add_argument("--out")

    p = sub.add_parser("coproduct", help="place two nets side by side")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")

    p = sub.add_parser("pushout", help="glue two nets along a witness net")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--witness", required=True)
    p.add_argument("--l", dest="lmap", required=True)
    p.add_argument("--r", dest="rmap", required=True)
    p.add_argument("--out")

    p = sub.add_parser("compose", help="boundary-compose nets on paired places")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pair", action="append", required=True, metavar="LEFT=RIGHT")
    p.add_argument("--faithful-bound", type=int, default=3)
    p.add_argument("--out")

    p = sub.add_parser("transport", help="move a net to a new semantics")
    p.add_argument("net")
    p.add_argument("--functor", required=True)
    p.add_argument("--out")

    p = sub.add_parser("dot", help="render a net document as DOT")
    p.add_argument("net")
    p.add_argument("--out")

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "validate":
        net_sem = _load_net(args.net)
        print(
            f"ok: {len(net_sem.net.places)} places, "
            f"{len(net_sem.net.transitions)} transitions"
        )
        return 0

    if args.command == "freecat":
        net_sem = _load_net(args.net)
        sys.stdout.write(_presentation_text(net_sem.presentation))
        return 0

    if args.command == "check-functor":
        src = _load_net(args.src)
        tgt = _load_net(args.tgt)
        functor = parse_functor(
            _load_json(args.functor), src.presentation, tgt.presentation
        )
        verdict = is_synchronization(functor, src, tgt, args.faithful_bound)
        _print_verdict(verdict)
        return 0 if verdict.passed else 1

    if args.command == "dot":
        net_sem = _load_net(args.net)
        _emit(export_dot(net_sem.net, net_sem.fold), args.out)
        return 0

    # The other commands write the net they build.
    if args.command == "sync":
        net_sem = _load_net(args.net)
        recipe = parse_recipe(_load_json(args.recipe))
        result, _ = synchronize_transitions(net_sem, recipe, args.faithful_bound)
    elif args.command == "identify":
        net_sem = _load_net(args.net)
        witness = parse_witness(_load_json(args.witness), net_sem.presentation)
        result, _ = identify(net_sem, witness)
    elif args.command == "coproduct":
        left = _load_net(args.left)
        right = _load_net(args.right)
        result, _, _ = monoidal_product(left, right)
    elif args.command == "pushout":
        left = _load_net(args.left)
        right = _load_net(args.right)
        witness_net = parse_bare_net(_load_json(args.witness), "witness")
        lmap = parse_functor(_load_json(args.lmap), witness_net.presentation, left.presentation)
        rmap = parse_functor(_load_json(args.rmap), witness_net.presentation, right.presentation)
        result = pushout_glue(left, right, witness_net, lmap, rmap).net
    elif args.command == "compose":
        left = _load_net(args.left)
        right = _load_net(args.right)
        pairing = []
        for pair in args.pair:
            if "=" not in pair:
                raise ParseError(f"--pair must look like LEFT=RIGHT, got {pair!r}")
            lp, rp = pair.split("=", 1)
            pairing.append((lp, rp))
        result = boundary_compose(left, right, pairing, args.faithful_bound).net
    elif args.command == "transport":
        net_sem = _load_net(args.net)
        doc = _load_json(args.functor)
        handle = parse_semantics(_require(doc, "semantics", dict, "functor"))
        if not isinstance(net_sem.fold, FreeFold):
            raise ValidationError("transport requires a net with a free backend")
        change = parse_fold(doc, net_sem.fold.functor.target, handle)
        result = transport(change, net_sem)
    else:
        raise AssertionError(f"unhandled command {args.command!r}")
    _emit(serialize_net(result), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (VerdictFailedError, SemanticsObstructionError) as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        verdict = getattr(exc, "verdict", None)
        if isinstance(verdict, Verdict):
            for failure in verdict.failures:
                print(f"  {failure.condition}: {failure.detail}", file=sys.stderr)
        return 1
    except PetriGlueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
