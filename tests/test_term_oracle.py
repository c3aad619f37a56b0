"""Cross-validate the term scanner against the token-at-a-time parser.

``parse_term`` reads a term in one regex step per leaf and diagnoses a
step that does not match by reading it token by token.  The parser it
replaced is kept in ``reference_cli_io``.  On random term strings and on
mutated ones (characters deleted, duplicated or swapped, whitespace or
junk inserted, truncations) both must return equal terms or raise the
same exception type with the same message.

The one deliberate difference: a permutation index must be ASCII digits.
The old parser took whatever ``int`` accepts (``+1``, ``-0``, ``1_0``,
non-ASCII digits), so the oracle here is the reference parser with that
one rule tightened, and the tests check that the two references differ
only on such indices.
"""
from __future__ import annotations

import random

import pytest

import reference_cli_io as reference
from petriglue import (
    BadPermutationError,
    Gen,
    MorphismGenerator,
    ParseError,
    Perm,
    SmcPresentation,
    diagram_equal,
    parse_term,
    to_diagram,
)
from petriglue.fssmc import compose_terms

NAMES = ("A", "B", "f", "g2", "comp", "ten", "gen", "id", "perm", "x;y", "é", "1", "+0")
WHITESPACE = (" ", "  ", "\t", "\n", "\u00a0")
LOOP = SmcPresentation(("A",), (MorphismGenerator("f", ("A",), ("A",)),))
JUNK = ("(", ")", "[", "]", ",", "comp(", "ten(", "gen(", "id(", "perm(", "+", "-", "_",
        "١", "0", "9", "x")


class _StrictIndices(reference._TermParser):
    """The reference parser, taking only ASCII digits as indices."""

    def int_list(self) -> tuple[int, ...]:
        names = self.name_list()
        if not all(n.isascii() and n.isdigit() for n in names):
            raise self.error("expected a list of integers")
        return tuple(int(n) for n in names)


def strict_parse(text: str):
    parser = _StrictIndices(text)
    term = parser.term()
    if parser.peek() is not None:
        raise parser.error("trailing input after term")
    return term


def outcome(parse, text: str):
    try:
        return parse(text)
    except (ParseError, BadPermutationError) as exc:
        return type(exc), str(exc)


def random_tokens(rng: random.Random, depth: int) -> list[str]:
    """The tokens of a random term, with small leaves and random nesting."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(("gen", "id", "perm"))
        if kind == "gen":
            return ["gen", "(", rng.choice(NAMES), ")"]
        word = [rng.choice(NAMES) for _ in range(rng.randint(0, 3))]
        listed = ["["] + [t for n in word for t in (n, ",")][:-1] + ["]"]
        if kind == "id":
            return ["id", "("] + listed + [")"]
        perm = list(range(len(word)))
        rng.shuffle(perm)
        indices = ["["] + [t for p in perm for t in (str(p), ",")][:-1] + ["]"]
        return ["perm", "("] + listed + [","] + indices + [")"]
    head = rng.choice(("comp", "ten"))
    return ([head, "("] + random_tokens(rng, depth - 1) + [","]
            + random_tokens(rng, depth - 1) + [")"])


def random_text(rng: random.Random) -> str:
    tokens = random_tokens(rng, rng.randint(0, 5))
    spaced = rng.random() < 0.5
    return "".join(
        t + (rng.choice(WHITESPACE) if spaced and rng.random() < 0.3 else "") for t in tokens
    )


def mutate(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    kind = rng.choice(("delete", "duplicate", "swap", "space", "junk", "index", "truncate"))
    digits = [j for j, c in enumerate(text) if c in "0123456789"]
    if kind == "index" and digits:
        i = rng.choice(digits)
        return text[:i] + rng.choice(("+", "-", "_1", "١", "²")) + text[i:]
    if kind == "delete":
        return text[:i] + text[i + 1:]
    if kind == "duplicate":
        return text[:i] + text[i:i + 1] * 2 + text[i + 1:]
    if kind == "swap":
        return text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    if kind == "space":
        return text[:i] + rng.choice(WHITESPACE) + text[i:]
    if kind == "junk":
        return text[:i] + rng.choice(JUNK) + text[i:]
    return text[:i]


def assert_agrees(text: str) -> None:
    new, strict = outcome(parse_term, text), outcome(strict_parse, text)
    assert new == strict, text
    old = outcome(reference.parse_term, text)
    if old != strict:
        # Only the index rule tells the references apart.
        assert strict[1].endswith("expected a list of integers"), text


class TestAgainstTokenParser:
    def test_random_terms(self):
        rng = random.Random(12)
        for _ in range(3000):
            text = random_text(rng)
            assert not isinstance(outcome(parse_term, text), tuple), text
            assert_agrees(text)

    def test_mutated_terms(self):
        rng = random.Random(13)
        for _ in range(6000):
            text = random_text(rng)
            for _ in range(rng.randint(1, 3)):
                text = mutate(rng, text)
            assert_agrees(text)

    @pytest.mark.parametrize(
        "text",
        ["", " ", "(", ")", ",", "gen", "gen(", "gen(f", "gen(f)", "comp(", "comp(,",
         "comp(gen(f),", "comp(gen(f),gen(g)", "comp(gen(f),gen(g)))", "ten(gen(f)))",
         "id([", "id([A", "id([A,", "id([A]", "id([A])", "perm([A],", "perm([A],[",
         "perm([A],[0", "perm([A],[0]", "perm([A],[1])", "perm([A],[x]", "perm([A],[x])",
         "perm([A,B],[0,0])", "comp(comp(gen(f),gen(g)),gen(h)) ,", "ten(id([]),id([]))x"],
    )
    def test_prefixes_and_near_misses(self, text):
        assert_agrees(text)


class TestPermutationIndices:
    @pytest.mark.parametrize("index", ["+1", "-0", "1_0", "١", "¹", "+١"])
    def test_junk_index_rejected(self, index):
        text = f"perm([A,B],[{index},0])"
        with pytest.raises(ParseError) as info:
            parse_term(text)
        assert str(info.value) == f"at position {len(text) - 1}: expected a list of integers"

    def test_index_longer_than_int_conversion_allows(self):
        with pytest.raises(ParseError, match="expected a list of integers"):
            parse_term(f"perm([A],[{'0' * 5000}1])")

    def test_leading_zeros_are_digits(self):
        assert parse_term("perm([A,B],[01,0])") == Perm(("A", "B"), (1, 0))


class TestSharedLeaves:
    def test_equal_leaf_texts_are_one_node(self):
        term = parse_term("comp(ten(gen(f),gen(g)),ten(gen(f),gen( g )))")
        assert term.first.left is term.second.left
        assert term.first.right == term.second.right

    def test_shared_nodes_are_separate_boxes(self):
        term = parse_term("comp(gen(f),comp(gen(f),gen(f)))")
        assert term.first is term.second.first is term.second.second
        diagram = to_diagram(term, LOOP)
        assert diagram.boxes == ("f", "f", "f")
        assert diagram_equal(diagram, to_diagram(compose_terms([Gen("f")] * 3), LOOP))
