"""The term parser as it was before the one-step-per-leaf scanner, kept as an oracle.

``_TermParser`` tokenizes the whole text first and then reads one token
at a time through ``peek``, ``expect`` and ``atom``.  The tests compare
the library's ``parse_term`` with this one on random and mutated term
strings: equal terms, or the same exception type and message.
"""
from __future__ import annotations

import re

from petriglue.errors import ParseError
from petriglue.fssmc import Compose, Gen, Id, MorphismTerm, Tensor, symmetry

_PUNCTUATION = set("()[],")
_TOKEN = re.compile(r"[()\[\],]|[^\s()\[\],]+")


class _TermParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.pos = 0

    def error(self, message: str) -> ParseError:
        at = self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)
        return ParseError(f"at position {at}: {message}")

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def expect(self, value: str) -> None:
        if self.peek() != value:
            raise self.error(f"expected {value!r}")
        self.pos += 1

    def atom(self) -> str:
        token = self.peek()
        if token is None or token in _PUNCTUATION:
            raise self.error("expected a name")
        self.pos += 1
        return token

    def name_list(self) -> tuple[str, ...]:
        self.expect("[")
        names: list[str] = []
        if self.peek() == "]":
            self.pos += 1
            return ()
        names.append(self.atom())
        while self.peek() == ",":
            self.pos += 1
            names.append(self.atom())
        self.expect("]")
        return tuple(names)

    def int_list(self) -> tuple[int, ...]:
        names = self.name_list()
        try:
            return tuple(int(n) for n in names)
        except ValueError as exc:
            raise self.error("expected a list of integers") from exc

    def term(self) -> MorphismTerm:
        """Parse one term; nesting depth is limited by memory only."""
        # Each open comp/ten node: its head and, once parsed, its first operand.
        open_nodes: list[list] = []
        while True:
            head = self.atom()
            self.expect("(")
            if head == "comp" or head == "ten":
                open_nodes.append([head, None])
                continue
            value = self.leaf(head)
            while open_nodes:
                node = open_nodes[-1]
                if node[1] is None:
                    node[1] = value
                    self.expect(",")
                    break
                self.expect(")")
                open_nodes.pop()
                value = Compose(node[1], value) if node[0] == "comp" else Tensor(node[1], value)
            else:
                return value

    def leaf(self, head: str) -> MorphismTerm:
        if head == "gen":
            name = self.atom()
            self.expect(")")
            return Gen(name)
        if head == "id":
            word = self.name_list()
            self.expect(")")
            return Id(word)
        if head == "perm":
            word = self.name_list()
            self.expect(",")
            perm = self.int_list()
            self.expect(")")
            return symmetry(word, perm)
        raise self.error(f"unknown term constructor {head!r}")


def parse_term(text: str) -> MorphismTerm:
    """Parse a term expression; positions are reported on failure."""
    parser = _TermParser(text)
    term = parser.term()
    if parser.peek() is not None:
        raise parser.error("trailing input after term")
    return term
