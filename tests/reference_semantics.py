"""Morphism equality that always compares diagrams, kept as an oracle.

This ``sem_equal`` builds both diagrams in a free backend even when the
two terms are equal.  The tests compare the library's version, which
answers equal terms by a typecheck, against it.
"""
from __future__ import annotations

from petriglue.errors import TypeMismatchError, ValidationError
from petriglue.fssmc import diagram_equal, to_diagram
from petriglue.semantics import FreeSmc, Product, SemanticsHandle, SemValue, Terminal


def sem_equal(handle: SemanticsHandle, first: SemValue, second: SemValue) -> bool:
    """Equality of backend morphism values; parallel inputs required."""
    if isinstance(handle, Terminal):
        return True
    if isinstance(handle, FreeSmc):
        d1, d2 = (to_diagram(term, handle.presentation) for term in (first, second))
        if (d1.inputs, d1.outputs) != (d2.inputs, d2.outputs):
            raise TypeMismatchError("compared terms must be parallel")
        return diagram_equal(d1, d2)
    if isinstance(handle, Product):
        return sem_equal(handle.left, first[0], second[0]) and sem_equal(
            handle.right, first[1], second[1]
        )
    raise ValidationError(f"not a semantics handle: {handle!r}")
