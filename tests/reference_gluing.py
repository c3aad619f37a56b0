"""Identification by chained two-place merges, kept as an oracle.

Before every witness went through the coequalizer, ``identify`` handled
a witness without transitions by composing one ``merge_two_places`` per
witness place.  Each merge re-sorts the words the previous one left, so
the composite's symmetries can differ from the single stable sort of
``coequalize_tp``; the induced fold is then rejected although the
identification is valid.  The tests compare ``identify`` against this
path wherever it succeeds.
"""
from __future__ import annotations

from typing import Sequence

from petriglue import (
    NetWithSemantics,
    SemanticsObstructionError,
    SmcPresentation,
    StrictFunctor,
    Witness,
    compose_functors,
    factor_fold_through_coequalizer,
    identity_functor,
    merge_two_places,
    net_of_presentation,
)


def _sequential_merge(
    sig: SmcPresentation, pairs: Sequence[tuple[str, str]]
) -> StrictFunctor:
    """Composite of two-place merges, keeping the order-minimal name."""
    total = identity_functor(sig)
    current = sig
    for left_name, right_name in pairs:
        a = total.map_object(left_name)[0]
        b = total.map_object(right_name)[0]
        if a == b:
            continue
        order = {name: i for i, name in enumerate(current.objects)}
        keep, drop = (a, b) if order[a] <= order[b] else (b, a)
        current, step = merge_two_places(current, keep, drop)
        total = compose_functors(total, step)
    return total


def identify_by_merges(
    net_sem: NetWithSemantics, witness: Witness
) -> tuple[NetWithSemantics, StrictFunctor]:
    """The old ``identify`` on a witness with places only."""
    assert not witness.net.transitions
    fold = net_sem.fold
    pairs = [
        (witness.left.map_object(o)[0], witness.right.map_object(o)[0])
        for o in witness.net.places
    ]
    for obj, (left_obj, right_obj) in zip(witness.net.places, pairs):
        if fold.object_image(left_obj) != fold.object_image(right_obj):
            raise SemanticsObstructionError(
                f"witness place {obj!r} pairs places with different semantics"
            )
    coequalizer = _sequential_merge(net_sem.presentation, pairs)
    induced = factor_fold_through_coequalizer(coequalizer, fold)
    result = NetWithSemantics(net_of_presentation(coequalizer.target), induced)
    return result, coequalizer
