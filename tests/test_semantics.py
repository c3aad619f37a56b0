"""Backends, folds, morphism equality, products and transport."""
from __future__ import annotations

import copy
import random

import pytest

from petriglue import (
    Compose,
    Fold,
    FreeFold,
    FreeSmc,
    Gen,
    Id,
    MorphismGenerator,
    NetWithSemantics,
    Product,
    SemanticsMismatchError,
    SmcPresentation,
    SourceMismatchError,
    StrictFunctor,
    Terminal,
    TerminalFold,
    TypeMismatchError,
    commutes_with_semantics,
    free_smc,
    identity_fold,
    identity_functor,
    pair_folds,
    sem_equal,
    symmetry,
    terminal_net,
    transport,
    typecheck,
)
import reference_semantics
from support import (
    fig1_net,
    fig1_nws,
    outcome,
    random_embedding,
    random_rewrite,
    random_term,
    random_term_with_dom,
)

SIG = free_smc(fig1_net())


class TestSemEqual:
    def test_terminal_everything_equal(self):
        assert sem_equal(Terminal(), Gen("g"), Compose(Gen("g"), Gen("k")))

    def test_free_symmetry_cancellation(self):
        word = ("A", "B")
        term = Compose(symmetry(word, (1, 0)), symmetry(("B", "A"), (1, 0)))
        assert sem_equal(FreeSmc(SIG), term, Id(word))

    def test_free_distinct_generators(self):
        handle = FreeSmc(
            SmcPresentation(
                ("X",),
                (
                    MorphismGenerator("g", ("X",), ("X",)),
                    MorphismGenerator("h", ("X",), ("X",)),
                ),
            )
        )
        assert not sem_equal(handle, Gen("g"), Gen("h"))

    def test_non_parallel_rejected(self):
        with pytest.raises(TypeMismatchError, match="compared terms must be parallel"):
            sem_equal(FreeSmc(SIG), Gen("g"), Gen("h"))

    def test_ill_typed_term_rejected_before_comparison(self):
        with pytest.raises(TypeMismatchError) as caught:
            sem_equal(FreeSmc(SIG), Gen("g"), Compose(Gen("g"), Gen("h")))
        assert "parallel" not in str(caught.value)

    def test_product_is_conjunction(self):
        handle = SmcPresentation(
            ("X",),
            (
                MorphismGenerator("g", ("X",), ("X",)),
                MorphismGenerator("h", ("X",), ("X",)),
            ),
        )
        product = Product(FreeSmc(handle), FreeSmc(handle))
        g, h = Gen("g"), Gen("h")
        assert sem_equal(product, (g, g), (g, g))
        assert not sem_equal(product, (g, g), (g, h))
        assert not sem_equal(product, (h, g), (g, g))
        assert not sem_equal(product, (g, h), (h, g))

    def test_equivalence_relation_per_backend(self):
        rng = random.Random(31)
        handle = FreeSmc(SIG)
        for _ in range(15):
            t = random_term(rng, SIG, 3)
            u = random_rewrite(rng, t, SIG)
            assert sem_equal(handle, t, t)
            assert sem_equal(handle, t, u) == sem_equal(handle, u, t)


def _free_pair(rng: random.Random, kind: str) -> tuple:
    """Two terms over ``SIG`` of the given kind of comparison."""
    t = random_term(rng, SIG, 4)
    dom, cod = typecheck(t, SIG)
    if kind == "same":
        return t, t
    if kind == "copy":
        return t, copy.deepcopy(t)
    if kind == "rewrite":
        return t, random_rewrite(rng, t, SIG)
    if kind == "unequal":
        if len(cod) >= 2:
            return t, Compose(t, symmetry(cod, (1, 0, *range(2, len(cod)))))
        return t, random_term_with_dom(rng, SIG, dom)
    if kind == "other":
        return t, random_term(rng, SIG, 4)
    bad = rng.choice([Compose(t, Id((*cod, "A"))), Gen("nope"), Id(("Z",))])
    return bad, rng.choice([bad, copy.deepcopy(bad)])


class TestSemEqualAgainstDiagramOracle:
    """``sem_equal`` against ``reference_semantics.sem_equal``, which builds
    both diagrams for every free comparison."""

    KINDS = ("same", "copy", "rewrite", "unequal", "other", "ill-typed")

    def test_random_comparisons(self):
        rng = random.Random(71)
        free = FreeSmc(SIG)
        handles = [
            free,
            Terminal(),
            Product(free, free),
            Product(free, Terminal()),
            Product(Terminal(), free),
        ]
        seen = set()
        for _ in range(400):
            handle = rng.choice(handles)
            if isinstance(handle, Product):
                left = _free_pair(rng, rng.choice(self.KINDS))
                right = _free_pair(rng, rng.choice(self.KINDS))
                first, second = (left[0], right[0]), (left[1], right[1])
            else:
                first, second = _free_pair(rng, rng.choice(self.KINDS))
            result = outcome(sem_equal, handle, first, second)
            assert result == outcome(reference_semantics.sem_equal, handle, first, second)
            if isinstance(result, bool):
                seen.add(result)
            else:
                seen.add("not parallel" if "parallel" in result[1] else result[0].__name__)
        assert seen == {
            True,
            False,
            "not parallel",
            "TypeMismatchError",
            "UnknownGeneratorError",
        }

    def test_ill_typed_term_against_itself(self):
        bad = Compose(Gen("g"), Gen("h"))
        for second in (bad, copy.deepcopy(bad)):
            result = outcome(sem_equal, FreeSmc(SIG), bad, second)
            assert result[0] is TypeMismatchError
            assert "parallel" not in result[1]
            assert result == outcome(reference_semantics.sem_equal, FreeSmc(SIG), bad, second)


class TestProductFolds:
    def test_pair_and_project(self):
        nws = fig1_nws()
        left = nws.fold
        right = TerminalFold(SIG)
        paired = pair_folds(left, right)
        assert paired.left is left
        assert paired.right is right
        assert paired.semantics == Product(left.semantics, Terminal())

    def test_pairing_requires_shared_source(self):
        with pytest.raises(SourceMismatchError):
            pair_folds(identity_fold(fig1_net()), TerminalFold(SmcPresentation(("Z",), ())))

    def test_fold_is_one_of_three_shapes(self):
        free = identity_fold(fig1_net())
        for fold in (free, TerminalFold(SIG), pair_folds(free, TerminalFold(SIG))):
            assert isinstance(fold, Fold)
        assert not isinstance(Terminal(), Fold)

    def test_paired_images_are_pairs(self):
        nws = fig1_nws()
        paired = pair_folds(nws.fold, TerminalFold(SIG))
        assert paired.object_image("A") == (("A",), None)
        value = paired.morphism_image("g")
        assert value[0] == Gen("g") and value[1] is None


class TestCommutes:
    def test_terminal_always_commutes(self):
        nws = terminal_net(fig1_net())
        assert commutes_with_semantics(identity_functor(SIG), nws, nws)

    def test_identity_commutes(self):
        nws = fig1_nws()
        assert commutes_with_semantics(identity_functor(SIG), nws, nws)

    def test_perturbed_decoration_fails(self):
        nws = fig1_nws()
        # cross the two A inputs of g's decoration: parallel to gen(g)
        # but a different morphism, so commutation breaks
        g_dom = SIG.morphism("g").dom
        crossing = symmetry(g_dom, (1, 0, 2, 3, 4, 5))
        twisted = FreeFold(
            StrictFunctor(
                SIG,
                SIG,
                {o: (o,) for o in SIG.objects},
                {
                    "f": Gen("f"),
                    "g": Compose(crossing, Gen("g")),
                    "h": Gen("h"),
                    "k": Gen("k"),
                },
            )
        )
        other = NetWithSemantics(fig1_net(), twisted)
        assert not commutes_with_semantics(identity_functor(SIG), nws, other)

    def test_mismatched_semantics_rejected(self):
        with pytest.raises(SemanticsMismatchError):
            commutes_with_semantics(
                identity_functor(SIG), fig1_nws(), terminal_net(fig1_net())
            )


class TestTransport:
    def test_identity_change_keeps_fold(self):
        nws = fig1_nws()
        change = FreeFold(identity_functor(SIG))
        moved = transport(change, nws)
        assert moved.fold.functor.object_map == nws.fold.functor.object_map

    def test_to_terminal(self):
        nws = fig1_nws()
        moved = transport(TerminalFold(SIG), nws)
        assert moved.semantics == Terminal()
        assert moved.net == nws.net

    def test_requires_free_backend(self):
        nws = terminal_net(fig1_net())
        with pytest.raises(SemanticsMismatchError):
            transport(TerminalFold(SIG), nws)

    def test_morphisms_stay_morphisms(self):
        rng = random.Random(33)
        nws = fig1_nws()
        change = FreeFold(random_embedding(rng, SIG))
        src = transport(change, nws)
        tgt = transport(change, nws)
        assert commutes_with_semantics(identity_functor(SIG), src, tgt)
