"""Synchronizations, identifications, coproducts, pushouts, boundaries."""
from __future__ import annotations

import inspect
import itertools
import json
import random
import sys

import pytest

from petriglue import (
    BoundaryComposition,
    BoundaryOrientationError,
    BudgetExceededError,
    Compose,
    EmptyDecompositionError,
    FreeFold,
    Gen,
    Id,
    MorphismGenerator,
    Multiset,
    NetWithSemantics,
    PairFold,
    Perm,
    PetriGlueError,
    PetriNet,
    PreconditionFailedError,
    SamePlaceError,
    SemanticsObstructionError,
    SmcPresentation,
    StrictFunctor,
    SyncRecipe,
    Tensor,
    TerminalFold,
    Transition,
    ValidationError,
    VerdictFailedError,
    WellDefinednessError,
    Witness,
    apply_functor,
    boundary_compose,
    coequalize_tp,
    commutes_with_semantics,
    compose_functors,
    factor_fold_through_coequalizer,
    free_smc,
    identify,
    identity_functor,
    is_injective_on_object_generators,
    is_synchronization,
    is_transition_preserving,
    make_synchronization,
    merge_two_places,
    minimal_firing_vector,
    monoidal_product,
    net_coproduct,
    net_of_presentation,
    presentations_isomorphic,
    pushout_glue,
    sem_equal,
    serialize_net,
    symmetry,
    terminal_net,
    terms_equal,
    synchronize_transitions,
)
import petriglue.functors
import petriglue.gluing
import petriglue.net_model
from petriglue.cli_io import parse_net, parse_witness
from petriglue.fssmc import apply_perm, identity_perm
import reference_functors
import reference_gluing
from reference_gluing import _sequential_merge, identify_by_merges
from reference_gluing import factor_fold_through_coequalizer as reference_factor_fold
from reference_gluing import minimal_firing_vector as reference_firing_vector
from reference_gluing import table_firing_vector
from support import (
    FIXTURES,
    collapsing_split_pair,
    fig1_nws,
    fig5a_nws,
    fig8a_nets,
    net,
    o_n_witness_functor,
    outcome,
    random_net,
    random_tp_pair,
)


class TestIsSynchronization:
    def test_gk_conflation_passes(self):
        fig1 = fig1_nws()
        result, functor = synchronize_transitions(
            fig1, SyncRecipe("gk", Compose(Gen("g"), Gen("k")))
        )
        verdict = is_synchronization(functor, result, fig1, 3)
        assert verdict.passed
        assert verdict.faithfulness_bound == 3

    def test_coverage_failure(self):
        fig1 = fig1_nws()
        tiny = net(["A"], [])
        functor = StrictFunctor(
            free_smc(tiny), fig1.presentation, {"A": ("A",)}, {}
        )
        src = NetWithSemantics(tiny, fig1.fold.after(functor))
        verdict = is_synchronization(functor, src, fig1, 2)
        assert not verdict.passed
        assert [f.condition for f in verdict.failures] == ["covers_all_target_generators"]

    def test_identity_passes(self):
        fig1 = fig1_nws()
        verdict = is_synchronization(identity_functor(fig1.presentation), fig1, fig1, 3)
        assert verdict.passed


class TestMakeSynchronization:
    def test_gk_decoration(self):
        fig1 = fig1_nws()
        _, functor = synchronize_transitions(
            fig1, SyncRecipe("gk", Compose(Gen("g"), Gen("k")))
        )
        made = make_synchronization(fig1, net_of_presentation(functor.source), functor)
        assert sem_equal(
            made.semantics, made.fold.morphism_image("gk"), Compose(Gen("g"), Gen("k"))
        )
        assert commutes_with_semantics(functor, made, fig1)

    def test_gh_decoration(self):
        fig1 = fig1_nws()
        result, _ = synchronize_transitions(
            fig1, SyncRecipe("gh", Tensor(Gen("g"), Gen("h")))
        )
        assert sem_equal(
            result.semantics, result.fold.morphism_image("gh"), Tensor(Gen("g"), Gen("h"))
        )

    def test_identity_returns_target(self):
        fig1 = fig1_nws()
        made = make_synchronization(
            fig1, fig1.net, identity_functor(fig1.presentation)
        )
        assert made.net == fig1.net
        for gen in fig1.presentation.morphisms:
            assert sem_equal(
                fig1.semantics,
                made.fold.morphism_image(gen.name),
                fig1.fold.morphism_image(gen.name),
            )

    def test_rejects_uncovering_functor(self):
        fig1 = fig1_nws()
        tiny = net(["A"], [])
        functor = StrictFunctor(free_smc(tiny), fig1.presentation, {"A": ("A",)}, {})
        with pytest.raises(VerdictFailedError):
            make_synchronization(fig1, tiny, functor)


class TestSynchronizeTransitions:
    def test_gk_conflation_net(self):
        fig1 = fig1_nws()
        result, _ = synchronize_transitions(
            fig1, SyncRecipe("gk", Compose(Gen("g"), Gen("k")))
        )
        assert result.net.places == ("A", "B", "C", "D", "E", "F")
        gk = result.net.transition("gk")
        assert gk.pre.to_dict() == {"A": 2, "B": 1, "C": 3}
        assert gk.post.to_dict() == {}
        assert {t.name for t in result.net.transitions} == {"f", "h", "gk"}

    def test_mixed_conflation_net(self):
        fig1 = fig1_nws()
        expr = Compose(Tensor(Gen("g"), Gen("h")), Tensor(Gen("k"), Id(("F",))))
        result, functor = synchronize_transitions(fig1, SyncRecipe("ghk", expr))
        ghk = result.net.transition("ghk")
        assert ghk.pre.to_dict() == {"A": 2, "B": 1, "C": 4, "D": 4}
        assert ghk.post.to_dict() == {"F": 1}
        assert sem_equal(result.semantics, result.fold.morphism_image("ghk"), expr)

    def test_prune_removes_orphaned_place(self):
        fig1 = fig1_nws()
        result, functor = synchronize_transitions(
            fig1, SyncRecipe("gk", Compose(Gen("g"), Gen("k")), prune=True)
        )
        assert result.net.places == ("A", "B", "C", "D", "F")
        assert is_injective_on_object_generators(functor)
        hit = {functor.map_object(p)[0] for p in result.net.places}
        assert hit == {"A", "B", "C", "D", "F"}

    def test_empty_decomposition_rejected(self):
        with pytest.raises(EmptyDecompositionError):
            synchronize_transitions(fig1_nws(), SyncRecipe("x", Id(("A",))))


class TestCoequalize:
    def test_equal_functors_give_isomorphic_target(self):
        rng = random.Random(41)
        for _ in range(20):
            functor, _ = random_tp_pair(rng)
            quotient, coeq = coequalize_tp(functor, functor)
            assert presentations_isomorphic(quotient, functor.target)
            assert is_transition_preserving(coeq)

    def test_place_merge_via_witness(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        witness_net = PetriNet(("o",), ())
        left = o_n_witness_functor(witness_net, sig, {"o": "C1"})
        right = o_n_witness_functor(witness_net, sig, {"o": "C2"})
        quotient, coeq = coequalize_tp(left, right)
        assert quotient.objects == ("A", "B", "C1")
        assert quotient.morphism("g").cod == ("C1", "C1")
        assert quotient.morphism("h").dom == ("C1", "C1")
        assert is_transition_preserving(coeq)

    def test_transition_merge_classes(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        witness = net(["a", "b"], [("t", {"a": 1}, {"b": 1})])
        wsig = free_smc(witness)
        left = StrictFunctor(wsig, sig, {"a": ("A",), "b": ("B",)}, {"t": Gen("f1")})
        right = StrictFunctor(wsig, sig, {"a": ("A",), "b": ("B",)}, {"t": Gen("f2")})
        quotient, coeq = coequalize_tp(left, right)
        assert [m.name for m in quotient.morphisms] == ["f1", "g", "h"]
        assert quotient.morphism("f1").dom == ("A",)
        # the coequalizing condition holds generator-wise
        for gen in wsig.morphisms:
            assert terms_equal(
                apply_functor(coeq, left.morphism_map[gen.name]),
                apply_functor(coeq, right.morphism_map[gen.name]),
                quotient,
            )

    def test_twisted_self_pairing_rejected(self):
        target = SmcPresentation(
            ("x0", "x1"), (MorphismGenerator("m0", (), ("x1", "x0")),)
        )
        source = SmcPresentation(("c0", "c1"), (MorphismGenerator("w0", (), ("c0", "c1")),))
        first = StrictFunctor(
            source, target, {"c0": ("x1",), "c1": ("x0",)}, {"w0": Gen("m0")}
        )
        second = StrictFunctor(
            source,
            target,
            {"c0": ("x0",), "c1": ("x1",)},
            {"w0": Compose(Gen("m0"), symmetry(("x1", "x0"), (1, 0)))},
        )
        with pytest.raises(PreconditionFailedError):
            coequalize_tp(first, second)

    def test_classes_with_different_boundaries_rejected(self):
        """``t1: A -> B`` and ``t2: A X -> X B`` pass every witness check
        but cannot share one quotient generator."""
        target = free_smc(
            net(["A", "X", "B"], [("t1", {"A": 1}, {"B": 1}),
                                  ("t2", {"A": 1, "X": 1}, {"X": 1, "B": 1})])
        )
        witness_net = net(["p", "q", "r"], [("g", {"p": 1, "q": 1}, {"q": 1, "r": 1})])
        objects = {"p": ("A",), "q": ("X",), "r": ("B",)}
        first = StrictFunctor(
            witness_net.presentation,
            target,
            objects,
            {"g": Compose(Tensor(Gen("t1"), Id(("X",))), symmetry(("B", "X"), (1, 0)))},
        )
        second = StrictFunctor(witness_net.presentation, target, objects, {"g": Gen("t2")})
        Witness(witness_net, first, second)
        with pytest.raises(PreconditionFailedError, match="whose boundaries differ"):
            coequalize_tp(first, second)

    def test_pairs_outside_its_domain_rejected(self):
        """The public coequalizer checks its arguments itself: a pair that
        is not place-preserving, or not transition-preserving, is refused."""
        sig = fig5a_nws().presentation
        witness = net(["a", "b"], [("t", {"a": 2}, {"b": 2})])
        places = {"a": ("A",), "b": ("B",)}
        twice = Tensor(Gen("f1"), Gen("f2"))
        two_boxes = StrictFunctor(witness.presentation, sig, places, {"t": twice})
        doubled = StrictFunctor(
            witness.presentation, sig, {"a": ("A",) * 2, "b": ("B",) * 2}, {"t": Tensor(twice, twice)}
        )
        with pytest.raises(PreconditionFailedError, match="must send places to places"):
            coequalize_tp(doubled, doubled)
        with pytest.raises(PreconditionFailedError, match="must be transition-preserving"):
            coequalize_tp(two_boxes, two_boxes)


class TestMergeTwoPlaces:
    def test_fig5a_place_merge(self):
        sig = fig5a_nws().presentation
        merged, coeq = merge_two_places(sig, "C1", "C2")
        assert merged.objects == ("A", "B", "C1")
        assert merged.morphism("g").cod == ("C1", "C1")
        assert merged.morphism("h").dom == ("C1", "C1")
        assert is_transition_preserving(coeq)

    def test_merge_with_unused_place(self):
        sig = SmcPresentation(("A", "X"), (MorphismGenerator("t", ("A",), ("A",)),))
        merged, coeq = merge_two_places(sig, "A", "X")
        assert merged.objects == ("A",)
        assert merged.morphism("t").dom == ("A",)
        assert coeq.morphism_map["t"] == Gen("t")

    def test_same_place_rejected(self):
        with pytest.raises(SamePlaceError):
            merge_two_places(SmcPresentation(("A",), ()), "A", "A")

    def test_agrees_with_coequalizer_on_random_nets(self):
        rng = random.Random(43)
        for _ in range(40):
            n = random_net(rng)
            if len(n.places) < 2:
                continue
            sig = free_smc(n)
            keep, drop = rng.sample(n.places, 2)
            merged, _ = merge_two_places(sig, keep, drop)
            witness_net = PetriNet(("o",), ())
            left = o_n_witness_functor(witness_net, sig, {"o": keep})
            right = o_n_witness_functor(witness_net, sig, {"o": drop})
            quotient, _ = coequalize_tp(left, right)
            assert presentations_isomorphic(merged, quotient)


class TestWitnessPreconditions:
    """Each ``PreconditionFailedError`` branch of ``Witness``."""

    def place_functor(self, witness_net, target, image):
        return StrictFunctor(witness_net.presentation, target, {"o": image}, {})

    def test_functor_not_on_witness_net(self):
        target = fig5a_nws().presentation
        witness_net = PetriNet(("o",), ())
        other = PetriNet(("o", "p"), ())
        stray = StrictFunctor(other.presentation, target, {"o": ("C1",), "p": ("C2",)}, {})
        with pytest.raises(PreconditionFailedError, match="right witness functor is not defined"):
            Witness(witness_net, self.place_functor(witness_net, target, ("C1",)), stray)

    @pytest.mark.parametrize("word", [(), ("C1", "C2")], ids=["empty", "two-letters"])
    def test_place_to_non_generator_word(self, word):
        target = fig5a_nws().presentation
        witness_net = PetriNet(("o",), ())
        with pytest.raises(PreconditionFailedError, match="left witness functor must send places"):
            Witness(
                witness_net,
                self.place_functor(witness_net, target, word),
                self.place_functor(witness_net, target, ("C2",)),
            )

    def test_transition_image_not_single_box(self):
        target = fig5a_nws().presentation
        witness_net = net(["a", "b"], [("t", {"a": 1}, {"b": 1})])
        left = StrictFunctor(
            witness_net.presentation, target, {"a": ("A",), "b": ("B",)}, {"t": Gen("f1")}
        )
        right = StrictFunctor(
            witness_net.presentation, target, {"a": ("A",), "b": ("A",)}, {"t": Id(("A",))}
        )
        with pytest.raises(PreconditionFailedError, match="right witness functor must be transition"):
            Witness(witness_net, left, right)

    def test_targets_differ(self):
        witness_net = PetriNet(("o",), ())
        left = self.place_functor(witness_net, fig5a_nws().presentation, ("C1",))
        right = self.place_functor(witness_net, fig1_nws().presentation, ("C",))
        with pytest.raises(PreconditionFailedError, match="must share their target"):
            Witness(witness_net, left, right)


def _count_presentations(monkeypatch) -> list[PetriNet]:
    """Every net ``free_smc`` is run on from now on, in order."""
    from petriglue import cli_io, gluing, net_model, semantics

    presented: list[PetriNet] = []
    build = net_model.free_smc

    def counting(n: PetriNet):
        presented.append(n)
        return build(n)

    for module in (net_model, cli_io, gluing, semantics):
        if hasattr(module, "free_smc"):
            monkeypatch.setattr(module, "free_smc", counting)
    return presented


class TestIdentify:
    def test_fig5a_place_merge_with_fold(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, sig, {"o": "C1"}),
            o_n_witness_functor(witness_net, sig, {"o": "C2"}),
        )
        result, functor = identify(fig5, witness)
        assert result.net.places == ("A", "B", "C1")
        assert result.net.transition("g").post.to_dict() == {"C1": 2}
        assert result.net.transition("h").pre.to_dict() == {"C1": 2}
        assert result.fold.morphism_image("g") == Gen("g")
        # the fold factors: original = functor then result fold
        for gen in sig.morphisms:
            assert sem_equal(
                fig5.semantics,
                fig5.fold.morphism_image(gen.name),
                result.fold.term_image(functor.morphism_map[gen.name]),
            )

    def test_each_net_presented_once(self, monkeypatch):
        """Parsing fig5a and its place witness, then identifying, presents
        each parsed net once; the quotient is built with its presentation,
        the coequalizer's target, and is not presented again."""
        presented = _count_presentations(monkeypatch)
        fig5 = parse_net((FIXTURES / "fig5a.json").read_text())
        doc = json.loads((FIXTURES / "witness-fig5a-places.json").read_text())
        witness = parse_witness(doc, fig5.presentation)
        result, coequalizer = identify(fig5, witness)
        assert result.presentation is coequalizer.target
        assert result.net.presentation is coequalizer.target
        assert [n.places for n in presented] == [fig5.net.places, ("o",)]
        assert len({id(n) for n in presented}) == len(presented)

    def test_witness_functors_are_not_checked_again(self, monkeypatch):
        """``Witness`` has checked that its functors preserve places and
        transitions; ``identify`` does not run those predicates on them."""
        fig5 = parse_net((FIXTURES / "fig5a.json").read_text())
        doc = json.loads((FIXTURES / "witness-fig5a-transitions.json").read_text())
        witness = parse_witness(doc, fig5.presentation)
        checked = []
        for name in ("is_generator_preserving_on_objects", "is_transition_preserving"):
            predicate = getattr(petriglue.gluing, name)
            monkeypatch.setattr(
                petriglue.gluing, name, lambda f, p=predicate: checked.append(f) or p(f)
            )
        identify(fig5, witness)
        assert checked
        assert not any(f is witness.left or f is witness.right for f in checked)

    def test_duplicated_subnet_identification(self):
        n = net(
            ["A", "B", "C", "B2", "C2", "D"],
            [
                ("f", {"A": 1, "B": 1}, {"C": 2}),
                ("f2", {"A": 1, "B2": 1}, {"C2": 2}),
                ("g", {"C": 2}, {"B": 1, "D": 1}),
                ("g2", {"C2": 2}, {"B2": 1, "D": 1}),
                ("h", {"D": 1}, {}),
            ],
        )
        semantics = SmcPresentation(
            ("A", "B", "C", "D"),
            (
                MorphismGenerator("f", ("A", "B"), ("C", "C")),
                MorphismGenerator("g", ("C", "C"), ("B", "D")),
                MorphismGenerator("h", ("D",), ()),
            ),
        )
        fold = FreeFold(
            StrictFunctor(
                free_smc(n),
                semantics,
                {
                    "A": ("A",), "B": ("B",), "C": ("C",),
                    "B2": ("B",), "C2": ("C",), "D": ("D",),
                },
                {
                    "f": Gen("f"), "f2": Gen("f"),
                    "g": Gen("g"), "g2": Gen("g"), "h": Gen("h"),
                },
            )
        )
        nws = NetWithSemantics(n, fold)
        witness = net(
            ["a", "b", "c", "d"],
            [("wf", {"a": 1, "b": 1}, {"c": 2}), ("wg", {"c": 2}, {"b": 1, "d": 1})],
        )
        wsig = free_smc(witness)
        left = StrictFunctor(
            wsig,
            free_smc(n),
            {"a": ("A",), "b": ("B",), "c": ("C",), "d": ("D",)},
            {"wf": Gen("f"), "wg": Gen("g")},
        )
        right = StrictFunctor(
            wsig,
            free_smc(n),
            {"a": ("A",), "b": ("B2",), "c": ("C2",), "d": ("D",)},
            {"wf": Gen("f2"), "wg": Gen("g2")},
        )
        result, functor = identify(nws, Witness(witness, left, right))
        assert result.net.places == ("A", "B", "C", "D")
        assert {t.name for t in result.net.transitions} == {"f", "g", "h"}
        assert result.net.transition("f").pre.to_dict() == {"A": 1, "B": 1}
        assert result.net.transition("g").post.to_dict() == {"B": 1, "D": 1}

    def test_obstruction_on_mismatched_decorations(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, sig, {"o": "A"}),
            o_n_witness_functor(witness_net, sig, {"o": "B"}),
        )
        with pytest.raises(SemanticsObstructionError):
            identify(fig5, witness)

    def test_sequential_merges_match_one_shot(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(60):
            n = random_net(rng, max_places=5)
            pair_count = rng.randint(1, 4)
            if len(n.places) < 2:
                continue
            pairs = [tuple(rng.sample(n.places, 2)) for _ in range(pair_count)]
            sig = free_smc(n)
            witness_net = PetriNet(tuple(f"o{i}" for i in range(len(pairs))), ())
            left = o_n_witness_functor(
                witness_net, sig, {f"o{i}": a for i, (a, _) in enumerate(pairs)}
            )
            right = o_n_witness_functor(
                witness_net, sig, {f"o{i}": b for i, (_, b) in enumerate(pairs)}
            )
            nws = terminal_net(n)
            result, functor = identify(nws, Witness(witness_net, left, right))
            stepwise = _sequential_merge(sig, pairs)
            assert presentations_isomorphic(free_smc(result.net), stepwise.target)
            assert functor.object_map == stepwise.object_map
            checked += 1
        assert checked >= 40

    def test_free_fold_collapsing_four_places(self):
        """Chained two-place merges re-sorted ``t``'s inputs twice and then
        rejected this identification with a spurious WellDefinednessError."""
        n = net("ABCD", [("t", {"A": 1, "B": 1, "C": 1, "D": 1}, {})])
        sig = free_smc(n)
        semantics = SmcPresentation(("X",), (MorphismGenerator("s", ("X",) * 4, ()),))
        fold = FreeFold(
            StrictFunctor(sig, semantics, {p: ("X",) for p in "ABCD"}, {"t": Gen("s")})
        )
        nws = NetWithSemantics(n, fold)
        witness_net = PetriNet(("o0", "o1"), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, sig, {"o0": "A", "o1": "A"}),
            o_n_witness_functor(witness_net, sig, {"o0": "D", "o1": "C"}),
        )
        with pytest.raises(WellDefinednessError):
            identify_by_merges(nws, witness)
        result, coequalizer = identify(nws, witness)
        assert result.net.places == ("A", "B")
        assert result.net.transition("t").pre.to_dict() == {"A": 3, "B": 1}
        assert not result.net.transition("t").post
        assert factor_fold_through_coequalizer(coequalizer, fold) == result.fold
        assert sem_equal(
            fold.semantics,
            fold.morphism_image("t"),
            result.fold.term_image(coequalizer.morphism_map["t"]),
        )


class TestIdentifyDiagramCount:
    """``identify`` on fig5a builds diagrams only for fold images that
    differ as terms; equal images are equal once they typecheck."""

    def run(self, monkeypatch, witness_file, fold_images=None, extra_generators=()):
        doc = json.loads((FIXTURES / "fig5a.json").read_text())
        doc["fold"]["morphisms"].update(fold_images or {})
        doc["semantics"]["morphisms"] += extra_generators
        fig5 = parse_net(json.dumps(doc))
        witness = parse_witness(
            json.loads((FIXTURES / witness_file).read_text()), fig5.presentation
        )
        original = petriglue.fssmc.to_diagram
        built = [0]

        def counting_to_diagram(*args):
            built[0] += 1
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("petriglue") and getattr(module, "to_diagram", None) is original:
                monkeypatch.setattr(module, "to_diagram", counting_to_diagram)
        return identify(fig5, witness), built[0]

    @pytest.mark.parametrize(
        "witness_file", ["witness-fig5a-transitions.json", "witness-fig5a-places.json"]
    )
    def test_equal_images_build_no_diagram(self, monkeypatch, witness_file):
        _, built = self.run(monkeypatch, witness_file)
        assert built == 0

    def test_images_equal_only_as_morphisms_are_compared(self, monkeypatch):
        conjugated = "comp(perm([A],[0]),comp(gen(f),perm([B],[0])))"
        (result, _), built = self.run(
            monkeypatch, "witness-fig5a-transitions.json", {"f2": conjugated}
        )
        assert built > 0
        assert [t.name for t in result.net.transitions] == ["f1", "g", "h"]
        assert result.fold.morphism_image("f1") == Gen("f")

    def test_images_unequal_as_morphisms_are_rejected(self, monkeypatch):
        other = {"name": "e", "dom": ["A"], "cod": ["B"]}
        with pytest.raises((WellDefinednessError, SemanticsObstructionError)):
            self.run(
                monkeypatch, "witness-fig5a-transitions.json", {"f2": "gen(e)"}, [other]
            )


def _random_free_fold(
    rng: random.Random, n: PetriNet, word_images: bool = False
) -> FreeFold:
    """Places go to one of up to three objects, so many share an image, or
    with ``word_images`` to one of three words of zero, one and two; each
    transition goes to a generator, shared with an earlier transition of
    the same boundaries half the time, behind a random input symmetry."""
    sig = free_smc(n)
    objects = ("X", "Y", "Z")[: rng.randint(1, 3)]
    if word_images:
        words = [tuple(rng.choice(objects) for _ in range(length)) for length in (0, 1, 2)]
        object_map = {p: rng.choice(words) for p in n.places}
    else:
        object_map = {p: (rng.choice(objects),) for p in n.places}
    generators: list[MorphismGenerator] = []
    morphism_map = {}
    for t in sig.morphisms:
        mapped_dom = tuple(x for p in t.dom for x in object_map[p])
        perm = list(range(len(mapped_dom)))
        rng.shuffle(perm)
        dom = apply_perm(mapped_dom, perm)
        cod = tuple(x for p in t.cod for x in object_map[p])
        same = [g for g in generators if (g.dom, g.cod) == (dom, cod)]
        if same and rng.random() < 0.5:
            name = rng.choice(same).name
        else:
            name = f"s{len(generators)}"
            generators.append(MorphismGenerator(name, dom, cod))
        image = Gen(name)
        if tuple(perm) != identity_perm(len(perm)):
            image = Compose(Perm(mapped_dom, tuple(perm)), image)
        morphism_map[t.name] = image
    target = SmcPresentation(objects, tuple(generators))
    return FreeFold(StrictFunctor(sig, target, object_map, morphism_map))


class TestIdentifyAgainstChainedMerges:
    """``identify`` against the chained two-place merges it used to run on
    witnesses without transitions (``reference_gluing``)."""

    def test_random_place_witnesses(self):
        rng = random.Random(59)
        agreed = rejected_by_reference = 0
        for _ in range(300):
            n = random_net(rng, max_places=6, max_transitions=4)
            sig = free_smc(n)
            kind = rng.choice(["free", "free", "pair", "terminal"])
            if kind == "terminal":
                fold = TerminalFold(sig)
            else:
                fold = _random_free_fold(rng, n)
                if kind == "pair":
                    second = rng.choice([_random_free_fold(rng, n), TerminalFold(sig)])
                    fold = PairFold(fold, second)
            pairs = []
            for _ in range(rng.randint(1, 5)):
                a = rng.choice(n.places)
                mates = [
                    b for b in n.places
                    if b != a and fold.object_image(b) == fold.object_image(a)
                ]
                if mates:
                    pairs.append((a, rng.choice(mates)))
            if not pairs:
                continue
            nws = NetWithSemantics(n, fold)
            witness_net = PetriNet(tuple(f"o{i}" for i in range(len(pairs))), ())
            witness = Witness(
                witness_net,
                o_n_witness_functor(
                    witness_net, sig, {f"o{i}": a for i, (a, _) in enumerate(pairs)}
                ),
                o_n_witness_functor(
                    witness_net, sig, {f"o{i}": b for i, (_, b) in enumerate(pairs)}
                ),
            )
            result, functor = identify(nws, witness)
            try:
                expected, stepwise = identify_by_merges(nws, witness)
            except WellDefinednessError:
                rejected_by_reference += 1
                continue
            assert serialize_net(result) == serialize_net(expected)
            assert list(functor.object_map.items()) == list(stepwise.object_map.items())
            agreed += 1
        assert agreed >= 100
        assert rejected_by_reference > 0


def _net_with_copy(rng: random.Random) -> PetriNet:
    """A random net, often with a copy of one transition on partly renamed
    places, so that witnesses can pair two transitions."""
    n = random_net(rng, max_places=6, max_transitions=3)
    if not n.transitions or rng.random() < 0.2:
        return n
    original = rng.choice(n.transitions)

    def renamed(side: Multiset) -> Multiset:
        counts: dict[str, int] = {}
        for place, count in side.entries:
            place = rng.choice(n.places) if rng.random() < 0.2 else place
            counts[place] = counts.get(place, 0) + count
        return Multiset.from_counts(counts)

    copy = Transition("d", renamed(original.pre), renamed(original.post))
    return PetriNet(n.places, n.transitions + (copy,))


def _random_fold(rng: random.Random, n: PetriNet):
    """Free folds with word images, free x free and free x terminal pairs,
    or the terminal fold."""
    kind = rng.choice(["free", "free", "pair", "pair", "terminal"])
    if kind == "terminal":
        return TerminalFold(free_smc(n))
    fold = _random_free_fold(rng, n, word_images=True)
    if kind == "pair":
        second = rng.choice(
            [_random_free_fold(rng, n, word_images=True), TerminalFold(free_smc(n))]
        )
        fold = PairFold(fold, second)
    return fold


def _random_witness_pair(
    rng: random.Random, sig: SmcPresentation, fold
) -> tuple[StrictFunctor, StrictFunctor]:
    """Witness places pair places of equal fold image (any two places now
    and then); witness transitions are built as in ``random_tp_pair``: a
    transition on the left, one whose boundaries match it letter by letter
    on the right, another one where there is one."""
    pairs = []
    for _ in range(rng.randint(1, 5)):
        a = rng.choice(sig.objects)
        mates = [b for b in sig.objects if fold.object_image(b) == fold.object_image(a)]
        pairs.append((a, rng.choice(mates if rng.random() < 0.85 else sig.objects)))
    src_objects = tuple(f"c{i}" for i in range(len(pairs)))
    f_obj = {c: (a,) for c, (a, _) in zip(src_objects, pairs)}
    g_obj = {c: (b,) for c, (_, b) in zip(src_objects, pairs)}
    src_gens: list[MorphismGenerator] = []
    f_mor: dict = {}
    g_mor: dict = {}
    for _ in range(rng.randint(0, 4)):
        if not sig.morphisms:
            break
        u = rng.choice(sig.morphisms)
        over = {
            letter: [c for c in src_objects if f_obj[c][0] == letter]
            for letter in u.dom + u.cod
        }
        if not all(over.values()):
            continue
        dom_c = tuple(rng.choice(over[letter]) for letter in u.dom)
        cod_c = tuple(rng.choice(over[letter]) for letter in u.cod)
        g_dom = tuple(g_obj[c][0] for c in dom_c)
        g_cod = tuple(g_obj[c][0] for c in cod_c)
        candidates = [v for v in sig.morphisms if (v.dom, v.cod) == (g_dom, g_cod)]
        if not candidates:
            continue
        others = [v for v in candidates if v != u]
        name = f"w{len(src_gens)}"
        src_gens.append(MorphismGenerator(name, dom_c, cod_c))
        f_mor[name] = Gen(u.name)
        g_mor[name] = Gen(rng.choice(others or candidates).name)
    source = SmcPresentation(src_objects, tuple(src_gens))
    return (
        StrictFunctor(source, sig, f_obj, f_mor),
        StrictFunctor(source, sig, g_obj, g_mor),
    )


def _fold_outcome(factor, coequalizer, fold):
    try:
        return repr(factor(coequalizer, fold))
    except PetriGlueError as exc:
        return type(exc)


def _free_components(fold):
    if isinstance(fold, PairFold):
        return _free_components(fold.left) + _free_components(fold.right)
    return [fold] if isinstance(fold, FreeFold) else []


class TestInducedFoldAgainstReference:
    """The induced fold against the one that found each class again by
    scanning the coequalizer's images (``reference_gluing``)."""

    def test_random_folds_and_witnesses(self):
        rng = random.Random(67)
        cases = failed = merged_transitions = 0
        block_symmetries = {"empty": 0, "two-letter": 0}
        while cases < 2000:
            n = _net_with_copy(rng)
            fold = _random_fold(rng, n)
            first, second = _random_witness_pair(rng, free_smc(n), fold)
            try:
                _, coequalizer = coequalize_tp(first, second)
            except PreconditionFailedError:
                continue
            expected = _fold_outcome(reference_factor_fold, coequalizer, fold)
            assert _fold_outcome(factor_fold_through_coequalizer, coequalizer, fold) == expected
            cases += 1
            if not isinstance(expected, str):
                failed += 1
                continue
            if len(coequalizer.target.morphisms) < len(coequalizer.source.morphisms):
                merged_transitions += 1
            induced = reference_factor_fold(coequalizer, fold)
            for original, component in zip(_free_components(fold), _free_components(induced)):
                images = component.functor.morphism_map
                # Some quotient generator gained a pre or post symmetry.
                if all(image == original.functor.morphism_map[q] for q, image in images.items()):
                    continue
                lengths = {len(word) for word in component.functor.object_map.values()}
                block_symmetries["empty"] += 0 in lengths
                block_symmetries["two-letter"] += 2 in lengths
        assert failed >= 100 and cases - failed >= 1000
        assert merged_transitions >= 50
        assert min(block_symmetries.values()) >= 50, block_symmetries


class TestMonoidalProduct:
    def test_coproduct_presented_with_its_summands(self, monkeypatch):
        """The coproduct's presentation is the left summand's followed by
        the renamed right one's; building it presents no net."""
        left = parse_net((FIXTURES / "fig8a-left.json").read_text())
        right = parse_net((FIXTURES / "fig8a-right.json").read_text())
        presented = _count_presentations(monkeypatch)
        product, iota1, iota2 = monoidal_product(left, right)
        assert presented == []
        assert product.presentation is iota1.target is iota2.target
        assert product.presentation == free_smc(product.net)

    def test_unit(self):
        from petriglue import SemanticsMismatchError

        fig1 = fig1_nws()
        empty = terminal_net(net([], []))
        with pytest.raises(SemanticsMismatchError):
            monoidal_product(fig1, empty)
        empty_free = NetWithSemantics(
            net([], []),
            FreeFold(
                StrictFunctor(free_smc(net([], [])), fig1.presentation, {}, {})
            ),
        )
        product, iota1, _ = monoidal_product(fig1, empty_free)
        assert product.net == fig1.net
        assert iota1.object_map == {p: (p,) for p in fig1.net.places}

    def test_fig8a(self):
        left_sem, right_sem = fig8a_nets()
        product, iota1, iota2 = monoidal_product(left_sem, right_sem)
        assert product.net.places == ("A", "C", "B", "C'", "D", "E")
        assert product.fold.object_image("C") == ("C",)
        assert product.fold.object_image("C'") == ("C",)
        assert iota2.map_object("C") == ("C'",)

    def test_injections_commute_with_folds(self):
        rng = random.Random(51)
        for _ in range(20):
            m = terminal_net(random_net(rng))
            n = terminal_net(random_net(rng))
            product, iota1, iota2 = monoidal_product(m, n)
            assert commutes_with_semantics(iota1, m, product)
            assert commutes_with_semantics(iota2, n, product)
            assert is_transition_preserving(iota1)
            assert is_transition_preserving(iota2)

    def test_product_fold_copairs_componentwise(self):
        left_sem, right_sem = fig8a_nets()
        # fig8a's right net with k renamed to f, so places and transitions collide.
        right = net(["C", "D", "E"], [("h", {"C": 2}, {"D": 1}), ("f", {"C": 1}, {"E": 1})])
        carrier = right_sem.fold.functor
        right_free = FreeFold(
            StrictFunctor(
                free_smc(right), carrier.target, carrier.object_map, {"h": Gen("h"), "f": Gen("k")}
            )
        )
        m = NetWithSemantics(
            left_sem.net, PairFold(left_sem.fold, TerminalFold(left_sem.presentation))
        )
        n = NetWithSemantics(right, PairFold(right_free, TerminalFold(free_smc(right))))
        product, iota1, iota2 = monoidal_product(m, n)
        assert product.net.places == ("A", "C", "B", "C'", "D", "E")
        assert [t.name for t in product.net.transitions] == ["f", "h", "f'"]
        for side in ("left", "right"):
            alone, _, _ = monoidal_product(
                NetWithSemantics(m.net, getattr(m.fold, side)),
                NetWithSemantics(n.net, getattr(n.fold, side)),
            )
            assert getattr(product.fold, side) == alone.fold
        assert commutes_with_semantics(iota1, m, product)
        assert commutes_with_semantics(iota2, n, product)
        text = serialize_net(product)
        assert serialize_net(parse_net(text)) == text


def _random_coproduct_pair(rng: random.Random) -> tuple[NetWithSemantics, NetWithSemantics]:
    """Two nets over one pool of names, some already primed, so the right
    net's places and transitions often collide with the left's; either
    net may be empty.  Places go to words of zero to two letters and
    transitions to their own generators, some behind an input symmetry.
    The semantics is free, terminal or their product, and now and then
    differs between the two nets."""
    nets = []
    for _ in range(2):
        places = [p for p in ("A", "A'", "B", "C") if rng.random() < 0.6]
        names = [t for t in ("t", "t'", "u") if rng.random() < 0.5]
        if rng.random() < 0.1:
            places, names = [], []
        rng.shuffle(places)
        nets.append(net(places, [
            (name, *({p: rng.randint(1, 2) for p in places if rng.random() < 0.4} for _ in "io"))
            for name in names
        ]))
    letters = ("X", "Y")
    generators = []
    maps = []
    for tag, n in zip("lr", nets):
        images = {p: tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))) for p in n.places}
        morphism_map = {}
        for gen in n.presentation.morphisms:
            dom = tuple(x for p in gen.dom for x in images[p])
            cod = tuple(x for p in gen.cod for x in images[p])
            perm = list(range(len(dom)))
            rng.shuffle(perm)
            generators.append(MorphismGenerator(tag + gen.name, apply_perm(dom, perm), cod))
            morphism_map[gen.name] = Gen(tag + gen.name)
            if perm != sorted(perm):
                morphism_map[gen.name] = Compose(Perm(dom, tuple(perm)), Gen(tag + gen.name))
        maps.append((images, morphism_map))
    kinds = ("free", "free", "terminal", "product")
    kind = rng.choice(kinds)
    right_kind = rng.choice(kinds) if rng.random() < 0.15 else kind
    semantics = SmcPresentation(letters, tuple(generators))

    def with_semantics(n, images_and_map, kind, target):
        free = FreeFold(StrictFunctor(n.presentation, target, *images_and_map))
        terminal = TerminalFold(n.presentation)
        fold = {"free": free, "terminal": terminal, "product": PairFold(free, terminal)}[kind]
        return NetWithSemantics(n, fold)

    # A right semantics with one more object also differs from the left one.
    right_target = semantics
    if right_kind == kind and rng.random() < 0.05:
        right_target = SmcPresentation(letters + ("Z",), semantics.morphisms)
    return (
        with_semantics(nets[0], maps[0], kind, semantics),
        with_semantics(nets[1], maps[1], right_kind, right_target),
    )


class TestCoproductAgainstReference:
    """``net_coproduct`` and ``monoidal_product`` against the coproduct that
    returned its injections as name tables (``reference_gluing``)."""

    def test_random_pairs(self):
        rng = random.Random(73)
        seen = dict.fromkeys(
            ("FreeFold", "TerminalFold", "PairFold", "mismatch", "collision", "reprimed", "empty"),
            0,
        )
        for _ in range(300):
            m, n = _random_coproduct_pair(rng)
            coproduct, iota1, iota2 = net_coproduct(m.net, n.net)
            expected_net, rename1, rename2 = reference_gluing.net_coproduct(m.net, n.net)
            assert coproduct == expected_net
            for iota, rename in ((iota1, rename1), (iota2, rename2)):
                assert list(iota.object_map.items()) == [(p, (q,)) for p, q in rename.places]
                assert list(iota.morphism_map.items()) == [
                    (t, Gen(u)) for t, u in rename.transitions
                ]
            new = outcome(monoidal_product, m, n)
            old = outcome(reference_gluing.monoidal_product, m, n)
            seen["collision"] += coproduct.places != m.net.places + n.net.places
            seen["reprimed"] += any(p.endswith("''") for p in coproduct.places)
            seen["empty"] += not m.net.places or not n.net.places
            if len(old) == 2:
                assert new == old
                seen["mismatch"] += 1
                continue
            product, *injections = new
            expected, *old_injections = old
            assert injections == old_injections == [iota1, iota2]
            assert product.net == expected.net == coproduct
            assert product.fold == expected.fold
            assert serialize_net(product) == serialize_net(expected)
            seen[type(product.fold).__name__] += 1
        assert min(seen.values()) >= 15, seen


class TestPushout:
    def test_empty_witness_is_plain_coproduct(self):
        left_sem, right_sem = fig8a_nets()
        empty = net([], [])
        sig = free_smc(empty)
        result = pushout_glue(
            left_sem,
            right_sem,
            empty,
            StrictFunctor(sig, left_sem.presentation, {}, {}),
            StrictFunctor(sig, right_sem.presentation, {}, {}),
        )
        assert result.net.net == result.product.net

    def test_glue_on_shared_place(self):
        left_sem, right_sem = fig8a_nets()
        witness_net = PetriNet(("o",), ())
        result = pushout_glue(
            left_sem,
            right_sem,
            witness_net,
            o_n_witness_functor(witness_net, left_sem.presentation, {"o": "C"}),
            o_n_witness_functor(witness_net, right_sem.presentation, {"o": "C"}),
        )
        assert result.net.net.places == ("A", "C", "B", "D", "E")
        assert result.net.net.transition("h").pre.to_dict() == {"C": 2}
        assert result.net.net.transition("f").post.to_dict() == {"B": 1, "C": 1}

    def test_universal_property_on_random_instances(self):
        rng = random.Random(53)
        from support import random_embedding

        for _ in range(30):
            first, second = random_tp_pair(rng)
            quotient, coeq = coequalize_tp(first, second)
            embedding = random_embedding(rng, quotient)
            other = compose_functors(coeq, embedding)
            induced = factor_fold_through_coequalizer(coeq, FreeFold(other)).functor
            for gen in first.target.morphisms:
                assert terms_equal(
                    apply_functor(induced, coeq.morphism_map[gen.name]),
                    other.morphism_map[gen.name],
                    induced.target,
                )


def _sides(produced, consumed):
    return (
        [(f"p{i}", a) for i, a in enumerate(produced)],
        [(f"c{i}", b) for i, b in enumerate(consumed)],
    )


class TestMinimalFiringVector:
    def brute_force(self, producers, consumers, cap=6):
        best = None
        p_names = [n for n, _ in producers]
        c_names = [n for n, _ in consumers]

        def vectors(k, cap):
            if k == 0:
                yield ()
                return
            for head in range(1, cap + 1):
                for tail in vectors(k - 1, cap):
                    yield (head,) + tail

        for nv in vectors(len(producers), cap):
            for mv in vectors(len(consumers), cap):
                flow_p = sum(n * a for n, (_, a) in zip(nv, producers))
                flow_c = sum(m * b for m, (_, b) in zip(mv, consumers))
                if flow_p != flow_c:
                    continue
                candidate = (sum(nv) + sum(mv), nv, mv)
                if best is None or candidate < best:
                    best = candidate
        assert best is not None
        return dict(zip(p_names, best[1])) | dict(zip(c_names, best[2]))

    def test_one_producer_two_consumers(self):
        counts = minimal_firing_vector([("f", 1)], [("h", 2), ("k", 1)])
        assert counts == {"f": 3, "h": 1, "k": 1}

    def test_single_pair(self):
        assert minimal_firing_vector([("p", 1)], [("c", 1)]) == {"p": 1, "c": 1}

    def test_two_three(self):
        counts = minimal_firing_vector([("p", 2)], [("c", 3)])
        assert counts == {"p": 3, "c": 2}
        assert counts == self.brute_force([("p", 2)], [("c", 3)])

    def test_against_brute_force(self):
        rng = random.Random(55)
        for _ in range(40):
            producers = [(f"p{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 2))]
            consumers = [(f"c{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 2))]
            assert minimal_firing_vector(producers, consumers) == self.brute_force(
                producers, consumers
            )

    def test_rejects_empty_side(self):
        with pytest.raises(PreconditionFailedError):
            minimal_firing_vector([], [("c", 1)])

    @pytest.mark.parametrize(
        "producers, consumers",
        [
            ([], [("c", 1)]),
            ([("p", 1)], []),
            ([("p", 0)], [("c", 1)]),
            ([("p", 1)], [("c", 0)]),
            ([("t", 1)], [("t", 2)]),
            ([("p", 1), ("p", 2)], [("c", 1)]),
        ],
        ids=["no-producer", "no-consumer", "zero-producer", "zero-consumer",
             "shared-name", "duplicate-producer"],
    )
    def test_rejects_bad_input_like_the_oracle(self, producers, consumers):
        with pytest.raises(PreconditionFailedError):
            minimal_firing_vector(producers, consumers)
        with pytest.raises(PreconditionFailedError):
            reference_firing_vector(producers, consumers)

    @pytest.mark.parametrize(
        "produced, consumed, expected",
        [
            ((13, 17, 23), (19, 29), ((2, 2, 2), (1, 3))),
            ((31, 37), (41, 43), ((7, 1), (2, 4))),
            ((7, 11, 13, 17), (19, 23), ((1, 1, 1, 2), (1, 2))),
        ],
    )
    def test_pinned_large_amounts(self, produced, consumed, expected):
        """The last case has the brute-force least total 8; the exhaustive
        search did not finish it in 290 s."""
        counts = minimal_firing_vector(*_sides(produced, consumed))
        assert tuple(counts.values()) == expected[0] + expected[1]

    def test_table_budget(self):
        """Its answer would move 12,507,498 tokens, far past the flow limit."""
        with pytest.raises(BudgetExceededError, match="moves 12507498 tokens, more than 500000"):
            minimal_firing_vector([("f", 4999)], [("h", 5003), ("k", 5001)])

    def test_table_budget_bounds_memory(self):
        """997 against 1009 would move 1,005,973 tokens; 499 against 503
        moves 251,497 and is answered."""
        with pytest.raises(BudgetExceededError, match="moves 1005973 tokens"):
            minimal_firing_vector([("p", 997)], [("c", 1009)])
        assert minimal_firing_vector([("p", 499)], [("c", 503)]) == {"p": 503, "c": 499}

    def test_answers_past_the_old_table_budget(self):
        """The change-making tables refused amounts near a thousand by
        their size; the balance search answers when the event is small."""
        sides = _sides((997, 991), (983, 977))
        with pytest.raises(BudgetExceededError, match="cells"):
            table_firing_vector(*sides)
        counts = minimal_firing_vector(*sides)
        assert counts == {"p0": 91, "p1": 10, "c0": 1, "c1": 102}
        assert 91 * 997 + 10 * 991 == 983 + 102 * 977 == 100_637

    @pytest.mark.parametrize(
        "produced, consumed, flow",
        [
            ((701,), (709,), 497_009),
            ((707,), (709,), 501_263),
            ((1000,), (999,), 999_000),
            ((250_000, 250_000), (500_000,), 500_000),
            ((250_000, 250_001), (500_001,), None),
            ((500_001,), (1,), None),
        ],
    )
    def test_flow_limit(self, produced, consumed, flow):
        """Refused exactly when the answer moves more than the limit; when
        every transition firing once already does, before any search."""
        assert petriglue.gluing.FIRING_FLOW_LIMIT == 500_000
        sides = _sides(produced, consumed)
        if flow is None:
            with pytest.raises(BudgetExceededError, match="at least 500001 tokens"):
                minimal_firing_vector(*sides)
        elif flow > 500_000:
            with pytest.raises(BudgetExceededError, match=f"moves {flow} tokens"):
                minimal_firing_vector(*sides)
        else:
            counts = minimal_firing_vector(*sides)
            assert sum(counts[f"p{i}"] * a for i, a in enumerate(produced)) == flow


class TestFiringVectorAgainstExhaustiveOracle:
    """The balance search against the split search that came before the
    tables (``reference_gluing.minimal_firing_vector``)."""

    def test_every_small_instance(self):
        checked = 0
        for n_p, n_c in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            for produced in itertools.product(range(1, 6), repeat=n_p):
                for consumed in itertools.product(range(1, 6), repeat=n_c):
                    sides = _sides(produced, consumed)
                    assert minimal_firing_vector(*sides) == reference_firing_vector(*sides)
                    checked += 1
        assert checked == 2150

    def test_random_heavy_amounts(self):
        rng = random.Random(6)
        for _ in range(30):
            sides = _sides(
                [rng.randint(5, 19) for _ in range(2)], [rng.randint(5, 19) for _ in range(2)]
            )
            assert minimal_firing_vector(*sides) == reference_firing_vector(*sides)

    @pytest.mark.parametrize(
        "produced, consumed",
        [((1,), (1,)), ((1, 1), (1,)), ((1,), (1, 1, 1)), ((1, 1), (1, 1))]
        + [((1,), (b,)) for b in range(7, 20)]
        + [((b,), (1,)) for b in range(7, 20)]
        + [((1,), (7, 13, 19)), ((7, 11, 19), (1,))],
    )
    def test_edge_amounts(self, produced, consumed):
        sides = _sides(produced, consumed)
        assert minimal_firing_vector(*sides) == reference_firing_vector(*sides)


def _compose_seed_firing_inputs(seed: int) -> list:
    """The (producers, consumers) of every firing-vector call that a
    compose pass of the benchmark's ``seed`` makes.  Each transition of
    those pairs touches one boundary place, so the calls are read off the
    specs without composing."""
    saved = list(sys.path)
    sys.path[:0] = [str(FIXTURES.parent / "perfbench")]
    try:
        import gen
    finally:
        sys.path[:] = saved
    calls = []
    for spec in gen.compose_inputs(seed):
        for left_place, right_place in spec["pairing"]:
            producers = [(n, post[left_place]) for n, _, post in spec["left"]["transitions"]
                         if left_place in post]
            consumers = [(n, pre[right_place]) for n, pre, _ in spec["right"]["transitions"]
                         if right_place in pre]
            calls.append((producers, consumers))
    return calls


class TestFiringVectorAgainstTableOracle:
    """The balance search against the change-making tables it replaced
    (``reference_gluing.table_firing_vector``)."""

    def test_every_small_instance(self):
        checked = 0
        for n_p, n_c in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            for produced in itertools.product(range(1, 6), repeat=n_p):
                for consumed in itertools.product(range(1, 6), repeat=n_c):
                    sides = _sides(produced, consumed)
                    assert minimal_firing_vector(*sides) == table_firing_vector(*sides)
                    checked += 1
        assert checked == 2150

    def test_random_heavy_instances(self):
        rng = random.Random(27)
        for _ in range(120):
            sides = _sides(
                [rng.randint(1, 40) for _ in range(rng.randint(1, 4))],
                [rng.randint(1, 40) for _ in range(rng.randint(1, 4))],
            )
            assert minimal_firing_vector(*sides) == table_firing_vector(*sides)

    def test_refuses_exactly_past_the_flow_limit(self, monkeypatch):
        """With the limit lowered, the search refuses an input exactly when
        the tables' answer moves more tokens than the limit."""
        rng = random.Random(28)
        monkeypatch.setattr(petriglue.gluing, "FIRING_FLOW_LIMIT", 60)
        refused = 0
        for _ in range(300):
            sides = _sides(
                [rng.randint(1, 19) for _ in range(rng.randint(1, 3))],
                [rng.randint(1, 19) for _ in range(rng.randint(1, 3))],
            )
            expected = table_firing_vector(*sides)
            if sum(expected[name] * amount for name, amount in sides[0]) > 60:
                refused += 1
                with pytest.raises(BudgetExceededError):
                    minimal_firing_vector(*sides)
            else:
                assert minimal_firing_vector(*sides) == expected
        assert 0 < refused < 300

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_benchmark_compose_call(self, seed):
        calls = _compose_seed_firing_inputs(seed)
        assert len(calls) == 301
        for producers, consumers in calls:
            assert minimal_firing_vector(producers, consumers) == table_firing_vector(
                producers, consumers
            )


class TestBoundaryCompose:
    def test_repeated_place_rejected(self):
        """A place paired twice is named up front, before any merge."""
        left_sem, right_sem = fig8a_nets()
        with pytest.raises(ValidationError, match="left place 'C' is paired twice"):
            boundary_compose(left_sem, right_sem, [("C", "C"), ("C", "C")])
        left, right, _ = k_boundary_pair(2)
        with pytest.raises(ValidationError, match="right place 'X0' is paired twice"):
            boundary_compose(left, right, [("X0", "X0"), ("X1", "X0")])

    def test_fig8a_composition(self):
        left_sem, right_sem = fig8a_nets()
        result = boundary_compose(left_sem, right_sem, [("C", "C")])
        assert result.net.net.places == ("A", "B", "D", "E")
        (transition,) = result.net.net.transitions
        assert transition.pre.to_dict() == {"A": 6}
        assert transition.post.to_dict() == {"B": 3, "D": 1, "E": 1}
        assert result.firing_vectors == (("C", (("f", 3), ("h", 1), ("k", 1))),)

    def test_trivial_pipe(self):
        semantics = SmcPresentation(
            ("X", "Y", "Z"),
            (
                MorphismGenerator("p", ("X",), ("Y",)),
                MorphismGenerator("c", ("Y",), ("Z",)),
            ),
        )
        left = net(["X", "Y"], [("p", {"X": 1}, {"Y": 1})])
        right = net(["Y", "Z"], [("c", {"Y": 1}, {"Z": 1})])
        left_sem = NetWithSemantics(
            left,
            FreeFold(StrictFunctor(free_smc(left), semantics, {"X": ("X",), "Y": ("Y",)}, {"p": Gen("p")})),
        )
        right_sem = NetWithSemantics(
            right,
            FreeFold(StrictFunctor(free_smc(right), semantics, {"Y": ("Y",), "Z": ("Z",)}, {"c": Gen("c")})),
        )
        result = boundary_compose(left_sem, right_sem, [("Y", "Y")])
        (transition,) = result.net.net.transitions
        assert transition.pre.to_dict() == {"X": 1}
        assert transition.post.to_dict() == {"Z": 1}
        assert result.net.net.places == ("X", "Z")
        assert sem_equal(
            result.net.semantics,
            result.net.fold.morphism_image(transition.name),
            Compose(Gen("p"), Gen("c")),
        )

    def test_isolated_places_of_either_net_are_pruned(self):
        """Every place no transition touches is pruned, not only the merged
        one: an unused left place ``Z`` is gone from the result too."""
        doc = json.loads((FIXTURES / "fig8a-left.json").read_text())
        doc["places"].append("Z")
        doc["fold"]["objects"]["Z"] = ["A"]
        left = parse_net(json.dumps(doc))
        right = parse_net((FIXTURES / "fig8a-right.json").read_text())
        result = boundary_compose(left, right, [("C", "C")])
        assert "Z" in result.merged.net.places
        assert result.net.net.places == ("A", "B", "D", "E")

    def test_functor_passes_synchronization_verdict(self):
        left_sem, right_sem = fig8a_nets()
        result = boundary_compose(left_sem, right_sem, [("C", "C")])
        verdict = is_synchronization(result.functor, result.net, result.merged, 3)
        assert verdict.passed

    def test_orientation_violation_rejected(self):
        semantics = SmcPresentation(
            ("X", "Y"),
            (
                MorphismGenerator("p", ("Y",), ("X",)),
                MorphismGenerator("c", ("X",), ()),
            ),
        )
        # the left net also consumes from the boundary place
        left = net(["X", "Y"], [("p", {"Y": 1}, {"X": 1}), ("c", {"X": 1}, {})])
        right = net(["X"], [])
        left_sem = NetWithSemantics(
            left,
            FreeFold(StrictFunctor(
                free_smc(left), semantics,
                {"X": ("X",), "Y": ("Y",)}, {"p": Gen("p"), "c": Gen("c")},
            )),
        )
        right_sem = NetWithSemantics(
            right,
            FreeFold(StrictFunctor(free_smc(right), semantics, {"X": ("X",)}, {})),
        )
        with pytest.raises(BoundaryOrientationError):
            boundary_compose(left_sem, right_sem, [("X", "X")])


def k_boundary_pair(k: int) -> tuple[NetWithSemantics, NetWithSemantics, list[tuple[str, str]]]:
    """Left ``p_i: I_i -> X_i`` and right ``c_i: X_i -> O_i`` for ``i < k``,
    with free semantics, paired on every ``X_i``."""
    places = [f"{kind}{i}" for kind in "IXO" for i in range(k)]
    steps = [(f"p{i}", f"I{i}", f"X{i}") for i in range(k)]
    steps += [(f"c{i}", f"X{i}", f"O{i}") for i in range(k)]
    semantics = SmcPresentation(
        tuple(places), tuple(MorphismGenerator(t, (a,), (b,)) for t, a, b in steps)
    )

    def side(kinds, transitions):
        n = net(
            [p for p in places if p[0] in kinds],
            [(t, {a: 1}, {b: 1}) for t, a, b in transitions],
        )
        return NetWithSemantics(n, FreeFold(StrictFunctor(
            free_smc(n),
            semantics,
            {p: (p,) for p in n.places},
            {t: Gen(t) for t, _, _ in transitions},
        )))

    return side("IX", steps[:k]), side("XO", steps[k:]), [(f"X{i}", f"X{i}") for i in range(k)]


class TestBoundaryComposeSkipsRelabelledSequences:
    def test_each_step_builds_only_sequences_with_its_new_transition(self, monkeypatch):
        """Every sync step's functor reads back whole: survivors are
        relabelled, and the new transition's image is connected through the
        pruned place, which no source place maps to.  So not even the
        sequences using the new transition are built, and none at all is;
        the result is the one the full enumeration gives."""
        left, right, pairing = k_boundary_pair(4)
        monkeypatch.setattr(
            petriglue.gluing, "check_faithful_bounded", reference_functors.check_faithful_bounded
        )
        full = boundary_compose(left, right, pairing)
        monkeypatch.undo()

        steps: list[list[tuple[str, ...]]] = []
        check = petriglue.gluing.check_faithful_bounded
        build = petriglue.functors._firing_boundary

        def counting_check(functor, bound, *rest):
            steps.append([])
            return check(functor, bound, *rest)

        def counting_build(sig, sequence):
            steps[-1].append(tuple(sequence))
            return build(sig, sequence)

        monkeypatch.setattr(petriglue.gluing, "check_faithful_bounded", counting_check)
        monkeypatch.setattr(petriglue.functors, "_firing_boundary", counting_build)
        result = boundary_compose(left, right, pairing)

        assert steps == [[], [], [], []]
        assert result == full
        assert serialize_net(result.net) == serialize_net(full.net)

    def test_each_check_folds_only_generator_pieces(self, monkeypatch):
        """Diagrams are spliced from sequences: a faithfulness check folds
        each source generator and its image once, plus certificate terms,
        and never a term per sequence."""
        left, right, pairing = k_boundary_pair(4)
        original = petriglue.fssmc.to_diagram
        folds = [0]
        per_check: list[tuple[int, int]] = []

        def counting_to_diagram(*args):
            folds[0] += 1
            return original(*args)

        check = petriglue.gluing.check_faithful_bounded

        def counting_check(functor, *rest):
            before = folds[0]
            verdict = check(functor, *rest)
            per_check.append((folds[0] - before, len(functor.source.morphisms)))
            return verdict

        for name, module in list(sys.modules.items()):
            if name.startswith("petriglue") and getattr(module, "to_diagram", None) is original:
                monkeypatch.setattr(module, "to_diagram", counting_to_diagram)
        monkeypatch.setattr(petriglue.gluing, "check_faithful_bounded", counting_check)
        boundary_compose(left, right, pairing)

        assert len(per_check) == 4
        for calls, gens in per_check:
            assert calls <= 2 * gens + 2, (calls, gens)


def split_event_pair() -> tuple[NetWithSemantics, NetWithSemantics]:
    """Left ``p: A -> B`` and ``q: A2 -> B``, right ``c: B -> X`` and
    ``d: B -> Y``, with free semantics."""
    places = ("A", "A2", "B", "X", "Y")
    steps = [("p", "A", "B"), ("q", "A2", "B"), ("c", "B", "X"), ("d", "B", "Y")]
    semantics = SmcPresentation(
        places, tuple(MorphismGenerator(t, (a,), (b,)) for t, a, b in steps)
    )

    def side(kept, transitions):
        n = net(kept, [(t, {a: 1}, {b: 1}) for t, a, b in transitions])
        return NetWithSemantics(n, FreeFold(StrictFunctor(
            free_smc(n), semantics, {x: (x,) for x in n.places},
            {t: Gen(t) for t, _, _ in transitions},
        )))

    return side(("A", "A2", "B"), steps[:2]), side(("B", "X", "Y"), steps[2:])


class TestSplitEventCollapse:
    def test_partner_swap_has_the_same_image(self):
        """The event ``t = p+q+c+d`` splits into ``p;c`` and ``q;d``.  Swapping
        the two ``A2`` inputs and the two ``Y`` outputs of ``t⊗t`` gives a
        different morphism with the same image, and ``t`` does not read
        back.  The search routes tokens canonically, so it never builds the
        partner; no verdict is pinned here."""
        left, right = split_event_pair()
        result = boundary_compose(left, right, [("B", "B")])
        functor = result.functor
        sig = functor.source
        (t,) = sig.morphisms
        assert (t.name, t.dom, t.cod) == ("p+q+c+d", ("A", "A2"), ("X", "Y"))

        pair = Tensor(Gen(t.name), Gen(t.name))
        partner = Compose(
            Compose(Perm(t.dom * 2, (0, 3, 2, 1)), pair), Perm(t.cod * 2, (0, 3, 2, 1))
        )
        assert not terms_equal(pair, partner, sig)
        assert terms_equal(
            apply_functor(functor, pair), apply_functor(functor, partner), functor.target
        )
        assert petriglue.functors._readback_generators(
            functor, reference_functors.image_diagrams(functor)
        ) == frozenset()


class TestGluingFunctorsAreWellBehaved:
    def test_all_emitted_functors_send_places_to_places(self):
        from petriglue import is_generator_preserving_on_objects

        rng = random.Random(59)
        fig1 = fig1_nws()
        _, sync_functor = synchronize_transitions(
            fig1, SyncRecipe("gk", Compose(Gen("g"), Gen("k")), prune=True)
        )
        emitted = [sync_functor]

        fig5 = fig5a_nws()
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, fig5.presentation, {"o": "C1"}),
            o_n_witness_functor(witness_net, fig5.presentation, {"o": "C2"}),
        )
        _, ident_functor = identify(fig5, witness)
        emitted.append(ident_functor)

        left_sem, right_sem = fig8a_nets()
        _, iota1, iota2 = monoidal_product(left_sem, right_sem)
        emitted.extend([iota1, iota2])
        boundary = boundary_compose(left_sem, right_sem, [("C", "C")])
        emitted.append(boundary.functor)

        for _ in range(10):
            first, second = random_tp_pair(rng)
            _, coeq = coequalize_tp(first, second)
            emitted.append(coeq)

        for functor in emitted:
            assert is_generator_preserving_on_objects(functor)


class TestFoldFactoringWithWordImages:
    def test_merge_under_multi_letter_decorations(self):
        # places decorated with words of length two force block symmetries
        # in the induced fold
        n = net(
            ["A", "B", "Z"],
            [("t", {"B": 1, "Z": 1}, {"A": 1}), ("s", {}, {"Z": 2})],
        )
        semantics = SmcPresentation(
            ("X", "Y", "W"),
            (
                MorphismGenerator("u", ("W", "X", "Y"), ("X", "Y")),
                MorphismGenerator("v", (), ("X", "Y", "X", "Y")),
            ),
        )
        fold = FreeFold(
            StrictFunctor(
                free_smc(n),
                semantics,
                {"A": ("X", "Y"), "B": ("W",), "Z": ("X", "Y")},
                {"t": Gen("u"), "s": Gen("v")},
            )
        )
        nws = NetWithSemantics(n, fold)
        sig = nws.presentation
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, sig, {"o": "A"}),
            o_n_witness_functor(witness_net, sig, {"o": "Z"}),
        )
        result, functor = identify(nws, witness)
        assert result.net.places == ("A", "B")
        assert result.net.transition("t").pre.to_dict() == {"A": 1, "B": 1}
        # the induced fold reproduces the original through the quotient
        for gen in sig.morphisms:
            assert sem_equal(
                nws.semantics,
                nws.fold.morphism_image(gen.name),
                result.fold.term_image(functor.morphism_map[gen.name]),
            )


class TestIdentifyEdgeCases:
    def test_self_pair_witness_is_identity(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, sig, {"o": "C1"}),
            o_n_witness_functor(witness_net, sig, {"o": "C1"}),
        )
        result, functor = identify(fig5, witness)
        assert result.net == fig5.net
        assert functor.object_map == {o: (o,) for o in sig.objects}

    def test_empty_witness_is_identity(self):
        fig5 = fig5a_nws()
        sig = fig5.presentation
        empty = PetriNet((), ())
        witness = Witness(
            empty,
            StrictFunctor(free_smc(empty), sig, {}, {}),
            StrictFunctor(free_smc(empty), sig, {}, {}),
        )
        result, _ = identify(fig5, witness)
        assert result.net == fig5.net

    def test_fold_through_word_valued_functor_rejected(self):
        sig = SmcPresentation(("A", "B"), ())
        doubling = StrictFunctor(sig, sig, {"A": ("A", "B"), "B": ("B",)}, {})
        with pytest.raises(PreconditionFailedError, match="send places to places"):
            factor_fold_through_coequalizer(doubling, FreeFold(identity_functor(sig)))


class TestMultiBoundaryComposition:
    def _sides(self, right_transitions):
        semantics = SmcPresentation(
            ("A", "P", "Q", "Z"),
            (
                MorphismGenerator("f", ("A",), ("P", "Q")),
                MorphismGenerator("c1", ("P",), ("Z",)),
                MorphismGenerator("c2", ("Q",), ("Z",)),
                MorphismGenerator("r", ("P", "Q"), ("Z",)),
            ),
        )
        left = net(["A", "P", "Q"], [("f", {"A": 1}, {"P": 1, "Q": 1})])
        left_sem = NetWithSemantics(
            left,
            FreeFold(StrictFunctor(
                free_smc(left), semantics,
                {"A": ("A",), "P": ("P",), "Q": ("Q",)}, {"f": Gen("f")},
            )),
        )
        names = [name for name, _, _ in right_transitions]
        right = net(["P", "Q", "Z"], right_transitions)
        right_sem = NetWithSemantics(
            right,
            FreeFold(StrictFunctor(
                free_smc(right), semantics,
                {"P": ("P",), "Q": ("Q",), "Z": ("Z",)},
                {name: Gen(name) for name in names},
            )),
        )
        return left_sem, right_sem, semantics

    def test_two_boundary_places_compose_sequentially(self):
        left_sem, right_sem, semantics = self._sides(
            [("c1", {"P": 1}, {"Z": 1}), ("c2", {"Q": 1}, {"Z": 1})]
        )
        result = boundary_compose(left_sem, right_sem, [("P", "P"), ("Q", "Q")])
        assert result.net.net.places == ("A", "Z")
        (transition,) = result.net.net.transitions
        assert transition.pre.to_dict() == {"A": 1}
        assert transition.post.to_dict() == {"Z": 2}
        assert [counts for _, counts in result.firing_vectors] == [
            (("c1", 1), ("f", 1)),
            (("c2", 1), ("f+c1", 1)),
        ]
        # both consumers take their token from the single producer event;
        # the outputs end up swapped relative to f;(c1 (x) c2)
        decoration = result.net.fold.morphism_image(transition.name)
        straight = Compose(Gen("f"), Tensor(Gen("c1"), Gen("c2")))
        swapped = Compose(straight, symmetry(("Z", "Z"), (1, 0)))
        assert sem_equal(result.net.semantics, decoration, swapped)
        assert not sem_equal(result.net.semantics, decoration, straight)
        verdict = is_synchronization(result.functor, result.net, result.merged, 3)
        assert verdict.passed

    def test_consumer_spanning_two_boundaries_is_rejected(self):
        # a single consumer taking tokens from both boundary places would
        # need its own output fed back into its input: not expressible
        left_sem, right_sem, semantics = self._sides(
            [("r", {"P": 1, "Q": 1}, {"Z": 1})]
        )
        with pytest.raises(BoundaryOrientationError):
            boundary_compose(left_sem, right_sem, [("P", "P"), ("Q", "Q")])


def free_nets(*specs) -> list[NetWithSemantics]:
    """Nets from ``(places, transitions)`` specs, each folded into one
    free semantics whose generators are all their transitions."""
    nets = [net(places, transitions) for places, transitions in specs]
    objects = tuple(dict.fromkeys(p for n in nets for p in n.places))
    semantics = SmcPresentation(objects, tuple(g for n in nets for g in n.presentation.morphisms))
    return [
        NetWithSemantics(n, FreeFold(StrictFunctor(
            n.presentation, semantics, {p: (p,) for p in n.places},
            {t.name: Gen(t.name) for t in n.transitions},
        )))
        for n in nets
    ]


def random_decoupled_pair(
    rng: random.Random,
) -> tuple[NetWithSemantics, NetWithSemantics, list[tuple[str, str]]]:
    """Two or three paired places, each with one or two producers and
    consumers of its own: every transition touches one boundary place.
    Some also make a side token ``S`` or need an extra one ``R``."""
    boundary = [f"X{i}" for i in range(rng.randint(2, 3))]
    left, right = [], []
    for i, place in enumerate(boundary):
        for j in range(rng.randint(1, 2)):
            post = {place: rng.randint(1, 3)}
            if rng.random() < 0.3:
                post["S"] = 1
            left.append((f"p{i}{j}", {f"I{i}": rng.randint(1, 2)}, post))
        for j in range(rng.randint(1, 2)):
            pre = {place: rng.randint(1, 3)}
            if rng.random() < 0.3:
                pre["R"] = 1
            right.append((f"c{i}{j}", pre, {f"O{i}": 1}))
    rng.shuffle(left)
    rng.shuffle(right)
    left_places = [f"I{i}" for i in range(len(boundary))] + boundary + ["S"]
    right_places = boundary + ["R"] + [f"O{i}" for i in range(len(boundary))]
    rng.shuffle(left_places)
    rng.shuffle(right_places)
    left_sem, right_sem = free_nets((left_places, left), (right_places, right))
    return left_sem, right_sem, [(b, b) for b in boundary]


def _event_shapes(result: BoundaryComposition) -> list:
    return [(t.name, t.pre.to_dict(), t.post.to_dict()) for t in result.net.net.transitions]


class TestCompositionOrder:
    """Boundary composition synchronizes one merged place at a time, in
    pairing order, so where transitions couple boundary places the
    result depends on that order, and chains depend on bracketing."""

    def test_pairing_order_changes_a_coupled_composition(self):
        left, right = free_nets(
            (["I", "X", "Y"], [
                ("p0", {"I": 1}, {"Y": 1}),
                ("p1", {"I": 1}, {"X": 1, "Y": 2}),
                ("p2", {"I": 1}, {"Y": 3}),
            ]),
            (["X", "Y", "O"], [("c0", {"Y": 1}, {"O": 1}), ("c1", {"X": 2}, {"O": 1})]),
        )
        x_first = boundary_compose(left, right, [("X", "X"), ("Y", "Y")])
        y_first = boundary_compose(left, right, [("Y", "Y"), ("X", "X")])
        assert _event_shapes(x_first) == [("p0+p2+p1*2+c1+c0*8", {"I": 4}, {"O": 9})]
        assert _event_shapes(y_first) == [("p0+p1+p2+c0*6*2+c1", {"I": 6}, {"O": 13})]

    def test_bracketing_changes_a_chain(self):
        a, b, c = free_nets(
            (["I", "X"], [("a0", {"I": 1}, {"X": 2})]),
            (["X", "Y"], [("b0", {"X": 1}, {"Y": 2}), ("b1", {"X": 2}, {"Y": 1})]),
            (["Y", "O"], [("c0", {"Y": 2}, {"O": 1})]),
        )
        ab = boundary_compose(a, b, [("X", "X")]).net
        bc = boundary_compose(b, c, [("Y", "Y")]).net
        ab_c = boundary_compose(ab, c, [("Y", "Y")])
        a_bc = boundary_compose(a, bc, [("X", "X")])
        assert _event_shapes(ab_c) == [("a0*2+b0*2+b1*2+c0*5", {"I": 4}, {"O": 5})]
        assert _event_shapes(a_bc) == [("a0*5+b0+b1*2+c0*2*2", {"I": 5}, {"O": 4})]

    def test_decoupled_pairings_compose_alike_in_every_order(self):
        """Up to the order of the events: the same places, transitions,
        fold images and firing vectors."""
        rng = random.Random(27)
        orders = 0
        for _ in range(15):
            left, right, pairing = random_decoupled_pair(rng)
            first, *rest = (
                boundary_compose(left, right, list(order))
                for order in itertools.permutations(pairing)
            )
            for result in rest:
                assert result.net.net.places == first.net.net.places
                assert set(result.net.net.transitions) == set(first.net.net.transitions)
                assert sorted(result.firing_vectors) == sorted(first.firing_vectors)
                for t in first.net.net.transitions:
                    assert sem_equal(
                        first.net.semantics,
                        result.net.fold.morphism_image(t.name),
                        first.net.fold.morphism_image(t.name),
                    )
                orders += 1
        assert orders >= 30


def random_compose_pair(
    rng: random.Random,
) -> tuple[NetWithSemantics, NetWithSemantics, list[tuple[str, str]]]:
    """Left producers and right consumers on one to three paired places.

    Each boundary place gets one or two producers and consumers, now and
    then none, and some of them touch a second boundary place; a few
    transitions of either side stay inside.  Right names sometimes
    collide with left ones, so the coproduct primes them, and a left
    transition may consume from, or a right one produce on, a boundary
    place.  Places go to words of zero to two letters, paired ones to
    the same word but now and then not; transitions go to their own
    generators, some behind an input symmetry.  The semantics is free,
    terminal, or the product of the two.
    """
    k = rng.randint(1, 3)
    boundary = [f"P{i}" for i in range(k)]
    right_boundary = [p if rng.random() < 0.6 else f"Q{i}" for i, p in enumerate(boundary)]
    left_inner = [f"I{i}" for i in range(rng.randint(0, 2))]
    right_inner = [
        rng.choice(("I0", "O0")) if i == 0 else f"O{i}" for i in range(rng.randint(0, 2))
    ]

    def side(places, inner, ends, producing, prefix):
        pairs = []
        for end in ends:
            amount = rng.choice((0, 1, 1, 1, 2)) if rng.random() < 0.1 else rng.choice((1, 1, 2))
            for _ in range(amount):
                own = {p: rng.randint(1, 2) for p in inner if rng.random() < 0.4}
                edge = {end: rng.choice((1, 1, 2, 3))}
                if rng.random() < 0.15:
                    edge[rng.choice(ends)] = 1
                pairs.append((own, edge) if producing else (edge, own))
        for _ in range(rng.choice((0, 0, 1, 2))):
            pairs.append(tuple(
                {p: rng.randint(1, 2) for p in inner if rng.random() < 0.4} for _ in "io"
            ))
        if rng.random() < 0.05:
            wrong = {rng.choice(ends): 1}
            pairs.append((wrong, {}) if producing else ({}, wrong))
        rng.shuffle(pairs)
        return net(places, [(f"{prefix}{i}", pre, post) for i, (pre, post) in enumerate(pairs)])

    nets = {
        "l": side(left_inner + boundary, left_inner, boundary, True, "p"),
        "r": side(right_boundary + right_inner, right_inner, right_boundary, False,
                  rng.choice("cp")),
    }
    letters = ("X", "Y", "Z")
    images = {
        (tag, p): tuple(rng.choice(letters) for _ in range(rng.choice((0, 1, 1, 1, 2, 2))))
        for tag, n in nets.items()
        for p in n.places
    }
    for lp, rp in zip(boundary, right_boundary):
        if rng.random() < 0.95:
            images["r", rp] = images["l", lp]
    generators = []
    maps = {}
    for tag, n in nets.items():
        morphism_map = {}
        for gen in n.presentation.morphisms:
            dom = tuple(x for p in gen.dom for x in images[tag, p])
            cod = tuple(x for p in gen.cod for x in images[tag, p])
            perm = list(range(len(dom)))
            rng.shuffle(perm)
            generators.append(MorphismGenerator(tag + gen.name, apply_perm(dom, perm), cod))
            morphism_map[gen.name] = Gen(tag + gen.name)
            if perm != sorted(perm):
                morphism_map[gen.name] = Compose(Perm(dom, tuple(perm)), Gen(tag + gen.name))
        maps[tag] = ({p: images[tag, p] for p in n.places}, morphism_map)
    semantics = SmcPresentation(letters, tuple(generators))
    kind = rng.choice(("free", "free", "free", "terminal", "product"))

    def with_semantics(tag):
        n = nets[tag]
        free = FreeFold(StrictFunctor(n.presentation, semantics, *maps[tag]))
        terminal = TerminalFold(n.presentation)
        fold = {"free": free, "terminal": terminal, "product": PairFold(free, terminal)}[kind]
        return NetWithSemantics(n, fold)

    return with_semantics("l"), with_semantics("r"), list(zip(boundary, right_boundary))


class TestBoundaryComposeAgainstPerStepOracle:
    """The one-pass composition against the per-step one it replaced:
    equal compositions with byte-identical serialized nets, or the same
    error class and message."""

    def fixed_cases(self):
        yield (*fig8a_nets(), [("C", "C")])
        yield k_boundary_pair(3)
        yield (*split_event_pair(), [("B", "B")])
        yield (*collapsing_split_pair(), [("B", "B")])
        yield (*fig8a_nets(), [])

    def test_matches_per_step_composition(self):
        rng = random.Random(83)
        cases = list(self.fixed_cases())
        cases += [random_compose_pair(rng) for _ in range(220)]
        seen = set()
        for left, right, pairing in cases:
            new = outcome(boundary_compose, left, right, pairing)
            old = outcome(reference_gluing.boundary_compose, left, right, pairing)
            assert new == old
            if isinstance(new, tuple):
                seen.add(new[0])
                continue
            assert serialize_net(new.net) == serialize_net(old.net)
            assert serialize_net(new.merged) == serialize_net(old.merged)
            shape = type(new.net.fold).__name__
            seen.add((shape, len(pairing)))
            if shape == "FreeFold" and any(
                len(word) > 1 for word in new.net.fold.functor.object_map.values()
            ):
                seen.add("multi-letter")
        assert {
            BoundaryOrientationError, SemanticsObstructionError, VerdictFailedError,
            "multi-letter", ("FreeFold", 0), ("PairFold", 2), ("TerminalFold", 3),
        } | {("FreeFold", k) for k in (1, 2, 3)} <= seen


class TestBoundaryComposeFunctorCount:
    """The steps compose only the running functor, and the fold is carried
    along it once."""

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_k_plus_one_compositions(self, monkeypatch, k):
        original = petriglue.functors.compose_functors
        calls = {"compose": 0, "after": 0}

        def counting_compose(*args):
            calls["compose"] += 1
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("petriglue") and getattr(module, "compose_functors", None) is original:
                monkeypatch.setattr(module, "compose_functors", counting_compose)
        after = FreeFold.after

        def counting_after(self, functor):
            calls["after"] += 1
            return after(self, functor)

        monkeypatch.setattr(FreeFold, "after", counting_after)
        left, right, pairing = k_boundary_pair(k)
        result = boundary_compose(left, right, pairing)
        assert calls == {"compose": k + 1, "after": 1}
        assert len(result.net.net.transitions) == k


class TestBuiltWithoutChecks:
    """What is built unchecked is what the checks would accept.

    Functors, nets and multisets derived from validated parts are built
    through ``net_model._built``, which skips ``__post_init__``; a net
    whose presentation is known is given it there.  On random instances
    of every construction that does so, each such functor and net passes
    the validating constructor unchanged, and each seeded presentation
    is ``free_smc`` of its net.
    """

    FUNCTOR_SITES = {
        "net_coproduct", "_copair_folds", "compose_functors", "_coequalize",
        "factor_fold_through_coequalizer", "identity_functor",
        "synchronize_transitions", "boundary_compose",
    }
    NET_SITES = {
        "net_coproduct", "prune_isolated_places", "net_of_presentation", "boundary_compose",
    }

    @pytest.fixture(scope="class")
    def built(self):
        values: list[tuple[str, object, bool]] = []
        original = petriglue.net_model._built

        def recording(cls, *fields, **cached):
            value = original(cls, *fields, **cached)
            frame = sys._getframe(1)
            while frame.f_code.co_flags & inspect.CO_NESTED:  # a comprehension or local function
                frame = frame.f_back
            values.append((frame.f_code.co_name, value, "presentation" in cached))
            return value

        with pytest.MonkeyPatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("petriglue") and getattr(module, "_built", None) is original:
                    patch.setattr(module, "_built", recording)
            self.run_instances(random.Random(89))
        return values

    @staticmethod
    def run_instances(rng: random.Random) -> None:
        for _ in range(40):
            left, right, pairing = random_compose_pair(rng)
            outcome(boundary_compose, left, right, pairing)
            witness_net = PetriNet(tuple(f"b{i}" for i in range(len(pairing))), ())
            legs = [
                StrictFunctor(
                    witness_net.presentation,
                    side.presentation,
                    {b: (p,) for b, p in zip(witness_net.places, places)},
                    {},
                )
                for side, places in zip((left, right), zip(*pairing))
            ]
            outcome(pushout_glue, left, right, witness_net, *legs)
        for _ in range(100):
            outcome(monoidal_product, *_random_coproduct_pair(rng))
        for _ in range(150):
            n = _net_with_copy(rng)
            fold = _random_fold(rng, n)
            first, second = _random_witness_pair(rng, n.presentation, fold)
            witness_net = net_of_presentation(first.source)
            if witness_net.presentation == first.source:
                outcome(identify, NetWithSemantics(n, fold), Witness(witness_net, first, second))
            else:
                coequalized = outcome(coequalize_tp, first, second)
                if len(coequalized) == 2 and isinstance(coequalized[1], StrictFunctor):
                    outcome(factor_fold_through_coequalizer, coequalized[1], fold)

    @staticmethod
    def by_site(built, kind) -> dict[str, list]:
        sites: dict[str, list] = {}
        for site, value, _ in built:
            if isinstance(value, kind):
                sites.setdefault(site, []).append(value)
        return sites

    def test_every_unchecked_functor_passes_the_full_check(self, built):
        sites = self.by_site(built, StrictFunctor)
        for functor in itertools.chain(*sites.values()):
            checked = StrictFunctor(
                functor.source, functor.target, functor.object_map, functor.morphism_map
            )
            assert checked == functor
        assert set(sites) == self.FUNCTOR_SITES
        assert min(map(len, sites.values())) >= 20, {k: len(v) for k, v in sites.items()}

    def test_every_unchecked_net_passes_the_full_check(self, built):
        sites = self.by_site(built, PetriNet)
        for n in itertools.chain(*sites.values()):
            assert PetriNet(n.places, n.transitions) == n
        assert set(sites) == self.NET_SITES
        assert min(map(len, sites.values())) >= 20, {k: len(v) for k, v in sites.items()}

    def test_every_unchecked_witness_passes_the_full_check(self, built):
        sites = self.by_site(built, Witness)
        assert set(sites) == {"boundary_compose"}
        assert len(sites["boundary_compose"]) >= 20
        for witness in sites["boundary_compose"]:
            assert Witness(witness.net, witness.left, witness.right) == witness

    def test_every_seeded_presentation_is_free_smc(self, built):
        seeded = [n for _, n, presented in built if presented]
        assert len(seeded) >= 200
        for n in seeded:
            assert free_smc(n) == n.presentation

    def test_every_unchecked_multiset_passes_the_full_check(self, built):
        sites = self.by_site(built, Multiset)
        assert set(sites) == {"from_counts"}
        for ms in sites["from_counts"]:
            assert Multiset(ms.entries) == ms
