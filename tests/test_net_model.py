"""Nets, multisets, linearization, presentations and coproducts."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from petriglue import (
    Gen,
    Multiset,
    PetriNet,
    SmcPresentation,
    MorphismGenerator,
    Transition,
    UnknownGeneratorError,
    UnknownPlaceError,
    ValidationError,
    compose_functors,
    free_smc,
    identity_functor,
    is_generator_preserving_on_objects,
    is_transition_preserving,
    net_coproduct,
    net_of_presentation,
    presentations_isomorphic,
    prune_isolated_places,
)
from support import fig1_net, net, random_net


@st.composite
def nets(draw):
    n_places = draw(st.integers(1, 4))
    places = tuple(f"p{i}" for i in range(n_places))
    transitions = []
    for i in range(draw(st.integers(0, 3))):
        pre = draw(st.dictionaries(st.sampled_from(places), st.integers(1, 3), max_size=n_places))
        post = draw(st.dictionaries(st.sampled_from(places), st.integers(1, 3), max_size=n_places))
        transitions.append(
            Transition(f"t{i}", Multiset.from_counts(pre), Multiset.from_counts(post))
        )
    return PetriNet(places, tuple(transitions))


def linearize(ms, places):
    """The word ``free_smc`` gives a transition consuming ``ms``."""
    t = Transition("t", ms, Multiset.empty())
    return free_smc(PetriNet(tuple(places), (t,))).morphism("t").dom


class TestLinearize:
    """Multisets become words sorted by the net's place order."""

    def test_empty_multiset(self):
        assert linearize(Multiset.empty(), ["A", "B"]) == ()

    def test_sorted_by_order(self):
        ms = Multiset.from_counts({"A": 2, "C": 1})
        assert linearize(ms, ["A", "B", "C"]) == ("A", "A", "C")

    def test_fig1_g_input(self):
        ms = Multiset.from_counts({"A": 2, "B": 1, "C": 3})
        order = ["A", "B", "C", "D", "E", "F"]
        assert linearize(ms, order) == ("A", "A", "B", "C", "C", "C")

    def test_unknown_place(self):
        with pytest.raises(UnknownPlaceError):
            linearize(Multiset.from_counts({"Z": 1}), ["A"])

    @given(nets())
    def test_length_and_multiplicity(self, n):
        for t in n.transitions:
            word = n.presentation.morphism(t.name).dom
            assert len(word) == t.pre.total()
            for place in t.pre.names():
                assert word.count(place) == t.pre.count(place)


class TestFreeSmc:
    def test_single_place(self):
        sig = free_smc(net(["A"], []))
        assert sig.objects == ("A",)
        assert sig.morphisms == ()

    def test_fig1(self):
        sig = free_smc(fig1_net())
        assert sig.morphism("g").dom == ("A", "A", "B", "C", "C", "C")
        assert sig.morphism("g").cod == ("E", "F")
        assert sig.morphism("h").dom == ("C", "D", "D", "D", "D")
        assert sig.morphism("h").cod == ("F",)
        assert sig.morphism("k").dom == ("E", "F")
        assert sig.morphism("k").cod == ()
        assert sig.morphism("f").dom == ()
        assert sig.morphism("f").cod == ("A", "A", "A", "B", "C", "C", "C", "C", "C")

    @given(nets())
    def test_round_trip(self, n):
        assert net_of_presentation(free_smc(n)) == n


class TestNetOfPresentation:
    def test_trivial(self):
        sig = SmcPresentation(("A",), ())
        assert net_of_presentation(sig) == net(["A"], [])

    def test_fig1_exact(self):
        n = fig1_net()
        sig = free_smc(n)
        assert net_of_presentation(sig) == n
        assert vars(net_of_presentation(sig))["presentation"] is sig

    def test_unsorted_word_forgotten(self):
        sig = SmcPresentation(
            ("A", "C"), (MorphismGenerator("t", ("C", "A", "A"), ()),)
        )
        n = net_of_presentation(sig)
        assert n.transition("t").pre.to_dict() == {"A": 2, "C": 1}
        # An unsorted word is not the net's own: no presentation is seeded.
        assert "presentation" not in vars(n)
        assert n.presentation.morphism("t").dom == ("A", "A", "C")

    @pytest.mark.parametrize("word", [("A", "C", "A"), ("A", "A", "C", "A"), ("C", "A")])
    def test_any_unsorted_pair_seeds_nothing(self, word):
        sig = SmcPresentation(
            ("A", "C"),
            (MorphismGenerator("s", ("A", "C"), ("C",)), MorphismGenerator("t", (), word)),
        )
        assert "presentation" not in vars(net_of_presentation(sig))

    @given(nets())
    def test_presentation_round_trip_sorts(self, n):
        sig = free_smc(n)
        assert free_smc(net_of_presentation(sig)) == sig


class TestCoproduct:
    def test_unit(self):
        m = fig1_net()
        result, iota1, iota2 = net_coproduct(m, net([], []))
        assert result == m
        assert iota1.source == m.presentation and iota1.target == result.presentation
        assert iota1.object_map == {p: (p,) for p in m.places}
        assert iota1.morphism_map == {t.name: Gen(t.name) for t in m.transitions}
        assert iota2.object_map == {} and iota2.morphism_map == {}

    def test_fig8a(self):
        left = net(["A", "C", "B"], [("f", {"A": 2}, {"C": 1, "B": 1})])
        right = net(["C", "D", "E"], [("h", {"C": 2}, {"D": 1}), ("k", {"C": 1}, {"E": 1})])
        result, iota1, iota2 = net_coproduct(left, right)
        assert result.places == ("A", "C", "B", "C'", "D", "E")
        assert [t.name for t in result.transitions] == ["f", "h", "k"]
        assert iota1.morphism_map == {"f": Gen("f")}
        assert iota2.map_object("C") == ("C'",)
        assert iota2.morphism_map == {"h": Gen("h"), "k": Gen("k")}
        assert result.transition("h").pre.to_dict() == {"C'": 2}

    @given(nets(), nets())
    def test_counts(self, m, n):
        result, iota1, iota2 = net_coproduct(m, n)
        assert len(result.places) == len(m.places) + len(n.places)
        assert len(result.transitions) == len(m.transitions) + len(n.transitions)

    @given(nets(), nets())
    def test_injections_total_injective_jointly_surjective(self, m, n):
        result, iota1, iota2 = net_coproduct(m, n)
        left = [iota1.map_object(p) for p in m.places]
        right = [iota2.map_object(p) for p in n.places]
        assert all(len(word) == 1 for word in left + right)
        assert len(set(left)) == len(m.places)
        assert len(set(right)) == len(n.places)
        assert sorted(left + right) == sorted((p,) for p in result.places)
        images = [iota1.morphism_map[t.name] for t in m.transitions] + [
            iota2.morphism_map[t.name] for t in n.transitions
        ]
        assert all(isinstance(image, Gen) for image in images)
        assert sorted(g.name for g in images) == sorted(t.name for t in result.transitions)

    @given(nets(), nets())
    def test_injections_are_transition_preserving_functors(self, m, n):
        result, iota1, iota2 = net_coproduct(m, n)
        for summand, iota in ((m, iota1), (n, iota2)):
            assert iota.source == summand.presentation
            assert iota.target == result.presentation
            assert is_generator_preserving_on_objects(iota)
            assert is_transition_preserving(iota)
            assert compose_functors(identity_functor(summand.presentation), iota) == iota
            assert compose_functors(iota, identity_functor(result.presentation)) == iota


class TestPrune:
    def test_removes_isolated(self):
        n = net(["A", "B", "E"], [("t", {"A": 1}, {"B": 1})])
        pruned, removed = prune_isolated_places(n)
        assert pruned.places == ("A", "B")
        assert removed == ("E",)

    def test_no_isolated_places_unchanged(self):
        n = fig1_net()
        pruned, removed = prune_isolated_places(n)
        assert pruned == n
        assert removed == ()

    def test_idempotent_on_random_nets(self):
        rng = random.Random(11)
        for _ in range(50):
            n = random_net(rng)
            once, _ = prune_isolated_places(n)
            twice, removed = prune_isolated_places(once)
            assert twice == once
            assert removed == ()


class TestValidation:
    def test_duplicate_places(self):
        with pytest.raises(ValidationError):
            PetriNet(("A", "A"), ())

    def test_undeclared_place_in_transition(self):
        with pytest.raises(UnknownPlaceError):
            net(["A"], [("t", {"B": 1}, {})])

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError):
            Multiset((("A", 0),))

    def test_unknown_transition(self):
        with pytest.raises(UnknownGeneratorError, match="no transition named 'z'"):
            fig1_net().transition("z")

    def test_unknown_morphism_generator(self):
        with pytest.raises(UnknownGeneratorError, match="no morphism generator named 'z'"):
            free_smc(fig1_net()).morphism("z")


class TestMultiset:
    """Entries given directly are checked; entries from counts are sorted
    and unique by construction, and only their counts are checked."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((("B", 1), ("A", 1)), "name-sorted and unique"),
            ((("A", 1), ("A", 2)), "name-sorted and unique"),
            ((("A", 0),), "count for 'A' must be >= 1"),
            ((("A", 1), ("B", -2)), "count for 'B' must be >= 1"),
        ],
    )
    def test_direct_construction_checks_entries(self, entries, message):
        with pytest.raises(ValidationError, match=message):
            Multiset(entries)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="count for 'A' must be >= 1"):
            Multiset.from_counts({"A": -1})
        with pytest.raises(ValidationError, match="count for 'B' must be >= 1"):
            Multiset.from_counts({"A": 0, "B": -1, "C": 2})

    @given(st.dictionaries(st.sampled_from("ABCDE"), st.integers(0, 3)))
    def test_from_counts_agrees_with_direct_construction(self, counts):
        ms = Multiset.from_counts(counts)
        positive = {name: c for name, c in counts.items() if c}
        assert ms == Multiset(tuple(sorted(positive.items())))
        assert ms.to_dict() == positive
        for name in "ABCDEF":
            assert ms.count(name) == positive.get(name, 0)
            assert (name in ms) == (name in positive)

    def test_of_word(self):
        assert Multiset.of_word(("B", "A", "B")) == Multiset((("A", 1), ("B", 2)))
        assert Multiset.of_word(()) == Multiset.empty()


class TestPresentationIsomorphism:
    def test_rename_is_iso(self):
        p = free_smc(fig1_net())
        q = SmcPresentation(
            tuple(f"{o}_" for o in p.objects),
            tuple(
                MorphismGenerator(
                    f"{m.name}_",
                    tuple(f"{x}_" for x in m.dom),
                    tuple(f"{x}_" for x in m.cod),
                )
                for m in p.morphisms
            ),
        )
        assert presentations_isomorphic(p, q)

    def test_word_order_ignored(self):
        p = SmcPresentation(("A", "B"), (MorphismGenerator("t", ("A", "B"), ()),))
        q = SmcPresentation(("B", "A"), (MorphismGenerator("t", ("B", "A"), ()),))
        assert presentations_isomorphic(p, q)

    def test_different_shape_is_not(self):
        p = SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ()),))
        q = SmcPresentation(("A",), (MorphismGenerator("t", ("A", "A"), ()),))
        assert not presentations_isomorphic(p, q)
