"""Functor action, composition, predicates, bounded faithfulness."""
from __future__ import annotations

import random

import pytest

from petriglue import (
    Compose,
    CounterexampleFound,
    FaithfulUpTo,
    Gen,
    Id,
    MorphismGenerator,
    Perm,
    PreconditionFailedError,
    SmcPresentation,
    SourceMismatchError,
    StrictFunctor,
    UnknownGeneratorError,
    ValidationError,
    apply_functor,
    check_faithful_bounded,
    compose_functors,
    decomposition,
    diagram_key,
    free_smc,
    identity_functor,
    is_generator_preserving_on_objects,
    is_injective_on_object_generators,
    is_transition_preserving,
    terms_equal,
    to_diagram,
    typecheck,
    uncovered_target_generators,
)
import petriglue.functors
from petriglue.errors import BudgetExceededError
from petriglue.fssmc import StringDiagram, Tensor, compose_terms, identity_perm, tensor_terms
from petriglue.functors import (
    _firing_sequences,
    _firing_term,
    _readback_generators,
    _rigid_through_hidden,
    _spliced_diagram,
)
from support import (
    fig1_net,
    random_embedding,
    random_presentation,
    random_term,
    random_term_with_dom,
    validate_diagram,
)

import reference_functors as reference
from reference_functors import _canonical_firing_term
from reference_functors import relabelled_generators as _relabelled_generators

SIG = free_smc(fig1_net())


def doubling_functor() -> StrictFunctor:
    """Maps the one-place presentation into words of length two."""
    source = SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ("A", "A")),))
    target = SmcPresentation(("X", "Y"), (MorphismGenerator("u", ("X", "Y"), ("X", "Y", "X", "Y")),))
    return StrictFunctor(
        source, target, {"A": ("X", "Y")}, {"t": Gen("u")}
    )


def composite_collapse_functor() -> StrictFunctor:
    """``c`` goes to the composite of the images of ``a`` and ``b``."""
    source = SmcPresentation(
        ("A", "B", "C"),
        (
            MorphismGenerator("a", ("A",), ("B",)),
            MorphismGenerator("b", ("B",), ("C",)),
            MorphismGenerator("c", ("A",), ("C",)),
        ),
    )
    target = SmcPresentation(
        ("X", "Y", "Z"),
        (
            MorphismGenerator("p", ("X",), ("Y",)),
            MorphismGenerator("q", ("Y",), ("Z",)),
        ),
    )
    return StrictFunctor(
        source,
        target,
        {"A": ("X",), "B": ("Y",), "C": ("Z",)},
        {"a": Gen("p"), "b": Gen("q"), "c": Compose(Gen("p"), Gen("q"))},
    )


class TestApply:
    def test_identity_law(self):
        functor = identity_functor(SIG)
        term = Compose(Gen("g"), Gen("k"))
        assert terms_equal(apply_functor(functor, term), term, SIG)

    def test_id_maps_to_mapped_id(self):
        functor = doubling_functor()
        image = apply_functor(functor, Id(("A",)))
        assert image == Id(("X", "Y"))

    def test_perm_becomes_block_permutation(self):
        functor = doubling_functor()
        image = apply_functor(functor, Perm(("A", "A"), (1, 0)))
        assert typecheck(image, functor.target) == (
            ("X", "Y", "X", "Y"),
            ("X", "Y", "X", "Y"),
        )
        assert image.perm == (2, 3, 0, 1)

    def test_functorial_over_composition(self):
        rng = random.Random(21)
        functor = random_embedding(rng, SIG)
        for _ in range(20):
            a = random_term(rng, SIG, 3)
            b = random_term_with_dom(rng, SIG, typecheck(a, SIG)[1], 2)
            lhs = apply_functor(functor, Compose(a, b))
            rhs = Compose(apply_functor(functor, a), apply_functor(functor, b))
            assert terms_equal(lhs, rhs, functor.target)

    def test_preserves_diagram_equality(self):
        rng = random.Random(22)
        functor = random_embedding(rng, SIG)
        from support import random_rewrite

        for _ in range(20):
            t = random_term(rng, SIG, 3)
            t2 = random_rewrite(rng, t, SIG)
            assert terms_equal(
                apply_functor(functor, t), apply_functor(functor, t2), functor.target
            )


class TestComposeFunctors:
    def test_identity_unit(self):
        rng = random.Random(23)
        functor = random_embedding(rng, SIG)
        composed = compose_functors(identity_functor(SIG), functor)
        assert composed.object_map == functor.object_map
        for name, image in functor.morphism_map.items():
            assert terms_equal(composed.morphism_map[name], image, functor.target)

    def test_associative_up_to_diagrams(self):
        rng = random.Random(24)
        f = random_embedding(rng, SIG)
        g = random_embedding(rng, f.target)
        h = random_embedding(rng, g.target)
        left = compose_functors(compose_functors(f, g), h)
        right = compose_functors(f, compose_functors(g, h))
        assert left.object_map == right.object_map
        for gen in SIG.morphisms:
            assert terms_equal(
                left.morphism_map[gen.name], right.morphism_map[gen.name], h.target
            )

    def test_source_target_mismatch(self):
        with pytest.raises(SourceMismatchError):
            compose_functors(identity_functor(SIG), doubling_functor())

    def test_agrees_with_apply(self):
        rng = random.Random(25)
        f = random_embedding(rng, SIG)
        g = random_embedding(rng, f.target)
        fg = compose_functors(f, g)
        for _ in range(10):
            t = random_term(rng, SIG, 3)
            assert terms_equal(
                apply_functor(fg, t), apply_functor(g, apply_functor(f, t)), g.target
            )


class TestPredicates:
    def test_generator_preserving(self):
        assert is_generator_preserving_on_objects(identity_functor(SIG))
        assert not is_generator_preserving_on_objects(doubling_functor())

    def test_injectivity(self):
        source = SmcPresentation(("A", "B"), ())
        target = SmcPresentation(("X",), ())
        collapse = StrictFunctor(source, target, {"A": ("X",), "B": ("X",)}, {})
        assert not is_injective_on_object_generators(collapse)
        assert is_injective_on_object_generators(identity_functor(SIG))

    def test_injectivity_requires_generator_preserving(self):
        with pytest.raises(PreconditionFailedError):
            is_injective_on_object_generators(doubling_functor())

    def test_transition_preserving(self):
        assert is_transition_preserving(identity_functor(SIG))
        source = SmcPresentation(
            ("A", "B", "C", "D", "E", "F"),
            (MorphismGenerator("gk", ("A", "A", "B", "C", "C", "C"), ()),),
        )
        conflating = StrictFunctor(
            source,
            SIG,
            {o: (o,) for o in source.objects},
            {"gk": Compose(Gen("g"), Gen("k"))},
        )
        assert not is_transition_preserving(conflating)
        to_id = StrictFunctor(
            SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ("A",)),)),
            SmcPresentation(("A",), ()),
            {"A": ("A",)},
            {"t": Id(("A",))},
        )
        assert not is_transition_preserving(to_id)

    def test_coverage(self):
        assert uncovered_target_generators(identity_functor(SIG)) == ()
        empty_source = StrictFunctor(
            SmcPresentation(("A",), ()), SIG, {"A": ("A",)}, {}
        )
        assert uncovered_target_generators(empty_source) == ("f", "g", "h", "k")
        no_targets = StrictFunctor(
            SmcPresentation(("A",), ()), SmcPresentation(("X",), ()), {"A": ("X",)}, {}
        )
        assert uncovered_target_generators(no_targets) == ()

    def test_transition_preserving_matches_box_count(self):
        rng = random.Random(27)
        verdicts = set()
        for _ in range(300):
            target = random_presentation(rng)
            images = {
                f"t{i}": random_term(rng, target, rng.randint(1, 3))
                for i in range(rng.randint(1, 3))
            }
            gens = tuple(
                MorphismGenerator(name, *typecheck(image, target))
                for name, image in images.items()
            )
            source = SmcPresentation(target.objects, gens)
            functor = StrictFunctor(source, target, {o: (o,) for o in target.objects}, images)
            by_boxes = all(len(to_diagram(t, target).boxes) == 1 for t in images.values())
            assert is_transition_preserving(functor) == by_boxes
            verdicts.add(by_boxes)
        assert verdicts == {False, True}

    def test_transition_preserving_closed_under_composition(self):
        rng = random.Random(26)
        for _ in range(20):
            f = random_embedding(rng, SIG)
            g = random_embedding(rng, f.target)
            assert is_transition_preserving(f) and is_transition_preserving(g)
            assert is_transition_preserving(compose_functors(f, g))


class TestStrictness:
    def test_non_strict_image_rejected(self):
        source = SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ("A",)),))
        with pytest.raises(ValidationError):
            StrictFunctor(source, SIG, {"A": ("A",)}, {"t": Gen("g")})

    def test_bad_generator_image_messages(self):
        """A ``Gen`` image is typed by looking it up, with the messages the
        fold gave."""
        source = SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ("A",)),))
        with pytest.raises(ValidationError) as caught:
            StrictFunctor(source, SIG, {"A": ("A",)}, {"t": Gen("g")})
        assert str(caught.value) == (
            "image of 't' is not strict: expected ('A',) -> ('A',), "
            "got ('A', 'A', 'B', 'C', 'C', 'C') -> ('E', 'F')"
        )
        with pytest.raises(UnknownGeneratorError) as caught:
            StrictFunctor(source, SIG, {"A": ("A",)}, {"t": Gen("nope")})
        assert str(caught.value) == "unknown morphism generator 'nope'"

    def test_missing_image_rejected(self):
        source = SmcPresentation(("A",), ())
        with pytest.raises(ValidationError):
            StrictFunctor(source, SIG, {}, {})

    def test_image_of_unknown_generator_rejected(self):
        source = SmcPresentation(("A",), ())
        with pytest.raises(ValidationError, match="unknown object generator 'Z'"):
            StrictFunctor(source, SIG, {"A": ("A",), "Z": ("B",)}, {})
        with pytest.raises(ValidationError, match="unknown morphism generator 'ghost'"):
            StrictFunctor(source, SIG, {"A": ("A",)}, {"ghost": Gen("h")})


class TestFaithfulness:
    def test_endo_to_identity_detected(self):
        source = SmcPresentation(("A",), (MorphismGenerator("t", ("A",), ("A",)),))
        target = SmcPresentation(("X",), ())
        functor = StrictFunctor(source, target, {"A": ("X",)}, {"t": Id(("X",))})
        verdict = check_faithful_bounded(functor, 2)
        assert isinstance(verdict, CounterexampleFound)
        assert verdict.bound == 2
        assert not terms_equal(verdict.left, verdict.right, source)
        assert terms_equal(
            apply_functor(functor, verdict.left),
            apply_functor(functor, verdict.right),
            target,
        )

    def test_composite_collapse_detected(self):
        verdict = check_faithful_bounded(composite_collapse_functor(), 2)
        assert isinstance(verdict, CounterexampleFound)

    def test_identity_functor_is_faithful(self):
        for bound in (1, 2, 3, 4):
            verdict = check_faithful_bounded(identity_functor(SIG), bound)
            assert verdict == FaithfulUpTo(bound)

    def test_embeddings_never_flagged(self):
        rng = random.Random(27)
        for _ in range(10):
            functor = random_embedding(rng, SIG)
            assert isinstance(check_faithful_bounded(functor, 2), FaithfulUpTo)

    def test_budget(self):
        """``c`` shares ``p`` and ``q`` with ``a`` and ``b``, so nothing is
        skipped and the 120 sequences pass the limit."""
        with pytest.raises(BudgetExceededError, match="10 firing sequences"):
            check_faithful_bounded(composite_collapse_functor(), 4, node_limit=10)

    def test_budget_counts_built_sequences(self):
        """The identity relabels every generator, so no sequence is built."""
        assert check_faithful_bounded(identity_functor(SIG), 4, node_limit=10) == FaithfulUpTo(4)

    def test_synchronization_shaped_functor_past_the_old_budget(self):
        """39 generators kept and one sent to a composite: 65,640 sequences
        in all, of which only the 4,761 using ``n`` are built."""
        kept = [MorphismGenerator(f"t{i}", (f"A{i}",), (f"B{i}",)) for i in range(39)]
        objects = tuple(o for gen in kept for o in gen.dom + gen.cod) + ("P", "M", "Q")
        source = SmcPresentation(objects, (*kept, MorphismGenerator("n", ("P",), ("Q",))))
        target = SmcPresentation(
            objects,
            (
                *kept,
                MorphismGenerator("p", ("P",), ("M",)),
                MorphismGenerator("c", ("M",), ("Q",)),
            ),
        )
        functor = StrictFunctor(
            source,
            target,
            {o: (o,) for o in objects},
            {**{gen.name: Gen(gen.name) for gen in kept}, "n": Compose(Gen("p"), Gen("c"))},
        )
        assert check_faithful_bounded(functor, 3) == FaithfulUpTo(3)
        with pytest.raises(BudgetExceededError):
            check_faithful_bounded(functor, 3, node_limit=4760)

    def test_one_collapsing_class_needs_no_rescan(self):
        """``u`` reads back, so only ``(f,)`` and ``(g,)`` are built, and
        their one class collapses.  With one class there is no earlier
        class to look for, so two sequences of work suffice."""
        objects = ("A", "B", "Z", "W")
        source = SmcPresentation(
            objects,
            (
                MorphismGenerator("f", ("A",), ("B",)),
                MorphismGenerator("g", ("A",), ("B",)),
                MorphismGenerator("u", ("Z",), ("W",)),
            ),
        )
        target = SmcPresentation(
            objects,
            (MorphismGenerator("h", ("A",), ("B",)), MorphismGenerator("v", ("Z",), ("W",))),
        )
        functor = StrictFunctor(
            source,
            target,
            {o: (o,) for o in objects},
            {"f": Gen("h"), "g": Gen("h"), "u": Gen("v")},
        )
        assert check_faithful_bounded(functor, 1, node_limit=2) == CounterexampleFound(
            1, Gen("f"), Gen("g")
        )


def random_symmetry(rng: random.Random, dom, cod):
    """An identity or symmetry from ``dom`` to ``cod``, equal as multisets."""
    pools = {letter: [i for i, x in enumerate(dom) if x == letter] for letter in dom}
    for pool in pools.values():
        rng.shuffle(pool)
    perm = tuple(pools[letter].pop() for letter in cod)
    return Id(dom) if perm == identity_perm(len(dom)) else Perm(dom, perm)


def random_small_functor(rng: random.Random) -> StrictFunctor:
    """A functor from a random presentation of one to three generators.

    Object images are words of length 0-2 over one or two target
    objects, so the object map is often non-injective.  A morphism image
    is an identity or symmetry where the mapped boundaries allow it, a
    target generator shared with an earlier image of the same boundary,
    a fresh generator, or a composite of two fresh generators.
    """
    source = random_presentation(rng, 3, 3)
    while not source.morphisms:
        source = random_presentation(rng, 3, 3)
    objects = tuple(f"y{i}" for i in range(rng.randint(1, 2)))
    object_map = {
        obj: tuple(rng.choice(objects) for _ in range(rng.choice((0, 1, 1, 1, 2))))
        for obj in source.objects
    }
    generators: list[MorphismGenerator] = []
    images = {}

    def fresh(dom, cod):
        generators.append(MorphismGenerator(f"u{len(generators)}", dom, cod))
        return Gen(generators[-1].name)

    for gen in source.morphisms:
        dom = tuple(letter for obj in gen.dom for letter in object_map[obj])
        cod = tuple(letter for obj in gen.cod for letter in object_map[obj])
        shared = [u for u in generators if (u.dom, u.cod) == (dom, cod)]
        roll = rng.random()
        if sorted(dom) == sorted(cod) and roll < 0.3:
            images[gen.name] = random_symmetry(rng, dom, cod)
        elif shared and roll < 0.65:
            images[gen.name] = Gen(rng.choice(shared).name)
        elif roll < 0.85:
            images[gen.name] = fresh(dom, cod)
        else:
            middle = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
            images[gen.name] = Compose(fresh(dom, middle), fresh(middle, cod))
    target = SmcPresentation(objects, tuple(generators))
    return StrictFunctor(source, target, object_map, images)


def random_relabelling_functor(rng: random.Random) -> StrictFunctor:
    """A functor relabelling part of a random source of one to four generators.

    Objects go injectively to single objects.  A morphism image is a
    fresh generator (a relabelling), a target generator shared with an
    earlier image of the same boundary, a composite of two generators,
    or an identity or symmetry where the boundaries allow it.
    """
    source = random_presentation(rng, 2, 4)
    while not source.morphisms:
        source = random_presentation(rng, 2, 4)
    object_map = {obj: (f"y{i}",) for i, obj in enumerate(source.objects)}
    objects = tuple(word[0] for word in object_map.values())
    generators: list[MorphismGenerator] = []
    images = {}

    def target_gen(dom, cod, share):
        shared = [u for u in generators if (u.dom, u.cod) == (dom, cod)]
        if shared and share:
            return Gen(rng.choice(shared).name)
        generators.append(MorphismGenerator(f"u{len(generators)}", dom, cod))
        return Gen(generators[-1].name)

    for gen in source.morphisms:
        dom = tuple(letter for obj in gen.dom for letter in object_map[obj])
        cod = tuple(letter for obj in gen.cod for letter in object_map[obj])
        roll = rng.random()
        if sorted(dom) == sorted(cod) and roll < 0.1:
            images[gen.name] = random_symmetry(rng, dom, cod)
        elif roll < 0.4:
            images[gen.name] = target_gen(dom, cod, share=False)
        elif roll < 0.85:
            images[gen.name] = target_gen(dom, cod, share=True)
        else:
            middle = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
            images[gen.name] = Compose(
                target_gen(dom, middle, share=rng.random() < 0.5),
                target_gen(middle, cod, share=rng.random() < 0.5),
            )
    target = SmcPresentation(objects, tuple(generators))
    return StrictFunctor(source, target, object_map, images)


def random_readback_functor(rng: random.Random) -> StrictFunctor:
    """A synchronization-shaped functor from a source of one to three generators.

    Objects go injectively to single objects, and the target adds one or
    two hidden objects, images of no source object.  A morphism image is
    a generator, fresh or shared with an earlier image of the same
    boundary; two generators in a chain or side by side; a generator
    fanning out to two more; where the boundaries are doubled letters or
    empty, ``u⊗u`` then ``v⊗v`` with the halves crossed rigidly or
    symmetrically; or a symmetry where the boundaries allow it.  Inner
    words are hidden more often than not.
    """
    source = random_presentation(rng, 2, 3)
    while not source.morphisms:
        source = random_presentation(rng, 2, 3)
    object_map = {obj: (f"y{i}",) for i, obj in enumerate(source.objects)}
    visible = tuple(word[0] for word in object_map.values())
    hidden = tuple(f"h{i}" for i in range(rng.randint(1, 2)))
    generators: list[MorphismGenerator] = []
    images = {}

    def box(dom, cod):
        shared = [u for u in generators if (u.dom, u.cod) == (dom, cod)]
        if shared and rng.random() < 0.25:
            return Gen(rng.choice(shared).name)
        generators.append(MorphismGenerator(f"u{len(generators)}", dom, cod))
        return Gen(generators[-1].name)

    def inner(size):
        pool = hidden if rng.random() < 0.75 else visible + hidden
        return tuple(rng.choice(pool) for _ in range(size))

    def split(word):
        cut = rng.randint(0, len(word))
        return word[:cut], word[cut:]

    for gen in source.morphisms:
        dom = tuple(letter for obj in gen.dom for letter in object_map[obj])
        cod = tuple(letter for obj in gen.cod for letter in object_map[obj])
        roll = rng.random()
        if sorted(dom) == sorted(cod) and roll < 0.05:
            images[gen.name] = random_symmetry(rng, dom, cod)
        elif dom == dom[:1] * 2 and cod == cod[:1] * 2 and roll < 0.4:
            h = rng.choice(hidden)
            u, v = box(dom[:1], (h, h)), box((h, h), cod[:1])
            cross = rng.choice(((0, 3, 2, 1), (0, 2, 1, 3)))
            images[gen.name] = compose_terms(
                [Tensor(u, u), Perm((h,) * 4, cross), Tensor(v, v)]
            )
        elif roll < 0.35:
            images[gen.name] = box(dom, cod)
        elif roll < 0.65:
            middle = inner(rng.randint(1, 2))
            images[gen.name] = Compose(box(dom, middle), box(middle, cod))
        elif roll < 0.8:
            (d1, d2), (c1, c2) = split(dom), split(cod)
            images[gen.name] = Tensor(box(d1, c1), box(d2, c2))
        else:
            m1, m2 = inner(rng.randint(0, 1)), inner(1)
            c1, c2 = split(cod)
            images[gen.name] = Compose(box(dom, m1 + m2), Tensor(box(m1, c1), box(m2, c2)))
    target = SmcPresentation(visible + hidden, tuple(generators))
    return StrictFunctor(source, target, object_map, images)


def relabelling_candidates(functor: StrictFunctor) -> set[str]:
    """Generators sent to ``Gen(h)`` with ``h`` in no other image, under an
    injective object map to single objects."""
    images = list(functor.object_map.values())
    if any(len(word) != 1 for word in images) or len(set(images)) != len(images):
        return set()
    return {
        name
        for name, image in functor.morphism_map.items()
        if isinstance(image, Gen)
        and not any(
            image.name in decomposition(other)
            for other_name, other in functor.morphism_map.items()
            if other_name != name
        )
    }


def class_order_from_skipped_sequence(
    functor: StrictFunctor, bound: int, relabelled: set[str]
) -> bool:
    """Whether two or more classes collapse and the first of them, in the
    full enumeration, is not the first reached by a sequence using a
    generator outside ``relabelled``."""
    classes = reference.parallel_classes(functor, bound)
    collapsing = [
        key for key, members in classes.items()
        if reference.collapsing_pair(functor, members) is not None
    ]
    if len(collapsing) < 2:
        return False
    index = {gen.name: i for i, gen in enumerate(functor.source.morphisms)}

    def first_built(key):
        return min(
            (len(seq), [index[name] for name in seq])
            for seq, _, _ in classes[key]
            if set(seq) - relabelled
        )

    return min(collapsing, key=first_built) != collapsing[0]


class TestFaithfulnessAgainstPairwiseOracle:
    """Grouping by diagram key against the pairwise comparison it replaced
    (``reference_functors``): verdicts and certificates are identical."""

    def test_random_small_functors(self):
        rng = random.Random(71)
        cases = counterexamples = 0
        for _ in range(400):
            functor = random_small_functor(rng)
            for bound in (1, 2, 3):
                verdict = check_faithful_bounded(functor, bound)
                assert repr(verdict) == repr(reference.check_faithful_bounded(functor, bound))
                cases += 1
                counterexamples += isinstance(verdict, CounterexampleFound)
        assert cases == 1200
        assert 100 < counterexamples < 1100

    def test_random_relabelling_functors(self):
        """Sequences of relabelled generators are skipped, a boxless image
        empties the relabelled set, and skipped sequences order classes."""
        rng = random.Random(72)
        cases = counterexamples = skipping = fallbacks = reordered = 0
        for _ in range(400):
            functor = random_relabelling_functor(rng)
            relabelled = relabelling_candidates(functor)
            if relabelled and any(
                not decomposition(image)
                for name, image in functor.morphism_map.items()
                if name not in relabelled
            ):
                relabelled = set()
                fallbacks += 1
            skipping += bool(relabelled)
            for bound in (1, 2, 3):
                verdict = check_faithful_bounded(functor, bound)
                assert repr(verdict) == repr(reference.check_faithful_bounded(functor, bound))
                cases += 1
                counterexamples += isinstance(verdict, CounterexampleFound)
                if relabelled and isinstance(verdict, CounterexampleFound):
                    reordered += class_order_from_skipped_sequence(functor, bound, relabelled)
        assert cases == 1200
        assert skipping > 250 and fallbacks > 15 and reordered >= 10, (skipping, fallbacks, reordered)
        assert 100 < counterexamples < 1100


class TestSymmetryConjugatedIsomorphisms:
    """Isomorphisms whose images carry nontrivial symmetries stay faithful."""

    def shuffled_iso(self, rng, sig):
        from petriglue import MorphismGenerator, SmcPresentation
        from petriglue.fssmc import (
            Perm,
            alignment_permutation,
            apply_perm,
            compose_terms,
            identity_perm,
        )

        def mapped(word):
            return tuple(f"s_{letter}" for letter in word)

        generators = []
        images = {}
        for m in sig.morphisms:
            dom = list(mapped(m.dom))
            cod = list(mapped(m.cod))
            rng.shuffle(dom)
            rng.shuffle(cod)
            generators.append(MorphismGenerator(f"s_{m.name}", tuple(dom), tuple(cod)))
            parts = []
            pre = alignment_permutation(mapped(m.dom), tuple(dom))
            if pre != identity_perm(len(pre)):
                parts.append(Perm(mapped(m.dom), pre))
            parts.append(Gen(f"s_{m.name}"))
            post = alignment_permutation(tuple(cod), mapped(m.cod))
            if post != identity_perm(len(post)):
                parts.append(Perm(tuple(cod), post))
            images[m.name] = compose_terms(parts)
        target = SmcPresentation(tuple(f"s_{o}" for o in sig.objects), tuple(generators))
        return StrictFunctor(
            sig, target, {o: (f"s_{o}",) for o in sig.objects}, images
        )

    def test_never_reported_unfaithful(self):
        rng = random.Random(61)
        for _ in range(15):
            functor = self.shuffled_iso(rng, SIG)
            assert is_transition_preserving(functor)
            verdict = check_faithful_bounded(functor, 2)
            assert isinstance(verdict, FaithfulUpTo)


class TestBlockPermutationOracle:
    def test_image_permutes_blocks_coherently(self):
        from petriglue.fssmc import apply_perm

        rng = random.Random(63)
        functor = doubling_functor()
        for _ in range(40):
            word = tuple("A" for _ in range(rng.randint(1, 5)))
            perm = list(range(len(word)))
            rng.shuffle(perm)
            image = apply_functor(functor, Perm(word, tuple(perm)))
            # independent expansion: tag each source position's block,
            # permute the tags, flatten
            blocks = [[(i, 0), (i, 1)] for i in range(len(word))]
            expected_tags = [tag for i in perm for tag in blocks[i]]
            flat_tags = [tag for block in blocks for tag in block]
            expected_perm = tuple(flat_tags.index(tag) for tag in expected_tags)
            assert image.perm == expected_perm


class TestFaithfulnessAgainstTermOracle:
    """Spliced diagrams against the term-based search they replaced
    (``reference_functors.check_faithful_by_terms``): verdicts and
    certificates are identical."""

    def test_random_small_functors(self):
        """Mostly S empty: non-injective or word-valued object maps, and
        identities in every class with equal boundaries."""
        rng = random.Random(81)
        cases = counterexamples = with_identity = 0
        for _ in range(300):
            functor = random_small_functor(rng)
            for bound in (1, 2, 3):
                verdict = check_faithful_bounded(functor, bound)
                assert repr(verdict) == repr(reference.check_faithful_by_terms(functor, bound))
                cases += 1
                if isinstance(verdict, CounterexampleFound):
                    counterexamples += 1
                    with_identity += isinstance(verdict.right, Id)
        assert cases == 900
        assert 100 < counterexamples < 800 and with_identity > 20, (counterexamples, with_identity)

    def test_random_relabelling_functors(self):
        """S non-empty, the fallback to S empty, and several collapsing
        classes ranked by sequences the search skips."""
        rng = random.Random(82)
        skipping = counterexamples = reordered = 0
        for _ in range(300):
            functor = random_relabelling_functor(rng)
            relabelled = _relabelled_generators(functor)
            skipping += bool(relabelled)
            for bound in (1, 2, 3):
                verdict = check_faithful_bounded(functor, bound)
                assert repr(verdict) == repr(reference.check_faithful_by_terms(functor, bound))
                if isinstance(verdict, CounterexampleFound):
                    counterexamples += 1
                    if relabelled:
                        reordered += class_order_from_skipped_sequence(
                            functor, bound, set(relabelled)
                        )
        assert skipping > 150 and counterexamples > 100 and reordered >= 5, (
            skipping, counterexamples, reordered,
        )

    def test_same_budget_error(self):
        rng = random.Random(83)
        for _ in range(60):
            functor = random_small_functor(rng)
            limit = rng.randint(1, 30)
            outcomes = []
            for check in (check_faithful_bounded, reference.check_faithful_by_terms):
                try:
                    outcomes.append(repr(check(functor, 3, node_limit=limit)))
                except BudgetExceededError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


class TestCertificatesReadOffDiagrams:
    """The search builds terms only for the two members of a certificate,
    on the functors of ``TestFaithfulnessAgainstTermOracle``."""

    def test_two_terms_per_counterexample(self, monkeypatch):
        read = petriglue.functors._firing_term
        calls = [0]

        def counting_read(d):
            calls[0] += 1
            return read(d)

        monkeypatch.setattr(petriglue.functors, "_firing_term", counting_read)
        small, relabelling = random.Random(81), random.Random(82)
        functors = [random_small_functor(small) for _ in range(300)]
        functors += [random_relabelling_functor(relabelling) for _ in range(300)]
        counterexamples = faithful = 0
        for functor in functors:
            for bound in (1, 2, 3):
                calls[0] = 0
                verdict = check_faithful_bounded(functor, bound)
                found = isinstance(verdict, CounterexampleFound)
                assert calls[0] == 2 * found, (functor, bound, verdict)
                counterexamples += found
                faithful += not found
        assert counterexamples > 200 and faithful > 200, (counterexamples, faithful)


def splice_sides(functor: StrictFunctor):
    """(object map, pieces) splicing source diagrams and image diagrams."""
    sig = functor.source
    own = {gen.name: to_diagram(Gen(gen.name), sig) for gen in sig.morphisms}
    images = {
        gen.name: to_diagram(functor.morphism_map[gen.name], functor.target)
        for gen in sig.morphisms
    }
    return ({obj: (obj,) for obj in sig.objects}, own), (functor.object_map, images)


class TestSplicedDiagrams:
    """The splice gives the diagrams of the canonical firing term and of
    its image, without folding either."""

    def test_keys_match_folded_terms(self):
        rng = random.Random(84)
        functors = [doubling_functor(), composite_collapse_functor()]
        functors += [random_small_functor(rng) for _ in range(150)]
        widened = 0
        for functor in functors:
            sig = functor.source
            own, image = splice_sides(functor)
            widened += any(len(word) > 1 for word in functor.object_map.values())
            names = [gen.name for gen in sig.morphisms]
            for _ in range(8):
                seq = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
                dom, _, term = _canonical_firing_term(sig, seq)
                spliced = _spliced_diagram(sig, dom, seq, *own)
                validate_diagram(spliced)
                assert diagram_key(spliced) == diagram_key(to_diagram(term, sig))
                spliced = _spliced_diagram(sig, dom, seq, *image)
                validate_diagram(spliced)
                expected = to_diagram(apply_functor(functor, term), functor.target)
                assert diagram_key(spliced) == diagram_key(expected)
        assert widened > 40

    def test_terms_read_off_match_the_term_builder(self):
        """``_firing_term`` of an own spliced diagram is the term the old
        routing built (``reference_functors._canonical_firing_term``), and
        the identity on a sorted word when nothing fires."""
        rng = random.Random(85)
        sequences = identities = 0
        while sequences < 5000:
            functor = random_small_functor(rng)
            sig = functor.source
            own, _ = splice_sides(functor)
            names = [gen.name for gen in sig.morphisms]
            for _ in range(10):
                seq = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
                dom, _, term = _canonical_firing_term(sig, seq)
                assert _firing_term(_spliced_diagram(sig, dom, seq, *own)) == term, seq
                sequences += 1
            word = tuple(rng.choice(sig.objects) for _ in range(rng.randint(0, 5)))
            word = tuple(sorted(word, key=sig.object_rank.__getitem__))
            assert _firing_term(_spliced_diagram(sig, word, (), *own)) == Id(word)
            identities += 1
        assert identities == 500

    def test_identity_on_a_sorted_word(self):
        functor = doubling_functor()
        own, image = splice_sides(functor)
        word = ("A", "A", "A")
        assert diagram_key(_spliced_diagram(functor.source, word, (), *own)) == diagram_key(
            to_diagram(Id(word), functor.source)
        )
        assert diagram_key(_spliced_diagram(functor.source, word, (), *image)) == diagram_key(
            to_diagram(Id(functor.map_word(word)), functor.target)
        )


def doubled_functor(cross: tuple[int, ...]) -> StrictFunctor:
    """``g: A A -> B B`` sent to ``u⊗u``, the symmetry ``cross`` on four
    hidden wires, then ``v⊗v``, with ``u: A -> H H`` and ``v: H H -> B``."""
    source = SmcPresentation(("A", "B"), (MorphismGenerator("g", ("A", "A"), ("B", "B")),))
    target = SmcPresentation(
        ("A", "B", "H"),
        (
            MorphismGenerator("u", ("A",), ("H", "H")),
            MorphismGenerator("v", ("H", "H"), ("B",)),
        ),
    )
    image = compose_terms(
        [Tensor(Gen("u"), Gen("u")), Perm(("H",) * 4, cross), Tensor(Gen("v"), Gen("v"))]
    )
    return StrictFunctor(source, target, {"A": ("A",), "B": ("B",)}, {"g": image})


def readback(functor: StrictFunctor) -> frozenset[str]:
    return _readback_generators(functor, reference.image_diagrams(functor))


class TestReadback:
    SWAPPED = compose_terms(
        [Perm(("A", "A"), (1, 0)), Gen("g"), Perm(("B", "B"), (1, 0))]
    )

    def test_automorphism_off_the_interface_is_not_certified(self):
        """``v1`` reads ``(u1.0, u2.1)`` and ``v2`` reads ``(u2.0, u1.1)``:
        swapping both pairs is an automorphism once interface positions are
        forgotten, so ``g`` and ``swap;g;swap`` differ and have one image.
        A walk anchored at interface positions would call the image rigid."""
        functor = doubled_functor((0, 3, 2, 1))
        assert not terms_equal(Gen("g"), self.SWAPPED, functor.source)
        assert terms_equal(
            apply_functor(functor, Gen("g")), apply_functor(functor, self.SWAPPED), functor.target
        )
        assert readback(functor) == frozenset()
        assert reference.small_diagram_collapses(functor, 1, 2)

    def test_rigid_crossing_is_certified(self):
        """``v1`` reads ``(u1.0, u2.0)``: no automorphism, so ``g`` reads back."""
        functor = doubled_functor((0, 2, 1, 3))
        assert not terms_equal(
            apply_functor(functor, Gen("g")), apply_functor(functor, self.SWAPPED), functor.target
        )
        assert readback(functor) == frozenset({"g"})
        assert check_faithful_bounded(functor, 3, node_limit=0) == FaithfulUpTo(3)

    def test_each_condition_excludes(self):
        """``e`` goes to ``p`` then ``m`` through the hidden ``H`` and reads
        back; a visible inner wire, a disconnected image, a wire across the
        interface and a shared label each exclude."""
        source = SmcPresentation(
            ("A", "B"),
            (
                MorphismGenerator("s", ("A",), ("B",)),
                MorphismGenerator("e", ("A", "B"), ("B", "B")),
            ),
        )
        target = SmcPresentation(
            ("A", "B", "H"),
            (
                MorphismGenerator("p", ("A",), ("H",)),
                MorphismGenerator("q", ("H",), ("B",)),
                MorphismGenerator("r", ("A",), ("B",)),
                MorphismGenerator("w", ("B",), ("B",)),
                MorphismGenerator("m", ("H", "B"), ("B", "B")),
            ),
        )
        chain = Compose(Gen("p"), Gen("q"))
        joined = Compose(Tensor(Gen("p"), Id(("B",))), Gen("m"))

        def found(s, e):
            objects = {"A": ("A",), "B": ("B",)}
            return readback(StrictFunctor(source, target, objects, {"s": s, "e": e}))

        assert found(Gen("r"), joined) == {"s", "e"}
        assert found(Compose(Gen("r"), Gen("w")), joined) == {"e"}
        assert found(Gen("r"), Tensor(chain, Gen("w"))) == {"s"}
        assert found(Gen("r"), Tensor(chain, Id(("B",)))) == {"s"}
        assert found(chain, joined) == set()

    def test_objects_go_injectively_to_single_objects(self):
        """``s`` reads back under ``A ↦ X, B ↦ Y``; sending both objects to
        ``X``, or ``A`` to ``X X``, leaves nothing that reads back."""
        source = SmcPresentation(("A", "B"), (MorphismGenerator("s", ("A",), ("B",)),))
        target = SmcPresentation(
            ("X", "Y"),
            (
                MorphismGenerator("p", ("X",), ("Y",)),
                MorphismGenerator("q", ("X",), ("X",)),
                MorphismGenerator("r", ("X", "X"), ("Y",)),
            ),
        )

        def found(a, b, image):
            return readback(StrictFunctor(source, target, {"A": a, "B": b}, {"s": Gen(image)}))

        assert found(("X",), ("Y",), "p") == {"s"}
        assert found(("X",), ("X",), "q") == set()
        assert found(("X", "X"), ("Y",), "r") == set()


def assert_matches_relabelling_search(functors, bounds=(1, 2, 3)):
    """Verdicts agree with the search that skipped relabelled generators
    alone; returns how many functors read back more than they relabel,
    how many are certified whole, and how many verdicts are counterexamples."""
    wider = certified = counterexamples = 0
    for functor in functors:
        found = readback(functor)
        assert reference.relabelled_generators(functor) <= found
        wider += found > reference.relabelled_generators(functor)
        certified += len(found) == len(functor.source.morphisms)
        for bound in bounds:
            verdict = check_faithful_bounded(functor, bound)
            assert repr(verdict) == repr(reference.check_faithful_by_relabelling(functor, bound))
            counterexamples += isinstance(verdict, CounterexampleFound)
    return wider, certified, counterexamples


class TestReadbackAgainstRelabellingSearch:
    """Readback against the relabelled-only skip it replaced
    (``reference_functors.check_faithful_by_relabelling``): verdicts and
    certificates are identical."""

    def test_random_small_functors(self):
        rng = random.Random(91)
        _, _, counterexamples = assert_matches_relabelling_search(
            random_small_functor(rng) for _ in range(300)
        )
        assert counterexamples > 100

    def test_random_relabelling_functors(self):
        rng = random.Random(92)
        _, certified, counterexamples = assert_matches_relabelling_search(
            random_relabelling_functor(rng) for _ in range(300)
        )
        assert certified > 50 and counterexamples > 100, (certified, counterexamples)

    def test_random_readback_functors(self):
        rng = random.Random(93)
        wider, certified, counterexamples = assert_matches_relabelling_search(
            random_readback_functor(rng) for _ in range(300)
        )
        assert wider > 100 and certified > 80 and counterexamples > 20, (
            wider, certified, counterexamples,
        )


class TestReadbackAgainstBruteForce:
    """No diagram with at most two boxes over words of at most four letters
    whose boxes all read back shares its image with another
    (``reference_functors.small_diagram_collapses``)."""

    def check(self, family, seed, count):
        rng = random.Random(seed)
        checked = certified = collapsing = 0
        while checked < count:
            functor = family(rng)
            found = readback(functor)
            if not found:
                continue
            checked += 1
            certified += len(found) == len(functor.source.morphisms)
            collapses = reference.small_diagram_collapses(functor)
            collapsing += bool(collapses)
            for left, right in collapses:
                assert not set(left) <= found and not set(right) <= found, (functor, left, right)
        return certified, collapsing

    def test_random_readback_functors(self):
        certified, collapsing = self.check(random_readback_functor, 94, 24)
        assert certified > 8 and collapsing >= 2, (certified, collapsing)

    def test_random_relabelling_and_small_functors(self):
        certified, collapsing = self.check(random_relabelling_functor, 95, 12)
        more, found = self.check(random_small_functor, 96, 12)
        assert certified + more > 8 and collapsing + found > 2, (certified, more, collapsing, found)


HIDDEN = SmcPresentation(
    ("A", "B", "H"),
    (MorphismGenerator("u", ("A",), ("H", "H")), MorphismGenerator("v", ("H", "H"), ("B",))),
)


def hidden_wiring(cross: tuple[int, ...]) -> StringDiagram:
    """``u: A -> H H`` beside itself, the symmetry ``cross`` on their hidden
    wires, then ``v: H H -> B`` beside itself: one box of each per pair."""
    u, v = (tensor_terms([Gen(name)] * (len(cross) // 2)) for name in ("u", "v"))
    return to_diagram(compose_terms([u, Perm(("H",) * len(cross), cross), v]), HIDDEN)


def hidden_ring(copies: int, shift: int) -> StringDiagram:
    """:func:`hidden_wiring` where ``v`` number ``i`` reads the first wire of
    ``u`` number ``i`` and the second of ``u`` number ``i + shift``, modulo
    ``copies``: a rotation maps it to itself once interface positions are
    forgotten, and it is a cycle of hidden wires unless ``shift`` is 0."""
    return hidden_wiring(
        tuple(x for i in range(copies) for x in (2 * i, 2 * ((i + shift) % copies) + 1))
    )


class TestRigidityStopsEarly:
    """``_rigid_through_hidden`` walks from box 0 first and stops there when
    that walk misses a box; otherwise it walks only from boxes labelled like
    box 0, up to the first walk equal to box 0's.  The verdicts are those of
    a walk from every box (``reference_functors.rigid_by_every_walk``)."""

    SPLIT = SmcPresentation(
        ("A", "A2", "B", "X", "Y"),
        (
            MorphismGenerator("p", ("A",), ("B",)),
            MorphismGenerator("q", ("A2",), ("B",)),
            MorphismGenerator("c", ("B",), ("X",)),
            MorphismGenerator("d", ("B",), ("Y",)),
        ),
    )
    VISIBLE = {"A", "A2", "X", "Y"}

    @staticmethod
    def walks(monkeypatch, d: StringDiagram, visible: set[str]) -> tuple[bool, int]:
        """The verdict on ``d`` and the walks it took, at most one per box
        labelled like box 0."""
        walk = petriglue.functors._walk
        calls = [0]

        def counting_walk(*args):
            calls[0] += 1
            return walk(*args)

        monkeypatch.setattr(petriglue.functors, "_walk", counting_walk)
        verdict = _rigid_through_hidden(d, visible)
        monkeypatch.undo()
        assert verdict == reference.rigid_by_every_walk(d, visible), (d, visible)
        assert calls[0] <= d.boxes.count(d.boxes[0]), (d, visible, calls[0])
        return verdict, calls[0]

    def test_split_image_takes_one_walk(self, monkeypatch):
        """A split event's image, ``p;c`` beside ``q;d``, is two components
        of the hidden ``B``: the walk from box 0 misses two of four boxes."""
        split = Tensor(Compose(Gen("p"), Gen("c")), Compose(Gen("q"), Gen("d")))
        d = to_diagram(split, self.SPLIT)
        assert self.walks(monkeypatch, d, self.VISIBLE) == (False, 1)

    def test_connected_image_walks_from_its_label_class(self, monkeypatch):
        """No box of ``p;c`` but box 0 is labelled ``p``: one walk."""
        d = to_diagram(Compose(Gen("p"), Gen("c")), self.SPLIT)
        assert self.walks(monkeypatch, d, self.VISIBLE) == (True, 1)

    def test_crossed_doubling_moves_box_0_onto_its_twin(self, monkeypatch):
        """Swapping the two ``u`` and the two ``v`` of the crossed image is an
        automorphism: the walk from the second ``u``, box 1, equals box 0's."""
        functor = doubled_functor((0, 3, 2, 1))
        d = to_diagram(functor.morphism_map["g"], functor.target)
        assert self.walks(monkeypatch, d, {"A", "B"}) == (False, 2)
        functor = doubled_functor((0, 2, 1, 3))
        d = to_diagram(functor.morphism_map["g"], functor.target)
        assert self.walks(monkeypatch, d, {"A", "B"}) == (True, 2)

    def test_hidden_ring_rotates_box_0(self, monkeypatch):
        """A rotation of a hidden ring moves box 0 onto the next ``u``; with
        ``shift`` 0 the ring falls apart into ``copies`` components."""
        for copies in (2, 3, 5):
            for shift in range(1, copies):
                verdict, calls = self.walks(monkeypatch, hidden_ring(copies, shift), {"A", "B"})
                assert not verdict and 2 <= calls <= copies, (copies, shift, calls)
            assert self.walks(monkeypatch, hidden_ring(copies, 0), {"A", "B"}) == (False, 1)

    def test_random_verdicts_match_the_walk_from_every_box(self, monkeypatch):
        """Random terms, and random hidden wirings of ``u`` and ``v`` boxes;
        a verdict ``False`` after two or more walks found an automorphism
        that moves box 0 on a connected diagram."""
        rng = random.Random(4)
        checked = rigid = moved = 0
        for _ in range(400):
            sig = random_presentation(rng) if rng.random() < 0.5 else SIG
            d = to_diagram(random_term(rng, sig, rng.randint(1, 8)), sig)
            if not d.boxes:
                continue
            visible = {o for o in sig.objects if rng.random() < 0.5}
            verdict, calls = self.walks(monkeypatch, d, visible)
            checked += 1
            rigid += verdict
            moved += not verdict and calls > 1
        for _ in range(100):
            cross = list(range(2 * rng.randint(1, 4)))
            rng.shuffle(cross)
            verdict, calls = self.walks(monkeypatch, hidden_wiring(tuple(cross)), {"A", "B"})
            rigid += verdict
            moved += not verdict and calls > 1
        assert checked > 200 and rigid > 10 and moved >= 3, (checked, rigid, moved)


class TestFiringSequences:
    def test_same_order_as_the_filtered_product(self):
        rng = random.Random(97)
        for _ in range(200):
            names = [f"n{i}" for i in range(rng.randint(1, 6))]
            wanted = frozenset(n for n in names if rng.random() < 0.3)
            bound = rng.randint(1, 3)
            assert list(_firing_sequences(names, bound, wanted)) == list(
                reference.firing_sequences_by_filter(names, bound, wanted)
            )
