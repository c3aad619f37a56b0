"""Term typing, string diagrams, decidable equality, decomposition."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

import petriglue.fssmc
from petriglue import (
    BadPermutationError,
    Compose,
    Gen,
    Id,
    MorphismGenerator,
    Perm,
    SmcPresentation,
    Tensor,
    TypeMismatchError,
    UnknownGeneratorError,
    ValidationError,
    apply_functor,
    decomposition,
    diagram_equal,
    free_smc,
    identity_functor,
    symmetry,
    terms_equal,
    to_diagram,
    typecheck,
)
from petriglue.cli_io import parse_term, pretty_term, term_to_text
from petriglue.fssmc import (
    alignment_permutation,
    apply_perm,
    compose_terms,
    fold_term,
    invert_perm,
)
import reference_fssmc
from support import (
    diagram_from_wires,
    fig1_net,
    outcome,
    random_rewrite,
    random_term,
    random_term_with_dom,
    validate_diagram,
    wires,
)

SIG = free_smc(fig1_net())
P_Q = SmcPresentation(
    ("A", "B"),
    (
        MorphismGenerator("p", ("A",), ("A", "B")),
        MorphismGenerator("q", ("A", "B"), ("A",)),
    ),
)
PQ = Compose(Gen("p"), Gen("q"))


class TestTypecheck:
    def test_identity(self):
        assert typecheck(Id(("A", "B")), SIG) == (("A", "B"), ("A", "B"))

    def test_conflatable_composite(self):
        dom, cod = typecheck(Compose(Gen("g"), Gen("k")), SIG)
        assert dom == ("A", "A", "B", "C", "C", "C")
        assert cod == ()

    def test_boundary_mismatch(self):
        with pytest.raises(TypeMismatchError):
            typecheck(Compose(Gen("k"), Gen("g")), SIG)

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            typecheck(Gen("nope"), SIG)

    def test_bad_permutation(self):
        with pytest.raises(BadPermutationError):
            typecheck(Perm(("A", "B"), (0, 0)), SIG)

    @pytest.mark.parametrize(
        "leaf",
        [
            Gen("g"),
            Gen("nope"),
            Id(("A", "B", "A")),
            Id(()),
            Id(("A", "Z")),
            Perm(("A", "B", "C"), (2, 0, 1)),
            Perm((), ()),
            Perm(("A", "Z"), (1, 0)),
            Perm(("A", "B"), (0, 0)),
            Perm(("A", "B"), (0, 1, 2)),
        ],
    )
    def test_leaf_matches_fold(self, leaf):
        """A single leaf is typed without a fold, with the fold's pair or
        error (``reference_fssmc.typecheck`` folds every term)."""
        assert outcome(typecheck, leaf, SIG) == outcome(reference_fssmc.typecheck, leaf, SIG)

    def test_random_leaves_match_fold(self):
        rng = random.Random(67)
        names = [g.name for g in SIG.morphisms] + ["nope"]
        letters = list(SIG.objects) + ["Z"]
        for _ in range(300):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            perm = list(range(len(word) + rng.choice([0, 0, 0, 1, -1])))
            rng.shuffle(perm)
            if perm and rng.random() < 0.2:
                perm[0] = perm[-1]
            leaf = rng.choice([Gen(rng.choice(names)), Id(word), Perm(word, tuple(perm))])
            assert outcome(typecheck, leaf, SIG) == outcome(reference_fssmc.typecheck, leaf, SIG)


class TestSymmetry:
    def test_swap(self):
        term = symmetry(("A", "B"), (1, 0))
        assert typecheck(term, SIG) == (("A", "B"), ("B", "A"))

    def test_identity_permutation_is_id(self):
        term = symmetry(("A", "B"), (0, 1))
        assert terms_equal(term, Id(("A", "B")), SIG)

    def test_rejects_non_bijection(self):
        with pytest.raises(BadPermutationError):
            symmetry(("A", "B"), (1, 1))

    def test_inverse_cancels(self):
        rng = random.Random(3)
        for _ in range(30):
            word = tuple(rng.choice("ABCDEF") for _ in range(rng.randint(1, 5)))
            perm = list(range(len(word)))
            rng.shuffle(perm)
            perm = tuple(perm)
            round_trip = Compose(
                symmetry(word, perm), symmetry(apply_perm(word, perm), invert_perm(perm))
            )
            assert terms_equal(round_trip, Id(word), SIG)


class TestAlignment:
    def test_equal_letters_match_left_to_right(self):
        assert alignment_permutation(("A", "B", "A", "B"), ("B", "A", "A", "B")) == (1, 0, 2, 3)

    def test_forty_thousand_equal_letters(self):
        word = ("A",) * 40_000
        assert alignment_permutation(word + ("B",), ("B",) + word) == (
            (40_000,) + tuple(range(40_000))
        )

    @pytest.mark.parametrize("target", [("A",), ("A", "A", "A"), ("A", "C")])
    def test_multiset_mismatch(self, target):
        with pytest.raises(TypeMismatchError, match="differ as multisets"):
            alignment_permutation(("A", "A"), target)


class TestToDiagram:
    def test_identity_wire(self):
        d = to_diagram(Id(("A",)), SIG)
        assert d.boxes == ()
        assert len(wires(d)) == 1
        validate_diagram(d)

    def test_parallel_generators(self):
        d = to_diagram(Tensor(Gen("g"), Gen("h")), SIG)
        assert sorted(d.boxes) == ["g", "h"]
        assert d.inputs == ("A", "A", "B", "C", "C", "C", "C", "D", "D", "D", "D")
        assert d.outputs == ("E", "F", "F")
        validate_diagram(d)

    def test_interchange_same_diagram(self):
        h_dom = SIG.morphism("h").dom
        g_cod = SIG.morphism("g").cod
        staircase = Compose(
            Tensor(Gen("g"), Id(h_dom)), Tensor(Id(g_cod), Gen("h"))
        )
        parallel = Tensor(Gen("g"), Gen("h"))
        assert terms_equal(staircase, parallel, SIG)

    def test_box_count_is_gen_occurrences(self):
        term = Compose(Tensor(Gen("g"), Gen("h")), Tensor(Gen("k"), Id(("F",))))
        assert len(to_diagram(term, SIG).boxes) == 3

    def test_long_chain_validates(self):
        loop = SmcPresentation(("A",), (MorphismGenerator("g", ("A",), ("A",)),))
        d = to_diagram(compose_terms([Gen("g")] * 2000), loop)
        assert len(d.boxes) == 2000
        validate_diagram(d)

    def test_cyclic_wiring_rejected(self):
        # Two boxes A -> A, each feeding the other; the interface wire passes by.
        d = diagram_from_wires(
            boxes=("g", "g"),
            box_doms=(("A",), ("A",)),
            box_cods=(("A",), ("A",)),
            inputs=("A",),
            outputs=("A",),
            pairs=frozenset({
                (("bo", 0, 0), ("bi", 1, 0)),
                (("bo", 1, 0), ("bi", 0, 0)),
                (("in", 0), ("out", 0)),
            }),
        )
        with pytest.raises(ValidationError, match="box dependency relation has a cycle"):
            validate_diagram(d)

    @pytest.mark.parametrize(
        "term, changes, match",
        [
            (PQ, {"feeds": (((-1, 0),), ((5, 0), (0, 1)))}, "must feed one port"),
            (PQ, {"feeds": (((-1, 0),), ((0, 2), (0, 1)))}, "must feed one port"),
            (PQ, {"feeds": (((-1, 1),), ((0, 0), (0, 1)))}, "must feed one port"),
            (PQ, {"feeds": (((-1, 0),), ((0, 0), (0, 0)))}, "must feed one port"),
            (PQ, {"feeds": (((-1, 0),), ((0, 0), None))}, "must feed one port"),
            (PQ, {"feeds": (((-1, 0),), ((0, 0),))}, "must feed one port"),
            (Gen("p"), {"outputs": ("A",), "results": ((0, 0),)}, "must feed one port"),
            (PQ, {"feeds": (((-1, 0),), ((0, 1), (0, 0)))}, "wrong number or labels"),
            (PQ, {"feeds": (((0, 0), (0, 1)), ((-1, 0),))}, "wrong number or labels"),
            (PQ, {"feeds": (((-1, 0),),)}, "a feed row"),
        ],
        ids=["missing box", "missing port", "missing input", "used twice", "unfed",
             "short row", "unused", "label mismatch", "rows swapped", "row missing"],
    )
    def test_bad_wiring_rejected(self, term, changes, match):
        d = to_diagram(term, P_Q)
        validate_diagram(d)
        with pytest.raises(ValidationError, match=match):
            validate_diagram(replace(d, **changes))


class TestDiagramEqual:
    def test_reflexive(self):
        d = to_diagram(Compose(Gen("g"), Gen("k")), SIG)
        assert diagram_equal(d, d)

    def test_symmetry_axiom(self):
        word = ("A", "B", "C")
        perm = (2, 0, 1)
        term = Compose(symmetry(word, perm), symmetry(apply_perm(word, perm), invert_perm(perm)))
        assert terms_equal(term, Id(word), SIG)

    def test_different_labels_differ(self):
        sig = free_smc(fig1_net())
        left = to_diagram(Gen("g"), sig)
        right = to_diagram(Gen("h"), sig)
        assert not diagram_equal(left, right)

    def test_twist_differs_from_straight(self):
        word = ("A", "A")
        assert not terms_equal(Perm(word, (1, 0)), Id(word), SIG)

    def test_equivalence_and_congruence(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_term(rng, SIG, 3)
            t2 = random_rewrite(rng, t, SIG)
            t3 = random_rewrite(rng, t2, SIG)
            d1, d2, d3 = (to_diagram(x, SIG) for x in (t, t2, t3))
            assert diagram_equal(d1, d2) and diagram_equal(d2, d3)
            assert diagram_equal(d1, d3)
            # congruence: equal pieces compose and tensor to equal wholes
            g = random_term_with_dom(rng, SIG, typecheck(t, SIG)[1], 2)
            g2 = random_rewrite(rng, g, SIG)
            assert terms_equal(Compose(t, g), Compose(t2, g2), SIG)
            other = random_term(rng, SIG, 2)
            other2 = random_rewrite(rng, other, SIG)
            assert terms_equal(Tensor(t, other), Tensor(t2, other2), SIG)


class TestDecomposition:
    def test_repeated_generator_once(self):
        assert decomposition(Tensor(Gen("f"), Gen("f"))) == {"f"}

    def test_composite(self):
        assert decomposition(Compose(Gen("g"), Gen("k"))) == {"g", "k"}

    def test_symmetries_are_empty(self):
        assert decomposition(Perm(("A", "B"), (1, 0))) == frozenset()

    def test_belongs(self):
        gk = Compose(Gen("g"), Gen("k"))
        assert "g" in decomposition(gk)
        assert "f" not in decomposition(gk)
        assert "f" not in decomposition(Id(("A",)))


class TestSmcAxioms:
    def test_compose_associative_unital(self):
        rng = random.Random(9)
        for _ in range(25):
            a = random_term(rng, SIG, 2)
            dom_a, cod_a = typecheck(a, SIG)
            b = random_term_with_dom(rng, SIG, cod_a, 2)
            c = random_term_with_dom(rng, SIG, typecheck(b, SIG)[1], 2)
            assert terms_equal(Compose(Compose(a, b), c), Compose(a, Compose(b, c)), SIG)
            assert terms_equal(Compose(Id(dom_a), a), a, SIG)
            assert terms_equal(Compose(a, Id(cod_a)), a, SIG)

    def test_tensor_associative_unital(self):
        rng = random.Random(10)
        for _ in range(25):
            a, b, c = (random_term(rng, SIG, 2) for _ in range(3))
            assert terms_equal(Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c)), SIG)
            assert terms_equal(Tensor(a, Id(())), a, SIG)
            assert terms_equal(Tensor(Id(()), a), a, SIG)

    def test_interchange(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_term(rng, SIG, 2)
            b = random_term(rng, SIG, 2)
            c = random_term_with_dom(rng, SIG, typecheck(a, SIG)[1], 2)
            d = random_term_with_dom(rng, SIG, typecheck(b, SIG)[1], 2)
            assert terms_equal(
                Compose(Tensor(a, b), Tensor(c, d)),
                Tensor(Compose(a, c), Compose(b, d)),
                SIG,
            )


class TestWiringOracle:
    """Pure-symmetry terms denote permutations; check wires against them."""

    def eval_perm(self, term):
        if isinstance(term, Id):
            return list(range(len(term.word)))
        if isinstance(term, Perm):
            return list(term.perm)
        if isinstance(term, Compose):
            first = self.eval_perm(term.first)
            second = self.eval_perm(term.second)
            return [first[s] for s in second]
        if isinstance(term, Tensor):
            left = self.eval_perm(term.left)
            right = self.eval_perm(term.right)
            return left + [len(left) + r for r in right]
        raise AssertionError(term)

    def test_wires_match_composed_permutation(self):
        rng = random.Random(13)
        objects = ("A", "B", "C")
        for _ in range(60):
            word = tuple(rng.choice(objects) for _ in range(rng.randint(0, 4)))
            term = Id(word)
            current = word
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.5 and current:
                    perm = list(range(len(current)))
                    rng.shuffle(perm)
                    term = Compose(term, Perm(current, tuple(perm)))
                    current = apply_perm(current, tuple(perm))
                else:
                    extra = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
                    term = Tensor(term, Id(extra))
                    word = word + extra
                    current = current + extra
            expected = self.eval_perm(term)
            diagram = to_diagram(term, SIG)
            assert wires(diagram) == frozenset(
                (("in", expected[j]), ("out", j)) for j in range(len(expected))
            )


F_LOOP = SmcPresentation(("A",), (MorphismGenerator("f", ("A",), ("A",)),))
BAD_LEAVES = (Gen("nope"), Id(("Z",)), Id(("A", "A")))


def fresh_leaves(term):
    """``term`` with every leaf rebuilt as its own node."""
    return fold_term(term, replace, Compose, Tensor)


def leaf_nodes(term) -> list:
    return fold_term(term, lambda node: [node], list.__add__, list.__add__)


class TestTermKernel:
    """``to_diagram`` types each distinct leaf node once, in its own loop."""

    def test_shared_and_fresh_leaves_match_the_reference(self):
        """Random terms, well typed or not, build the reference's diagram or
        raise the reference's first error in post-order, whether equal
        leaves are one node (as parsed) or each rebuilt."""
        rng = random.Random(28)
        built = failed = 0
        for _ in range(600):
            term = random_term(rng, SIG, rng.randint(1, 10))
            roll = rng.random()
            if roll < 0.3:
                term = Compose(term, random_term(rng, SIG, rng.randint(1, 6)))
            elif roll < 0.5:
                bad = rng.choice(BAD_LEAVES)
                term = rng.choice([Compose, Tensor])(*rng.sample([term, bad], 2))
            shared = parse_term(term_to_text(term))
            got = outcome(to_diagram, shared, SIG)
            assert got == outcome(to_diagram, fresh_leaves(term), SIG)
            assert got == outcome(to_diagram, term, SIG)
            typed = outcome(reference_fssmc.typecheck, term, SIG)
            if isinstance(typed[0], type):
                assert got == typed
                failed += 1
            else:
                assert got == reference_fssmc.to_diagram(term, SIG)
                built += 1
        assert built > 300 and failed > 100, (built, failed)

    def test_mismatch_before_unknown_generator_raises_the_mismatch(self):
        """``q;q`` fails before the unknown ``nope`` is reached in post-order."""
        message = "cannot compose: left codomain ('A',) != right domain ('A', 'B')"
        term = Compose(Compose(Gen("q"), Gen("q")), Gen("nope"))
        for t in (term, parse_term(term_to_text(term))):
            with pytest.raises(TypeMismatchError) as error:
                to_diagram(t, P_Q)
            assert str(error.value) == message
            assert outcome(to_diagram, t, P_Q) == outcome(reference_fssmc.typecheck, t, P_Q)
        first = Compose(Gen("nope"), Compose(Gen("q"), Gen("q")))
        with pytest.raises(UnknownGeneratorError, match="'nope'"):
            to_diagram(first, P_Q)

    @pytest.mark.parametrize("term", [Compose(0, Gen("f")), Tensor(Gen("f"), "x")])
    def test_non_terms_are_rejected(self, term):
        for function in (
            lambda t: to_diagram(t, F_LOOP), lambda t: typecheck(t, F_LOOP), term_to_text, pretty_term
        ):
            with pytest.raises(ValidationError, match="not a morphism term"):
                function(term)

    def test_each_distinct_leaf_node_is_typed_once(self, monkeypatch):
        """A parsed 100-step chain of width 3 has 300 leaves and 5 distinct
        leaf texts: ``_leaf_type`` runs 5 times, and 300 times on a copy
        whose leaves are all rebuilt."""
        sig = SmcPresentation(
            ("W",), tuple(MorphismGenerator(f"g{i}", ("W",), ("W",)) for i in range(2))
        )
        ids = ["id([])", "id([W])", "id([W,W])"]
        steps = [f"ten(ten({ids[i % 3]},gen(g{i % 2})),{ids[2 - i % 3]})" for i in range(100)]
        text = steps[0]
        for step in steps[1:]:
            text = f"comp({text},{step})"
        term = parse_term(text)
        leaves = leaf_nodes(term)
        assert len(leaves) == 300 and len({id(node) for node in leaves}) == 5
        leaf_type = petriglue.fssmc._leaf_type
        calls = [0]

        def counting_leaf_type(*args):
            calls[0] += 1
            return leaf_type(*args)

        monkeypatch.setattr(petriglue.fssmc, "_leaf_type", counting_leaf_type)
        shared = to_diagram(term, sig)
        assert calls[0] == 5
        assert to_diagram(fresh_leaves(term), sig) == shared
        assert calls[0] == 5 + 300
        assert len(shared.boxes) == 100


DEPTH = 100_000
LOOP = SmcPresentation(("A",), (MorphismGenerator("g", ("A",), ("A",)),))


def nested(node, right: bool):
    """The composite or product of DEPTH copies of g, nested left or right."""
    term = Gen("g")
    for _ in range(DEPTH - 1):
        term = node(Gen("g"), term) if right else node(term, Gen("g"))
    return term


@pytest.fixture(scope="module")
def deep():
    return {
        (node, right): nested(node, right) for node in (Compose, Tensor) for right in (False, True)
    }


class TestDeepTerms:
    """Term depth is limited by memory, not by the recursion limit."""

    @pytest.mark.parametrize("right", [False, True])
    def test_compose_chain(self, deep, right):
        chain = deep[Compose, right]
        assert typecheck(chain, LOOP) == (("A",), ("A",))
        assert decomposition(chain) == {"g"}
        assert wires(to_diagram(chain, LOOP)) == frozenset(
            [(("in", 0), ("bi", 0, 0)), (("bo", DEPTH - 1, 0), ("out", 0))]
            + [(("bo", b, 0), ("bi", b + 1, 0)) for b in range(DEPTH - 1)]
        )

    @pytest.mark.parametrize("right", [False, True])
    def test_tensor_product(self, deep, right):
        product = deep[Tensor, right]
        word = ("A",) * DEPTH
        assert typecheck(product, LOOP) == (word, word)
        assert wires(to_diagram(product, LOOP)) == frozenset(
            pair
            for b in range(DEPTH)
            for pair in ((("in", b), ("bi", b, 0)), (("bo", b, 0), ("out", b)))
        )

    def test_rebracketed_chain_is_equal(self, deep):
        assert terms_equal(deep[Compose, False], deep[Compose, True], LOOP)

    def test_functor_image(self, deep):
        image = apply_functor(identity_functor(LOOP), deep[Tensor, True])
        assert typecheck(image, LOOP) == (("A",) * DEPTH,) * 2

    @pytest.mark.parametrize("node", [Compose, Tensor])
    def test_equal_terms_compare_and_hash_equal(self, deep, node):
        term, twin = deep[node, False], nested(node, False)
        assert term is not twin
        assert term == twin and hash(term) == hash(twin)
        assert term != deep[node, True]

    def test_parsed_terms_compare_hash_and_print(self):
        text = "comp(" * 3000 + "gen(f)" + ",id([C,B]))" * 3000
        term = Gen("f")
        for _ in range(3000):
            term = Compose(term, Id(("C", "B")))
        assert parse_term(text) == parse_term(text) == term
        assert hash(parse_term(text)) == hash(term)
        assert repr(parse_term(text)) == (
            "Compose(first=" * 3000 + "Gen(name='f')" + ", second=Id(word=('C', 'B')))" * 3000
        )


def test_shallow_repr_unchanged():
    term = Compose(Tensor(Gen("g"), Id(("A",))), Perm(("A", "B"), (1, 0)))
    assert repr(term) == (
        "Compose(first=Tensor(left=Gen(name='g'), right=Id(word=('A',))), "
        "second=Perm(word=('A', 'B'), perm=(1, 0)))"
    )
    assert repr(Tensor(Compose(Gen("f"), Id(())), Gen("h"))) == (
        "Tensor(left=Compose(first=Gen(name='f'), second=Id(word=())), right=Gen(name='h'))"
    )
