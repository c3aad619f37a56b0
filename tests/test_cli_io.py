"""Documents, term expressions, DOT export and the command line."""
from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petriglue import (
    Compose,
    Gen,
    Id,
    ParseError,
    Perm,
    Tensor,
    UnknownPlaceError,
    ValidationError,
    export_dot,
    parse_net,
    parse_term,
    serialize_net,
    term_to_text,
)
from petriglue.cli_io import (
    MAX_PRODUCT_DEPTH,
    _build_parser,
    _document_text,
    main,
    parse_semantics,
)
from support import FIXTURES, collapsing_split_pair, fig1_nws

# fig8a's f: [A,A] -> [C,B], composed with identities 3,000 levels deep.
DEEP_IMAGE = "comp(" * 3000 + "gen(f)" + ",id([C,B]))" * 3000
RUN_MAIN = "import sys; from petriglue.cli_io import main; sys.exit(main(sys.argv[1:]))"


def _fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def _written(tmp_path, name: str, doc) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _fixture_variant(tmp_path, name: str, mutate) -> str:
    """Fixture ``name``'s document, changed in place by ``mutate``, written out."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(doc)
    return _written(tmp_path, f"{name}-variant", doc)


def _deepen_f(doc):
    doc["fold"]["morphisms"]["f"] = DEEP_IMAGE


def _fig1_in_nested_products(tmp_path, depth):
    """fig1's document with its semantics ``depth`` products deep, written out.

    The text is spliced together, since ``json.dumps`` itself recurses.
    """
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    semantics, fold = json.dumps(doc.pop("semantics")), json.dumps(doc.pop("fold"))
    for _ in range(depth):
        semantics = f'{{"backend": "product", "left": {semantics}, "right": {{"backend": "terminal"}}}}'
        fold = f'{{"left": {fold}, "right": {{}}}}'
    path = tmp_path / f"products-{depth}.json"
    path.write_text(json.dumps(doc)[:-1] + f', "semantics": {semantics}, "fold": {fold}}}')
    return path


NET_FIXTURES = ("fig1.json", "fig5a.json", "fig8a-left.json", "fig8a-right.json")
KEYS = st.sampled_from(
    ("places", "transitions", "semantics", "fold", "backend", "objects", "morphisms",
     "name", "pre", "post", "dom", "cod", "equations", "A", "C", "f", "ghost")
) | st.text(max_size=3)
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(
        ("A", "C", "f", "free", "terminal", "product", "gen(f)", "comp(gen(f),gen(h))",
         "ten(gen(f),id([A]))", "id([A,B])", "perm([A,A],[1,0])", "gen(")
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=5,
)


def _paths(node, path=()):
    """The path to ``node`` and to everything inside it."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(doc, data):
    """Replace a value with junk, delete a key, or add a key with a junk value."""
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(("replace", "delete", "add")))
    dicts = [p for p in paths if isinstance(_at(doc, p), dict)]
    keyed = [p for p in paths if p and isinstance(p[-1], str)]
    if kind == "add" and dicts:
        _at(doc, data.draw(st.sampled_from(dicts)))[data.draw(KEYS)] = data.draw(JUNK)
    elif kind == "delete" and keyed:
        path = data.draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from(paths))
        if not path:
            return data.draw(JUNK)
        _at(doc, path[:-1])[path[-1]] = data.draw(JUNK)
    return doc


def _python(*args):
    """Run a fresh interpreter that imports petriglue from this checkout."""
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestTermExpressions:
    def test_parse_generator(self):
        assert parse_term("gen(g)") == Gen("g")

    def test_parse_nested(self):
        term = parse_term("comp(ten(gen(g),gen(h)),ten(gen(k),id([F])))")
        assert term == Compose(Tensor(Gen("g"), Gen("h")), Tensor(Gen("k"), Id(("F",))))

    def test_parse_permutation(self):
        assert parse_term("perm([A,B],[1,0])") == Perm(("A", "B"), (1, 0))

    def test_round_trip(self):
        terms = [
            Gen("g"),
            Id(()),
            Id(("A", "B")),
            Perm(("A", "B", "C"), (2, 0, 1)),
            Compose(Gen("g"), Gen("k")),
            Tensor(Gen("g"), Tensor(Gen("h"), Id(("F",)))),
        ]
        for term in terms:
            assert parse_term(term_to_text(term)) == term

    def test_position_in_errors(self):
        with pytest.raises(ParseError, match="position"):
            parse_term("comp(gen(g)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("gen(g) gen(h)")

    def test_deep_nesting_round_trip(self):
        for text in (DEEP_IMAGE, "ten(id([A])," * 3000 + "gen(g)" + ")" * 3000):
            assert term_to_text(parse_term(text)) == text

    @pytest.mark.parametrize(
        "text, term",
        [
            ("comp ( gen( f ) , gen(g) )", Compose(Gen("f"), Gen("g"))),
            (
                "\tten( id( [ A , B ] ) ,perm ( [A, B] , [1 ,0] ) )\n",
                Tensor(Id(("A", "B")), Perm(("A", "B"), (1, 0))),
            ),
            ("id([])", Id(())),
            ("id( [ ] )", Id(())),
            ("gen(comp)", Gen("comp")),
            ("id([ten,gen,perm,id])", Id(("ten", "gen", "perm", "id"))),
            ("comp(gen(ten),ten(gen(comp),id([comp])))",
             Compose(Gen("ten"), Tensor(Gen("comp"), Id(("comp",))))),
            ("perm([A,B],[01,00])", Perm(("A", "B"), (1, 0))),
            ("gen(f;g)", Gen("f;g")),
        ],
    )
    def test_parse_edge_cases(self, text, term):
        assert parse_term(text) == term

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id([a,])", "at position 6: expected a name"),
            ("gen()", "at position 4: expected a name"),
            ("", "at position 0: expected a name"),
            ("   ", "at position 3: expected a name"),
            ("gen(g) gen(h)", "at position 7: trailing input after term"),
            ("gen(g))", "at position 6: trailing input after term"),
            ("gen(g),", "at position 6: trailing input after term"),
            ("foo(x)", "at position 4: unknown term constructor 'foo'"),
            ("comp(foo(x),gen(g))", "at position 9: unknown term constructor 'foo'"),
            ("comp(gen(f)", "at position 11: expected ','"),
            ("comp(gen(f))", "at position 11: expected ','"),
            ("comp(gen(f),gen(g),gen(h))", "at position 18: expected ')'"),
            ("comp gen(f)", "at position 5: expected '('"),
            ("gen(f g)", "at position 6: expected ')'"),
            ("perm([A,B],[x,0])", "at position 16: expected a list of integers"),
            ("perm([A],[0]", "at position 12: expected ')'"),
        ],
    )
    def test_errors_name_message_and_position(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_term(text)
        assert str(info.value) == message

    def test_comp_nest_100000_deep(self):
        text = "comp(" * 100_000 + "gen(f)" + ",gen(g))" * 100_000
        assert term_to_text(parse_term(text)) == text


class TestDocuments:
    def test_minimal_document(self):
        text = json.dumps(
            {
                "places": ["A"],
                "transitions": [],
                "semantics": {"backend": "terminal"},
            }
        )
        nws = parse_net(text)
        assert nws.net.places == ("A",)

    def test_fig1_fixture_loads(self):
        nws = parse_net((FIXTURES / "fig1.json").read_text())
        sig = nws.presentation
        assert sig.morphism("g").dom == ("A", "A", "B", "C", "C", "C")
        assert sig.morphism("h").dom == ("C", "D", "D", "D", "D")
        assert sig.morphism("k").dom == ("E", "F")
        assert sig.morphism("f").cod == ("A", "A", "A", "B", "C", "C", "C", "C", "C")

    def test_undeclared_place_rejected(self):
        text = json.dumps(
            {
                "places": ["A"],
                "transitions": [{"name": "t", "pre": {"B": 1}, "post": {}}],
                "semantics": {"backend": "terminal"},
            }
        )
        with pytest.raises(UnknownPlaceError):
            parse_net(text)

    def test_equations_rejected(self):
        with pytest.raises(ValidationError, match="undecidable"):
            parse_semantics(
                {
                    "backend": "free",
                    "objects": ["A"],
                    "morphisms": [],
                    "equations": [["gen(f)", "gen(g)"]],
                }
            )

    def test_serialize_parse_round_trip(self):
        nws = fig1_nws()
        text = serialize_net(nws)
        again = parse_net(text)
        assert again.net == nws.net
        assert serialize_net(again) == text

    def test_fixture_files_are_canonical(self):
        for name in ("fig1.json", "fig5a.json", "fig8a-left.json", "fig8a-right.json"):
            text = (FIXTURES / name).read_text()
            assert serialize_net(parse_net(text)) == text


class TestDotExport:
    def test_empty_net(self):
        from petriglue import PetriNet

        text = export_dot(PetriNet((), ()))
        assert "shape" not in text
        assert text.startswith("digraph net {")

    def test_fig1_shapes_and_weights(self):
        nws = fig1_nws()
        text = export_dot(nws.net, nws.fold)
        assert text.count("shape=circle") == 6
        assert text.count("shape=box") == 4
        assert '"trans:f" -> "place:A" [label="3"];' in text

    def test_stable_output(self):
        nws = fig1_nws()
        assert export_dot(nws.net, nws.fold) == export_dot(nws.net, nws.fold)

    FIG1_ARCS = (
        '  "trans:f" -> "place:A" [label="3"];\n'
        '  "trans:f" -> "place:B";\n'
        '  "trans:f" -> "place:C" [label="5"];\n'
    )

    @staticmethod
    def places(label) -> str:
        return "".join(
            f'  "place:{p}" [shape=circle, label="{p} : {label(p)}"];\n' for p in "ABCDEF"
        )

    @staticmethod
    def dot_after_sync(tmp_path, capsys, recipe: str) -> str:
        synced = tmp_path / "synced.json"
        argv = ["sync", _fixture("fig1"), "--recipe", _fixture(f"recipe-{recipe}")]
        assert main(argv + ["--out", str(synced)]) == 0
        assert main(["dot", str(synced)]) == 0
        return capsys.readouterr().out

    def test_composite_fold_image(self, tmp_path, capsys):
        """After a sync, the event's fold image is the recipe's composite."""
        assert self.dot_after_sync(tmp_path, capsys, "gk") == (
            "digraph net {\n  rankdir=LR;\n"
            + self.places(lambda p: p)
            + '  "trans:f" [shape=box, label="f : f"];\n'
            '  "trans:h" [shape=box, label="h : h"];\n'
            '  "trans:gk" [shape=box, label="gk : g;k"];\n'
            + self.FIG1_ARCS
            + '  "place:C" -> "trans:h";\n'
            '  "place:D" -> "trans:h" [label="4"];\n'
            '  "trans:h" -> "place:F";\n'
            '  "place:A" -> "trans:gk" [label="2"];\n'
            '  "place:B" -> "trans:gk";\n'
            '  "place:C" -> "trans:gk" [label="3"];\n'
            "}\n"
        )

    def test_nested_fold_image_is_parenthesized(self, tmp_path, capsys):
        out = self.dot_after_sync(tmp_path, capsys, "ghk")
        assert '  "trans:ghk" [shape=box, label="ghk : (g⊗h);(k⊗id(F))"];\n' in out

    def test_product_of_free_and_terminal(self, tmp_path, capsys):
        """Values in a product backend print as pairs, the terminal one as •."""
        assert main(["dot", str(_fig1_in_nested_products(tmp_path, 1))]) == 0
        assert capsys.readouterr().out == (
            "digraph net {\n  rankdir=LR;\n"
            + self.places(lambda p: f"⟨{p},•⟩")
            + "".join(f'  "trans:{t}" [shape=box, label="{t} : ⟨{t},•⟩"];\n' for t in "fghk")
            + self.FIG1_ARCS
            + '  "place:A" -> "trans:g" [label="2"];\n'
            '  "place:B" -> "trans:g";\n'
            '  "place:C" -> "trans:g" [label="3"];\n'
            '  "trans:g" -> "place:E";\n'
            '  "trans:g" -> "place:F";\n'
            '  "place:C" -> "trans:h";\n'
            '  "place:D" -> "trans:h" [label="4"];\n'
            '  "trans:h" -> "place:F";\n'
            '  "place:E" -> "trans:k";\n'
            '  "place:F" -> "trans:k";\n'
            "}\n"
        )


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(FIXTURES / "fig1.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_deeply_nested_fold_image(self, tmp_path):
        path = _fixture_variant(tmp_path, "fig8a-left", _deepen_f)
        done = _python("-c", RUN_MAIN, "validate", str(path))
        assert done.returncode in (0, 2)
        assert "Traceback" not in done.stderr

    def test_dot_deeply_nested_fold_image(self, tmp_path):
        path = _fixture_variant(tmp_path, "fig8a-left", _deepen_f)
        done = _python("-c", RUN_MAIN, "dot", str(path))
        assert "Traceback" not in done.stderr
        assert done.returncode == 0
        assert 'label="f : f;id(C·B);id(C·B);' in done.stdout

    def test_python_dash_m_petriglue(self):
        done = _python("-m", "petriglue", "validate", str(FIXTURES / "fig1.json"))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "ok: 6 places, 4 transitions\n", ""
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(
                lambda doc: doc["fold"]["morphisms"].update(ghost="gen(h)"), id="ghost-image"
            ),
            pytest.param(lambda doc: doc["fold"]["objects"].update(A="A"), id="string-word"),
            pytest.param(
                lambda doc: doc["transitions"][0]["post"].update(C=True), id="bool-count"
            ),
            pytest.param(lambda doc: doc["fold"]["morphisms"].update(f=5), id="number-term"),
            pytest.param(
                lambda doc: doc["fold"]["morphisms"].update(f="comp(perm([A,A],[+1,0]),gen(f))"),
                id="signed-perm-index",
            ),
            pytest.param(
                lambda doc: doc["fold"]["morphisms"].update(f="comp(perm([A,A],[١,0]),gen(f))"),
                id="non-ascii-perm-index",
            ),
            pytest.param(
                lambda doc: (
                    doc["places"].append(7), doc.update(semantics={"backend": "terminal"})
                ),
                id="number-place",
            ),
        ],
    )
    def test_validate_rejects_junk(self, tmp_path, capsys, mutate):
        path = _fixture_variant(tmp_path, "fig8a-left", mutate)
        assert main(["validate", str(path)]) == 2
        assert main(["dot", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_validate_bad_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_validate_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        assert main(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: ")

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.json"
        fig1 = str(FIXTURES / "fig1.json")
        assert main(["coproduct", fig1, fig1, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_freecat(self, capsys):
        assert main(["freecat", str(FIXTURES / "fig1.json")]) == 0
        out = capsys.readouterr().out
        assert "g : A·A·B·C·C·C -> E·F" in out

    def test_sync_conflates_gk(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "sync",
                str(FIXTURES / "fig1.json"),
                "--recipe",
                str(FIXTURES / "recipe-gk.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        by_name = {t["name"]: t for t in doc["transitions"]}
        assert by_name["gk"]["pre"] == {"A": 2, "B": 1, "C": 3}
        assert by_name["gk"]["post"] == {}

    def test_sync_faithful_bound(self, capsys):
        """The default bound is 3, and a bound below 1 is a usage error."""
        argv = ["sync", str(FIXTURES / "fig1.json"), "--recipe", str(FIXTURES / "recipe-ghk.json")]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--faithful-bound", "3"]) == 0
        assert capsys.readouterr().out == default
        assert main(argv + ["--faithful-bound", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: faithfulness bound must be >= 1\n"

    def test_sync_rejects_non_boolean_prune(self, tmp_path, capsys):
        recipe = json.loads((FIXTURES / "recipe-gk-prune.json").read_text())
        recipe["prune"] = "no"
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(recipe))
        assert main(["sync", str(FIXTURES / "fig1.json"), "--recipe", str(path)]) == 2
        assert "'prune' must be a bool" in capsys.readouterr().err

    def test_identify_fig5a_places(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "identify",
                str(FIXTURES / "fig5a.json"),
                "--witness",
                str(FIXTURES / "witness-fig5a-places.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["places"] == ["A", "B", "C1"]

    def test_identify_rejects_bad_witness(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "witness-fig5a-places.json").read_text())
        doc["r"]["objects"]["o"] = ["C1", "C2"]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        assert main(["identify", str(FIXTURES / "fig5a.json"), "--witness", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: right witness functor must send places to places\n"

    def test_identify_rejects_classes_with_different_boundaries(self, tmp_path, capsys):
        net_doc = {
            "places": ["A", "X", "B"],
            "transitions": [
                {"name": "t1", "pre": {"A": 1}, "post": {"B": 1}},
                {"name": "t2", "pre": {"A": 1, "X": 1}, "post": {"X": 1, "B": 1}},
            ],
            "semantics": {"backend": "free", "objects": ["A", "X", "B"], "morphisms": [
                {"name": "u", "dom": ["A"], "cod": ["B"]}]},
            "fold": {"objects": {"A": ["A"], "X": ["X"], "B": ["B"]}, "morphisms": {
                "t1": "gen(u)", "t2": "comp(ten(gen(u),id([X])),perm([B,X],[1,0]))"}},
        }
        objects = {"p": ["A"], "q": ["X"], "r": ["B"]}
        witness_doc = {
            "net": {"places": ["p", "q", "r"], "transitions": [
                {"name": "g", "pre": {"p": 1, "q": 1}, "post": {"q": 1, "r": 1}}]},
            "l": {"objects": objects, "morphisms": {
                "g": "comp(ten(gen(t1),id([X])),perm([B,X],[1,0]))"}},
            "r": {"objects": objects, "morphisms": {"g": "gen(t2)"}},
        }
        net_path, witness_path = tmp_path / "net.json", tmp_path / "witness.json"
        net_path.write_text(json.dumps(net_doc))
        witness_path.write_text(json.dumps(witness_doc))
        assert main(["identify", str(net_path), "--witness", str(witness_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the functors merge 't2' into 't1'")

    def test_compose_thousands_of_tokens_exceeds_budget(self, tmp_path):
        """fig8a with boundary amounts near 5,000: the firing-vector tables
        would need 250 million cells, so compose stops at once."""
        amounts = {"f": 4999, "h": 5003, "k": 5001}
        paths = []
        for name in ("fig8a-left.json", "fig8a-right.json"):
            doc = json.loads((FIXTURES / name).read_text())
            for t in doc["transitions"]:
                for side in (t["pre"], t["post"]):
                    if "C" in side:
                        side["C"] = amounts[t["name"]]
            for m in doc["semantics"]["morphisms"]:
                for key in ("dom", "cod"):
                    if "C" in m[key]:
                        rest = [letter for letter in m[key] if letter != "C"]
                        m[key] = ["C"] * amounts[m["name"]] + rest
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(doc))
        started = time.perf_counter()
        result = _python("-m", "petriglue", "compose", "--pair", "C=C", *map(str, paths))
        assert time.perf_counter() - started < 60
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: firing-vector tables need 250074970 cells")

    def test_compose_repeated_pair_names_the_place(self):
        result = _python(
            "-m", "petriglue", "compose",
            str(FIXTURES / "fig8a-left.json"), str(FIXTURES / "fig8a-right.json"),
            "--pair", "C=C", "--pair", "C=C",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: left place 'C' is paired twice\n"

    def test_compose_boundary_result(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "compose",
                "--pair",
                "C=C",
                str(FIXTURES / "fig8a-left.json"),
                str(FIXTURES / "fig8a-right.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["places"] == ["A", "B", "D", "E"]
        (transition,) = doc["transitions"]
        assert transition["pre"] == {"A": 6}
        assert transition["post"] == {"B": 3, "D": 1, "E": 1}

    def test_check_functor_failure_exit_code(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.json"
        tiny.write_text(
            json.dumps(
                {
                    "places": ["A"],
                    "transitions": [],
                    "semantics": json.loads((FIXTURES / "fig1.json").read_text())["semantics"],
                    "fold": {"objects": {"A": ["A"]}, "morphisms": {}},
                }
            )
        )
        functor = tmp_path / "functor.json"
        functor.write_text(json.dumps({"objects": {"A": ["A"]}, "morphisms": {}}))
        code = main(
            [
                "check-functor",
                str(functor),
                "--src",
                str(tiny),
                "--tgt",
                str(FIXTURES / "fig1.json"),
            ]
        )
        assert code == 1
        assert "covers_all_target_generators" in capsys.readouterr().out

    def test_check_functor_identity_passes(self, tmp_path, capsys):
        fig1_doc = json.loads((FIXTURES / "fig1.json").read_text())
        functor = tmp_path / "functor.json"
        functor.write_text(
            json.dumps(
                {
                    "objects": {p: [p] for p in fig1_doc["places"]},
                    "morphisms": {t["name"]: f"gen({t['name']})" for t in fig1_doc["transitions"]},
                }
            )
        )
        code = main(
            [
                "check-functor",
                str(functor),
                "--src",
                str(FIXTURES / "fig1.json"),
                "--tgt",
                str(FIXTURES / "fig1.json"),
                "--faithful-bound",
                "2",
            ]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_dot_output(self, capsys):
        assert main(["dot", str(FIXTURES / "fig1.json")]) == 0
        assert "digraph net {" in capsys.readouterr().out

    def test_coproduct(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "coproduct",
                str(FIXTURES / "fig8a-left.json"),
                str(FIXTURES / "fig8a-right.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["places"] == ["A", "C", "B", "C'", "D", "E"]

    def test_pushout(self, tmp_path):
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"places": ["o"], "transitions": []}))
        lmap = tmp_path / "l.json"
        lmap.write_text(json.dumps({"objects": {"o": ["C"]}, "morphisms": {}}))
        rmap = tmp_path / "r.json"
        rmap.write_text(json.dumps({"objects": {"o": ["C"]}, "morphisms": {}}))
        out = tmp_path / "out.json"
        code = main(
            [
                "pushout",
                str(FIXTURES / "fig8a-left.json"),
                str(FIXTURES / "fig8a-right.json"),
                "--witness",
                str(witness),
                "--l",
                str(lmap),
                "--r",
                str(rmap),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["places"] == ["A", "C", "B", "D", "E"]

    def test_transport_to_terminal(self, tmp_path):
        functor = tmp_path / "h.json"
        functor.write_text(json.dumps({"semantics": {"backend": "terminal"}}))
        out = tmp_path / "out.json"
        code = main(
            [
                "transport",
                str(FIXTURES / "fig1.json"),
                "--functor",
                str(functor),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["semantics"] == {"backend": "terminal"}

    def test_identify_obstruction_exit_code(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        witness.write_text(
            json.dumps(
                {
                    "net": {"places": ["o"], "transitions": []},
                    "l": {"objects": {"o": ["A"]}, "morphisms": {}},
                    "r": {"objects": {"o": ["B"]}, "morphisms": {}},
                }
            )
        )
        code = main(
            ["identify", str(FIXTURES / "fig5a.json"), "--witness", str(witness)]
        )
        assert code == 1
        assert "verdict failure" in capsys.readouterr().err


def _net_without_transitions(tmp_path, name: str, fold_objects: dict) -> str:
    """The places ``fold_objects`` names, no transitions, and fig1's semantics."""
    semantics = json.loads((FIXTURES / "fig1.json").read_text())["semantics"]
    doc = {"places": list(fold_objects), "transitions": [], "semantics": semantics,
           "fold": {"objects": fold_objects, "morphisms": {}}}
    return _written(tmp_path, name, doc)


def _check_functor(tmp_path, objects: dict, fold_objects: dict) -> list[str]:
    functor = _written(tmp_path, "functor", {"objects": objects, "morphisms": {}})
    src = _net_without_transitions(tmp_path, "src", fold_objects)
    return ["check-functor", functor, "--src", src, "--tgt", _fixture("fig1")]


def _collapsing_compose(tmp_path) -> list[str]:
    left, right = collapsing_split_pair()
    paths = [
        _written(tmp_path, side, json.loads(serialize_net(n)))
        for side, n in (("left", left), ("right", right))
    ]
    return ["compose", *paths, "--pair", "B=B"]


def _make_terminal(doc):
    doc.update(semantics={"backend": "terminal"}, fold={})


UNCOVERED = (
    "fail covers_all_target_generators: target generators never used: f, g, h, k\n"
    + "".join(f"  certificate: {name}\n" for name in "fghk")
)
NOT_COMMUTING = (
    "fail commutes_with_semantics: source fold differs from functor followed by target fold\n"
)
FAITHFUL = "faithful: distinct parallel morphisms collapse at bound 3"

# Each case: the argv built in a temporary directory, the exit code, and
# the whole of standard output and standard error.
ERROR_PATHS = {
    "check-functor-non-generator-object": (
        lambda tmp: _check_functor(tmp, {"A": ["A", "A"]}, {"A": ["A"]}),
        1,
        "fail generator_preserving_on_objects: some object generator is sent to a "
        "non-generator word\n" + NOT_COMMUTING,
        "",
    ),
    "check-functor-shared-object-image": (
        lambda tmp: _check_functor(tmp, {"A": ["A"], "B": ["A"]}, {"A": ["A"], "B": ["A"]}),
        1,
        "fail injective_on_object_generators: two object generators share an image\n"
        + UNCOVERED,
        "",
    ),
    "check-functor-not-commuting": (
        lambda tmp: _check_functor(tmp, {"A": ["A"]}, {"A": ["B"]}),
        1,
        UNCOVERED + NOT_COMMUTING,
        "",
    ),
    "compose-collapsing-split-event": (
        _collapsing_compose, 1, "", f"verdict failure: {FAITHFUL}\n  {FAITHFUL}\n",
    ),
    "validate-duplicate-transition": (
        lambda tmp: ["validate", _fixture_variant(
            tmp, "fig1", lambda doc: doc["transitions"][1].update(name="f")
        )],
        2, "", "error: transition names must be pairwise distinct\n",
    ),
    "sync-event-named-after-survivor": (
        lambda tmp: ["sync", _fixture("fig1"), "--recipe", _written(
            tmp, "recipe", {"name": "h", "expression": "comp(gen(g),gen(k))"}
        )],
        2, "", "error: transition names must be pairwise distinct\n",
    ),
    "validate-duplicate-semantics-object": (
        lambda tmp: ["validate", _fixture_variant(
            tmp, "fig1", lambda doc: doc["semantics"]["objects"].append("A")
        )],
        2, "", "error: object generator names must be distinct\n",
    ),
    "validate-duplicate-semantics-morphism": (
        lambda tmp: ["validate", _fixture_variant(
            tmp, "fig1",
            lambda doc: doc["semantics"]["morphisms"].append(doc["semantics"]["morphisms"][0]),
        )],
        2, "", "error: morphism generator names must be distinct\n",
    ),
    "compose-pair-without-equals": (
        lambda tmp: ["compose", _fixture("fig8a-left"), _fixture("fig8a-right"), "--pair", "C"],
        2, "", "error: --pair must look like LEFT=RIGHT, got 'C'\n",
    ),
    "compose-unknown-left-place": (
        lambda tmp: ["compose", _fixture("fig8a-left"), _fixture("fig8a-right"), "--pair", "Z=C"],
        2, "", "error: unknown left place 'Z'\n",
    ),
    "compose-unknown-right-place": (
        lambda tmp: ["compose", _fixture("fig8a-left"), _fixture("fig8a-right"), "--pair", "C=Z"],
        2, "", "error: unknown right place 'Z'\n",
    ),
    "compose-mismatched-semantics": (
        lambda tmp: ["compose", _fixture("fig8a-left"),
                     _fixture_variant(tmp, "fig8a-right", _make_terminal), "--pair", "C=C"],
        2, "", "error: nets carry different semantics\n",
    ),
    "transport-terminal-net": (
        lambda tmp: ["transport", _fixture_variant(tmp, "fig8a-right", _make_terminal),
                     "--functor", _written(tmp, "change", {"semantics": {"backend": "terminal"}})],
        2, "", "error: transport requires a net with a free backend\n",
    ),
}


class TestErrorPaths:
    """Verdict failures and typed errors that end a command: the exit code
    and every line it prints."""

    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_exit_code_and_message(self, tmp_path, capsys, case):
        argv, code, out, err = ERROR_PATHS[case]
        assert main(argv(tmp_path)) == code
        assert capsys.readouterr() == (out, err)


class TestDeeplyNestedDocuments:
    """Documents nested past what the JSON decoder or the semantics layer
    can walk end in a typed error (exit 2), never in a traceback."""

    def _assert_rejected(self, *args):
        done = _python("-c", RUN_MAIN, *args)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ")

    def test_extra_key_of_deeply_nested_lists(self, tmp_path):
        text = (FIXTURES / "fig1.json").read_text().rstrip()
        path = tmp_path / "lists.json"
        path.write_text(text[:-1] + ', "extra": ' + "[" * 100_000 + "]" * 100_000 + "}")
        self._assert_rejected("validate", str(path))

    def test_deeply_nested_recipe(self, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text("[" * 100_000 + "]" * 100_000)
        self._assert_rejected("sync", str(FIXTURES / "fig1.json"), "--recipe", str(recipe))

    @pytest.mark.parametrize("depth", [MAX_PRODUCT_DEPTH + 1, 600, 990])
    @pytest.mark.parametrize("command", ["validate", "coproduct", "sync"])
    def test_products_past_the_limit(self, tmp_path, depth, command):
        path = str(_fig1_in_nested_products(tmp_path, depth))
        args = {
            "validate": [path],
            "coproduct": [path, path],
            "sync": [path, "--recipe", str(FIXTURES / "recipe-gh.json")],
        }[command]
        self._assert_rejected(command, *args)

    def test_parse_semantics_limit(self, tmp_path):
        doc = json.loads(_fig1_in_nested_products(tmp_path, MAX_PRODUCT_DEPTH).read_text())
        parse_semantics(doc["semantics"])
        with pytest.raises(ValidationError, match="nest deeper than"):
            parse_semantics(
                {"backend": "product", "left": doc["semantics"], "right": {"backend": "terminal"}}
            )

    def test_products_at_the_limit(self, tmp_path, capsys):
        path = str(_fig1_in_nested_products(tmp_path, MAX_PRODUCT_DEPTH))
        out = tmp_path / "coproduct.json"
        assert main(["validate", path]) == 0
        assert main(["coproduct", path, path, "--out", str(out)]) == 0
        for text in (Path(path).read_text(), out.read_text()):
            canonical = serialize_net(parse_net(text))
            assert serialize_net(parse_net(canonical)) == canonical


def _fig8a_with_object(tmp_path, name):
    """fig8a's two documents with semantics object ``B`` renamed to ``name``
    in the semantics and the folds; the places keep their names."""

    def renamed(word):
        return [name if letter == "B" else letter for letter in word]

    paths = []
    for side in ("left", "right"):
        doc = json.loads((FIXTURES / f"fig8a-{side}.json").read_text())
        semantics = doc["semantics"]
        semantics["objects"] = renamed(semantics["objects"])
        for m in semantics["morphisms"]:
            m["dom"], m["cod"] = renamed(m["dom"]), renamed(m["cod"])
        objects = doc["fold"]["objects"]
        objects.update({place: renamed(word) for place, word in objects.items()})
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


class TestObjectNames:
    """Semantics object names are written into ``id`` and ``perm`` text, so
    one that the term grammar cannot read back as a NAME is rejected."""

    @pytest.mark.parametrize("name", ["b b", "b,b", "b)", "[b]", "b\tb", ""])
    def test_rejected_by_validate_and_compose(self, tmp_path, capsys, name):
        left, right = _fig8a_with_object(tmp_path, name)
        assert main(["validate", left]) == 2
        assert main(["compose", left, right, "--pair", "C=C"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(repr(name) in line for line in err)

    @pytest.mark.parametrize("name", ["b b", ""])
    def test_rejected_inside_products(self, name):
        free = {"backend": "free", "objects": ["A", name], "morphisms": []}
        with pytest.raises(ValidationError, match="object name"):
            parse_semantics(
                {"backend": "product", "left": {"backend": "terminal"}, "right": free}
            )

    def test_primed_name_accepted(self, tmp_path, capsys):
        left, right = _fig8a_with_object(tmp_path, "C'")
        out = tmp_path / "composed.json"
        assert main(["validate", left]) == 0
        assert main(["compose", left, right, "--pair", "C=C", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        assert "C'" in json.loads(out.read_text())["semantics"]["objects"]


class TestMutatedDocuments:
    """Fixture documents with junk values, deleted keys and added keys:
    ``validate``, ``dot`` and ``freecat`` end alike, in success or a
    typed error, never a traceback, and every accepted document
    round-trips."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_validate_dot_freecat(self, tmp_path_factory, data):
        doc = json.loads((FIXTURES / data.draw(st.sampled_from(NET_FIXTURES))).read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        text = json.dumps(doc)
        path = tmp_path_factory.mktemp("mutated") / "net.json"
        path.write_text(text)
        codes = []
        for command in ("validate", "dot", "freecat"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(main([command, str(path)]))
        assert codes[0] in (0, 1, 2)
        assert codes == [codes[0]] * 3
        if codes[0] == 0:
            canonical = serialize_net(parse_net(text))
            assert serialize_net(parse_net(canonical)) == canonical


FIG1 = json.loads((FIXTURES / "fig1.json").read_text())

#: Documents the multi-document commands read besides the fixtures: a
#: one-place witness with its two maps onto fig8a's ``C``, fig1's
#: identity functor, and the identity of fig1's semantics as a change of
#: semantics.
WRITTEN_DOCUMENTS = {
    "witness-o.json": {"places": ["o"], "transitions": []},
    "o-to-left-C.json": {"objects": {"o": ["C"]}, "morphisms": {}},
    "o-to-right-C.json": {"objects": {"o": ["C"]}, "morphisms": {}},
    "fig1-identity.json": {
        "objects": {p: [p] for p in FIG1["places"]},
        "morphisms": {t["name"]: f"gen({t['name']})" for t in FIG1["transitions"]},
    },
    "fig1-semantics-identity.json": {
        "semantics": FIG1["semantics"],
        "objects": {o: [o] for o in FIG1["semantics"]["objects"]},
        "morphisms": {
            m["name"]: f"gen({m['name']})" for m in FIG1["semantics"]["morphisms"]
        },
    },
}

#: Commands that read several documents; every ``*.json`` argument is a
#: document, taken from ``WRITTEN_DOCUMENTS`` or the fixtures.
MULTI_DOCUMENT_COMMANDS = {
    **{
        f"identify-{kind}": ["identify", "fig5a.json", "--witness", f"witness-fig5a-{kind}.json"]
        for kind in ("places", "transitions")
    },
    **{
        f"sync-{recipe}": ["sync", "fig1.json", "--recipe", f"recipe-{recipe}.json"]
        for recipe in ("gk", "gk-prune")
    },
    "coproduct": ["coproduct", "fig8a-left.json", "fig8a-right.json"],
    "compose": ["compose", "fig8a-left.json", "fig8a-right.json", "--pair", "C=C"],
    "pushout": ["pushout", "fig8a-left.json", "fig8a-right.json", "--witness",
                "witness-o.json", "--l", "o-to-left-C.json", "--r", "o-to-right-C.json"],
    "check-functor": ["check-functor", "fig1-identity.json", "--src", "fig1.json",
                      "--tgt", "fig1.json", "--faithful-bound", "2"],
    "transport": ["transport", "fig1.json", "--functor", "fig1-semantics-identity.json"],
}


class TestMutatedMultiDocumentCommands:
    """The same mutations, spread over every document a command reads:
    each run ends in exit 0, 1 or 2, never a traceback, and every net a
    run accepts and prints is canonical."""

    @pytest.mark.parametrize("command", sorted(MULTI_DOCUMENT_COMMANDS))
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_command_ends_cleanly(self, tmp_path_factory, command, data):
        argv = MULTI_DOCUMENT_COMMANDS[command]
        docs = copy.deepcopy({
            arg: WRITTEN_DOCUMENTS.get(arg) or json.loads((FIXTURES / arg).read_text())
            for arg in argv
            if arg.endswith(".json")
        })
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from(sorted(docs)))
            docs[name] = _mutate(docs[name], data)
        work = tmp_path_factory.mktemp("mutated")
        for name, doc in docs.items():
            (work / name).write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([str(work / arg) if arg in docs else arg for arg in argv])
        assert code in (0, 1, 2)
        if code == 0 and command != "check-functor":
            text = out.getvalue()
            assert serialize_net(parse_net(text)) == text


class TestRandomDocumentRoundTrip:
    def test_serialize_parse_stable_on_random_nets(self):
        import random

        from petriglue import NetWithSemantics, TerminalFold, free_smc
        from support import random_net

        rng = random.Random(67)
        for _ in range(40):
            n = random_net(rng)
            nws = NetWithSemantics(n, TerminalFold(free_smc(n)))
            text = serialize_net(nws)
            again = parse_net(text)
            assert again.net == n
            assert serialize_net(again) == text


class TestComposedResultRoundTrips:
    """Operation outputs carry perms, primes and quotient folds; all of
    them must survive serialization."""

    def test_boundary_composition_output(self):
        from petriglue import boundary_compose
        from support import fig8a_nets

        left, right = fig8a_nets()
        result = boundary_compose(left, right, [("C", "C")])
        text = serialize_net(result.net)
        assert serialize_net(parse_net(text)) == text

    def test_coproduct_output_with_primed_names(self):
        from petriglue import monoidal_product
        from support import fig8a_nets

        left, right = fig8a_nets()
        product, _, _ = monoidal_product(left, right)
        text = serialize_net(product)
        assert "C'" in text
        assert serialize_net(parse_net(text)) == text

    def test_identification_output(self):
        from petriglue import PetriNet, Witness, identify
        from support import fig5a_nws, o_n_witness_functor

        fig5 = fig5a_nws()
        witness_net = PetriNet(("o",), ())
        witness = Witness(
            witness_net,
            o_n_witness_functor(witness_net, fig5.presentation, {"o": "C1"}),
            o_n_witness_functor(witness_net, fig5.presentation, {"o": "C2"}),
        )
        merged, _ = identify(fig5, witness)
        text = serialize_net(merged)
        assert serialize_net(parse_net(text)) == text


def _dumps(doc) -> str:
    """The canonical form the writer must reproduce byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _holds_only_document_values(value) -> bool:
    if isinstance(value, dict):
        return all(
            type(key) is str and _holds_only_document_values(v) for key, v in value.items()
        )
    if isinstance(value, list):
        return all(map(_holds_only_document_values, value))
    return type(value) in (str, int)


# Letters that json.dumps escapes in every way it can: quotes, backslashes,
# control characters, non-ASCII letters, astral ones (a surrogate pair) and
# a lone surrogate.
_LETTERS = 'aZ0 "\\/\b\f\n\r\t\x00\x1f\x7f\x80é中\u2028\ufeff\U0001f600\ud800'


def _random_document(rng, depth: int = 0):
    kind = rng.choice("sild" if depth < 6 else "si")
    if kind == "s":
        return _random_text(rng, 6)
    if kind == "i":
        return rng.choice((0, 1, -1, 2**31, -(2**63), 10**30, rng.randint(-999, 999)))
    if kind == "l":
        return [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {_random_text(rng, 3): _random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _random_text(rng, most: int) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(0, most)))


class TestCanonicalWriter:
    """The document writer against ``json.dumps(doc, sort_keys=True,
    indent=2)``: byte-identical on everything a document may hold, and a
    ``ValidationError`` on anything else."""

    def test_every_fixture(self):
        for path in sorted(FIXTURES.glob("*.json")):
            doc = json.loads(path.read_text())
            if _holds_only_document_values(doc):
                assert _document_text(doc) == _dumps(doc), path.name
            else:  # a recipe's "prune" flag is a bool
                with pytest.raises(ValidationError):
                    _document_text(doc)
            if "transitions" in doc and "semantics" in doc:
                text = serialize_net(parse_net(path.read_text()))
                assert text == _dumps(json.loads(text)) + "\n"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_benchmark_glue_output(self, seed, tmp_path):
        """Every output of the benchmark's glue commands for this seed."""
        saved = list(sys.path)
        sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
        try:
            import gen
        finally:
            sys.path[:] = saved
        out = tmp_path / "out.json"
        specs = gen.glue_inputs(seed)
        for spec in specs:
            for name, doc in spec["files"].items():
                (tmp_path / name).write_text(json.dumps(doc))
            argv = [str(tmp_path / a) if a in spec["files"] else a for a in spec["argv"]]
            assert main(argv + ["--out", str(out)]) == 0
            text = out.read_text()
            assert text == _dumps(json.loads(text)) + "\n"
        assert len(specs) >= 300

    def test_random_documents(self):
        import random

        rng = random.Random(71)
        seen = set()
        for _ in range(1500):
            doc = _random_document(rng)
            assert _document_text(doc) == _dumps(doc)
            seen.add(type(doc).__name__ + ("-empty" if doc in ([], {}, "") else ""))
        assert {"dict", "list", "dict-empty", "list-empty", "str", "int"} <= seen

    def test_deep_nesting(self):
        doc: object = "leaf"
        for i in range(300):
            doc = [doc, i] if i % 2 else {"k\u00e9": doc, "": []}
        assert _document_text(doc) == _dumps(doc)

    @pytest.mark.parametrize(
        "value",
        [1.0, True, False, None, ("a",), {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {True: 1},
         {"a": [1, 2.5]}, [{"b": {"c": None}}]],
        ids=repr,
    )
    def test_other_values_rejected(self, value):
        with pytest.raises(ValidationError):
            _document_text(value)
