"""Exit codes and stdout digests of the CLI on the fixture documents.

Each command runs in-process through ``cli_io.main``; its stdout must
hash to the SHA-256 recorded here, so any change to a canonical output,
however small, fails the suite.
"""
from __future__ import annotations

import hashlib

import pytest

from petriglue.cli_io import main
from support import FIXTURES

FIGURES = ("fig1", "fig5a", "fig8a-left", "fig8a-right")


def _doc(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


COMMANDS = {
    **{
        f"{command}-{fig}": [command, _doc(fig)]
        for command in ("validate", "freecat", "dot")
        for fig in FIGURES
    },
    **{
        f"identify-{kind}": ["identify", _doc("fig5a"), "--witness", _doc(f"witness-fig5a-{kind}")]
        for kind in ("places", "transitions")
    },
    **{
        f"sync-{recipe}": ["sync", _doc("fig1"), "--recipe", _doc(f"recipe-{recipe}")]
        for recipe in ("gh", "ghk", "gk", "gk-prune")
    },
    "coproduct-fig8a": ["coproduct", _doc("fig8a-left"), _doc("fig8a-right")],
    "coproduct-fig1-fig1": ["coproduct", _doc("fig1"), _doc("fig1")],
    "compose-fig8a": ["compose", _doc("fig8a-left"), _doc("fig8a-right"), "--pair", "C=C"],
}

DIGESTS = {
    "validate-fig1": "a89b205abf431074daa1a7a51468813cbdc9a577d9b3e0c450ab7af5ea8e3a59",
    "validate-fig5a": "b30b8f1e61b9533811dc47096f8cbfe22c94babaac05b16bbc9730064deefa8c",
    "validate-fig8a-left": "d22e8d20d2a0c4f81099568c36e93a99e4d3a3f615737d1ff1e153b01d711a3a",
    "validate-fig8a-right": "247fe5364941b8ad5ef42a96451eafe5b492e5fc595f326fc3bc5770e381a7e3",
    "freecat-fig1": "59510e0f0be6955b6624210c103e0e3fb57b94458a075c8285c85704e4be9cd5",
    "freecat-fig5a": "02ebb89ca1699544a175ef4a3e84b83e19e0c43c98d44a46ed87234a8855d570",
    "freecat-fig8a-left": "afa22dab965c95b22fdd13cbe6b75353c794dd905543f326fdd63b59263c311c",
    "freecat-fig8a-right": "2de949a2e6c41e5b5c53006d5db37771cf4a7cd2d6d237ddd5c2d841def256f1",
    "dot-fig1": "fd24bd74c4f0500fec6fd64c2966a923d6b50b87ab5ab813d6733e14af6cf2cf",
    "dot-fig5a": "f31d294ab66820bccf03282790d2015a9d0c3d5ae7c6e03881bb5a08484c28ea",
    "dot-fig8a-left": "1d83f84a0f9fbac98d6b8c6c8ff8bb83f3ad4344382d6ce3c14e7bd92ffa5389",
    "dot-fig8a-right": "04e46151ce07ee729a9cf60694ba2c9b4ef197393d01bb656a40e70c354133b5",
    "identify-places": "cb29f8521c09021a13fe5931cd3d17899d9f45ecb7c2db5aa0a9a32c1836e1e8",
    "identify-transitions": "a97047520e0ac94fe7cd6766ef626e7db7a2f09d8b6ac3638de736a26945c667",
    "sync-gh": "a8e7de77e4ddc26022b65b933adccb9c811dd05c2d74629d377c79c847fa5e40",
    "sync-ghk": "e5b1eb62911d7e755434783e89fe50f688b9bb287e72d8b5cc66a44b55a1bf60",
    "sync-gk": "cb0b26089479c0aafdf1f5c2e5a13b04d9034660dc500fec8a4725654011c6e9",
    "sync-gk-prune": "cd3be2a5a884cbefa8044ce65a21f21506697aa95272ce91c8139f4c7b46faf1",
    "coproduct-fig8a": "151dd8e2d6d095d7b9922678d00b475e88720df77eb8205b06932da109f4ad8d",
    "coproduct-fig1-fig1": "c5d9240fe680381366def575459c0a36aa821afff19dbc738df2794b3f0a8aba",
    "compose-fig8a": "c7dccfd0b234ce4078ddc4b6527a70a43c5243caa0e08d9b50826b49f81352ad",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fixture_command_output(name, capsys):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]


def test_every_command_is_pinned():
    assert sorted(COMMANDS) == sorted(DIGESTS)
    assert len(COMMANDS) == 21
