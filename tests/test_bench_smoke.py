"""The benchmark harness still drives the library.

``perfbench/run.py`` is loaded as it is and its seed-1 ops are built.
The first op of every kind is run and judged by the harness's own
check, so a change to the library's API that the harness relies on
fails here.  Every compose op is judged too, so a boundary composition
that the harness's independent model disagrees with fails here as well.
"""
from __future__ import annotations

import importlib.util
import sys

import pytest

from support import FIXTURES

RUN_PY = FIXTURES.parent / "perfbench" / "run.py"

KINDS = {
    "compose": ("pair", "fig8a"),
    "terms": ("chain-equal", "chain-unequal", "tensor-equal", "tensor-unequal"),
    "glue": ("identify-places", "identify-transitions", "pushout", "coproduct"),
}


@pytest.fixture(scope="module")
def harness():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", sorted(KINDS))
def test_first_op_of_each_kind_passes_its_check(harness, workload, tmp_path):
    pg = harness.import_program()
    specs = harness.make_specs(workload, 1)
    if workload == "glue":
        ops, files = harness.glue_ops(pg, specs, tmp_path)
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
    else:
        ops, _ = harness.build_ops(pg, workload, specs)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    assert set(KINDS[workload]) <= set(first)
    for kind in KINDS[workload]:
        op = first[kind]
        assert op.check(op.run()) == [], kind


def test_every_compose_op_passes_its_check(harness):
    pg = harness.import_program()
    ops, _ = harness.build_ops(pg, "compose", harness.make_specs("compose", 1))
    assert {op.kind for op in ops} == {"pair", "fig8a"}
    assert len(ops) == 101
    for op in ops:
        assert op.check(op.run()) == [], op.kind
