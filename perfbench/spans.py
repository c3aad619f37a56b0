"""Spans around petriglue's public functions, recorded from outside.

:func:`install` replaces each listed function, in every petriglue module
that binds it, with a wrapper that records a span: name, start, end,
parent span and operation id.  Constructors and methods are wrapped on
their class.  A call a function makes to itself, directly or further
down, stays inside the outer span and is not counted again, so ``calls``
counts entries from other code.  Spans are kept in flat arrays and
written out by :meth:`Tracer.write` when the run ends.
"""
from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

MODULES = ("__init__", "cli_io", "fssmc", "functors", "gluing", "net_model", "semantics")

# (module, attribute, metrics) for every wrapped function.
FUNCTIONS = (
    ("cli_io", "main", ("self_ms",)),
    ("cli_io", "parse_net", ("self_ms",)),
    ("cli_io", "serialize_net", ("self_ms",)),
    ("cli_io", "parse_term", ("self_ms",)),
    ("fssmc", "typecheck", ("calls", "self_ms")),
    ("fssmc", "to_diagram", ("calls", "self_ms")),
    ("fssmc", "diagram_equal", ("calls", "self_ms", "equal_share")),
    ("functors", "check_faithful_bounded", ("calls", "self_ms", "sequences")),
    ("functors", "apply_functor", ("calls", "self_ms")),
    ("functors", "compose_functors", ("calls", "self_ms")),
    ("functors", "StrictFunctor", ("calls", "self_ms")),
    ("net_model", "free_smc", ("calls", "self_ms")),
    ("net_model", "SmcPresentation.morphism", ("calls", "self_ms")),
    ("semantics", "NetWithSemantics", ("calls", "self_ms")),
    ("gluing", "minimal_firing_vector", ("calls", "self_ms")),
    ("gluing", "synchronize_transitions", ("calls", "self_ms")),
    ("gluing", "boundary_compose", ("self_ms",)),
    ("gluing", "identify", ("self_ms",)),
    ("gluing", "merge_two_places", ("calls", "self_ms")),
    ("gluing", "coequalize_tp", ("calls", "self_ms")),
    ("gluing", "factor_fold_through_coequalizer", ("self_ms",)),
    ("gluing", "pushout_glue", ("self_ms",)),
    ("gluing", "monoidal_product", ("self_ms",)),
)

UNITS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "equal_share": ("ratio", "lower"),
    "sequences": ("count", "lower"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    return [
        (f"{module}.{attr}.{kind}", *UNITS[kind])
        for module, attr, kinds in FUNCTIONS
        for kind in kinds
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.inside: list[int] = []
        self.current_op = -1
        self.active = False
        self.equal_true = 0
        self.sequences = 0

    def begin(self, op: int) -> None:
        self.current_op = op
        self.stack.clear()
        self.inside = [0] * len(self.names)
        self.active = True

    def finish(self) -> None:
        self.active = False

    def wrap(self, name: str, fn, note=None):
        nid = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            if not self.active or self.inside[nid]:
                return fn(*args, **kwargs)
            self.inside[nid] = 1
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.stack.pop()
                self.inside[nid] = 0
            if note is not None:
                note(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per name, over every span recorded."""
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for sid, nid in enumerate(self.name):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_ms"] += (self.end[sid] - self.start[sid] - child[sid]) * 1000
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines, times in microseconds."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.names[self.name[sid]]}\t"
                    f"{(self.start[sid] - t0) * 1e6:.1f}\t{(self.end[sid] - t0) * 1e6:.1f}\t"
                    f"{self.parent[sid]}\t{self.op[sid]}\n"
                )


def _note_equal(tracer: Tracer, args, kwargs, result) -> None:
    tracer.equal_true += bool(result)


def _note_sequences(tracer: Tracer, args, kwargs, result) -> None:
    """Σ |gens|^n for n <= bound, computed from the call's inputs."""
    functor = args[0] if args else kwargs["functor"]
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    gens = len(functor.source.morphisms)
    tracer.sequences += sum(gens ** n for n in range(1, bound + 1))


NOTES = {"diagram_equal": _note_equal, "check_faithful_bounded": _note_sequences}


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS wherever petriglue binds it."""
    modules = [importlib.import_module(
        "petriglue" if m == "__init__" else f"petriglue.{m}") for m in MODULES]
    for module_name, attr, _ in FUNCTIONS:
        home = importlib.import_module(f"petriglue.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(home, attr)
        if isinstance(original, type):
            original.__init__ = tracer.wrap(name, original.__init__)
            continue
        wrapped = tracer.wrap(name, original, NOTES.get(attr))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Every per-layer metric, per pass of the workload's operations."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    for name, _, _ in metric_names():
        base, kind = name.rsplit(".", 1)
        if kind == "equal_share":
            calls = summary[base]["calls"]
            out[name] = tracer.equal_true / calls if calls else 0.0
        elif kind == "sequences":
            out[name] = tracer.sequences / passes
        else:
            out[name] = summary[base][kind] / passes
    return out
