"""Benchmark of petriglue on three in-process workloads.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  One process runs one workload as a closed loop: a single caller
starts each operation when the previous one has returned.  A pass is the
workload's fixed list of operations, generated from ``--seed``; the run
repeats whole passes until the operations have taken ``--seconds`` and at
least 100 of them have completed, so every run times the same mix.
Every output is checked against an answer computed apart from the
program (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, and with ``--trace 1`` the per-layer metrics of a run
whose spans (``spans.py``) are written to ``perfbench/out/``.  The exit
code is 1 when any check failed, after that line has been printed.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_TIMED_OPS = 100
SETUP_REPEATS = 8  # before the timed loop, and as many again after it

sys.path[:0] = [str(SRC), str(HERE)]
import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


class Op:
    """One operation: ``run`` returns a result that ``check`` judges.

    ``kind`` groups operations for the per-kind percentiles on standard
    error.  ``fails_with`` names the exception of an operation that fails
    every time because of a known fault; it is counted as failed, not
    wrong.
    """

    __slots__ = ("kind", "run", "check", "fails_with")

    def __init__(self, kind, run, check, fails_with=None) -> None:
        self.kind = kind
        self.run = run
        self.check = check
        self.fails_with = fails_with


def import_program():
    """Import petriglue from the checkout's ``src/``."""
    pg = importlib.import_module("petriglue")
    if Path(pg.__file__).resolve().parent != SRC / "petriglue":
        raise ImportError(f"petriglue was imported from {pg.__file__}, not from {SRC}")
    return pg


# Times ``import petriglue`` in a fresh interpreter, so that every module
# the package pulls in, its own or not, is loaded inside the timed region.
_IMPORT_TIMER = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import petriglue
print(perf_counter() - t0, petriglue.__file__)
"""


def time_cold_import() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != SRC / "petriglue":
        raise ImportError(f"petriglue was imported from {path.strip()}, not from {SRC}")
    return float(seconds)


# ---------------------------------------------------------------------------
# compose


def _presentation(pg, spec: dict):
    return pg.SmcPresentation(
        tuple(spec["objects"]),
        tuple(pg.MorphismGenerator(n, tuple(d), tuple(c)) for n, d, c in spec["morphisms"]),
    )


def _net_with_semantics(pg, net: dict, semantics):
    petri = pg.PetriNet(
        tuple(net["places"]),
        tuple(
            pg.Transition(n, pg.Multiset.from_counts(pre), pg.Multiset.from_counts(post))
            for n, pre, post in net["transitions"]
        ),
    )
    fold = pg.FreeFold(
        pg.StrictFunctor(
            pg.free_smc(petri),
            semantics,
            {p: (p,) for p in net["places"]},
            {n: pg.Gen(n) for n, _, _ in net["transitions"]},
        )
    )
    return pg.NetWithSemantics(petri, fold)


def _composition_data(result):
    vectors = {place: dict(counts) for place, counts in result.firing_vectors}
    net = result.net.net
    transitions = [(t.name, t.pre.to_dict(), t.post.to_dict()) for t in net.transitions]
    return vectors, list(net.places), transitions


def compose_ops(pg, specs: list[dict]) -> list[Op]:
    gluing = pg.gluing
    ops = []
    for spec in specs:
        semantics = _presentation(pg, spec["semantics"])
        left = _net_with_semantics(pg, spec["left"], semantics)
        right = _net_with_semantics(pg, spec["right"], semantics)
        pairing = [tuple(p) for p in spec["pairing"]]

        def run(left=left, right=right, pairing=pairing):
            return gluing.boundary_compose(left, right, pairing, gen.COMPOSE_BOUND)

        def check(result, spec=spec):
            vectors, places, transitions = _composition_data(result)
            problems = checks.check_composition(spec, vectors, places, transitions)
            if spec["pairing"] == [("C", "C")]:
                problems += checks.check_fig8a(vectors, transitions)
            return problems

        ops.append(Op("fig8a" if spec["pairing"] == [("C", "C")] else "pair", run, check))
    return ops


# ---------------------------------------------------------------------------
# terms


def terms_ops(pg, specs: list[dict]) -> list[Op]:
    cli_io, fssmc = pg.cli_io, pg.fssmc
    sig = _presentation(pg, gen.term_presentation())
    ops = []
    for spec in specs:
        def run(left=spec["left"], right=spec["right"]):
            return fssmc.terms_equal(cli_io.parse_term(left), cli_io.parse_term(right), sig)

        ops.append(Op(spec["kind"], run,
                      lambda verdict, equal=spec["equal"]: checks.check_verdict(verdict, equal)))

    def deep_chain():
        chain = fssmc.compose_terms([pg.Gen("g0")] * gen.DEEP_CHAIN)
        return fssmc.to_diagram(chain, sig)

    def check_deep(diagram):
        if len(diagram.boxes) != gen.DEEP_CHAIN:
            return [f"deep chain has {len(diagram.boxes)} boxes, not {gen.DEEP_CHAIN}"]
        return []

    # Fails with RecursionError today: typecheck and _build recurse once
    # per nesting level.
    ops.append(Op("deep-chain", deep_chain, check_deep, fails_with=RecursionError))
    return ops


# ---------------------------------------------------------------------------
# glue


def glue_ops(pg, specs: list[dict], work: Path) -> tuple[list[Op], dict[Path, str]]:
    """The ops, and the documents they read: file path to text.

    Each command writes ``--out`` to a new file, which its check removes.
    """
    cli_io = pg.cli_io
    out = work / "out.json"
    ops = []
    files = {}
    for spec in specs:
        for name, doc in spec["files"].items():
            files[work / name] = json.dumps(doc)
        argv = [str(work / a) if a in spec["files"] else a for a in spec["argv"]]
        argv += ["--out", str(out)]

        def run(argv=argv):
            return cli_io.main(argv)

        def check(code, expected=spec["expected"]):
            if code != 0:
                return [f"exit code {code}"]
            text = out.read_text(encoding="utf-8")
            out.unlink()
            problems = checks.check_net(json.loads(text), expected)
            if cli_io.serialize_net(cli_io.parse_net(text)) != text:
                problems.append("output does not re-serialize byte-identically")
            return problems

        ops.append(Op(spec["kind"], run, check))
    return ops, files


def write_files(files: dict[Path, str]) -> None:
    """Write the glue documents into an emptied work directory."""
    if not files:
        return
    shutil.rmtree(OUT / "glue", ignore_errors=True)
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Harness


WORKLOADS = ("compose", "terms", "glue")


def make_specs(workload: str, seed: int) -> list[dict]:
    if workload == "compose":
        return gen.compose_inputs(seed)
    if workload == "terms":
        return gen.terms_inputs(seed)
    specs = gen.glue_inputs(seed)
    for spec in specs:
        spec["expected"] = checks.EXPECTED_NET[spec["kind"]](spec["spec"])
    return specs


def build_ops(pg, workload: str, specs: list[dict]) -> tuple[list[Op], dict[Path, str]]:
    if workload == "compose":
        return compose_ops(pg, specs), {}
    if workload == "terms":
        return terms_ops(pg, specs), {}
    return glue_ops(pg, specs, OUT / "glue")


def set_up(
    pg, workload: str, specs: list[dict], repeats: int
) -> tuple[list[Op], dict[Path, str], list[float]]:
    """Set up several times; keep the last ops and the files they read.

    One set-up is a cold import of petriglue, timed in a fresh
    interpreter, plus building the ops from the generated inputs.
    Writing the glue documents to disk is left out of the time: it runs
    no petriglue code, and it varied two- to three-fold between repeats
    on a 2-vCPU virtual machine.
    """
    times = []
    for _ in range(repeats):
        import_s = time_cold_import()
        t0 = perf_counter()
        ops, files = build_ops(pg, workload, specs)
        times.append(import_s + perf_counter() - t0)
    return ops, files, times


def measure(ops: list[Op], seconds: float, tracer: spans.Tracer | None) -> dict:
    samples: list[float] = []
    problems: list[str] = []
    attempted = failed = passes = 0
    busy = 0.0
    by_kind: dict[str, list[float]] = defaultdict(list)
    while passes == 0 or busy < seconds or 0 < len(samples) < MIN_TIMED_OPS:
        for op in ops:
            if tracer is not None:
                tracer.begin(attempted)
            attempted += 1
            error = None
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # judged below, outside the timed region
                error = exc
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.finish()
            busy += elapsed
            if error is not None:
                failed += 1
                if op.fails_with is None or not isinstance(error, op.fails_with):
                    problems.append("".join(traceback.format_exception(error)))
                continue
            samples.append(elapsed)
            by_kind[op.kind].append(elapsed)
            problems.extend(op.check(result))
        passes += 1
    return {
        "samples": samples,
        "by_kind": by_kind,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "busy": busy,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "petriglue" / "__init__.py").is_file():
        print(f"error: no petriglue source under {SRC}", file=sys.stderr)
        return 2
    specs = make_specs(args.workload, args.seed)
    pg = import_program()
    ops, files, setup_times = set_up(pg, args.workload, specs, SETUP_REPEATS)
    write_files(files)
    gc.collect()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    run = measure(ops, args.seconds, tracer)
    del ops
    if tracer is None:
        # Set-up time drifts with the machine's load; sampling it again
        # after the run keeps one slow moment from setting the median.
        setup_times += set_up(pg, args.workload, specs, SETUP_REPEATS)[2]

    samples = run["samples"]
    if not samples:
        print("error: no operation completed", file=sys.stderr)
        return 1
    ops_per_s = len(samples) / run["busy"]
    if tracer is None:
        values = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "op_p90_ms": (statistics.quantiles(samples, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.tsv.gz")
        units = {name: unit for name, unit, _ in spans.metric_names()}
        values = {
            name: (value, units[name])
            for name, value in spans.layer_metrics(tracer, run["passes"]).items()
        }
        values["traced.ops_per_s"] = (ops_per_s, "1/s")

    for problem in run["problems"][:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {run['passes']} passes, "
        f"{run['attempted']} ops, {run['failed']} failed, {len(samples)} timed, "
        f"{run['busy']:.1f} s busy, {len(run['problems'])} problems",
        file=sys.stderr,
    )
    for kind, times in sorted(run["by_kind"].items()):
        p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
        print(
            f"  {kind:20s} {len(times):5d} timed  p50 {statistics.median(times) * 1000:8.1f} ms"
            f"  p90 {p90 * 1000:8.1f} ms",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": not run["problems"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 1 if run["problems"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
