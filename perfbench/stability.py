"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/stability.py run --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/stability.py run --seeds 1-10 --out perfbench/out/set-b.json
    python3 perfbench/stability.py compare perfbench/out/set-a.json perfbench/out/set-b.json

``run`` starts ``run.py`` once per workload and seed, one process at a
time, for ``run_seconds`` from ``BENCHMARK.json``, and stores every
result; it stops at the first run that exits non-zero, as one whose
checks fail does.  For each end-to-end metric it prints the median over
the seeds and the spread: the distance between the first and third
quartiles as a share of the median.  ``compare`` prints, per workload and
metric, how far the second set's median is worse than the first's,
against the metric's bound in ``BENCHMARK.json``, and whether the two
sets failed the same share of operations.  It exits 1 if a metric
regressed past its bound, the shares differ, or any run was incorrect.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(args) -> int:
    spec = benchmark()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.setdefault(workload, []).append(result)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    report(results, spec)
    return 0


def report(results: dict[str, list[dict]], spec: dict) -> None:
    for workload, runs in results.items():
        bad = [r["seed"] for r in runs if not r["correct"]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, incorrect seeds {bad}, failed shares {sorted(shares)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs
                      if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            s = spread(values)
            flag = "" if s < metric["bound"] / 3 else "  WIDE"
            print(f"  {metric['name']:12s} median {statistics.median(values):10.4f} "
                  f"spread {s:.3f} (bound {metric['bound']}){flag}")


def compare(args) -> int:
    spec = benchmark()
    first = json.loads(Path(args.first).read_text(encoding="utf-8"))
    second = json.loads(Path(args.second).read_text(encoding="utf-8"))
    ok = True
    for workload in first:
        a_runs, b_runs = first[workload], second.get(workload, [])
        share_a = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        share_b = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        incorrect = sum(not r["correct"] for r in a_runs + b_runs)
        print(f"{workload}: failed share {share_a:.6f} vs {share_b:.6f}, "
              f"{incorrect} incorrect runs")
        ok &= share_a == share_b and incorrect == 0
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in a_runs)
            b = statistics.median(r["metrics"][name]["value"] for r in b_runs)
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            within = worse <= metric["bound"]
            ok &= within
            print(f"  {name:12s} {a:10.4f} -> {b:10.4f}  worse by {worse:+.3f} "
                  f"(bound {metric['bound']}) {'ok' if within else 'REGRESSED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args()
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
