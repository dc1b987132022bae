"""Paired benchmark runs of two source trees, summarised as BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload documents [sweep ...] --seeds 111 112 ... --out BENCH_n.json

For each workload and seed, runs ``perfbench/run.py`` once in each tree
(untraced, ``run_seconds`` from the change's BENCHMARK.json), alternating
which tree goes first.  For every end-to-end metric it writes each side's
values, median and quartiles, how many pairs the change won (ties count for
neither), whether the change's median stays within the metric's bound, and
whether the gain rule holds: every run on both sides correct, wins in at
least nine tenths of the pairs and medians further apart than the parent's
q1-q3 spread.  Failed and attempted op counts, and whether every run passed
the benchmark's own checks, are kept per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarise(spec: dict, runs: dict[str, list[dict]]) -> dict:
    correct = {s: all(r["correct"] for r in runs[s]) for s in SIDES}
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gained = change["median"] - parent["median"]
        if lower:
            gained = -gained
        limit = parent["median"] * (1 + m["bound"] if lower else 1 - m["bound"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": dict(parent, values=values["parent"]),
            "change": dict(change, values=values["change"]),
            "wins": wins,
            "within_bound": (change["median"] <= limit if lower
                             else change["median"] >= limit),
            "gain": (all(correct.values())
                     and wins >= 0.9 * len(values["parent"])
                     and gained > parent["q3"] - parent["q1"]),
        }
    return {
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "correct": correct,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {s: [] for s in SIDES}
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(bench(tree, workload, seed, seconds))
            print(workload, seed, {s: runs[s][-1]["metrics"]["wall_s"]["value"]
                                   for s in SIDES}, flush=True)
        out["workloads"][workload] = dict(
            summarise(spec, runs), first=[
                SIDES[k % 2] for k in range(len(args.seeds))])
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
