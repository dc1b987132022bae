"""Record this commit's numbers: every workload on seeds 1..10, untraced, in
two sets made one after the other, plus one traced run per workload.

    python3 perfbench/record.py

Each run measures for ``run_seconds`` from BENCHMARK.json.  Writes
``baseline.json``: per workload and metric, each set's ten values, median,
quartiles by ``statistics.quantiles(values, n=4)`` and spread
(q3 - q1) / median, and the change of the second set's median against the
first's; the traced run's per-layer metrics; the environment.  Also writes
``reference.json``: the dimension workload's answers for these seeds, with a
digest of the inputs they were computed for, which later runs on the same
inputs are checked against.  Takes about 45 minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

SEEDS = range(1, 11)
SECONDS = run.SPEC["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail, summary = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return detail, summary


def ten_runs(workload: str) -> dict:
    runs, elapsed = [], []
    for seed in SEEDS:
        t0 = time.monotonic()
        runs.append(bench(workload, seed, 0))
        elapsed.append(time.monotonic() - t0)
    metrics = {}
    for name in runs[0][1]["metrics"]:
        values = [s["metrics"][name]["value"] for _, s in runs]
        q = run.quartiles(values)
        metrics[name] = dict(q, values=values, spread=(q["q3"] - q["q1"]) / q["median"])
    return {"failed": sum(s["failed"] for _, s in runs),
            "attempted": sum(s["attempted"] for _, s in runs),
            "passes": [d["passes"] for d, _ in runs], "run_elapsed_s": elapsed,
            "end_to_end": metrics, "details": [d for d, _ in runs]}


def main() -> None:
    baseline = {"seconds": SECONDS, "seeds": list(SEEDS), "workloads": {}}
    reference = {}
    for workload in gen.WORKLOADS:
        first, repeat = ten_runs(workload), ten_runs(workload)
        traced_detail, traced = bench(workload, SEEDS[0], 1)
        details = first.pop("details")
        repeat.pop("details")
        baseline["environment"] = details[0]["environment"]
        change = {name: repeat["end_to_end"][name]["median"] / m["median"] - 1
                  for name, m in first["end_to_end"].items()}
        baseline["workloads"][workload] = dict(
            first, repeat=repeat, median_change=change,
            per_layer_seed1={k: v["value"] for k, v in traced["metrics"].items()},
            traced_run_end_to_end_seed1=traced_detail["end_to_end"])
        if workload == "dimension":
            reference = {str(d["seed"]): {"inputs_sha256": d["inputs_sha256"],
                                          "answers": d["answers"]} for d in details}
        print(workload,
              {k: round(v["spread"], 3) for k, v in first["end_to_end"].items()},
              {k: round(v["spread"], 3) for k, v in repeat["end_to_end"].items()},
              {k: round(v, 3) for k, v in change.items()}, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (HERE / "reference.json").write_text(json.dumps(reference) + "\n")


if __name__ == "__main__":
    main()
