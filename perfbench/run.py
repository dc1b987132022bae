"""The ordlat benchmark.

    python3 perfbench/run.py --workload {sweep,documents,dimension} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates its inputs from the seed, then alternates set-up
probes (a fresh interpreter importing ``ordlat.cli``) with whole passes of the
workload, each in a fresh interpreter, until S seconds are used.  Every op's
outcome is checked.  The second-to-last line of output is a detailed
report (per-pass numbers, quartiles, failures by name, environment); the last
line is the summary: end-to-end metrics with ``--trace 0``, per-layer metrics
from traced passes with ``--trace 1``.  End-to-end times are scaled to a
nominal machine speed by reference samples taken during the passes (see
``calibrate``).

Load model: closed loop, one caller, one op in flight, one single-threaded
process per pass, BLAS pinned to one thread, caches cold at the start of
every pass as for each ``ordlat`` command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES_PER_PASS = 3
PASS_TIMEOUT_S = 120
CAL_WINDOW_S = 0.15  # reference samples this close to an op scale its time

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import gen  # noqa: E402


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def setup_times(n: int) -> list[float]:
    """Seconds from starting a fresh interpreter to `import ordlat.cli` done,
    at nominal speed: each probe is scaled by the mean speed of reference
    samples taken in this process just before and just after it."""
    code = "import time, ordlat.cli; print(time.monotonic())"
    out = []
    for _ in range(n):
        before = [calibrate.sample() for _ in range(3)]
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True, timeout=60)
        took = float(done.stdout) - t0
        near = before + [calibrate.sample() for _ in range(3)]
        out.append(took * statistics.fmean(calibrate.NOMINAL_S / c for c in near))
    return out


def run_pass(workdir: Path, spec: dict, k: int) -> dict:
    spec_path, result_path = workdir / f"spec{k}.json", workdir / f"result{k}.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                   env=child_env(), check=True, timeout=PASS_TIMEOUT_S)
    return json.loads(result_path.read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten ops
    beyond it, by nearest rank; the maximum when there are ten ops or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "system": platform.system()}


def write_inputs(workdir: Path, ops: list[dict]) -> None:
    docdir = workdir / "docs"
    docdir.mkdir()
    for k, op in enumerate(ops):
        if "doc" in op:
            (docdir / f"{k}.json").write_text(json.dumps(op["doc"]))
        elif "text" in op:
            (docdir / f"{k}.json").write_text(op["text"])
    (workdir / "inputs.json").write_text(json.dumps(ops))


def digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


def reference_for(workload: str, seed: int, ops: list[dict]):
    """The stored dimension answers for this seed, if they were recorded for
    exactly these inputs; None otherwise."""
    path = HERE / "reference.json"
    if workload != "dimension" or not path.is_file():
        return None
    stored = json.loads(path.read_text()).get(str(seed))
    if stored is None or stored["inputs_sha256"] != digest(ops):
        return None
    return stored["answers"]


def measure(args, workdir: Path) -> dict:
    """Setup probes and passes, interleaved until the time is used.

    On shared hosts the CPU speed drifts by a quarter within seconds, so
    samples are spread over the whole run and every figure is a median over
    them."""
    ops = gen.generate(args.workload, args.seed)
    write_inputs(workdir, ops)
    setup_times(1)  # writes the bytecode cache; not a sample
    spec = {"workload": args.workload, "inputs": str(workdir / "inputs.json"),
            "docdir": str(workdir / "docs"), "trace": False,
            "reference": reference_for(args.workload, args.seed, ops)}
    spans = WORK / f"spans-{args.workload}-{args.seed}.tsv"
    setup, passes = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        started = time.monotonic()
        setup += setup_times(SETUP_PROBES_PER_PASS)
        res = run_pass(workdir, dict(spec, trace=traced, spans=str(spans)), len(passes))
        res["traced"] = traced
        passes.append(res)
        took = time.monotonic() - started
        enough = not args.trace or any(p["traced"] for p in passes)
        if enough and time.monotonic() + took > deadline:
            break
    return {"ops": ops, "setup": setup, "passes": passes, "spans": str(spans),
            "reference_checked": spec["reference"] is not None}


def scaled_latencies(p: dict) -> list[float]:
    """Each op's latency (ms) at nominal speed: scaled by the mean speed of
    the pass's reference samples taken within CAL_WINDOW_S of the op, or of
    the nearest one when none is that close."""
    cal = p["calibration"]
    out = []
    for start, ms in zip(p["starts_s"], p["latencies_ms"]):
        lo, hi = start - CAL_WINDOW_S, start + ms / 1000 + CAL_WINDOW_S
        near = [took for t, took in cal if lo <= t <= hi]
        if not near:
            near = [min(cal, key=lambda c: abs(c[0] - start))[1]]
        out.append(ms * statistics.fmean(calibrate.NOMINAL_S / took for took in near))
    return out


def typical_pass(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each op's median latency (ms) over the passes."""
    lat = [scaled_latencies(p) if scaled else p["latencies_ms"] for p in passes]
    return [statistics.median(x[k] for x in lat) for k in range(len(lat[0]))]


def summarize(args, m: dict) -> tuple[dict, dict]:
    """Times are at nominal speed (see calibrate).  wall_s is the sum of the
    ops' median latencies: a pass's wall time from first op to last, less the
    time between ops, with interference that hit one pass discounted.  The
    detail keeps the raw times and the speed the reference samples saw."""
    ops, passes = m["ops"], m["passes"]
    plain = [p for p in passes if not p["traced"]]
    failures = [{"pass": i, "op": int(k), "kind": ops[int(k)]["kind"], "failed": names}
                for i, p in enumerate(passes) for k, names in p["failures"].items()]
    attempted = len(ops) * len(passes)
    per_op = typical_pass(plain)
    tail_pct, tail_ms = tail(per_op)
    raw_op = typical_pass(plain, scaled=False)
    values = {
        "pass_wall_s": [p["wall_s"] for p in plain],
        "speed": [calibrate.NOMINAL_S / took for p in plain for _, took in p["calibration"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "setup_s": m["setup"],
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "generation": gen.params(args.workload),
        "ops_per_pass": len(ops), "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "tail_percentile": tail_pct,
        "quartiles": {k: quartiles(v) for k, v in values.items()},
        "raw": {"wall_s": sum(raw_op) / 1000, "op_p50_ms": statistics.median(raw_op),
                "op_tail_ms": tail(raw_op)[1]},
        "failures": failures, "failed_ratio": len(failures) / attempted,
    }
    metrics = {
        "wall_s": sum(per_op) / 1000,
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(values["peak_rss_mb"]),
        "setup_s": statistics.median(m["setup"]),
    }
    if args.workload == "dimension":
        detail["answers"] = plain[0]["answers"]
        detail["inputs_sha256"] = digest(ops)
        detail["reference_checked"] = m["reference_checked"]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = {name: statistics.median(p["layers"][name] for p in traced)
                 for name in traced[0]["layers"]}
        layer["trace_overhead"] = sum(typical_pass(traced)) / 1000 / metrics["wall_s"]
        detail["spans"] = m["spans"]
        detail["end_to_end"] = metrics
        reported, kind = layer, "per_layer"
    else:
        reported, kind = metrics, "end_to_end"
    out = {d["name"]: {"value": reported[d["name"]], "unit": d["unit"]} for d in SPEC[kind]}
    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": out}
    return detail, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ordlat" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        detail, summary = summarize(args, measure(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
