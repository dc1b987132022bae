"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the workload, the generated inputs file, the directory holding
the documents, whether to trace, and where to write spans.  The pass times
each op, with reference samples (``calibrate``) taken every CAL_EVERY_S all
through the ops and their time left out of the op's, then checks every
outcome after the last op, so checking is not timed or traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import ordlat.cli
from ordlat import poset, relation

import calibrate
import checks
import gen
import layers
from tracing import Tracer

# a reference sample (about 5 ms) this often while the ops run
CAL_EVERY_S = 0.1


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ordlat.cli.main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def run_row(P) -> dict:
    """One dimtable row, as relation.dimension_report computes it."""
    RP, _ = relation.relation_poset(P)
    cap = gen.MAX_DIM_SIZE
    return {
        "rel_size": RP.n,
        "dim": poset.order_dimension(P, cap=cap) if P.n <= cap else None,
        "dim_rel": poset.order_dimension(RP, cap=cap) if RP.n <= cap else None,
        "width": poset.width(P),
        "width_rel": poset.width(RP),
    }


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(spec["inputs"], encoding="utf-8") as fh:
        ops = json.load(fh)
    workload = spec["workload"]
    if workload == "dimension":
        calls = [(run_row, poset.Poset(r["size"], tuple(r["up"]),
                                       tuple(str(i) for i in range(r["size"]))))
                 for r in ops]
    else:
        calls = [(run_cli, [os.path.join(spec["docdir"], f"{k}.json") if a == "@doc" else a
                            for a in op["argv"]])
                 for k, op in enumerate(ops)]

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    outcomes, starts, latencies = [], [], []
    first = time.perf_counter()
    cal, paused = [], [0.0]

    def take_sample(*_):
        """A reference sample; from SIGALRM, between two bytecodes of
        whatever op is running.  Its time is taken out of that op's."""
        t0 = time.perf_counter_ns()
        took = calibrate.sample()
        t1 = time.perf_counter_ns()
        cal.append((t0 / 1e9 - first, took))
        paused[0] += (t1 - t0) / 1e9
        if tracer:
            tracer.pauses.append((t0, t1))

    calibrate.sample()  # warm-up, not a sample
    take_sample()
    signal.signal(signal.SIGALRM, take_sample)
    signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
    for k, (fn, arg) in enumerate(calls):
        if tracer:
            tracer.current_op = k
        p0 = paused[0]
        t0 = time.perf_counter()
        try:
            res = fn(arg)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = {"raised": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        starts.append(t0 - first)
        latencies.append((t1 - t0 - (paused[0] - p0)) * 1000)
        outcomes.append(res)
    signal.setitimer(signal.ITIMER_REAL, 0)
    take_sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = spec.get("reference")
    failures = {}
    for k, (op, res) in enumerate(zip(ops, outcomes)):
        try:
            if "raised" in res:
                names = ["raised " + res["raised"]]
            elif workload == "dimension":
                names = checks.check_row(op, res, reference[k] if reference else None)
            elif workload == "sweep":
                names = checks.check_sweep(op, res)
            else:
                names = checks.check_document(op, res)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            names = [f"report_shape {type(exc).__name__}: {exc}"]
        if names:
            failures[k] = names
    if workload == "sweep":
        # charged to the fixedpoints op, whose hits these are
        totals_failed = checks.check_sweep_totals(*sweep_totals(ops, outcomes))
        if totals_failed:
            k = next(k for k, op in enumerate(ops) if op["kind"] == "fixedpoints")
            failures[k] = failures.get(k, []) + totals_failed

    result = {
        "wall_s": sum(latencies) / 1000,
        "starts_s": starts,
        "latencies_ms": latencies,
        "calibration": cal,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "answers": [[r.get("dim"), r.get("dim_rel")] for r in outcomes]
        if workload == "dimension" else None,
        "bytes_out": sum(len(r.get("out", "").encode()) for r in outcomes),
    }
    if tracer:
        result["layers"] = layers.per_layer(tracer, outcomes, result["bytes_out"])
        if spec.get("spans"):
            tracer.write(spec["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def sweep_totals(ops: list[dict], outcomes: list[dict]) -> tuple[list[int], list[list[int]]]:
    """Class counts for n = 1..n_max and the orders behind the `posets`
    fixed-point hits, read from the (now cached) enumeration."""
    n_max = max(op["expect"]["n_max"] for op in ops if op["kind"] != "shift")
    classes = [len(poset.enumerate_posets(n)) for n in range(1, n_max + 1)]
    rows = []
    for res in outcomes:
        try:
            hits = json.loads(res["out"])["result"]["modes"]["posets"]["hits"]
        except (KeyError, TypeError, ValueError):
            continue  # not the fixedpoints report, or a broken one (checked per op)
        for hit in hits:
            size, idx = hit[1:].split("#")
            rows.append(list(poset.enumerate_posets(int(size))[int(idx)].up))
    return classes, rows


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
