"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
``test_*.py``): the smoke runs start interpreters and take about a minute.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import orders  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = run.SPEC


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = json.dumps(gen.generate(workload, 7))
    assert first == json.dumps(gen.generate(workload, 7))
    if workload != "sweep":
        assert first != json.dumps(gen.generate(workload, 8))


def test_metric_and_workload_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m["name"]


@pytest.fixture
def tiny(monkeypatch):
    """Every kind of op once, with the large bands shrunk."""
    monkeypatch.setattr(gen, "SWEEP", (("fixedpoints", 4), ("corollary", 4),
                                       ("lemma51", 3), ("shift", 1)))
    monkeypatch.setattr(gen, "DOCUMENT_MIX", {k: 1 for k in gen.DOCUMENT_MIX})
    monkeypatch.setattr(gen, "BIG_LATTICE", gen.MID_LATTICE)
    monkeypatch.setattr(gen, "BIG_POSET", (60, 80))
    monkeypatch.setattr(gen, "DIMENSION_MIX", {"light": (4, 20_000, 60_000),
                                               "medium": (1, 400_000, 800_000)})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_smoke_run_passes_every_check(tiny, workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    detail, summary = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    assert detail["failures"] == []
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(summary["metrics"]) == names
    if workload == "dimension":
        assert detail["reference_checked"] is False  # answers are stored for full-size rows only
    if trace:
        assert summary["metrics"]["trace_overhead"]["value"] > 0
        assert Path(detail["spans"]).is_file()
    else:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def _cli(argv, doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    import worker
    return worker.run_cli([str(path) if a == "@doc" else a for a in argv])


@functools.cache
def _documents():
    return json.dumps(gen.generate("documents", 1))


def _first(kind):
    return next(op for op in json.loads(_documents()) if op["kind"] == kind)


@pytest.mark.parametrize("kind,spoil", [
    ("primes", lambda e: e["ideals"].pop()),
    ("spec", lambda e: e["space"].reverse()),
    ("downsets", lambda e: e["down_sets"].pop()),
    ("phi_lattice_mid", lambda e: e.update(size=e["size"] + 1)),
    ("phi_poset", lambda e: e["pairs"].reverse()),
    ("dot_small", lambda e: e["edges"].append([0, 0])),
    ("check_poset", lambda e: e.update(size=e["size"] + 1)),
    ("cycle", lambda e: e.update(exit=2)),
    ("not_distributive", lambda e: e.update(verdict="valid lattice")),
])
def test_a_wrong_expected_value_fails(tmp_path, kind, spoil):
    op = _first(kind)
    res = _cli(op["argv"], op.get("doc"), tmp_path)
    assert checks.check_document(op, res) == []
    spoil(op["expect"])
    assert checks.check_document(op, res) != []


def test_a_wrong_triple_and_a_wrong_iso_fail(tmp_path):
    op = _first("not_distributive")
    res = _cli(op["argv"], op["doc"], tmp_path)
    report = json.loads(res["out"])
    a, b, c = report["result"]["witness"]
    report["result"]["witness"] = [a, a, a]  # a ^ (a v a) = (a ^ a) v (a ^ a)
    assert "triple_violates_distributivity" in checks.check_document(
        op, dict(res, out=json.dumps(report)))

    op = _first("image_yes")
    res = _cli(op["argv"], op["doc"], tmp_path)
    report = json.loads(res["out"])
    iso = report["result"]["iso"]
    iso[0][1], iso[-1][1] = iso[-1][1], iso[0][1]
    assert "image_iso" in checks.check_document(op, dict(res, out=json.dumps(report)))


def test_wrong_dimension_and_sweep_answers_fail():
    row = gen.generate("dimension", 1)[0]
    good = {"rel_size": row["rel_size"], "dim": 2, "dim_rel": 2,
            "width": row["width"], "width_rel": row["width_rel"]}
    assert checks.check_row(row, good, [2, 2]) == []
    assert checks.check_row(row, good, [2, 3]) == ["reference_answer"]
    assert "width" in checks.check_row(row, dict(good, width=row["width"] + 1))
    assert "class_counts_A000112" in checks.check_sweep_totals([1, 2, 5, 15], [])
    assert checks.check_sweep_totals([1, 2, 5, 16], [[3, 2]]) == [
        "fixedpoint_hits_are_antichains"]


def test_reference_applies_only_to_the_inputs_it_was_recorded_for():
    ops = gen.generate("dimension", 1)
    assert len(run.reference_for("dimension", 1, ops)) == len(ops)
    assert run.reference_for("dimension", 1, ops[1:]) is None
    assert run.reference_for("dimension", 2, ops) is None


def test_scaling_follows_the_samples_near_each_op():
    nominal = calibrate.NOMINAL_S
    # the machine runs at half speed until t = 1 s, then at full speed
    cal = [(t / 10, 2 * nominal if t < 10 else nominal) for t in range(20)]
    p = {"calibration": cal, "starts_s": [0.3, 1.5], "latencies_ms": [20.0, 10.0]}
    assert run.scaled_latencies(p) == pytest.approx([10.0, 10.0])
    # an op far from every sample takes the nearest one
    far = {"calibration": [(0.0, 2 * nominal)], "starts_s": [5.0], "latencies_ms": [8.0]}
    assert run.scaled_latencies(far) == pytest.approx([4.0])


def test_pauses_come_out_of_the_innermost_span():
    tr = Tracer()
    tr.names = ["outer", "inner"]
    for nid, start, end, parent in [(0, 0, 100, -1), (1, 10, 40, 0), (1, 60, 70, 0)]:
        tr.name_id.append(nid)
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
    tr.pauses = [(20, 25), (45, 55), (200, 210)]
    assert tr.self_ns() == [100 - 30 - 10 - 10, 30 - 5, 10]


def test_orders_helpers_agree_on_a_small_case():
    X = orders.closure(3, [(0, 2), (1, 2)])  # V shape upside down
    assert orders.down_sets(X) == [0, 1, 2, 3, 7]
    assert orders.linear_extension_count(X) == 2
    assert orders.width(X) == 2
    assert orders.covers(X) == [(0, 2), (1, 2)]
    assert len(orders.down_sets(orders.product_with_two(X))) == len(
        gen.relation_order(orders.inclusion_order(orders.down_sets(X)))[0])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
