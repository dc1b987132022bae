"""``tools/bench_pairs.summarise`` on synthetic runs: the gain rule (wins in
nine tenths of the pairs, medians further apart than the parent's q1-q3
spread, every run correct), the bound check and the per-side counts; and
the refusal of two trees that differ in compiled bytecode, which makes no
run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "t", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "r", "unit": "ops/s", "better": "higher", "bound": 0.1},
]}
# median 104.5, q1 101.75, q3 107.25: a spread of 5.5
PARENT = [100.0 + k for k in range(10)]


def runs(values, correct=None):
    correct = correct or [True] * len(values)
    return [{"metrics": {"t": {"value": v}, "r": {"value": v}},
             "failed": 0 if ok else 1, "attempted": 5, "correct": ok}
            for v, ok in zip(values, correct)]


def summary(change, correct=None):
    return bench_pairs.summarise(
        SPEC, {"parent": runs(PARENT), "change": runs(change, correct)})


def test_gain_needs_nine_tenths_of_the_pairs():
    nine = [p - 20 for p in PARENT]
    nine[0] = 130.0
    t = summary(nine)["metrics"]["t"]
    assert t["wins"] == 9 and t["gain"]
    assert t["parent"]["median"] == 104.5
    assert (t["parent"]["q1"], t["parent"]["q3"]) == pytest.approx((101.75, 107.25))
    eight = nine[:]
    eight[1] = 130.0
    t = summary(eight)["metrics"]["t"]
    assert t["wins"] == 8 and not t["gain"]


def test_gain_needs_medians_apart_by_more_than_the_parent_spread():
    t = summary([p - 5 for p in PARENT])["metrics"]["t"]
    assert t["wins"] == 10 and not t["gain"]
    t = summary([p - 6 for p in PARENT])["metrics"]["t"]
    assert t["wins"] == 10 and t["gain"]


def test_higher_is_better_turns_the_rule_and_the_bound_round():
    s = summary([p - 20 for p in PARENT])["metrics"]
    assert s["t"]["gain"] and s["t"]["within_bound"]
    assert s["r"]["wins"] == 0 and not s["r"]["gain"]
    assert not s["r"]["within_bound"]  # 84.5 < 0.9 * 104.5


def test_within_bound():
    t = summary([p * 1.24 for p in PARENT])["metrics"]["t"]
    assert t["within_bound"] and t["wins"] == 0
    t = summary([p * 1.26 for p in PARENT])["metrics"]["t"]
    assert not t["within_bound"]


def test_a_run_that_is_not_correct_voids_the_gain():
    faster = [p - 20 for p in PARENT]
    s = summary(faster, [True] * 9 + [False])
    assert s["correct"] == {"parent": True, "change": False}
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["attempted"] == {"parent": 50, "change": 50}
    assert s["metrics"]["t"]["wins"] == 10 and not s["metrics"]["t"]["gain"]
    s = bench_pairs.summarise(SPEC, {"parent": runs(PARENT, [False] + [True] * 9),
                                     "change": runs(faster)})
    assert s["correct"] == {"parent": False, "change": True}
    assert not s["metrics"]["t"]["gain"]
    assert summary(faster)["correct"] == {"parent": True, "change": True}


def tree(root, *cache):
    """A source tree at root whose src/ holds the given cache paths."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(dict(SPEC, run_seconds=1)))
    for path in cache:
        (root / "src" / path).parent.mkdir(parents=True, exist_ok=True)
        (root / "src" / path).write_bytes(b"")
    return root


def pairs_main(parent, change, out):
    return bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--seeds", "1", "2",
                             "--out", str(out)])


@pytest.mark.parametrize("cache", ["pkg/__pycache__/m.cpython-311.pyc",
                                   "pkg/m.pyc"])
def test_trees_that_differ_in_bytecode_cache_are_refused(
        tmp_path, monkeypatch, capsys, cache):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "bench", no_run)
    bare = tree(tmp_path / "bare")
    cached = tree(tmp_path / "cached", cache)
    out = tmp_path / "out.json"
    for parent, change in ((bare, cached), (cached, bare)):
        assert pairs_main(parent, change, out) == 2
        err = capsys.readouterr().err
        assert f"error: {cached / 'src'} holds compiled bytecode" in err
    assert not out.exists()


def test_each_sides_bytecode_cache_is_recorded(tmp_path, monkeypatch):
    run = runs([100.0])[0]
    run["metrics"]["wall_s"] = {"value": 1.0}
    monkeypatch.setattr(bench_pairs, "bench", lambda *args: run)
    for name, cache in (("bare", ()), ("cached", ("pkg/__pycache__/m.pyc",))):
        parent = tree(tmp_path / name / "parent", *cache)
        change = tree(tmp_path / name / "change", *cache)
        out = tmp_path / name / "out.json"
        assert pairs_main(parent, change, out) == 0
        written = json.loads(out.read_text())
        assert written["bytecode_cache"] == {"parent": bool(cache),
                                             "change": bool(cache)}
        assert written["workloads"]["w"]["first"] == ["parent", "change"]
