"""``tools/same_outputs``: its diff of synthetic results, the ops it builds
from a stand-in generator, and one run of this tree against itself on the
ops that need no seed."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import ordlat as o
from ordlat import docio

from test_cli import COROLLARY_REFUSALS, SHIFT_REFUSALS

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", _ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_differences_name_each_op_and_field_that_differs():
    parent = {"a": [0, "x\n", ""], "b": [1, "", "error: e\n"], "c": [0, "", ""],
              "d": [2, "", ""]}
    change = {"a": [0, "x\n", ""], "b": [1, "", "error: f\n"],
              "c": ["raised TypeError: t", "y", "z"], "e": [0, "", ""]}
    assert same_outputs.differences(parent, change) == [
        ("b", ["stderr"]),
        ("c", ["exit", "stdout", "stderr"]),
        ("d", ["missing in change"]),
        ("e", ["missing in parent"]),
    ]
    assert same_outputs.differences(parent, dict(parent)) == []
    assert same_outputs.differences({"a": [1, "", ""]}, {"a": [2, "", ""]}) == [
        ("a", ["exit"])]


def test_ops_write_each_document_and_name_each_op(tmp_path):
    doc = {"schema_version": "1", "kind": "poset", "size": 1, "labels": ["v"],
           "leq_pairs": []}
    gen = SimpleNamespace(
        documents=lambda seed: [
            {"argv": ["check", "@doc"], "doc": doc, "kind": "check_poset"},
            {"argv": ["check", "@doc"], "text": "{", "kind": "malformed"},
            {"argv": ["experiments", "shift", "--n-max", "1"],
             "kind": "experiments"},
        ],
        sweep=lambda seed: [{"argv": ["experiments", "lemma51", "--n-max", "2"],
                             "kind": "lemma51"}],
    )
    # the shift grid runs each cap the CLI test pins, and the first that passes
    assert same_outputs.SHIFT_CAPS == (*SHIFT_REFUSALS, 168)
    assert same_outputs.COROLLARY_CAPS == (*COROLLARY_REFUSALS, 28)
    assert same_outputs.FIXEDPOINT_CAPS == tuple(range(8))
    ops = same_outputs.tree_ops(gen, [7], str(tmp_path))
    assert [name for name, _ in ops] == [
        "documents seed 7 op 0 (check_poset)",
        "documents seed 7 op 1 (malformed)",
        "documents seed 7 op 2 (experiments)",
        "sweep lemma51",
    ] + [f"{suite} --n-max {n}" for suite in ("corollary", "lemma51", "fixedpoints")
         for n in range(9)] + [
        "shift --n-max 0",
        "dimtable --n-max 0",
        "dimtable --n-max 6",
        "dimtable --n-max 8",
        "experiments nosuch",
    ] + [f"shift under --max-size {cap}" for cap in same_outputs.SHIFT_CAPS] + [
        f"corollary under --max-size {cap}"
        for cap in same_outputs.COROLLARY_CAPS] + [
        f"fixedpoints under --max-size {cap}"
        for cap in same_outputs.FIXEDPOINT_CAPS] + [
        "dimtable --n-max 4 under --max-size 3",
        "spec on the 1024-chain lattice",
        "primes on the 1024-chain lattice",
        "downsets on the 200-chain",
        "phi on the 600-point matching",
        "phi as lattice on Phi(chain 21)",
        "phi as lattice on the 21-chain lattice",
        "phi on escaped labels",
        "phi on the 5-antichain",
        "image on Phi(E(V)) with escaped labels",
        "spec on E(N x 2)",
        "primes on E(N x 2)",
        "downsets on escaped labels",
        "image on E(antichain 6 x 2)",
        "image on E(cube 4)",
    ]
    fixed = [str(tmp_path / f"fixed-{k}.json") for k in range(14)]
    assert [argv for _, argv in ops] == [
        ["check", str(tmp_path / "7-0.json")],
        ["check", str(tmp_path / "7-1.json")],
        ["experiments", "shift", "--n-max", "1"],
        ["experiments", "lemma51", "--n-max", "2"],
    ] + [["experiments", suite, "--n-max", str(n)]
         for suite in ("corollary", "lemma51", "fixedpoints") for n in range(9)] + [
        ["experiments", "shift", "--n-max", "0"],
        ["experiments", "dimtable", "--n-max", "0"],
        ["experiments", "dimtable", "--n-max", "6"],
        ["experiments", "dimtable", "--n-max", "8"],
        ["experiments", "nosuch"],
    ] + [["--max-size", str(cap), "experiments", "shift", "--n-max", "3"]
         for cap in same_outputs.SHIFT_CAPS] + [
        ["--max-size", str(cap), "experiments", "corollary", "--n-max", "7"]
        for cap in same_outputs.COROLLARY_CAPS] + [
        ["--max-size", str(cap), "experiments", "fixedpoints", "--n-max", "7"]
        for cap in same_outputs.FIXEDPOINT_CAPS] + [
        ["--max-size", "3", "experiments", "dimtable", "--n-max", "4"],
        ["spec", fixed[0]],
        ["primes", fixed[1]],
        ["downsets", fixed[2]],
        ["phi", fixed[3]],
        ["phi", fixed[4], "--as", "lattice"],
        ["phi", fixed[5], "--as", "lattice"],
        ["phi", fixed[6]],
        ["phi", fixed[7]],
        ["image", fixed[8]],
        ["spec", fixed[9]],
        ["primes", fixed[10]],
        ["downsets", fixed[11]],
        ["image", fixed[12]],
        ["image", fixed[13]],
    ]
    assert json.loads((tmp_path / "7-0.json").read_text()) == doc
    assert (tmp_path / "7-1.json").read_text() == "{"
    # the fixed documents: sizes, and Phi's size for the two phi inputs
    sizes = [json.loads(Path(f).read_text())["size"] for f in fixed]
    assert sizes == [1024, 1024, 200, 600, 231, 21, 5, 5, 14, 31, 31, 5, 729, 168]
    for f, related in ((fixed[3], 924), (fixed[4], 19481)):
        _, P = docio.parse_document(Path(f).read_text())
        assert P.relation_count() == related
    assert json.loads(Path(fixed[6]).read_text())["labels"] == [
        '"', "\\", "\n", "\u00e9", "\u2603"]
    assert Path(fixed[11]).read_text() == Path(fixed[6]).read_text()
    # Phi(E(V)) has the 14 pairs of down-sets of V, each name holding a
    # quote, a backslash and an e-acute; E(N x 2) has as many elements as
    # E(N) has comparable pairs
    _, PhiEV = docio.parse_document(Path(fixed[8]).read_text())
    assert all(set('"\\\u00e9') <= set(name) for name in PhiEV.labels)
    EV = o.clopen_downset_lattice(o.poset_new(3, [(0, 2), (1, 2)]))[0]
    assert o.is_isomorphic(PhiEV, o.relation_lattice(EV)[0].order) is not None
    EN = o.clopen_downset_lattice(o.poset_new(4, [(0, 2), (1, 2), (1, 3)]))[0]
    _, EN2 = docio.parse_document(Path(fixed[9]).read_text())
    assert EN2.n == EN.order.relation_count()
    # the two image inputs are E(antichain 6 x 2) and E(cube 4)
    for f, X in ((fixed[12], o.product(o.antichain(6), o.chain(2))),
                 (fixed[13], o.cube(4))):
        _, E = docio.parse_document(Path(f).read_text())
        assert o.is_isomorphic(E, o.clopen_downset_lattice(X)[0].order) is not None


def test_this_tree_against_itself(capsys):
    assert same_outputs.main(
        ["--parent", str(_ROOT), "--change", str(_ROOT), "--seeds"]) == 0
    assert capsys.readouterr().out == "98 ops, 0 differ\n"
