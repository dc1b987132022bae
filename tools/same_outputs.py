"""Byte-identity gate between two source trees.

    python3 tools/same_outputs.py --parent DIR --change DIR [--seeds 1 2 3 4]

Each tree runs the same CLI ops through ``ordlat.cli.main`` in a child
process of its own, importing the package from that tree's ``src/`` and
generating the documents with that tree's ``perfbench/gen.py``: the
``documents`` ops of each seed, the four ``sweep`` suites, each suite at
each ``--n-max`` in ``SUITE_N_MAX``, from 0 to the enumeration cap's
refusal at 8, ``experiments nosuch``, whose usage error lists the suites,
``experiments shift --n-max 3`` under
each ``--max-size`` in ``SHIFT_CAPS``, which pins the order of the cap
refusals of down-set lattices, products and relation posets,
``experiments corollary --n-max 7`` under each ``--max-size`` in
``COROLLARY_CAPS``, which pins the order in which the suite visits the
lattices, ``experiments fixedpoints --n-max 7`` under each ``--max-size``
in ``FIXEDPOINT_CAPS`` and ``experiments dimtable --n-max 4`` under
``--max-size 3``, which pin that both suites build Phi under the cap, and the
``fixed_ops``, whose large or odd documents the seeds never reach, among
them reports that name elements by names derived from derived names.  The
temporary directory that holds a tree's documents reads ``<docs>`` in every
output, and an op that raises out of ``main`` has the exception as its
exit.  Prints each op whose exit, stdout or stderr differs, and which of
them; exits 1 on any difference and 0 when every op is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the --n-max values run for each suite: 0, 8 (refused by the enumeration
# cap) and the values between whose reports should not move.  Lemma 5.1 at
# n = 6 builds E(X x 2) of up to 729 elements, past what the sweep's suites
# build, and at n = 7 refuses one of 2187.  shift at 4 and up and dimtable
# at 7 are left out: their outputs changed when the suites' own limits of
# n <= 3 and n <= 6 were dropped, and the CLI tests pin them.
SUITE_N_MAX = (
    ("corollary", range(9)),
    ("lemma51", range(9)),
    ("fixedpoints", range(9)),
    ("shift", (0,)),
    ("dimtable", (0, 6, 8)),
)
# each side of each cap threshold of `experiments shift --n-max 3`: cube 0,
# E(cube 0) and the relation lattices of E(cube n), n = 0..3
SHIFT_CAPS = (0, 1, 2, 3, 5, 6, 19, 20, 167, 168)
# every cap up to 28, the comparable pairs of chain 7, where `experiments
# corollary --n-max 7` first passes: under each, it refuses the relation
# lattice of the first lattice, in class order, with more pairs than the cap
COROLLARY_CAPS = tuple(range(29))
# every cap up to 7, where `experiments fixedpoints --n-max 7` first passes:
# under each, it refuses Phi of the antichain of one point more than the cap
FIXEDPOINT_CAPS = tuple(range(8))
FIELDS = ("exit", "stdout", "stderr")


def _document(kind: str, n: int, pairs, labels=None) -> dict:
    doc = {"schema_version": "1", "kind": kind, "size": n, "leq_pairs": pairs}
    if labels is not None:
        doc["labels"] = labels
    return doc


def _chain(n: int, kind: str) -> dict:
    return _document(kind, n, [[i, i + 1] for i in range(n - 1)])


def _matching() -> dict:
    """276 two-element chains and 16 three-element chains: 600 points and
    924 related pairs, so Phi has few pairs per row."""
    pairs = [[2 * c, 2 * c + 1] for c in range(276)]
    for c in range(16):
        k = 552 + 3 * c
        pairs += [[k, k + 1], [k + 1, k + 2]]
    return _document("poset", 600, pairs)


def _relation_of_chain(n: int) -> dict:
    """Phi(chain n) as a lattice: the pairs a <= b in lexicographic order,
    each covered by (a+1, b) and (a, b+1) where those are pairs."""
    index = {(a, b): k for k, (a, b) in
             enumerate((a, b) for a in range(n) for b in range(a, n))}
    covers = [[k, index[c]] for (a, b), k in index.items()
              for c in ((a + 1, b), (a, b + 1)) if c in index]
    return _document("lattice", len(index), covers)


def _order(kind: str, items: list, leq, labels=None) -> dict:
    """The items under leq, every strict pair listed."""
    pairs = [[i, j] for i, a in enumerate(items) for j, b in enumerate(items)
             if i != j and leq(a, b)]
    return _document(kind, len(items), pairs, labels)


def _down_sets(points: list, leq) -> list[frozenset]:
    """The down-sets of the order leq on points, subsets in binary order."""
    subsets = [frozenset(p for k, p in enumerate(points) if bits >> k & 1)
               for bits in range(1 << len(points))]
    return [s for s in subsets
            if all(q in s for p in s for q in points if leq(q, p))]


def _v_relation() -> dict:
    """Phi(E(V)) as a lattice, V the 3-point poset 0, 1 < 2: the 14 pairs
    d <= e of down-sets of V, coordinatewise, named with a quote, a
    backslash and an e-acute, so `image` names its witness by names of
    names."""
    ds = _down_sets([0, 1, 2], lambda a, b: a == b or b == 2)
    prs = [(d, e) for d in ds for e in ds if d <= e]
    labels = [f'"{k}\\\u00e9' for k in range(len(prs))]
    return _order("lattice", prs, lambda p, q: p[0] <= q[0] and p[1] <= q[1],
                  labels)


def _n_times_two() -> dict:
    """E(N x 2) as a lattice, N the 4-point poset 0, 1 < 2 and 1 < 3."""
    below = {(0, 2), (1, 2), (1, 3)}
    points = [(x, b) for x in range(4) for b in range(2)]
    ds = _down_sets(points, lambda p, q: (p[0] == q[0] or (p[0], q[0]) in below)
                    and p[1] <= q[1])
    return _order("lattice", ds, frozenset.__le__)


def _e_antichain_times_two(k: int) -> dict:
    """E(antichain k x 2) as a lattice, 3^k elements, in the image of Phi."""
    points = [(x, b) for x in range(k) for b in range(2)]
    ds = _down_sets(points, lambda p, q: p[0] == q[0] and p[1] <= q[1])
    return _order("lattice", ds, frozenset.__le__)


def _e_cube(n: int) -> dict:
    """E(cube n) as a lattice, the points of cube n being the masks of n
    bits under containment; it is Phi of E(cube(n-1))."""
    ds = _down_sets(list(range(1 << n)), lambda a, b: a & ~b == 0)
    return _order("lattice", ds, frozenset.__le__)


def fixed_ops() -> list[tuple[str, list[str], dict]]:
    """(name, argv, document) of the ops on large or odd documents, each
    built here in plain Python; ``@doc`` in argv is the document's file.
    Phi(Phi(chain 21)) has 19,481 elements, so `phi --as lattice` refuses
    Phi(chain 21) at the default cap; on chain 21 it writes Phi(chain 21)."""
    chain1024 = _chain(1024, "lattice")
    labels = ['"', "\\", "\n", "\u00e9", "\u2603"]
    escaped = _document("poset", 5, [[0, 1], [1, 2], [0, 3]], labels)
    n_times_two = _n_times_two()
    return [
        ("spec on the 1024-chain lattice", ["spec", "@doc"], chain1024),
        ("primes on the 1024-chain lattice", ["primes", "@doc"], chain1024),
        ("downsets on the 200-chain", ["downsets", "@doc"], _chain(200, "poset")),
        ("phi on the 600-point matching", ["phi", "@doc"], _matching()),
        ("phi as lattice on Phi(chain 21)", ["phi", "@doc", "--as", "lattice"],
         _relation_of_chain(21)),
        ("phi as lattice on the 21-chain lattice",
         ["phi", "@doc", "--as", "lattice"], _chain(21, "lattice")),
        ("phi on escaped labels", ["phi", "@doc"], escaped),
        ("phi on the 5-antichain", ["phi", "@doc"], _document("poset", 5, [])),
        ("image on Phi(E(V)) with escaped labels", ["image", "@doc"],
         _v_relation()),
        ("spec on E(N x 2)", ["spec", "@doc"], n_times_two),
        ("primes on E(N x 2)", ["primes", "@doc"], n_times_two),
        ("downsets on escaped labels", ["downsets", "@doc"], escaped),
        ("image on E(antichain 6 x 2)", ["image", "@doc"],
         _e_antichain_times_two(6)),
        ("image on E(cube 4)", ["image", "@doc"], _e_cube(4)),
    ]


def tree_ops(gen, seeds: list[int], docdir: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every op, writing each document into docdir as the
    benchmark does."""
    ops = []
    for seed in seeds:
        for k, op in enumerate(gen.documents(seed)):
            argv = op["argv"]
            if "@doc" in argv:
                path = os.path.join(docdir, f"{seed}-{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(op["text"] if "text" in op else json.dumps(op["doc"]))
                argv = [path if a == "@doc" else a for a in argv]
            ops.append((f"documents seed {seed} op {k} ({op['kind']})", argv))
    ops += [(f"sweep {op['kind']}", op["argv"]) for op in gen.sweep(0)]
    ops += [(f"{suite} --n-max {n}", ["experiments", suite, "--n-max", str(n)])
            for suite, n_max in SUITE_N_MAX for n in n_max]
    ops.append(("experiments nosuch", ["experiments", "nosuch"]))
    ops += [(f"shift under --max-size {cap}",
             ["--max-size", str(cap), "experiments", "shift", "--n-max", "3"])
            for cap in SHIFT_CAPS]
    ops += [(f"corollary under --max-size {cap}",
             ["--max-size", str(cap), "experiments", "corollary", "--n-max", "7"])
            for cap in COROLLARY_CAPS]
    ops += [(f"fixedpoints under --max-size {cap}",
             ["--max-size", str(cap), "experiments", "fixedpoints", "--n-max", "7"])
            for cap in FIXEDPOINT_CAPS]
    ops.append(("dimtable --n-max 4 under --max-size 3",
                ["--max-size", "3", "experiments", "dimtable", "--n-max", "4"]))
    for k, (name, argv, doc) in enumerate(fixed_ops()):
        path = os.path.join(docdir, f"fixed-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        ops.append((name, [path if a == "@doc" else a for a in argv]))
    return ops


def run_tree_ops() -> None:
    """In the child: ``TREE OUT SEED...`` from sys.argv; writes
    {name: [exit, stdout, stderr]} to OUT as JSON."""
    tree, out, *seeds = sys.argv[1:]
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import gen
    from ordlat.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as docdir:
        for name, argv in tree_ops(gen, [int(s) for s in seeds], docdir):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except Exception as exc:  # a traceback is an outcome to compare
                    code = f"raised {type(exc).__name__}: {exc}"
            results[name] = [code] + [
                s.getvalue().replace(docdir, "<docs>") for s in (stdout, stderr)]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def differences(parent: dict, change: dict) -> list[tuple[str, list[str]]]:
    """(op, what differs) for every op whose results differ, in the
    parent's op order and then the change's; an op run on one side only
    differs in ``["missing in change"]`` or ``["missing in parent"]``."""
    out = []
    for name, ours in parent.items():
        if name not in change:
            out.append((name, ["missing in change"]))
            continue
        what = [f for f, a, b in zip(FIELDS, ours, change[name]) if a != b]
        if what:
            out.append((name, what))
    out += [(name, ["missing in parent"]) for name in change if name not in parent]
    return out


def collect(trees: list[Path], seeds: list[int]) -> list[dict]:
    """The results of every op in each tree, the children run side by
    side."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"{k}.json") for k in range(len(trees))]
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                "import same_outputs; same_outputs.run_tree_ops()")
        children = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(tree), out, *map(str, seeds)],
                cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                                   PYTHONHASHSEED="0"))
            for tree, out in zip(trees, outs)]
        for tree, child in zip(trees, children):
            if child.wait() != 0:
                raise RuntimeError(f"ops failed to run in {tree}")
        return [json.loads(Path(out).read_text()) for out in outs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4])
    args = p.parse_args(argv)
    parent, change = collect([args.parent.resolve(), args.change.resolve()],
                             args.seeds)
    diffs = differences(parent, change)
    for name, what in diffs:
        print(f"{name}: {', '.join(what)}")
    print(f"{len(parent)} ops, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
