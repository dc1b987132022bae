"""Command-line front end.

Exit codes: 0 for success / a positive verdict, 1 for a negative verdict or
counterexample (including caps), 2 for usage or parse errors.  Reports are
deterministic JSON (CSV for the dimension table); wall-clock timing is
deliberately kept out of the payload so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from . import docio
from .errors import (
    NotDistributive,
    OrdlatError,
    ParseError,
)
from .lattice import lattice_from_poset
from .duality import (
    _downset_lattice,
    _spectrum,
    prime_ideals,
)
from .poset import DEFAULT_DIMENSION_CAP, DEFAULT_MAX_SIZE, enumerate_posets
from .relation import (
    FIXED_POINT_MODES,
    _cube_shift,
    _image_witness,
    dimension_report,
    find_fixed_points,
    relation_downset_iso,
    relation_lattice,
    relation_poset,
    verify_relation_primes,
)

SUITES = ("corollary", "lemma51", "fixedpoints", "shift", "dimtable")


def _nonnegative(text: str) -> int:
    """argparse type for caps and sizes: an int, refused when negative; a
    non-int is refused in the words argparse uses for ``type=int``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid nonnegative int value: {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ordlat",
        description="finite posets, distributive lattices, and their duality",
    )
    p.add_argument("--max-size", type=_nonnegative, default=DEFAULT_MAX_SIZE,
                   help="cap on input and derived carrier sizes: documents, "
                   "relation posets and lattices, and down-set lattices")
    p.add_argument("--max-dim-size", type=_nonnegative,
                   default=DEFAULT_DIMENSION_CAP,
                   help="cap on posets passed to the dimension search")
    p.add_argument("--output", default=None, help="write the report here")
    sub = p.add_subparsers(dest="command", required=True)

    for name in ("check", "primes", "spec", "downsets", "image"):
        sp = sub.add_parser(name)
        sp.add_argument("input", help="poset document (JSON)")

    sp = sub.add_parser("phi")
    sp.add_argument("input")
    sp.add_argument("--as", dest="as_kind", choices=("poset", "lattice"),
                    default="poset")

    sp = sub.add_parser("experiments")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--n-max", type=_nonnegative, default=4)

    sp = sub.add_parser("dot")
    sp.add_argument("input")
    sp.add_argument("--target", choices=("order", "hasse"), default="hasse")
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept: parsing never
    changes it, and a build costs far more than a parse."""
    return build_parser()


def _config(args) -> dict:
    return {"max_size": args.max_size, "max_dim_size": args.max_dim_size}


def _report(args, result: dict, extra_args: dict | None = None) -> str:
    payload = {
        "command": args.command,
        "args": extra_args or {},
        "config": _config(args),
        "result": result,
    }
    return _dump(payload) + "\n"


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for str-keyed dicts,
    lists, str, int, bool and None, writing int lists and [i, j] pair lists
    without a call per number; any other type raises TypeError."""
    out: list[str] = []
    _emit(obj, "\n", out)
    return "".join(out)


def _emit(obj, nl: str, out: list[str]) -> None:
    """Append obj's indented JSON to out; ``nl`` is a newline followed by
    the indent of obj's own line."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            out.append(sep + json.dumps(key) + ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + nl + "]")
        elif all(type(x) is list and len(x) == 2 and type(x[0]) is int
                 and type(x[1]) is int for x in obj):
            deep = inner + "  "
            out.append("[" + inner + ("," + inner).join(
                [f"[{deep}{i},{deep}{j}{inner}]" for i, j in obj]) + nl + "]")
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _emit(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif kind in (str, int, bool) or obj is None:
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot write {kind.__name__} into a report")


def _load(path: str, max_size: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return docio.parse_document(text, max_size)


def cmd_check(args) -> tuple[str, int]:
    kind, P = _load(args.input, args.max_size)
    result: dict = {"kind": kind, "size": P.n}
    code = 0
    if kind == "lattice":
        try:
            lattice_from_poset(P)
            result["valid"] = True
            result["verdict"] = "valid lattice"
        except NotDistributive as exc:
            result["valid"] = False
            result["verdict"] = "NotDistributive"
            result["witness"] = list(exc.triple)
            code = 1
        except OrdlatError as exc:
            result["valid"] = False
            result["verdict"] = type(exc).__name__
            result["detail"] = str(exc)
            code = 1
    else:
        result["valid"] = True
        result["verdict"] = "valid poset"
    return _report(args, result, {"input": args.input}), code


def cmd_phi(args) -> tuple[str, int]:
    kind, P = _load(args.input, args.max_size)
    if args.as_kind == "lattice":
        L = lattice_from_poset(P)
        RL, prs = relation_lattice(L, max_size=args.max_size)
        doc = docio.poset_to_document(RL.order, kind="lattice")
    else:
        RP, prs = relation_poset(P, max_size=args.max_size)
        doc = docio.poset_to_document(RP, kind="poset")
    result = {
        "document": doc,
        "pairs": [list(pr) for pr in prs],
        "size": doc["size"],
    }
    return _report(args, result, {"input": args.input, "as": args.as_kind}), 0


def cmd_primes(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    L = lattice_from_poset(P)
    ideals = prime_ideals(L)
    result = {
        "count": len(ideals),
        "prime_ideals": [I.elements() for I in ideals],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_spec(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    L = lattice_from_poset(P)
    ideals = prime_ideals(L)
    result = {
        "document": docio.poset_to_document(_spectrum(L, ideals)),
        "prime_ideals": [I.elements() for I in ideals],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_downsets(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    E, ds = _downset_lattice(P, args.max_size)
    result = {
        "document": docio.poset_to_document(E.order, kind="lattice"),
        "down_sets": [[x for x in range(P.n) if (m >> x) & 1] for m in ds],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_image(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    L = lattice_from_poset(P)
    ideals = prime_ideals(L)
    found = _image_witness(L, ideals, args.max_size)
    if found is None:
        size = len(ideals)
        reason = (
            f"spectrum has odd size {size}"
            if size % 2
            else "no factorization of the spectrum into a half times 2"
        )
        return _report(
            args, {"in_image": False, "reason": reason}, {"input": args.input}
        ), 1
    K, w = found
    # Φ(K)'s elements are K's related pairs, labelled as relation_poset does
    labels = K.order.labels
    result = {
        "in_image": True,
        "witness_for_K": docio.poset_to_document(K.order, kind="lattice"),
        "iso": [
            [f"({labels[a]},{labels[b]})", L.order.labels[w.forward[k]]]
            for k, (a, b) in enumerate(K.order.pairs())
        ],
    }
    return _report(args, result, {"input": args.input}), 0


def _suite_corollary(n_max: int, max_size: int) -> tuple[dict, int]:
    checked = 0
    failures = []
    for size in range(1, n_max + 1):
        for idx, P in enumerate(enumerate_posets(size)):
            try:
                L = lattice_from_poset(P)
            except OrdlatError:
                continue
            checked += 1
            if not verify_relation_primes(L, max_size=max_size):
                failures.append(f"n{size}#{idx:03d}")
    result = {"checked": checked, "failures": failures,
              "all_pass": not failures}
    return result, 0 if not failures else 1


def _suite_lemma51(n_max: int, max_size: int) -> tuple[dict, int]:
    checked = []
    for size in range(1, n_max + 1):
        for idx, X in enumerate(enumerate_posets(size)):
            relation_downset_iso(X, max_size=max_size)
            checked.append(f"n{size}#{idx:03d}")
    return {"checked": checked, "all_pass": True}, 0


def _suite_fixedpoints(n_max: int, max_size: int) -> tuple[dict, int]:
    out = {}
    for mode in FIXED_POINT_MODES:
        rep = find_fixed_points(n_max, mode)
        out[mode] = {"hits": list(rep.hits), "expectation": rep.expectation}
    return {"modes": out, "all_pass": True}, 0


def _suite_shift(n_max: int, max_size: int) -> tuple[dict, int]:
    results = {}
    ok = True
    for n in range(0, min(n_max, 3) + 1):
        passed, pairs = _cube_shift(n)
        results[str(n)] = {"pass": passed, "comparable_pairs": pairs}
        ok = ok and passed
    return {"cases": results, "all_pass": ok}, 0 if ok else 1


def _suite_dimtable(n_max: int, max_dim_size: int) -> str:
    rows = dimension_report(n_max, dim_cap=max_dim_size)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "size", "dim", "dim_rel", "width", "width_rel"])
    for r in rows:
        writer.writerow(
            [r["id"], r["size"], r["dim"], r["dim_rel"], r["width"], r["width_rel"]]
        )
    return buf.getvalue()


def cmd_experiments(args) -> tuple[str, int]:
    extra = {"suite": args.suite, "n_max": args.n_max}
    if args.suite == "dimtable":
        return _suite_dimtable(args.n_max, args.max_dim_size), 0
    if args.suite == "corollary":
        result, code = _suite_corollary(args.n_max, args.max_size)
    elif args.suite == "lemma51":
        result, code = _suite_lemma51(args.n_max, args.max_size)
    elif args.suite == "fixedpoints":
        result, code = _suite_fixedpoints(args.n_max, args.max_size)
    else:
        result, code = _suite_shift(args.n_max, args.max_size)
    return _report(args, result, extra), code


def cmd_dot(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    return docio.dot_export(P, target=args.target), 0


HANDLERS = {
    "check": cmd_check,
    "phi": cmd_phi,
    "primes": cmd_primes,
    "spec": cmd_spec,
    "downsets": cmd_downsets,
    "image": cmd_image,
    "experiments": cmd_experiments,
    "dot": cmd_dot,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        text, code = HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrdlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
