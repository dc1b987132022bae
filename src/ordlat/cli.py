"""Command-line front end.

Exit codes: 0 for success / a positive verdict, 1 for a negative verdict or
counterexample (including caps), 2 for usage or parse errors.  Reports are
deterministic JSON (CSV for the dimension table); wall-clock timing is
deliberately kept out of the payload so identical runs are byte-identical.
The ``experiments`` suites are public reports of ``relation``, written here.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from . import docio, relation
from .errors import (
    NotDistributive,
    OrdlatError,
    ParseError,
)
from .lattice import lattice_from_poset
from .duality import clopen_downset_lattice, prime_ideals, spec
from .poset import DEFAULT_DIMENSION_CAP, DEFAULT_MAX_SIZE, _members
from .relation import (
    corollary_report,
    dimension_report,
    fixed_points_report,
    lemma51_report,
    relation_image_witness,
    relation_lattice,
    relation_poset,
    shift_report,
)


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
    lists, ``docio.Pairs``, str, int, bool and None, writing int lists, str
    lists and pairs without a call per item; any other type raises
    TypeError."""
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
            out.append(sep + _quote(key) + ": ")
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
        elif all(type(x) is str for x in obj):
            out.append("[" + inner + ("," + inner).join(map(_quote, obj)) + nl + "]")
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _emit(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif kind is docio.Pairs:
        _emit_pairs(obj, nl, out)
    elif kind in (str, int, bool) or obj is None:
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot write {kind.__name__} into a report")


def _emit_pairs(pairs: docio.Pairs, nl: str, out: list[str]) -> None:
    """``_emit`` of the list of [i, j] lists that pairs stands for, one
    join per row over the row's members, named by a table of numerals."""
    inner = nl + "  "
    deep = inner + "  "
    between = inner + "]," + inner  # from one pair's j to the next pair
    names = list(map(str, range(len(pairs.up))))
    rows = []
    for i, row in pairs.rows():
        if row:
            head = "[" + deep + names[i] + "," + deep
            rows.append(head + (between + head).join(_members(row, names))
                        + inner + "]")
    if rows:
        out.append("[" + inner + ("," + inner).join(rows) + nl + "]")
    else:
        out.append("[]")


def _load(path: str, max_size: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        RL, _ = relation_lattice(L, max_size=args.max_size)
        doc = docio.poset_to_document(RL.order, kind="lattice")
        order = L.order
    else:
        RP, _ = relation_poset(P, max_size=args.max_size)
        doc = docio.poset_to_document(RP, kind="poset")
        order = P
    result = {
        "document": doc,
        "pairs": docio.Pairs(order.up, strict=False),
        "size": doc["size"],
    }
    return _report(args, result, {"input": args.input, "as": args.as_kind}), 0


def cmd_primes(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    L = lattice_from_poset(P)
    ideals = prime_ideals(L)
    result = {
        "count": len(ideals),
        "prime_ideals": [list(_members(m, range(L.n))) for m in ideals],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_spec(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    X, ideals = spec(lattice_from_poset(P))
    result = {
        "document": docio.poset_to_document(X),
        "prime_ideals": [list(_members(m, range(P.n))) for m in ideals],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_downsets(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    E, ds = clopen_downset_lattice(P, args.max_size)
    result = {
        "document": docio.poset_to_document(E.order, kind="lattice"),
        "down_sets": [list(_members(m, range(P.n))) for m in ds],
    }
    return _report(args, result, {"input": args.input}), 0


def cmd_image(args) -> tuple[str, int]:
    _, P = _load(args.input, args.max_size)
    L = lattice_from_poset(P)
    found = relation_image_witness(L)
    if found is None:
        # one prime ideal, so one point of the spectrum, per join-irreducible
        size = len(L.irreducibles)
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


def _suite_dimtable(n_max: int, max_size: int, max_dim_size: int) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["id", "size", "dim", "dim_rel", "width",
                                  "width_rel"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(dimension_report(n_max, max_size, dim_cap=max_dim_size))
    return buf.getvalue()


# the suites in the order that ``--help`` and usage errors list them; each
# is a report of ``relation``, taking (n_max, max_size) and returning its
# result, but dimtable, which also takes max_dim_size and returns its CSV
SUITES = {
    "corollary": corollary_report,
    "lemma51": lemma51_report,
    "fixedpoints": fixed_points_report,
    "shift": shift_report,
    "dimtable": _suite_dimtable,
}


def cmd_experiments(args) -> tuple[str, int]:
    suite = SUITES[args.suite]
    if args.suite == "dimtable":
        return suite(args.n_max, args.max_size, args.max_dim_size), 0
    # looked up on relation as it is called, so that a wrapper put there,
    # as perfbench's tracer puts one, sees the call
    result = getattr(relation, suite.__name__)(args.n_max, args.max_size)
    extra = {"suite": args.suite, "n_max": args.n_max}
    return _report(args, result, extra), 0 if result["all_pass"] else 1


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
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
