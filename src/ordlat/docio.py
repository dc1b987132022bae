"""JSON poset documents and Graphviz DOT export."""

from __future__ import annotations

import json

from .errors import CapExceeded, ParseError
from .poset import DEFAULT_MAX_SIZE, Poset, _Frozen, _members, poset_new

SCHEMA_VERSION = "1"
KINDS = ("poset", "lattice")


class Pairs(_Frozen):
    """The related pairs [i, j] of the order on range(len(up)) whose
    up-rows are ``up``, all of them or, if ``strict``, those with i != j:
    the list of them in lexicographic order, read off the rows as it is
    iterated, so no pair is held.  It equals that list, and so, like a
    list, is unhashable; ``list`` or ``json.dumps(..., default=list)`` turns
    it into plain JSON, and the CLI writes it row by row."""

    _fields = ("up", "strict")

    def __init__(self, up: tuple[int, ...], strict: bool):
        d = self.__dict__
        d["up"] = up
        d["strict"] = strict

    def rows(self):
        """(i, row i of the pairs) for each i."""
        if not self.strict:
            return enumerate(self.up)
        return ((i, row & ~(1 << i)) for i, row in enumerate(self.up))

    def __iter__(self):
        items = range(len(self.up))
        for i, row in self.rows():
            for j in _members(row, items):
                yield [i, j]

    def __len__(self) -> int:
        count = sum(map(int.bit_count, self.up))
        return count - len(self.up) if self.strict else count

    def __eq__(self, other):
        if isinstance(other, (Pairs, list)):
            return list(self) == list(other)
        return NotImplemented


def poset_to_document(P: Poset, kind: str = "poset") -> dict:
    """Document with strict generating pairs; closing them reproduces P."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "size": P.n,
        "labels": list(P.labels),
        "leq_pairs": Pairs(P.up, strict=True),
    }


def document_to_poset(doc, max_size: int = DEFAULT_MAX_SIZE) -> tuple[str, Poset]:
    """Validate a document and close its pairs; a ``size`` beyond
    ``max_size`` is refused before any row is built."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    size = doc.get("size")
    # bool is a subclass of int, but JSON true/false is not a number
    if type(size) is not int or size < 0:
        raise ParseError("size must be a nonnegative integer")
    pairs = doc.get("leq_pairs")
    if not isinstance(pairs, (list, Pairs)):
        raise ParseError("leq_pairs must be a list of [i, j] pairs")
    for p in pairs:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ParseError(f"bad pair entry {p!r}")
        i, j = p
        if type(i) is not int or type(j) is not int:
            raise ParseError(f"bad pair entry {p!r}")
        if not (0 <= i < size and 0 <= j < size):
            raise ParseError(f"pair {p!r} out of range for size {size}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size:
            raise ParseError("labels must list one name per element")
        labels = [str(x) for x in labels]
    if size > max_size:
        raise CapExceeded(
            f"document size {size} exceeds the size cap {max_size} "
            "(raise it with --max-size)"
        )
    return kind, poset_new(size, pairs, labels)


def parse_document(text: str, max_size: int = DEFAULT_MAX_SIZE) -> tuple[str, Poset]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError, a ValueError for an int literal past
        # Python's digit limit, and a RecursionError for deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_poset(doc, max_size)


def dot_export(P: Poset, target: str = "hasse") -> str:
    """Graphviz text; hasse mode keeps only cover edges and groups elements
    by longest-chain height for bottom-up ranking."""
    if target not in ("order", "hasse"):
        raise ValueError(f"unknown dot target {target!r}")
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(P.n):
        label = P.labels[i].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    if target == "order":
        edges = [(i, j) for i, j in P.pairs() if i != j]
    else:
        edges = P.covers()
        # height = length of the longest chain below, read off the lower
        # covers along a linear extension (down-sets by size)
        lower = [[] for _ in range(P.n)]
        for i, j in edges:
            lower[j].append(i)
        down = P.down_masks
        height = [0] * P.n
        for j in sorted(range(P.n), key=lambda x: down[x].bit_count()):
            height[j] = 1 + max((height[i] for i in lower[j]), default=-1)
        levels: dict[int, list[str]] = {}
        for i in range(P.n):
            levels.setdefault(height[i], []).append(f"n{i};")
        for level in sorted(levels):
            lines.append(f"  {{rank=same; {' '.join(levels[level])}}}")
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
