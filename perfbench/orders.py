"""Order-theory helpers of the benchmark's own, on bitmask rows.

The generator builds inputs and their expected answers with these, and the
checks re-derive facts from the program's reports with them.  They share no
code with the package under test, so an answer the package gets wrong is not
confirmed by the same code path.  ``up[i]`` has bit j set iff i <= j.
"""

from __future__ import annotations


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def closure(n: int, pairs) -> list[int]:
    """Reflexive-transitive closure of ``pairs`` on 0..n-1, given pairs
    with i < j so the closure is acyclic; closed from the top down."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        if not i < j:
            raise ValueError("closure expects pairs (i, j) with i < j")
        up[i] |= 1 << j
    for i in range(n - 1, -1, -1):
        row = up[i]
        for j in bits(row & ~(1 << i)):
            row |= up[j]
        up[i] = row
    return up


def downs(up: list[int]) -> list[int]:
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in bits(row):
            down[j] |= 1 << i
    return down


def strict_pairs(up: list[int]) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(up) for j in bits(row) if j != i]


def covers(up: list[int]) -> list[tuple[int, int]]:
    """Pairs i < j with nothing strictly between: j is in the strict up-set
    of i but in no strict up-set of another element above i."""
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        above = 0
        for k in bits(strict):
            above |= up[k] & ~(1 << k)
        out.extend((i, j) for j in bits(strict & ~above))
    return out


def down_sets(up: list[int]) -> list[int]:
    """All down-sets as masks, sorted, grown from the empty set by adding one
    element whose strict down-set is already present."""
    down = downs(up)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for d in frontier:
            for x in range(len(up)):
                bit = 1 << x
                if not d & bit and down[x] & ~bit & ~d == 0 and d | bit not in seen:
                    seen.add(d | bit)
                    nxt.append(d | bit)
        frontier = nxt
    return sorted(seen)


def inclusion_order(masks: list[int]) -> list[int]:
    """Up rows of the masks ordered by inclusion, in list order."""
    return [
        sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks
    ]


def product_with_two(up: list[int]) -> list[int]:
    """X x 2 with (x, t) at index 2x + t."""
    n = len(up)
    out = []
    for x in range(n):
        for t in (0, 1):
            row = 0
            for y in bits(up[x]):
                row |= (0b11 if t == 0 else 0b10) << (2 * y)
            out.append(row)
    return out


def linear_extension_count(up: list[int]) -> int:
    """Number of linear extensions, by counting paths through the lattice of
    down-sets."""
    down = downs(up)
    ways = {0: 1}
    for d in down_sets(up):
        w = ways.get(d, 0)
        for x in range(len(up)):
            bit = 1 << x
            if not d & bit and down[x] & ~bit & ~d == 0:
                ways[d | bit] = ways.get(d | bit, 0) + w
    return ways[(1 << len(up)) - 1]


def width(up: list[int]) -> int:
    """Largest antichain, by branching on comparability-graph vertices."""
    comp = [row | d for row, d in zip(up, downs(up))]

    def best(cand: int) -> int:
        if not cand:
            return 0
        v = max(bits(cand), key=lambda x: (comp[x] & cand).bit_count())
        if (comp[v] & cand) == 1 << v:
            return 1 + best(cand & ~(1 << v))
        return max(best(cand & ~(1 << v)), 1 + best(cand & ~comp[v]))

    return best((1 << len(up)) - 1)


def is_chain(up: list[int]) -> bool:
    full = (1 << len(up)) - 1
    return all((row | d) == full for row, d in zip(up, downs(up)))


def meet_join(up: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Meet and join tables of a lattice order: the greatest lower bound is
    the lower bound whose own down-set holds every lower bound."""
    n = len(up)
    down = downs(up)
    meet = [[-1] * n for _ in range(n)]
    join = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = down[a] & down[b]
            upper = up[a] & up[b]
            meet[a][b] = next(m for m in bits(lower) if lower & ~down[m] == 0)
            join[a][b] = next(j for j in bits(upper) if upper & ~up[j] == 0)
    return meet, join


def order_from_document(doc: dict) -> list[int]:
    """Up rows of the order generated by a document's leq_pairs, closed by
    repeated relaxation (documents may list pairs in any index order)."""
    n = doc["size"]
    up = [1 << i for i in range(n)]
    for i, j in doc["leq_pairs"]:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = up[i]
            for j in bits(row):
                row |= up[j]
            if row != up[i]:
                up[i] = row
                changed = True
    return up
