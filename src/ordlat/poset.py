"""Finite posets as fully-closed boolean relations over small ground sets.

The relation is stored row-wise as integer bitmasks: bit j of ``up[i]`` is set
iff i <= j.  Everything downstream (lattices, spectra, searches) works on
these masks, so the n <= ~20 regime stays fast in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    AntisymmetryViolation,
    CapExceeded,
    EmptyPosetError,
    InternalError,
)

DEFAULT_MAX_SIZE = 1024
DEFAULT_DOWNSET_COUNT_CAP = 100_000
DEFAULT_DIMENSION_CAP = 10
ENUMERATION_CAP = 7


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset; ``up[i]`` is the bitmask of elements >= i."""

    n: int
    up: tuple[int, ...]
    labels: tuple[str, ...]

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[j] is the bitmask of elements <= j."""
        down = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
        return tuple(down)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def strict_up(self, i: int) -> int:
        return self.up[i] & ~(1 << i)

    def relation_count(self) -> int:
        return sum(_popcount(row) for row in self.up)

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs (i, j) with i <= j, in lexicographic order."""
        return [(i, j) for i in range(self.n) for j in _bits(self.up[i])]

    def is_antichain(self) -> bool:
        return all(self.up[i] == 1 << i for i in range(self.n))

    def is_chain(self) -> bool:
        return all(
            self.leq(i, j) or self.leq(j, i)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def check_axioms(self) -> bool:
        """Reflexivity, antisymmetry and transitivity, row by row: i is in
        its own up-row, and every other j in it has i outside its up-row and
        an up-row inside i's."""
        up = self.up
        for i in range(self.n):
            row = up[i]
            if not (row >> i) & 1:
                return False
            for j in _bits(row & self.full_mask & ~(1 << i)):
                if (up[j] >> i) & 1 or up[j] & ~row:
                    return False
        return True

    def induced(self, elems) -> "Poset":
        """Subposet on ``elems``, reindexed in the given order."""
        elems = list(elems)
        pos = {a: t for t, a in enumerate(elems)}
        keep = sum(1 << a for a in pos)
        up = tuple(
            sum(1 << pos[b] for b in _bits(self.up[a] & keep)) for a in elems
        )
        return Poset(len(elems), up, tuple(self.labels[a] for a in elems))

    def relabel(self, perm) -> "Poset":
        """Poset with element ``perm[i]`` placed at position i."""
        return self.induced(perm)

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j): i < j with nothing strictly between, in
        lexicographic order.  A minimal element of what is left of i's
        strict up-set is a cover of i; descend to one, then drop its
        up-set."""
        down = self.down_masks
        out = []
        for i in range(self.n):
            rem = self.strict_up(i)
            row = []
            while rem:
                below = rem
                while below:
                    j = below.bit_length() - 1
                    below = rem & down[j] & ~(1 << j)
                row.append(j)
                rem &= ~self.up[j]
            row.sort()
            out.extend((i, j) for j in row)
        return out


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class IsoWitness:
    """Certified order isomorphism: forward/backward index bijections."""

    forward: tuple[int, ...]
    backward: tuple[int, ...]

    @classmethod
    def from_forward(cls, forward) -> "IsoWitness":
        forward = tuple(forward)
        backward = [0] * len(forward)
        for i, j in enumerate(forward):
            backward[j] = i
        return cls(forward, tuple(backward))

    def validate(self, P: Poset, Q: Poset) -> bool:
        n = P.n
        if Q.n != n or len(self.forward) != n or len(self.backward) != n:
            return False
        if sorted(self.forward) != list(range(n)):
            return False
        if any(self.backward[self.forward[i]] != i for i in range(n)):
            return False
        for i in range(n):
            for j in range(n):
                if P.leq(i, j) != Q.leq(self.forward[i], self.forward[j]):
                    return False
        return True

    def inverse(self) -> "IsoWitness":
        return IsoWitness(self.backward, self.forward)

    def then(self, other: "IsoWitness") -> "IsoWitness":
        """Composite witness: self followed by other."""
        return IsoWitness.from_forward(
            tuple(other.forward[v] for v in self.forward)
        )


def poset_new(size: int, pairs, labels=None) -> Poset:
    """Build the poset generated by ``pairs``: reflexive-transitive closure,
    rejected if the closure has a cycle.

    The closure runs along a topological order of the pair graph, sinks
    first: each up-row is the element's bit or'ed with the up-rows of its
    direct successors, and each down-row likewise from the predecessors in
    the reverse order.  A cycle raises on its least element i and the least
    j != i in the same strongly connected class.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    succ = [[] for _ in range(size)]
    pred = [[] for _ in range(size)]
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"pair ({i},{j}) out of range for size {size}")
        if i != j:
            succ[i].append(j)
            pred[j].append(i)
    waiting = [len(s) for s in succ]
    order = [i for i in range(size) if not waiting[i]]
    up = [0] * size
    for k in order:  # grows while it is read
        row = 1 << k
        for j in succ[k]:
            row |= up[j]
        up[k] = row
        for i in pred[k]:
            waiting[i] -= 1
            if not waiting[i]:
                order.append(i)
    if len(order) < size:
        _raise_on_cycle(size, succ, waiting)
    down = [0] * size
    for k in reversed(order):
        row = 1 << k
        for i in pred[k]:
            row |= down[i]
        down[k] = row
    if labels is None:
        labels = _default_labels(size)
    P = Poset(size, tuple(up), tuple(labels))
    P.__dict__["down_masks"] = tuple(down)
    return P


def _raise_on_cycle(size: int, succ, waiting) -> None:
    """Close the elements the topological pass left over (each reaches a
    cycle, and only left-over elements lie on paths between them) and raise
    on the first cycle pair in lexicographic order."""
    rest = [i for i in range(size) if waiting[i]]
    reach = {}
    for i in rest:
        reach[i] = 1 << i
        for j in succ[i]:
            reach[i] |= 1 << j
    for k in rest:
        bit = 1 << k
        for i in rest:
            if reach[i] & bit:
                reach[i] |= reach[k]
    for i in rest:
        for j in _bits(reach[i]):
            if j != i and j in reach and (reach[j] >> i) & 1:
                raise AntisymmetryViolation((i, j))
    raise InternalError("topological pass stalled without a cycle")


def chain(n: int) -> Poset:
    if n < 1:
        raise ValueError("chain needs n >= 1")
    full = (1 << n) - 1
    return Poset(n, tuple((full >> i) << i for i in range(n)), _default_labels(n))


def antichain(n: int) -> Poset:
    if n < 1:
        raise ValueError("antichain needs n >= 1")
    return Poset(n, tuple(1 << i for i in range(n)), _default_labels(n))


def cube(n: int, max_size: int = DEFAULT_MAX_SIZE) -> Poset:
    """n-fold product of the two-element chain; element i has coordinate
    bits of i, ordered by bitwise containment."""
    if n < 0:
        raise ValueError("cube needs n >= 0")
    size = 1 << n
    if size > max_size:
        raise CapExceeded(f"cube {n} has {size} elements, cap {max_size}")
    up = []
    for i in range(size):
        row = 0
        for j in range(size):
            if i & ~j == 0:
                row |= 1 << j
        up.append(row)
    labels = tuple(format(i, f"0{max(n, 1)}b") for i in range(size))
    return Poset(size, tuple(up), labels)


def product(P: Poset, Q: Poset, max_size: int = DEFAULT_MAX_SIZE) -> Poset:
    """Coordinatewise order on P x Q; (p, q) gets index p*|Q| + q."""
    n = P.n * Q.n
    if n > max_size:
        raise CapExceeded(f"product has {n} elements, cap {max_size}")
    up = []
    labels = []
    for p in range(P.n):
        for q in range(Q.n):
            row = 0
            for p2 in _bits(P.up[p]):
                row |= Q.up[q] << (p2 * Q.n)
            up.append(row)
            labels.append(f"({P.labels[p]},{Q.labels[q]})")
    return Poset(n, tuple(up), tuple(labels))


def disjoint_union(P: Poset, Q: Poset) -> Poset:
    up = list(P.up) + [row << P.n for row in Q.up]
    return Poset(P.n + Q.n, tuple(up), P.labels + Q.labels)


def down_sets(P: Poset, max_count: int = DEFAULT_DOWNSET_COUNT_CAP) -> list[int]:
    """All down-sets of P as bitmasks, sorted ascending.

    Elements are folded in along a linear extension, so only genuine
    down-sets are ever produced.  The list never holds more than
    2 * max_count masks: it is refused as soon as it passes max_count.
    """
    down = P.down_masks
    topo = sorted(range(P.n), key=lambda i: (_popcount(down[i]), i))
    result = [0]
    for x in topo:
        need = down[x] & ~(1 << x)
        bit = 1 << x
        result += [d | bit for d in result if d & need == need]
        if len(result) > max_count:
            raise CapExceeded(f"more than {max_count} down-sets")
    result.sort()
    return result


def is_connected(P: Poset) -> bool:
    """True iff the comparability graph of P has a single component."""
    if P.n == 0:
        raise EmptyPosetError("connectivity undefined for the empty poset")
    down = P.down_masks
    comp = [P.up[i] | down[i] for i in range(P.n)]
    reach = 1
    while True:
        grown = reach
        for i in _bits(reach):
            grown |= comp[i]
        if grown == reach:
            return reach == P.full_mask
        reach = grown


def width(P: Poset) -> int:
    """Maximum antichain size, by minimum chain cover: n minus the maximum
    matching of the bipartite split graph of strict comparabilities."""
    n = P.n
    strict = [P.strict_up(i) for i in range(n)]
    match_to = [-1] * n  # right vertex -> matched left vertex

    def augment(u: int, seen: list[bool]) -> bool:
        for v in _bits(strict[u]):
            if not seen[v]:
                seen[v] = True
                if match_to[v] == -1 or augment(match_to[v], seen):
                    match_to[v] = u
                    return True
        return False

    matching = 0
    for u in range(n):
        if augment(u, [False] * n):
            matching += 1
    return n - matching


def _critical_pairs(P: Poset) -> list[tuple[int, int]]:
    """Incomparable pairs (a, b) with everything strictly below a below b
    and everything strictly above b above a, in lexicographic order."""
    down = P.down_masks
    out = []
    for a in range(P.n):
        for b in range(P.n):
            if a == b or P.leq(a, b) or P.leq(b, a):
                continue
            if down[a] & ~(1 << a) & ~down[b] == 0 and (
                P.strict_up(b) & ~P.up[a] == 0
            ):
                out.append((a, b))
    return out


def _reverse(rows: tuple[list[int], list[int]], a: int, b: int):
    """Up and down rows of the order generated by ``rows`` and b below a;
    the caller has checked that a is not below b."""
    up, down = list(rows[0]), list(rows[1])
    above, below = up[a], down[b]
    for x in _bits(below):
        up[x] |= above
    for y in _bits(above):
        down[y] |= below
    return up, down


def _reversible_split(P: Poset, pairs, k: int):
    """Up and down rows of at most k orders, each P with some of ``pairs``
    reversed, that together reverse every pair; None if there are none.

    Backtracks over the pairs in list order.  A pair already reversed by
    some class is left there, since placing it costs that class nothing;
    a pair opens a new class only as the lowest unused one.
    """
    classes: list[tuple[list[int], list[int]]] = []
    base = (list(P.up), list(P.down_masks))

    def place(i: int) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]
        if any((up[b] >> a) & 1 for up, _ in classes):
            return place(i + 1)
        for c, rows in enumerate(classes):
            if not (rows[0][a] >> b) & 1:
                classes[c] = _reverse(rows, a, b)
                if place(i + 1):
                    return True
                classes[c] = rows
        if len(classes) < k:
            classes.append(_reverse(base, a, b))
            if place(i + 1):
                return True
            classes.pop()
        return False

    return classes if place(0) else None


def order_dimension(P: Poset, cap: int = DEFAULT_DIMENSION_CAP) -> int:
    """Least k such that k linear extensions intersect to exactly the order.

    A family of linear extensions realizes P iff it reverses every critical
    pair (a, b): a and b incomparable, everything strictly below a is below
    b, and everything strictly above b is above a.  So the dimension is the
    least k for which the critical pairs split into k reversible sets, sets
    that P with all their pairs reversed still orders acyclically (Trotter,
    *Combinatorics and Partially Ordered Sets*, 1992).  Each class's order
    is extended to a linear one, and the k orders are checked to intersect
    to P before k is returned.
    """
    if P.n == 0:
        raise EmptyPosetError("dimension undefined for the empty poset")
    if P.n > cap:
        raise CapExceeded(f"|P| = {P.n} exceeds dimension cap {cap}")
    pairs = _critical_pairs(P)
    if not pairs:
        return 1
    k = 2
    while (classes := _reversible_split(P, pairs, k)) is None:
        k += 1
    meet = [P.full_mask] * P.n
    for _, down in classes:
        # x below y in the class leaves fewer elements below x than below y
        rank = sorted(range(P.n), key=lambda x: (_popcount(down[x]), x))
        above = 0
        for x in reversed(rank):
            above |= 1 << x
            meet[x] &= above
    if len(classes) != k or tuple(meet) != P.up:
        raise InternalError("critical-pair split failed to realize the order")
    return k


def _iso_profile(P: Poset) -> list[tuple[int, int]]:
    down = P.down_masks
    return [(_popcount(down[i]), _popcount(P.up[i])) for i in range(P.n)]


def is_isomorphic(P: Poset, Q: Poset) -> IsoWitness | None:
    """First order isomorphism in lexicographic search order, or None.

    Backtracking over images of 0..n-1 with (down-size, up-size) invariant
    pruning; deterministic.
    """
    n = P.n
    if Q.n != n:
        return None
    if P.relation_count() != Q.relation_count():
        return None
    ip, iq = _iso_profile(P), _iso_profile(Q)
    if sorted(ip) != sorted(iq):
        return None
    forward = [-1] * n
    used = [False] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        for c in range(n):
            if used[c] or ip[i] != iq[c]:
                continue
            ok = True
            for k in range(i):
                if P.leq(k, i) != Q.leq(forward[k], c) or P.leq(i, k) != Q.leq(
                    c, forward[k]
                ):
                    ok = False
                    break
            if ok:
                forward[i] = c
                used[c] = True
                if rec(i + 1):
                    return True
                used[c] = False
        return False

    if not rec(0):
        return None
    return IsoWitness.from_forward(forward)


def canonical_key(P: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical encoding of P's relation matrix, and a permutation realizing
    it (``perm[i]`` = element placed at position i).

    The encoding minimizes, level by level, the integer chunk of relation
    bits each newly placed element contributes against all earlier ones;
    minimizing greedily per level is exact for this lexicographic order.
    Frontier prefixes with identical remainders are merged, which keeps
    highly symmetric posets (antichains) polynomial.

    Each frontier prefix carries every element's code, its chunk against
    the prefix so far, packed into one integer with a fixed-width field per
    element.  Placing v shifts all the codes by two bits at once and ors in
    a table row holding every element's two bits against v.  A candidate's
    chunk is its code, and a prefix's remainder is the codes of its
    unplaced elements, the other fields being cleared.

    Twins, distinct elements with the same strict up-set and the same
    strict down-set, are placed in index order: an element waits while a
    lower twin is unplaced.  Swapping two twins is an automorphism, so a
    permutation placing a twin before a lower one has the same chunks as
    the lexicographically smaller one with the two swapped.  The least
    key-optimal permutation therefore places twins in order; every prefix
    of it stays on the frontier, and the key and ``perm`` are exactly
    those of the search without the rule.
    """
    n = P.n
    if n == 0:
        return (), ()
    up, down = P.up, P.down_masks
    width = 2 * n  # bits per code field; a code gains two per placement
    field = (1 << width) - 1
    # row[v]: each element u's bits against a placed v, (v <= u) then (u <= v)
    row = [0] * n
    for v in range(n):
        for u in range(n):
            bits = ((up[v] >> u) & 1) << 1 | ((down[v] >> u) & 1)
            row[v] |= bits << (width * u)
    twins: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        twins.setdefault((up[v] ^ (1 << v), down[v] ^ (1 << v)), []).append(v)
    after = [()] * n  # the twin that becomes placeable once v is placed
    for cls in twins.values():
        for u, w in zip(cls, cls[1:]):
            after[u] = (w,)
    ready = tuple(sorted(cls[0] for cls in twins.values()))
    # frontier states (prefix, placeable elements, live fields, codes), in
    # prefix order
    frontier = [((), ready, (1 << (width * n)) - 1, 0)]
    chunks = []
    for _ in range(n):
        best = min(
            (codes >> (width * v)) & field
            for _, ready, _, codes in frontier
            for v in ready
        )
        chunks.append(best)
        seen = set()
        nxt = []
        for pre, ready, live, codes in frontier:
            for v in ready:
                if (codes >> (width * v)) & field != best:
                    continue
                live_v = live & ~(field << (width * v))
                codes_v = ((codes << 2) | row[v]) & live_v
                if (live_v, codes_v) in seen:
                    continue
                seen.add((live_v, codes_v))
                ready_v = sorted([u for u in ready if u != v] + list(after[v]))
                nxt.append((pre + (v,), tuple(ready_v), live_v, codes_v))
        frontier = nxt
    # no field is live after the last placement, so one state is left: the
    # first, smallest prefix to reach the key
    return tuple(chunks), frontier[0][0]


def canonical_form(P: Poset) -> Poset:
    """Canonical representative of P's isomorphism class, default labels."""
    _, perm = canonical_key(P)
    Q = P.relabel(perm)
    return Poset(Q.n, Q.up, _default_labels(Q.n))


def _iso_invariant(P: Poset) -> tuple[tuple[int, int], ...]:
    """The sorted (down-size, up-size) profile: equal for isomorphic posets,
    and compared by ``is_isomorphic`` before it searches."""
    return tuple(sorted(_iso_profile(P)))


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[Poset, ...]:
    """The classes of ``enumerate_posets(n)``, each checked against the
    poset axioms once, when it is built; n = 0 is the empty poset that
    n = 1 grows from."""
    if n == 0:
        return (Poset(0, (), ()),)
    labels = _default_labels(n)
    bit = 1 << (n - 1)
    found: dict[tuple, list[Poset]] = {}  # invariant -> classes found so far
    out: dict[tuple, Poset] = {}
    for Q in _enumerate_cached(n - 1):
        for D in down_sets(Q):
            up = list(Q.up) + [bit]
            for i in _bits(D):
                up[i] |= bit
            cand = Poset(n, tuple(up), labels)
            # the new element is maximal: no old down-row gains it
            cand.__dict__["down_masks"] = Q.down_masks + (D | bit,)
            bucket = found.setdefault(_iso_invariant(cand), [])
            if any(is_isomorphic(cand, R) is not None for R in bucket):
                continue
            key, perm = canonical_key(cand)
            if key not in out:
                out[key] = Poset(n, cand.relabel(perm).up, labels)
            bucket.append(out[key])
    reps = tuple(out[k] for k in sorted(out))
    for P in reps:
        if not P.check_axioms():
            raise InternalError("enumeration produced an invalid poset")
    return reps


def enumerate_posets(n: int) -> list[Poset]:
    """One canonical representative per isomorphism class of n-element
    posets, sorted by canonical encoding.

    Grown by attaching a maximal element above each down-set of each
    (n-1)-element class.  Each such candidate goes into a bucket keyed by
    its sorted (down-size, up-size) profile, and is dropped when
    ``is_isomorphic`` matches it to a class already found there.  So
    ``canonical_key`` runs once per class, on the first candidate of the
    class; the representative is that candidate relabelled into canonical
    order, which depends only on the class."""
    if n < 1:
        raise ValueError("enumerate_posets needs n >= 1")
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"poset enumeration capped at n = {ENUMERATION_CAP}")
    return list(_enumerate_cached(n))
