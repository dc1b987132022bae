"""Finite posets as fully-closed boolean relations over small ground sets.

The relation is stored row-wise as integer bitmasks: bit j of ``up[i]`` is set
iff i <= j.  Everything downstream (lattices, spectra, searches) works on
these masks, so the n <= ~20 regime stays fast in pure Python.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter

from .errors import (
    AntisymmetryViolation,
    CapExceeded,
    EmptyPosetError,
    InternalError,
)

DEFAULT_MAX_SIZE = 1024
DEFAULT_DOWNSET_COUNT_CAP = 100_000
DEFAULT_DIMENSION_CAP = 10
DEFAULT_HOM_CAP = 6
ENUMERATION_CAP = 7


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the digits of a binary string as the bytes 0 and 1, for ``compress``
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int, items):
    """``items[j]`` for each set bit j of mask, ascending; every bit must
    index items.

    A dense mask is written out as its binary string, last bit first, whose
    digits pick from items in C; a sparse one, whose few bits would not pay
    for a string as long as the mask, is walked bit by bit."""
    if mask.bit_count() * 16 < mask.bit_length():
        return map(items.__getitem__, _bits(mask))
    return compress(items, format(mask, "b")[::-1].encode().translate(_DIGITS))


def _pullback(g, width: int):
    """The preimage map ``mask -> {x : g[x] in mask}`` of g, for masks over
    range(width); every g[x] must lie in range(width), and bits at or above
    width are ignored.

    A mask is written out as its width-digit binary string, in which bit v is
    character width-1-v; one itemgetter picks g's characters, last x first,
    and the joined string is read back as the preimage.  So a row costs a few
    C-level string steps, not a Python step per bit."""
    if not g:
        return lambda mask: 0
    full = (1 << width) - 1
    spec = f"0{width}b"
    pick = itemgetter(*[width - 1 - v for v in reversed(g)])

    def pull(mask: int) -> int:
        return int("".join(pick(format(mask & full, spec))), 2)

    return pull


def _transpose(rows, width: int) -> list[int]:
    """``out[j]`` is the mask of the i whose row holds bit j; every row must
    lie in range(width).

    Dense rows are written out as width-digit binary strings, last row
    first, and joined; column j is then every width-th character, from
    character width-1-j, read back with one ``int``.  That costs about a
    step per row, two per column and one per 64 characters; a sparse
    input, costing less than that in set bits, is walked bit by bit."""
    n = len(rows)
    if sum(map(int.bit_count, rows)) < 16 + n + 2 * width + n * width // 64:
        out = [0] * width
        for i, row in enumerate(rows):
            bit = 1 << i
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return out
    spec = f"0{width}b"
    text = "".join([format(row, spec) for row in reversed(rows)])
    return [int(text[c::width], 2) for c in range(width - 1, -1, -1)]


class _Names:
    """Element names built on first read: ``build(*args)`` returns them as
    a tuple, once, and the recipe is then dropped, so the parent's names it
    read are not held twice.  The view equals that tuple either way round,
    and hashes, iterates, indexes and prints as it does, so a poset named
    through one equals and hashes as the same poset named eagerly.  Derived
    posets name their elements this way: a scan that reads no name builds
    none."""

    __slots__ = ("_recipe", "_names")

    def __init__(self, build, *args):
        self._recipe = (build, args)
        self._names = None

    @property
    def names(self) -> tuple[str, ...]:
        if self._names is None:
            build, args = self._recipe
            self._names = build(*args)
            self._recipe = None
        return self._names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, k):
        return self.names[k]

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        if type(other) is _Names:
            other = other.names
        if isinstance(other, tuple):
            return self.names == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return repr(self.names)


def _names_of(labels) -> tuple[str, ...]:
    """The names that labels, a tuple or a ``_Names`` view, stand for."""
    return labels.names if type(labels) is _Names else labels


class _Frozen:
    """Base of the package's immutable values.  A subclass names its fields,
    in order, in ``_fields`` and stores them into ``__dict__`` in its own
    ``__init__``, the cheapest way to build one.  Values of one class are
    equal when their fields are, and hash as the tuple of their fields; the
    repr is ``Name(field=value, ...)``.  No attribute can be assigned or
    deleted, but ``cached_property``, which writes into ``__dict__``, still
    caches."""

    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Poset(_Frozen):
    """Immutable finite poset; ``up[i]`` is the bitmask of elements >= i.
    ``labels`` is a tuple of element names, or a ``_Names`` view that equals
    one and builds it on first read."""

    _fields = ("n", "up", "labels")

    def __init__(self, n: int, up: tuple[int, ...], labels: tuple[str, ...]):
        d = self.__dict__
        d["n"] = n
        d["up"] = up
        d["labels"] = labels

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[j] is the bitmask of elements <= j."""
        return tuple(_transpose(self.up, self.n))

    @cached_property
    def iso_profile(self) -> tuple[int, ...]:
        """iso_profile[i] is the pair (|down-set of i|, |up-set of i|)
        packed as down * (n + 1) + up, which keeps pairs' equality and
        order.  Packed, a cached profile costs one tuple: up to n = 15 its
        entries are CPython's shared small ints."""
        base = self.n + 1
        return tuple(
            d.bit_count() * base + u.bit_count()
            for d, u in zip(self.down_masks, self.up)
        )

    @cached_property
    def iso_invariant(self) -> tuple[int, ...]:
        """The sorted profile: equal for isomorphic posets.  It fixes the
        relation count, the sum of the up-set sizes."""
        return tuple(sorted(self.iso_profile))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def strict_up(self, i: int) -> int:
        return self.up[i] & ~(1 << i)

    def relation_count(self) -> int:
        return sum(map(int.bit_count, self.up))

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
        its own up-row, no bit of it lies outside range(n), and every other
        j in it has i outside its up-row and an up-row inside i's."""
        up, n = self.up, self.n
        for i in range(n):
            row = up[i]
            if row >> n or not (row >> i) & 1:
                return False
            for j in _bits(row ^ (1 << i)):
                if (up[j] >> i) & 1 or up[j] & ~row:
                    return False
        return True

    def induced(self, elems) -> "Poset":
        """Subposet on ``elems``, reindexed in the given order."""
        elems = list(elems)
        # position t's up-row is the preimage of elems[t]'s up-row
        pull = _pullback(elems, self.n)
        up = tuple(pull(self.up[a]) for a in elems)
        return Poset(len(elems), up, _Names(_picked_names, self.labels, elems))

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


def _picked_names(labels, elems) -> tuple[str, ...]:
    """The names of elems among labels, in the order given."""
    return tuple(map(_names_of(labels).__getitem__, elems))


def _with_down(n: int, up, down, labels) -> Poset:
    """The poset with these up-rows and labels, a tuple or a ``_Names``
    view, its down-rows set to ``down`` as it is built, so they are never
    transposed."""
    P = Poset(n, tuple(up), labels)
    P.__dict__["down_masks"] = tuple(down)
    return P


class IsoWitness(_Frozen):
    """Certified order isomorphism: forward/backward index bijections."""

    _fields = ("forward", "backward")

    def __init__(self, forward: tuple[int, ...], backward: tuple[int, ...]):
        d = self.__dict__
        d["forward"] = forward
        d["backward"] = backward

    @classmethod
    def from_forward(cls, forward) -> "IsoWitness":
        """A position outside range(len(forward)) is left out of
        ``backward``; ``validate`` refuses the witness."""
        forward = tuple(forward)
        backward = [0] * len(forward)
        for i, j in enumerate(forward):
            if 0 <= j < len(forward):
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
        # i <= j in P iff forward[i] <= forward[j] in Q: P's up-row of i is
        # the preimage of Q's up-row of forward[i]
        pull = _pullback(self.forward, n)
        return all(row == pull(Q.up[v]) for row, v in zip(P.up, self.forward))

    def inverse(self) -> "IsoWitness":
        return IsoWitness(self.backward, self.forward)


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
    labels = _default_labels(size) if labels is None else tuple(labels)
    if len(labels) != size:
        raise ValueError(f"{len(labels)} labels for {size} elements")
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
    return _with_down(size, up, down, labels)


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
    # 2^n passes max_size once n passes its bit length: refuse without 1 << n
    if n > max_size.bit_length():
        raise CapExceeded(f"cube {n} has 2^{n} elements, cap {max_size}")
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
    return Poset(size, tuple(up), _Names(_cube_names, n))


def _cube_names(n: int) -> tuple[str, ...]:
    """The coordinate bits of each element of cube n, as n binary digits."""
    spec = f"0{max(n, 1)}b"
    return tuple(format(i, spec) for i in range(1 << n))


def product(P: Poset, Q: Poset, max_size: int = DEFAULT_MAX_SIZE) -> Poset:
    """Coordinatewise order on P x Q; (p, q) gets index p*|Q| + q."""
    n = P.n * Q.n
    if n > max_size:
        raise CapExceeded(f"product has {n} elements, cap {max_size}")
    return _pair_order(P, Q, [(p, q) for p in range(P.n) for q in range(Q.n)])


def _pair_order(P: Poset, Q: Poset, prs) -> Poset:
    """The pairs (p, q) of prs, p in P and q in Q, under the coordinatewise
    order, in list order, each named "(p,q)" on first read; its down-rows
    are set as its up-rows are.

    The pairs above (p, q) are those whose first component is above p and
    whose second is above q: the and of the or of first[c] over c >= p and
    of second[d] over d >= q.  Down-rows likewise."""
    # first[c] / second[d]: the pairs whose first / second component is c / d
    first = [0] * P.n
    second = [0] * Q.n
    for k, (p, q) in enumerate(prs):
        first[p] |= 1 << k
        second[q] |= 1 << k

    def lift(rows, parts):
        out = []
        for row in rows:
            m = 0
            while row:
                low = row & -row
                m |= parts[low.bit_length() - 1]
                row ^= low
            out.append(m)
        return out

    above1, below1 = lift(P.up, first), lift(P.down_masks, first)
    above2, below2 = lift(Q.up, second), lift(Q.down_masks, second)
    return _with_down(
        len(prs),
        [above1[p] & above2[q] for p, q in prs],
        [below1[p] & below2[q] for p, q in prs],
        _Names(_pair_names, P.labels, Q.labels, prs),
    )


def _pair_names(first, second, prs) -> tuple[str, ...]:
    """"(p,q)" for each pair of prs, p and q written by their names among
    first and second."""
    first, second = _names_of(first), _names_of(second)
    return tuple(f"({first[p]},{second[q]})" for p, q in prs)


def down_sets(P: Poset, max_count: int = DEFAULT_DOWNSET_COUNT_CAP) -> list[int]:
    """All down-sets of P as bitmasks, sorted ascending.

    The list never holds more than 2 * max_count masks: it is refused as
    soon as it passes max_count.
    """
    result = _down_set_fold(P.down_masks, range(P.n), P.full_mask, max_count)
    result.sort()
    return result


def _down_set_fold(down, members, within: int, max_count: int) -> list[int]:
    """The down-sets, unsorted, of the subposet on members, whose mask is
    within, given the down-rows of the poset around it; refused as soon as
    there are more than max_count.

    The members are folded in along a linear extension (by down-set size),
    so only genuine down-sets are ever produced: x joins each one that
    holds the members below it."""
    result = [0]
    for x in sorted(members, key=lambda i: down[i].bit_count()):
        bit = 1 << x
        need = down[x] & within & ~bit
        result += [d | bit for d in result if d & need == need]
        if len(result) > max_count:
            raise CapExceeded(f"more than {max_count} down-sets")
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
    matching of the bipartite split graph of strict comparabilities.

    Each left vertex u in turn starts a depth-first search for an
    augmenting path, kept on an explicit stack so that it needs no
    recursion depth: ``path`` holds the left vertices from u and ``via``
    the right vertex taken out of each; a left vertex tries its unseen
    right vertices in ascending order."""
    n = P.n
    strict = [P.strict_up(i) for i in range(n)]
    match_to = [-1] * n  # right vertex -> matched left vertex
    matching = 0
    for u in range(n):
        seen = 0
        path, via = [u], []
        while path:
            rest = strict[path[-1]] & ~seen
            if not rest:
                path.pop()
                if via:
                    via.pop()
                continue
            low = rest & -rest
            seen |= low
            v = low.bit_length() - 1
            via.append(v)
            if match_to[v] == -1:
                for left, right in zip(path, via):
                    match_to[right] = left
                matching += 1
                break
            path.append(match_to[v])
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
        rank = sorted(range(P.n), key=lambda x: (down[x].bit_count(), x))
        above = 0
        for x in reversed(rank):
            above |= 1 << x
            meet[x] &= above
    if len(classes) != k or tuple(meet) != P.up:
        raise InternalError("critical-pair split failed to realize the order")
    return k


def is_isomorphic(P: Poset, Q: Poset) -> IsoWitness | None:
    """First order isomorphism in lexicographic search order, or None;
    element i may go only to an element of Q with its (down-size, up-size)
    profile."""
    if Q.n != P.n or P.iso_invariant != Q.iso_invariant:
        return None
    slots: dict[int, list[int]] = {}
    for c, prof in enumerate(Q.iso_profile):
        slots.setdefault(prof, []).append(c)
    return _extend(P, Q, [slots[prof] for prof in P.iso_profile])


def _extend(P: Poset, Q: Poset, cands) -> IsoWitness | None:
    """First order isomorphism P -> Q that sends each i into the list
    ``cands[i]``, in lexicographic search order, or None; P and Q must have
    the same size.

    Backtracks over the images of 0..n-1 with an explicit stack, so it needs
    no recursion depth.  At depth i, i's up- and down-rows among 0..i-1 are
    mapped through the images placed so far, once; a candidate c fits iff
    Q's rows of c, cut to those images, are the mapped rows.  An image
    already used never fits, since it would be both above and below i.
    """
    n = P.n
    p_up, p_down = P.up, P.down_masks
    q_up, q_down = Q.up, Q.down_masks
    forward = [0] * n
    tried = [0] * n  # candidates of cands[i] tried at depth i; 0 on entry
    want = [(0, 0)] * n  # i's rows among 0..i-1, mapped by forward
    used = 0  # images of 0..i-1
    i = 0
    while i < n:
        t = tried[i]
        if t == 0:
            before = (1 << i) - 1
            w_up = w_down = 0
            for k in _bits(p_up[i] & before):
                w_up |= 1 << forward[k]
            for k in _bits(p_down[i] & before):
                w_down |= 1 << forward[k]
            want[i] = (w_up, w_down)
        else:
            w_up, w_down = want[i]
        cs = cands[i]
        while t < len(cs):
            c = cs[t]
            t += 1
            if q_up[c] & used == w_up and q_down[c] & used == w_down:
                forward[i] = c
                tried[i] = t
                used |= 1 << c
                i += 1
                break
        else:
            tried[i] = 0
            if i == 0:
                return None
            i -= 1
            used ^= 1 << forward[i]
    return IsoWitness.from_forward(forward)


def _twin_classes(P: Poset) -> list[list[int]]:
    """P's elements grouped by (strict up-set, strict down-set), each class
    in index order, classes in order of their least element.  Permuting a
    class's members, its twins, is an automorphism of P."""
    up, down = P.up, P.down_masks
    twins: dict[tuple[int, int], list[int]] = {}
    for v in range(P.n):
        twins.setdefault((up[v] ^ (1 << v), down[v] ^ (1 << v)), []).append(v)
    return list(twins.values())


def canonical_key(P: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical encoding of P's relation matrix, and a permutation realizing
    it (``perm[i]`` = element placed at position i): the chunks found by
    ``_canonical_chunks``, and the least ordering its last states hold.

    The encoding is the least, over all orderings of P's elements, of the
    chunk tuple: the i-th chunk has a base-4 digit for each earlier element,
    in placement order, 2 if it is below the i-th, 1 if above, 0 if
    incomparable.  ``perm`` is the least ordering that reaches it.  The
    search keeps, level by level, every ordering with the least chunks so
    far; minimizing greedily per level is exact for this lexicographic
    order.

    Antichain start: a chunk is 0 exactly when its element is incomparable
    to every earlier one, so the least key opens with w zero chunks, w the
    width, and the orderings that reach them are those of the maximum
    antichains.  These are grown from masks in index order, and no code is
    read.

    Cells: the orderings kept are held as states, each an ordered partition
    of the placed elements into cells; the state stands for every ordering
    that keeps the cells in order and orders each cell's members freely.
    Each cell is an antichain, and all pairs drawn from two given cells
    relate alike, so all those orderings have the same chunks: a chunk
    repeats one digit over each earlier cell, then reads 0 for the members
    of its own cell placed before it.  Over them, a candidate v's least
    code writes each cell's digits sorted: 0s, then 1s for the members
    above v, then 2s for those below.  Placing v keeps exactly the
    orderings that reach that code: each cell splits into its 0-part and
    then the rest, which is its 1- or its 2-part, as no member of an
    antichain is below v and another above.  v joins the last cell when
    it is incomparable to every member and relates to everything placed
    before that cell as the members do, since then it may stand anywhere
    in the cell; otherwise it opens a new one.  States with equal cells
    are the same orderings and merge.

    Twins, distinct elements with the same strict up-set and the same
    strict down-set, are placed in index order: an element waits while a
    lower twin is unplaced.  Swapping two twins is an automorphism, so a
    permutation placing a twin before a lower one has the same chunks as
    the lexicographically smaller one with the two swapped.  The least
    key-optimal permutation therefore places twins in order, and each of
    its prefixes lies in a kept state.  So ``perm`` is the least, over the
    last states, of their cells read in order, each in ascending index
    order.
    """
    chunks, states = _canonical_chunks(P)
    perm = min(
        tuple(v for C in cells for v in _bits(C)) for cells, _, _ in states
    )
    return chunks, perm


def _canonical_chunks(P: Poset) -> tuple[tuple[int, ...], list]:
    """The chunk search of ``canonical_key``: the key, and the last states
    (cells, placed elements, placeable elements), which hold exactly the
    orderings that reach it."""
    n = P.n
    up, down = P.up, P.down_masks
    # ones[k]: k digits of 1; a cell's sorted digits with b ones and c twos
    # read ones[b + c] + ones[c]
    ones = [((1 << 2 * k) - 1) // 3 for k in range(n + 1)]
    after = [0] * n  # the twin that becomes placeable once v is placed
    ready = 0
    for cls in _twin_classes(P):
        ready |= 1 << cls[0]
        for u, w in zip(cls, cls[1:]):
            after[u] = 1 << w
    # antichains (members, placeable, addable), one size per level; v is
    # addable when incomparable to every member and above the largest
    level = [(0, ready, (1 << n) - 1)]
    while True:
        grown = []
        for S, ready, free in level:
            rest = free & ready
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                grown.append((S | low, (ready ^ low) | after[v],
                              free & ~(up[v] | down[v]) & -low))
        if not grown:
            break
        level = grown
    # states (cells, placed elements, placeable elements)
    frontier = [((S,), S, ready) for S, ready, _ in level]
    chunks = [0] * level[0][0].bit_count()
    for k in range(len(chunks), n):
        best = 1 << (2 * k)  # above every code of k digits
        ties = []  # (state, v) whose code is best
        for state in frontier:
            cells = state[0]
            rest = state[2]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                d = down[v]
                ud = up[v] | d
                code = 0
                for C in cells:
                    code = (code << 2 * C.bit_count()) | (
                        ones[(C & ud).bit_count()] + ones[(C & d).bit_count()]
                    )
                if code < best:
                    best = code
                    ties = [(state, v)]
                elif code == best:
                    ties.append((state, v))
        chunks.append(best)
        seen = set()
        frontier = []
        for (cells, placed, ready), v in ties:
            u, d = up[v], down[v]
            split = []
            for C in cells:
                related = C & (u | d)  # all above v or all below it
                if C ^ related:
                    split.append(C ^ related)
                if related:
                    split.append(related)
            last = cells[-1]
            x = (last & -last).bit_length() - 1  # any member speaks for all
            before = placed ^ last
            bit = 1 << v
            same = not ((up[x] ^ u) | (down[x] ^ d)) & before
            if same and not last & (u | d):
                split[-1] |= bit
            else:
                split.append(bit)
            split = tuple(split)
            if split not in seen:
                seen.add(split)
                frontier.append((split, placed | bit, (ready ^ bit) | after[v]))
    return tuple(chunks), frontier


def _kept_down_sets(Q: Poset) -> list[int]:
    """The down-sets D of Q that the enumeration grows a new maximal element
    above: those that pass two rules, each of which drops a candidate only
    when a kept one is isomorphic to it (McKay, *Isomorph-free exhaustive
    generation*, 1998).

    Twin orbit: permuting twins is an automorphism of Q, so D may be traded
    for the down-set that holds as many members of each twin class, the
    lowest-indexed ones.  Canonical parent: every class arises by deleting
    a maximal element whose down-set is largest among the maximal elements,
    so D is dropped when some maximal element of Q outside D, maximal in the
    candidate too and with the same down-set there, has a down-set larger
    than the new element's |D| + 1.  A twin permutation keeps down-set
    sizes, so together the rules still keep a candidate of every class.
    Both rules are read off masks built once per Q."""
    n = Q.n
    up, down = Q.up, Q.down_masks
    over = [0] * (n + 1)  # over[k]: maximal x with |down x| > k + 1
    for x in range(n):
        if up[x] == 1 << x:
            for k in range(down[x].bit_count() - 1):
                over[k] |= 1 << x
    twins = 0  # members of twin classes of two or more
    prefixes = {0}  # the allowed values of D & twins
    for cls in _twin_classes(Q):
        if len(cls) > 1:
            masks = [sum(1 << v for v in cls[:k]) for k in range(len(cls) + 1)]
            prefixes = {p | m for p in prefixes for m in masks}
            twins |= masks[-1]
    return [
        D
        for D in down_sets(Q)
        if D & twins in prefixes and not over[D.bit_count()] & ~D
    ]


def _decoded(key: tuple[int, ...], labels: tuple[str, ...]) -> Poset:
    """The poset whose relation matrix the chunks of ``key`` spell out, in
    canonical order.  Chunk k holds a base-4 digit for each j < k, j = 0
    most significant: 2 if j is below k, 1 if j is above k.  The down-rows
    are set with the up-rows, so the poset is never transposed: the next
    level's candidates extend them, and every suite but the fixed-point
    scan reads them."""
    n = len(key)
    up = [1 << k for k in range(n)]
    down = up[:]
    for k, code in enumerate(key):
        bit = 1 << k
        while code:
            # bit t is the high bit (digit 2) or the low bit (digit 1) of
            # the digit for j
            t = code.bit_length() - 1
            j = k - 1 - (t >> 1)
            if t & 1:
                up[j] |= bit
                down[k] |= 1 << j
            else:
                up[k] |= 1 << j
                down[j] |= bit
            code ^= 1 << t
    return _with_down(n, up, down, labels)


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[Poset, ...]:
    """The classes of ``enumerate_posets(n)``, one per canonical key over
    the kept candidates, each decoded from its key and checked against the
    poset axioms once, when it is built; n = 0 is the empty poset that
    n = 1 grows from."""
    if n == 0:
        return (Poset(0, (), ()),)
    labels = _default_labels(n)
    bit = 1 << (n - 1)
    out: dict[tuple, Poset] = {}
    for Q in _enumerate_cached(n - 1):
        for D in _kept_down_sets(Q):
            up = list(Q.up) + [bit]
            for i in _bits(D):
                up[i] |= bit
            # the new element is maximal: no old down-row gains it
            cand = _with_down(n, up, Q.down_masks + (D | bit,), labels)
            key = _canonical_chunks(cand)[0]
            if key not in out:
                out[key] = _decoded(key, labels)
    reps = tuple(out[k] for k in sorted(out))
    for P in reps:
        if not P.check_axioms():
            raise InternalError("enumeration produced an invalid poset")
    return reps


def enumerate_posets(n: int) -> list[Poset]:
    """One canonical representative per isomorphism class of n-element
    posets, sorted by canonical encoding.

    Grown by attaching a maximal element above down-sets of each
    (n-1)-element class.  A candidate that the twin-orbit or
    canonical-parent rule of ``_kept_down_sets`` shows to be isomorphic to
    a kept one is skipped before it is built.  Every other candidate is
    keyed by the chunk search of ``canonical_key``, which alone tells the
    classes apart: each new key is decoded into the representative, the
    poset whose relation matrix it spells out in canonical order, so the
    representative depends only on the class."""
    if n < 1:
        raise ValueError("enumerate_posets needs n >= 1")
    _refuse_past_enumeration_cap(n)
    return list(_enumerate_cached(n))


def _refuse_past_enumeration_cap(n: int) -> None:
    """Raise ``CapExceeded`` when classes of n points are past the
    enumeration cap."""
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"poset enumeration capped at n = {ENUMERATION_CAP}")
