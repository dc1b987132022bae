"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: the
closure of generating pairs by Warshall's triple loop, covers, relation rows,
the up-rows, down-rows and labels of products and relation posets, and
lattice bounds on the definitions, antichains by subset search,
isomorphism and the canonical key by trying every bijection (the key also by
a search over every least prefix, merging prefixes by their codes),
factorizations by two by a partner search that tests every placed pair,
the layered down-sets of X x 2 of Lemma 5.1 point by point,
isomorphism witnesses, order-preserving maps and preimages by looping over
every pair or point, transposes and unit images by testing every bit,
dimension by combining raw linear extensions or by a set cover over them,
down-sets and prime ideals by filtering the power set, ideals, filters and
prime ideals of a given mask on their definitions, lattice tables by
searching all bounds (and checked against all bounds), built here for every
oracle that reads a meet or a join, inclusion orders by
comparing every two masks, distributivity by trying every triple, the
Birkhoff map check on every row with its down-sets counted over every
subset, the poset
axioms by looping over every pair and triple, and the enumeration of poset
classes by keying every candidate with the all-orderings key.  The lattice
classes are found by testing every poset class, with the enumeration and
the lattice test passed in.
"""

from functools import cache
from itertools import combinations, permutations, product


def brute_closure(size, pairs):
    """Reflexive-transitive closure of ``pairs`` by Warshall's loop, as
    up-rows (bit j of row i set iff i <= j): ``(rows, None)``, or
    ``(None, (i, j))`` for the first i != j in lexicographic order that
    reach each other."""
    up = [1 << i for i in range(size)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(size):
        for i in range(size):
            if (up[i] >> k) & 1:
                up[i] |= up[k]
    for i in range(size):
        for j in range(size):
            if j != i and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                return None, (i, j)
    return up, None


def brute_check_axioms(P):
    """Rows inside range(n), then reflexivity, antisymmetry and transitivity
    of P's rows, pair by pair and triple by triple."""
    n = P.n
    for i in range(n):
        if P.up[i] >> n or not P.leq(i, i):
            return False
        for j in range(n):
            if i != j and P.leq(i, j) and P.leq(j, i):
                return False
            for k in range(n):
                if P.leq(i, j) and P.leq(j, k) and not P.leq(i, k):
                    return False
    return True


def brute_covers(P):
    """Pairs i < j, in lexicographic order, with no k strictly between."""
    n = P.n
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and P.leq(i, j)
        and not any(
            k not in (i, j) and P.leq(i, k) and P.leq(k, j) for k in range(n)
        )
    ]


def brute_relation_rows(P):
    """Up-rows of the related pairs of P, listed lexicographically, under
    the coordinatewise order."""
    prs = [(a, b) for a in range(P.n) for b in range(P.n) if P.leq(a, b)]
    return [
        sum(
            1 << k
            for k, (c, d) in enumerate(prs)
            if P.leq(a, c) and P.leq(b, d)
        )
        for a, b in prs
    ]


def brute_pair_order(P, Q, prs):
    """Up-rows, down-rows and labels of the pairs prs, (a, b) with a in P
    and b in Q, under the coordinatewise order, in list order: each pair
    compared with every pair by ``leq``."""
    up = [
        sum(1 << k for k, (c, d) in enumerate(prs) if P.leq(a, c) and Q.leq(b, d))
        for a, b in prs
    ]
    down = [
        sum(1 << k for k, (c, d) in enumerate(prs) if P.leq(c, a) and Q.leq(d, b))
        for a, b in prs
    ]
    return up, down, [f"({P.labels[a]},{Q.labels[b]})" for a, b in prs]


def brute_first_missing_bound(P):
    """The first defect that keeps P from being a bounded lattice: "bottom"
    or "top" when that element is missing, else the first pair a <= b (by
    index, lexicographically) with no greatest lower bound or, failing that,
    no least upper bound, as ``((a, b), what)``; None for a lattice."""
    n = P.n
    for missing, holds in (("bottom", lambda m, x: P.leq(m, x)),
                           ("top", lambda m, x: P.leq(x, m))):
        if not any(all(holds(m, x) for x in range(n)) for m in range(n)):
            return missing
    for a in range(n):
        for b in range(a, n):
            lower = [m for m in range(n) if P.leq(m, a) and P.leq(m, b)]
            if not any(all(P.leq(x, m) for x in lower) for m in lower):
                return (a, b), "greatest lower bound"
            upper = [j for j in range(n) if P.leq(a, j) and P.leq(b, j)]
            if not any(all(P.leq(j, x) for x in upper) for j in upper):
                return (a, b), "least upper bound"
    return None


def brute_max_antichain(P) -> int:
    best = 0

    def rec(start, chosen):
        nonlocal best
        best = max(best, len(chosen))
        for x in range(start, P.n):
            if all(not P.leq(x, y) and not P.leq(y, x) for y in chosen):
                rec(x + 1, chosen + [x])

    rec(0, [])
    return best


def brute_iso(P, Q):
    """The first bijection in lexicographic order that is an order
    isomorphism, or None."""
    if P.n != Q.n:
        return None
    for perm in permutations(range(P.n)):
        if all(
            P.leq(i, j) == Q.leq(perm[i], perm[j])
            for i in range(P.n)
            for j in range(P.n)
        ):
            return perm
    return None


def brute_iso_valid(w, P, Q):
    """Whether the witness w is an order isomorphism P -> Q: its forward and
    backward maps are inverse bijections, and i <= j iff forward[i] <=
    forward[j], pair by pair."""
    n = P.n
    if Q.n != n or len(w.forward) != n or len(w.backward) != n:
        return False
    if sorted(w.forward) != list(range(n)):
        return False
    if any(w.backward[w.forward[i]] != i for i in range(n)):
        return False
    return all(
        P.leq(i, j) == Q.leq(w.forward[i], w.forward[j])
        for i in range(n)
        for j in range(n)
    )


def partner_factor_by_two(P, blocks):
    """The first (block, pairing, factor) with P isomorphic to factor x 2,
    or None: for each block of n/2 points in the given order (down-sets of
    P), partners above the block's elements are placed by a recursive
    search that tests every placed pair with ``leq``, so that the top half
    is an isomorphic copy and cross relations mirror the bottom half."""
    n = P.n
    if n == 0 or n % 2:
        return None
    half = n // 2
    for B in blocks:
        belems = [x for x in range(n) if (B >> x) & 1]
        if len(belems) != half:
            continue
        celems = [x for x in range(n) if not (B >> x) & 1]
        partner = [-1] * half
        used = [False] * half

        def rec(t):
            if t == half:
                return True
            b = belems[t]
            for ci, c in enumerate(celems):
                if used[ci] or not P.leq(b, c):
                    continue
                if all(
                    P.leq(b, b2) == P.leq(c, c2)
                    and P.leq(b2, b) == P.leq(c2, c)
                    and P.leq(b, c2) == P.leq(b, b2)
                    and P.leq(b2, c) == P.leq(b2, b)
                    for b2, c2 in zip(belems[:t], partner)
                ):
                    partner[t] = c
                    used[ci] = True
                    if rec(t + 1):
                        return True
                    used[ci] = False
            return False

        if rec(0):
            return B, tuple(partner), P.induced(belems)
    return None


def brute_first_order_violation(X, Y, g):
    """The first (a, b) in lexicographic order with a <= b in X but g[a] not
    below g[b] in Y, or None when g is order-preserving."""
    for a in range(X.n):
        for b in range(X.n):
            if X.leq(a, b) and not Y.leq(g[a], g[b]):
                return (a, b)
    return None


def brute_preimage(g, mask):
    """The points x with g[x] in mask, as a bitmask, one point at a time."""
    pre = 0
    for x in range(len(g)):
        if (mask >> g[x]) & 1:
            pre |= 1 << x
    return pre


def brute_transpose(rows, width):
    """Bit i of entry j is set iff bit j of rows[i] is, for j < width."""
    return [
        sum(1 << i for i, row in enumerate(rows) if (row >> j) & 1)
        for j in range(width)
    ]


def brute_unit_images(masks, width):
    """For each a < width, the positions k with a outside masks[k], one
    mask at a time: the unit image of a."""
    out = []
    for a in range(width):
        image = 0
        for k, m in enumerate(masks):
            if not (m >> a) & 1:
                image |= 1 << k
        out.append(image)
    return out


def brute_canonical_key(P):
    """The least chunk tuple over all orderings of P's elements, where the
    i-th chunk packs two bits (earlier <= new, new <= earlier) against each
    earlier element in order, and the least ordering that reaches it."""
    best = None
    for perm in permutations(range(P.n)):
        key = ordering_chunks(P, perm)
        if best is None or key < best[0]:
            best = (key, perm)
    return best


def ordering_chunks(P, perm):
    """The chunk tuple of the ordering ``perm`` of P's elements: the i-th
    chunk packs two bits (earlier <= new, new <= earlier) against each
    earlier element in order."""
    key = []
    for i, v in enumerate(perm):
        c = 0
        for p in perm[:i]:
            c = (c << 2) | (P.leq(p, v) << 1) | P.leq(v, p)
        key.append(c)
    return tuple(key)


def frontier_canonical_key(P):
    """``brute_canonical_key`` by a prefix-frontier search, for posets past
    the reach of trying every ordering.

    Level by level it keeps every prefix with the least chunks so far,
    merging prefixes that leave the same elements with the same codes (the
    first in prefix order stays).  A prefix carries every element's code
    against it in one integer, a 2n-bit field per element: placing v
    shifts all the codes by two bits and ors in each element's two bits
    against v.  Twins, elements with the same strict up- and down-sets,
    are placed in index order; swapping two is an automorphism, so the
    least ordering that reaches the key does so too."""
    n = P.n
    if n == 0:
        return (), ()
    below = [[u for u in range(n) if P.leq(u, v)] for v in range(n)]
    above = [[u for u in range(n) if P.leq(v, u)] for v in range(n)]
    width = 2 * n
    field = (1 << width) - 1
    row = []  # each element u's bits against a placed v: (v <= u), (u <= v)
    for v in range(n):
        row.append(sum(2 << (width * u) for u in above[v])
                   | sum(1 << (width * u) for u in below[v]))
    twins = {}
    for v in range(n):
        strict = (frozenset(above[v]) - {v}, frozenset(below[v]) - {v})
        twins.setdefault(strict, []).append(v)
    after = [0] * n  # the twin that becomes placeable once v is placed
    ready = 0
    for cls in twins.values():
        ready |= 1 << cls[0]
        for u, w in zip(cls, cls[1:]):
            after[u] = 1 << w
    # states (prefix, placeable elements, live fields, codes), in prefix order
    frontier = [((), ready, (1 << (width * n)) - 1, 0)]
    chunks = []
    for _ in range(n):
        best, ties = field + 1, []
        for state in frontier:
            for v in range(n):
                if (state[1] >> v) & 1:
                    code = (state[3] >> (width * v)) & field
                    if code < best:
                        best, ties = code, [(state, v)]
                    elif code == best:
                        ties.append((state, v))
        chunks.append(best)
        seen, frontier = set(), []
        for (pre, ready, live, codes), v in ties:
            live_v = live & ~(field << (width * v))
            codes_v = ((codes << 2) | row[v]) & live_v
            if (live_v, codes_v) not in seen:
                seen.add((live_v, codes_v))
                frontier.append(
                    (pre + (v,), (ready ^ (1 << v)) | after[v], live_v, codes_v)
                )
    return tuple(chunks), frontier[0][0]


def brute_linear_extensions(P):
    """All total orders containing P's order, as position arrays."""
    out = []
    for perm in permutations(range(P.n)):
        pos = [0] * P.n
        for rank, x in enumerate(perm):
            pos[x] = rank
        if all(
            pos[i] <= pos[j]
            for i in range(P.n)
            for j in range(P.n)
            if P.leq(i, j)
        ):
            out.append(tuple(pos))
    return out


def brute_dimension(P) -> int:
    exts = brute_linear_extensions(P)

    def realizes(subset):
        for a in range(P.n):
            for b in range(P.n):
                if a != b and not P.leq(a, b):
                    if all(pos[a] < pos[b] for pos in subset):
                        return False
        return True

    for k in range(1, len(exts) + 1):
        for subset in combinations(exts, k):
            if realizes(subset):
                return k
    raise AssertionError("no realizer found")


def cover_dimension(P) -> int:
    """Least number of linear extensions covering every ordered incomparable
    pair (a, b) with one that places b below a: extensions that reverse the
    same pairs count once, only those reversing a maximal set are kept, and
    the cover is found by iterative deepening on the first uncovered pair."""
    n = P.n
    ipairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and not P.leq(a, b) and not P.leq(b, a)
    ]
    if not ipairs:
        return 1
    below = [
        sum(1 << y for y in range(n) if y != x and P.leq(y, x)) for x in range(n)
    ]
    masks = set()
    pos = [0] * n

    def extend(placed, depth):
        if depth == n:
            m = 0
            for k, (a, b) in enumerate(ipairs):
                if pos[b] < pos[a]:
                    m |= 1 << k
            masks.add(m)
            return
        for x in range(n):
            if not (placed >> x) & 1 and below[x] & ~placed == 0:
                pos[x] = depth
                extend(placed | 1 << x, depth + 1)

    extend(0, 0)
    maximal = []  # a strict superset has more bits, so it comes first
    for m in sorted(masks, key=lambda m: -m.bit_count()):
        if all(m | m2 != m2 for m2 in maximal):
            maximal.append(m)
    masks = sorted(maximal)
    full = (1 << len(ipairs)) - 1
    cover_by = [[m for m in masks if (m >> k) & 1] for k in range(len(ipairs))]

    def dfs(covered, depth):
        if covered == full:
            return True
        if depth == 0:
            return False
        rest = ~covered & full
        k = (rest & -rest).bit_length() - 1
        return any(dfs(covered | m, depth - 1) for m in cover_by[k])

    k = 1
    while not dfs(0, k):
        k += 1
    return k


def brute_down_sets(P):
    """Down-sets by filtering all subsets; bitmasks sorted ascending."""
    out = []
    for mask in range(1 << P.n):
        ok = True
        for a in range(P.n):
            if (mask >> a) & 1:
                for x in range(P.n):
                    if P.leq(x, a) and not (mask >> x) & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(mask)
    return out


def brute_layered_down_set(d, e, n):
    """The down-set of X x 2, X of n points and (x, c) at index 2x + c,
    that holds (x, 1) for each x in d and (x, 0) for each x in e, set one
    point at a time: the image of the pair d <= e under Lemma 5.1."""
    mask = 0
    for x in range(n):
        if (d >> x) & 1:
            mask |= 1 << (2 * x + 1)
        if (e >> x) & 1:
            mask |= 1 << (2 * x)
    return mask


@cache
def lattice_tables(up):
    """``brute_meet_join`` of the lattice order with these up-rows,
    computed once per order and shared by every caller, so kept as tuples:
    a caller that needs to change them copies them first."""
    meet, join = brute_meet_join(_Rows(up))
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def brute_prime_ideals(L):
    """Prime ideals by filtering all subsets against the definition: a
    nonempty proper down-set closed under joins whose complement is closed
    under meets; bitmasks sorted ascending."""
    n = L.n
    meet, join = lattice_tables(L.order.up)
    out = []
    for mask in range(1, (1 << n) - 1):
        inside = [a for a in range(n) if (mask >> a) & 1]
        outside = [a for a in range(n) if not (mask >> a) & 1]
        if (
            all(not L.leq(x, a) for a in inside for x in outside)
            and all((mask >> join[a][b]) & 1 for a in inside for b in inside)
            and all(
                not (mask >> meet[a][b]) & 1 for a in outside for b in outside
            )
        ):
            out.append(mask)
    return out


def is_ideal(L, mask):
    """Nonempty down-set of L closed under binary join, on the
    definition."""
    join = lattice_tables(L.order.up)[1]
    members = [a for a in range(L.n) if (mask >> a) & 1]
    return (
        bool(members)
        and all((mask >> x) & 1 for a in members for x in range(L.n)
                if L.leq(x, a))
        and all((mask >> join[a][b]) & 1 for a in members for b in members)
    )


def is_filter(L, mask):
    """Nonempty up-set of L closed under binary meet, on the definition."""
    meet = lattice_tables(L.order.up)[0]
    members = [a for a in range(L.n) if (mask >> a) & 1]
    return (
        bool(members)
        and all((mask >> x) & 1 for a in members for x in range(L.n)
                if L.leq(a, x))
        and all((mask >> meet[a][b]) & 1 for a in members for b in members)
    )


def is_prime_ideal(L, mask):
    """Proper ideal of L whose complement is closed under meet."""
    meet = lattice_tables(L.order.up)[0]
    outside = [a for a in range(L.n) if not (mask >> a) & 1]
    return (
        bool(outside)
        and is_ideal(L, mask)
        and not any((mask >> meet[a][b]) & 1 for a in outside for b in outside)
    )


def brute_meet_join(P):
    """Meet and join tables of P by searching all bounds of each pair, or
    None when some pair lacks a greatest lower or a least upper bound."""
    n = P.n
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [m for m in range(n) if P.leq(m, a) and P.leq(m, b)]
            upper = [j for j in range(n) if P.leq(a, j) and P.leq(b, j)]
            glb = [m for m in lower if all(P.leq(x, m) for x in lower)]
            lub = [j for j in upper if all(P.leq(j, x) for x in upper)]
            if not glb or not lub:
                return None
            meet[a][b], join[a][b] = glb[0], lub[0]
    return meet, join


def brute_first_failing_triple(meet, join):
    """First (a, b, c) in lexicographic order with a meet (b join c) unequal
    to (a meet b) join (a meet c), or None when the tables distribute."""
    n = len(meet)
    for a, b, c in product(range(n), repeat=3):
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
            return (a, b, c)
    return None


def brute_check_tables(P, meet, join, bottom, top):
    """The first defect of lattice tables over P, or None: "bottom" or
    "top" when that element is not least or greatest, else the first pair
    (a, b) whose meet is not its greatest lower bound or whose join is not
    its least upper bound, else the first triple that does not distribute."""
    n = P.n
    if not all(P.leq(bottom, x) for x in range(n)):
        return "bottom"
    if not all(P.leq(x, top) for x in range(n)):
        return "top"
    for a in range(n):
        for b in range(n):
            m, j = meet[a][b], join[a][b]
            lower = [x for x in range(n) if P.leq(x, a) and P.leq(x, b)]
            upper = [x for x in range(n) if P.leq(a, x) and P.leq(b, x)]
            if m not in lower or not all(P.leq(x, m) for x in lower):
                return (a, b), "greatest lower bound"
            if j not in upper or not all(P.leq(j, x) for x in upper):
                return (a, b), "least upper bound"
    triple = brute_first_failing_triple(meet, join)
    return None if triple is None else (triple, "distributivity")


def table_hom_defect(L, K, mapping):
    """The first defect of a map L -> K by a scan of the meet and join
    tables: ("bottom", L.bottom) or ("top", L.top) when a bound is not kept,
    else the first pair a <= b, in lexicographic order, whose meet, then
    join, is not kept, as ("meet", (a, b)) or ("join", (a, b)); None for a
    (0,1)-homomorphism."""
    if mapping[L.bottom] != K.bottom:
        return ("bottom", L.bottom)
    if mapping[L.top] != K.top:
        return ("top", L.top)
    l_meet, l_join = lattice_tables(L.order.up)
    k_meet, k_join = lattice_tables(K.order.up)
    for a in range(L.n):
        for b in range(a, L.n):
            if mapping[l_meet[a][b]] != k_meet[mapping[a]][mapping[b]]:
                return ("meet", (a, b))
            if mapping[l_join[a][b]] != k_join[mapping[a]][mapping[b]]:
                return ("join", (a, b))
    return None


def brute_inclusion_order(masks):
    """Up-rows of the bitmasks under inclusion, in list order: bit j of
    row i is set iff masks[i] is a subset of masks[j]."""
    return [
        sum(1 << j for j, m2 in enumerate(masks) if m & ~m2 == 0) for m in masks
    ]


class _Rows:
    """Up-rows with the ``n`` and ``leq`` that the oracles here read."""

    def __init__(self, up):
        self.n, self.up = len(up), tuple(up)

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)


def brute_enumerate_posets(n):
    """Up-rows of one poset per class on n elements, sorted by the
    all-orderings key: every n-element candidate, an (n-1)-element class
    with a new maximal element above one of its down-sets, is keyed, and
    each key is represented by the candidate relabelled along its least
    ordering."""
    if n == 0:
        return [()]
    out = {}
    for rows in brute_enumerate_posets(n - 1):
        for D in brute_down_sets(_Rows(rows)):
            cand = _Rows([r | ((D >> i) & 1) << (n - 1) for i, r in
                          enumerate(rows)] + [1 << (n - 1)])
            key, perm = brute_canonical_key(cand)
            out[key] = tuple(
                sum(1 << t for t, b in enumerate(perm) if cand.leq(a, b))
                for a in perm
            )
    return [out[k] for k in sorted(out)]


def scan_lattice_classes(enumerate_posets, is_lattice, n_max):
    """(size, idx, P) for each class P, the idx-th of
    ``enumerate_posets(size)`` for size = 1..n_max, that is_lattice
    accepts: the lattice classes found by testing every poset class, in
    class order, as the library found them before it built E(X) from small
    spectra."""
    return [
        (size, idx, P)
        for size in range(1, n_max + 1)
        for idx, P in enumerate(enumerate_posets(size))
        if is_lattice(P)
    ]


def all_rows_birkhoff(P, irreducibles):
    """The Birkhoff map check with every row tested, the irreducibles' rows
    too: each up-row is the AND of the up-rows of the irreducibles below
    it, and the irreducibles have exactly n down-sets, counted over all
    their subsets."""
    J = list(irreducibles)
    full = (1 << P.n) - 1
    for a in range(P.n):
        row = full
        for j in J:
            if P.leq(j, a):
                row &= P.up[j]
        if row != P.up[a]:
            return False
    k = len(J)

    def closed(bits):
        return all(bits >> t & 1 for s in range(k) if bits >> s & 1
                   for t in range(k) if P.leq(J[t], J[s]))

    return sum(map(closed, range(1 << k))) == P.n
