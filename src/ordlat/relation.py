"""The order-relation functor: the relation of a poset/lattice, regarded as a
structure in its own right under the coordinatewise order, together with the
prime-ideal bookkeeping, the two-copy factorization criterion for membership
in its image, and desk-scale fixed-point and dimension surveys.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import CapExceeded, InternalError, OrdlatError
from .lattice import (
    DistLattice,
    LatticeHom,
    hom_new,
    lattice_from_poset,
)
from .duality import (
    PrimeIdeal,
    _downset_lattice,
    _e_hom,
    _order_preserving,
    _spectrum,
    prime_ideals,
)
from .poset import (
    DEFAULT_DIMENSION_CAP,
    DEFAULT_MAX_SIZE,
    ENUMERATION_CAP,
    IsoWitness,
    Poset,
    _bits,
    _popcount,
    chain,
    cube,
    down_sets,
    enumerate_posets,
    is_connected,
    is_isomorphic,
    order_dimension,
    product,
    width,
)

PairMap = tuple[tuple[int, int], ...]


def relation_poset(
    P: Poset, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[Poset, PairMap]:
    """The related pairs (a, b), a <= b, of P as a poset under the
    coordinatewise order; pairs indexed lexicographically."""
    prs = P.pairs()
    m = len(prs)
    if m > max_size:
        raise CapExceeded(f"relation poset has {m} elements, cap {max_size}")
    # first[c] / second[d]: the pairs whose first / second component is c / d
    first = [0] * P.n
    second = [0] * P.n
    for k, (c, d) in enumerate(prs):
        first[c] |= 1 << k
        second[d] |= 1 << k
    # above1[a] / above2[b]: the pairs whose first / second component is
    # >= a / >= b; row (a, b) is their intersection
    above1 = [0] * P.n
    above2 = [0] * P.n
    for a in range(P.n):
        for c in _bits(P.up[a]):
            above1[a] |= first[c]
            above2[a] |= second[c]
    up = tuple(above1[a] & above2[b] for a, b in prs)
    labels = tuple(f"({P.labels[a]},{P.labels[b]})" for a, b in prs)
    return Poset(m, up, labels), tuple(prs)


def relation_lattice(
    L: DistLattice, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[DistLattice, PairMap]:
    """Relation poset of L as a bounded distributive lattice, its tables
    verified to be the componentwise operations of L x L: Phi(L) is a
    (0,1)-sublattice of L x L."""
    RP, prs = relation_poset(L.order, max_size=max_size)
    lat = lattice_from_poset(RP)
    # row k = (a, b) of a table, read through the first (second) components,
    # must be row a (b) of L's table read at the first (second) components
    p1 = tuple(a for a, _ in prs)
    p2 = tuple(b for _, b in prs)
    at1, at2 = itemgetter(*p1), itemgetter(*p2)
    for table, ltable in ((lat.meet, L.meet), (lat.join, L.join)):
        rows1 = [at1(row) for row in ltable]
        rows2 = [at2(row) for row in ltable]
        for row, (a, b) in zip(table, prs):
            proj = itemgetter(*row)
            if proj(p1) != rows1[a] or proj(p2) != rows2[b]:
                raise InternalError(
                    "relation lattice operations are not componentwise"
                )
    if (prs[lat.bottom], prs[lat.top]) != ((L.bottom,) * 2, (L.top,) * 2):
        raise InternalError("relation lattice bounds are not (0,0) and (1,1)")
    return lat, prs


def relation_hom(f: LatticeHom, max_size: int = DEFAULT_MAX_SIZE) -> LatticeHom:
    """Image of a (0,1)-hom under the relation functor: (a, b) componentwise."""
    src, sprs = relation_lattice(f.source, max_size=max_size)
    tgt, tprs = relation_lattice(f.target, max_size=max_size)
    tindex = {pr: k for k, pr in enumerate(tprs)}
    mapping = []
    for a, b in sprs:
        image = (f.mapping[a], f.mapping[b])
        if image not in tindex:
            raise InternalError("hom image left the relation carrier")
        mapping.append(tindex[image])
    return hom_new(src, tgt, mapping)


def relation_prime_ideals(
    L: DistLattice, max_size: int = DEFAULT_MAX_SIZE
) -> list[PrimeIdeal]:
    """Closed-form prime ideals of the relation lattice: for each prime
    ideal I of L, the pairs with both components in I, and the pairs with
    first component in I.  Each result is independently revalidated."""
    PhiL, prs = relation_lattice(L, max_size=max_size)
    return _closed_form_primes(PhiL, prs, prime_ideals(L))


def _closed_form_primes(PhiL, prs, ideals) -> list[PrimeIdeal]:
    masks = []
    seen = set()
    for I in ideals:
        both = 0
        first = 0
        for k, (a, b) in enumerate(prs):
            if (I.members >> a) & 1:
                first |= 1 << k
                if (I.members >> b) & 1:
                    both |= 1 << k
        for m in (both, first):
            if m not in seen:
                seen.add(m)
                masks.append(m)
    masks.sort()
    out = []
    for m in masks:
        ideal = PrimeIdeal(PhiL, m)
        if not ideal.validate():
            raise InternalError("closed-form member is not a prime ideal")
        out.append(ideal)
    return out


def verify_relation_primes(L: DistLattice, max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """Check the closed-form prime ideals of the relation lattice against
    its spectrum computed directly, and check the projection facts behind
    the formula for every prime ideal S of the relation lattice:

    - S equals (proj1(S) x proj2(S)) intersected with the relation carrier,
    - proj1(S) is prime and proj2(S) is prime or everything,
    - proj2(S) is proj1(S) or everything.
    """
    PhiL, prs = relation_lattice(L, max_size=max_size)
    ideals = prime_ideals(L)
    direct = prime_ideals(PhiL)
    closed = _closed_form_primes(PhiL, prs, ideals)
    if {I.members for I in direct} != {I.members for I in closed}:
        return False
    prime_masks = {I.members for I in ideals}
    full = L.order.full_mask
    for S in direct:
        s1 = 0
        s2 = 0
        for k, (a, b) in enumerate(prs):
            if (S.members >> k) & 1:
                s1 |= 1 << a
                s2 |= 1 << b
        rebuilt = 0
        for k, (a, b) in enumerate(prs):
            if (s1 >> a) & 1 and (s2 >> b) & 1:
                rebuilt |= 1 << k
        if rebuilt != S.members:
            return False
        if s1 not in prime_masks:
            return False
        if s2 != full and s2 not in prime_masks:
            return False
        if s2 not in (s1, full):
            return False
    return True


def relation_downset_iso(X: Poset, max_size: int = DEFAULT_MAX_SIZE) -> IsoWitness:
    """Explicit isomorphism between the relation lattice of the down-set
    lattice of X and the down-set lattice of X x 2.

    A carrier pair (d, e) with d <= e maps to d on the top layer together
    with e on the bottom layer; the inverse splits a down-set of X x 2 into
    its two layers (top layer first).  Both directions are validated.
    """
    E, ds = _downset_lattice(X, max_size)
    PhiE, prs = relation_lattice(E, max_size=max_size)
    e2 = _downset_lattice(product(X, chain(2), max_size), max_size)
    return _layer_iso(ds, PhiE, prs, e2)


def _layer_iso(ds, PhiE, prs, e2) -> IsoWitness:
    """``relation_downset_iso`` from the down-sets ``ds`` of X, the relation
    lattice of their lattice with its pairs, and the down-set lattice of
    X x 2 with its carrier."""
    E2, ds2 = e2
    index2 = {m: k for k, m in enumerate(ds2)}
    forward = []
    for i, j in prs:
        c = 0
        for x in _bits(ds[i]):
            c |= 1 << (2 * x + 1)
        for x in _bits(ds[j]):
            c |= 1 << (2 * x)
        if c not in index2:
            raise InternalError("layered image is not a down-set of X x 2")
        forward.append(index2[c])
    w = IsoWitness.from_forward(forward)
    if not w.validate(PhiE.order, E2.order):
        raise InternalError("layer map failed to be an order isomorphism")
    return w


@dataclass(frozen=True)
class FactorWitness:
    """Certificate that P is order-isomorphic to (factor) x 2.

    ``block`` is the bottom copy as a bitmask (a down-set covering half of
    P); ``pairing[t]`` is the top-copy partner of the t-th smallest block
    element; ``factor`` is the induced subposet on the block.
    """

    block: int
    pairing: tuple[int, ...]
    factor: Poset

    def assembled(self, P: Poset) -> IsoWitness:
        """Order isomorphism factor x 2 -> P ((y,0) to block, (y,1) on top)."""
        belems = list(_bits(self.block))
        forward = [0] * P.n
        for t, b in enumerate(belems):
            forward[2 * t] = b
            forward[2 * t + 1] = self.pairing[t]
        return IsoWitness.from_forward(forward)

    def validate(self, P: Poset) -> bool:
        if _popcount(self.block) * 2 != P.n:
            return False
        return self.assembled(P).validate(product(self.factor, chain(2)), P)


def factor_by_two(P: Poset) -> FactorWitness | None:
    """First factorization of P as (down-set half) x 2 in deterministic
    search order, or None.

    Candidate bottom halves are down-sets of size n/2; partners are chosen
    by backtracking so that the top half is an isomorphic copy and relations
    across the two halves mirror relations inside the bottom half.
    """
    n = P.n
    if n == 0 or n % 2:
        return None
    half = n // 2
    for B in down_sets(P):
        if _popcount(B) != half:
            continue
        belems = list(_bits(B))
        celems = list(_bits(P.full_mask & ~B))
        partner = [-1] * half
        used = [False] * half

        def rec(t: int) -> bool:
            if t == half:
                return True
            b = belems[t]
            for ci, c in enumerate(celems):
                if used[ci]:
                    continue
                if not P.leq(b, c):  # each element sits below its partner
                    continue
                ok = True
                for s in range(t):
                    b2, c2 = belems[s], partner[s]
                    if P.leq(b, b2) != P.leq(c, c2) or P.leq(b2, b) != P.leq(c2, c):
                        ok = False
                        break
                    # cross relations must mirror bottom-half relations
                    if P.leq(b, c2) != P.leq(b, b2) or P.leq(b2, c) != P.leq(b2, b):
                        ok = False
                        break
                if ok:
                    partner[t] = c
                    used[ci] = True
                    if rec(t + 1):
                        return True
                    used[ci] = False
            return False

        if rec(0):
            w = FactorWitness(B, tuple(partner), P.induced(belems))
            if not w.validate(P):
                raise InternalError("factor witness failed assembled check")
            return w
    return None


def relation_image_witness(
    L: DistLattice, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[DistLattice, IsoWitness] | None:
    """Decide whether L is (isomorphic to) the relation lattice of some K.

    Works through the dual space: L is in the image iff its spectrum X
    factors as Y x 2; then K is the down-set lattice of Y.  The witness maps
    the relation lattice of K onto L: it inverts the duality unit L -> E(X)
    followed by the pull-back to E(Y x 2) and the split into two layers.
    """
    return _image_witness(L, prime_ideals(L), max_size)


def _image_witness(L: DistLattice, ideals, max_size: int):
    """``relation_image_witness`` given the prime ideals of L."""
    X = _spectrum(L, ideals)
    fw = factor_by_two(X)
    if fw is None:
        return None
    Y = fw.factor
    K, ds = _downset_lattice(Y, max_size)
    PhiK, prs = relation_lattice(K, max_size=max_size)
    index = {(ds[i], ds[j]): k for k, (i, j) in enumerate(prs)}
    h = fw.assembled(X).forward  # (y, q) of Y x 2, at 2y + q, -> X
    forward = []
    for a in range(L.n):
        layers = [0, 0]  # bottom (q = 0) and top (q = 1)
        for p, x in enumerate(h):
            if a not in ideals[x]:
                layers[p & 1] |= 1 << (p >> 1)
        pair = (layers[1], layers[0])
        if pair not in index:
            raise InternalError("layered image is not a pair of down-sets")
        forward.append(index[pair])
    w = IsoWitness.from_forward(forward).inverse()
    if not w.validate(PhiK.order, L.order):
        raise InternalError("image witness failed to validate")
    return K, w


@dataclass(frozen=True)
class FixedPointReport:
    mode: str
    n_max: int
    hits: tuple[str, ...]
    expectation: str


FIXED_POINT_MODES = ("posets", "lattices", "connected_posets")


def find_fixed_points(n_max: int, mode: str) -> FixedPointReport:
    """Exhaustively scan isomorphism classes up to n_max for structures
    isomorphic to their own relation poset.

    The expected outcomes (antichains and nothing else for posets, nothing
    for lattices, only the singleton among connected posets) are asserted,
    not assumed; a violation raises InternalError.
    """
    if mode not in FIXED_POINT_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n_max > ENUMERATION_CAP:
        raise CapExceeded(f"fixed-point scan capped at n = {ENUMERATION_CAP}")
    hits = []
    hit_posets = []
    for size in range(1, n_max + 1):
        for idx, P in enumerate(enumerate_posets(size)):
            if mode == "lattices":
                try:
                    lattice_from_poset(P)
                except OrdlatError:
                    continue
            if mode == "connected_posets" and not is_connected(P):
                continue
            # |Phi(P)| is the number of related pairs, so P can only be a
            # fixed point when its sole related pairs are the diagonal ones
            if P.relation_count() != P.n:
                continue
            RP, _ = relation_poset(P)
            if is_isomorphic(RP, P) is not None:
                hits.append(f"n{size}#{idx:03d}")
                hit_posets.append(P)
    if mode == "posets":
        ok = len(hits) == n_max and all(P.is_antichain() for P in hit_posets)
        expectation = "fixed points are exactly the antichains"
    elif mode == "lattices":
        ok = not hits
        expectation = "no lattice fixed points"
    else:
        ok = all(P.n == 1 for P in hit_posets)
        expectation = "no connected fixed point with more than one element"
    if not ok:
        raise InternalError(f"fixed-point expectation violated: {expectation}")
    return FixedPointReport(mode, n_max, tuple(hits), expectation)


def cube_shift_check(n: int) -> bool:
    """Finite shadow of the shift self-similarity of the infinite cube:
    the relation lattice of the n-cube's down-set lattice is isomorphic to
    the (n+1)-cube's down-set lattice, via an explicit composed witness."""
    return _cube_shift(n)[0]


def _cube_shift(n: int) -> tuple[bool, int]:
    """``cube_shift_check(n)`` and the size of the relation lattice it
    built, the number of comparable pairs of the n-cube's down-sets."""
    if n > 3:
        raise CapExceeded("shift check capped at n = 3")
    X = cube(n)
    E1, ds = _downset_lattice(X)
    Phi1, prs = relation_lattice(E1)
    X1 = cube(n + 1)
    prod = product(X, chain(2))
    E2 = _downset_lattice(prod)
    w_layers = _layer_iso(ds, Phi1, prs, E2)  # Phi1 -> E(X x 2)
    # drop coordinate 0 into the extra factor: y -> (shift(y), y(0))
    shuffle = [((i >> 1) * 2) + (i & 1) for i in range(X1.n)]
    g = _order_preserving(X1, prod, shuffle)
    hom = _e_hom(X1, g, _downset_lattice(X1), E2)  # E(X x 2) -> E(cube(n+1))
    forward = [hom.mapping[w_layers.forward[k]] for k in range(Phi1.n)]
    w = IsoWitness.from_forward(forward)
    return w.validate(Phi1.order, hom.target.order), Phi1.n


def dimension_report(
    n_max: int, dim_cap: int = DEFAULT_DIMENSION_CAP
) -> list[dict]:
    """Survey rows comparing width and order dimension of each small poset
    with those of its relation poset; oversized dimension entries are
    marked skipped rather than computed.

    P is the diagonal of its relation poset, which is a subposet of P x P,
    so dim P <= dim Phi(P) <= 2 dim P; a row breaking this raises
    InternalError.
    """
    if n_max > 6:
        raise CapExceeded("dimension report capped at n_max = 6")
    rows = []
    for size in range(1, n_max + 1):
        for idx, P in enumerate(enumerate_posets(size)):
            RP, _ = relation_poset(P)
            dim_p = order_dimension(P, cap=dim_cap) if P.n <= dim_cap else None
            dim_rp = order_dimension(RP, cap=dim_cap) if RP.n <= dim_cap else None
            if None not in (dim_p, dim_rp) and not dim_p <= dim_rp <= 2 * dim_p:
                raise InternalError(
                    f"dim {dim_p} and dim_rel {dim_rp} of n{size}#{idx:03d} "
                    "break dim P <= dim Phi(P) <= 2 dim P"
                )
            rows.append(
                {
                    "id": f"n{size}#{idx:03d}",
                    "size": P.n,
                    "dim": dim_p if dim_p is not None else "SKIPPED",
                    "dim_rel": dim_rp if dim_rp is not None else "SKIPPED",
                    "width": width(P),
                    "width_rel": width(RP),
                }
            )
    return rows
