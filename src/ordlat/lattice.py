"""Validated finite bounded distributive lattices and their homomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter

from .errors import (
    CapExceeded,
    DegenerateBounds,
    InternalError,
    NotALattice,
    NotDistributive,
    NotHomomorphism,
    Unbounded,
)
from .poset import DEFAULT_HOM_CAP, Poset, _down_set_fold, _pullback


@dataclass(frozen=True)
class DistLattice:
    """Bounded distributive lattice over a Poset, with its join-irreducibles
    in index order.

    Only constructed through the validating entry points; 0 != 1 always.
    """

    order: Poset
    bottom: int
    top: int
    irreducibles: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.order.n

    def leq(self, a: int, b: int) -> bool:
        return self.order.leq(a, b)


def _join_irreducibles(P: Poset) -> list[int]:
    """Elements whose strict down-set has a greatest element (one lower
    cover), i.e. is some element's down-row, in index order; in a lattice
    these are the join-irreducibles."""
    down = P.down_masks
    rows = set(down)
    return [j for j in range(P.n) if down[j] & ~(1 << j) in rows]


def _is_birkhoff(P: Poset, irreducibles: list[int]) -> bool:
    """Whether a -> (down-set of a) & J, for J the given join-irreducibles
    of P, is an order isomorphism onto the down-sets of J, so that P is a
    distributive lattice (Birkhoff).

    The map reflects the order iff each up-row is the AND of the up-rows of
    the J below it, and is then one-to-one; it is onto iff J has exactly
    n down-sets, counted on P's own down-rows with the count capped at n.
    Rows of J are skipped: every J below a in J holds up[a], a's own too."""
    up, down, full = P.up, P.down_masks, P.full_mask
    in_j = sum(1 << j for j in irreducibles)
    for a in range(P.n):
        if in_j >> a & 1:
            continue
        row = full
        rest = down[a] & in_j
        while rest:
            low = rest & -rest
            row &= up[low.bit_length() - 1]
            rest ^= low
        if row != up[a]:
            return False
    try:
        return len(_down_set_fold(down, irreducibles, in_j, P.n)) == P.n
    except CapExceeded:
        return False


def _tables(P: Poset):
    """Meet and join tables of P, read off the rows; the first pair a <= b,
    in lexicographic order, with no greatest lower or least upper bound
    raises ``NotALattice``."""
    n = P.n
    down = P.down_masks
    # a greatest lower bound m of a, b has down[m] = down[a] & down[b]; a
    # least upper bound likewise on the up-rows
    by_down = {row: m for m, row in enumerate(down)}
    by_up = {row: j for j, row in enumerate(P.up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        down_a, up_a, meet_a, join_a = down[a], P.up[a], meet[a], join[a]
        for b in range(a, n):
            glb = by_down.get(down_a & down[b])
            if glb is None:
                raise NotALattice((a, b), "greatest lower bound")
            meet_a[b] = meet[b][a] = glb
            lub = by_up.get(up_a & P.up[b])
            if lub is None:
                raise NotALattice((a, b), "least upper bound")
            join_a[b] = join[b][a] = lub
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def _raise_defect(P: Poset) -> None:
    """Raise on the first defect of a bounded P that fails ``_is_birkhoff``:
    the first pair with no meet or join, else the first failing (a, b, c)
    in lexicographic order.

    That search compares, for each (a, b), the row of a meet (b join c) over
    all c with the row of (a meet b) join (a meet c), each gathered by one
    itemgetter, and scans c only in a row that differs: still O(n^3), but
    in C-level steps."""
    n = P.n
    meet, join = _tables(P)
    by_join = [itemgetter(*row) for row in join]  # by_join[b](r)[c] = r[join[b][c]]
    for a in range(n):
        meet_a = meet[a]
        by_meet_a = itemgetter(*meet_a)  # by_meet_a(r)[c] = r[meet[a][c]]
        for b in range(n):
            lhs = by_join[b](meet_a)
            rhs = by_meet_a(join[meet_a[b]])
            if lhs != rhs:
                c = next(c for c in range(n) if lhs[c] != rhs[c])
                raise NotDistributive((a, b, c))
    raise InternalError("Birkhoff map check and triple search disagree")


def lattice_from_poset(P: Poset) -> DistLattice:
    """Validate P as a bounded distributive lattice by the Birkhoff map;
    only an invalid P has its tables built, to name its defect."""
    n = P.n
    if n <= 1:
        raise DegenerateBounds("need 0 != 1, so at least two elements")
    down = P.down_masks
    full = P.full_mask
    bottoms = [i for i in range(n) if P.up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if not bottoms:
        raise Unbounded("bottom")
    if not tops:
        raise Unbounded("top")
    irreducibles = _join_irreducibles(P)
    if not _is_birkhoff(P, irreducibles):
        _raise_defect(P)
    return DistLattice(P, bottoms[0], tops[0], tuple(irreducibles))


@dataclass(frozen=True)
class LatticeHom:
    source: DistLattice
    target: DistLattice
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def then(self, other: "LatticeHom") -> "LatticeHom":
        """Composite hom: self followed by other."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("homs not composable")
        return hom_new(
            self.source,
            other.target,
            tuple(other.mapping[v] for v in self.mapping),
        )


def _prime_pullbacks(L: DistLattice, K: DistLattice, pull) -> list[int] | None:
    """The preimages of K's prime ideals under a map L -> K, given by its
    preimage map ``pull`` over masks of K, in the order of K's
    join-irreducibles; None unless each is a prime ideal of L.

    The prime ideals of a finite distributive lattice are the complements
    of its join-irreducibles' up-rows (Birkhoff), so each test is one row
    lookup.  They separate points, so the map is a (0,1)-hom iff it pulls
    every prime ideal back to a prime ideal."""
    rows = {L.order.up[j] for j in L.irreducibles}
    pulled = [pull(K.order.up[j]) for j in K.irreducibles]
    if not all(row in rows for row in pulled):
        return None
    full = L.order.full_mask
    return [full & ~row for row in pulled]


def _is_hom(L: DistLattice, K: DistLattice, mapping) -> bool:
    return _prime_pullbacks(L, K, _pullback(mapping, K.n)) is not None


def _hom_defect(L: DistLattice, K: DistLattice, mapping):
    """None when mapping is a (0,1)-hom L -> K, decided by prime pullbacks;
    otherwise the first defect of a scan of the tables: the bottom, the
    top, then the first pair a <= b whose meet, then join, is not kept."""
    if _is_hom(L, K, mapping):
        return None
    if mapping[L.bottom] != K.bottom:
        return ("bottom", L.bottom)
    if mapping[L.top] != K.top:
        return ("top", L.top)
    (l_meet, l_join), (k_meet, k_join) = _tables(L.order), _tables(K.order)
    for a in range(L.n):
        for b in range(a, L.n):
            if mapping[l_meet[a][b]] != k_meet[mapping[a]][mapping[b]]:
                return ("meet", (a, b))
            if mapping[l_join[a][b]] != k_join[mapping[a]][mapping[b]]:
                return ("join", (a, b))
    raise InternalError("prime pullbacks and table scan disagree")


def hom_new(L: DistLattice, K: DistLattice, mapping) -> LatticeHom:
    mapping = tuple(mapping)
    if len(mapping) != L.n or any(not 0 <= v < K.n for v in mapping):
        raise NotHomomorphism("map is not total into the target carrier")
    defect = _hom_defect(L, K, mapping)
    if defect is not None:
        raise NotHomomorphism(defect)
    return LatticeHom(L, K, mapping)


def identity_hom(L: DistLattice) -> LatticeHom:
    return LatticeHom(L, L, tuple(range(L.n)))


def enumerate_homs(L: DistLattice, K: DistLattice, cap: int = DEFAULT_HOM_CAP):
    """All (0,1)-homomorphisms L -> K in lexicographic map order."""
    if L.n > cap:
        raise CapExceeded(f"|L| = {L.n} exceeds hom enumeration cap {cap}")
    out = []
    for mapping in iproduct(range(K.n), repeat=L.n):
        if mapping[L.bottom] != K.bottom or mapping[L.top] != K.top:
            continue
        if _is_hom(L, K, mapping):
            out.append(LatticeHom(L, K, mapping))
    return out


def join_irreducibles(L: DistLattice) -> Poset:
    """Induced subposet of non-bottom elements j with j = a v b => j in {a,b}."""
    return L.order.induced(L.irreducibles)
