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
from .poset import Poset, down_sets

DEFAULT_HOM_CAP = 6


@dataclass(frozen=True)
class DistLattice:
    """Bounded distributive lattice over a Poset, with full op tables.

    Only constructed through the validating entry points; 0 != 1 always.
    """

    order: Poset
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

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


def _check_distributive(P: Poset, meet, join) -> None:
    """Birkhoff: a finite lattice is distributive iff its join-irreducibles
    have no more down-sets than it has elements.  Otherwise raise on the
    first failing (a, b, c) in lexicographic order.

    That search compares, for each (a, b), the row of a meet (b join c) over
    all c with the row of (a meet b) join (a meet c), each gathered by one
    itemgetter, and scans c only in a row that differs: still O(n^3), but
    in C-level steps."""
    n = P.n
    try:
        down_sets(P.induced(_join_irreducibles(P)), max_count=n)
        return
    except CapExceeded:
        pass
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
    raise InternalError("distributivity count and triple search disagree")


def lattice_from_poset(P: Poset) -> DistLattice:
    """Read meet/join off the rows and validate all lattice axioms."""
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
    _check_distributive(P, meet, join)
    return DistLattice(
        P,
        tuple(tuple(row) for row in meet),
        tuple(tuple(row) for row in join),
        bottoms[0],
        tops[0],
    )


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


def _hom_defect(L: DistLattice, K: DistLattice, mapping):
    if mapping[L.bottom] != K.bottom:
        return ("bottom", L.bottom)
    if mapping[L.top] != K.top:
        return ("top", L.top)
    for a in range(L.n):
        for b in range(a, L.n):
            if mapping[L.meet[a][b]] != K.meet[mapping[a]][mapping[b]]:
                return ("meet", (a, b))
            if mapping[L.join[a][b]] != K.join[mapping[a]][mapping[b]]:
                return ("join", (a, b))
    return None


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
        if _hom_defect(L, K, mapping) is None:
            out.append(LatticeHom(L, K, mapping))
    return out


def join_irreducibles(L: DistLattice) -> Poset:
    """Induced subposet of non-bottom elements j with j = a v b => j in {a,b}."""
    return L.order.induced(_join_irreducibles(L.order))
