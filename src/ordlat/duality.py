"""Finite Priestley/Birkhoff duality.

At finite scale every subset of the dual space is clopen, so both functors
reduce to plain order combinatorics: the spectrum of prime ideals under
inclusion on one side, the lattice of all down-sets on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapExceeded,
    DegenerateBounds,
    InternalError,
    NotOrderPreserving,
)
from .lattice import DistLattice, LatticeHom, hom_new, lattice_from_poset
from .lattice import _join_irreducibles
from .poset import DEFAULT_MAX_SIZE, IsoWitness, Poset, _bits, down_sets


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal of a lattice, stored as a carrier-index bitmask."""

    lattice: DistLattice
    members: int

    def __contains__(self, a: int) -> bool:
        return bool((self.members >> a) & 1)

    def elements(self) -> list[int]:
        return list(_bits(self.members))

    def validate(self) -> bool:
        return is_prime_ideal(self.lattice, self.members)


def is_ideal(L: DistLattice, mask: int) -> bool:
    """Nonempty down-set closed under binary join."""
    if mask == 0:
        return False
    for a in _bits(mask):
        # down-set: everything below a is in
        for x in range(L.n):
            if L.leq(x, a) and not (mask >> x) & 1:
                return False
    for a in _bits(mask):
        for b in _bits(mask):
            if not (mask >> L.join[a][b]) & 1:
                return False
    return True


def is_filter(L: DistLattice, mask: int) -> bool:
    """Nonempty up-set closed under binary meet."""
    if mask == 0:
        return False
    for a in _bits(mask):
        for x in range(L.n):
            if L.leq(a, x) and not (mask >> x) & 1:
                return False
    for a in _bits(mask):
        for b in _bits(mask):
            if not (mask >> L.meet[a][b]) & 1:
                return False
    return True


def is_prime_ideal(L: DistLattice, mask: int) -> bool:
    """Proper ideal whose complement is closed under meet."""
    full = L.order.full_mask
    if mask == full or not is_ideal(L, mask):
        return False
    outside = full & ~mask
    for a in _bits(outside):
        for b in _bits(outside):
            if (mask >> L.meet[a][b]) & 1:
                return False
    return True


def prime_ideals(L: DistLattice) -> list[PrimeIdeal]:
    """Prime ideals of L sorted by bitmask: by Birkhoff's theorem, exactly
    L minus the up-set of j for each join-irreducible j."""
    full = L.order.full_mask
    masks = sorted(full & ~L.order.up[j] for j in _join_irreducibles(L.order))
    return [PrimeIdeal(L, m) for m in masks]


def _inclusion_order(masks: list[int], names) -> Poset:
    """The bitmasks under inclusion, in list order, each labelled by the
    names of its members."""
    # holding[x]: the masks that contain x; the masks above m are those
    # holding every member of m
    holding = [0] * len(names)
    for j, m in enumerate(masks):
        for x in _bits(m):
            holding[x] |= 1 << j
    full = (1 << len(masks)) - 1
    up = []
    labels = []
    for m in masks:
        members = list(_bits(m))
        row = full
        for x in members:
            row &= holding[x]
        up.append(row)
        labels.append("{" + ",".join(names[x] for x in members) + "}")
    return Poset(len(masks), tuple(up), tuple(labels))


def _spectrum(L: DistLattice, ideals: list[PrimeIdeal]) -> Poset:
    """Poset of the given prime ideals of L under inclusion, in list order."""
    return _inclusion_order([I.members for I in ideals], L.order.labels)


def spec(L: DistLattice) -> Poset:
    """Poset of prime ideals of L under inclusion, in bitmask order."""
    return _spectrum(L, prime_ideals(L))


@dataclass(frozen=True)
class SpectrumMap:
    """Order-preserving map between spectra (contravariant image of a hom)."""

    source: Poset
    target: Poset
    mapping: tuple[int, ...]

    def validate(self) -> bool:
        for i in range(self.source.n):
            for j in range(self.source.n):
                if self.source.leq(i, j) and not self.target.leq(
                    self.mapping[i], self.mapping[j]
                ):
                    return False
        return True


def spec_hom(f: LatticeHom) -> SpectrumMap:
    """Contravariant spectrum map I |-> f^{-1}(I), from spec(target of f)
    into spec(source of f)."""
    src_ideals = prime_ideals(f.source)
    tgt_ideals = prime_ideals(f.target)
    index = {I.members: k for k, I in enumerate(src_ideals)}
    mapping = []
    for I in tgt_ideals:
        pre = 0
        for a in range(f.source.n):
            if (I.members >> f.mapping[a]) & 1:
                pre |= 1 << a
        if pre not in index:
            raise InternalError(
                "preimage of a prime ideal is not prime; this cannot happen"
            )
        mapping.append(index[pre])
    source = _spectrum(f.target, tgt_ideals)
    out = SpectrumMap(source, _spectrum(f.source, src_ideals), tuple(mapping))
    if not out.validate():
        raise InternalError("spectrum map failed to be order-preserving")
    return out


def clopen_downset_lattice(
    X: Poset, max_size: int = DEFAULT_MAX_SIZE
) -> DistLattice:
    """Lattice of all down-sets of X: meet is intersection, join is union."""
    return _downset_lattice(X, max_size)[0]


def _downset_lattice(
    X: Poset, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[DistLattice, list[int]]:
    """The down-set lattice of X, with its carrier: the down-sets of X as
    sorted bitmasks, element k of the lattice being the k-th.  A lattice of
    more than max_size elements is refused while its carrier is being
    enumerated, before any table is built."""
    if X.n == 0:
        raise DegenerateBounds("empty space has a one-element down-set lattice")
    try:
        ds = down_sets(X, max_count=max_size)
    except CapExceeded:
        raise CapExceeded(
            f"down-set lattice of a {X.n}-point poset has more than "
            f"{max_size} elements, cap {max_size} (raise it with --max-size)"
        ) from None
    return lattice_from_poset(_inclusion_order(ds, X.labels)), ds


def e_hom(X: Poset, Y: Poset, g) -> LatticeHom:
    """Down-set lattice hom induced by an order-preserving g: X -> Y, acting
    by preimage: a down-set of Y maps to its g-preimage in X."""
    g = _order_preserving(X, Y, g)
    return _e_hom(X, g, _downset_lattice(X), _downset_lattice(Y))


def _order_preserving(X: Poset, Y: Poset, g) -> tuple[int, ...]:
    """g as a tuple, checked to be an order-preserving map X -> Y."""
    g = tuple(g)
    if len(g) != X.n or any(not 0 <= v < Y.n for v in g):
        raise NotOrderPreserving(("map not total", None))
    for a in range(X.n):
        for b in range(X.n):
            if X.leq(a, b) and not Y.leq(g[a], g[b]):
                raise NotOrderPreserving((a, b))
    return g


def _e_hom(X: Poset, g, ex, ey) -> LatticeHom:
    """``e_hom`` for a checked g, on the down-set lattices of X and Y, each
    given with its carrier as ``_downset_lattice`` returns it."""
    (EX, dsx), (EY, dsy) = ex, ey
    index = {m: k for k, m in enumerate(dsx)}
    mapping = []
    for d in dsy:
        pre = 0
        for x in range(X.n):
            if (d >> g[x]) & 1:
                pre |= 1 << x
        mapping.append(index[pre])
    return hom_new(EY, EX, mapping)


def unit_lattice(L: DistLattice) -> IsoWitness:
    """The duality unit a |-> {prime ideals not containing a}, certified as
    an order isomorphism from L onto the down-set lattice of its spectrum."""
    ideals = prime_ideals(L)
    # Birkhoff: the spectrum of L has exactly |L| down-sets
    E, ds = _downset_lattice(_spectrum(L, ideals), L.n)
    index = {m: k for k, m in enumerate(ds)}
    forward = []
    for a in range(L.n):
        xa = 0
        for k, I in enumerate(ideals):
            if not (I.members >> a) & 1:
                xa |= 1 << k
        if xa not in index:
            raise InternalError("unit image is not a down-set of the spectrum")
        forward.append(index[xa])
    if sorted(forward) != list(range(E.n)):
        raise InternalError("duality unit failed to be a bijection")
    w = IsoWitness.from_forward(forward)
    if not w.validate(L.order, E.order):
        raise InternalError("duality unit failed to be an order isomorphism")
    return w


def unit_space(X: Poset, max_size: int = DEFAULT_MAX_SIZE) -> IsoWitness:
    """The co-unit x |-> {down-sets omitting x}, certified as an order
    isomorphism from X onto the spectrum of its down-set lattice."""
    E, ds = _downset_lattice(X, max_size)
    ideals = prime_ideals(E)
    index = {I.members: k for k, I in enumerate(ideals)}
    forward = []
    for x in range(X.n):
        mask = 0
        for k, d in enumerate(ds):
            if not (d >> x) & 1:
                mask |= 1 << k
        if mask not in index:
            raise InternalError("co-unit image is not a prime ideal")
        forward.append(index[mask])
    if sorted(forward) != list(range(len(ideals))):
        raise InternalError("duality co-unit failed to be a bijection")
    w = IsoWitness.from_forward(forward)
    if not w.validate(X, _spectrum(E, ideals)):
        raise InternalError("duality co-unit failed to be an order isomorphism")
    return w
