"""Finite Priestley/Birkhoff duality.

At finite scale every subset of the dual space is clopen, so both functors
reduce to plain order combinatorics: the spectrum of prime ideals under
inclusion on one side, the lattice of all down-sets on the other.
"""

from __future__ import annotations

from .errors import (
    CapExceeded,
    DegenerateBounds,
    InternalError,
    NotOrderPreserving,
)
from .lattice import DistLattice, LatticeHom, hom_new, lattice_from_poset
from .poset import DEFAULT_MAX_SIZE, IsoWitness, Poset, _Frozen, _Names, _members
from .poset import _names_of, _pullback, _transpose, _with_down, down_sets


def prime_ideals(L: DistLattice) -> list[int]:
    """Prime ideals of L as sorted bitmasks: by Birkhoff's theorem, exactly
    L minus the up-set of j for each join-irreducible j."""
    full = L.order.full_mask
    return sorted(full & ~L.order.up[j] for j in L.irreducibles)


def _inclusion_order(masks: list[int], width: int, names) -> Poset:
    """The bitmasks over range(width) under inclusion, in list order, each
    named on first read by the names of its members among names; its
    down-rows are set as its up-rows are."""
    # holding[x] / lacking[x]: the masks that contain / omit x; the masks
    # above m hold every member of m, and those below m omit every point
    # outside it
    holding = _transpose(masks, width)
    full = (1 << len(masks)) - 1
    lacking = [full & ~h for h in holding]
    outside = (1 << width) - 1
    up = []
    down = []
    for m in masks:
        row = full
        rest = m
        while rest:
            low = rest & -rest
            row &= holding[low.bit_length() - 1]
            rest ^= low
        up.append(row)
        row = full
        rest = outside & ~m
        while rest:
            low = rest & -rest
            row &= lacking[low.bit_length() - 1]
            rest ^= low
        down.append(row)
    return _with_down(len(masks), up, down, _Names(_set_names, masks, names))


def _set_names(masks: list[int], names) -> tuple[str, ...]:
    """"{a,b}" for each mask, a and b the names of its members."""
    names = _names_of(names)
    return tuple("{" + ",".join(_members(m, names)) + "}" for m in masks)


def spec(L: DistLattice) -> tuple[Poset, list[int]]:
    """The spectrum of L, with its carrier: the poset of prime ideals of L
    under inclusion, point k being the k-th of ``prime_ideals(L)``."""
    ideals = prime_ideals(L)
    return _inclusion_order(ideals, L.n, L.order.labels), ideals


class SpectrumMap(_Frozen):
    """Order-preserving map between spectra (contravariant image of a hom)."""

    _fields = ("source", "target", "mapping")

    def __init__(self, source: Poset, target: Poset, mapping: tuple[int, ...]):
        d = self.__dict__
        d["source"] = source
        d["target"] = target
        d["mapping"] = mapping

    def validate(self) -> bool:
        """i <= j implies mapping[i] <= mapping[j]."""
        return _order_violation(self.source, self.target, self.mapping) is None


def spec_hom(f: LatticeHom) -> SpectrumMap:
    """Contravariant spectrum map I |-> f^{-1}(I), from spec(target of f)
    into spec(source of f)."""
    target, src_ideals = spec(f.source)
    source, tgt_ideals = spec(f.target)
    pull = _pullback(f.mapping, f.target.n)
    mapping = _positions(
        [pull(I) for I in tgt_ideals], src_ideals, "preimage of a prime ideal"
    )
    out = SpectrumMap(source, target, tuple(mapping))
    if not out.validate():
        raise InternalError("spectrum map failed to be order-preserving")
    return out


def clopen_downset_lattice(
    X: Poset, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[DistLattice, list[int]]:
    """The lattice of all down-sets of X (meet is intersection, join is
    union), with its carrier: the down-sets of X as sorted bitmasks, element
    k of the lattice being the k-th.  A lattice of more than max_size
    elements is refused while its carrier is being enumerated, before any
    table is built."""
    if X.n == 0:
        raise DegenerateBounds("empty space has a one-element down-set lattice")
    try:
        ds = down_sets(X, max_count=max_size)
    except CapExceeded:
        raise CapExceeded(
            f"down-set lattice of a {X.n}-point poset has more than "
            f"{max_size} elements, cap {max_size} (raise it with --max-size)"
        ) from None
    return lattice_from_poset(_inclusion_order(ds, X.n, X.labels)), ds


def e_hom(X: Poset, Y: Poset, g) -> LatticeHom:
    """Down-set lattice hom induced by an order-preserving g: X -> Y, acting
    by preimage: a down-set of Y maps to its g-preimage in X."""
    g = _order_preserving(X, Y, g)
    EX, dsx = clopen_downset_lattice(X)
    EY, dsy = clopen_downset_lattice(Y)
    pull = _pullback(g, Y.n)
    return hom_new(
        EY, EX, _positions([pull(d) for d in dsy], dsx, "preimage of a down-set")
    )


def _order_preserving(X: Poset, Y: Poset, g) -> tuple[int, ...]:
    """g as a tuple, checked to be an order-preserving map X -> Y; a
    violation raises ``NotOrderPreserving`` on ``_order_violation``'s pair."""
    g = tuple(g)
    bad = _order_violation(X, Y, g)
    if bad is not None:
        raise NotOrderPreserving(bad)
    return g


def _order_violation(X: Poset, Y: Poset, g):
    """None when g is an order-preserving map X -> Y, ``("map not total",
    None)`` when g is not a map X -> Y, else the first a <= b, in
    lexicographic order, with g[a] not below g[b]: the first a whose up-row
    leaves the preimage of g[a]'s up-row, and the least b it leaves there."""
    if len(g) != X.n or any(not 0 <= v < Y.n for v in g):
        return ("map not total", None)
    pull = _pullback(g, Y.n)
    for a, (row, v) in enumerate(zip(X.up, g)):
        bad = row & ~pull(Y.up[v])
        if bad:
            return (a, (bad & -bad).bit_length() - 1)
    return None


def _positions(keys, carrier, what: str) -> list[int]:
    """The position of each key in carrier; a key outside it raises
    ``InternalError`` naming what the keys are."""
    index = {m: k for k, m in enumerate(carrier)}
    try:
        return [index[m] for m in keys]
    except KeyError:
        raise InternalError(f"{what} is not in its carrier") from None


def _certified(P: Poset, Q: Poset, keys, carrier, what: str) -> IsoWitness:
    """The map sending i to the position of keys[i] in carrier, certified
    as an order isomorphism P -> Q; a failure raises ``InternalError``
    naming what the map is."""
    w = IsoWitness.from_forward(_positions(keys, carrier, what))
    if w.validate(P, Q):
        return w
    raise InternalError(f"{what} failed to be an order isomorphism")


def _unit_images(masks: list[int], width: int) -> list[int]:
    """For each point a below width, the positions in masks of the masks
    omitting a: the image of a under a duality unit."""
    full = (1 << len(masks)) - 1
    return [full & ~h for h in _transpose(masks, width)]


def unit_lattice(L: DistLattice) -> IsoWitness:
    """The duality unit a |-> {prime ideals not containing a}, certified as
    an order isomorphism from L onto the down-set lattice of its spectrum."""
    X, ideals = spec(L)
    # Birkhoff: the spectrum of L has exactly |L| down-sets
    E, ds = clopen_downset_lattice(X, L.n)
    images = _unit_images(ideals, L.n)
    return _certified(L.order, E.order, images, ds, "duality unit")


def unit_space(X: Poset, max_size: int = DEFAULT_MAX_SIZE) -> IsoWitness:
    """The co-unit x |-> {down-sets omitting x}, certified as an order
    isomorphism from X onto the spectrum of its down-set lattice."""
    E, ds = clopen_downset_lattice(X, max_size)
    S, ideals = spec(E)
    images = _unit_images(ds, X.n)
    return _certified(X, S, images, ideals, "duality co-unit")
