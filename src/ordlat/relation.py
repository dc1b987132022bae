"""The order-relation functor: the relation of a poset/lattice, regarded as a
structure in its own right under the coordinatewise order, together with the
prime-ideal bookkeeping, the two-copy factorization criterion for membership
in its image, and the ``experiments`` suites as reports: the corollary,
Lemma 5.1, fixed-point, shift and dimension surveys, each taking
``(n_max, max_size)`` and building every Phi under max_size, with the class
walk and ``n{size}#{idx}`` ids.
"""

from __future__ import annotations

from .errors import CapExceeded, InternalError, OrdlatError
from .lattice import (
    DistLattice,
    LatticeHom,
    _prime_pullbacks,
    hom_new,
    lattice_from_poset,
)
from .duality import (
    _certified,
    _positions,
    _unit_images,
    clopen_downset_lattice,
    prime_ideals,
    spec,
)
from .poset import (
    DEFAULT_DIMENSION_CAP,
    DEFAULT_MAX_SIZE,
    IsoWitness,
    Poset,
    _bits,
    _Frozen,
    _canonical_chunks,
    _decoded,
    _default_labels,
    _extend,
    _pair_order,
    _pullback,
    _refuse_past_enumeration_cap,
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
    """The related pairs (a, b), a <= b, of P under the coordinatewise
    order: the subposet of P x P on them, pairs indexed lexicographically."""
    m = P.relation_count()
    if m > max_size:
        raise CapExceeded(f"relation poset has {m} elements, cap {max_size}")
    prs = P.pairs()
    return _pair_order(P, P, prs), tuple(prs)


def relation_lattice(
    L: DistLattice, max_size: int = DEFAULT_MAX_SIZE
) -> tuple[DistLattice, PairMap]:
    """Relation poset of L as a bounded distributive lattice, checked to be
    a (0,1)-sublattice of L x L."""
    return _relation_lattice(L, max_size)[:2]


def _relation_lattice(L: DistLattice, max_size: int):
    """``relation_lattice``, the closed-form prime ideals of Phi(L), as
    sorted masks, and the preimage maps of the two components: the primes
    are the preimages of the prime ideals I x L and L x I of L x L, for I a
    prime ideal of L.

    Those primes separate the points of L x L, so the inclusion is a
    (0,1)-hom iff each preimage is a prime ideal of Phi(L): the check that
    both components are (0,1)-homs Phi(L) -> L, by prime pullbacks."""
    RP, prs = relation_poset(L.order, max_size=max_size)
    lat = lattice_from_poset(RP)
    primes = set()
    pulls = _components(prs, L.n)
    for pull in pulls:
        pulled = _prime_pullbacks(lat, L, pull)
        if pulled is None:
            raise InternalError("relation lattice operations are not componentwise")
        primes.update(pulled)
    if (prs[lat.bottom], prs[lat.top]) != ((L.bottom,) * 2, (L.top,) * 2):
        raise InternalError("relation lattice bounds are not (0,0) and (1,1)")
    return lat, prs, sorted(primes), pulls


def relation_hom(f: LatticeHom, max_size: int = DEFAULT_MAX_SIZE) -> LatticeHom:
    """Image of a (0,1)-hom under the relation functor: (a, b) componentwise."""
    src, sprs = relation_lattice(f.source, max_size=max_size)
    tgt, tprs = relation_lattice(f.target, max_size=max_size)
    g = f.mapping
    images = [(g[a], g[b]) for a, b in sprs]
    return hom_new(src, tgt, _positions(images, tprs, "hom image of a pair"))


def _components(prs: PairMap, width: int):
    """The preimage maps of the pairs' first and second components, over
    masks of range(width)."""
    return (
        _pullback([a for a, _ in prs], width),
        _pullback([b for _, b in prs], width),
    )


def _projections(prs: PairMap, L: DistLattice):
    """The maps S -> proj1(S) and S -> proj2(S) on down-sets S of Phi(L),
    masks over prs to masks over L.  (a, a) and (0, b) lie below (a, b), so
    S meets the pairs of first component a iff it holds (a, a), and those
    of second component b iff it holds (0, b): each projection is a
    pullback."""
    index = {pair: k for k, pair in enumerate(prs)}
    return (
        _pullback([index[a, a] for a in range(L.n)], len(prs)),
        _pullback([index[L.bottom, b] for b in range(L.n)], len(prs)),
    )


def verify_relation_primes(L: DistLattice, max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """Check the closed-form prime ideals of the relation lattice against
    its spectrum computed directly, and check the projection facts behind
    the formula for every prime ideal S of the relation lattice:

    - S equals (proj1(S) x proj2(S)) intersected with the relation carrier,
    - proj1(S) is prime and proj2(S) is prime or everything,
    - proj2(S) is proj1(S) or everything.
    """
    PhiL, prs, closed, (pull1, pull2) = _relation_lattice(L, max_size)
    direct = prime_ideals(PhiL)
    if direct != closed:
        return False
    prime_masks = set(prime_ideals(L))
    full = L.order.full_mask
    proj1, proj2 = _projections(prs, L)
    for S in direct:
        s1, s2 = proj1(S), proj2(S)
        if pull1(s1) & pull2(s2) != S:
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
    return _relation_downset_iso(X, max_size)[0]


def _relation_downset_iso(X: Poset, max_size: int) -> tuple[IsoWitness, Poset]:
    """``relation_downset_iso`` and the product X x 2 it built."""
    E, ds = clopen_downset_lattice(X, max_size)
    PhiE, prs = relation_lattice(E, max_size=max_size)
    X2 = product(X, chain(2), max_size)
    E2, ds2 = clopen_downset_lattice(X2, max_size)
    # (x, 0) of X x 2 is point 2x and (x, 1) is 2x + 1: spreading a
    # down-set's binary digits apart by zeros moves each x to 2x, onto the
    # bottom layer, and one shift more puts it on the top layer
    spread = [int("0".join(format(d, "b")), 2) for d in ds]
    layered = [spread[i] << 1 | spread[j] for i, j in prs]
    return _certified(PhiE.order, E2.order, layered, ds2, "layer map"), X2


class FactorWitness(_Frozen):
    """Certificate that P is order-isomorphic to (factor) x 2.

    ``block`` is the bottom copy as a bitmask (a down-set covering half of
    P); ``pairing[t]`` is the top-copy partner of the t-th smallest block
    element; ``factor`` is the induced subposet on the block.
    """

    _fields = ("block", "pairing", "factor")

    def __init__(self, block: int, pairing: tuple[int, ...], factor: Poset):
        d = self.__dict__
        d["block"] = block
        d["pairing"] = pairing
        d["factor"] = factor

    def assembled(self, P: Poset) -> IsoWitness:
        """Order isomorphism factor x 2 -> P ((y,0) to block, (y,1) on top)."""
        pairs = zip(_bits(self.block), self.pairing)
        return IsoWitness.from_forward([v for pair in pairs for v in pair])

    def validate(self, P: Poset) -> bool:
        if self.block.bit_count() * 2 != P.n or self.factor.n * 2 != P.n:
            return False
        return self.assembled(P).validate(product(self.factor, chain(2), P.n), P)


def factor_by_two(P: Poset) -> FactorWitness | None:
    """First factorization of P as (down-set half) x 2 in deterministic
    search order, or None.

    Candidate bottom halves B are down-sets of size n/2, with Y the subposet
    on B.  Unless Y x 2 and P differ in sorted profile, ``_extend`` searches
    for an isomorphism Y x 2 -> P sending (y, 0) to y and (y, 1) to a
    partner above y outside B.
    """
    n = P.n
    if n == 0 or n % 2:
        return None
    base = n + 1  # packed as in Poset.iso_profile
    down = P.down_masks
    for B in down_sets(P):
        if B.bit_count() != n // 2:
            continue
        belems = list(_bits(B))
        # in Y x 2, (y, 0) has y's down-set once and its up-set twice, and
        # (y, 1) the reverse; B is a down-set, so y's down-set is b's in P
        profile = []
        for b in belems:
            d, u = down[b].bit_count(), (P.up[b] & B).bit_count()
            profile += (d * base + 2 * u, 2 * d * base + u)
        if tuple(sorted(profile)) != P.iso_invariant:
            continue
        Y = P.induced(belems)
        cands = [c for b in belems for c in ([b], list(_bits(P.up[b] & ~B)))]
        doubled = product(Y, chain(2), n)
        iso = _extend(doubled, P, cands)
        if iso is not None:
            # w.validate(P) on the Y x 2 already built; its block-size
            # check holds, as B has n/2 elements
            w = FactorWitness(B, iso.forward[1::2], Y)
            if not w.assembled(P).validate(doubled, P):
                raise InternalError("factor witness failed assembled check")
            return w
    return None


def relation_image_witness(L: DistLattice) -> tuple[DistLattice, IsoWitness] | None:
    """Decide whether L is (isomorphic to) the relation lattice of some K.

    Works through the dual space: L is in the image iff its spectrum X
    factors as Y x 2; then K is E(Y), which sits in L, with L's labels, as
    the principal ideal of the c whose unit image is the bottom layer.  The
    witness Phi(K) -> L sends (a, b) to the element whose unit image is b's
    together with a's moved onto the top layer, certified on L's units.
    """
    X, ideals = spec(L)
    fw = factor_by_two(X)
    if fw is None:
        return None
    images = _unit_images(ideals, L.n)
    ideal = [a for a, u in enumerate(images) if not u & ~fw.block]
    K = lattice_from_poset(L.order.induced(ideal))
    # Phi(K) is E(Y x 2), which is E(X), so it has |L| elements
    PhiK, prs = relation_lattice(K, max_size=L.n)
    # the pullback along top -> bottom partner adds a block mask's top copy
    below = dict(zip(fw.pairing, _bits(fw.block)))
    lift = _pullback([below.get(x, x) for x in range(X.n)], X.n)
    keys = [images[ideal[b]] | lift(images[ideal[a]]) for a, b in prs]
    return K, _certified(PhiK.order, L.order, keys, images, "image witness")


def _classes(n_max: int):
    """(size, idx, P) for P the idx-th class of ``enumerate_posets(size)``,
    size = 1..n_max.  An n_max past the enumeration cap is refused here,
    before any class is built."""
    _refuse_past_enumeration_cap(n_max)
    return (
        (size, idx, P)
        for size in range(1, n_max + 1)
        for idx, P in enumerate(enumerate_posets(size))
    )


def _class_id(size: int, idx: int) -> str:
    """Report id of a class, formatted only where a report names it."""
    return f"n{size}#{idx:03d}"


def _antichain_floor(X: Poset) -> int:
    """A lower bound on the number of down-sets of X, read off its relation
    count: the antichains of at most two points, the empty one, the n
    singletons and the n(n-1)/2 - (relations - n) incomparable pairs, each
    generate a down-set of their own."""
    n = X.n
    return 1 + n + n * (n + 1) // 2 - X.relation_count()


def _lattice_classes(n_max: int) -> list[DistLattice]:
    """One L per class of distributive lattices of 2..n_max elements, in
    the class order of their spectra, unkeyed: ``_in_class_order`` puts
    the ones a report names into the class order of ``enumerate_posets``.
    An n_max past the enumeration cap is refused here, before any class is
    built.

    By Birkhoff each such L is E(X), X its spectrum, which has fewer points
    than L has elements, and E(X) determines X up to isomorphism.  So the
    classes X of 1..n_max-1 points whose down-set lattice has at most n_max
    elements give every class once, each E(X) certified as a lattice by
    ``clopen_downset_lattice``.  A class whose ``_antichain_floor`` already
    passes n_max is skipped before its down-sets are listed."""
    _refuse_past_enumeration_cap(n_max)
    found = []
    for _, _, X in _classes(n_max - 1):
        if _antichain_floor(X) > n_max:
            continue
        try:
            L, _ = clopen_downset_lattice(X, n_max)
        except CapExceeded:
            continue
        found.append(L)
    return found


def _in_class_order(
    lattices: list[DistLattice],
) -> list[tuple[tuple[int, ...], DistLattice]]:
    """(key, L) for each L of lattices, key being L's canonical chunks, in
    the class order of ``enumerate_posets``: by size, then by key.  A key
    costs more than the checks of a small lattice, so only the lattices
    that a report names are keyed."""
    keyed = [(_canonical_chunks(L.order)[0], L) for L in lattices]
    keyed.sort(key=lambda kl: (len(kl[0]), kl[0]))
    return keyed


def _lattice_id(key: tuple[int, ...]) -> str:
    """Report id of the class with canonical chunks key: the place of its
    representative, the poset decoded from key, in ``enumerate_posets``."""
    size = len(key)
    rep = _decoded(key, _default_labels(size))
    return _class_id(size, enumerate_posets(size).index(rep))


def cube_shift_check(n: int, max_size: int = DEFAULT_MAX_SIZE) -> IsoWitness:
    """Finite shadow of the shift self-similarity of the infinite cube:
    Lemma 5.1 at X = cube n.  Returns the certified isomorphism from the
    relation lattice of E(cube n) onto E(cube n x 2), which is E(cube(n+1))
    because the product cube n x 2 that the lemma builds has the up-rows of
    cube(n+1); that is checked after the lemma, so its caps are met first."""
    w, X2 = _relation_downset_iso(cube(n, max_size), max_size)
    # the lemma's relation lattice has as many elements as E(cube n x 2),
    # more than the 2^(n+1) points of either side, so its cap holds here
    if X2.up != cube(n + 1, max_size).up:
        raise InternalError(f"cube {n} x 2 is not cube {n + 1}")
    return w


def corollary_report(n_max: int, max_size: int = DEFAULT_MAX_SIZE) -> dict:
    """The ``corollary`` suite: ``verify_relation_primes`` on one L per
    class of distributive lattices of 2..n_max elements.  The check refuses
    exactly the L with more comparable pairs than max_size, so the first of
    those in class order is refused before any L is checked."""
    lattices = _lattice_classes(n_max)
    refused = [L for L in lattices if L.order.relation_count() > max_size]
    if refused:
        verify_relation_primes(_in_class_order(refused)[0][1], max_size=max_size)
    failed = [L for L in lattices
              if not verify_relation_primes(L, max_size=max_size)]
    failures = [_lattice_id(key) for key, _ in _in_class_order(failed)]
    return {"checked": len(lattices), "failures": failures,
            "all_pass": not failures}


def lemma51_report(n_max: int, max_size: int = DEFAULT_MAX_SIZE) -> dict:
    """The ``lemma51`` suite: ``relation_downset_iso`` on every class of
    1..n_max points, which raises on a failed certificate."""
    checked = []
    for size, idx, X in _classes(n_max):
        relation_downset_iso(X, max_size=max_size)
        checked.append(_class_id(size, idx))
    return {"checked": checked, "all_pass": True}


def fixed_points_report(n_max: int, max_size: int = DEFAULT_MAX_SIZE) -> dict:
    """The ``fixedpoints`` suite: the classes of 1..n_max points isomorphic
    to their own relation poset, among all posets, among lattices and among
    connected posets, over one scan of the classes.

    |Phi(P)| is the number of related pairs, so P can only be a fixed point
    when its sole related pairs are the diagonal ones; Phi(P) is built once
    for each such P, under max_size.  The expected outcomes (antichains and
    nothing else for posets, nothing for lattices, only the singleton among
    connected posets) are asserted, not assumed; a violation raises
    InternalError."""
    found = [
        (_class_id(size, idx), P) for size, idx, P in _classes(n_max)
        if P.relation_count() == P.n
        and is_isomorphic(relation_poset(P, max_size)[0], P) is not None
    ]
    lattices = [(hit, P) for hit, P in found if _is_lattice(P)]
    connected = [(hit, P) for hit, P in found if is_connected(P)]
    modes = {}
    for mode, hits, expectation, ok in (
        ("posets", found, "fixed points are exactly the antichains",
         len(found) == n_max and all(P.is_antichain() for _, P in found)),
        ("lattices", lattices, "no lattice fixed points", not lattices),
        ("connected_posets", connected,
         "no connected fixed point with more than one element",
         all(P.n == 1 for _, P in connected)),
    ):
        if not ok:
            raise InternalError(f"fixed-point expectation violated: {expectation}")
        modes[mode] = {"hits": [hit for hit, _ in hits], "expectation": expectation}
    return {"modes": modes, "all_pass": True}


def _is_lattice(P: Poset) -> bool:
    """Whether P is a bounded distributive lattice with 0 != 1."""
    try:
        lattice_from_poset(P)
    except OrdlatError:
        return False
    return True


def shift_report(n_max: int, max_size: int = DEFAULT_MAX_SIZE) -> dict:
    """The ``shift`` suite: ``cube_shift_check`` for n = 0..n_max, under
    max_size alone, counting E(cube n)'s comparable pairs (Phi's points)."""
    cases = {}
    for n in range(n_max + 1):
        w = cube_shift_check(n, max_size)
        cases[str(n)] = {"pass": True, "comparable_pairs": len(w.forward)}
    return {"cases": cases, "all_pass": True}


def dimension_report(
    n_max: int,
    max_size: int = DEFAULT_MAX_SIZE,
    dim_cap: int = DEFAULT_DIMENSION_CAP,
) -> list[dict]:
    """Survey rows comparing width and order dimension of each small poset
    with those of its relation poset, built under max_size; oversized
    dimension entries are marked skipped rather than computed.

    P is the diagonal of its relation poset, which is a subposet of P x P,
    so dim P <= dim Phi(P) <= 2 dim P; a row breaking this raises
    InternalError.
    """
    rows = []
    for size, idx, P in _classes(n_max):
        RP, _ = relation_poset(P, max_size)
        dim_p = order_dimension(P, cap=dim_cap) if P.n <= dim_cap else None
        dim_rp = order_dimension(RP, cap=dim_cap) if RP.n <= dim_cap else None
        if None not in (dim_p, dim_rp) and not dim_p <= dim_rp <= 2 * dim_p:
            raise InternalError(
                f"dim {dim_p} and dim_rel {dim_rp} of {_class_id(size, idx)} "
                "break dim P <= dim Phi(P) <= 2 dim P"
            )
        rows.append(
            {
                "id": _class_id(size, idx),
                "size": P.n,
                "dim": dim_p if dim_p is not None else "SKIPPED",
                "dim_rel": dim_rp if dim_rp is not None else "SKIPPED",
                "width": width(P),
                "width_rel": width(RP),
            }
        )
    return rows
