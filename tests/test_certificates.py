"""Order certificates checked by row pullback, against pair-by-pair oracles:
isomorphism witnesses, order-preserving maps and spectrum maps, the
preimages that ``e_hom`` and ``spec_hom`` compute, the transposes and unit
images that the duality maps are read from, and the failures of the one
lookup-and-certify step they all go through."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlat as o
from ordlat import InternalError, NotOrderPreserving
from ordlat.duality import (
    SpectrumMap,
    _certified,
    _order_preserving,
    _positions,
    _unit_images,
)
from ordlat.poset import IsoWitness, _pullback, _transpose
from oracles import (
    brute_closure,
    brute_first_order_violation,
    brute_iso_valid,
    brute_preimage,
    brute_transpose,
    brute_unit_images,
)


def _poset(rows):
    return o.Poset(len(rows), tuple(rows), tuple(map(str, range(len(rows)))))


@st.composite
def posets(draw, min_size=0, max_size=9):
    """A poset on min_size..max_size elements, closed from random pairs
    i < j, so acyclic, then relabelled at random."""
    n = draw(st.integers(min_size, max_size))
    if n == 0:
        return _poset([])
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    rows = brute_closure(n, [(min(p), max(p)) for p in pairs])[0]
    return _poset(rows).induced(draw(st.permutations(range(n))))


@st.composite
def maps(draw, X, Y):
    """A map X -> Y, mostly order-preserving: along a linear extension of
    X, each point usually goes above the images of the points below it,
    when Y has such a point, and anywhere otherwise."""
    g = [0] * X.n
    for x in sorted(range(X.n), key=lambda x: (X.down_masks[x].bit_count(), x)):
        allowed = Y.full_mask
        for p in range(X.n):
            if p != x and X.leq(p, x):
                allowed &= Y.up[g[p]]
        fits = [y for y in range(Y.n) if (allowed >> y) & 1]
        if fits and draw(st.integers(0, 9)):
            g[x] = draw(st.sampled_from(fits))
        else:
            g[x] = draw(st.integers(0, Y.n - 1))
    return g


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pullback_is_the_preimage(data):
    width = data.draw(st.integers(1, 12))
    g = data.draw(st.lists(st.integers(0, width - 1), max_size=12))
    pull = _pullback(g, width)
    # bits at and above width are ignored, as by the loop
    for mask in data.draw(st.lists(st.integers(0, 1 << (width + 3)), max_size=8)):
        assert pull(mask) == brute_preimage(g, mask)


def test_pullback_of_the_empty_map():
    assert _pullback((), 0)(0) == 0
    assert _pullback((), 5)(0b10110) == 0


@settings(max_examples=200, deadline=None)
@given(posets(), st.data())
def test_relabellings_validate(P, data):
    perm = data.draw(st.permutations(range(P.n)))
    Q = P.induced(perm)
    # Q's element i is P's perm[i], so P's element perm[i] goes to i
    w = IsoWitness.from_forward(sorted(range(P.n), key=lambda i: perm[i]))
    assert w.validate(P, Q)
    assert brute_iso_valid(w, P, Q)
    assert w.inverse().validate(Q, P)


@settings(max_examples=300, deadline=None)
@given(posets(), st.data())
def test_iso_witness_matches_the_pair_oracle(P, data):
    """Random bijections, mostly not isomorphisms, onto random relabellings
    of P or onto other posets, some with a broken backward map or a
    forward map that is not a bijection."""
    n = P.n
    if data.draw(st.booleans()):
        Q = P.induced(data.draw(st.permutations(range(n))))
    else:
        Q = data.draw(posets(n, n))
    w = IsoWitness.from_forward(data.draw(st.permutations(range(n))))
    kind = data.draw(st.integers(0, 3))
    if kind == 1 and n:
        w = IsoWitness(w.forward, data.draw(st.permutations(range(n))))
    elif kind == 2 and n:
        w = IsoWitness(
            tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                     max_size=n))),
            w.backward,
        )
    assert w.validate(P, Q) == brute_iso_valid(w, P, Q)


@settings(max_examples=300, deadline=None)
@given(posets(), posets(1), st.data())
def test_order_preserving_raises_on_the_oracles_pair(X, Y, data):
    g = data.draw(maps(X, Y))
    first = brute_first_order_violation(X, Y, g)
    assert SpectrumMap(X, Y, tuple(g)).validate() == (first is None)
    if first is None:
        assert _order_preserving(X, Y, g) == tuple(g)
    else:
        with pytest.raises(NotOrderPreserving) as err:
            _order_preserving(X, Y, g)
        assert err.value.pair == first


@settings(max_examples=150, deadline=None)
@given(posets(1, 5), posets(1, 5), st.data())
def test_e_hom_and_spec_hom_are_the_preimage_loops(X, Y, data):
    g = data.draw(maps(X, Y))
    if brute_first_order_violation(X, Y, g) is not None:
        return
    f = o.e_hom(X, Y, g)
    dsx, dsy = o.down_sets(X), o.down_sets(Y)
    assert [dsx[k] for k in f.mapping] == [brute_preimage(g, d) for d in dsy]
    # f: E(Y) -> E(X); spec f sends each prime ideal of E(X) to its preimage
    src = o.prime_ideals(f.source)
    tgt = o.prime_ideals(f.target)
    s = o.spec_hom(f)
    assert [src[k] for k in s.mapping] == [
        brute_preimage(f.mapping, m) for m in tgt
    ]


def test_e_hom_reads_the_width_off_the_target():
    # preimages read every point of Y, however few of them g hits or X has:
    # a point into the first of two, and into the last of three
    h = o.e_hom(o.chain(1), o.antichain(2), [0])
    assert h.mapping == (0, 1, 0, 1)  # of {}, {0}, {1}, {0, 1}
    h = o.e_hom(o.chain(1), o.antichain(3), [2])
    assert h.mapping == tuple(
        brute_preimage([2], d) for d in o.down_sets(o.antichain(3))
    )


def test_spec_hom_on_every_small_hom_matches_the_preimage_loop():
    lattices = [o.lattice_from_poset(o.chain(n)) for n in (2, 3, 4)]
    lattices.append(o.clopen_downset_lattice(o.antichain(2))[0])
    for a in lattices:
        for b in lattices:
            src = o.prime_ideals(a)
            tgt = o.prime_ideals(b)
            for f in o.enumerate_homs(a, b):
                s = o.spec_hom(f)
                assert [src[k] for k in s.mapping] == [
                    brute_preimage(f.mapping, m) for m in tgt
                ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_transpose_is_the_bit_loop(data):
    """Up to 200 rows up to 200 wide, each dense (any mask) or sparse (at
    most three bits), in any mix: the input runs from empty to about half
    full, so both routes and the switch between them are met."""
    width = data.draw(st.integers(0, 200))
    dense = st.integers(0, (1 << width) - 1)
    sparse = st.lists(st.integers(0, max(width - 1, 0)), max_size=3).map(
        lambda js: sum(1 << j for j in set(js)) if width else 0)
    rows = data.draw(st.lists(st.one_of(dense, sparse), max_size=200))
    assert _transpose(rows, width) == brute_transpose(rows, width)


def test_transpose_through_the_switch():
    """Bits set one at a time, in a random order, until the rows are full:
    every count of set bits from empty to full, for rows of each shape."""
    rng = random.Random(24)
    for count, width in [(12, 12), (40, 8), (8, 40), (3, 30), (30, 3), (1, 1)]:
        cells = [(i, j) for i in range(count) for j in range(width)]
        rng.shuffle(cells)
        rows = [0] * count
        assert _transpose(rows, width) == brute_transpose(rows, width)
        for i, j in cells:
            rows[i] |= 1 << j
            assert _transpose(rows, width) == brute_transpose(rows, width)
    # 200 x 200, every 97 bits up to an eighth full, then full
    cells = [(i, j) for i in range(200) for j in range(200)]
    rng.shuffle(cells)
    rows = [0] * 200
    for k, (i, j) in enumerate(cells[:5000]):
        rows[i] |= 1 << j
        if k % 97 == 0:
            assert _transpose(rows, 200) == brute_transpose(rows, 200)
    rows = [(1 << 200) - 1] * 200
    assert _transpose(rows, 200) == brute_transpose(rows, 200)


def test_unit_images_are_the_omitting_loop():
    """The unit a |-> {prime ideals omitting a} of E(X) for every X of at
    most four points and of Phi(chain k), k = 3..5, and the co-unit
    x |-> {down-sets omitting x} of those X."""
    lattices = []
    for n in range(1, 5):
        for X in o.enumerate_posets(n):
            E, ds = o.clopen_downset_lattice(X)
            assert _unit_images(ds, X.n) == brute_unit_images(ds, X.n)
            lattices.append(E)
    for k in (3, 4, 5):
        lattices.append(o.relation_lattice(o.lattice_from_poset(o.chain(k)))[0])
    for L in lattices:
        masks = o.prime_ideals(L)
        assert _unit_images(masks, L.n) == brute_unit_images(masks, L.n)


def test_a_key_outside_the_carrier_is_an_internal_error():
    assert _positions([4, 1], [1, 2, 4], "keys") == [2, 0]
    with pytest.raises(InternalError, match="keys is not in its carrier"):
        _positions([1, 3], [1, 2, 4], "keys")


def test_from_forward_leaves_out_of_range_positions_to_validate():
    C = o.chain(2)
    for forward, backward in [((0, 5), (0, 0)), ((0, -1), (0, 0)),
                              ((2, 1), (0, 1))]:
        w = IsoWitness.from_forward(forward)
        assert (w.forward, w.backward) == (forward, backward)
        assert not w.validate(C, C)
        assert not brute_iso_valid(w, C, C)


def test_certify_refuses_what_is_not_an_order_isomorphism():
    C, A = o.chain(2), o.antichain(2)
    assert _certified(C, C, ["a", "b"], ["a", "b"], "map").forward == (0, 1)
    for P, Q, keys in [
        (C, C, ["b", "a"]),  # a bijection that reverses the order
        (C, A, ["a", "b"]),  # a bijection that is not onto an isomorphic Q
        (C, C, ["a", "a"]),  # not a bijection
    ]:
        with pytest.raises(InternalError, match="map failed"):
            _certified(P, Q, keys, ["a", "b"], "map")
    # a carrier longer than the keys cannot be matched one to one
    with pytest.raises(InternalError, match="map failed"):
        _certified(o.chain(1), o.chain(1), ["b"], ["a", "b"], "map")
