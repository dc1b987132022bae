import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlat as o
from ordlat import DegenerateBounds, OrdlatError
from ordlat.duality import _inclusion_order
from ordlat.lattice import _tables
from oracles import (
    brute_check_tables,
    brute_down_sets,
    brute_inclusion_order,
    brute_prime_ideals,
    is_filter,
    is_ideal,
    is_prime_ideal,
)


def lat(P):
    return o.lattice_from_poset(P)


def lattice_valid(posets):
    out = []
    for P in posets:
        try:
            out.append(lat(P))
        except OrdlatError:
            continue
    return out


def test_prime_ideals_of_chains():
    for n in range(2, 6):
        L = lat(o.chain(n))
        # the prime ideals of a chain are its proper nonempty down-sets
        assert o.prime_ideals(L) == [(2 << k) - 1 for k in range(n - 1)]


def test_prime_ideals_match_power_set_oracle():
    """The prime ideals, and the spectrum built on them: point k of spec L
    is the k-th prime ideal, under inclusion."""
    checked = 0
    for n in range(2, 8):
        for L in lattice_valid(o.enumerate_posets(n)):
            X, ideals = o.spec(L)
            assert ideals == o.prime_ideals(L) == brute_prime_ideals(L)
            assert list(X.up) == brute_inclusion_order(ideals)
            checked += 1
    assert checked == 20


def test_prime_ideals_boolean4():
    B = o.clopen_downset_lattice(o.antichain(2))[0]
    ideals = o.prime_ideals(B)
    assert len(ideals) == 2
    for I in ideals:
        assert is_prime_ideal(B, I)


def test_prime_iff_complement_filter():
    for P in (o.chain(4), o.cube(3), o.antichain(2)):
        try:
            L = lat(P)
        except OrdlatError:
            continue
        full = L.order.full_mask
        for d in o.down_sets(L.order):
            if is_ideal(L, d):
                assert is_prime_ideal(L, d) == is_filter(L, full & ~d)
            else:
                assert not is_prime_ideal(L, d)


def test_spec_examples():
    assert o.spec(lat(o.chain(3)))[0].is_chain()
    assert o.spec(lat(o.chain(3)))[0].n == 2
    B = o.clopen_downset_lattice(o.antichain(2))[0]
    assert o.spec(B)[0].is_antichain() and o.spec(B)[0].n == 2
    assert o.spec(lat(o.chain(2)))[0].n == 1


def test_spec_hom_identity_and_collapse():
    c3 = lat(o.chain(3))
    ident = o.spec_hom(o.identity_hom(c3))
    assert ident.mapping == (0, 1)
    c2 = lat(o.chain(2))
    f = o.hom_new(c3, c2, (0, 1, 1))
    sm = o.spec_hom(f)
    # spec(c2) is the single ideal {0}; its preimage is {0} in c3
    assert sm.source.n == 1
    ideals = o.prime_ideals(c3)
    assert ideals[sm.mapping[0]] == 0b001


def test_spec_hom_contravariant_on_chains():
    chains = {n: lat(o.chain(n)) for n in (2, 3, 4)}
    for a in chains.values():
        for b in chains.values():
            for c in chains.values():
                for f in o.enumerate_homs(a, b):
                    for g in o.enumerate_homs(b, c):
                        lhs = o.spec_hom(f.then(g))
                        sf, sg = o.spec_hom(f), o.spec_hom(g)
                        composed = tuple(sf.mapping[v] for v in sg.mapping)
                        assert lhs.mapping == composed


def test_clopen_downset_lattice_examples():
    assert o.clopen_downset_lattice(o.chain(2))[0].order.is_chain()
    assert o.clopen_downset_lattice(o.chain(2))[0].n == 3
    B = o.clopen_downset_lattice(o.antichain(2))[0]
    assert B.n == 4
    assert o.clopen_downset_lattice(o.cube(3))[0].n == 20


@st.composite
def mask_lists(draw):
    """Distinct masks over a ground set of 0-8 points, in drawn order, with
    the empty and the full mask each present or not."""
    size = draw(st.integers(0, 8))
    full = (1 << size) - 1
    masks = set(draw(st.lists(st.integers(0, full), max_size=20)))
    for m in (0, full):
        if draw(st.booleans()):
            masks.add(m)
    return size, draw(st.permutations(sorted(masks)))


@settings(max_examples=200, deadline=None)
@given(mask_lists())
def test_inclusion_order_matches_pairwise_oracle(drawn):
    size, masks = drawn
    names = [chr(ord("a") + x) for x in range(size)]
    P = _inclusion_order(masks, size, names)
    assert list(P.up) == brute_inclusion_order(masks)
    assert P.labels == tuple(
        "{" + ",".join(names[x] for x in range(size) if (m >> x) & 1) + "}"
        for m in masks
    )


def test_downset_lattice_tables_are_intersection_and_union():
    """On every poset of at most 4 points element k of E(X) is the k-th
    down-set, under inclusion; the tables pass the table oracle, and meet
    and join are intersection and union of the down-sets."""
    for n in range(1, 5):
        for X in o.enumerate_posets(n):
            E, ds = o.clopen_downset_lattice(X)
            assert ds == brute_down_sets(X)
            assert list(E.order.up) == brute_inclusion_order(ds)
            meet, join = _tables(E.order)
            assert brute_check_tables(E.order, meet, join, E.bottom, E.top) is None
            index = {m: k for k, m in enumerate(ds)}
            assert (ds[E.bottom], ds[E.top]) == (0, X.full_mask)
            for i in range(E.n):
                for j in range(E.n):
                    assert meet[i][j] == index[ds[i] & ds[j]]
                    assert join[i][j] == index[ds[i] | ds[j]]


def test_clopen_downset_lattice_empty_rejected():
    with pytest.raises(DegenerateBounds):
        o.clopen_downset_lattice(o.poset_new(0, []))


def test_e_hom_identity():
    X = o.chain(3)
    h = o.e_hom(X, X, range(3))
    assert h.mapping == tuple(range(h.source.n))


def test_e_hom_singleton_into_top_of_chain2():
    X = o.antichain(1)
    Y = o.chain(2)
    h = o.e_hom(X, Y, [1])  # hit the top element
    # E(chain2) carrier is {}, {0}, {0,1}; preimages are {}, {}, {0}
    assert h.mapping == (0, 0, 1)


def test_e_hom_constant_to_bottom():
    X = o.chain(2)
    h = o.e_hom(X, X, [0, 0])
    # {0} pulls back to everything; full set also pulls back to everything
    E = h.source
    assert h.mapping[E.bottom] == h.target.bottom
    assert h.mapping[1] == h.target.top
    assert h.mapping[E.top] == h.target.top


def test_e_hom_rejects_non_monotone():
    with pytest.raises(o.NotOrderPreserving):
        o.e_hom(o.chain(2), o.chain(2), [1, 0])


def test_e_hom_contravariant_on_chains():
    def monotone_maps(X, Y):
        out = []

        def rec(prefix):
            if len(prefix) == X.n:
                out.append(tuple(prefix))
                return
            lo = prefix[-1] if prefix else 0
            for v in range(lo, Y.n):
                rec(prefix + [v])

        rec([])
        return out

    chains = {n: o.chain(n) for n in (2, 3, 4)}
    for X in chains.values():
        for Y in chains.values():
            for Z in chains.values():
                for g1 in monotone_maps(X, Y):
                    for g2 in monotone_maps(Y, Z):
                        comp = tuple(g2[v] for v in g1)
                        lhs = o.e_hom(X, Z, comp)
                        rhs = o.e_hom(Y, Z, g2).then(o.e_hom(X, Y, g1))
                        assert lhs.mapping == rhs.mapping


def test_unit_lattice_examples():
    c2 = lat(o.chain(2))
    w = o.unit_lattice(c2)
    assert w.forward == (0, 1)
    c3 = lat(o.chain(3))
    assert o.unit_lattice(c3).forward == (0, 1, 2)


def test_unit_lattice_free_on_three_generators():
    E = o.clopen_downset_lattice(o.cube(3))[0]
    w = o.unit_lattice(E)
    S = o.spec(E)[0]
    assert w.validate(E.order, o.clopen_downset_lattice(S)[0].order)


def test_unit_space_examples():
    for X in (o.antichain(1), o.antichain(2), o.chain(3)):
        w = o.unit_space(X)
        E = o.clopen_downset_lattice(X)[0]
        assert w.validate(X, o.spec(E)[0])


def test_spectrum_size_matches_space():
    for n in (1, 2, 3, 4):
        for X in o.enumerate_posets(n):
            E = o.clopen_downset_lattice(X)[0]
            assert o.spec(E)[0].n == X.n


def test_birkhoff_cross_check_join_irreducibles_vs_spec():
    for n in range(2, 6):
        for L in lattice_valid(o.enumerate_posets(n)):
            ji = o.join_irreducibles(L)
            S = o.spec(L)[0]
            w = o.is_isomorphic(ji, S)
            assert w is not None and w.validate(ji, S)

