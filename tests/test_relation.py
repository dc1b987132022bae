import dataclasses
import random

import pytest

import ordlat as o
from ordlat import CapExceeded, InternalError, OrdlatError, relation
from ordlat.lattice import _tables
from ordlat.poset import DEFAULT_MAX_SIZE
from oracles import (
    brute_check_tables,
    brute_dimension,
    brute_iso,
    brute_layered_down_set,
    brute_pair_order,
    brute_prime_ideals,
    brute_relation_rows,
    brute_transpose,
    partner_factor_by_two,
    scan_lattice_classes,
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


def test_relation_poset_of_chain2():
    RP, prs = o.relation_poset(o.chain(2))
    assert prs == ((0, 0), (0, 1), (1, 1))
    assert RP.is_chain() and RP.n == 3


def test_relation_poset_of_antichain():
    for n in (1, 2, 4):
        RP, prs = o.relation_poset(o.antichain(n))
        assert RP.is_antichain() and RP.n == n


def test_relation_poset_square_iff_singleton():
    RP, _ = o.relation_poset(o.antichain(1))
    assert RP.n == 1 * 1
    for n in (2, 3, 4):
        for P in o.enumerate_posets(n):
            RP, _ = o.relation_poset(P)
            assert RP.n < P.n * P.n


def test_relation_poset_size_is_pair_count():
    for n in (1, 2, 3, 4):
        for P in o.enumerate_posets(n):
            RP, _ = o.relation_poset(P)
            assert RP.n == P.relation_count()
            assert (RP.n == P.n) == P.is_antichain()


def test_relation_poset_is_refused_before_its_pairs_are_listed(monkeypatch):
    listed = []
    real = o.Poset.pairs

    def counted(P):
        listed.append(P.n)
        return real(P)

    monkeypatch.setattr(o.Poset, "pairs", counted)
    with pytest.raises(CapExceeded, match="relation poset has 524800 elements"):
        o.relation_poset(o.chain(1024))
    with pytest.raises(CapExceeded, match="relation poset has 6 elements, cap 5"):
        o.relation_lattice(lat(o.chain(3)), max_size=5)
    assert listed == []
    assert o.relation_poset(o.chain(3), max_size=6)[0].n == 6
    assert listed == [3]


def test_relation_poset_matches_oracle():
    posets = [P for n in range(1, 6) for P in o.enumerate_posets(n)]
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        p = rng.uniform(0.05, 0.5)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        posets.append(o.poset_new(n, pairs))
    for P in posets:
        RP, prs = o.relation_poset(P)
        assert list(RP.up) == brute_relation_rows(P)
        assert list(prs) == [
            (a, b) for a in range(P.n) for b in range(P.n) if P.leq(a, b)
        ]


def random_labelled_posets(rng, count, n_max):
    """Posets of 1 to n_max points on shuffled pairs, labelled by random
    letters; half keep the down-rows the closure sets, half are relabelled
    copies without them."""
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        perm = list(range(n))
        rng.shuffle(perm)
        p = rng.uniform(0.1, 0.6)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        labels = ["".join(rng.choices("abxy", k=rng.randint(1, 2))) for _ in perm]
        P = o.poset_new(n, pairs, labels)
        out.append(P if rng.random() < 0.5 else shuffled(rng, P))
    return out


def test_products_and_relation_posets_match_the_pair_order_oracle():
    """Up-rows, down-rows and labels of P x Q and Phi(P), on every pair of
    posets of at most 3 points and on seeded random labelled posets."""
    small = [P for n in range(1, 4) for P in o.enumerate_posets(n)]
    rng = random.Random(20)
    mixed = random_labelled_posets(rng, 40, 8)
    pairs = [(P, Q) for P in small for Q in small]
    pairs += [(mixed[k], mixed[k + 1]) for k in range(0, len(mixed), 2)]
    for P, Q in pairs:
        prs = [(a, b) for a in range(P.n) for b in range(Q.n)]
        R = o.product(P, Q)
        assert (list(R.up), list(R.down_masks), list(R.labels)) == (
            brute_pair_order(P, Q, prs))
    for P in small + mixed:
        RP, prs = o.relation_poset(P)
        assert (list(RP.up), list(RP.down_masks), list(RP.labels)) == (
            brute_pair_order(P, P, list(prs)))


def test_products_and_relation_posets_hand_over_their_down_rows(monkeypatch):
    """Given factors whose down-rows are known, P x Q and Phi(P) set their
    own down-rows as they are built: reading them transposes nothing."""
    transposed = []
    real = o.poset._transpose

    def counted(rows, width):
        transposed.append(width)
        return real(rows, width)

    rng = random.Random(21)
    two = o.chain(2)
    factors = random_labelled_posets(rng, 10, 7) + [o.cube(3), two]
    for P in factors:
        P.down_masks
    monkeypatch.setattr(o.poset, "_transpose", counted)
    built = [o.product(X, two) for X in factors]
    built += [o.relation_poset(X)[0] for X in factors]
    rows = [R.down_masks for R in built]
    assert transposed == []
    monkeypatch.undo()
    assert rows == [tuple(brute_transpose(R.up, R.n)) for R in built]


def test_relation_lattice_sizes():
    assert o.relation_lattice(lat(o.chain(2)))[0].n == 3
    assert o.relation_lattice(lat(o.chain(3)))[0].n == 6
    B = o.clopen_downset_lattice(o.antichain(2))[0]
    assert o.relation_lattice(B)[0].n == 9


def test_relation_lattice_cap():
    with pytest.raises(CapExceeded):
        o.relation_lattice(lat(o.chain(5)), max_size=10)


def test_relation_lattice_is_a_sublattice_of_the_square():
    """On every distributive lattice of 2-7 elements and on chains of up to
    12, Phi(L)'s tables are L's operations in each component, with bounds
    (0,0) and (1,1); on the small ones they also pass the table oracle."""
    small = lattice_valid(
        P for n in range(2, 8) for P in o.enumerate_posets(n)
    )
    assert len(small) == 20
    chains = [lat(o.chain(n)) for n in range(2, 13)]
    for L in small + chains:
        PhiL, prs = o.relation_lattice(L)
        (meet, join), (phi_meet, phi_join) = _tables(L.order), _tables(PhiL.order)
        index = {pr: k for k, pr in enumerate(prs)}
        for k, (a, b) in enumerate(prs):
            for l, (c, d) in enumerate(prs):
                assert phi_meet[k][l] == index[meet[a][c], meet[b][d]]
                assert phi_join[k][l] == index[join[a][c], join[b][d]]
        assert prs[PhiL.bottom] == (L.bottom, L.bottom)
        assert prs[PhiL.top] == (L.top, L.top)
    for L in small:
        PhiL, _ = o.relation_lattice(L)
        assert brute_check_tables(
            PhiL.order, *_tables(PhiL.order), PhiL.bottom, PhiL.top
        ) is None


def _swap_pairs(k, l):
    """Spoil relation_poset's pair map by swapping pairs k and l."""
    real = relation.relation_poset

    def spoiled(P, max_size):
        RP, prs = real(P, max_size)
        prs = list(prs)
        prs[k], prs[l] = prs[l], prs[k]
        return RP, tuple(prs)

    return "relation_poset", spoiled


def _moved_bottom():
    """Spoil lattice_from_poset's bottom by moving it to the top."""
    real = relation.lattice_from_poset

    def spoiled(P):
        L = real(P)
        return dataclasses.replace(L, bottom=L.top)

    return "lattice_from_poset", spoiled


@pytest.mark.parametrize("spoil,message", [
    (lambda: _swap_pairs(1, 2), "not componentwise"),
    (lambda: _swap_pairs(1, 4), "not componentwise"),
    (_moved_bottom, "bounds"),
], ids=["second", "both", "bottom"])
def test_relation_lattice_refuses_tables_that_are_not_componentwise(
    monkeypatch, spoil, message
):
    """On Phi(chain 3), pairs (0,0), (0,1), (0,2), (1,1), (1,2), (2,2):
    swapping (0,1) and (0,2) spoils the second components, and swapping
    (0,1) and (1,2) both, so a component pulls some prime ideal of L back
    to a set that is not prime.  (Swapping (0,2) and (1,1) would not do:
    it is an automorphism of Phi(chain 3).)  A moved bottom is not (0,0).
    The runtime check raises on each."""
    name, spoiled = spoil()
    monkeypatch.setattr(relation, name, spoiled)
    with pytest.raises(InternalError, match=message):
        o.relation_lattice(lat(o.chain(3)))


def test_relation_hom_identity_and_collapse():
    c2 = lat(o.chain(2))
    h = o.relation_hom(o.identity_hom(c2))
    assert h.mapping == (0, 1, 2)
    c3 = lat(o.chain(3))
    f = o.hom_new(c3, c2, (0, 1, 1))
    rf = o.relation_hom(f)
    assert rf.source.n == 6 and rf.target.n == 3


def test_relation_functor_laws_on_chains():
    chains = {n: lat(o.chain(n)) for n in (2, 3, 4)}
    for a in chains.values():
        for b in chains.values():
            for c in chains.values():
                for f in o.enumerate_homs(a, b):
                    for g in o.enumerate_homs(b, c):
                        lhs = o.relation_hom(f.then(g))
                        rhs = o.relation_hom(f).then(o.relation_hom(g))
                        assert lhs.mapping == rhs.mapping


def closed_form_primes(L):
    """The closed-form prime ideals of Phi(L), as sorted masks, that the
    relation lattice is checked by."""
    return relation._relation_lattice(L, DEFAULT_MAX_SIZE)[2]


def test_relation_prime_ideals_chain2_closed_form():
    # for the single prime ideal {0} of the 2-chain, the two families are
    # {(0,0)} and {(0,0),(0,1)}
    assert closed_form_primes(lat(o.chain(2))) == [0b001, 0b011]


def test_relation_prime_ideals_match_the_power_set_oracle():
    # Phi(chain k) has k(k+1)/2 elements: the oracle filters 2^3, 2^6 and
    # 2^10 masks
    for k in (2, 3, 4):
        L = lat(o.chain(k))
        PhiL, _ = o.relation_lattice(L)
        assert closed_form_primes(L) == brute_prime_ideals(PhiL)


def test_relation_prime_ideals_counts():
    for n in range(2, 6):
        L = lat(o.chain(n))
        assert len(closed_form_primes(L)) == 2 * len(o.prime_ideals(L))
    B = o.clopen_downset_lattice(o.antichain(2))[0]
    assert len(closed_form_primes(B)) == 4


def test_relation_prime_ideals_find_the_irreducibles_of_phi_once(monkeypatch):
    """The closed-form primes of Phi(chain 4) (10 elements) are checked
    against the join-irreducibles of Phi(chain 4) found once, when the
    lattice is checked, not once per prime ideal."""
    from ordlat import duality, lattice

    L = lat(o.chain(4))
    sizes = []
    real = lattice._join_irreducibles

    def counted(P):
        sizes.append(P.n)
        return real(P)

    for module in (lattice, duality, relation):
        if hasattr(module, "_join_irreducibles"):
            monkeypatch.setattr(module, "_join_irreducibles", counted)
    assert len(closed_form_primes(L)) == 6
    assert sizes == [10]


def is_lattice(P):
    return bool(lattice_valid([P]))


def test_lattice_classes_by_birkhoff_match_the_scan_of_every_class():
    """E(X) over the spectra X of 1..n-1 points gives the classes that
    testing every poset class of at most n points finds, in the same order
    once keyed into class order, for every n <= 7; the counts by size are
    OEIS A006982."""
    scanned = scan_lattice_classes(o.enumerate_posets, is_lattice, 7)
    for n_max in range(8):
        route = relation._in_class_order(relation._lattice_classes(n_max))
        found = [(size, idx, P) for size, idx, P in scanned if size <= n_max]
        assert [relation._lattice_id(key) for key, _ in route] == [
            relation._class_id(size, idx) for size, idx, _ in found]
        for (key, L), (_, _, P) in zip(route, found):
            assert key == o.canonical_key(P)[0]
            assert o.is_isomorphic(L.order, P) is not None
    sizes = [L.n for L in relation._lattice_classes(7)]
    assert [sizes.count(m) for m in range(2, 8)] == [1, 1, 2, 3, 5, 8]


def test_antichain_floor_bounds_the_down_set_count():
    """The floor counts the antichains of at most two points, each of which
    generates its own down-set: it is at most the number of down-sets on
    every class of n <= 7, and equal exactly on the 343 of width <= 2."""
    equal = 0
    for n in range(1, 8):
        for X in o.enumerate_posets(n):
            floor, count = relation._antichain_floor(X), len(o.down_sets(X))
            assert floor <= count
            assert (floor == count) == (o.width(X) <= 2)
            equal += floor == count
    assert equal == 343


def test_lattice_classes_list_down_sets_only_within_the_floor(monkeypatch):
    """Of the 405 classes of 1..6 points, `_lattice_classes(7)` lists the
    down-sets of the 21 whose antichain floor is at most 7; 20 of them have
    at most 7 down-sets."""
    real = relation.clopen_downset_lattice
    tried = []

    def counted(X, max_size):
        tried.append(X.n)
        return real(X, max_size)

    monkeypatch.setattr(relation, "clopen_downset_lattice", counted)
    assert len(relation._lattice_classes(7)) == 20
    assert len(tried) == 21


def test_verify_relation_primes_small():
    for L in (
        lat(o.chain(2)),
        lat(o.chain(4)),
        o.clopen_downset_lattice(o.antichain(2))[0],
        o.clopen_downset_lattice(o.chain(3))[0],
    ):
        assert o.verify_relation_primes(L)


def test_verify_relation_primes_pulls_components_once(monkeypatch):
    # the component pullbacks that check Phi(L) inside L x L are the ones
    # the projection checks read
    calls = []
    real = relation._components

    def counted(prs, width):
        calls.append(width)
        return real(prs, width)

    monkeypatch.setattr(relation, "_components", counted)
    for L in (lat(o.chain(3)), o.clopen_downset_lattice(o.antichain(2))[0]):
        calls.clear()
        assert o.verify_relation_primes(L)
        assert calls == [L.n]


def test_verify_relation_primes_random_larger():
    # 100 random lattices of size > 5, staying inside the brute-force
    # down-set cap (spaces of 4 points already put the pair lattice at 81
    # elements with over 1e5 down-sets, so the pool stops below that)
    rng = random.Random(745)
    checked = 0
    while checked < 100:
        kind = rng.randrange(3)
        if kind == 0:
            X = rng.choice(o.enumerate_posets(3))
            perm = list(range(3))
            rng.shuffle(perm)
            L = o.clopen_downset_lattice(X.induced(perm))[0]
            if L.n <= 5:
                continue
        elif kind == 1:
            L = lat(o.chain(rng.randrange(6, 9)))
        else:
            G = o.product(o.chain(rng.randrange(3, 5)), o.chain(2))
            L = lat(G)
        assert o.verify_relation_primes(L)
        checked += 1


def test_projections_of_down_sets_are_pullbacks():
    """On every down-set S of Phi(L), L one per class of distributive
    lattices of 2..7 elements, the two pullbacks give the projections of S
    read pair by pair: 2,188 down-sets in all."""
    seen = 0
    for L in relation._lattice_classes(7):
        PhiL, prs = o.relation_lattice(L)
        proj1, proj2 = relation._projections(prs, L)
        for S in o.down_sets(PhiL.order):
            pairs = [prs[k] for k in range(len(prs)) if S >> k & 1]
            assert proj1(S) == sum({1 << a for a, _ in pairs})
            assert proj2(S) == sum({1 << b for _, b in pairs})
            seen += 1
    assert seen == 2188


def test_relation_downset_iso_frozen_chain2():
    # layered map for X = 2-chain, computed by hand over the 6 carriers
    w = o.relation_downset_iso(o.chain(2))
    assert w.forward == (0, 1, 3, 2, 4, 5)


def test_relation_downset_iso_sends_each_pair_to_its_layers():
    """Pair k of Phi(E(X)), the k-th d <= e of down-sets of X, goes to the
    down-set of X x 2 with d on its top layer and e on its bottom one, for
    every class of at most four points and for cube 3."""
    spaces = [X for n in range(1, 5) for X in o.enumerate_posets(n)]
    for X in spaces + [o.cube(3)]:
        ds = o.down_sets(X)
        ds2 = o.down_sets(o.product(X, o.chain(2)))
        prs = [(d, e) for d in ds for e in ds if d & ~e == 0]
        assert o.relation_downset_iso(X).forward == tuple(
            ds2.index(brute_layered_down_set(d, e, X.n)) for d, e in prs)


def test_relation_downset_iso_singleton():
    w = o.relation_downset_iso(o.antichain(1))
    E = o.clopen_downset_lattice(o.antichain(1))[0]
    Phi, _ = o.relation_lattice(E)
    prod = o.product(o.antichain(1), o.chain(2))
    assert w.validate(Phi.order, o.clopen_downset_lattice(prod)[0].order)
    assert Phi.n == 3


def test_relation_downset_iso_counts():
    Phi, _ = o.relation_lattice(o.clopen_downset_lattice(o.chain(2))[0])
    assert Phi.n == 6  # matches the down-set lattice of the square
    o.relation_downset_iso(o.chain(2))


def test_factor_by_two_examples():
    w = o.factor_by_two(o.chain(2))
    assert w is not None and w.factor.n == 1
    assert o.factor_by_two(o.chain(3)) is None
    w = o.factor_by_two(o.cube(3))
    assert w is not None
    assert o.is_isomorphic(w.factor, o.cube(2)) is not None
    assert w.validate(o.cube(3))


def test_factor_witness_with_a_short_pairing_does_not_validate():
    w = o.factor_by_two(o.cube(2))
    assert w.validate(o.cube(2))
    short = dataclasses.replace(w, pairing=w.pairing[:-1])
    assert not short.validate(o.cube(2))


def test_factor_by_two_completeness_small():
    # agree with brute-force search for a half Y with Y x 2 isomorphic to P
    for n in (2, 4, 6):
        for P in o.enumerate_posets(n):
            got = o.factor_by_two(P)
            exists = any(
                brute_iso(o.product(Y, o.chain(2)), P) is not None
                for Y in o.enumerate_posets(n // 2)
            )
            assert (got is not None) == exists
            if got is not None:
                assert got.validate(P)


def random_poset(rng, n):
    p = rng.uniform(0, 0.6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return o.poset_new(n, pairs)


def shuffled(rng, P):
    perm = list(range(P.n))
    rng.shuffle(perm)
    return P.induced(perm)


def test_factor_by_two_is_the_partner_search(monkeypatch):
    """The same (block, pairing, factor) as the per-pair partner search on
    every class of 2, 4 and 6 points, on relabelled Y x 2 and random
    posets of at most 14 points, and on the 86-point spectrum of
    Phi(chain 44); the search reads rows, never ``leq``."""
    rng = random.Random(13)
    posets = [P for n in (2, 4, 6) for P in o.enumerate_posets(n)]
    for _ in range(150):
        Y = random_poset(rng, rng.randint(1, 7))
        posets.append(shuffled(rng, o.product(Y, o.chain(2))))
        posets.append(shuffled(rng, random_poset(rng, rng.randint(1, 14))))
    PhiL, _ = o.relation_lattice(lat(o.chain(44)))
    posets.append(o.spec(PhiL)[0])
    calls = []
    real = o.Poset.leq

    def counted(P, i, j):
        calls.append((i, j))
        return real(P, i, j)

    monkeypatch.setattr(o.Poset, "leq", counted)
    hits = 0
    for P in posets:
        w = o.factor_by_two(P)
        assert calls == []
        expect = partner_factor_by_two(P, o.down_sets(P))
        calls.clear()
        assert (None if w is None else (w.block, w.pairing, w.factor)) == expect
        hits += w is not None
    assert 150 <= hits < len(posets)
    assert w.factor.n == 43


def test_factor_by_two_builds_each_product_once(monkeypatch):
    """Every half that reaches the isomorphism search builds Y x 2 once: the
    accepted half's witness is certified against the product the search
    ran on, not a rebuilt one."""
    rng = random.Random(29)
    posets = list(o.enumerate_posets(4)) + [o.cube(3), o.cube(4)]
    for _ in range(30):
        Y = random_poset(rng, rng.randint(1, 6))
        posets.append(shuffled(rng, o.product(Y, o.chain(2))))
    built, searched = [], []
    real_product, real_extend = relation.product, relation._extend

    def counted_product(*args):
        built.append(args)
        return real_product(*args)

    def counted_extend(*args):
        searched.append(args)
        return real_extend(*args)

    monkeypatch.setattr(relation, "product", counted_product)
    monkeypatch.setattr(relation, "_extend", counted_extend)
    hits = 0
    for P in posets:
        built.clear()
        searched.clear()
        w = o.factor_by_two(P)
        assert len(built) == len(searched)
        if w is not None:
            hits += 1
            assert built and w.validate(P)
    assert hits >= 32


def test_image_witness_examples():
    K, w = o.relation_image_witness(lat(o.chain(3)))
    assert K.n == 2
    assert o.relation_image_witness(lat(o.chain(4))) is None
    K, w = o.relation_image_witness(o.clopen_downset_lattice(o.cube(2))[0])
    assert o.is_isomorphic(K.order, o.chain(3)) is not None


def test_image_witness_carriers_are_bounded_by_l():
    """Phi(chain 45) has 1,035 elements, past the default cap; K and Phi(K)
    are no larger than L, so the witness is found with no cap to raise."""
    L = o.relation_lattice(lat(o.chain(45)), max_size=1035)[0]
    assert L.n > DEFAULT_MAX_SIZE
    K, w = o.relation_image_witness(L)
    assert o.is_isomorphic(K.order, o.chain(45)) is not None
    assert w.validate(o.relation_lattice(K, max_size=L.n)[0].order, L.order)


def test_fixed_points_report_posets():
    modes = relation.fixed_points_report(3)["modes"]
    assert len(modes["posets"]["hits"]) == 3  # one antichain per size


def test_fixed_points_report_lattices_and_connected():
    assert relation.fixed_points_report(5)["modes"]["lattices"]["hits"] == []
    modes = relation.fixed_points_report(4)["modes"]
    assert modes["connected_posets"]["hits"] == ["n1#000"]


def test_fixed_points_report_builds_phi_only_for_antichains(monkeypatch):
    """Phi(P) is built once for each P with no more related pairs than
    elements, under the report's cap: the 7 antichains, whose hits the
    lattice and connectedness tests then filter."""
    built = []
    real = relation.relation_poset

    def counted(P, *args, **kwargs):
        built.append((P, args, kwargs))
        return real(P, *args, **kwargs)

    monkeypatch.setattr(relation, "relation_poset", counted)
    result = relation.fixed_points_report(7, 7)
    hits = {mode: rep["hits"] for mode, rep in result["modes"].items()}
    assert len(built) == 7
    assert all(P.is_antichain() for P, _, _ in built)
    assert all(args == (7,) and not kwargs for _, args, kwargs in built)
    assert len(hits["posets"]) == 7
    assert hits["lattices"] == []
    assert hits["connected_posets"] == ["n1#000"]
    assert result["all_pass"] is True


def test_fixed_points_report_refuses_phi_past_max_size():
    """Under cap k < n_max the scan refuses Phi of the (k+1)-antichain, the
    first class with more related pairs than k among the candidates."""
    for k in range(3):
        with pytest.raises(CapExceeded,
                           match=f"relation poset has {k + 1} elements, cap {k}$"):
            relation.fixed_points_report(3, k)
    assert relation.fixed_points_report(3, 3)["all_pass"] is True


def test_fixed_points_report_asserts_its_expectations(monkeypatch):
    """A hit that breaks an expectation raises InternalError: here every
    candidate is taken for a lattice."""
    monkeypatch.setattr(relation, "_is_lattice", lambda P: True)
    with pytest.raises(InternalError, match="no lattice fixed points"):
        relation.fixed_points_report(2)


def test_cube_shift_small(monkeypatch):
    """E(cube n), its relation lattice and E(cube n x 2) are each built
    once: one relation lattice and two down-set scans."""
    from ordlat import duality, relation

    calls = {"down_sets": 0, "relation_lattice": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(duality, "down_sets")
    counted(relation, "relation_lattice")
    for n in range(4):
        assert o.cube_shift_check(n)
    assert calls == {"down_sets": 4 * 2, "relation_lattice": 4}
    with pytest.raises(CapExceeded):
        o.cube_shift_check(4)


def test_cube_shift_witness_lands_on_the_next_cube():
    """The witness from Phi(E(cube n)) validates against E(cube(n+1)) built
    on its own, not only against the E(cube n x 2) it was certified on."""
    lengths = []
    for n in range(4):
        w = o.cube_shift_check(n)
        E = o.clopen_downset_lattice(o.cube(n))[0]
        PhiE, _ = o.relation_lattice(E)
        E2, _ = o.clopen_downset_lattice(o.cube(n + 1))
        assert w.validate(PhiE.order, E2.order)
        lengths.append(len(w.forward))
    assert lengths == [3, 6, 20, 168]


def test_dimension_report_checks_the_bounds(monkeypatch):
    from ordlat import relation

    real = relation.order_dimension

    def tripled_on_relation_posets(P, cap):
        return real(P, cap=cap) * (3 if P.labels[0].startswith("(") else 1)

    monkeypatch.setattr(relation, "order_dimension", tripled_on_relation_posets)
    with pytest.raises(o.InternalError, match="dim P <= dim Phi"):
        o.dimension_report(3)


def test_dimension_report_rows():
    rows = o.dimension_report(3)
    by_id = {r["id"]: r for r in rows}
    chain3 = next(
        r
        for r in rows
        if r["size"] == 3 and r["width"] == 1
    )
    assert chain3["dim"] == 1 and chain3["dim_rel"] == 2
    assert chain3["dim_rel"] == brute_dimension(
        o.relation_poset(o.chain(3))[0]
    )
    singleton = by_id["n1#000"]
    assert singleton["dim"] == 1 and singleton["dim_rel"] == 1
    antich2 = next(
        r for r in rows if r["size"] == 2 and r["width"] == 2
    )
    assert antich2["dim"] == 2 and antich2["dim_rel"] == 2


def test_dimension_report_skips_oversized():
    rows = o.dimension_report(5, dim_cap=6)
    assert any(r["dim_rel"] == "SKIPPED" for r in rows)
    assert all(r["dim"] != "SKIPPED" for r in rows if r["size"] <= 6)
