import random
from itertools import product as iproduct

import pytest

import ordlat as o
from ordlat import (
    CapExceeded,
    DegenerateBounds,
    InternalError,
    NotALattice,
    NotDistributive,
    NotHomomorphism,
    OrdlatError,
    Unbounded,
    lattice,
)
from oracles import (
    all_rows_birkhoff,
    brute_check_tables,
    brute_first_failing_triple,
    brute_first_missing_bound,
    brute_meet_join,
    brute_prime_ideals,
    is_prime_ideal,
    table_hom_defect,
)


def diamond_m3():
    """Bottom, three incomparable middle atoms, top."""
    return o.poset_new(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def test_chain4_is_min_max_lattice():
    L = o.lattice_from_poset(o.chain(4))
    meet, join = lattice._tables(L.order)
    for a in range(4):
        for b in range(4):
            assert meet[a][b] == min(a, b)
            assert join[a][b] == max(a, b)
    assert L.bottom == 0 and L.top == 3


def test_antichain2_not_a_lattice():
    with pytest.raises(Unbounded):
        o.lattice_from_poset(o.antichain(2))


def test_singleton_rejected():
    with pytest.raises(DegenerateBounds):
        o.lattice_from_poset(o.antichain(1))


def test_m3_not_distributive_with_witness():
    with pytest.raises(NotDistributive) as exc:
        o.lattice_from_poset(diamond_m3())
    a, b, c = exc.value.triple
    # the witness triple really does break the distributive law
    L = diamond_m3()
    down = {x: {y for y in range(5) if L.leq(y, x)} for x in range(5)}
    up = {x: {y for y in range(5) if L.leq(x, y)} for x in range(5)}

    def glb(x, y):
        return max(down[x] & down[y], key=lambda m: len(down[m]))

    def lub(x, y):
        return min(up[x] & up[y], key=lambda m: len(down[m]))

    assert glb(a, lub(b, c)) != lub(glb(a, b), glb(a, c))


def test_order_vs_operations_agree():
    for P in (o.chain(4), o.cube(3)):
        L = o.lattice_from_poset(P)
        meet, join = lattice._tables(L.order)
        for a in range(L.n):
            for b in range(L.n):
                assert L.leq(a, b) == (meet[a][b] == a) == (join[a][b] == b)


def test_algebraic_laws():
    E, _ = o.clopen_downset_lattice(o.chain(3))
    for P in (o.chain(5), o.cube(3), E.order):
        L = o.lattice_from_poset(P)
        meet, join = lattice._tables(L.order)
        n = L.n
        for a in range(n):
            for b in range(n):
                assert meet[a][b] == meet[b][a]
                assert join[a][b] == join[b][a]
                assert meet[a][join[a][b]] == a  # absorption
                assert join[a][meet[a][b]] == a
                for c in range(n):
                    assert meet[meet[a][b]][c] == meet[a][meet[b][c]]
                    assert join[join[a][b]][c] == join[a][join[b][c]]


def test_hom_identity():
    L = o.lattice_from_poset(o.chain(3))
    h = o.hom_new(L, L, range(3))
    assert h.mapping == (0, 1, 2)


def test_hom_collapse_middle_to_top():
    L = o.lattice_from_poset(o.chain(3))
    K = o.lattice_from_poset(o.chain(2))
    h = o.hom_new(L, K, (0, 1, 1))
    assert h(1) == 1


def test_hom_swap_rejected():
    K = o.lattice_from_poset(o.chain(2))
    with pytest.raises(NotHomomorphism):
        o.hom_new(K, K, (1, 0))


def test_enumerate_homs_counts():
    c2 = o.lattice_from_poset(o.chain(2))
    c3 = o.lattice_from_poset(o.chain(3))
    assert len(o.enumerate_homs(c2, c2)) == 1
    assert len(o.enumerate_homs(c3, c2)) == 2  # middle to bottom or top
    assert len(o.enumerate_homs(c2, c3)) == 1  # bounds force 0->0, 1->top


def test_enumerate_homs_cap():
    big = o.lattice_from_poset(o.chain(7))
    with pytest.raises(CapExceeded):
        o.enumerate_homs(big, big)


def test_homs_are_order_preserving():
    c3 = o.lattice_from_poset(o.chain(3))
    b4 = o.clopen_downset_lattice(o.antichain(2))[0]
    for f in o.enumerate_homs(c3, b4):
        for a in range(c3.n):
            for b in range(c3.n):
                if c3.leq(a, b):
                    assert b4.leq(f(a), f(b))


def test_hom_route_matches_table_scan_on_small_lattices():
    """Between the distributive lattices of 2-6 elements, hom_new's prime
    pullbacks accept exactly the maps the table scan accepts, and it names
    the scan's defect on the rest: on every candidate of enumerate_homs
    (bounds kept), and on every map between lattices of 2-4 elements."""
    lattices = [
        o.lattice_from_poset(P)
        for n in range(2, 7)
        for P in o.enumerate_posets(n)
        if _oracle_defect(P) is None
    ]
    assert [L.n for L in lattices] == [2, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6]
    kinds = {}
    for L in lattices:
        for K in lattices:
            homs = []
            ranges = [range(K.n)] * L.n
            if max(L.n, K.n) > 4:
                ranges[L.bottom], ranges[L.top] = [K.bottom], [K.top]
            for mapping in iproduct(*ranges):
                defect = table_hom_defect(L, K, mapping)
                assert lattice._hom_defect(L, K, mapping) == defect
                kind = None if defect is None else defect[0]
                kinds[kind] = kinds.get(kind, 0) + 1
                if defect is None:
                    homs.append(mapping)
            assert [f.mapping for f in o.enumerate_homs(L, K)] == homs
    assert kinds == {
        None: 2642, "bottom": 1042, "top": 277, "meet": 40851, "join": 6851,
    }


def test_oracles_build_their_own_tables(monkeypatch):
    """With the library's table builder made to raise, the prime-ideal and
    hom-defect oracles still agree with prime_ideals and _hom_defect on the
    distributive lattices of 2-6 elements, built afresh: on every mask, and
    per pair on the homs and ten seeded maps, eight keeping the bounds."""
    orders = [P for n in range(2, 7) for P in o.enumerate_posets(n)
              if _oracle_defect(P) is None]
    lattices = [o.lattice_from_poset(P) for P in orders]
    rng = random.Random(19)
    cases = {}
    for i, L in enumerate(lattices):
        for j, K in enumerate(lattices):
            maps = [f.mapping for f in o.enumerate_homs(L, K)]
            for t in range(10):
                mapping = [rng.randrange(K.n) for _ in range(L.n)]
                if t < 8:
                    mapping[L.bottom], mapping[L.top] = K.bottom, K.top
                maps.append(tuple(mapping))
            cases[i, j] = [(m, lattice._hom_defect(L, K, m)) for m in maps]
    primes = [o.prime_ideals(L) for L in lattices]

    def refuse(P):
        raise AssertionError("an oracle called the library's table builder")

    monkeypatch.setattr(lattice, "_tables", refuse)
    lattices = [o.lattice_from_poset(P) for P in orders]
    assert len(lattices) == 12
    for L, expected in zip(lattices, primes):
        assert brute_prime_ideals(L) == expected
        assert [m for m in range(1 << L.n) if is_prime_ideal(L, m)] == expected
    kinds = set()
    for (i, j), pairs in cases.items():
        for mapping, expected in pairs:
            assert table_hom_defect(lattices[i], lattices[j], mapping) == expected
            kinds.add(None if expected is None else expected[0])
    assert kinds == {None, "bottom", "top", "meet", "join"}


def test_hom_routes_that_disagree_raise_internal_error(monkeypatch):
    """If the prime pullbacks refused a true hom, the table scan would find
    no defect to name: that disagreement raises InternalError."""
    L = o.lattice_from_poset(o.chain(3))
    monkeypatch.setattr(lattice, "_prime_pullbacks", lambda L, K, pull: None)
    with pytest.raises(InternalError):
        o.hom_new(L, L, range(3))


def test_join_irreducibles_examples():
    c3 = o.lattice_from_poset(o.chain(3))
    ji = o.join_irreducibles(c3)
    assert ji.n == 2 and ji.is_chain()
    c2 = o.lattice_from_poset(o.chain(2))
    assert o.join_irreducibles(c2).n == 1
    e_cube2 = o.clopen_downset_lattice(o.cube(2))[0]
    assert e_cube2.n == 6
    assert o.join_irreducibles(e_cube2).n == 4


def test_distributivity_matches_triple_oracle_on_all_small_lattices():
    lattices = distributive = 0
    for n in range(2, 8):
        for P in o.enumerate_posets(n):
            tables = brute_meet_join(P)
            if tables is None:
                continue
            lattices += 1
            triple = brute_first_failing_triple(*tables)
            if triple is None:
                distributive += 1
                o.lattice_from_poset(P)
            else:
                with pytest.raises(NotDistributive) as exc:
                    o.lattice_from_poset(P)
                assert exc.value.triple == triple
    assert (lattices, distributive) == (77, 20)


def _oracle_defect(P):
    """The exception the table oracle expects lattice_from_poset to raise
    on P, or None for a distributive lattice."""
    defect = brute_first_missing_bound(P)
    if isinstance(defect, str):
        return Unbounded(defect)
    if defect is not None:
        return NotALattice(*defect)
    bottom = next(x for x in range(P.n) if P.up[x] == P.full_mask)
    top = next(x for x in range(P.n) if all(P.leq(y, x) for y in range(P.n)))
    defect = brute_check_tables(P, *brute_meet_join(P), bottom, top)
    return None if defect is None else NotDistributive(defect[0])


def test_mask_route_matches_table_oracle_on_all_small_posets():
    """On every enumerated poset of 2-7 elements, and on a random
    relabelling of each, lattice_from_poset accepts exactly what the table
    oracle accepts, with the oracle's join-irreducibles, and otherwise
    raises the oracle's exception type on its pair or triple."""
    rng = random.Random(16)
    kinds = {}
    for n in range(2, 8):
        for P in o.enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for Q in (P, P.induced(perm)):
                expected = _oracle_defect(Q)
                kind = type(expected).__name__
                kinds[kind] = kinds.get(kind, 0) + 1
                if expected is None:
                    L = o.lattice_from_poset(Q)
                    _, join = brute_meet_join(Q)
                    assert list(L.irreducibles) == [
                        j for j in range(n) if j != L.bottom and all(
                            join[a][b] != j or j in (a, b)
                            for a in range(n) for b in range(n)
                        )
                    ]
                    continue
                with pytest.raises(OrdlatError) as exc:
                    o.lattice_from_poset(Q)
                assert type(exc.value) is type(expected)
                assert str(exc.value) == str(expected)
    # 2,449 posets of 2-7 elements, 77 of them lattices, 20 distributive;
    # each counted twice
    assert kinds == {
        "NoneType": 40, "NotALattice": 22, "NotDistributive": 114,
        "Unbounded": 4722,
    }


def test_birkhoff_count_alone_does_not_accept():
    """Bottom 6 under 0, 4 and 5; 4 and 5 under each of 1, 2, 3; top 7.
    J = {0, 4, 5}, an antichain with 8 down-sets, as many as P has
    elements, yet 4 and 5 have three minimal upper bounds: only the up-row
    check refuses it.  No bounded poset of at most 7 elements needs it."""
    covers = [(6, 0), (6, 4), (6, 5), (0, 7)]
    covers += [(low, mid) for low in (4, 5) for mid in (1, 2, 3)]
    covers += [(mid, 7) for mid in (1, 2, 3)]
    P = o.poset_new(8, covers)
    assert len(o.down_sets(P.induced([0, 4, 5]))) == P.n
    expected = _oracle_defect(P)
    with pytest.raises(NotALattice) as exc:
        o.lattice_from_poset(P)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)


def _bounded(X):
    """X with a new bottom 0 and a new top n + 1 adjoined."""
    n = X.n
    pairs = [(i + 1, j + 1) for i, j in X.pairs()]
    pairs += [(0, i) for i in range(1, n + 2)] + [(i, n + 1) for i in range(n + 1)]
    return o.poset_new(n + 2, pairs)


def _random_bounded(rng, k):
    """A random order on k points with 0 below and k - 1 above the rest."""
    p = rng.uniform(0.1, 0.6)
    pairs = [(i, j) for i in range(1, k - 1) for j in range(i + 1, k - 1)
             if rng.random() < p]
    pairs += [(0, i) for i in range(1, k)] + [(i, k - 1) for i in range(k - 1)]
    return o.poset_new(k, pairs)


def test_birkhoff_check_skipping_irreducible_rows_matches_all_rows():
    """`_is_birkhoff` checks no row of a join-irreducible; the oracle checks
    every row.  Same verdict on every class of 1-6 points with bounds
    adjoined, on the down-set lattices of the classes of 1-5 points, and on
    1,000 seeded random bounded posets of 3-14 points."""
    rng = random.Random(2501)
    cases = []
    for n in range(1, 7):
        for X in o.enumerate_posets(n):
            cases.append(_bounded(X))
            if n <= 5:
                cases.append(o.clopen_downset_lattice(X)[0].order)
    cases += [_random_bounded(rng, rng.randint(3, 14)) for _ in range(1000)]
    verdicts = []
    for P in cases:
        J = lattice._join_irreducibles(P)
        verdicts.append(lattice._is_birkhoff(P, J))
        assert verdicts[-1] == all_rows_birkhoff(P, J), P.up
    assert (len(verdicts), sum(verdicts)) == (1492, 330)


def test_failed_birkhoff_check_on_a_distributive_lattice_is_internal(monkeypatch):
    """If the mask check refused a distributive lattice, the triple search
    would find no witness: that disagreement raises InternalError."""
    monkeypatch.setattr(lattice, "_is_birkhoff", lambda P, J: False)
    with pytest.raises(InternalError):
        o.lattice_from_poset(o.chain(3))


def test_table_oracle_finds_each_kind_of_defect():
    L = o.lattice_from_poset(o.chain(3))
    meet, join = brute_meet_join(L.order)
    assert brute_check_tables(L.order, meet, join, 0, 2) is None
    assert brute_check_tables(L.order, meet, join, 2, 2) == "bottom"
    assert brute_check_tables(L.order, meet, join, 0, 0) == "top"
    meet[0][1] = 1
    assert brute_check_tables(L.order, meet, join, 0, 2) == (
        (0, 1), "greatest lower bound")
    meet[0][1] = 0
    join[2][0] = 0
    assert brute_check_tables(L.order, meet, join, 0, 2) == (
        (2, 0), "least upper bound")
    M3 = diamond_m3()
    assert brute_check_tables(M3, *brute_meet_join(M3), 0, 4) == (
        (1, 2, 3), "distributivity")


def test_missing_bounds_match_oracle_on_all_small_posets():
    """Every non-lattice of 2-6 elements, as enumerated and relabelled,
    fails on the oracle's first defect with the same message."""
    rng = random.Random(4)
    non_lattices = 0
    for n in range(2, 7):
        for P in o.enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for Q in (P, P.induced(perm)):
                defect = brute_first_missing_bound(Q)
                if defect is None:
                    try:
                        o.lattice_from_poset(Q)
                    except NotDistributive:
                        pass
                    continue
                non_lattices += 1
                if isinstance(defect, str):
                    expected = Unbounded(defect)
                else:
                    expected = NotALattice(*defect)
                with pytest.raises(NotALattice) as exc:
                    o.lattice_from_poset(Q)
                assert type(exc.value) is type(expected)
                assert str(exc.value) == str(expected)
    # 404 posets of 2-6 elements, 24 of them lattices
    assert non_lattices == 2 * (404 - 24)


def closure_system(rng, points, draws):
    """A random family of subsets of ``points`` points closed under
    intersection, with the full set: a lattice under inclusion, meet being
    intersection and join the least member holding the union.  Returns the
    members in random order and their meet and join tables."""
    full = (1 << points) - 1
    sets = {full}
    for _ in range(draws):
        s = rng.randrange(full + 1)
        sets |= {s & t for t in sets} | {s}
    sets = list(sets)
    rng.shuffle(sets)
    index = {s: k for k, s in enumerate(sets)}

    def least_above(u):
        out = full
        for t in sets:
            if u & ~t == 0:
                out &= t
        return index[out]

    meet = [[index[s & t] for t in sets] for s in sets]
    join = [[least_above(s | t) for t in sets] for s in sets]
    return sets, meet, join


def test_distributivity_fallback_matches_triple_oracle_on_random_lattices():
    rng = random.Random(10)
    failing = 0
    for _ in range(60):
        sets, meet, join = closure_system(rng, rng.randint(4, 7), rng.randint(3, 12))
        n = len(sets)
        if n < 2:
            continue
        up = tuple(
            sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets
        )
        P = o.Poset(n, up, tuple(map(str, range(n))))
        triple = brute_first_failing_triple(meet, join)
        if triple is None:
            o.lattice_from_poset(P)
            continue
        failing += 1
        with pytest.raises(NotDistributive) as exc:
            o.lattice_from_poset(P)
        assert exc.value.triple == triple
    assert failing == 48  # of 60 lattices, of 4-38 elements


def test_distributivity_fallback_on_a_long_chain_under_m3():
    # 0 < 1 < ... < 199, then M3 with bottom 199, atoms 200-202 and top 203;
    # the first failing triple has a = 200, so the search passes 200 rows
    n = 204
    height = list(range(200)) + [200, 200, 200, 201]

    def meet_of(a, b):
        if height[a] == height[b] and a != b:
            return 199
        return a if height[a] < height[b] else b

    def join_of(a, b):
        if height[a] == height[b] and a != b:
            return 203
        return a if height[a] > height[b] else b

    meet = [[meet_of(a, b) for b in range(n)] for a in range(n)]
    join = [[join_of(a, b) for b in range(n)] for a in range(n)]
    pairs = [(i, i + 1) for i in range(199)]
    pairs += [(199, a) for a in (200, 201, 202)] + [(a, 203) for a in (200, 201, 202)]
    with pytest.raises(NotDistributive) as exc:
        o.lattice_from_poset(o.poset_new(n, pairs))
    assert exc.value.triple == brute_first_failing_triple(meet, join) == (200, 201, 202)
