import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlat as o
from ordlat import AntisymmetryViolation, CapExceeded, EmptyPosetError
from oracles import (
    brute_canonical_key,
    brute_check_axioms,
    brute_closure,
    brute_covers,
    brute_down_sets,
    brute_enumerate_posets,
    brute_iso,
    brute_max_antichain,
    cover_dimension,
)

# frozen class counts for posets up to isomorphism, n = 1..7 (OEIS A000112)
POSET_COUNTS = [1, 2, 5, 16, 63, 318, 2045]

# SHA-256 of repr([P.up for P in enumerate_posets(n)]), n = 1..7, as written
# by the prefix-frontier canonical key before it carried packed codes and
# placed twins in order
ENUMERATION_SHA256 = {
    1: "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
    2: "c29f7b44404ae46750dd43eda03f8b36dda994e2ec588103f93ab9e853bb3e85",
    3: "d4beabc2bc75b433b9fa5cfa71ac6f0631158bea1d67abeb21bbb010a8b90f61",
    4: "9368439ee2cb7f0cb02b191f09f4c1add1bdb20160186e7b94a42702a6151441",
    5: "cc9ddcc92f205b9b838c1f909a9f7c60526dafc92712c2dbcb984835b9b04bac",
    6: "e80a99cbd60573108f6f809c820e0b1b7fa33941cf439f206b597a510e1a0804",
    7: "026f0f2b3460b66f64b5fcedd5f066c532af55fa6cc147ca63d4c7cd1e44bb14",
}


def test_poset_new_chain2():
    P = o.poset_new(2, [(0, 1)])
    assert P.pairs() == [(0, 0), (0, 1), (1, 1)]


def test_poset_new_singleton():
    P = o.poset_new(1, [])
    assert P.pairs() == [(0, 0)]


def test_poset_new_rejects_cycle():
    # in the second list 5 -> 6 -> 5 and 2 -> 3 -> 4 -> 2 are cycles: 2 is
    # the least element on one, and 3 the least other element of its class
    for n, pairs, cycle in [
        (3, [(0, 1), (1, 2), (2, 0)], (0, 1)),
        (7, [(5, 6), (6, 5), (4, 2), (3, 4), (2, 3), (0, 1), (1, 2)], (2, 3)),
    ]:
        with pytest.raises(AntisymmetryViolation) as exc:
            o.poset_new(n, pairs)
        assert exc.value.cycle == cycle == brute_closure(n, pairs)[1]


def test_poset_new_closes_transitively():
    P = o.poset_new(3, [(0, 1), (1, 2)])
    assert P.leq(0, 2)
    assert P.check_axioms()


@st.composite
def generating_pairs(draw):
    """Pair lists on 0-40 elements, either acyclic under a random labelling
    or unconstrained (mostly cyclic), with self-loops and duplicates."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        pairs = [(perm[min(i, j)], perm[max(i, j)]) for i, j in pairs]
    pairs += [(k, k) for k in draw(st.lists(node, max_size=3))]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    return n, pairs


def transpose(rows):
    n = len(rows)
    return [sum(1 << i for i in range(n) if (rows[i] >> j) & 1) for j in range(n)]


@settings(max_examples=200, deadline=None)
@given(generating_pairs())
def test_closure_matches_warshall_oracle(case):
    n, pairs = case
    rows, cycle = brute_closure(n, pairs)
    if cycle is not None:
        with pytest.raises(AntisymmetryViolation) as exc:
            o.poset_new(n, pairs)
        assert exc.value.cycle == cycle
        return
    P = o.poset_new(n, pairs)
    assert list(P.up) == rows
    # poset_new primes the down-rows; they must be the transpose
    assert "down_masks" in P.__dict__
    assert list(P.down_masks) == transpose(rows)


def random_relabelled_poset(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return o.poset_new(n, [(perm[i], perm[j]) for i, j in pairs])


def test_covers_match_oracle_on_small_classes():
    for n in range(1, 7):
        for P in o.enumerate_posets(n):
            assert P.covers() == brute_covers(P)


def test_covers_match_oracle_on_random_posets():
    rng = random.Random(5)
    for _ in range(30):
        P = random_relabelled_poset(rng, rng.randint(1, 60), rng.uniform(0.02, 0.3))
        assert P.covers() == brute_covers(P)


def test_induced_matches_the_definition():
    rng = random.Random(3)
    for P in o.enumerate_posets(5):
        elems = rng.sample(range(5), rng.randint(0, 5))
        Q = P.induced(elems)
        assert Q.up == tuple(
            sum(1 << t for t, b in enumerate(elems) if P.leq(a, b)) for a in elems
        )
        assert Q.labels == tuple(P.labels[a] for a in elems)


def test_chain_and_antichain_counts():
    assert o.chain(3).relation_count() == 6
    assert o.antichain(4).relation_count() == 4


def test_cube2_pair_count():
    # oracle: coordinatewise comparison on {0,1}^2 gives 9 related pairs
    assert o.cube(2).relation_count() == 9


def test_cube_cap():
    # the default size cap of 1024 admits cube 5 and refuses cube 11 (2,048
    # elements); a cap passed in is kept the same way
    assert o.cube(5).n == 32
    with pytest.raises(CapExceeded):
        o.cube(11)
    with pytest.raises(CapExceeded):
        o.cube(5, max_size=31)


def test_product_chain2_chain2_is_cube2():
    P = o.product(o.chain(2), o.chain(2))
    assert P.up == o.cube(2).up
    assert brute_iso(P, o.cube(2)) is not None


def test_product_with_singleton():
    P = o.chain(3)
    Q = o.product(P, o.antichain(1))
    w = o.is_isomorphic(P, Q)
    assert w is not None and w.validate(P, Q)


def test_product_grid_width():
    grid = o.product(o.chain(2), o.chain(3))
    assert grid.n == 6
    assert o.width(grid) == 2 == brute_max_antichain(grid)


def test_product_commutes_up_to_iso():
    for P, Q in [(o.chain(2), o.chain(3)), (o.cube(2), o.antichain(2))]:
        w = o.is_isomorphic(o.product(P, Q), o.product(Q, P))
        assert w is not None


def test_product_associates_up_to_iso():
    A, B, C = o.chain(2), o.antichain(2), o.chain(2)
    left = o.product(o.product(A, B), C)
    right = o.product(A, o.product(B, C))
    w = o.is_isomorphic(left, right)
    assert w is not None and w.validate(left, right)


def test_disjoint_union():
    assert o.disjoint_union(o.antichain(1), o.antichain(1)).up == o.antichain(2).up
    two_chains = o.disjoint_union(o.chain(2), o.chain(2))
    assert not o.is_connected(two_chains)
    u = o.disjoint_union(o.antichain(2), o.antichain(3))
    assert u.is_antichain() and u.n == 5


def test_down_sets_small():
    assert o.down_sets(o.chain(2)) == [0, 1, 3]
    assert o.down_sets(o.antichain(2)) == [0, 1, 2, 3]


def test_down_sets_cube3_against_subset_filter():
    P = o.cube(3)
    assert o.down_sets(P) == brute_down_sets(P)
    assert len(o.down_sets(P)) == 20


def test_down_sets_cap():
    # only the count is capped: 2**10 down-sets pass a cap of 1024, not
    # one of 1023, and a long chain has few down-sets whatever its length
    assert len(o.down_sets(o.antichain(10), max_count=1024)) == 1024
    with pytest.raises(CapExceeded):
        o.down_sets(o.antichain(10), max_count=1023)
    assert len(o.down_sets(o.chain(200), max_count=201)) == 201


def test_is_isomorphic_examples():
    w = o.is_isomorphic(o.chain(3), o.chain(3))
    assert w is not None and w.forward == (0, 1, 2)
    assert o.is_isomorphic(o.chain(2), o.antichain(2)) is None
    w = o.is_isomorphic(o.cube(2), o.product(o.chain(2), o.chain(2)))
    assert w is not None


def test_connectivity():
    assert o.is_connected(o.chain(5))
    assert not o.is_connected(o.antichain(2))
    with pytest.raises(EmptyPosetError):
        o.is_connected(o.poset_new(0, []))


def test_width_examples():
    for n in range(1, 7):
        assert o.width(o.chain(n)) == 1
        assert o.width(o.antichain(n)) == n
    assert o.width(o.cube(3)) == 3


def standard_example(k):
    """S_k: minimal elements a_i below maximal elements b_j for i != j."""
    pairs = [(i, k + j) for i in range(k) for j in range(k) if i != j]
    return o.poset_new(2 * k, pairs)


def test_dimension_examples():
    for n in range(1, 6):
        assert o.order_dimension(o.chain(n)) == 1
    assert o.order_dimension(o.antichain(2)) == 2
    assert o.order_dimension(o.antichain(10)) == 2
    assert o.order_dimension(o.cube(2)) == 2
    for k in range(2, 6):
        assert o.order_dimension(standard_example(k)) == k
    with pytest.raises(CapExceeded):
        o.order_dimension(o.antichain(11))


def test_dimension_one_iff_chain():
    for n in (1, 2, 3, 4):
        for P in o.enumerate_posets(n):
            assert (o.order_dimension(P) == 1) == P.is_chain()


def test_dimension_matches_cover_oracle_on_small_posets():
    for n in range(1, 7):
        for P in o.enumerate_posets(n):
            assert o.order_dimension(P) == cover_dimension(P)


def test_dimension_matches_cover_oracle_on_small_relation_posets():
    seen = set()
    for n in range(1, 7):
        for P in o.enumerate_posets(n):
            RP, _ = o.relation_poset(P)
            if RP.n > 9:
                continue
            key = o.canonical_key(RP)[0]
            if key not in seen:
                seen.add(key)
                assert o.order_dimension(RP) == cover_dimension(RP)
    assert len(seen) == 56


def test_dimension_split_failure_raises(monkeypatch):
    """A split that does not realize the order is caught before k is
    returned."""
    real = o.poset._reversible_split

    def first_class_only(P, pairs, k):
        classes = real(P, pairs, k)
        return classes[:1] * len(classes) if classes else classes

    monkeypatch.setattr(o.poset, "_reversible_split", first_class_only)
    with pytest.raises(o.InternalError):
        o.order_dimension(o.antichain(3))


def test_enumeration_counts():
    for n, count in enumerate(POSET_COUNTS, start=1):
        assert len(o.enumerate_posets(n)) == count


def test_enumeration_matches_recorded_digests():
    for n, digest in ENUMERATION_SHA256.items():
        ups = repr([P.up for P in o.enumerate_posets(n)])
        assert hashlib.sha256(ups.encode()).hexdigest() == digest, n


def test_enumeration_checks_each_class_once(monkeypatch):
    checked = []
    real = o.Poset.check_axioms

    def counted(P):
        checked.append(P)
        return real(P)

    monkeypatch.setattr(o.Poset, "check_axioms", counted)
    o.poset._enumerate_cached.cache_clear()
    o.enumerate_posets(4)
    o.enumerate_posets(4)
    assert len(checked) == 1 + 2 + 5 + 16
    monkeypatch.setattr(o.Poset, "check_axioms", lambda P: False)
    o.poset._enumerate_cached.cache_clear()
    with pytest.raises(o.InternalError):
        o.enumerate_posets(3)


@pytest.fixture
def cold_enumeration():
    """An empty enumeration cache, emptied again afterwards so that later
    tests never see classes built under a patch."""
    o.poset._enumerate_cached.cache_clear()
    yield
    o.poset._enumerate_cached.cache_clear()


def test_enumeration_keys_each_class_once(cold_enumeration, monkeypatch):
    keyed = [0] * 8
    real_key, real_invariant = o.poset.canonical_key, o.poset._iso_invariant

    def counted(P):
        keyed[P.n] += 1
        return real_key(P)

    def primed(P):
        # every candidate arrives here with its down-rows set, not built
        down = P.__dict__["down_masks"]
        assert down == tuple(
            sum(1 << i for i in range(P.n) if P.leq(i, j)) for j in range(P.n)
        )
        return real_invariant(P)

    monkeypatch.setattr(o.poset, "canonical_key", counted)
    monkeypatch.setattr(o.poset, "_iso_invariant", primed)
    o.enumerate_posets(7)
    assert keyed[1:] == POSET_COUNTS


def test_enumeration_is_exact_under_a_constant_invariant(
    cold_enumeration, monkeypatch
):
    # one bucket per level: every class but the first is told apart from
    # the others by refuted isomorphism tests alone
    refuted = []
    real, real_invariant = o.poset.is_isomorphic, o.poset._iso_invariant

    def counted(P, Q):
        w = real(P, Q)
        if w is None:
            refuted.append((P, Q))
        return w

    monkeypatch.setattr(o.poset, "_iso_invariant", lambda P: ())
    monkeypatch.setattr(o.poset, "is_isomorphic", counted)
    for n in range(1, 7):
        ups = repr([P.up for P in o.enumerate_posets(n)])
        assert hashlib.sha256(ups.encode()).hexdigest() == ENUMERATION_SHA256[n]
    # some refuted pairs share the sorted profile, so the backtracking
    # search, not a count, refutes them
    assert any(real_invariant(P) == real_invariant(Q) for P, Q in refuted)


def test_enumeration_matches_keying_every_candidate():
    for n in range(1, 6):
        assert [P.up for P in o.enumerate_posets(n)] == brute_enumerate_posets(n)


def test_enumeration_no_isomorphic_duplicates():
    for n in (2, 3, 4):
        reps = o.enumerate_posets(n)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert brute_iso(reps[i], reps[j]) is None


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        o.enumerate_posets(8)


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for P in o.enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            Q = P.relabel(perm)
            assert o.canonical_key(Q)[0] == o.canonical_key(P)[0]


def test_canonical_key_matches_brute_oracle():
    rng = random.Random(11)
    for n in range(1, 7):
        for P in o.enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            Q = P.relabel(perm)
            assert o.canonical_key(Q) == brute_canonical_key(Q)


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=10,
        )
    )
    return n, pairs


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_closure_yields_valid_poset_or_cycle_error(case):
    n, pairs = case
    try:
        P = o.poset_new(n, pairs)
    except AntisymmetryViolation:
        return
    assert P.check_axioms()


@st.composite
def unclosed_rows(draw):
    """Up-rows on 0-8 elements: a closed order with up to three bits
    flipped, or arbitrary rows, mostly non-reflexive, cyclic or
    non-transitive."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return []
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        reflexive = draw(st.booleans())
        return [row | reflexive << i for i, row in enumerate(rows)]
    pairs = draw(st.lists(st.tuples(index, index), max_size=12))
    rows = brute_closure(n, [(min(p), max(p)) for p in pairs])[0]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(index)] ^= 1 << draw(index)
    return rows


@settings(max_examples=300, deadline=None)
@given(unclosed_rows())
def test_check_axioms_matches_triple_loop(rows):
    P = o.Poset(len(rows), tuple(rows), tuple(map(str, range(len(rows)))))
    assert P.check_axioms() == brute_check_axioms(P)


@settings(max_examples=40, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
def test_random_poset_matches_exactly_one_class(case, rnd):
    n, pairs = case
    try:
        P = o.poset_new(n, pairs)
    except AntisymmetryViolation:
        return
    matches = [
        Q for Q in o.enumerate_posets(n) if o.is_isomorphic(P, Q) is not None
    ]
    assert len(matches) == 1


def test_witness_symmetry_inverts():
    P = o.cube(2)
    Q = o.product(o.chain(2), o.chain(2))
    w = o.is_isomorphic(P, Q)
    assert w.inverse().validate(Q, P)
