"""Acceptance suite: one test per criterion, each printing a verdict line.

All checks are exact (combinatorial); the independent oracles live in
oracles.py and never share code paths with the operations they check.
"""

import json
import os
import random

import ordlat as o
from ordlat import OrdlatError
from ordlat.cli import main
from oracles import (
    brute_dimension,
    brute_down_sets,
    brute_iso,
    brute_max_antichain,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lattice_valid(posets):
    out = []
    for P in posets:
        try:
            out.append(o.lattice_from_poset(P))
        except OrdlatError:
            continue
    return out


def all_lattices_upto(n_max):
    out = []
    for n in range(1, n_max + 1):
        out.extend(lattice_valid(o.enumerate_posets(n)))
    return out


def test_criterion_1_prime_ideal_formula():
    checked = 0
    for L in all_lattices_upto(5):
        assert o.verify_relation_primes(L), L
        checked += 1
    assert checked == 7  # 1 + 1 + 2 + 3 lattices at sizes 2..5
    print(f"ACCEPT 1: prime-ideal formula verified on {checked} lattices "
          f"of size <= 5 ... pass")


def test_criterion_2_layered_isomorphism():
    checked = 0
    for n in range(1, 5):
        for X in o.enumerate_posets(n):
            o.relation_downset_iso(X)  # raises on any validation failure
            checked += 1
    o.relation_downset_iso(o.cube(3))
    checked += 1
    print(f"ACCEPT 2: layered isomorphism validated on {checked} spaces "
          f"(all posets <= 4 plus cube 3) ... pass")


def assert_image_round_trip(K, independent=True):
    """Phi(K) is found in the image, with a K2 whose Phi(K2) maps onto
    Phi(K) by the returned witness and, if ``independent``, by an
    isomorphism that is_isomorphic finds on its own."""
    PhiK, _ = o.relation_lattice(K)
    found = o.relation_image_witness(PhiK)
    assert found is not None, K
    K2, w = found
    PhiK2, _ = o.relation_lattice(K2)
    assert w.validate(PhiK2.order, PhiK.order)
    if independent:
        iso = o.is_isomorphic(PhiK2.order, PhiK.order)
        assert iso is not None and iso.validate(PhiK2.order, PhiK.order)
    return PhiK.n


def test_criterion_3_image_round_trip():
    count = 0
    for K in all_lattices_upto(4):
        assert_image_round_trip(K)
        count += 1
    # larger lattices: Phi(E(X)) for every X of <= 4 elements and for
    # cube 3 (168 elements), Phi(chain 21) and Phi(chain 44) (231 and 990)
    largest = 0
    spaces = [X for n in range(1, 5) for X in o.enumerate_posets(n)]
    for X in spaces + [o.cube(3)]:
        largest = max(largest, assert_image_round_trip(o.clopen_downset_lattice(X)))
        count += 1
    assert largest == 168
    # is_isomorphic recurses once per element, which passes Python's default
    # recursion limit at 990 elements: Phi(chain 44) rests on the witness
    for k, size, independent in ((21, 231, True), (44, 990, False)):
        chain = o.lattice_from_poset(o.chain(k))
        assert assert_image_round_trip(chain, independent) == size
        count += 1
    # negative side: every lattice of size <= 5 with an odd spectrum
    odd = 0
    for L in all_lattices_upto(5):
        if o.spec(L).n % 2:
            assert o.relation_image_witness(L) is None
            odd += 1
    chain4 = o.lattice_from_poset(o.chain(4))
    assert o.spec(chain4).n == 3
    assert o.relation_image_witness(chain4) is None
    assert odd >= 2
    print(f"ACCEPT 3: image round-trip on {count} lattices, {odd} "
          f"odd-spectrum rejections ... pass")


def test_criterion_4_duality_round_trips():
    units = 0
    for L in all_lattices_upto(5):
        o.unit_lattice(L)  # raises unless a valid iso witness
        units += 1
    spaces = 0
    for n in range(1, 5):
        for X in o.enumerate_posets(n):
            o.unit_space(X)
            spaces += 1
    # contravariant functor laws on all hom-sets between chains <= 4
    chains = {n: o.lattice_from_poset(o.chain(n)) for n in (2, 3, 4)}
    laws = 0
    for a in chains.values():
        assert o.spec_hom(o.identity_hom(a)).mapping == tuple(
            range(o.spec(a).n)
        )
        for b in chains.values():
            for c in chains.values():
                for f in o.enumerate_homs(a, b):
                    for g in o.enumerate_homs(b, c):
                        lhs = o.spec_hom(f.then(g))
                        sf, sg = o.spec_hom(f), o.spec_hom(g)
                        assert lhs.mapping == tuple(
                            sf.mapping[v] for v in sg.mapping
                        )
                        laws += 1
    print(f"ACCEPT 4: duality units on {units} lattices / {spaces} spaces, "
          f"{laws} contravariance checks ... pass")


def test_criterion_5_free_lattice_shift():
    for n in range(0, 4):
        assert o.cube_shift_check(n), n
    # independent oracle: the 20-element free lattice has 168 comparable
    # pairs, equal to the subset-filter count of down-sets of the 4-cube
    e3 = o.clopen_downset_lattice(o.cube(3))
    assert e3.n == 20
    assert e3.order.relation_count() == 168
    assert len(brute_down_sets(o.cube(4))) == 168
    print("ACCEPT 5: shift check passes for n = 0..3; 168 comparable pairs "
          "match the independent down-set count ... pass")


def test_criterion_6_fixed_point_scans():
    rep = o.find_fixed_points(6, "posets")
    assert len(rep.hits) == 6  # exactly one antichain per size
    rep = o.find_fixed_points(6, "lattices")
    assert rep.hits == ()
    rep = o.find_fixed_points(6, "connected_posets")
    assert rep.hits == ("n1#000",)  # only the singleton
    print("ACCEPT 6: fixed points <= 6: antichains only / no lattices / "
          "no connected > 1 ... pass")


def test_criterion_7_kernel_oracles():
    widths = 0
    for n in range(1, 7):
        for P in o.enumerate_posets(n):
            assert o.width(P) == brute_max_antichain(P)
            widths += 1
    rng = random.Random(20240824)
    for _ in range(100):
        n = rng.choice((7, 8))
        while True:
            pairs = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randrange(2 * n))
            ]
            try:
                P = o.poset_new(n, pairs)
                break
            except o.AntisymmetryViolation:
                continue
        assert o.width(P) == brute_max_antichain(P)
        widths += 1

    dims = 0
    for n in range(1, 6):
        for P in o.enumerate_posets(n):
            assert o.order_dimension(P) == brute_dimension(P)
            dims += 1

    isos = 0
    for n in range(1, 6):
        reps = o.enumerate_posets(n)
        for P in reps:
            for Q in reps:
                got = o.is_isomorphic(P, Q)
                want = brute_iso(P, Q)
                assert (got is not None) == (want is not None)
                if got is not None:
                    assert got.validate(P, Q)
                isos += 1
    for _ in range(100):
        P = rng.choice(o.enumerate_posets(6))
        perm = list(range(6))
        rng.shuffle(perm)
        Q = P.relabel(perm)
        got = o.is_isomorphic(P, Q)
        assert got is not None and got.validate(P, Q)
        assert brute_iso(P, Q) is not None
        isos += 1
    print(f"ACCEPT 7: width on {widths} posets, dimension on {dims}, "
          f"isomorphism on {isos} pairs, all vs brute force ... pass")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    suites = [
        ("corollary", "4"),
        ("lemma51", "3"),
        ("fixedpoints", "4"),
        ("shift", "2"),
        ("dimtable", "4"),
    ]
    for suite, n in suites:
        outputs = []
        for run in range(2):
            path = tmp_path / f"{suite}-{run}.out"
            code = main(
                ["--output", str(path), "experiments", suite, "--n-max", n]
            )
            assert code == 0, suite
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], suite
    from ordlat import docio

    for name in sorted(os.listdir(FIXTURES)):
        if name == "malformed.json":
            continue
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            kind, P = docio.parse_document(fh.read())
        kind2, P2 = docio.document_to_poset(
            json.loads(json.dumps(docio.poset_to_document(P, kind=kind)))
        )
        assert kind2 == kind and P2 == P
    print("ACCEPT 8: experiment suites byte-identical across runs; "
          "documents round-trip ... pass")
