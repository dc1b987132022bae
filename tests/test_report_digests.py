"""Byte-identity pins: SHA-256 digests of whole CLI outputs (exit code,
stdout, stderr) on seeded documents large enough to exercise the bit-row
builders (closure, covers, lattice tables, relation rows) and the image
witness, and on the experiment suites whose every row is a checked
certificate.

The documents are generated here with plain ``random`` and no library code,
and the digests were recorded with the element-by-element builders that the
bit-row ones replaced, so any change in a report, an error message or a pair
order shows up as a changed digest.  The ``image`` and suite digests were
recorded with the pair-by-pair certificate checks, before row pullback.
"""

import hashlib
import json
import random

import pytest

from ordlat.cli import main


def _document(kind, n, pairs):
    return {
        "schema_version": "1",
        "kind": kind,
        "size": n,
        "labels": [f"v{i}" for i in range(n)],
        "leq_pairs": [list(p) for p in pairs],
    }


def _shuffled(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[i], perm[j]) for i, j in pairs)


def sparse_poset_document(seed=5, levels=(120, 100, 80)):
    """Three levels; each element above the bottom one gets one or two
    generating pairs from random elements of the levels below, so that
    lower covers differ in height."""
    rng = random.Random(seed)
    starts = [sum(levels[:t]) for t in range(len(levels))]
    n = sum(levels)
    pairs = set()
    for t in range(1, len(levels)):
        for j in range(starts[t], starts[t] + levels[t]):
            for _ in range(rng.choice((1, 1, 2))):
                pairs.add((rng.randrange(starts[t]), j))
    return _document("poset", n, _shuffled(rng, n, pairs))


def _random_down_sets(rng, k, p):
    """The down-sets of a random order on k points, as sorted bitmasks."""
    below = [0] * k
    for j in range(k):
        for i in range(j):
            if rng.random() < p:
                below[j] |= 1 << i | below[i]
    return [s for s in range(1 << k)
            if all(below[x] & ~s == 0 for x in range(k) if (s >> x) & 1)]


def downset_lattice_document(seed=6, k=8, p=0.3):
    """E(X) for a random order X on k points, generated by its covers (add
    one point to a down-set), shuffled."""
    rng = random.Random(seed)
    ds = _random_down_sets(rng, k, p)
    index = {s: t for t, s in enumerate(ds)}
    covers = [(index[s], index[s | 1 << x]) for s in ds for x in range(k)
              if not (s >> x) & 1 and (s | 1 << x) in index]
    return _document("lattice", len(ds), _shuffled(rng, len(ds), covers))


def relation_lattice_document(seed=10, k=6, p=0.3):
    """Phi(L) for L = E(X), X a random order on k points: the pairs s <= t
    of down-sets of X under the componentwise order, generated by all
    related pairs, shuffled.  It is in the image of Phi."""
    rng = random.Random(seed)
    ds = _random_down_sets(rng, k, p)
    prs = [(s, t) for s in ds for t in ds if s & ~t == 0]
    pairs = [(i, j) for i, (s, t) in enumerate(prs)
             for j, (s2, t2) in enumerate(prs)
             if i != j and s & ~s2 == 0 and t & ~t2 == 0]
    return _document("lattice", len(prs), _shuffled(rng, len(prs), pairs))


def cyclic_document():
    """A 12-element chain with a back edge from 9 to 4."""
    pairs = [(i, i + 1) for i in range(11)] + [(9, 4)]
    return _document("poset", 12, pairs)


CASES = {
    "sparse300": sparse_poset_document,
    "downsets54": downset_lattice_document,
    "downsets32": lambda: downset_lattice_document(seed=11, k=6),
    "phi24": relation_lattice_document,
    "cycle12": cyclic_document,
}

# (document, argv after the path) -> SHA-256 of repr((code, stdout, stderr)),
# with the document's path written as "@doc"
PINS = {
    ("sparse300", ("dot", "--target", "hasse")):
        "75d4d876c8f96ad6040c6009508d297808ba133b9d7cded61ee0c52758337588",
    ("sparse300", ("dot", "--target", "order")):
        "5c3b62b477af4d785b36b095ee373558a67f5716a77a5daaa59f607a2b7bdaa4",
    ("sparse300", ("check",)):
        "99c7e2f7cc5598fdcd76c77affe52c667c39b65dc6c45a0878ef1b2c5376b708",
    ("sparse300", ("phi",)):
        "1e4580e68c9076ad2a3fbc0a22b46a54bd604b66ce6559cf949b404959b626f6",
    ("downsets54", ("check",)):
        "d241a7c1ff3a179933a44647bda4bef9d3a54b2af1f540bdaf51820bc61074ed",
    ("downsets54", ("phi", "--as", "lattice")):
        "70716c9091a0bad5eb2c0dce657961a7157df70b06b4e310edc92bba3219d58a",
    ("downsets32", ("image",)):
        "c58bc8adbed84a454d049fcd0825592864fd436a9dbd96c0a2f0b1b4dadf2727",
    # re-recorded when K came to be read off L as a principal ideal, named
    # by L's labels, once an independent rebuild of Phi(K) from K's
    # document accepted the new iso table
    ("phi24", ("image",)):
        "9c5a189cb4ff64d4e4cf59cc01a389e3d2a72e161b9a8f50ca6047a06fc99813",
    ("cycle12", ("check",)):
        "24384abe5e207aadcb2a2d66dfabb4d1d927be6ea5311203ed4ecefa0446c50a",
}


# (suite, --n-max) -> SHA-256 of repr((code, stdout, stderr))
SUITE_PINS = {
    ("shift", "3"):
        "2aadbd829488651b92181a7666264f482224b4aac34348e39f83b13952356f32",
    ("lemma51", "4"):
        "c10e362a5dacc2f3aefe63bb27692f06c93f915ec3e9bd414372e6c66f7bb830",
    # recorded while the suite tested every poset class of up to 7 points
    ("corollary", "7"):
        "e7854af2f43d4bd17bc998994e9d666025101b610682a1daa9aa1ae0e0f59f31",
}


def digest(capsys, path, command, rest):
    code = main([command, str(path), *rest])
    out = capsys.readouterr()
    text = repr((code, out.out, out.err)).replace(str(path), "@doc")
    return hashlib.sha256(text.encode()).hexdigest()


def test_generated_documents_have_the_intended_sizes():
    assert sparse_poset_document()["size"] == 300
    assert downset_lattice_document()["size"] == 54
    assert CASES["downsets32"]()["size"] == 32
    # Phi of a 24-element lattice
    assert relation_lattice_document()["size"] == 180


@pytest.mark.parametrize(
    "case,argv",
    [pytest.param(case, argv, id="-".join((case, *argv)).replace("--", ""))
     for case, argv in sorted(PINS)],
)
def test_report_matches_recorded_digest(tmp_path, capsys, case, argv):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(CASES[case]()))
    assert digest(capsys, path, argv[0], argv[1:]) == PINS[(case, argv)]


def suite_digest(capsys, suite, n_max):
    code = main(["experiments", suite, "--n-max", n_max])
    out = capsys.readouterr()
    return hashlib.sha256(repr((code, out.out, out.err)).encode()).hexdigest()


@pytest.mark.parametrize("suite,n_max", sorted(SUITE_PINS))
def test_suite_matches_recorded_digest(capsys, suite, n_max):
    assert suite_digest(capsys, suite, n_max) == SUITE_PINS[(suite, n_max)]


def test_corollary_builds_no_seven_point_class(capsys, monkeypatch):
    """The lattices of up to 7 elements are E(X) for spectra X of at most 6
    points, so the suite asks for no class of 7 points, cached or not."""
    from ordlat import poset

    real = poset._enumerate_cached

    def below_seven(n):
        if n >= 7:
            raise AssertionError(f"classes of {n} points built")
        return real(n)

    monkeypatch.setattr(poset, "_enumerate_cached", below_seven)
    assert suite_digest(capsys, "corollary", "7") == SUITE_PINS[("corollary", "7")]
