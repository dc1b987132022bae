import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlat as o
from ordlat import cli, docio, relation
from ordlat.cli import main
from oracles import scan_lattice_classes

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid_lattice(capsys):
    code, out, _ = run(capsys, "check", fx("chain4_lattice.json"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "valid lattice"


def test_check_m3_not_distributive(capsys):
    code, out, _ = run(capsys, "check", fx("m3_lattice.json"))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["verdict"] == "NotDistributive"
    assert len(report["result"]["witness"]) == 3


def test_check_malformed_json(capsys):
    code, _, err = run(capsys, "check", fx("malformed.json"))
    assert code == 2
    assert "error" in err


def test_check_refuses_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00{")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")


def test_check_refuses_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth")


def test_check_refuses_an_int_literal_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    doc = '{"schema_version": "1", "kind": "poset", "size": %s, "leq_pairs": []}'
    path.write_text(doc % ("9" * 5000))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_usage_error_returns_2(capsys):
    assert main(["bogus-command"]) == 2


@pytest.fixture
def fresh_parser():
    """No kept parser before the test, and none built under its patches
    after it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_across_calls(capsys, monkeypatch, fresh_parser):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["check", fx("chain4_lattice.json")]) == 0
    assert main(["bogus-command"]) == 2
    assert main(["experiments", "lemma51", "--n-max", "2"]) == 0
    assert len(built) == 1


# flags and defaults alternate, so that a value left over from one parse
# would show in the next
INTERLEAVED = [
    ["phi", fx("chain3_lattice.json"), "--as", "lattice"],
    ["phi", fx("chain2_poset.json")],
    ["bogus-command"],
    ["--max-size", "3", "check", fx("chain4_lattice.json")],
    ["check", fx("chain4_lattice.json")],
    ["dot", fx("cube2_poset.json"), "--target", "order"],
    ["dot", fx("cube2_poset.json")],
    ["experiments"],
    ["--max-dim-size", "3", "experiments", "dimtable", "--n-max", "3"],
    ["experiments", "dimtable", "--n-max", "3"],
    ["--help"],
    ["check", fx("m3_lattice.json")],
    ["experiments", "corollary", "--n-max", "-1"],
    ["check", fx("malformed.json")],
    ["experiments", "corollary"],
]


def test_kept_parser_answers_like_a_fresh_one(capsys, fresh_parser):
    kept = [run(capsys, *argv) for argv in INTERLEAVED]
    fresh = []
    for argv in INTERLEAVED:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 2, 1, 0, 0, 0, 2, 0, 0, 0,
                                              1, 2, 2, 0]


@pytest.mark.parametrize("argv", [
    ["--max-size", "-1", "check", fx("chain4_lattice.json")],
    ["--max-dim-size", "-1", "experiments", "dimtable", "--n-max", "2"],
    ["experiments", "corollary", "--n-max", "-1"],
])
def test_negative_caps_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "invalid nonnegative int value: '-1'" in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(capsys):
    assert main(["--threads", "2", "check", fx("chain4_lattice.json")]) == 2


def test_cli_import_leaves_numpy_out():
    """Every command pays for the modules ``import ordlat.cli`` loads, so
    it loads none of numpy, dataclasses or inspect.  Only the modules it
    adds to those the interpreter already holds count, so a module that a
    ``.pth`` file loads at start-up does not."""
    src = os.path.dirname(os.path.dirname(o.__file__))
    code = ("import sys; before = set(sys.modules); import ordlat.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "ordlat.cli" in added
    assert not added & {"numpy", "dataclasses", "inspect"}


def test_phi_chain2(capsys):
    code, out, _ = run(capsys, "phi", fx("chain2_poset.json"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["size"] == 3
    assert report["result"]["pairs"] == [[0, 0], [0, 1], [1, 1]]


def test_phi_lattice_chain3(capsys):
    code, out, _ = run(
        capsys, "phi", fx("chain3_lattice.json"), "--as", "lattice"
    )
    assert code == 0
    assert json.loads(out)["result"]["size"] == 6


def test_phi_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "--max-size", "2", "phi", fx("chain3_lattice.json")
    )
    assert code == 1
    assert "CapExceeded" in err
    # the document fits the cap, its 6 related pairs do not
    code, _, err = run(
        capsys, "--max-size", "3", "phi", fx("chain3_lattice.json")
    )
    assert code == 1
    assert "CapExceeded: relation poset has 6 elements, cap 3" in err


def test_document_size_is_capped_before_any_row_is_built(
    tmp_path, capsys, monkeypatch
):
    """A 10^6-element document would need ~60 GB of rows: it is refused at
    parse time, naming the cap, its limit, the size and the flag."""
    small = {"schema_version": "1", "kind": "poset", "size": 3, "leq_pairs": []}
    assert docio.document_to_poset(small, max_size=3)[1].n == 3

    def no_rows(*args):
        raise AssertionError("rows built for a document over the cap")

    monkeypatch.setattr(docio, "poset_new", no_rows)
    with pytest.raises(o.CapExceeded):
        docio.document_to_poset(small, max_size=2)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**small, "size": 10**6}))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: CapExceeded: ")
    for part in ("1000000", "1024", "--max-size"):
        assert part in err


def chain_document(n, kind):
    return {"schema_version": "1", "kind": kind, "size": n,
            "leq_pairs": [[i, i + 1] for i in range(n - 1)]}


def run_in_budget(tmp_path, doc, command, max_size=None, timeout=100):
    """Run ``ordlat [--max-size N] COMMAND doc`` in a child process whose
    address space is limited to 1 GiB, so a regression fails instead of
    exhausting the machine's memory; give its exit code, wall time in
    seconds, peak RSS in KiB and stderr."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(o.__file__))
    code = (
        "import resource, subprocess, sys, time\n"
        "def limit():\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "t = time.perf_counter()\n"
        "done = subprocess.run(sys.argv[1:], capture_output=True, preexec_fn=limit)\n"
        "wall = time.perf_counter() - t\n"
        "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(done.returncode, wall, rss)\n"
        "sys.stdout.write(done.stderr.decode())\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    cap = [] if max_size is None else ["--max-size", str(max_size)]
    argv = [sys.executable, "-m", "ordlat.cli", *cap, command, str(path)]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    head, _, err = done.stdout.partition("\n")
    status, wall, rss_kb = head.split()
    return int(status), float(wall), int(rss_kb), err


@pytest.mark.parametrize("n,kind,budget_s", [(1000, "lattice", 20), (3000, "poset", 5)])
def test_check_on_long_chains_stays_in_budget(tmp_path, n, kind, budget_s):
    """Time and memory of `check` on long chains, whose closure, covers and
    lattice tables are the quadratic worst case, in a child process."""
    status, wall, rss_kb, _ = run_in_budget(
        tmp_path, chain_document(n, kind), "check", max_size=n,
        timeout=10 * budget_s,
    )
    assert status == 0
    assert wall < budget_s
    assert rss_kb < 300 * 1024


def test_check_on_the_4096_element_boolean_lattice_stays_in_budget(tmp_path):
    """E(antichain 12), the Boolean lattice of 4,096 elements, given by its
    24,576 covers: `check` accepts it by the Birkhoff map on masks, with no
    meet or join table of 4,096^2 entries (those took 12.9 s and 536 MB)."""
    doc = {"schema_version": "1", "kind": "lattice", "size": 4096,
           "leq_pairs": [[m, m | 1 << x] for m in range(4096) for x in range(12)
                         if not m >> x & 1]}
    status, wall, rss_kb, err = run_in_budget(tmp_path, doc, "check", max_size=4096)
    assert (status, err) == (0, "")
    assert wall < 5
    assert rss_kb < 100 * 1024


def test_downsets_lattice_is_capped_by_max_size(tmp_path):
    """A 12-point antichain has 4,096 down-sets: `downsets` refuses the
    lattice while enumerating them, before any table is built, naming the
    cap and its flag.  A 200-point chain has 201 down-sets and passes,
    however long the chain."""
    antichain = {"schema_version": "1", "kind": "poset", "size": 12,
                 "leq_pairs": []}
    status, wall, rss_kb, err = run_in_budget(tmp_path, antichain, "downsets")
    assert status == 1
    assert wall < 5
    assert rss_kb < 100 * 1024
    assert err.startswith("error: CapExceeded: ")
    for part in ("1024", "--max-size"):
        assert part in err
    status, wall, rss_kb, _ = run_in_budget(
        tmp_path, chain_document(200, "poset"), "downsets"
    )
    assert status == 0
    assert wall < 5
    assert rss_kb < 100 * 1024


# peak RSS in MiB: `spec` on the 1,024-chain writes the 523,776 related
# pairs of its spectrum, 34.8 MB of report, from the spectrum's rows at
# about 108 MiB; a list per pair took about 200 MiB
LONG_CHAIN_RSS_MB = {"image": 300, "primes": 300, "spec": 150}


@pytest.mark.parametrize("command,n,want", [
    ("image", 1023, 1), ("primes", 1024, 0), ("spec", 1024, 0)])
def test_duality_commands_on_long_chains_stay_in_budget(tmp_path, command, n, want):
    """Time and memory of the spectrum commands on the longest chain
    lattices the default size cap admits.  The spectrum of the 1,023-chain
    is a 1,022-chain: even, but not a half times 2, so `image` searches
    every bottom half's partners before it says no."""
    status, wall, rss_kb, err = run_in_budget(
        tmp_path, chain_document(n, "lattice"), command, timeout=200
    )
    assert (status, err) == (want, "")
    assert wall < 20
    assert rss_kb < LONG_CHAIN_RSS_MB[command] * 1024


def test_duality_commands_take_lattices_past_twenty_elements(tmp_path, capsys):
    """Phi(chain 21) has 231 elements: its spectrum is a 20-chain times 2,
    and it is the image of the 21-chain."""
    PhiL, _ = o.relation_lattice(o.lattice_from_poset(o.chain(21)))
    path = tmp_path / "phi_chain21.json"
    path.write_text(json.dumps(docio.poset_to_document(PhiL.order, kind="lattice"),
                               default=list))
    code, out, _ = run(capsys, "primes", str(path))
    assert code == 0
    assert json.loads(out)["result"]["count"] == 40
    code, out, _ = run(capsys, "spec", str(path))
    assert code == 0
    assert json.loads(out)["result"]["document"]["size"] == 40
    code, out, _ = run(capsys, "image", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["in_image"] is True
    assert result["witness_for_K"]["size"] == 21
    assert len(result["iso"]) == 231


def test_primes_chain3(capsys):
    code, out, _ = run(capsys, "primes", fx("chain3_lattice.json"))
    assert code == 0
    assert json.loads(out)["result"]["prime_ideals"] == [[0], [0, 1]]


def test_spec_chain2(capsys):
    code, out, _ = run(capsys, "spec", fx("chain2_poset.json"))
    assert code == 0
    assert json.loads(out)["result"]["document"]["size"] == 1


def test_downsets_antichain2(capsys):
    code, out, _ = run(capsys, "downsets", fx("antichain2_poset.json"))
    assert code == 0
    assert json.loads(out)["result"]["document"]["size"] == 4


def test_downsets_lattice_follows_max_size(capsys):
    # the 2-point document fits a cap of 3, its 4 down-sets do not
    code, out, err = run(
        capsys, "--max-size", "3", "downsets", fx("antichain2_poset.json")
    )
    assert (code, out) == (1, "")
    assert "CapExceeded: down-set lattice of a 2-point poset has more than 3" in err
    code, _, _ = run(
        capsys, "--max-size", "4", "downsets", fx("antichain2_poset.json")
    )
    assert code == 0


def test_image_yes_chain3(capsys):
    code, out, _ = run(capsys, "image", fx("chain3_lattice.json"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["in_image"] is True
    assert report["result"]["witness_for_K"]["size"] == 2
    assert len(report["result"]["iso"]) == 3


def test_image_no_chain4(capsys):
    code, out, _ = run(capsys, "image", fx("chain4_lattice.json"))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["in_image"] is False
    assert "odd size 3" in report["result"]["reason"]


def test_image_computes_the_prime_ideals_once(capsys, monkeypatch):
    from ordlat import cli, duality, relation

    calls = []
    real = duality.prime_ideals

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    for module in (cli, duality, relation):
        monkeypatch.setattr(module, "prime_ideals", counted)
    for fixture, size, code in [
        ("chain4_lattice.json", 4, 1),
        ("chain3_lattice.json", 3, 0),
    ]:
        calls.clear()
        assert run(capsys, "image", fx(fixture))[0] == code
        assert calls == [size]


def test_valid_lattices_build_no_tables(capsys, monkeypatch):
    """`check`, `phi --as lattice`, `primes`, `spec` and `image` never build
    a meet or join table of a valid lattice; an invalid one has its tables
    built once, to name its defect."""
    from ordlat import lattice

    built = []
    real = lattice._tables

    def counted(P):
        built.append(P.n)
        return real(P)

    monkeypatch.setattr(lattice, "_tables", counted)
    for fixture in ("chain3_lattice.json", "chain4_lattice.json",
                    "boolean4_lattice.json", "e_cube2_lattice.json"):
        for argv in (["check"], ["phi", "--as", "lattice"], ["primes"],
                     ["spec"], ["image"]):
            code, _, err = run(capsys, *argv, fx(fixture))
            assert code in (0, 1) and err == ""
    assert built == []
    assert run(capsys, "check", fx("m3_lattice.json"))[0] == 1
    assert built == [5]


def test_commands_build_spectra_and_downset_lattices_by_the_public_routes(
    capsys, monkeypatch
):
    """With ``duality.spec`` and ``duality.clopen_downset_lattice`` wrapped
    at every module that holds them, as the benchmark's tracer wraps public
    functions, `spec`, `downsets`, `image` and `experiments lemma51` are
    seen to build their spectra and down-set lattices through them."""
    import ordlat
    from ordlat import duality, lattice, poset, relation

    seen = []
    for name in ("spec", "clopen_downset_lattice"):
        real = getattr(duality, name)

        def traced(*args, _name=name, _real=real, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)

        for holder in (ordlat, poset, lattice, duality, relation, docio, cli):
            if vars(holder).get(name) is real:
                monkeypatch.setattr(holder, name, traced)
    for argv, routes in [
        (["spec", fx("chain3_lattice.json")], {"spec"}),
        (["downsets", fx("cube2_poset.json")], {"clopen_downset_lattice"}),
        (["image", fx("e_cube2_lattice.json")],
         {"spec", "clopen_downset_lattice"}),
        (["experiments", "lemma51", "--n-max", "2"], {"clopen_downset_lattice"}),
    ]:
        seen.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert set(seen) == routes, argv


def test_image_yes_e_cube2(capsys):
    code, out, _ = run(capsys, "image", fx("e_cube2_lattice.json"))
    assert code == 0
    assert json.loads(out)["result"]["witness_for_K"]["size"] == 3


def test_dot_hasse_edge_counts(capsys):
    for fixture, edges in [
        ("chain3_lattice.json", 2),
        ("cube2_poset.json", 4),
        ("antichain2_poset.json", 0),
    ]:
        code, out, _ = run(capsys, "dot", fx(fixture))
        assert code == 0
        assert out.count("->") == edges


def test_dot_labels_keep_backslashes_and_quotes(tmp_path, capsys):
    labels = ["a\\", 'say "hi" \\"']
    path = tmp_path / "doc.json"
    doc = docio.poset_to_document(o.poset_new(2, [(0, 1)], labels))
    path.write_text(json.dumps(doc, default=list))
    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0
    # a DOT quoted string ends at the first unescaped quote; \\ and \" are
    # its escapes
    quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"', out)
    assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == labels


def test_dot_escapes_names_built_on_first_read():
    """A derived poset's names, built from given names with quotes and
    backslashes, are escaped as given names are."""
    X = o.poset_new(2, [(0, 1)], ['a"', "b\\"])
    for P, names in (
        (o.product(X, o.chain(2)), ['(a",0)', '(a",1)', "(b\\,0)", "(b\\,1)"]),
        (o.clopen_downset_lattice(X)[0].order, ["{}", '{a"}', '{a",b\\}']),
    ):
        out = docio.dot_export(P)
        quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"', out)
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == names
        assert list(P.labels) == names


def test_dot_order_mode(capsys):
    code, out, _ = run(capsys, "dot", fx("chain3_lattice.json"), "--target", "order")
    assert code == 0
    assert out.count("->") == 3


def test_experiments_suites_run(capsys):
    for suite, n in [
        ("corollary", "4"),
        ("lemma51", "3"),
        ("fixedpoints", "4"),
        ("shift", "1"),
    ]:
        code, out, _ = run(capsys, "experiments", suite, "--n-max", n)
        assert code == 0, suite
        assert json.loads(out)["result"]["all_pass"] is True


@pytest.mark.parametrize("suite", ["corollary", "lemma51", "fixedpoints",
                                   "dimtable"])
def test_experiments_refuse_past_the_enumeration_cap_up_front(
    capsys, monkeypatch, suite
):
    from ordlat import poset

    def no_classes(n):
        raise AssertionError(f"classes of {n} points built past the cap")

    monkeypatch.setattr(poset, "_enumerate_cached", no_classes)
    code, out, err = run(capsys, "experiments", suite, "--n-max", "8")
    assert (code, out) == (1, "")
    assert err == "error: CapExceeded: poset enumeration capped at n = 7\n"


def test_experiments_corollary_names_failures_in_class_order(capsys, monkeypatch):
    """A failing lattice is named by its class id, in the order of the scan
    of every poset class: here the checks fail on each lattice with an odd
    number of comparable pairs."""

    def odd(order):
        return order.relation_count() % 2 == 1

    def is_lattice(P):
        try:
            o.lattice_from_poset(P)
        except o.OrdlatError:
            return False
        return True

    monkeypatch.setattr(relation, "verify_relation_primes",
                        lambda L, max_size: not odd(L.order))
    scanned = scan_lattice_classes(o.enumerate_posets, is_lattice, 7)
    for n_max in (1, 4, 7):
        code, out, err = run(capsys, "experiments", "corollary",
                             "--n-max", str(n_max))
        found = [(size, idx, P) for size, idx, P in scanned if size <= n_max]
        failures = [f"n{size}#{idx:03d}" for size, idx, P in found if odd(P)]
        assert (code, err) == (1 if failures else 0, "")
        assert json.loads(out)["result"] == {
            "checked": len(found), "failures": failures,
            "all_pass": not failures}
    assert failures == ["n2#001", "n4#013", "n5#062", "n6#317", "n7#1994",
                        "n7#1996", "n7#2039", "n7#2040", "n7#2041", "n7#2042"]


def test_scans_build_no_element_names(capsys, monkeypatch):
    """The experiment suites and the dimension survey print no element
    name, so they build none: with the name view's build step patched to
    raise, each gives the same bytes as before."""
    from ordlat import poset, relation

    suites = [("fixedpoints", "7"), ("corollary", "7"), ("lemma51", "4"),
              ("shift", "3")]

    def outputs():
        reports = [run(capsys, "experiments", suite, "--n-max", n_max)
                   for suite, n_max in suites]
        return reports, relation.dimension_report(6)

    before = outputs()
    assert all(code == 0 for code, _, _ in before[0])

    def unnamed(view):
        raise AssertionError("an element name was built")

    monkeypatch.setattr(poset._Names, "names", property(unnamed))
    with pytest.raises(AssertionError, match="element name"):
        o.cube(2).labels[0]
    assert outputs() == before


# the first refusal of `experiments corollary --n-max 7` under each cap up to
# 27: the relation lattice of the first lattice, in class order, with more
# comparable pairs than the cap; at 28, those of chain 7, the suite passes
COROLLARY_REFUSALS = {
    cap: f"relation poset has {pairs} elements, cap {cap}"
    for cap, pairs in enumerate(
        [3, 3, 3, 6, 6, 6, 9, 9, 9, 10, 14, 14, 14, 14, 15, 18, 18, 18, 20, 20,
         21, 25, 25, 25, 25, 26, 27, 28])
}


def test_experiments_corollary_keys_only_the_lattices_it_names(
        capsys, monkeypatch):
    """A passing scan keys no lattice; a failing one keys its failures
    only, and a refused one only the lattices with more comparable pairs
    than the cap, to find the first of them in class order."""
    from ordlat import relation

    real = relation._canonical_chunks
    keyed = []

    def counted(P):
        keyed.append(P.relation_count())
        return real(P)

    monkeypatch.setattr(relation, "_canonical_chunks", counted)
    code, _, _ = run(capsys, "experiments", "corollary", "--n-max", "7")
    assert (code, keyed) == (0, [])
    pairs = [L.order.relation_count() for L in relation._lattice_classes(7)]
    for cap in COROLLARY_REFUSALS:
        keyed.clear()
        code, _, _ = run(capsys, "--max-size", str(cap), "experiments",
                         "corollary", "--n-max", "7")
        assert code == 1
        assert sorted(keyed) == sorted(p for p in pairs if p > cap), cap
    monkeypatch.setattr(relation, "verify_relation_primes",
                        lambda L, max_size: L.order.relation_count() % 2 == 0)
    keyed.clear()
    code, out, _ = run(capsys, "experiments", "corollary", "--n-max", "7")
    assert code == 1
    assert len(keyed) == len(json.loads(out)["result"]["failures"]) == 10
    assert all(p % 2 for p in keyed)


def test_experiments_corollary_obeys_max_size(capsys):
    for cap, message in COROLLARY_REFUSALS.items():
        code, out, err = run(
            capsys, "--max-size", str(cap), "experiments", "corollary",
            "--n-max", "7")
        assert (code, out) == (1, ""), cap
        assert err == f"error: CapExceeded: {message}\n"
    code, out, err = run(
        capsys, "--max-size", "28", "experiments", "corollary", "--n-max", "7")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["checked"] == 20


# the first refusal of `experiments shift --n-max 3` at each side of each
# cap threshold: cube 0 (1 point), E(cube 0) (2 elements), and the relation
# lattices of E(cube n), n = 0..3 (3, 6, 20 and 168 elements)
SHIFT_REFUSALS = {
    0: "cube 0 has 1 elements, cap 0",
    1: "down-set lattice of a 1-point poset has more than 1 elements, cap 1 "
       "(raise it with --max-size)",
    2: "relation poset has 3 elements, cap 2",
    3: "relation poset has 6 elements, cap 3",
    5: "relation poset has 6 elements, cap 5",
    6: "relation poset has 20 elements, cap 6",
    19: "relation poset has 20 elements, cap 19",
    20: "relation poset has 168 elements, cap 20",
    167: "relation poset has 168 elements, cap 167",
}


def test_experiments_shift_obeys_max_size(capsys):
    for cap, message in SHIFT_REFUSALS.items():
        code, out, err = run(
            capsys, "--max-size", str(cap), "experiments", "shift", "--n-max", "3"
        )
        assert (code, out) == (1, ""), cap
        assert err == f"error: CapExceeded: {message}\n"
    code, out, err = run(
        capsys, "--max-size", "168", "experiments", "shift", "--n-max", "3"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["all_pass"] is True


def test_experiments_fixedpoints_obeys_max_size(capsys):
    """Phi(P) is built for the antichains alone, in size order, so under
    each cap k < 7 the suite refuses Phi of the (k+1)-antichain; at 7 it
    writes the report of the default cap."""
    for cap in range(7):
        code, out, err = run(capsys, "--max-size", str(cap), "experiments",
                             "fixedpoints", "--n-max", "7")
        assert (code, out) == (1, ""), cap
        assert err == (f"error: CapExceeded: relation poset has {cap + 1} "
                       f"elements, cap {cap}\n")
    code, out, err = run(capsys, "--max-size", "7", "experiments",
                         "fixedpoints", "--n-max", "7")
    assert (code, err) == (0, "")
    _, default, _ = run(capsys, "experiments", "fixedpoints", "--n-max", "7")
    assert out == default.replace('"max_size": 1024', '"max_size": 7')


def test_experiments_dimtable_obeys_max_size(capsys):
    """dimtable builds Phi(P) of every class under --max-size: n3#001, the
    first class in order with 4 related pairs, is refused under cap 3, and
    no row is written; cap 6 passes every class of at most 3 points."""
    counts = [P.relation_count() for n in (1, 2, 3) for P in o.enumerate_posets(n)]
    assert counts.index(4) == 1 + 2 + 1 and max(counts[:4]) == 3
    code, out, err = run(capsys, "--max-size", "3", "experiments", "dimtable",
                         "--n-max", "4")
    assert (code, out) == (1, "")
    assert err == "error: CapExceeded: relation poset has 4 elements, cap 3\n"
    code, out, err = run(capsys, "--max-size", "6", "experiments", "dimtable",
                         "--n-max", "3")
    assert (code, err) == (0, "")
    assert out == run(capsys, "experiments", "dimtable", "--n-max", "3")[1]


def test_experiments_shift_builds_each_downset_lattice_once(capsys, monkeypatch):
    """The suite reads the comparable pairs of E(cube n) off the witness the
    check returns: two down-set scans per case, of cube n and cube n x 2."""
    from ordlat import duality

    calls = []
    real = duality.down_sets

    def counted(P, *args, **kwargs):
        calls.append(P.n)
        return real(P, *args, **kwargs)

    monkeypatch.setattr(duality, "down_sets", counted)
    code, out, _ = run(capsys, "experiments", "shift", "--n-max", "3")
    assert code == 0
    cases = json.loads(out)["result"]["cases"]
    assert [cases[str(n)]["comparable_pairs"] for n in range(4)] == [3, 6, 20, 168]
    assert calls == [p for n in range(4) for p in (1 << n, 2 << n)]


def test_experiments_shift_builds_each_cube_times_two_once(capsys, monkeypatch):
    """The check compares cube(n+1) with the product cube n x 2 that the
    lemma built, so each case builds one product."""
    from ordlat import relation

    calls = []
    real = relation.product

    def counted(P, Q, *args, **kwargs):
        calls.append((P.n, Q.n))
        return real(P, Q, *args, **kwargs)

    monkeypatch.setattr(relation, "product", counted)
    code, _, _ = run(capsys, "experiments", "shift", "--n-max", "3")
    assert code == 0
    assert calls == [(1, 2), (2, 2), (4, 2), (8, 2)]


def test_experiments_dimtable_csv(capsys):
    code, out, _ = run(capsys, "experiments", "dimtable", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,size,dim,dim_rel,width,width_rel"
    assert len(lines) == 1 + 1 + 2 + 5


# SHA-256 of `experiments dimtable --n-max 6` as written by the realizer
# search over all linear extensions that the critical-pair split replaced
DIMTABLE_6_SHA256 = "dd9f05b05bf143e58cffa62d3274ae3fba35a41cc8cd87ba834ce4b66701fb54"


def test_experiments_dimtable_6_matches_recorded_digest(capsys):
    code, out, _ = run(capsys, "experiments", "dimtable", "--n-max", "6")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1 + 2 + 5 + 16 + 63 + 318
    assert hashlib.sha256(out.encode()).hexdigest() == DIMTABLE_6_SHA256


# SHA-256 of `experiments dimtable --n-max 7` at the default --max-dim-size
# of 10, recorded when the n_max = 6 refusal was dropped
DIMTABLE_7_SHA256 = "fabdd97022eccf66c7d7a8f0fc873484b8ad2ff12fa4ab4571473269d3128f02"


def test_experiments_dimtable_7_is_bounded_by_the_dimension_cap(capsys):
    """At n = 7 the table is bounded by the enumeration cap and
    --max-dim-size alone: 2,450 rows, the n <= 6 table first."""
    code, out, _ = run(capsys, "experiments", "dimtable", "--n-max", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 2450
    assert sum(line.split(",")[1] == "7" for line in lines) == 2045
    _, six, _ = run(capsys, "experiments", "dimtable", "--n-max", "6")
    assert out.startswith(six)
    assert hashlib.sha256(out.encode()).hexdigest() == DIMTABLE_7_SHA256


def test_experiments_shift_is_bounded_by_max_size_alone(capsys):
    """`shift --n-max 4` runs n = 0..4: at the default cap the relation
    lattice of E(cube 4) is refused, and with the cap raised to its size
    the suite passes."""
    code, out, err = run(capsys, "experiments", "shift", "--n-max", "4")
    assert (code, out) == (1, "")
    assert err == "error: CapExceeded: relation poset has 7581 elements, cap 1024\n"
    code, out, err = run(capsys, "--max-size", "7581", "experiments", "shift",
                         "--n-max", "4")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["all_pass"] is True
    assert [result["cases"][str(n)]["comparable_pairs"] for n in range(5)] == [
        3, 6, 20, 168, 7581]


def test_suites_are_public_relation_reports():
    """The CLI imports no private name of `relation`, and each suite but
    dimtable's CSV writer is a public function of `relation`, so the class
    walk and its ids stay in one module."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(cli))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "relation"
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]
    assert list(cli.SUITES) == ["corollary", "lemma51", "fixedpoints", "shift",
                                "dimtable"]
    for name, suite in cli.SUITES.items():
        if name == "dimtable":
            continue
        assert suite.__module__ == "ordlat.relation", name
        assert not suite.__name__.startswith("_"), name
        assert getattr(relation, suite.__name__) is suite, name


def test_experiments_call_the_report_on_relation(monkeypatch, capsys):
    """A suite's report is looked up on `relation` when it is called, so a
    wrapper put there, such as perfbench's tracer, sees the call."""
    calls = []
    real = relation.lemma51_report

    def counted(n_max, max_size):
        calls.append((n_max, max_size))
        return real(n_max, max_size)

    monkeypatch.setattr(relation, "lemma51_report", counted)
    code, out, _ = run(capsys, "experiments", "lemma51", "--n-max", "1")
    assert code == 0 and json.loads(out)["args"]["suite"] == "lemma51"
    assert calls == [(1, o.poset.DEFAULT_MAX_SIZE)]


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "spec", fx("chain3_lattice.json")])
    assert code == 0
    assert json.loads(target.read_text())["command"] == "spec"


def test_output_to_a_missing_directory_is_refused(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "--output", str(target), "check", fx("chain2_poset.json")
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: [Errno 2]")
    assert not target.parent.exists()


def test_document_roundtrip_fixtures():
    for name in sorted(os.listdir(FIXTURES)):
        if name == "malformed.json":
            continue
        with open(fx(name), "r", encoding="utf-8") as fh:
            text = fh.read()
        kind, P = docio.parse_document(text)
        doc = docio.poset_to_document(P, kind=kind)
        kind2, P2 = docio.document_to_poset(doc)
        assert kind2 == kind and P2 == P


def test_roundtrip_on_generated_posets():
    for n in (1, 2, 3, 4):
        for P in o.enumerate_posets(n):
            doc = docio.poset_to_document(P)
            _, P2 = docio.document_to_poset(doc)
            assert P2 == P


def test_parse_rejects_bad_documents():
    bad = [
        {"schema_version": "2", "kind": "poset", "size": 1, "leq_pairs": []},
        {"schema_version": "1", "kind": "thing", "size": 1, "leq_pairs": []},
        {"schema_version": "1", "kind": "poset", "size": -1, "leq_pairs": []},
        {"schema_version": "1", "kind": "poset", "size": 2, "leq_pairs": [[0, 5]]},
        {"schema_version": "1", "kind": "poset", "size": 2, "leq_pairs": [[0]]},
        # JSON booleans are not integers
        {"schema_version": "1", "kind": "poset", "size": True, "leq_pairs": []},
        {"schema_version": "1", "kind": "poset", "size": 2,
         "leq_pairs": [[False, False]]},
    ]
    for doc in bad:
        with pytest.raises(o.ParseError):
            docio.document_to_poset(doc)


@pytest.mark.parametrize("pairs,message", [
    ([[0]], "bad pair entry [0]"),
    ([[0, 1, 2]], "bad pair entry [0, 1, 2]"),
    ([[False, False]], "bad pair entry [False, False]"),
    ([[0, "1"]], "bad pair entry [0, '1']"),
    ([0], "bad pair entry 0"),
    ([[0, 5]], "pair [0, 5] out of range for size 2"),
])
def test_parse_names_each_bad_pair(pairs, message):
    doc = {"schema_version": "1", "kind": "poset", "size": 2, "leq_pairs": pairs}
    with pytest.raises(o.ParseError) as err:
        docio.document_to_poset(doc)
    assert str(err.value) == message


def test_documents_round_trip_their_pairs_in_process():
    """A document's pairs are a ``docio.Pairs`` read off the rows: equal to
    the list they stand for, taken back by ``document_to_poset`` and made
    plain JSON by ``default=list``."""
    P = o.poset_new(3, [(0, 1), (0, 2)], ["a", "b", "c"])
    doc = docio.poset_to_document(P)
    assert isinstance(doc["leq_pairs"], docio.Pairs)
    assert doc["leq_pairs"] == [[0, 1], [0, 2]] and len(doc["leq_pairs"]) == 2
    assert docio.document_to_poset(doc) == ("poset", P)
    assert json.loads(json.dumps(doc, default=list))["leq_pairs"] == [[0, 1], [0, 2]]
    every = docio.Pairs(P.up, strict=False)
    assert every == [[0, 0], [0, 1], [0, 2], [1, 1], [2, 2]] and len(every) == 5
    assert every != doc["leq_pairs"] and every != ()
    # a refused pair is named as it is for a list
    with pytest.raises(o.ParseError, match=r"^pair \[0, 0\] out of range for size 0$"):
        docio.document_to_poset({**doc, "size": 0, "labels": None,
                                 "leq_pairs": docio.Pairs((1,), strict=False)})


KEYS = st.text(alphabet=st.sampled_from('ab"\\/\n\u00e9\u2603'), max_size=4)
INTS = st.integers(-(10**12), 10**12)
SCALARS = st.none() | st.booleans() | INTS | st.text(max_size=5)
PAYLOADS = st.recursive(
    SCALARS | st.lists(INTS) | st.lists(st.lists(INTS, min_size=2, max_size=2))
    | st.lists(st.text()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_report_writer_matches_json_dumps(payload):
    assert cli._dump(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [
    {},
    [],
    {"a": {}, "b": [[], {}]},
    [True, 1],
    [[True, 1], [2, 3]],
    [[1, 2], [1, 2, 3]],
    [[1, 2], [3, None]],
    [[1, 2], "x"],
    {"\"q\\": [-1, 0, 1], "\u00e9": None, "\u2603": False},
])
def test_report_writer_takes_the_general_path_where_it_must(payload):
    assert cli._dump(payload) == json.dumps(payload, indent=2, sort_keys=True)


@st.composite
def orders(draw):
    """Random orders of three shapes: sparse and wide (up to 300 points,
    few relations per row), dense (every pair i < j related with
    probability at least one half) and of at most one point."""
    shape = draw(st.sampled_from(("sparse", "dense", "tiny")))
    if shape == "tiny":
        n = draw(st.integers(0, 1))
        return o.poset_new(n, [])
    n = draw(st.integers(2, 300 if shape == "sparse" else 40))
    if shape == "sparse":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, 5)),
                              max_size=n))
        pairs = [(i, min(i + d, n - 1)) for i, d in pairs]
    else:
        p = draw(st.floats(0.5, 1.0))
        rng = random.Random(draw(st.integers(0, 2**32)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    perm = draw(st.permutations(range(n)))
    return o.poset_new(n, [(perm[i], perm[j]) for i, j in pairs])


@settings(max_examples=60, deadline=None)
@given(orders(), st.sampled_from(docio.KINDS))
def test_pairs_are_written_as_json_dumps_writes_their_lists(P, kind):
    doc = docio.poset_to_document(P, kind)
    plain = {**doc, "leq_pairs": [[i, j] for i, j in P.pairs() if i != j]}
    assert doc["leq_pairs"] == plain["leq_pairs"]
    assert cli._dump({"d": doc}) == json.dumps({"d": plain}, indent=2, sort_keys=True)
    every = docio.Pairs(P.up, False)
    assert list(every) == [list(p) for p in P.pairs()] and len(every) == len(P.pairs())
    assert cli._dump(every) == json.dumps(list(every), indent=2)


@pytest.mark.parametrize("payload", [{1, 2}, {"a": (1, 2)}, [[1, 2], {3}], {1: 2}])
def test_report_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli._dump(payload)
