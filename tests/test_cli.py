import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlat as o
from ordlat import cli, docio
from ordlat.cli import main

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
    src = os.path.dirname(os.path.dirname(o.__file__))
    code = "import sys, ordlat.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"


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


@pytest.mark.parametrize("command,n,want", [("image", 1023, 1), ("primes", 1024, 0)])
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
    assert rss_kb < 300 * 1024


def test_duality_commands_take_lattices_past_twenty_elements(tmp_path, capsys):
    """Phi(chain 21) has 231 elements: its spectrum is a 20-chain times 2,
    and it is the image of the 21-chain."""
    PhiL, _ = o.relation_lattice(o.lattice_from_poset(o.chain(21)))
    path = tmp_path / "phi_chain21.json"
    path.write_text(json.dumps(docio.poset_to_document(PhiL.order, kind="lattice")))
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


def test_experiments_shift_builds_each_downset_lattice_once(capsys, monkeypatch):
    """The suite reads the comparable pairs of E(cube n) off the relation
    lattice the check builds: three down-set scans per case, none more."""
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
    assert len(calls) == 4 * 3


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


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "spec", fx("chain3_lattice.json")])
    assert code == 0
    assert json.loads(target.read_text())["command"] == "spec"


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


KEYS = st.text(alphabet=st.sampled_from('ab"\\/\n\u00e9\u2603'), max_size=4)
INTS = st.integers(-(10**12), 10**12)
SCALARS = st.none() | st.booleans() | INTS | st.text(max_size=5)
PAYLOADS = st.recursive(
    SCALARS | st.lists(INTS) | st.lists(st.lists(INTS, min_size=2, max_size=2)),
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


@pytest.mark.parametrize("payload", [{1, 2}, {"a": (1, 2)}, [[1, 2], {3}], {1: 2}])
def test_report_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli._dump(payload)
