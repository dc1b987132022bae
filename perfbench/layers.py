"""Per-layer metrics, computed from a traced pass.

Every wrapped function contributes to its module's ``<module>.self_s``; the
functions named below are reported on their own.  BENCHMARK.json gives each
metric's unit and direction; README.md says which end-to-end metric each
group should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import MODULES

CALLS_AND_SELF = (
    "poset.canonical_key", "poset.is_isomorphic", "poset.order_dimension",
    "poset.down_sets", "poset.poset_new",
    "lattice.lattice_from_poset", "lattice.make_lattice",
    "duality.prime_ideals", "duality.spec", "duality.clopen_downset_lattice",
    "duality.unit_lattice", "duality.e_hom",
    "relation.relation_lattice", "relation.relation_poset",
    "relation.relation_image_witness", "relation.factor_by_two",
    "docio.parse_document",
)
SELF_ONLY = (
    "poset.enumerate_posets", "poset.width",
    "relation.verify_relation_primes", "relation.relation_downset_iso",
    "relation.cube_shift_check",
    "docio.poset_to_document", "docio.dot_export",
)


def per_layer(tracer, outcomes: list[dict], bytes_out: int) -> dict[str, float]:
    """Every per-layer metric except trace_overhead, which needs untraced
    passes and is added by the caller."""
    names = tracer.names
    own = tracer.self_ns()
    calls, self_ns, counts = defaultdict(int), defaultdict(int), defaultdict(int)
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += own[i]
        counts[name] += tracer.count[i]

    out: dict[str, float] = {}
    for f in CALLS_AND_SELF:
        out[f"{f}.calls"] = calls[f]
    for f in CALLS_AND_SELF + SELF_ONLY:
        out[f"{f}.self_s"] = self_ns[f] / 1e9
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v for k, v in self_ns.items()
                                 if k.startswith(m + ".")) / 1e9

    # down-sets scanned by prime_ideals, and prime_ideals calls made inside
    # relation_image_witness, both read from the parent links
    name_of = [names[nid] for nid in tracer.name_id]
    scanned = 0
    per_witness = 0
    for i, name in enumerate(name_of):
        p = tracer.parent[i]
        if name == "poset.down_sets" and p >= 0 and name_of[p] == "duality.prime_ideals":
            scanned += tracer.count[i]
        if name == "duality.prime_ideals":
            while p >= 0 and name_of[p] != "relation.relation_image_witness":
                p = tracer.parent[p]
            per_witness += p >= 0

    def ratio(a, b):
        return a / b if b else 0.0

    exits = [r.get("code") for r in outcomes]
    out.update({
        "poset.down_sets.sets_out": counts["poset.down_sets"],
        "lattice.table_entries": counts["lattice.lattice_from_poset"]
        + counts["lattice.make_lattice"],
        "duality.prime_ideals.found": counts["duality.prime_ideals"],
        "duality.prime_ideals.hit_ratio": ratio(counts["duality.prime_ideals"], scanned),
        "relation.relation_lattice.elements": counts["relation.relation_lattice"],
        "relation.relation_image_witness.prime_ideals_per_call":
            ratio(per_witness, calls["relation.relation_image_witness"]),
        "relation.factor_by_two.found_ratio":
            ratio(counts["relation.factor_by_two"], calls["relation.factor_by_two"]),
        "docio.bytes_in": counts["docio.parse_document"],
        "cli.main.calls": calls["cli.main"],
        "cli.bytes_out": bytes_out,
        "cli.exit_0": exits.count(0),
        "cli.exit_1": exits.count(1),
        "cli.exit_2": exits.count(2),
    })
    return out
