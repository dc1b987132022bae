"""Seeded inputs for the three workloads, with their expected answers.

Everything here is built with the benchmark's own order code (``orders``),
never with the package under test: the package receives only the generated
documents and posets.  The same (workload, seed) gives byte-identical
output from ``generate``.

Sizes are drawn inside narrow bands so that every seed costs about the same:
regressions are judged on runs made with different seeds, so a seed that
happened to draw one huge input would read as a regression.
"""

from __future__ import annotations

import json
import random

import orders

# Indexed by n: OEIS A000112 (posets up to isomorphism), A006982
# (distributive lattices), and Dedekind numbers |E(cube n)|.
POSET_CLASSES = (1, 1, 2, 5, 16, 63, 318, 2045)
DISTRIBUTIVE_LATTICES = (1, 1, 1, 1, 2, 3, 5, 8)
DEDEKIND = (2, 3, 6, 20, 168)

SWEEP = (("fixedpoints", 7), ("corollary", 7), ("lemma51", 4), ("shift", 3))

# documents: how many ops of each kind one pass runs.  The 16 large ops make
# up 8 % of the 200, so the tail (p95, ten ops beyond it) falls among them.
DOCUMENT_MIX = {
    "primes": 22, "spec": 22, "check_lattice": 16, "downsets": 14,
    "image_yes": 12, "image_no": 6, "phi_poset": 16, "dot_small": 10,
    "check_poset": 12, "experiments": 10,
    "malformed": 6, "out_of_range": 4, "cycle": 4, "not_distributive": 8,
    "not_lattice": 4,
    "check_lattice_mid": 6, "phi_lattice_mid": 6, "phi_poset_mid": 6,
    "phi_lattice_big": 5, "check_lattice_big": 5, "check_poset_big": 3,
    "dot_big": 3,
}
# inclusive size bands of the generated carriers
SMALL_LATTICE = (4, 20)      # |E(X)|, so the spectrum cap (20) holds
MID_LATTICE = (50, 70)       # |E(X)| for check_lattice_mid
BIG_LATTICE = (200, 205)     # |E(X)| for check_lattice_big, |Phi(E(X))| for
                             # phi_lattice_big: the peak memory is set here
MID_PHI = (60, 80)           # |E(X x 2)| = |Phi(E(X))| for phi_lattice_mid
MID_PAIRS = (400, 600)       # related pairs of phi_poset_mid posets
BIG_POSET = (950, 1000)      # ground set of check_poset_big and dot_big

# dimension: rows per cost class, banded on e(P)^2 + e(Phi P)^2 where e counts
# linear extensions: the realizer search enumerates every extension and then
# compares every pair of them, so a row costs about 0.1 s per 10^6 on a
# 2.1 GHz Xeon (KVM guest, Python 3.11).  The ten
# heaviest rows lie beyond the p90 tail, which is therefore the costliest of
# the 5 heavy rows on every seed; the 60 light rows hold the median.
DIMENSION_MIX = {"light": (60, 20_000, 60_000), "medium": (25, 400_000, 800_000),
                 "heavy": (5, 1_500_000, 2_000_000),
                 "heaviest": (10, 2_000_001, 2_500_000)}
DIMENSION_SIZES = (5, 7)     # |P|
MAX_DIM_SIZE = 10            # the CLI default --max-dim-size


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def random_order(rng: random.Random, n: int, p: float) -> list[int]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return orders.closure(n, pairs)


def sparse_order(rng: random.Random, n: int) -> tuple[list[int], list]:
    """Order on n elements generated by two random edges into each element
    from the 40 before it; returns the closure and the generating pairs."""
    pairs = sorted({(rng.randrange(max(0, j - 40), j), j)
                    for j in range(1, n) for _ in range(2)})
    return orders.closure(n, pairs), pairs


def relabel(up: list[int], perm: list[int]) -> list[int]:
    """Order with element i moved to position perm[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[perm[i]] = sum(1 << perm[j] for j in orders.bits(row))
    return out


def document(kind: str, up: list[int], pairs=None, prefix: str = "v") -> dict:
    """Document with the given generating pairs (cover pairs by default)."""
    return {
        "schema_version": "1",
        "kind": kind,
        "size": len(up),
        "labels": [f"{prefix}{i}" for i in range(len(up))],
        "leq_pairs": [list(p) for p in (orders.covers(up) if pairs is None else pairs)],
    }


def shuffled(rng: random.Random, up: list[int]) -> tuple[list[int], list[int]]:
    perm = list(range(len(up)))
    rng.shuffle(perm)
    return relabel(up, perm), perm


def draw_space(rng, sizes, band, measure, p_range=(0.1, 0.5), tries=20000):
    """Random order X whose measure lies in the band."""
    for _ in range(tries):
        X = random_order(rng, rng.randint(*sizes), rng.uniform(*p_range))
        if band[0] <= measure(X) <= band[1]:
            return X
    raise RuntimeError(f"no order with measure in {band} after {tries} draws")


def downset_lattice(X: list[int]) -> tuple[list[int], list[int]]:
    """E(X) as (down-set masks, inclusion up rows)."""
    ds = orders.down_sets(X)
    return ds, orders.inclusion_order(ds)


def relation_order(up: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Phi of an order: its related pairs under the componentwise order."""
    prs = [(a, b) for a, row in enumerate(up) for b in orders.bits(row)]
    rows = [
        sum(1 << k for k, (c, d) in enumerate(prs)
            if (up[a] >> c) & 1 and (up[b] >> d) & 1)
        for a, b in prs
    ]
    return prs, rows


def product(up1: list[int], up2: list[int]) -> list[int]:
    n2 = len(up2)
    return [
        sum(1 << (c * n2 + d) for c in orders.bits(up1[a]) for d in orders.bits(up2[b]))
        for a in range(len(up1)) for b in range(n2)
    ]


M3 = orders.closure(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
N5 = orders.closure(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


# ---------------------------------------------------------------- documents

def _lattice_op(rng, cmd, band, sizes):
    X = draw_space(rng, sizes, band, lambda X: len(orders.down_sets(X)))
    ds, L = downset_lattice(X)
    Ls, perm = shuffled(rng, L)
    op = {"argv": [cmd, "@doc"], "doc": document("lattice", Ls)}
    if cmd == "primes" or cmd == "spec":
        # the prime ideals of E(X) are {d : x not in d}, one per x in X
        ideals = {x: sorted(perm[k] for k, d in enumerate(ds) if not (d >> x) & 1)
                  for x in range(len(X))}
        op["expect"] = {"ideals": [ideals[x] for x in range(len(X))], "space": X}
    else:
        op["expect"] = {"size": len(L)}
    return op


def _op(rng: random.Random, kind: str) -> dict:
    if kind in ("primes", "spec"):
        return _lattice_op(rng, kind, SMALL_LATTICE, (1, 5))
    if kind == "check_lattice":
        return _lattice_op(rng, "check", SMALL_LATTICE, (1, 5))
    if kind == "check_lattice_mid":
        return _lattice_op(rng, "check", MID_LATTICE, (5, 9))
    if kind == "check_lattice_big":
        return _lattice_op(rng, "check", BIG_LATTICE, (8, 12))
    if kind in ("phi_lattice_mid", "phi_lattice_big"):
        band = MID_PHI if kind == "phi_lattice_mid" else BIG_LATTICE
        X = draw_space(rng, (2, 7), band,
                       lambda X: len(orders.down_sets(orders.product_with_two(X))))
        _, L = downset_lattice(X)
        return {"argv": ["phi", "@doc", "--as", "lattice"],
                "doc": document("lattice", shuffled(rng, L)[0]),
                "expect": {"size": len(orders.down_sets(orders.product_with_two(X)))}}
    if kind == "downsets":
        X = shuffled(rng, random_order(rng, rng.randint(2, 6), rng.uniform(0.1, 0.5)))[0]
        ds = orders.down_sets(X)
        return {"argv": ["downsets", "@doc"], "doc": document("poset", X),
                "expect": {"down_sets": [orders.bits(d) for d in ds]}}
    if kind in ("image_yes", "image_no"):
        if kind == "image_yes":
            # Phi(E(Y)) with at most 20 elements, the spectrum cap
            Y = draw_space(rng, (1, 3), (2, 20),
                           lambda Y: len(orders.down_sets(orders.product_with_two(Y))))
            _, K = downset_lattice(Y)
            L = relation_order(K)[1]
        else:
            L = orders.closure(k := rng.choice((2, 4, 5, 6, 7, 8)),
                               [(i, i + 1) for i in range(k - 1)])
        return {"argv": ["image", "@doc"],
                "doc": document("lattice", shuffled(rng, L)[0], prefix="x"),
                "expect": {"in_image": kind == "image_yes"}}
    if kind in ("phi_poset", "phi_poset_mid"):
        if kind == "phi_poset":
            X = random_order(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
        else:
            X = draw_space(rng, (40, 80), MID_PAIRS,
                           lambda X: sum(row.bit_count() for row in X), (0.0, 0.05))
        X = shuffled(rng, X)[0]
        return {"argv": ["phi", "@doc"], "doc": document("poset", X),
                "expect": {"pairs": [[a, b] for a, row in enumerate(X)
                                     for b in orders.bits(row)]}}
    if kind in ("dot_small", "dot_big", "check_poset", "check_poset_big"):
        big = kind.endswith("big")
        n = rng.randint(*BIG_POSET) if big else rng.randint(2, 40)
        X, pairs = sparse_order(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        X = relabel(X, perm)
        doc = document("poset", X, [[perm[i], perm[j]] for i, j in pairs])
        if kind.startswith("check"):
            return {"argv": ["check", "@doc"], "doc": doc, "expect": {"size": n}}
        target = "hasse" if big or rng.random() < 0.5 else "order"
        edges = orders.covers(X) if target == "hasse" else orders.strict_pairs(X)
        return {"argv": ["dot", "@doc", "--target", target], "doc": doc,
                "expect": {"size": n, "edges": sorted(map(list, edges))}}
    if kind == "experiments":
        suite, k = rng.choice((("lemma51", 4), ("corollary", 5), ("shift", 2),
                               ("fixedpoints", 4), ("dimtable", 4), ("lemma51", 3),
                               ("corollary", 4), ("shift", 1)))
        return {"argv": ["experiments", suite, "--n-max", str(k)],
                "expect": {"suite": suite, "n_max": k}}
    if kind == "malformed":
        text = json.dumps(document("poset", random_order(rng, 6, 0.3)))
        if rng.random() < 0.5:
            text = text[: rng.randrange(1, len(text) - 1)]
        else:
            text = text.replace('"schema_version": "1"', '"schema_version": "9"')
        return {"argv": ["check", "@doc"], "text": text, "expect": {"exit": 2}}
    if kind == "out_of_range":
        doc = document("poset", random_order(rng, 6, 0.3))
        doc["leq_pairs"].append([rng.randrange(6), 6 + rng.randrange(3)])
        return {"argv": [rng.choice(("check", "phi", "dot")), "@doc"], "doc": doc,
                "expect": {"exit": 2}}
    if kind == "cycle":
        n = rng.randint(3, 30)
        cyc = rng.sample(range(n), rng.randint(2, min(n, 6)))
        pairs = [[cyc[t], cyc[(t + 1) % len(cyc)]] for t in range(len(cyc))]
        doc = document("poset", [1 << i for i in range(n)], pairs)
        return {"argv": [rng.choice(("check", "phi", "downsets")), "@doc"], "doc": doc,
                "expect": {"exit": 1, "error": "AntisymmetryViolation"}}
    if kind == "not_distributive":
        base = M3 if rng.random() < 0.5 else N5
        X = random_order(rng, rng.randint(1, 3), 0.4)
        L = product(base, downset_lattice(X)[1])
        return {"argv": ["check", "@doc"], "doc": document("lattice", shuffled(rng, L)[0]),
                "expect": {"exit": 1, "verdict": "NotDistributive"}}
    if kind == "not_lattice":
        # two minimal elements below everything else: no bottom
        n = rng.randint(3, 8)
        X = orders.closure(n, [(i, j) for i in (0, 1) for j in range(2, n)])
        return {"argv": ["check", "@doc"], "doc": document("lattice", shuffled(rng, X)[0]),
                "expect": {"exit": 1, "verdict": "Unbounded"}}
    raise ValueError(f"unknown document kind {kind!r}")


def documents(seed: int) -> list[dict]:
    rng = rng_for("documents", seed)
    kinds = [k for k, count in DOCUMENT_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        op = _op(rng, kind)
        op["kind"] = kind
        ops.append(op)
    return ops


# ---------------------------------------------------------------- dimension

def dimension(seed: int) -> list[dict]:
    rng = rng_for("dimension", seed)
    rows = []
    for cls, (count, lo, hi) in DIMENSION_MIX.items():
        drawn = 0
        while drawn < count:
            P = random_order(rng, rng.randint(*DIMENSION_SIZES), rng.uniform(0.05, 0.5))
            prs, RP = relation_order(P)
            if len(RP) > MAX_DIM_SIZE:
                continue
            cost = (orders.linear_extension_count(P) ** 2
                    + orders.linear_extension_count(RP) ** 2)
            if not lo <= cost <= hi:
                continue
            P = shuffled(rng, P)[0]
            rows.append({"class": cls, "up": P, "size": len(P), "rel_size": len(RP),
                         "width": orders.width(P), "width_rel": orders.width(RP),
                         "chain": orders.is_chain(P), "cost": cost})
            drawn += 1
    rng.shuffle(rows)
    return rows


def sweep(seed: int) -> list[dict]:
    """The sweep's suites are fixed; the seed only names the run."""
    return [{"argv": ["experiments", s, "--n-max", str(k)], "kind": s,
             "expect": {"suite": s, "n_max": k}} for s, k in SWEEP]


WORKLOADS = {"sweep": sweep, "documents": documents, "dimension": dimension}


def params(workload: str) -> dict:
    """The generation parameters, recorded with every run."""
    if workload == "documents":
        return {"mix": DOCUMENT_MIX, "small_lattice": SMALL_LATTICE,
                "mid_lattice": MID_LATTICE, "big_lattice": BIG_LATTICE,
                "mid_phi": MID_PHI, "mid_pairs": MID_PAIRS,
                "big_poset": BIG_POSET}
    if workload == "dimension":
        return {"mix": DIMENSION_MIX, "sizes": DIMENSION_SIZES,
                "max_dim_size": MAX_DIM_SIZE}
    return {"suites": SWEEP}


def generate(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)
