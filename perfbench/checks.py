"""Correctness checks on every op's outcome.

Expected answers come from how each input was built (``gen``) or from
published counts, not from rerunning the package.  Each check returns the
names of the facts that failed; an empty list means the op passed.
"""

from __future__ import annotations

import json

import gen
import orders


class Failures:
    def __init__(self):
        self.names: list[str] = []

    def need(self, ok: bool, name: str) -> None:
        if not ok:
            self.names.append(name)


def _report(out: str, f: Failures):
    try:
        return json.loads(out)["result"]
    except (ValueError, KeyError, TypeError):
        f.need(False, "report_is_json")
        return None


def _iso_ok(L_doc: dict, K_doc: dict, iso: list) -> bool:
    """The iso table maps Phi(K) onto L, both orders rebuilt here."""
    L = orders.order_from_document(L_doc)
    K = orders.order_from_document(K_doc)
    prs, phi = gen.relation_order(K)
    kl = K_doc["labels"]
    phi_index = {f"({kl[a]},{kl[b]})": k for k, (a, b) in enumerate(prs)}
    l_index = {name: i for i, name in enumerate(L_doc["labels"])}
    if len(iso) != len(prs) or len(prs) != len(L):
        return False
    try:
        fwd = {phi_index[a]: l_index[b] for a, b in iso}
    except KeyError:
        return False
    if sorted(fwd) != list(range(len(prs))) or sorted(fwd.values()) != list(range(len(L))):
        return False
    return all(
        bool((phi[i] >> j) & 1) == bool((L[fwd[i]] >> fwd[j]) & 1)
        for i in range(len(prs)) for j in range(len(prs))
    )


def _violates_distributivity(doc: dict, triple) -> bool:
    meet, join = orders.meet_join(orders.order_from_document(doc))
    a, b, c = triple
    return meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]


def _dimension_rows_ok(csv_text: str, n_max: int, f: Failures) -> None:
    lines = csv_text.strip().split("\n")
    f.need(lines[0] == "id,size,dim,dim_rel,width,width_rel", "dimtable_header")
    rows = [line.split(",") for line in lines[1:]]
    f.need(len(rows) == sum(gen.POSET_CLASSES[1:n_max + 1]), "dimtable_row_count")
    for row in rows:
        size, dim, dim_rel, wid, wid_rel = row[1:]
        if dim != "SKIPPED":
            f.need(1 <= int(dim) <= int(wid), "dim_between_1_and_width")
            f.need(int(size) < 4 or int(dim) <= int(size) // 2, "dim_hiraguchi")
            if dim_rel != "SKIPPED":
                f.need(int(dim_rel) <= 2 * int(dim), "dim_rel_at_most_twice_dim")


def _suite(exp: dict, code: int, out: str, f: Failures) -> None:
    """Suite reports against counts known from the literature."""
    suite, k = exp["suite"], exp["n_max"]
    f.need(code == 0, "exit_code")
    if suite == "dimtable":
        _dimension_rows_ok(out, k, f)
        return
    r = _report(out, f)
    if r is None:
        return
    f.need(r.get("all_pass") is True, "all_pass")
    if suite == "lemma51":
        f.need(len(r["checked"]) == sum(gen.POSET_CLASSES[1:k + 1]), "lemma51_checked")
    elif suite == "corollary":
        # the package rejects the one-element lattice (0 != 1)
        f.need(r["checked"] == sum(gen.DISTRIBUTIVE_LATTICES[2:k + 1]),
               "corollary_checked")
    elif suite == "shift":
        pairs = [r["cases"][str(i)]["comparable_pairs"] for i in range(k + 1)]
        f.need(pairs == list(gen.DEDEKIND[1:k + 2]), "shift_comparable_pairs")
        f.need(all(c["pass"] for c in r["cases"].values()), "shift_pass")
    elif suite == "fixedpoints":
        modes = r["modes"]
        sizes = sorted(int(h[1:h.index("#")]) for h in modes["posets"]["hits"])
        f.need(sizes == list(range(1, k + 1)), "fixedpoint_one_antichain_per_size")
        f.need(modes["lattices"]["hits"] == [], "fixedpoint_no_lattices")
        f.need(modes["connected_posets"]["hits"] == ["n1#000"],
               "fixedpoint_connected_singleton")


def check_document(op: dict, res: dict) -> list[str]:
    kind, exp = op["kind"], op["expect"]
    code, out, err = res["code"], res["out"], res["err"]
    f = Failures()
    if "exit" in exp:
        f.need(code == exp["exit"], "exit_code")
        if "error" in exp:
            f.need(exp["error"] in err, "error_named")
        if "verdict" in exp:
            r = _report(out, f)
            if r is not None:
                f.need(r.get("verdict") == exp["verdict"], "verdict")
                if exp["verdict"] == "NotDistributive":
                    f.need(_violates_distributivity(op["doc"], r["witness"]),
                           "triple_violates_distributivity")
        elif exp["exit"] == 2:
            f.need(err.startswith("error:") and out == "", "refused_with_message")
        return f.names
    if kind == "experiments":
        _suite(exp, code, out, f)
        return f.names
    if kind == "image_no":
        f.need(code == 1, "exit_code")
        r = _report(out, f)
        f.need(r is not None and r.get("in_image") is False, "not_in_image")
        return f.names
    f.need(code == 0, "exit_code")
    if kind.startswith("dot"):
        lines = out.splitlines()
        nodes = [ln for ln in lines if "[label=" in ln]
        edges = sorted([int(a.strip()[1:]), int(b.strip()[1:-1])]
                       for a, b in (ln.split("->") for ln in lines if "->" in ln))
        f.need(len(nodes) == exp["size"], "dot_nodes")
        f.need(edges == exp["edges"], "dot_edges")
        return f.names
    r = _report(out, f)
    if r is None:
        return f.names
    if kind.startswith("check"):
        f.need(r.get("valid") is True and r.get("size") == exp["size"], "valid")
    elif kind == "primes":
        f.need(r["count"] == len(exp["ideals"]), "prime_count_is_X")
        f.need(sorted(r["prime_ideals"]) == sorted(exp["ideals"]), "prime_ideals")
    elif kind == "spec":
        X = exp["space"]
        f.need(r["document"]["size"] == len(X), "spec_size_is_X")
        where = {tuple(I): x for x, I in enumerate(exp["ideals"])}
        xs = [where.get(tuple(I)) for I in r["prime_ideals"]]
        f.need(sorted(x for x in xs if x is not None) == list(range(len(X))),
               "spec_ideals")
        if None not in xs and r["document"]["size"] == len(xs):
            S = orders.order_from_document(r["document"])
            f.need(all(bool((S[i] >> j) & 1) == bool((X[xs[i]] >> xs[j]) & 1)
                       for i in range(len(xs)) for j in range(len(xs))),
                   "spec_order_is_X")
    elif kind == "downsets":
        got = sorted(map(tuple, r["down_sets"]))
        f.need(got == sorted(map(tuple, exp["down_sets"])), "down_sets")
        f.need(r["document"]["size"] == len(got), "downset_lattice_size")
    elif kind.startswith("phi_lattice"):
        f.need(r["size"] == exp["size"], "phi_size_is_E_X_times_2")
    elif kind.startswith("phi_poset"):
        f.need(r["pairs"] == exp["pairs"] and r["size"] == len(exp["pairs"]),
               "phi_pairs")
    elif kind == "image_yes":
        f.need(r.get("in_image") is True, "in_image")
        f.need(r.get("in_image") is True
               and _iso_ok(op["doc"], r["witness_for_K"], r["iso"]), "image_iso")
    return f.names


def check_sweep(op: dict, res: dict) -> list[str]:
    f = Failures()
    _suite(op["expect"], res["code"], res["out"], f)
    return f.names


def check_sweep_totals(classes: list[int], hit_rows: list[list[int]]) -> list[str]:
    """Class counts of enumerate_posets(1..7), and the posets behind the
    fixed-point hits, read back after the timed ops."""
    f = Failures()
    f.need(classes == list(gen.POSET_CLASSES[1:len(classes) + 1]), "class_counts_A000112")
    f.need(all(up == [1 << i for i in range(len(up))] for up in hit_rows),
           "fixedpoint_hits_are_antichains")
    return f.names


def check_row(row: dict, res: dict, reference=None) -> list[str]:
    f = Failures()
    dim, dim_rel = res["dim"], res["dim_rel"]
    f.need(res["rel_size"] == row["rel_size"], "relation_poset_size")
    f.need(res["width"] == row["width"], "width")
    f.need(res["width_rel"] == row["width_rel"], "width_rel")
    f.need(1 <= dim <= row["width"], "dim_between_1_and_width")
    f.need((dim == 1) == row["chain"], "dim_1_iff_chain")
    f.need(row["size"] < 4 or dim <= row["size"] // 2, "dim_hiraguchi")
    if row["rel_size"] <= gen.MAX_DIM_SIZE:
        f.need(dim_rel is not None and 1 <= dim_rel <= row["width_rel"],
               "dim_rel_between_1_and_width")
        f.need(dim_rel is not None and dim_rel <= 2 * dim, "dim_rel_at_most_twice_dim")
        f.need(dim_rel is not None and (row["rel_size"] < 4
                                        or dim_rel <= row["rel_size"] // 2),
               "dim_rel_hiraguchi")
    if reference is not None:
        f.need([dim, dim_rel] == reference, "reference_answer")
    return f.names
