"""Spans around every public function of the six package modules.

``Tracer.install`` replaces each public function with a wrapper at every
module attribute that holds it (``down_sets`` is reached as
``ordlat.poset.down_sets`` but also through ``duality``, ``relation``,
``cli`` and the package itself), so calls between modules are seen as well
as calls from the benchmark.  Each span keeps (name, start, end, parent span,
op id) in flat arrays; ``uninstall`` restores the originals.  Self time is a
span's duration minus the durations of its child spans, and minus the pauses
(the benchmark's reference samples) taken while it was the innermost span.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from bisect import bisect_right
from time import perf_counter_ns

MODULES = ("poset", "lattice", "duality", "relation", "docio", "cli")


def _len(args, kwargs, result):
    return len(result)


def _table(args, kwargs, result):
    return args[0].n ** 2


# counts taken from a call's own inputs and outputs, by function
COUNTERS = {
    "poset.down_sets": _len,
    "duality.prime_ideals": _len,
    "lattice.lattice_from_poset": _table,
    "lattice.make_lattice": _table,
    "relation.relation_lattice": lambda a, k, r: r[0].n,
    "relation.factor_by_two": lambda a, k, r: int(r is not None),
    "docio.parse_document": lambda a, k, r: len(a[0].encode()),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.count: array = array("q")
        self.current_op = -1
        self._stack = [-1]
        self.pauses: list[tuple[int, int]] = []  # (start_ns, end_ns)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        name_id, start, end, parent, op, count = (
            self.name_id, self.start, self.end, self.parent, self.op, self.count)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            start.append(0)
            end.append(0)
            count.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                count[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ordlat.{m}") for m in MODULES}
        holders = [importlib.import_module("ordlat"), *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                # functions and lru_cache wrappers defined in this module
                if (attr.startswith("_") or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        self._patched.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def self_ns(self) -> list[int]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        # spans start in index order, so the innermost span holding a pause
        # is the last to start before it, or one of that span's ancestors
        for p0, p1 in self.pauses:
            i = bisect_right(self.start, p0) - 1
            while i >= 0 and self.end[i] < p1:
                i = self.parent[i]
            if i >= 0:
                own[i] -= p1 - p0
        return own

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")
