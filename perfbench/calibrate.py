"""A fixed reference load that tracks the speed of the machine.

On a shared host the same code runs up to twice as slow from one moment to
the next, for stretches from a fraction of a second to minutes: other guests
take the core, the caches and the memory bandwidth.  Raw times therefore
move together from run to run, whatever the program does.  A pass takes
short samples of this load all through its ops, and the run scales each
measured time by the speed of the machine at that moment, ``NOMINAL_S``
over the sample's time.  The result reads as milliseconds on a machine that
runs the reference load in ``NOMINAL_S``.

The load mixes what the package spends its time on: interpreted loops over
bitmask rows and small ints (``orders``, the benchmark's own code, never the
package under test), dict and tuple traffic, and reads scattered over a
buffer larger than the caches a core keeps to itself.  It is deterministic
and must not change: every recorded figure is in its units.
"""

from __future__ import annotations

import random
import time

import orders

# about the median of ``sample()`` on the 2-vCPU guest the baseline was
# recorded on; a fixed scale, not a measurement
NOMINAL_S = 0.0055

_rng = random.Random(20070526)


def _order(n: int, p: float) -> list[int]:
    return orders.closure(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if _rng.random() < p])


_UP = _order(12, 0.3)
_LATTICE = orders.inclusion_order(orders.down_sets(_order(5, 0.3)))
# 4 MiB read in a full-period LCG order (odd increment, multiplier 1 mod 4),
# which no prefetcher follows
_MASK = (1 << 22) - 1
_BUFFER = bytes(range(256)) * ((_MASK + 1) // 256)


def _load() -> int:
    acc = orders.linear_extension_count(_UP) + orders.linear_extension_count(_UP)
    for _ in range(3):
        acc += sum(map(sum, orders.meet_join(_LATTICE)[0]))
    counts: dict[tuple, int] = {}
    for i in range(1200):
        m = (i * 2654435761) & 0xFFFF
        key = tuple(sorted((m & 7, (m >> 3) & 7, (m >> 6) & 7)))
        counts[key] = counts.get(key, 0) + m.bit_count()
    acc += len(counts)
    slot = 0
    for _ in range(6000):
        slot = (slot * 1103515245 + 12345) & _MASK
        acc += _BUFFER[slot]
    return acc


def sample() -> float:
    """Seconds for one round of the reference load."""
    t0 = time.perf_counter()
    _load()
    return time.perf_counter() - t0
