"""Machine-speed calibration for the timed loop.

The measuring machine is shared, and for seconds to minutes at a time every
process on it runs up to twice as slow.  No statistic over one 20-second run
removes a slow spell that covers the whole run.  So the timed loop measures
the machine's speed between requests, with a fixed piece of pure-Python work
that does not touch ``aspectarg`` (a *probe*), and scales each request's
time to the time it would take at a reference speed::

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

A change to the program does not change the probe, so it still shows in the
scaled times in full.  Both the raw and the scaled figures are printed.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

#: Probe time at the reference speed.  On the machine the baseline was
#: measured on, the probe takes 0.95-2.2 ms; 1 ms is close to its fast state.
REFERENCE_S = 0.001
#: Least wall time between two probes; shorter requests share probes.
EVERY_S = 0.01


class _Node:
    __slots__ = ("value", "weight", "children")

    def __init__(self, value: int, weight: int) -> None:
        self.value = value
        self.weight = weight
        self.children: list[_Node] = []


def _walk(node: _Node, depth: int) -> int:
    if depth == 0:
        return node.value
    return sum(_walk(child, depth - 1) for child in node.children) + node.weight


def _work() -> int:
    """A mix of what the program spends its time on: calls through small
    objects, frozensets, sorting, string formatting and JSON."""
    nodes = [_Node(i, i % 5) for i in range(400)]
    for i, node in enumerate(nodes[:100]):
        node.children = nodes[100 + 3 * i : 103 + 3 * i]
    root = _Node(0, 0)
    root.children = nodes[:100]
    total = _walk(root, 2)
    items = sorted((str(i * 7919 % 1000), frozenset((i % 5, i % 3))) for i in range(600))
    doc = json.loads(json.dumps({str(i): [i, str(i), {"k": i % 3}] for i in range(250)}))
    return total + len(items) + len(doc)


def probe() -> float:
    """Seconds the probe work takes now: the faster of two runs.

    The cyclic garbage collector is off meanwhile, so the size of the
    program's heap does not change the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = perf_counter()
            _work()
            best = min(best, perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


class Speedometer:
    """Probes taken between the requests of a timed loop.

    ``on_request(index)`` is the ``run_pass`` hook: before a request it
    probes when ``EVERY_S`` has passed since the last probe, and after it
    counts the request.  Call ``finish()`` once after the loop.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.probes: list[tuple[int, float]] = []  # (requests before it, seconds)
        self._last = float("-inf")

    def on_request(self, index: int | None) -> None:
        if index is None:
            self.requests += 1
        elif perf_counter() - self._last >= EVERY_S:
            self.probes.append((self.requests, probe()))
            self._last = perf_counter()

    def finish(self) -> None:
        self.probes.append((self.requests, probe()))

    def factors(self) -> list[float]:
        """For each request in order, ``REFERENCE_S`` over the mean of the
        probes just before and just after it."""
        out = []
        for (start, before), (end, after) in zip(self.probes, self.probes[1:]):
            out += [2 * REFERENCE_S / (before + after)] * (end - start)
        return out

    def probe_median(self) -> float:
        ordered = sorted(p for _, p in self.probes)
        return ordered[len(ordered) // 2]
