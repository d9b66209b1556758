"""A fixed host-speed reference, timed all through the benchmark's units.

The host the benchmark runs on is shared: other tenants slow it by a third
or more, for seconds or for minutes, and a slow spell can cover a whole
run.  :func:`reference` is a small discrete-event loop in plain Python (an
event heap, a dict of flow objects, fair-share rate updates), the kind of
interpreter work the simulator does, written here so that no change to
``src/`` can change it.  :class:`HostSampler` times it every ``REF_EVERY``
seconds from a timer signal, inside the units as well as between them, and
:meth:`HostSampler.adjust` takes those timings back out of a unit's seconds
and gives the unit the mean reference time around and within it.  A unit's
seconds scaled by ``NOMINAL_SECONDS / host`` is its cost on a host of fixed
speed.  See README.md, "Host-speed reference".
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time

#: Reference seconds on the host the benchmark was defined on, when quiet.
#: Normalized figures are scaled to a host this fast.
NOMINAL_SECONDS = 0.05
#: Seconds between two timings of the reference.
REF_EVERY = 0.4


class _Flow:
    __slots__ = ("src", "dst", "left", "rate")

    def __init__(self, src: int, dst: int, left: float) -> None:
        self.src, self.dst, self.left, self.rate = src, dst, left, 0.0


def _loop(events: int) -> float:
    rng = random.Random(12345)
    flows: dict[int, _Flow] = {}
    by_node: dict[int, list[int]] = {}
    heap: list[tuple[float, int]] = []
    now = 0.0
    for flow_id in range(events):
        flow = _Flow(rng.randrange(40), rng.randrange(40), rng.random() * 100.0)
        flows[flow_id] = flow
        by_node.setdefault(flow.src, []).append(flow_id)
        heapq.heappush(heap, (now + rng.random(), flow_id))
        if len(flows) <= 60:
            continue
        when, done_id = heapq.heappop(heap)
        now = max(now, when)
        done = flows.pop(done_id)
        peers = by_node[done.src]
        share = 125.0 / (1 + len(peers))
        for peer_id in peers[-20:]:
            peer = flows.get(peer_id)
            if peer is not None:
                peer.rate = share
                peer.left -= share * 0.001
        if len(peers) > 200:
            del peers[:100]
    return now


def reference(events: int = 13000) -> float:
    """Run the reference loop once; return its seconds.

    The collector is paused so that the objects the program under test
    keeps alive do not change the reference's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop(events)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times :func:`reference` every REF_EVERY seconds while active.

    The timer is ``ITIMER_REAL`` and the handler runs in the main thread
    between bytecodes, so the program under test is paused while the
    reference runs and its state is never touched.  Each timing is kept as
    ``(start, end, reference seconds)``.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        seconds = reference()
        self.marks.append((start, time.perf_counter(), seconds))

    def __enter__(self) -> HostSampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def adjust(self, start: float, seconds: float) -> tuple[float, float]:
        """For a region timed from ``start`` for ``seconds`` (reference
        timings included): its seconds without them, and the mean
        reference seconds of the last timing before it, those within it
        and the first after it."""
        end = start + seconds
        before = [m for m in self.marks if m[1] <= start][-1:]
        within = [m for m in self.marks if start < m[1] and m[0] < end]
        after = [m for m in self.marks if m[0] >= end][:1]
        paused = sum(min(m[1], end) - max(m[0], start) for m in within)
        around = before + within + after
        return seconds - paused, sum(m[2] for m in around) / len(around)
