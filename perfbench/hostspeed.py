"""Wall times normalised to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to half over minutes: on a 2-core virtual machine of a shared Xeon host, 14
back-to-back ``optic-sweep`` runs in one process took 6.8 to 9.9 s of wall
time.  CPU time tracked wall time within 1%, so the drift is the host's
speed, not scheduling.  A median over one 30 s run cannot
cancel drift between runs minutes apart.

So while a span is measured, a SIGALRM timer interrupts it every
``interval`` seconds of wall time and runs ``probe()``, a fixed piece of
pure-Python work that does not touch jetlag.  The mean probe time over the
span is the host's speed during the span, and the span's normalised time is

    (wall time - time spent in probes) * REF_PROBE_S / mean probe time,

the seconds the span would take on a host where one probe takes
``REF_PROBE_S``.  A change to the program moves it one for one; the host's
drift mostly cancels (the 14 runs above normalise to within 5% of their
mean).  Only the main thread takes the signal, so measure single-threaded
code, and do not nest spans.
"""

from __future__ import annotations

import signal
import time

REF_PROBE_S = 2.0e-3   # probe time on the reference host
PROBE_ITERATIONS = 4000


def probe() -> float:
    """Fixed interpreter work: dict updates, tuple keys, float arithmetic."""
    table: dict = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 1.0000001) % 3.0
    return acc


class Span:
    """Context manager timing its body; with ``active`` false it only
    measures wall time and ``seconds`` is that wall time."""

    def __init__(self, interval: float = 0.05, active: bool = True):
        self.interval = interval
        self.active = active
        self.probes: list[float] = []
        self.wall = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - t0)

    def __enter__(self) -> "Span":
        self.probes.clear()
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if not self.probes:  # span shorter than one interval
                t0 = time.perf_counter()
                probe()
                self.probes.append(time.perf_counter() - t0)
                self.wall += self.probes[-1]

    @property
    def work(self) -> float:
        """Wall time of the body alone, without the probes."""
        return self.wall - sum(self.probes) if self.active else self.wall

    @property
    def speed(self) -> float:
        """Mean probe time over reference probe time: > 1 on a slow host."""
        if not self.active:
            return 1.0
        return sum(self.probes) / len(self.probes) / REF_PROBE_S

    @property
    def seconds(self) -> float:
        return self.work / self.speed
