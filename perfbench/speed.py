"""Reference-speed seconds: wall time corrected for how fast the machine ran.

The benchmark runs on a few CPUs of a shared host.  How fast those CPUs
run this Python code changes with the other tenants' load, by up to a
factor of two, over spans from a second to many minutes, and the guest
cannot see it: a process's CPU time grows exactly as fast as wall time
and no steal time is reported.  Raw wall times taken minutes apart
therefore differ by more than any change to the program worth finding.

So the benchmark measures the machine's speed while it measures the
program.  A *probe* is a fixed piece of pure-Python work (dictionary
updates, tuple and string allocation, list slicing) that touches nothing
of the program; its CPU time is :data:`PROBE_REF_S` at the reference
speed.  A timing is reported as ``wall seconds x speed``, the speed
being the mean of ``PROBE_REF_S / probe CPU time`` over the probes taken
while it ran: the seconds the same work takes on the reference machine.
A change to the program moves these seconds as it moves wall time; a
slower host does not.

* :class:`Sampler` probes the calling thread itself, from a ``SIGALRM``
  handler every :data:`PROBE_PERIOD_S` of wall time, so each probe runs
  on the CPU, and at the moment, the measured work runs.  It serves the
  single-threaded measurements: cold recompiles and set-up.  The probes'
  own time is taken out of the wall time.
* :class:`Monitor` probes from a forked process of its own, for work
  spread over other processes (the daemon and its workers); a timing
  then uses the probes taken within :data:`MONITOR_MARGIN_S` of it.

Probe durations are thread CPU time, so a probe the guest's scheduler
preempts still reads the host's speed and not the guest's load.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import time
from pathlib import Path

#: Wall seconds between probes.
PROBE_PERIOD_S = 0.05
#: CPU seconds one probe takes on the reference machine (the 2-vCPU
#: host the benchmark was tuned on, at its fastest).
PROBE_REF_S = 0.0005
#: A :class:`Monitor` timing uses the probes this close to its interval.
MONITOR_MARGIN_S = 0.5
#: Iterations of one probe.
PROBE_ITERATIONS = 1200


def probe() -> float:
    """Run the fixed probe work; returns its CPU seconds."""
    start = time.thread_time()
    table: dict[int, int] = {}
    items: list[tuple] = []
    for i in range(PROBE_ITERATIONS):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + (i ^ key)
        items.append((key, str(i & 63)))
        if len(items) > 256:
            items = items[128:]
    return time.thread_time() - start


def speed_of(durations) -> float:
    """Machine speed relative to the reference, from probe durations."""
    return statistics.fmean(PROBE_REF_S / d for d in durations)


class Sampler:
    """``with Sampler() as s: work()`` then read ``s.seconds``.

    Only for the main thread of a process that uses no ``SIGALRM`` of its
    own.  Interrupted system calls are retried by Python (PEP 475)."""

    def __init__(self) -> None:
        self.probes: list[float] = []   # CPU seconds of each probe
        self._probe_wall = 0.0
        self.wall = 0.0                 # wall seconds, probes excluded

    def _take(self, *_) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self._probe_wall += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._take()      # at least one probe, however short the work
        self._saved = signal.signal(signal.SIGALRM, self._take)
        self._start = time.perf_counter()
        self._probe_wall = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._saved)
        self.wall = end - self._start - self._probe_wall

    @property
    def speed(self) -> float:
        return speed_of(self.probes)

    @property
    def seconds(self) -> float:
        """The work's wall time at the reference speed."""
        return self.wall * self.speed


class Monitor:
    """Probes from a child process until :meth:`close`; then
    :meth:`speed` gives the machine's speed over any interval of
    ``time.perf_counter()`` (a system-wide monotonic clock on Linux).

    Start it before the measuring process starts threads: it forks."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.samples: list[tuple[float, float]] = []
        stop_r, self._stop_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(self._stop_w)
                # Lowest priority: it yields the CPU to the measured
                # processes; its probes' CPU time still reads the host.
                os.nice(19)
                _monitor_loop(stop_r, out)
                code = 0
            finally:
                os._exit(code)
        os.close(stop_r)

    def close(self) -> None:
        """Stop the child, wait for it and read its probes."""
        if self._stop_w is None:
            return
        os.close(self._stop_w)
        self._stop_w = None
        _, status = os.waitpid(self.pid, 0)
        if status != 0 or not self.out.exists():
            raise RuntimeError(f"speed monitor ended with status {status}")
        for line in self.out.read_text().splitlines():
            at, duration = line.split()
            self.samples.append((float(at), float(duration)))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over the probes near ``[start, end]``."""
        near = [d for at, d in self.samples
                if start - MONITOR_MARGIN_S <= at <= end + MONITOR_MARGIN_S]
        return speed_of(near or [d for _, d in self.samples])

    def seconds(self, start: float, end: float) -> float:
        """Wall time ``end - start`` at the reference speed."""
        return (end - start) * self.speed(start, end)


def _monitor_loop(stop_fd: int, out: Path) -> None:
    lines = []
    while True:
        lines.append(f"{time.perf_counter()!r} {probe()!r}")
        ready, _, _ = select.select([stop_fd], [], [], PROBE_PERIOD_S)
        if ready:       # the parent closed the pipe (or died)
            break
    out.write_text("\n".join(lines) + "\n")
