"""Host-speed probe: a fixed pure-Python kernel, independent of realspectra.

The host this benchmark was built on changes speed by tens of percent over
fractions of a second to minutes, independently on each CPU.  A run
therefore pins itself and its children to one CPU and times this kernel
around the work it measures; the work's times are scaled by the nominal
kernel time over the kernel's mean time at the two ends.  The kernel builds
a dict of tuple keys, so it touches memory the way the package does.

Two sizes are used.  The runner probes with PROBE_ITERATIONS around each
child process (set-up time, and each `cli` call pair).  A worker samples
the speed with TIMELINE_ITERATIONS every TIMELINE_INTERVAL_S of its pass
(`Timeline`), because the host's speed drifts within one pass and even
within one long call.  Scaled times read as seconds at the speed at which
the large kernel takes PROBE_NOMINAL_S, about its median on a 2-core box
with Python 3.11; TIMELINE_NOMINAL_S is the small kernel's time at that
speed.
"""

import gc
import signal
import time

PROBE_ITERATIONS = 50_000
PROBE_NOMINAL_S = 0.1
TIMELINE_ITERATIONS = 5_000
TIMELINE_NOMINAL_S = 0.0064
TIMELINE_INTERVAL_S = 0.1


def probe(rounds: int = 1, iterations: int = PROBE_ITERATIONS) -> float:
    """Mean seconds one kernel round takes now on this CPU.

    More rounds average out more of the host's sub-second jitter.  No
    collection runs inside the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            table: dict[tuple, int] = {}
            for i in range(iterations):
                key = (i % 97, i % 89, i * 7 % 83)
                table[key] = table.get(key, 0) + i * i % 7
            sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return (time.perf_counter() - start) / rounds
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for times measured between two probes."""
    return PROBE_NOMINAL_S / ((before + after) / 2)


def scaled_time(marks: list[tuple], start: float, end: float) -> float:
    """Host-speed scaled length of [start, end].

    `marks` are the (start, end, kernel seconds, ...) of successive probes
    on the same clock.  Time between two probes counts at the mean speed of
    the two; time inside a probe does not count.
    """
    total = 0.0
    for (_, gap_start, before, *_), (gap_end, _, after, *_) in zip(
            marks, marks[1:]):
        overlap = min(end, gap_end) - max(start, gap_start)
        if overlap > 0:
            total += overlap * TIMELINE_NOMINAL_S / ((before + after) / 2)
    return total


class Timeline:
    """Host speed sampled through one pass of work, for `scaled_time`.

    A small probe runs now, then from a SIGALRM handler every
    TIMELINE_INTERVAL_S of wall time, and once more at `stop`.  The
    handler runs between bytecodes of the main thread, so a probe can land
    inside any call of the work; `clock` is perf_counter without the time
    spent in probes, for spans that must not count it.
    """

    def __init__(self):
        # (start, end, kernel seconds, CPU seconds) of each probe
        self.marks: list[tuple[float, float, float, float]] = []
        self.probe_s = 0.0
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, TIMELINE_INTERVAL_S,
                         TIMELINE_INTERVAL_S)

    def _mark(self, *_) -> None:
        start, cpu0 = time.perf_counter(), time.process_time()
        kernel_s = probe(iterations=TIMELINE_ITERATIONS)
        end = time.perf_counter()
        self.marks.append((start, end, kernel_s, time.process_time() - cpu0))
        self.probe_s += end - start

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()

    def clock(self) -> float:
        return time.perf_counter() - self.probe_s

    def scaled(self, start: float, end: float) -> float:
        return scaled_time(self.marks, start, end)

    def probes_within(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds of the probes that ran inside [start, end]."""
        inside = [m for m in self.marks if start <= m[0] and m[1] <= end]
        return (sum(m[1] - m[0] for m in inside), sum(m[3] for m in inside))
