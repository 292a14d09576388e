"""Host-speed gauge: a fixed piece of work that does not touch adconn.

On a shared host the speed of a fixed pass drifts by tens of percent over
seconds to minutes, and ``time.process_time`` drifts with it, so raw pass
times of the same code spread too far between runs.  The benchmark therefore
measures the host's speed while each pass runs and reports the pass time
rescaled to a fixed reference speed:

    pass_s * ROUND_REF_S / (mean seconds per gauge round around and during the pass)

A gauge round mixes the kinds of work the workloads do (interpreter loops,
small LAPACK eigensolves, small array arithmetic) on inputs fixed here.  Rounds
run right before and right after each pass, and, from a ``SIGALRM`` interval
timer, every ``TICK_S`` seconds inside it; the time spent in those in-pass
rounds is taken off the pass time.  The gauge never calls adconn, so a change
to the library moves the passes and not the gauge.
"""

from __future__ import annotations

import functools
import signal
import time

# Seconds per gauge round at the reference speed: its usual fast-phase time on
# a 2-vCPU Intel Xeon VM with Python 3.11, numpy 2.4 and single-threaded
# OpenBLAS 0.3.  Only the ratio of two runs' figures matters; this constant
# keeps the rescaled figures in seconds of roughly that machine.
ROUND_REF_S = 0.006
EDGE_ROUNDS = 4     # rounds right before and right after a pass
TICK_S = 0.1        # interval between in-pass rounds


@functools.cache
def _inputs():
    # numpy is imported here, not at module import, so that the caller's BLAS
    # thread settings are in place before numpy loads.  The eigensolver is
    # bound now, before any tracer patches numpy.linalg.
    import numpy as np

    rng = np.random.default_rng(0)
    small = [(lambda a: a + a.T)(rng.standard_normal((36, 36))) for _ in range(8)]
    return np.linalg.eigvalsh, np.einsum, small, rng.standard_normal((48, 3))


def round_s(rounds: int = 1) -> float:
    """Mean wall time of ``rounds`` gauge rounds."""
    eigvalsh, einsum, small, points = _inputs()
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(rounds * 10):
        for a in small:
            acc += float(eigvalsh(a)[0])
        diffs = points[:, None, :] - points[None, :, :]
        acc += float(einsum("ijk,ijk->", diffs, diffs))
        table = {}
        for i in range(300):
            table[i, i % 7] = (i * 7) % 13
        acc += sum(table.values())
    elapsed = time.perf_counter() - t0
    if acc != acc:
        raise ArithmeticError("gauge produced NaN")
    return elapsed / rounds


class PassGauge:
    """Gauge rounds around and during one pass.

    ``with PassGauge() as g: out = g.run(fn, arg)`` runs ``EDGE_ROUNDS``
    rounds on entry and on exit and, with ``ticks=True``, one round every
    ``TICK_S`` seconds inside the block.  ``g.run`` sets ``g.pass_s`` to the
    call's wall time less the in-pass rounds; ``g.rescale`` turns a time
    taken inside the block into seconds at the reference speed.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.rounds_s: list[float] = []
        self.tick_spans: list[tuple[float, float]] = []   # (start, seconds)
        self.pass_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.rounds_s.append(round_s())
        self.tick_spans.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "PassGauge":
        self.rounds_s = [round_s(EDGE_ROUNDS)] * EDGE_ROUNDS
        self.tick_spans = []
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.rounds_s.extend([round_s(EDGE_ROUNDS)] * EDGE_ROUNDS)

    def run(self, fn, arg):
        t0 = time.perf_counter()
        out = fn(arg)
        t1 = time.perf_counter()
        # a handler runs to its end between two bytecodes, so a round that
        # started before t1 was read lies wholly inside the call
        self.pass_s = t1 - t0 - sum(d for start, d in self.tick_spans if t0 <= start < t1)
        return out

    def rescale(self, seconds: float) -> float:
        return seconds * ROUND_REF_S * len(self.rounds_s) / sum(self.rounds_s)
