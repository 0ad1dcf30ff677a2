"""How fast the machine is running, probed between the cells of a pass.

Other load on a shared machine slows every process on it, by up to about 2x,
in phases of seconds to minutes.  A probe times a fixed piece of pure-Python
work, the reference work, so that a time measured next to it can be scaled to
one fixed machine speed.  Probes split a process's work into segments; each
segment is scaled by the mean of the reference times at its two ends, and
the time spent probing is left out of every segment.
"""

from __future__ import annotations

from time import perf_counter

#: The reference work: a pure-Python integer loop, then a product of two fixed
#: integer matrices held as lists of lists, like the library's own matrices.
#: Together about 7 ms on a lightly loaded 2-vCPU Xeon VM.
REF_ITERATIONS = 50_000
REF_SIZE = 30
_A = [[(i * 7919 + j * 104729) % (1 << 20) for j in range(REF_SIZE)] for i in range(REF_SIZE)]
_B = [[(i * 104729 + j * 7919) % (1 << 20) for j in range(REF_SIZE)] for i in range(REF_SIZE)]


def _reference_work() -> None:
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    cols = list(zip(*_B))
    [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _A]


def reference_s() -> float:
    """Faster of two runs of the reference work."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - t0)
    return best


class Probe:
    """Probes of the reference work at segment boundaries.

    The first probe runs on creation.  ``cell_done`` probes once at least
    ``every_s`` seconds of work have gone since the last probe; ``close``
    always probes and ends the current segment.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.refs: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.close()

    @property
    def segment(self) -> int:
        """Index of the segment now running."""
        return len(self.refs) - 1

    def cell_done(self) -> None:
        if perf_counter() - self.ends[-1] >= self.every_s:
            self.close()

    def close(self) -> None:
        self.starts.append(perf_counter())
        self.refs.append(reference_s())
        self.ends.append(perf_counter())

    def segments(self) -> list[list[float]]:
        """``[seconds, reference seconds]`` of each closed segment."""
        return [
            [self.starts[j + 1] - self.ends[j], (self.refs[j] + self.refs[j + 1]) / 2]
            for j in range(len(self.refs) - 1)
        ]
