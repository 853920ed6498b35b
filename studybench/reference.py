"""A fixed reference computation that measures the machine's current speed.

The host this benchmark runs on shares its cores with other tenants.  Its
speed switches between faster and slower states every few seconds, and
drifts by up to 1.7x over a few minutes.  The drift is slower than a run,
so medians over a run do not remove it.  The benchmark therefore times a
short reference chunk every `INTERVAL_S` of program time, and scales each
stretch of program time by the speed the chunks on either side of it saw.
Scaled times are seconds at a fixed machine speed: the speed at which one
chunk takes `REF_CHUNK_S`.

A chunk mirrors the program's mix of work and uses none of its code: a
Python loop over the elements of a Q1 Laplacian with small numpy products,
a triplet-to-CSR build, and a SuperLU factorisation and solve.  A change to
igaplate cannot change its time.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

GRID = 40  # elements per side of the reference mesh
REF_CHUNK_S = 0.035  # seconds one chunk takes at the fixed speed times are scaled to
INTERVAL_S = 0.2  # program time between chunks during a pass


def _element_stiffness() -> np.ndarray:
    g = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    ke = np.zeros((4, 4))
    for xi in g:
        for eta in g:
            dn = 0.25 * np.array(
                [
                    [-(1 - eta), 1 - eta, 1 + eta, -(1 + eta)],
                    [-(1 - xi), -(1 + xi), 1 + xi, 1 - xi],
                ]
            )
            ke += dn.T @ dn
    return ke


def _assemble_and_solve(n: int) -> float:
    ke = _element_stiffness()
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            nodes = np.array([a, a + 1, a + n + 2, a + n + 1])
            rows.append(np.repeat(nodes, 4))
            cols.append(np.tile(nodes, 4))
            vals.append((ke * (1.0 + 0.01 * ((i + j) % 3))).ravel())
    m = (n + 1) ** 2
    k = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    k = (k + 1e-3 * sp.identity(m, format="csr")).tocsc()
    return float(sla.splu(k).solve(np.ones(m)).sum())


_expected = []


def chunk() -> float:
    """Wall seconds of one reference chunk; raises if its answer ever changes."""
    t0 = time.perf_counter()
    value = _assemble_and_solve(GRID)
    seconds = time.perf_counter() - t0
    if not _expected:
        _expected.append(value)
    if value != _expected[0]:
        raise RuntimeError("the reference computation gave a different answer")
    return seconds


def scaled(seconds: float, chunk_s: float) -> float:
    """`seconds` of work measured while a chunk took `chunk_s`, at the fixed speed."""
    return seconds * REF_CHUNK_S / chunk_s


class SpeedSampler:
    """Times reference chunks during a stretch of program time and scales it.

    A SIGALRM timer interrupts the program every `INTERVAL_S` of its own time;
    the handler runs between two Python bytecodes, so a long C call (an LU
    factorisation, say) simply makes a longer stretch.  Chunk time is kept
    out of `clock()`, and so out of the pass's wall time and its spans.
    """

    def __init__(self):
        self.chunk_s = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._paused = 0.0
        self._mark = 0.0

    def clock(self) -> float:
        """Seconds of program time: wall time without the chunks."""
        return time.perf_counter() - self._paused

    def _checkpoint(self):
        stretch = self.clock() - self._mark
        t0 = time.perf_counter()
        self.chunk_s.append(chunk())
        self._paused += time.perf_counter() - t0
        self._mark = self.clock()
        if len(self.chunk_s) > 1:
            self.raw_s += stretch
            self.scaled_s += scaled(stretch, 0.5 * (self.chunk_s[-2] + self.chunk_s[-1]))

    def _on_alarm(self, signum, frame):
        self._checkpoint()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self._checkpoint()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._checkpoint()
