"""Machine-speed calibration for the batch timings.

Small shared machines change speed by +-20% within a second as neighbours
come and go, which swamps the run-to-run spread of a raw timing. So each
timed batch is paired with a fixed reference kernel, run just before and
just after it, and the batch's rate is scaled to the reference speed at
which the kernel takes KERNEL_REF_S seconds. The kernel is a hot loop of
interpreter work and small LAPACK calls, like the program's trials, and
runs no code of the program, so a change to the program cannot move it.
A workload with a process pool uses several cores, so the kernel runs on
that many cores at once. The pool hands each trial to the next free worker,
so its throughput is the sum of the cores' speeds, and the harmonic mean of
the per-core kernel times is what tracks it: a neighbour that slows one core
to half speed slows the pool by a third, not by half. (run.py scales the import
time the same way, with a cold-start reference.)
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

import numpy as np

KERNEL_REF_S = 0.01

_G = np.random.default_rng(0).standard_normal((8, 8))
_A = _G + _G.T


def kernel_s() -> float:
    """Seconds this machine takes for the fixed calibration kernel right now."""
    t0 = perf_counter()
    for _ in range(300):
        np.linalg.eigh(_A)
        s = 0
        for i in range(300):
            s += i
    return perf_counter() - t0


def _serve(conn) -> None:
    while conn.recv():
        conn.send(kernel_s())


class Calibrator:
    """Times the kernel on `cores` cores at once: in this process and in
    cores - 1 helper processes, which `close()` stops."""

    def __init__(self, cores: int):
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(cores - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            self._conns.append(mine)
            self._procs.append(proc)

    def kernel_s(self) -> float:
        """Kernel seconds on the cores together: the harmonic mean over them."""
        for conn in self._conns:
            conn.send(True)
        return statistics.harmonic_mean([kernel_s()] + [conn.recv() for conn in self._conns])

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
        for proc in self._procs:
            proc.join()
