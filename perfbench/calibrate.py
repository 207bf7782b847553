"""Machine-speed calibration interleaved with the workload.

On a shared machine the speed of one core wanders by tens of percent over
seconds and minutes, and the CPU time of a fixed loop moves with its wall
time, so the drift is in the core's speed, not in scheduling.  A fixed
kernel of small numpy calls, the kind of work entkit does, runs between
operations about every ``EVERY_S`` seconds.  A pass's time is scaled by
``REFERENCE_S / mean kernel time``, which expresses it in seconds of the
reference machine at its median speed.  The kernel shares no code with
entkit, so a change to the program cannot move it.
"""

import time

import numpy as np

EVERY_S = 0.05
# Median kernel time between operations on the reference machine: a shared
# 2-core virtual machine, numpy 2.4.6, OpenBLAS on one thread.
REFERENCE_S = 0.0007


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((72, 2, 2)) + 1j * rng.standard_normal((72, 2, 2))
        self._batch = g @ g.conj().transpose(0, 2, 1)
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._herm = h + h.conj().T
        self._small = rng.standard_normal((6, 6))
        self.reset()

    def _kernel(self):
        acc = 0.0
        for _ in range(6):
            acc += float(np.linalg.eigvalsh(self._batch).sum())
            acc += float(np.linalg.eigh(self._herm)[0][0])
            acc += float(np.einsum("ij,jk->ik", self._small, self._small).trace())
            acc += sum(x * 0.5 for x in range(20))
        return acc

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def reset(self):
        self.samples = []
        self._last = -np.inf

    def factor(self):
        """Reference seconds per measured second, from the samples so far."""
        return REFERENCE_S / float(np.mean(self.samples))
