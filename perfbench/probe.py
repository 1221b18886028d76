"""Machine-speed probe: a fixed reference kernel timed on the job's CPU.

The host this benchmark was defined on is a 2-vCPU KVM guest whose vCPUs
switch every few seconds between a fast and a slow state: a job's CPU time
grows with its wall time, no steal is counted, and interpreter code runs
about 1.3 to 1.5 times slower in the slow state.  Over minutes the share of
slow time drifts, so whole-job wall times of one workload spread by 20 to
45 per cent.  The state belongs to one vCPU: the same kernel timed on both
vCPUs at once agrees only weakly (correlation 0.3 to 0.5 over 1 to 5 s
windows), so a kernel timed before and after a job, or on the other vCPU,
misses most of it.

So the benchmark pins itself and its jobs to one CPU, and while a job runs
a thread of the benchmark process wakes every PERIOD_S, runs the reference
kernel (about 1 ms) and records its thread CPU time.  The job's slowness is
the harmonic mean of those samples over REFERENCE_S; dividing a job's times
by it gives the times at the reference speed.  The thread takes about one
per cent of the job's CPU.

The kernel is the kind of work the program does: numpy calls on arrays of a
few hundred to a few thousand doubles, where dispatch costs as much as the
arithmetic.  Over 24 jobs of each workload, log wall time against log
slowness had a slope of 0.9 to 1.1 and a correlation of 0.96 to 0.98 for
this kernel; a pure interpreter loop or a streaming pass over 128 KiB slows
less than the jobs do (slopes 1.2 to 1.5), so it would leave part of the
noise in.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.1

# The kernel's thread CPU time in the host's fast state (Xeon, 2.1 GHz KVM
# guest, numpy 2.4, CPython 3.11).  It only sets the scale of the
# normalised times.
REFERENCE_S = 0.8e-3

_ROW = np.ones((3, 65))
_FIELD = np.ones((3, 65, 65))


def kernel_s() -> float:
    """Thread CPU time of one pass of the reference kernel: 150 updates of a
    (3, 65) row and 40 strided slice updates of a (3, 65, 65) field."""
    start = time.thread_time()
    row = _ROW
    for _ in range(150):
        row = row * 1.0000001 + row[..., ::-1] * 1e-7
    field = _FIELD.copy()
    for j in range(40):
        field[..., j:j + 8] += field[..., j + 1:j + 9] * 0.5
    return time.thread_time() - start


class Probe:
    """Samples kernel_s() on a thread for as long as the context is open."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        self.samples.append(kernel_s())
        while not self._stop.wait(PERIOD_S):
            self.samples.append(kernel_s())

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(kernel_s())

    def slowness(self) -> float:
        """Harmonic mean of the samples over REFERENCE_S.  A job's wall time
        is its work over its mean speed, and speed is the reciprocal of the
        kernel's time, so the harmonic mean is the average that scales."""
        return len(self.samples) / sum(1.0 / s for s in self.samples) / REFERENCE_S
