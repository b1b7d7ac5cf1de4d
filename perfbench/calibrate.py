"""A fixed reference kernel, run between the steps of a timed run.

On a shared host the speed of this process changes by up to 1.8x for
stretches of 0.1 s to a minute, as other work on the host contends for
the same cores and caches. A timed run of a few seconds takes whatever
share of slow stretches it meets, so its wall time spreads widely between
windows. The reference kernel does the same kind of work as a step (n = 512
real FFTs and elementwise numpy arithmetic, called from Python), and
:func:`paced` runs it once after every diagnostics row, that is after every
accepted step. Its mean time over a run measures the host's speed at the
same moments as the run, and a run's time divided by it is steady. On a
2-vCPU Xeon VM, over ten 50 s invocations per workload, the interquartile
spread of the median wall time was 0.11 (ref_reg_tension) and 0.20
(dense_imp_tension) of the median, and that of the median ratio 0.014 and
0.018. The file writes of dense_imp_tension follow the kernel least well.

The kernel's own functions are bound here, so that nothing the program or
the tracer rebinds changes it.
"""

import contextlib
import time

import numpy as np
from numpy.fft import irfft, rfft

import gnwaves.io_store

N = 512
ROUNDS = 4
_X = np.linspace(-1.0, 1.0, N) ** 2


def kernel():
    """One call is a few tenths of a millisecond; its work never changes."""
    y = _X
    for _ in range(ROUNDS):
        y = irfft(rfft(y) * 0.999, N)
        y = y * 1.0001 + 0.5 * _X
    return y


class Pace:
    """Totals of the kernel calls made during one run."""

    def __init__(self):
        self.calls = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0


@contextlib.contextmanager
def paced(pace):
    """Run the kernel after every diagnostics row and add its wall and CPU
    time to ``pace``. The runner writes one row at t = 0 and one after each
    accepted step (diag_stride = 1)."""
    cls = gnwaves.io_store.DiagnosticsWriter
    original = cls.append
    wall, cpu = time.perf_counter, time.process_time

    def append(self, row):
        original(self, row)
        wall0, cpu0 = wall(), cpu()
        kernel()
        pace.wall_s += wall() - wall0
        pace.cpu_s += cpu() - cpu0
        pace.calls += 1

    cls.append = append
    try:
        yield pace
    finally:
        cls.append = original
