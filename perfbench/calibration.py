"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU virtual machine the benchmark was defined on, contention
from other guests of the host slows compute-bound code by up to 2x for
stretches of a tenth of a second to several minutes, and nothing inside
the guest shows it (README.md gives the measurements).  A fixed kernel that does
not depend on nitschelab tells how fast the machine runs: `Calibration`
times it just before and just after each measured interval, and also
every SAMPLE_EVERY_S of CPU time inside it, from a SIGPROF handler.
`Calibration.measure` gives the factor that rescales the interval's wall
time to the speed at which the kernel takes REFERENCE_S, its fastest
time on that host when quiet.
"""

import signal
import time

import numpy as np

# fastest of 3000 timings of the kernel on the reference host
# (2 vCPUs, Python 3.11, numpy 2.4)
REFERENCE_S = 0.00166
SAMPLE_EVERY_S = 0.2


class Calibration:
    """The fixed kernel: a small einsum, like assembly, and a Python loop,
    like the interpreter overhead around it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((2000, 10, 3))
        self._b = rng.standard_normal((2000, 3, 3))

    def kernel(self):
        """One timing of the kernel, in s."""
        start = time.perf_counter()
        np.einsum("eqi,eij->eqj", self._a, self._b)
        total = 0
        for i in range(7500):
            total += i
        return time.perf_counter() - start

    def sample(self):
        """Fastest of three timings: a warm kernel."""
        return min(self.kernel() for _ in range(3))

    def measure(self, fn, *args):
        """Run fn(*args).  Returns its result, its wall time in s without
        the time spent sampling, and the factor that rescales a time
        measured during it to the reference speed."""
        inside = []
        spent = [0.0]

        def on_tick(signum, frame):
            start = time.perf_counter()
            self.kernel()  # warms the caches the program just used
            inside.append(self.kernel())
            spent[0] += time.perf_counter() - start

        samples = [self.sample()]
        previous = signal.signal(signal.SIGPROF, on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        samples += inside
        samples.append(self.sample())
        return result, wall - spent[0], REFERENCE_S * len(samples) / sum(samples)
