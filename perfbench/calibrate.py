"""Host-speed calibration with a fixed reference kernel that never calls the program.

On a shared 2-vCPU VM the host's speed drifts by a quarter or more within
minutes, because other tenants share its cores, caches and memory
bandwidth: a fixed pure-Python loop had median 0.33 s with IQR
0.30-0.39 s, and one 24-map ``torus16x16`` batch ran at 1.04-1.33 maps/s
across 6 fresh processes.  Raw wall times of two runs of the same code
therefore differ by more than a regression bound can allow.

Each run times this kernel between its own in-process timed steps
(between maps, around set-up probes, between rerun bodies) and divides
those times by ``host_factor()``, derived from the kernel's mean time in
this run over ``NOMINAL_S``, so they are reported at a nominal host
speed.  The kernel mixes what the program spends its time on --
interpreted loops, dict and list work, NumPy sorts -- so a slow spell
slows both, the program somewhat more (``ELASTICITY``).  It runs only
between timed steps, never during one, and nothing in it depends on the
program, so a change to the program cannot move the factor.  Raw values
and the factor are printed on standard error.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one kernel call takes at nominal host speed.  A fixed scale:
#: changing it rescales every reported time, so it never changes.
NOMINAL_S = 0.02

#: how much more the program's times move than the kernel's.  Over 20
#: offline runs spanning host factors 0.69-1.03, map throughput scaled as
#: the kernel's speed to the power 1.47 (correlation 0.94-0.98 on both
#: offline workloads); within one process, windows of six maps gave 1.29.
ELASTICITY = 1.4


def kernel() -> int:
    x = 12345
    values = []
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        values.append(x)
    index = {v: i for i, v in enumerate(values)}
    values.sort()
    a = np.array(values, dtype=np.int64)
    for _ in range(10):
        a = np.argsort(a ^ 0x5555, kind="stable")
    return len(index) + int(a[0])


class HostClock:
    """Kernel timings collected over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        kernel()  # first call pays for allocation warm-up

    def tick(self, calls: int = 1) -> None:
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)

    def host_factor(self) -> float:
        """How much slower than nominal the host ran: above 1 on a slow host.

        The kernel's mean time over its nominal time, raised to
        ``ELASTICITY``.
        """
        return (statistics.fmean(self.samples) / NOMINAL_S) ** ELASTICITY
