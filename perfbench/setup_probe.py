"""One cold start of an offline workload, timed from inside a fresh process.

Usage: ``python3 setup_probe.py TOPOLOGY CASE NH EPSILON`` with
``PYTHONPATH`` pointing at the program's ``src``.  Prints the seconds
from before ``import repro`` to a ``Pipeline`` whose topology session has
built its labeling and distances.
"""

import sys
import time

t0 = time.perf_counter()
from repro.api import Pipeline, PipelineConfig, Topology  # noqa: E402
from repro.core.config import TimerConfig  # noqa: E402

topology, case, nh, epsilon = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
session = Topology.from_name(topology)
session.labeling
session.distances
Pipeline(session, PipelineConfig(
    initial_mapping=case, epsilon=epsilon, timer=TimerConfig(n_hierarchies=nh)
))
print(repr(time.perf_counter() - t0))
