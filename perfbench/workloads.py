"""The benchmark's workloads and metrics, in one place.

Every constant that shapes a run lives here.  Item counts are a fixed
function of ``--seconds`` (the nominal rate below was measured on the
seed commit), so a run does the same work however fast the program is.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Offline:
    """In-process ``Pipeline.run`` over a fixed list of generated graphs."""

    topology: str
    n: int
    nh: int
    case: str
    #: maps per second on the seed commit; sets the item count
    nominal_maps_per_s: float
    #: latency limit of one map for ``slo_ok_frac``
    slo_s: float
    instances: tuple[str, ...] = ("p2p-Gnutella", "PGPgiantcompo")
    epsilon: float = 0.03
    #: set-up probes per run, fresh processes spread evenly between the
    #: timed maps; the median is reported
    setup_probes: int = 7

    def items(self, seconds: float) -> int:
        return max(4, round(seconds * self.nominal_maps_per_s))

    @property
    def ticks_per_item(self) -> int:
        """Calibration kernel calls between two maps: one per ~0.3 s of map."""
        return max(1, round(1.0 / (0.3 * self.nominal_maps_per_s)))


@dataclass(frozen=True)
class Serve:
    """Open-loop Poisson traffic from the loadgen planner against a fresh server."""

    scenario: str
    #: offered requests per second: under half the seed commit's capacity
    rate: float
    nh: int
    seed_pool: int
    hot_keys: int
    hot_fraction: float
    repeat_fraction: float
    enhance_fraction: float
    #: latency limit of one reply for ``slo_ok_frac``
    slo_s: float
    #: server spawns per run for ``setup_s``: a third before the load (the
    #: last of those takes it), the rest after the in-process rerun
    setup_probes: int = 9

    def requests(self, seconds: float) -> int:
        return max(20, round(seconds * self.rate))


WORKLOADS: dict[str, Offline | Serve] = {
    # Partition is ~70-77% of each map here, enhance ~25%.
    "offline-narrow": Offline(
        topology="torus16x16", n=800, nh=10, case="c2",
        nominal_maps_per_s=1.1, slo_s=3.0,
    ),
    # fattree2x6: 127 PEs, 126 classes, 2-word labels, ~131 levels per
    # hierarchy -- enhance ~80% of each map, partition ~20%.
    "offline-wide": Offline(
        topology="fattree2x6", n=600, nh=10, case="c2",
        nominal_maps_per_s=0.33, slo_s=10.0,
    ),
    # Small graphs: HTTP, queue, batch window, response cache and the
    # pool hop are a large share of each request.  The mix was chosen
    # from the plans of seeds 201-210 (README, "serve-mixed traffic"):
    # enhance 0.5 splits misses evenly between /map and /enhance; seed
    # pool 48 (768 catalog bodies) leaves ~2 cold collisions per run, so
    # hits come from the hot set and repeats alone; hot 0.3 with the
    # loadgen's default 3 hot keys and repeats 0.1 give ~37 hits while
    # every (topology, op) class keeps at least 5 misses in every seed.
    "serve-mixed": Serve(
        scenario="smoke", rate=4.0, nh=2, seed_pool=48, hot_keys=3,
        hot_fraction=0.3, repeat_fraction=0.1, enhance_fraction=0.5,
        slo_s=1.0,
    ),
}
