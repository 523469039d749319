"""Offline workloads: one warm topology session, a fixed list of ``Pipeline.run`` calls."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import geometric_mean, median

from calibrate import HostClock
from common import (
    CheckFailed,
    check_reference,
    child_env,
    declared_units,
    derive,
    note,
    own_peak_rss_mb,
)
from repro.api import Pipeline, PipelineConfig, Topology
from repro.core.config import TimerConfig
from repro.experiments.instances import generate_instance
from repro.partitioning.partition import Partition
from spans import Recorder, layer_metrics, patched
from workloads import Offline

HERE = Path(__file__).resolve().parent


def cold_start(spec: Offline, root: Path) -> float:
    """Seconds of one cold start in a fresh process, ``import repro`` included."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), spec.topology, spec.case,
         str(spec.nh), str(spec.epsilon)],
        env=child_env(root), cwd=root, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def plan_items(spec: Offline, name: str, seed: int, seconds: float) -> list[tuple]:
    """The fixed item list: ``(graph, run seed)``, derived from ``seed`` only."""
    items = []
    for i in range(spec.items(seconds)):
        instance = spec.instances[i % len(spec.instances)]
        graph = generate_instance(
            instance, seed=derive(seed, name, "graph", i), n_min=spec.n, n_max=spec.n
        )
        items.append((graph, derive(seed, name, "run", i)))
    return items


def check_result(spec: Offline, graph, n_pe: int, result) -> None:
    """A map has length n, in-range PE ids and blocks within the balance bound."""
    mu = result.mu_final
    if len(mu) != graph.n:
        raise CheckFailed(f"map of {graph.name} has length {len(mu)}, not {graph.n}")
    if mu.min() < 0 or mu.max() >= n_pe:
        raise CheckFailed(f"map of {graph.name} has PE ids outside 0..{n_pe - 1}")
    if not Partition(graph, mu, n_pe).is_balanced(spec.epsilon):
        raise CheckFailed(f"map of {graph.name} breaks the {spec.epsilon} balance bound")


def run(spec: Offline, name: str, root: Path, out_dir: Path,
        seed: int, seconds: float, trace: bool) -> tuple[bool, int, int, dict]:
    clock = HostClock()
    session = Topology.from_name(spec.topology)
    t0 = time.perf_counter()
    session.labeling
    t1 = time.perf_counter()
    session.distances
    t2 = time.perf_counter()
    pipe = Pipeline(session, PipelineConfig(
        initial_mapping=spec.case, epsilon=spec.epsilon,
        timer=TimerConfig(n_hierarchies=spec.nh),
    ))
    items = plan_items(spec, name, seed, seconds)
    # One small map first, so lazy imports and first-call costs stay
    # outside the timed loop.
    pipe.run(generate_instance(spec.instances[0], seed=derive(seed, name, "warm"),
                               n_min=300, n_max=300), seed=0)

    # Set-up probes run between timed maps, spread over the whole loop,
    # so their median spans host states tens of seconds apart.
    probes = [] if trace else [
        k * len(items) // spec.setup_probes for k in range(spec.setup_probes)
    ]
    setups, results, times = [], [], []
    for i, (graph, run_seed) in enumerate(items):
        setups += [cold_start(spec, root) for _ in range(probes.count(i))]
        clock.tick(spec.ticks_per_item)
        t = time.perf_counter()
        results.append(pipe.run(graph, seed=run_seed))
        times.append(time.perf_counter() - t)
    clock.tick()
    wall = sum(times)

    failed = 0
    ok = []
    sums = {"coco_before": 0.0, "coco_after": 0.0, "cut_after": 0.0, "edge_weight": 0.0}
    for (graph, _), result in zip(items, results):
        try:
            check_result(spec, graph, session.n, result)
            ok.append(True)
        except CheckFailed as exc:
            failed += 1
            ok.append(False)
            note(f"FAILED: {exc}")
        for key in ("coco_before", "coco_after", "cut_after"):
            sums[key] += result.metrics[key]
        sums["edge_weight"] += graph.total_edge_weight()

    recorder = Recorder()
    traced_wall = 0.0
    hierarchies = accepted = 0
    if trace:
        start = time.perf_counter()
        with patched(recorder):
            for (graph, run_seed), result in zip(items, results):
                with recorder.span("map"):
                    traced = pipe.run(graph, seed=run_seed)
                if traced.identity_hash != result.identity_hash or not (
                    traced.mu_final == result.mu_final
                ).all():
                    failed += 1
                    note(f"FAILED: traced map of {graph.name} differs from the untraced one")
                hierarchies += len(traced.timer.history)
                accepted += traced.timer.hierarchies_accepted
        traced_wall = time.perf_counter() - start

    try:
        check_reference(out_dir, f"{name}-{seed}-{len(items)}", sums, store=failed == 0)
    except CheckFailed as exc:
        failed += 1
        note(f"FAILED: {exc}")
    note(f"{len(items)} maps on {spec.topology}")

    if trace:
        metrics = {
            "api.labeling_s": t1 - t0,
            "api.distances_s": t2 - t1,
            **layer_metrics(recorder, hierarchies, accepted),
            "obs.trace_overhead_frac": traced_wall / wall - 1.0,
            # No server runs offline: its figures read 0.
            **{m: 0.0 for m in declared_units("per_layer")
               if m.startswith(("serve.", "loadgen."))},
        }
        return failed == 0, len(items), failed, metrics
    factor = clock.host_factor()
    gmean_ms = geometric_mean(times) * 1e3
    note(f"setup_s raw samples {[round(s, 4) for s in setups]}")
    note(f"raw: maps_per_s {len(items) / wall:.4f}, map_gmean_ms {gmean_ms:.2f}; "
         f"host factor {factor:.4f}")
    metrics = {
        # Set-up stays raw: it runs in other processes, and the kernel's
        # elasticity was fitted on in-process maps, not on cold starts.
        "setup_s": median(setups),
        "maps_per_s": len(items) / wall * factor,
        "map_gmean_ms": gmean_ms / factor,
        # Offline there is no cache: every map is a miss, due when the
        # previous one returns.
        "miss_gmean_ms": gmean_ms / factor,
        "slo_ok_frac": sum(o and t <= spec.slo_s for o, t in zip(ok, times)) / len(times),
        "coco_hops": sums["coco_after"] / sums["edge_weight"],
        "coco_quotient": sums["coco_after"] / sums["coco_before"],
        "cut_ratio": sums["cut_after"] / sums["edge_weight"],
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return failed == 0, len(items), failed, metrics
