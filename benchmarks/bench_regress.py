"""Kernel regression smoke runner: times before/after and emits JSON.

Runs the seed ("before") and kernel ("after") implementations of TIMER's
hot loops on the standard micro-benchmark workload (BA n=2000 m=4 mapped
onto a 16x16 grid) and writes ``BENCH_kernels.json`` next to this file, so
future PRs have a perf trajectory to compare against:

    PYTHONPATH=src python benchmarks/bench_regress.py

The "before" measurements reconstruct the seed paths from primitives that
are deliberately kept in-tree (``swap_pass_reference``, the per-vertex
``bfs_distances`` loop, ``_djokovic_classes_loop``), so the
comparison stays honest as the library evolves.  Each measurement is
best-of-``repeats`` wall time; the runner exits non-zero if a kernel
regresses below its floor (swap_pass >= 5x, partial-cube labeling >= 3x),
making it usable as a CI smoke gate.

The ``wide_*`` entries time the same kernels on the multi-word label
representation (fattree2x7: 255 PEs, 254 classes, 4-word labels) --
their floors prove the wide path stays vectorized, while the unchanged
narrow floors prove the ``W == 1`` fast path did not slow down under the
representation split.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.contraction import make_finest_level
from repro.core.labels import build_application_labeling
from repro.core.swaps import swap_pass, swap_pass_reference
from repro.graphs import generators as gen
from repro.graphs.algorithms import (
    all_pairs_distances,
    bfs_distances,
    bipartition_colors,
    is_connected,
)
from repro.partialcube.djokovic import (
    _djokovic_classes_loop,
    djokovic_classes,
    partial_cube_labeling,
)

OUTPUT = Path(__file__).parent / "BENCH_kernels.json"

#: speedup floors enforced by the runner (and recorded in the JSON)
FLOORS = {
    "swap_pass": 5.0,
    "partial_cube_labeling": 3.0,
    "wide_swap_pass": 3.0,
    "wide_partial_cube_labeling": 3.0,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workload():
    ga = gen.barabasi_albert(2000, 4, seed=1)
    gp = gen.grid(16, 16)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(2)
    mu = (np.arange(ga.n) % gp.n).astype(np.int64)
    rng.shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=3)
    return ga, gp, app


def _seed_partial_cube_labeling(gp):
    """The seed recognition path: one Python BFS per vertex + class loop."""
    distances = np.stack([bfs_distances(gp, v) for v in range(gp.n)])
    return _djokovic_classes_loop(gp, distances)


def run(repeats: int = 5) -> dict:
    ga, gp, app = _workload()
    edges = ga.edge_arrays()
    results: dict = {}

    # --- swap pass: scalar greedy sweep vs batch kernel -----------------
    def before_swaps():
        lvl = make_finest_level(edges, app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    def after_swaps():
        lvl = make_finest_level(edges, app.labels.copy())
        return swap_pass(lvl, sign=1)

    # correctness gate before timing: byte-identical outcomes
    la = make_finest_level(edges, app.labels.copy())
    lb = make_finest_level(edges, app.labels.copy())
    ra = swap_pass_reference(la, sign=1)
    rb = swap_pass(lb, sign=1)
    if ra != rb or not np.array_equal(la.labels, lb.labels):
        raise AssertionError(f"batch swap pass diverged from scalar: {ra} vs {rb}")
    results["swap_pass"] = {
        "workload": "BA n=2000 m=4 on 16x16 grid, sign=+1, 1 sweep",
        "before_s": _best_of(before_swaps, repeats),
        "after_s": _best_of(after_swaps, repeats),
    }

    # --- partial-cube recognition: seed BFS+loop vs batched kernels -----
    def before_pc():
        return _seed_partial_cube_labeling(gp)

    def after_pc():
        return partial_cube_labeling(gp)

    ec_a, cls_a = _seed_partial_cube_labeling(gp)
    ec_b, cls_b = djokovic_classes(gp, all_pairs_distances(gp))
    if not np.array_equal(ec_a, ec_b) or cls_a != cls_b:
        raise AssertionError("vectorized djokovic classes diverged from loop")
    results["partial_cube_labeling"] = {
        "workload": "16x16 grid (dim 30), full recognition + labeling",
        "before_s": _best_of(before_pc, repeats),
        "after_s": _best_of(after_pc, repeats),
    }

    # --- all-pairs distances: per-vertex Python BFS vs bitset BFS -------
    def before_apd():
        return np.stack([bfs_distances(gp, v) for v in range(gp.n)])

    assert np.array_equal(before_apd(), all_pairs_distances(gp))
    results["all_pairs_distances"] = {
        "workload": "16x16 grid, n=256 sources",
        "before_s": _best_of(before_apd, repeats),
        "after_s": _best_of(lambda: all_pairs_distances(gp), repeats),
    }

    # --- djokovic classes alone (distances precomputed) -----------------
    dist = all_pairs_distances(gp)

    def before_dj():
        # the uncapped loop behind the same precondition checks
        is_connected(gp)
        bipartition_colors(gp)
        return _djokovic_classes_loop(gp, dist)

    results["djokovic_classes"] = {
        "workload": "16x16 grid, distances precomputed, production default "
        "(capped loop, batched fallback)",
        "before_s": _best_of(before_dj, repeats),
        "after_s": _best_of(lambda: djokovic_classes(gp, dist), repeats),
    }

    # --- wide labels: same kernels past the 63-class cap ----------------
    ft = gen.fat_tree(2, 7)  # 255 PEs, 254 Djokovic classes, W = 4
    ft_pc = partial_cube_labeling(ft)
    mu_ft = (np.arange(ga.n) % ft.n).astype(np.int64)
    np.random.default_rng(2).shuffle(mu_ft)
    wide_app = build_application_labeling(ga, ft_pc, mu_ft, seed=3)
    assert wide_app.labels.ndim == 2  # really multi-word

    def before_wide_swaps():
        lvl = make_finest_level(edges, wide_app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    def after_wide_swaps():
        lvl = make_finest_level(edges, wide_app.labels.copy())
        return swap_pass(lvl, sign=1)

    wa = make_finest_level(edges, wide_app.labels.copy())
    wb = make_finest_level(edges, wide_app.labels.copy())
    rwa = swap_pass_reference(wa, sign=1)
    rwb = swap_pass(wb, sign=1)
    if rwa != rwb or not np.array_equal(wa.labels, wb.labels):
        raise AssertionError(f"wide batch swap diverged from scalar: {rwa} vs {rwb}")
    results["wide_swap_pass"] = {
        "workload": "BA n=2000 m=4 on fattree2x7 (dim 256, 4-word labels)",
        "before_s": _best_of(before_wide_swaps, repeats),
        "after_s": _best_of(after_wide_swaps, repeats),
    }

    def before_wide_pc():
        return _seed_partial_cube_labeling(ft)

    def after_wide_pc():
        return partial_cube_labeling(ft)

    results["wide_partial_cube_labeling"] = {
        "workload": "fattree2x7 (255 switches, dim 254), recognition + labeling",
        "before_s": _best_of(before_wide_pc, repeats),
        "after_s": _best_of(after_wide_pc, repeats),
    }

    # --- edge_arrays caching --------------------------------------------
    def before_edges():
        # fresh graph per call = the seed behavior (rebuild every time)
        g2 = ga.copy()
        for _ in range(10):
            g2._edge_arrays_cache = None
            g2.edge_arrays()

    def after_edges():
        g2 = ga.copy()
        for _ in range(10):
            g2.edge_arrays()

    results["edge_arrays_x10"] = {
        "workload": "BA n=2000 m=4, 10 objective-style accesses",
        "before_s": _best_of(before_edges, repeats),
        "after_s": _best_of(after_edges, repeats),
    }

    for name, entry in results.items():
        entry["speedup"] = entry["before_s"] / entry["after_s"]
        entry["floor"] = FLOORS.get(name)

    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repeats": repeats,
        },
        "kernels": results,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--floor-scale",
        type=float,
        default=1.0,
        help="multiply the speedup floors before enforcing them; CI uses a "
        "value < 1 so shared-runner timing noise cannot fail unrelated PRs "
        "(the recorded floors in the JSON stay unscaled)",
    )
    args = ap.parse_args(argv)
    payload = run(repeats=args.repeats)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    failed = []
    for name, entry in payload["kernels"].items():
        floor = entry.get("floor")
        line = (
            f"{name:24s} before {entry['before_s'] * 1e3:8.2f} ms   "
            f"after {entry['after_s'] * 1e3:8.2f} ms   "
            f"speedup {entry['speedup']:6.1f}x"
        )
        if floor is not None:
            enforced = floor * args.floor_scale
            line += f"   (floor {floor:.0f}x"
            if args.floor_scale != 1.0:
                line += f", enforcing {enforced:.1f}x"
            line += ")"
            if entry["speedup"] < enforced:
                failed.append(name)
                line += "  FAIL"
        print(line)
    print(f"wrote {OUTPUT}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
