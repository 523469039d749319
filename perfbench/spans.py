"""In-memory spans recorded around calls into the program's public functions.

The traced run installs wrappers with :func:`patched`, which replaces
each listed function *where its caller looks it up* (for example
``repro.partitioning.multilevel.fm_refine``, the name
``bisect_multilevel`` calls), so the program itself is unchanged.  Every
wrapped call appends one span (name, start, end, parent index) to a
:class:`Recorder`; nothing is written until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  The recorder is single-threaded: spans nest strictly, so
the children of one span never overlap and their durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

#: (module, attribute, span name): the public functions the traced run
#: wraps, each patched in the module that calls it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.stages", "partition_kway", "partitioning.total"),
    ("repro.partitioning.kway", "bisect_multilevel", "partitioning.bisect"),
    ("repro.partitioning.multilevel", "coarsen_to_size", "partitioning.coarsen"),
    ("repro.partitioning.multilevel", "grow_bisection", "partitioning.initial"),
    ("repro.partitioning.multilevel", "fm_refine", "partitioning.fm"),
    ("repro.partitioning.kway", "kway_refine", "partitioning.kway_refine"),
    ("repro.partitioning.kway", "rebalance", "partitioning.rebalance"),
    ("repro.api.stages", "compute_initial_mapping", "mapping.initial"),
    ("repro.api.stages", "timer_enhance", "core.total"),
    ("repro.core.enhancer", "build_application_labeling", "core.app_labeling"),
    ("repro.core.enhancer", "swap_pass", "core.swap"),
    ("repro.core.enhancer", "kl_swap_pass", "core.swap"),
    ("repro.core.enhancer", "contract_level", "core.contract"),
    ("repro.core.enhancer", "assemble", "core.assemble"),
    ("repro.core.enhancer", "coco_plus", "core.objective"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans of one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, summed duration, summed self time)."""
        out: dict[str, tuple[int, float, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            count, total, self_total = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (count + 1, total + s.duration, self_total + own)
        return out


@contextlib.contextmanager
def patched(recorder: Recorder, targets=TARGETS) -> Iterator[None]:
    """Install span wrappers on ``targets`` and restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(recorder: Recorder, hierarchies: int, accepted: int) -> dict[str, float]:
    """Per-layer figures of the maps recorded under ``map`` root spans.

    Times and counts are per map; ``core.levels`` is per hierarchy.  A
    phase's time is its self time, so the phases of a layer add up to the
    layer's total, and ``obs.coverage`` is the share of map wall time the
    layers account for.
    """
    totals = recorder.totals()
    maps, map_wall, _ = totals.get("map", (0, 0.0, 0.0))
    if maps == 0 or map_wall <= 0:
        raise ValueError("no map spans recorded")

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] / maps

    def count(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0] / maps

    part_total = totals.get("partitioning.total", (0, 0.0, 0.0))[1]
    core_total = totals.get("core.total", (0, 0.0, 0.0))[1]
    covered = sum(
        own for s, own in zip(recorder.spans, recorder.self_times()) if s.name != "map"
    )
    return {
        "partitioning.total_s": part_total / maps,
        "partitioning.share": part_total / map_wall,
        "partitioning.coarsen_s": self_s("partitioning.coarsen"),
        "partitioning.initial_s": self_s("partitioning.initial"),
        "partitioning.fm_s": self_s("partitioning.fm"),
        "partitioning.kway_refine_s": self_s("partitioning.kway_refine"),
        "partitioning.rebalance_s": self_s("partitioning.rebalance"),
        "partitioning.other_s": self_s("partitioning.total") + self_s("partitioning.bisect"),
        "partitioning.bisections": count("partitioning.bisect"),
        "partitioning.fm_calls": count("partitioning.fm"),
        "mapping.initial_s": self_s("mapping.initial"),
        "core.total_s": core_total / maps,
        "core.share": core_total / map_wall,
        "core.app_labeling_s": self_s("core.app_labeling"),
        "core.swap_s": self_s("core.swap"),
        "core.contract_s": self_s("core.contract"),
        "core.assemble_s": self_s("core.assemble"),
        "core.objective_s": self_s("core.objective"),
        "core.other_s": self_s("core.total"),
        "core.hierarchies": hierarchies / maps,
        "core.levels": totals.get("core.contract", (0, 0.0, 0.0))[0] / max(hierarchies, 1),
        "core.accept_ratio": accepted / max(hierarchies, 1),
        "obs.coverage": covered / map_wall,
    }
