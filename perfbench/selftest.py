"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the inputs are a pure function of the seed, that traced self
times add up, that a failed run leaves no reference values behind, and
that a tiny run of every workload in ``BENCHMARK.json`` prints every
metric it declares, with its unit.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from common import DECLARATION, CheckFailed, declared_units, percentile, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_percentile_needs_ten_beyond():
    assert percentile(list(range(21)), 0.5) == 10
    assert tail(list(range(30))) == 19
    for values, q in ((list(range(20)), 0.5), (list(range(100)), 0.9)):
        try:
            percentile(values, q)
        except CheckFailed:
            continue
        raise AssertionError(f"p{q} of {len(values)} samples was reported")


def test_same_seed_same_inputs():
    import offline
    import serve

    spec = WORKLOADS["offline-narrow"]
    a = offline.plan_items(spec, "offline-narrow", 7, 3)
    b = offline.plan_items(spec, "offline-narrow", 7, 3)
    c = offline.plan_items(spec, "offline-narrow", 8, 3)
    assert a == b
    assert [s for _, s in a] != [s for _, s in c]
    spec = WORKLOADS["serve-mixed"]
    assert serve.plan(spec, 7, 5) == serve.plan(spec, 7, 5)
    assert serve.plan(spec, 7, 5) != serve.plan(spec, 8, 5)


def test_child_self_times_fit_in_parent():
    from repro.api import Pipeline, PipelineConfig
    from repro.core.config import TimerConfig
    from repro.experiments.instances import generate_instance
    from spans import Recorder, layer_metrics, patched

    pipe = Pipeline("fattree4x3", PipelineConfig(timer=TimerConfig(n_hierarchies=2)))
    recorder = Recorder()
    with patched(recorder):
        for seed in range(2):
            graph = generate_instance("p2p-Gnutella", seed=seed, n_min=200, n_max=200)
            with recorder.span("map"):
                pipe.run(graph, seed=seed)
    children: dict[int, float] = {}
    for span in recorder.spans:
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    for index, covered in children.items():
        assert covered <= recorder.spans[index].duration, recorder.spans[index]
    assert min(recorder.self_times()) >= 0
    names = {span.name for span in recorder.spans}
    assert {"partitioning.fm", "core.swap", "mapping.initial"} <= names, names
    coverage = layer_metrics(recorder, 4, 0)["obs.coverage"]
    assert 0.9 <= coverage <= 1.0, coverage


def test_failed_run_stores_no_reference():
    import offline

    spec = dataclasses.replace(WORKLOADS["offline-narrow"], topology="grid4x4", n=100,
                               nh=1, nominal_maps_per_s=1.0, setup_probes=1)
    out_dir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    reference = out_dir / "reference" / "tiny-5-4.json"
    check_result = offline.check_result

    def broken(*args):
        raise CheckFailed("injected")

    try:
        offline.check_result = broken
        correct, _, failed, _ = offline.run(spec, "tiny", ROOT, out_dir, 5, 4, False)
        assert not correct and failed == 4
        assert not reference.exists()
        offline.check_result = check_result
        assert offline.run(spec, "tiny", ROOT, out_dir, 5, 4, False)[0]
        assert reference.exists()
        sums = json.loads(reference.read_text())
        sums["coco_after"] += 1.0
        reference.write_text(json.dumps(sums))
        correct, _, failed, _ = offline.run(spec, "tiny", ROOT, out_dir, 5, 4, False)
        assert not correct and failed == 1
    finally:
        offline.check_result = check_result
        shutil.rmtree(out_dir)


def test_tiny_runs_print_every_metric():
    # The traced serve-mixed run needs 20 s of traffic: its per-layer
    # medians need 21 misses each.
    seconds = {"offline-narrow": "2", "offline-wide": "2", "serve-mixed": "8"}
    traced_seconds = {**seconds, "serve-mixed": "20"}
    workloads = [w["name"] for w in json.loads(DECLARATION.read_text())["workloads"]]
    assert workloads == list(WORKLOADS)
    for workload in workloads:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            secs = (traced_seconds if trace == "1" else seconds)[workload]
            out = _bench("--workload", workload, "--seed", "3", "--seconds", secs,
                         "--trace", trace)
            assert out.returncode == 0, out.stderr[-2000:]
            line = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            assert {k: v["unit"] for k, v in line["metrics"].items()} == \
                declared_units(section), (workload, trace)


def test_bare_directory_fails():
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _bench("--workload", "offline-narrow", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"ok   {name}")
        except Exception:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
