"""Shared helpers: seeds, statistics, memory, reference values, the result line."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

#: thread pools pinned to one thread in every process the benchmark runs,
#: so processes never outnumber the two cores the noise figures come from
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: fewest samples that must lie beyond a reported percentile
BEYOND = 10

#: the benchmark's declaration: workloads, metric names, units, bounds
DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class CheckFailed(Exception):
    """An output of the program did not pass a correctness check."""


def derive(seed: int, *purpose: object) -> int:
    """A stable 31-bit seed for ``(seed, purpose)``, independent of the program."""
    text = "/".join(str(p) for p in (seed, *purpose))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than BEYOND samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = n - int(q * n) - 1
    if n == 0 or beyond < BEYOND:
        raise CheckFailed(
            f"p{q * 100:g} needs {BEYOND} samples beyond it; have {n} samples"
        )
    return ordered[int(q * n)]


def tail(values: list[float]) -> float:
    """The highest percentile with BEYOND samples beyond it (level on stderr)."""
    q = 1.0 - (BEYOND + 1) / len(values)
    note(f"tail percentile p{q * 100:.0f} of {len(values)} samples")
    return percentile(values, q)


def balanced_gmean(groups: dict[str, list[float]]) -> float:
    """Geometric mean over groups of each group's geometric mean.

    Each group weighs the same however many samples it drew, so a seed's
    group mix does not move the figure.
    """
    return statistics.geometric_mean([statistics.geometric_mean(v) for v in groups.values()])


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_LABELING_CACHE", None)
    return env


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and all its descendants."""
    total_kb = 0
    for p in [pid, *descendants(pid)]:
        try:
            status = Path(f"/proc/{p}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (Linux /proc)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def source_fingerprint(src: Path) -> str:
    """Short hash of every Python source file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_reference(out_dir: Path, key: str, values: dict, store: bool) -> None:
    """The deterministic quality sums must equal the first run's, bit for bit.

    Every run with a recorded key compares against it.  The first run of
    a key records its values only if ``store`` is true: a run that failed
    another check may lack replies or hold wrong maps, and its sums must
    not become the reference later runs are held to.
    """
    path = out_dir / "reference" / f"{key}.json"
    if path.exists():
        expected = json.loads(path.read_text())
        if expected != values:
            raise CheckFailed(
                f"quality sums for {key} changed: {values} != first run's {expected}"
            )
    elif store:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(values, sort_keys=True))


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``.

    ``section`` is ``"end_to_end"`` (printed with ``--trace 0``) or
    ``"per_layer"`` (``--trace 1``).
    """
    metrics = json.loads(DECLARATION.read_text())[section]
    return {m["name"]: m["unit"] for m in metrics}


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()


def note(message: str) -> None:
    """A human-readable line on standard error (sample counts, checks)."""
    sys.stderr.write(f"perfbench: {message}\n")
    sys.stderr.flush()
