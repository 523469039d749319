"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric.  The program's outputs are
checked on every run: a failed check makes ``correct`` false and the
exit code 1.  Notes (sample counts, failed checks) go to standard error.
See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space inside the checkout: server logs, reference values
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from common import THREAD_ENV, declared_units, emit, source_fingerprint

    # Before numpy is first imported, so its thread pools start pinned.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import offline
    import serve
    from workloads import WORKLOADS, Offline

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    module = offline if isinstance(spec, Offline) else serve
    # Reference values are kept per program version, so a change that
    # alters results is compared with its own first run, not its parent's.
    out_dir = OUT_DIR / source_fingerprint(ROOT / "src")
    correct, attempted, failed, values = module.run(
        spec, args.workload, ROOT, out_dir, args.seed, args.seconds, bool(args.trace)
    )
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from the declared ones: "
                           f"{sorted(set(values) ^ set(units))}")
    emit(correct, attempted, failed, {name: (values[name], units[name]) for name in units})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
