"""Fixture pairs for every lint rule: one snippet that MUST fire, one
near-miss that MUST NOT.

The near-misses are modeled on real shipped code (``np.random.Generator``
type annotations, ``time.sleep`` on the executor path, the
``PipelineConfig`` identity loop), so the rules stay precise enough to
run over ``src/`` without drowning the tree in suppressions.
"""

from __future__ import annotations

from pathlib import PurePosixPath

from repro.analysis.engine import lint_source
from repro.analysis.rules import (
    ConfigIdentityCoverage,
    DeterministicRandomness,
    NoBlockingInAsyncServe,
    NoWallClockInIdentity,
    RegisterAtImportScope,
    ServeErrorTaxonomy,
    StructuredLoggingOnly,
    default_rules,
)


def run_rule(rule, source, relpath):
    return [
        f
        for f in lint_source(
            source, path=relpath, rules=[rule], relpath=PurePosixPath(relpath)
        )
        if f.rule == rule.id
    ]


# ----------------------------------------------------------------------
# DET001
# ----------------------------------------------------------------------
class TestDET001:
    def test_fires_on_unseeded_default_rng(self):
        src = (
            "import numpy as np\n"
            "def jitter(x):\n"
            "    rng = np.random.default_rng()\n"
            "    return x + rng.normal()\n"
        )
        found = run_rule(DeterministicRandomness(), src, "core/enhancer.py")
        assert len(found) == 1 and found[0].line == 3

    def test_fires_on_legacy_global_and_stdlib_random(self):
        src = (
            "import numpy as np\n"
            "import random\n"
            "def pick(xs):\n"
            "    np.random.shuffle(xs)\n"
            "    return random.choice(xs)\n"
        )
        found = run_rule(DeterministicRandomness(), src, "partitioning/initial.py")
        assert {f.line for f in found} == {2, 4}

    def test_near_miss_annotations_and_seeded(self):
        # The shape of partitioning/initial.py and mapping/drb.py:
        # Generator *annotations* and isinstance checks are fine, and a
        # seeded default_rng is explicitly allowed by the rule's letter.
        src = (
            "import numpy as np\n"
            "def grow(g, rng: np.random.Generator) -> np.ndarray:\n"
            "    if isinstance(rng, np.random.Generator):\n"
            "        return rng.integers(0, 7, size=4)\n"
            "    return np.random.default_rng(np.random.SeedSequence(1))\n"
        )
        assert run_rule(DeterministicRandomness(), src, "partitioning/initial.py") == []

    def test_out_of_scope_tree_not_scanned(self):
        src = "import random\n"
        assert run_rule(DeterministicRandomness(), src, "serve/loadgen.py") == []


# ----------------------------------------------------------------------
# DET002
# ----------------------------------------------------------------------
class TestDET002:
    def test_fires_on_wall_clock(self):
        src = (
            "import time, datetime\n"
            "def stamp(identity):\n"
            "    identity['at'] = time.time()\n"
            "    identity['day'] = datetime.datetime.now()\n"
            "    return identity\n"
        )
        found = run_rule(NoWallClockInIdentity(), src, "experiments/store.py")
        assert {f.line for f in found} == {3, 4}

    def test_near_miss_perf_counter(self):
        # utils/stopwatch.py's idiom, as used inside the scanned trees.
        src = (
            "import time\n"
            "def measure():\n"
            "    t0 = time.perf_counter()\n"
            "    return time.perf_counter() - t0, time.monotonic()\n"
        )
        assert run_rule(NoWallClockInIdentity(), src, "experiments/runner.py") == []


# ----------------------------------------------------------------------
# SRV001
# ----------------------------------------------------------------------
class TestSRV001:
    def test_fires_on_blocking_in_async(self):
        src = (
            "import time, subprocess\n"
            "async def handle(req):\n"
            "    time.sleep(0.1)\n"
            "    subprocess.run(['true'])\n"
            "    with open('x') as f:\n"
            "        return f.read()\n"
        )
        found = run_rule(NoBlockingInAsyncServe(), src, "serve/service.py")
        assert {f.line for f in found} == {3, 4, 5}

    def test_near_miss_executor_and_sync_def(self):
        # scheduler.py's real shape: time.sleep lives in a *sync* helper
        # that runs on the executor; the async side awaits asyncio.sleep.
        src = (
            "import asyncio, time\n"
            "def _compute_with_retries(delay):\n"
            "    time.sleep(delay)\n"
            "async def dispatch(loop, reqs):\n"
            "    await asyncio.sleep(0.01)\n"
            "    def blocking():\n"
            "        time.sleep(1.0)\n"
            "    return await loop.run_in_executor(None, blocking)\n"
        )
        assert run_rule(NoBlockingInAsyncServe(), src, "serve/scheduler.py") == []

    def test_out_of_scope_outside_serve(self):
        src = "import time\nasync def f():\n    time.sleep(1)\n"
        assert run_rule(NoBlockingInAsyncServe(), src, "experiments/runner.py") == []


# ----------------------------------------------------------------------
# SRV002
# ----------------------------------------------------------------------
class TestSRV002:
    def test_fires_on_generic_raise_and_bare_except(self):
        src = (
            "def parse(body):\n"
            "    try:\n"
            "        return int(body)\n"
            "    except:\n"
            "        raise ValueError('bad body')\n"
        )
        found = run_rule(ServeErrorTaxonomy(), src, "serve/service.py")
        assert {f.line for f in found} == {4, 5}

    def test_near_miss_taxonomy_and_named_except(self):
        src = (
            "from repro.errors import ReproError, TransientError\n"
            "def parse(body):\n"
            "    try:\n"
            "        return int(body)\n"
            "    except (TypeError, ValueError) as exc:\n"
            "        raise ReproError(f'bad body: {exc}') from exc\n"
            "def shed():\n"
            "    raise TransientError('queue full')\n"
        )
        assert run_rule(ServeErrorTaxonomy(), src, "serve/scheduler.py") == []


# ----------------------------------------------------------------------
# REG001
# ----------------------------------------------------------------------
class TestREG001:
    def test_fires_inside_function(self):
        src = (
            "from repro.api.registry import REGISTRY\n"
            "def setup(name, value):\n"
            "    REGISTRY.register('topology', name, value)\n"
        )
        found = run_rule(RegisterAtImportScope(), src, "experiments/topologies.py")
        assert len(found) == 1 and found[0].line == 3

    def test_near_miss_module_scope_loop_and_decorator(self):
        # matrix.py / stages.py shapes: top-level loops and top-level
        # decorators both run at import time.
        src = (
            "from repro.api.registry import REGISTRY\n"
            "for name in ('a', 'b'):\n"
            "    REGISTRY.register('scenario', name, object())\n"
            "@REGISTRY.register('verify')\n"
            "def hook(ctx):\n"
            "    return None\n"
        )
        assert run_rule(RegisterAtImportScope(), src, "experiments/matrix.py") == []


# ----------------------------------------------------------------------
# CFG001
# ----------------------------------------------------------------------
_CFG_HEADER = (
    "from dataclasses import asdict, dataclass\n"
    "from typing import ClassVar\n"
    "@dataclass(frozen=True)\n"
)


class TestCFG001:
    def test_fires_on_undeclared_pop(self):
        src = _CFG_HEADER + (
            "class PipelineConfig:\n"
            "    partition: str = 'kway'\n"
            "    workers: str = ''\n"
            "    IDENTITY_EXCLUDED: ClassVar[frozenset[str]] = frozenset()\n"
            "    def identity(self):\n"
            "        d = asdict(self)\n"
            "        d.pop('workers', None)\n"
            "        return d\n"
        )
        found = run_rule(ConfigIdentityCoverage(), src, "api/pipeline.py")
        assert len(found) == 1 and "without listing it" in found[0].message

    def test_fires_on_missing_exclusion_set(self):
        src = (
            "from dataclasses import asdict, dataclass\n"
            "@dataclass(frozen=True)\n"
            "class PipelineConfig:\n"
            "    partition: str = 'kway'\n"
            "    def identity(self):\n"
            "        return asdict(self)\n"
        )
        found = run_rule(ConfigIdentityCoverage(), src, "api/pipeline.py")
        assert len(found) == 1 and "IDENTITY_EXCLUDED" in found[0].message

    def test_fires_on_unconsumed_field(self):
        src = _CFG_HEADER + (
            "class PipelineConfig:\n"
            "    partition: str = 'kway'\n"
            "    workers: str = ''\n"
            "    IDENTITY_EXCLUDED: ClassVar[frozenset[str]] = frozenset()\n"
            "    def identity(self):\n"
            "        return {'partition': self.partition}\n"
        )
        found = run_rule(ConfigIdentityCoverage(), src, "api/pipeline.py")
        assert len(found) == 1 and "'workers'" in found[0].message

    def test_fires_on_stale_exclusion_entry(self):
        src = _CFG_HEADER + (
            "class PipelineConfig:\n"
            "    partition: str = 'kway'\n"
            "    IDENTITY_EXCLUDED: ClassVar[frozenset[str]] = "
            "frozenset({'ghost'})\n"
            "    def identity(self):\n"
            "        return asdict(self)\n"
        )
        found = run_rule(ConfigIdentityCoverage(), src, "api/pipeline.py")
        assert len(found) == 1 and "not a declared" in found[0].message

    def test_near_miss_shipped_shape(self):
        # The shipped PipelineConfig shape: asdict + a loop over the
        # exclusion set (here with one excluded field).
        src = _CFG_HEADER + (
            "class PipelineConfig:\n"
            "    partition: str = 'kway'\n"
            "    workers: str = ''\n"
            "    IDENTITY_EXCLUDED: ClassVar[frozenset[str]] = "
            "frozenset({'workers'})\n"
            "    def identity(self):\n"
            "        d = asdict(self)\n"
            "        for excluded in self.IDENTITY_EXCLUDED:\n"
            "            d.pop(excluded, None)\n"
            "        return d\n"
        )
        assert run_rule(ConfigIdentityCoverage(), src, "api/pipeline.py") == []

    def test_only_applies_to_pipeline_module(self):
        src = "class PipelineConfig:\n    pass\n"
        assert run_rule(ConfigIdentityCoverage(), src, "serve/scheduler.py") == []


# ----------------------------------------------------------------------
# OBS001
# ----------------------------------------------------------------------
class TestOBS001:
    def test_fires_on_print_in_serve(self):
        src = (
            "def boot(port):\n"
            "    print(f'listening on {port}')\n"
        )
        found = run_rule(StructuredLoggingOnly(), src, "serve/service.py")
        assert len(found) == 1 and found[0].line == 2

    def test_fires_on_stderr_write_in_runner(self):
        src = (
            "import sys\n"
            "def report(msg):\n"
            "    sys.stderr.write(msg + '\\n')\n"
        )
        found = run_rule(
            StructuredLoggingOnly(), src, "experiments/runner.py"
        )
        assert len(found) == 1 and found[0].line == 3

    def test_near_miss_stdout_protocol_writer_and_obs_logger(self):
        # The shape of the stdio serve mode (stdout IS the protocol
        # channel) and of sanctioned obs logging.
        src = (
            "import sys\n"
            "from repro.obs import get_logger\n"
            "def write_line(text):\n"
            "    sys.stdout.write(text + '\\n')\n"
            "    sys.stdout.flush()\n"
            "def boot(port):\n"
            "    get_logger('serve').info('serve_listening', port=port)\n"
        )
        assert run_rule(StructuredLoggingOnly(), src, "serve/service.py") == []

    def test_suppression_needs_a_reason(self):
        src = (
            "def show(report):\n"
            "    print(report)  # repro: allow[OBS001] "
            "reason=CLI-facing report on stdout by contract\n"
        )
        findings = lint_source(
            src,
            path="serve/loadgen.py",
            rules=[StructuredLoggingOnly()],
            relpath=PurePosixPath("serve/loadgen.py"),
        )
        assert [f for f in findings if not f.suppressed] == []

    def test_out_of_scope_cli_not_scanned(self):
        src = "print('table output')\n"
        assert run_rule(StructuredLoggingOnly(), src, "cli.py") == []
        assert run_rule(
            StructuredLoggingOnly(), src, "experiments/cli.py"
        ) == []


def test_rule_pack_has_all_contract_rules():
    ids = {r.id for r in default_rules()}
    assert ids == {
        "DET001",
        "DET002",
        "SRV001",
        "SRV002",
        "REG001",
        "CFG001",
        "OBS001",
    }
