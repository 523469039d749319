"""serve-mixed: open-loop Poisson traffic against a fresh ``repro serve`` process.

Bodies and due offsets come from ``repro.serve.loadgen.plan_requests``.
Each request is timed from its *due* time, not from when it was sent, so
a stall of the generator shows up in the latencies of the requests it
delays; how late requests went out is reported as ``loadgen.late_tail_ms``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, geometric_mean, median

import numpy as np

from calibrate import HostClock
from common import (
    CheckFailed,
    balanced_gmean,
    check_reference,
    child_env,
    descendants,
    note,
    percentile,
    tail,
    tree_peak_rss_mb,
)
from repro.api import Pipeline, Topology
from repro.partitioning.partition import Partition
from repro.serve.loadgen import LoadProfile, http_request_json, plan_requests
from repro.serve.scheduler import GraphSpec
from repro.serve.service import parse_request
from spans import Recorder, layer_metrics, patched
from workloads import Serve

HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve --workers 1`` process and its pool worker."""

    def __init__(self, root: Path, log_dir: Path, traced: bool) -> None:
        self.port = _free_port()
        args = [sys.executable, "-m", "repro", "serve", "--workers", "1",
                "--host", HOST, "--port", str(self.port)]
        # A traced server keeps every request's span tree for /debug/traces.
        args += ["--trace-buffer", "100000"] if traced else ["--no-trace"]
        log_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(log_dir / "server.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=root, env=child_env(root),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
        )

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from spawning the server to its first ok ``/healthz``."""
        async def poll() -> float:
            while time.perf_counter() - self.started < timeout:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with {self.proc.returncode}")
                try:
                    status, body = await http_request_json(
                        HOST, self.port, "GET", "/healthz", timeout=5.0)
                    if status == 200 and body.get("status") == "ok":
                        return time.perf_counter() - self.started
                except OSError:
                    pass
                await asyncio.sleep(0.005)
            raise RuntimeError("server did not become healthy")

        return asyncio.run(poll())

    def get(self, path: str) -> dict:
        status, body = asyncio.run(http_request_json(HOST, self.port, "GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return body

    def stop(self) -> None:
        """Interrupt the server, then wait until it and its workers are gone."""
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        deadline = time.monotonic() + 20
        while children and time.monotonic() < deadline:
            children = [p for p in children if Path(f"/proc/{p}").exists()]
            time.sleep(0.02)
        for pid in children:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        self._log.close()


def cold_start(root: Path, out_dir: Path, keep: bool = False) -> tuple[float, Server | None]:
    """One server spawn timed to its first ok ``/healthz``; the server if ``keep``."""
    server = Server(root, out_dir, traced=False)
    try:
        seconds = server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    if keep:
        return seconds, server
    server.stop()
    return seconds, None


def plan(spec: Serve, seed: int, seconds: float) -> list[tuple[float, str, dict]]:
    profile = LoadProfile(
        scenario=spec.scenario, requests=spec.requests(seconds), rate=spec.rate,
        seed=seed, nh=spec.nh, seed_pool=spec.seed_pool, hot_keys=spec.hot_keys,
        hot_fraction=spec.hot_fraction, repeat_fraction=spec.repeat_fraction,
        enhance_fraction=spec.enhance_fraction,
    )
    return [(offset, _op(body), body) for offset, body in plan_requests(profile)]


def drive(port: int, schedule: list[tuple[float, str, dict]]) -> tuple[list, float]:
    """Send every request at its due time; ``(latency, lateness, status, reply)`` each."""
    async def main():
        t0 = time.perf_counter() + 0.05

        async def fire(offset: float, op: str, body: dict):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            try:
                status, reply = await http_request_json(
                    HOST, port, "POST", f"/{op}", body, timeout=60.0)
            except (OSError, asyncio.TimeoutError) as exc:
                status, reply = 0, repr(exc)
            return time.perf_counter() - due, sent - due, status, reply

        tasks = [asyncio.create_task(fire(*item)) for item in schedule]
        samples = await asyncio.gather(*tasks)
        return samples, time.perf_counter() - t0

    return asyncio.run(main())


def _key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def _op(body: dict) -> str:
    return str(body.get("op", "map"))


class Checker:
    """Checks each reply's map against the graph and topology of its body."""

    def __init__(self, epsilon: float = 0.03) -> None:
        self.epsilon = epsilon
        self._graphs: dict[str, object] = {}

    def graph(self, body: dict):
        key = _key(body["graph"])
        if key not in self._graphs:
            self._graphs[key] = GraphSpec.from_wire(body["graph"]).build()
        return self._graphs[key]

    def check_reply(self, body: dict, reply: dict) -> None:
        graph = self.graph(body)
        n_pe = Topology.from_name(body["topology"]).n
        mu = np.asarray(reply["mu"], dtype=np.int64)
        if len(mu) != graph.n:
            raise CheckFailed(f"reply map has length {len(mu)}, not {graph.n}")
        if mu.min() < 0 or mu.max() >= n_pe:
            raise CheckFailed(f"reply map has PE ids outside 0..{n_pe - 1}")
        if not Partition(graph, mu, n_pe).is_balanced(self.epsilon):
            raise CheckFailed(f"reply map breaks the {self.epsilon} balance bound")


def prepare(bodies: list[tuple[str, dict]]) -> tuple[list[tuple], dict]:
    """Pipelines, requests and graphs for an in-process rerun; ``(requests, api)``.

    ``api`` holds the first-access seconds of each session's labeling and
    distances, summed over the topologies the bodies use.
    """
    api = {"api.labeling_s": 0.0, "api.distances_s": 0.0}
    requests, warmed = [], set()
    for op, body in bodies:
        req = parse_request(body, require_mu=(op == "enhance"))
        session = Topology.from_name(req.topology)
        if req.topology not in warmed:
            warmed.add(req.topology)
            t0 = time.perf_counter()
            session.labeling
            t1 = time.perf_counter()
            session.distances
            api["api.labeling_s"] += t1 - t0
            api["api.distances_s"] += time.perf_counter() - t1
        requests.append((Pipeline(session, req.config), req, req.graph.build()))
    return requests, api


def warm_up(requests: list[tuple]) -> None:
    """One untimed run of the first body of each class (topology, op).

    Lazy imports and first-call costs would otherwise land in the timed
    rerun, on the first body of each class.
    """
    seen = set()
    for pipe, req, graph in requests:
        cls = (req.topology, req.mu is None)
        if cls not in seen:
            seen.add(cls)
            pipe.run(graph, mu=req.mu, seed=req.seed)


def rerun(requests: list[tuple], recorder: Recorder | None, clock: HostClock):
    """Run prepared requests in-process through ``Pipeline``; ``(results, seconds)``."""
    results, seconds = [], []
    for pipe, req, graph in requests:
        clock.tick()
        t0 = time.perf_counter()
        if recorder is None:
            results.append(pipe.run(graph, mu=req.mu, seed=req.seed))
        else:
            with recorder.span("map"):
                results.append(pipe.run(graph, mu=req.mu, seed=req.seed))
        seconds.append(time.perf_counter() - t0)
    return results, seconds


def load_run(spec: Serve, root: Path, out_dir: Path, schedule, traced: bool,
             server: Server | None = None) -> dict:
    """One fresh server under the schedule; everything measured about it."""
    if server is None:
        server = Server(root, out_dir, traced)
    try:
        server.wait_healthy()
        samples, wall = drive(server.port, schedule)
        metrics = server.get("/metrics?format=json")
        traces = server.get("/debug/traces?recent=100000&slowest=0") if traced else None
        rss = tree_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    return {"samples": samples, "wall": wall, "metrics": metrics,
            "traces": traces, "rss": rss}


def evaluate(spec: Serve, schedule, run: dict, checker: Checker) -> dict:
    """Sort replies into hits and misses and check each against its body.

    ``replies`` maps each distinct body answered to its first reply, in
    schedule order; ``hits`` and ``misses`` hold ``(latency, reply, body)``.
    """
    hits, misses, late, failures = [], [], [], []
    slo_ok = 0
    replies: dict[str, tuple[str, dict, dict]] = {}
    for (_, op, body), (latency, lateness, status, reply) in zip(schedule, run["samples"]):
        late.append(lateness)
        try:
            if status != 200 or not isinstance(reply, dict) or not reply.get("ok"):
                raise CheckFailed(f"/{op} answered {status}: {str(reply)[:200]}")
            if reply.get("degraded"):
                raise CheckFailed(f"/{op} answered degraded ({reply.get('degraded_mode')})")
            checker.check_reply(body, reply)
            _, _, first = replies.setdefault(_key(body), (op, body, reply))
            if (first["identity_hash"], first["mu"]) != (reply["identity_hash"], reply["mu"]):
                raise CheckFailed("two replies to one body differ")
        except CheckFailed as exc:
            failures.append(str(exc))
            continue
        (hits if reply.get("cached") else misses).append((latency, reply, body))
        slo_ok += latency <= spec.slo_s
    return {"hits": hits, "misses": misses, "late": late, "failures": failures,
            "slo_ok": slo_ok, "replies": replies}


def by_class(pairs) -> dict[tuple[str, str], list[float]]:
    """``(body, value)`` pairs grouped by request class: (topology, op).

    The classes differ in cost by up to 10x (an /enhance skips
    partitioning; fattree4x3 has 84-bit labels), and a run draws only a
    few dozen bodies, so figures weigh every class the same instead of
    following this seed's class mix.
    """
    out: dict[tuple[str, str], list[float]] = {}
    for body, value in pairs:
        out.setdefault((body["topology"], _op(body)), []).append(value)
    return out


def quality(replies: dict, checker: Checker) -> tuple[dict, dict]:
    """Quality of the distinct bodies answered, each counted once.

    Returns the per-class sums (compared bit for bit across runs) and the
    ratios averaged over classes with equal weight (see :func:`by_class`).
    """
    sums: dict[str, dict[str, float]] = {}
    for _, body, reply in replies.values():
        s = sums.setdefault(f"{body['topology']}/{_op(body)}", dict.fromkeys(
            ("coco_before", "coco_after", "cut_after", "edge_weight"), 0.0))
        for metric in ("coco_before", "coco_after", "cut_after"):
            s[metric] += reply["metrics"][metric]
        s["edge_weight"] += checker.graph(body).total_edge_weight()
    ratios = {
        "coco_hops": fmean(s["coco_after"] / s["edge_weight"] for s in sums.values()),
        "coco_quotient": fmean(s["coco_after"] / s["coco_before"] for s in sums.values()),
        "cut_ratio": fmean(s["cut_after"] / s["edge_weight"] for s in sums.values()),
    }
    return sums, ratios


def verify_rerun(bodies, results, replies: dict) -> list[str]:
    failures = []
    for (_, body), result in zip(bodies, results):
        _, _, reply = replies[_key(body)]
        if result.identity_hash != reply["identity_hash"] or [
            int(x) for x in result.mu_final
        ] != reply["mu"]:
            failures.append(f"in-process rerun differs from the served reply for "
                            f"{body['topology']}/{body['graph'].get('instance')}")
    return failures


def run(spec: Serve, name: str, root: Path, out_dir: Path,
        seed: int, seconds: float, trace: bool) -> tuple[bool, int, int, dict]:
    schedule = plan(spec, seed, seconds)
    checker = Checker()
    for _, _, body in schedule:
        checker.graph(body)  # build inputs before the clock starts

    clock = HostClock()
    server = None
    setups: list[float] = []
    # A third of the spawns go before the load, the rest after the rerun,
    # so their median spans host states tens of seconds apart.
    before = spec.setup_probes // 3
    for i in range(0 if trace else before):
        took, server = cold_start(root, out_dir, keep=i + 1 == before)
        setups.append(took)
    plain = load_run(spec, root, out_dir, schedule, traced=False, server=server)
    result = evaluate(spec, schedule, plain, checker)
    failures = list(result["failures"])
    # Every distinct body answered is recomputed in-process and compared.
    bodies = [(op, body) for op, body, _ in result["replies"].values()]
    requests, api = prepare(bodies)
    warm_up(requests)
    recorder = Recorder() if trace else None
    with patched(recorder) if trace else contextlib.nullcontext():
        rerun_results, rerun_seconds = rerun(requests, recorder, clock)
    for _ in range(0 if trace else spec.setup_probes - before):
        setups.append(cold_start(root, out_dir)[0])
    failures += verify_rerun(bodies, rerun_results, result["replies"])
    sums, ratios = quality(result["replies"], checker)
    try:
        check_reference(out_dir, f"{name}-{seed}-{len(schedule)}", sums,
                        store=not failures)
    except CheckFailed as exc:
        failures.append(str(exc))
    for failure in failures[:10]:
        note(f"FAILED: {failure}")
    misses = by_class((body, lat * 1e3) for lat, _, body in result["misses"])
    note(f"{len(schedule)} requests at {spec.rate}/s: {len(result['misses'])} misses "
         f"{ {'/'.join(c): len(v) for c, v in sorted(misses.items())} }, "
         f"{len(result['hits'])} hits, {len(failures)} failed; {len(bodies)} rerun in-process")

    if not trace:
        note(f"setup_s raw samples {[round(x, 4) for x in setups]}")
        maps = by_class((body, sec) for (_, body), sec in zip(bodies, rerun_seconds))
        raw = {
            "maps_per_s": 1.0 / fmean(fmean(v) for v in maps.values()),
            "map_gmean_ms": balanced_gmean(maps) * 1e3,
        }
        factor = clock.host_factor()
        note(f"raw: {raw}; host factor {factor:.4f}")
        metrics = {
            # The server's set-up and served latencies stay raw: the
            # kernel runs in this process and its elasticity was fitted on
            # in-process maps, not on another process's start or load.
            "setup_s": median(setups),
            "maps_per_s": raw["maps_per_s"] * factor,
            "map_gmean_ms": raw["map_gmean_ms"] / factor,
            "miss_gmean_ms": balanced_gmean(misses),
            "slo_ok_frac": result["slo_ok"] / len(schedule),
            **ratios,
            "peak_rss_mb": plain["rss"],
        }
        return not failures, len(schedule), len(failures), metrics

    traced = load_run(spec, root, out_dir, schedule, traced=True)
    tresult = evaluate(spec, schedule, traced, checker)
    failures += tresult["failures"]
    for key, (_, body, reply) in tresult["replies"].items():
        _, _, plain_reply = result["replies"].get(key, (None, None, reply))
        if (reply["identity_hash"], reply["mu"]) != (plain_reply["identity_hash"],
                                                    plain_reply["mu"]):
            failures.append(f"traced server's reply for {body['topology']} differs")
    timers = [r.timer for r in rerun_results if r.timer is not None]
    metrics = {
        **api,
        **layer_metrics(recorder, sum(len(t.history) for t in timers),
                        sum(t.hierarchies_accepted for t in timers)),
        **serve_layers(tresult, traced),
        "obs.trace_overhead_frac": balanced_gmean(by_class(
            (body, lat * 1e3) for lat, _, body in tresult["misses"]))
        / balanced_gmean(misses) - 1.0,
    }
    return not failures, 2 * len(schedule), len(failures), metrics


def serve_layers(result: dict, run: dict) -> dict:
    """The serve.* and loadgen.* figures of one traced server run."""
    misses = result["misses"]
    queue = [r["batch"]["queue_seconds"] * 1e3 for _, r, _ in misses]
    compute = [r["batch"]["compute_seconds"] * 1e3 for _, r, _ in misses]
    overhead = [lat * 1e3 - q - c for (lat, _, _), q, c in zip(misses, queue, compute)]
    m = run["metrics"]
    cache_lookups = m["response_cache_hits_total"] + m["response_cache_misses_total"]
    stages: dict[str, list[float]] = {"stage:partition": [], "stage:enhance": []}
    for trace in run["traces"]["recent"]:
        for span in trace["spans"]:
            if span["name"] in stages:
                stages[span["name"]].append(span["duration"] * 1e3)
    return {
        "serve.queue_wait_p50_ms": percentile(queue, 0.5),
        "serve.compute_p50_ms": percentile(compute, 0.5),
        "serve.overhead_p50_ms": percentile(overhead, 0.5),
        "serve.miss_tail_ms": tail([lat * 1e3 for lat, _, _ in misses]),
        "serve.hit_gmean_ms": geometric_mean([lat * 1e3 for lat, _, _ in result["hits"]]),
        "serve.batch_size_mean": m["batch_size"]["mean"],
        "serve.cache_hit_ratio": m["response_cache_hits_total"] / max(cache_lookups, 1),
        "serve.coalesced": m["coalesced_total"],
        # Pipeline runs per distinct run identity sent: 1.0 wastes nothing.
        "serve.computes_per_distinct": m["batch_unique"]["sum"] / len(result["replies"]),
        "serve.busy_frac": m["compute_seconds"]["sum"] / run["wall"],
        "serve.rejected": m["rejected_total"],
        "serve.retries": m["retries_total"],
        "serve.stage_partition_ms": percentile(stages["stage:partition"], 0.5),
        "serve.stage_enhance_ms": percentile(stages["stage:enhance"], 0.5),
        "loadgen.late_tail_ms": tail([x * 1e3 for x in result["late"]]),
    }
