"""The ``serve-mixed`` workload: HTTP requests to a service in its own process.

The service is ``python -m repro serve`` (``serve_traced.py`` for a traced
run).  Two keep-alive clients in this process send a closed loop of
requests cycling through a seed-derived pool: 90% ``POST /graphs/g/bfs``,
10% ``POST /graphs/g/sssp``, one root each.  The loop stops at a whole
number of pool cycles, so per-request work counts are exact per seed, and
not before 200 BFS answers, so their p95 has ten samples beyond it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from checks import BFSChecker, check_sssp
from common import (
    BenchError,
    Outcome,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
)
from workloads import Scale, src_env

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS = 2
BOOT_TIMEOUT_S = 120.0


class Service:
    """One service process; ``boot_s`` is process start until /healthz ready."""

    def __init__(self, argv: List[str], env: Dict[str, str], graph: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True)
        try:
            self.port = self._read_port(start + BOOT_TIMEOUT_S)
            self._wait_ready(graph, start + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.perf_counter() < deadline:
                if not selector.select(timeout=deadline - time.perf_counter()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError(f"service exited with {self.proc.wait()}")
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
        finally:
            selector.close()
        raise BenchError("service did not report its address in time")

    def _wait_ready(self, graph: str, deadline: float) -> None:
        while time.perf_counter() < deadline:
            status, body = self.get("/healthz")
            if status == 200 and json.loads(body)["graphs"].get(graph, {}).get("ready"):
                return
            time.sleep(0.02)
        raise BenchError("service did not become ready in time")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Exchange:
    """One request/response as the client saw it."""

    __slots__ = ("index", "status", "body", "latency")

    def __init__(self, index: int, status: int, body: bytes, latency: float):
        self.index = index
        self.status = status
        self.body = body
        self.latency = latency


def drive(port: int, pool: List[Tuple[str, int]], seconds: float,
          min_requests: int = 0, clients: int = CLIENTS
          ) -> Tuple[List[Exchange], float]:
    """Closed loop of ``clients`` keep-alive clients over whole pool cycles.

    Runs until ``seconds`` have passed and ``min_requests`` were sent, then
    to the end of the current pool cycle.  Returns the exchanges and the
    loop's wall time.
    """
    lock = threading.Lock()
    state = {"next": 0, "stop_at": None}
    exchanges: List[Exchange] = []
    errors: List[BaseException] = []
    start = time.perf_counter()

    def take() -> Optional[int]:
        with lock:
            i = state["next"]
            if (state["stop_at"] is None and i >= min_requests
                    and time.perf_counter() - start >= seconds):
                state["stop_at"] = max(1, -(-i // len(pool))) * len(pool)
            if state["stop_at"] is not None and i >= state["stop_at"]:
                return None
            state["next"] = i + 1
            return i

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                i = take()
                if i is None:
                    return
                kind, root = pool[i % len(pool)]
                payload = json.dumps({"root": root})
                sent = time.perf_counter()
                conn.request("POST", f"/graphs/g/{kind}", body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                latency = time.perf_counter() - sent
                with lock:
                    exchanges.append(Exchange(i % len(pool), response.status,
                                              body, latency))
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    return exchanges, wall


def make_pool(graph, seed: int, scale: Scale) -> List[Tuple[str, int]]:
    """Seeded request pool: distinct Graph500 roots, 10% of them SSSP."""
    from repro.algorithms.graph500 import sample_roots

    rng = np.random.default_rng(seed)
    roots = [int(r) for r in sample_roots(graph, scale.serve_pool, seed=rng)]
    kinds = ["sssp"] * scale.serve_sssp + ["bfs"] * (scale.serve_pool - scale.serve_sssp)
    rng.shuffle(kinds)
    return list(zip(kinds, roots))


class Verdicts:
    """Validates each pool entry's first answer; repeats must equal it.

    The result arrays must always repeat exactly.  The report and the
    simulated time describe the whole flush, so they depend on which other
    requests shared it: they must repeat between flushes of the same pool
    entries.  :meth:`judge_all` groups one service's exchanges by flush id
    to learn each flush's members.
    """

    def __init__(self, graph, pool: List[Tuple[str, int]], outcome: Outcome):
        self.graph = graph
        self.pool = pool
        self.outcome = outcome
        self.checker = BFSChecker(graph)
        self.results: Dict[int, Tuple[str, bool]] = {}
        self.reports: Dict[Tuple[int, Tuple[int, ...]], str] = {}
        #: Simulated seconds per pool entry, from a width-1 execution.
        self.sim_s: Dict[int, float] = {}
        #: Flush size of every BFS answer.
        self.flush_sizes: List[int] = []

    def judge_all(self, exchanges: List[Exchange], label: str) -> List[Optional[dict]]:
        """Check the exchanges of one service; parsed bodies of right answers."""
        bodies = [json.loads(ex.body) if ex.status == 200 else None
                  for ex in exchanges]
        members: Dict[object, List[int]] = {}
        for ex, body in zip(exchanges, bodies):
            if body is not None and body["flush"]:
                members.setdefault(body["flush"]["id"], []).append(ex.index)
        return [self.judge(ex, body, members, label)
                for ex, body in zip(exchanges, bodies)]

    def judge(self, ex: Exchange, body: Optional[dict],
              members: Dict[object, List[int]], label: str) -> Optional[dict]:
        """Check one exchange; returns its body when it is right."""
        if body is None:
            self.outcome.fail(f"{label} request {ex.index}: HTTP {ex.status}")
            return None
        kind, root = self.pool[ex.index]
        size = body["flush"]["size"] if body["flush"] else 1
        flush = (tuple(sorted(members[body["flush"]["id"]])) if body["flush"]
                 else (ex.index,))
        if len(flush) != size:
            self.outcome.fail(f"{label} request {ex.index}: flush of size {size} "
                              f"answered {len(flush)} requests")
            return None
        if kind == "bfs":
            self.flush_sizes.append(size)
        result = json.dumps(body["result"], sort_keys=True)
        sim = body["timing"]["sim_execution_seconds"]
        report = json.dumps([body["report"], sim], sort_keys=True)
        if ex.index not in self.results:
            if kind == "bfs":
                answer = body["result"]
                problem = self.checker.check(root, answer["levels"], answer["parents"])
            else:
                problem = check_sssp(self.graph, root, body["result"]["distances"])
            if problem is not None:
                self.outcome.fail(f"{kind} root {root}: {problem}")
            self.results[ex.index] = (result, problem is None)
        elif self.results[ex.index][0] != result:
            self.outcome.fail(f"{label} request {ex.index}: result differs from "
                              "the first answer to the same request")
            return None
        if self.reports.setdefault((ex.index, flush), report) != report:
            self.outcome.fail(f"{label} request {ex.index}: IOReport differs from an "
                              f"earlier flush of the same requests {list(flush)}")
            return None
        if size == 1:
            self.sim_s.setdefault(ex.index, sim)
        return body if self.results[ex.index][1] else None


def serve_mixed(seed: int, seconds: float, trace: bool, scale: Scale,
                src_dir: str) -> Outcome:
    """Served BFS/SSSP mix against ``repro serve`` (2 closed-loop clients)."""
    from repro.serve.registry import parse_graph_spec

    outcome = Outcome()
    name, graph = parse_graph_spec(scale.serve_spec)
    pool = make_pool(graph, seed, scale)
    # Enough BFS answers for a p95 with at least ten samples beyond it.
    bfs_share = (scale.serve_pool - scale.serve_sssp) / scale.serve_pool
    min_requests = math.ceil(scale.serve_min_bfs / bfs_share)
    verdicts = Verdicts(graph, pool, outcome)
    env = src_env(src_dir)
    plain = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--warmup", scale.serve_spec]

    if trace:
        # Reference cycle on the untraced service: answers to compare the
        # traced ones against, and the untraced latency for the overhead.
        service = Service(plain, env, name)
        try:
            reference, _ = drive(service.port, pool, 0.0)
        finally:
            service.stop()
        reference_ok = [b is not None for b in verdicts.judge_all(reference, "untraced")]
        traced = [sys.executable, "-u", os.path.join(HERE, "serve_traced.py"),
                  "--port", "0", "--warmup", scale.serve_spec]
        service = Service(traced, env, name)
        try:
            before = _admission(service, name)
            service.get("/perfbench/layers?reset=1")
            exchanges, _ = drive(service.port, pool, seconds, min_requests)
            snapshot = json.loads(service.get("/perfbench/layers")[1])
            after = _admission(service, name)
        finally:
            service.stop()
        bodies = verdicts.judge_all(exchanges, "traced")
        ok = [b for b in bodies if b is not None]
        n = len(exchanges)
        latency = sum(ex.latency for ex in exchanges) / n
        handler = snapshot["incl_s"].get("serve.handler", 0.0) / n
        flushes = [b["flush"]["size"] for b in ok if b["flush"]]
        outcome.metrics.update(layer_metrics(
            snapshot, n, latency, wire_s=latency - handler,
            extra={
                "serve.flush_size": sum(flushes) / len(flushes) if flushes else 0.0,
                "serve.flush_retries": (after["flush_retries"]
                                        - before["flush_retries"]) / n,
                "serve.serial_fallbacks": (after["serial_fallbacks"]
                                           - before["serial_fallbacks"]) / n,
                "trace.overhead": latency / (
                    sum(ex.latency for ex in reference) / len(reference)),
            },
        ))
        outcome.attempted = len(reference) + n
        outcome.failed = outcome.attempted - sum(reference_ok) - len(ok)
        return outcome

    services = []
    try:
        for _ in range(scale.setup_repeats):
            if services:
                services[-1].stop()
            services.append(Service(plain, env, name))
        service = services[-1]
        exchanges, wall = drive(service.port, pool, seconds, min_requests)
        rss = service.peak_rss_mb()
    finally:
        for service in services:
            service.stop()
    bodies = verdicts.judge_all(exchanges, "untraced")
    ok = [b for b in bodies if b is not None]
    latencies = [ex.latency for ex in exchanges]
    outcome.attempted = len(exchanges)
    outcome.failed = len(exchanges) - len(ok)
    outcome.metrics.update({
        "setup_s": median([s.boot_s for s in services]),
        "op_s": median(latencies),
        "queries_per_s": len(ok) / wall,
        # fsum: exact, so independent of the order answers arrived in.
        "sim_s_per_query": math.fsum(verdicts.sim_s.values()) / len(verdicts.sim_s),
        "resp_kb": sum(len(ex.body) for ex in exchanges) / len(exchanges) / 1024.0,
        "peak_rss_mb": rss,
    })
    bfs = [ex.latency * 1000 for ex in exchanges if pool[ex.index][0] == "bfs"]
    sssp = [ex.latency * 1000 for ex in exchanges if pool[ex.index][0] == "sssp"]
    flushes = verdicts.flush_sizes
    outcome.notes.update({
        "req_per_s": len(ok) / wall,
        "bfs_p50_ms": median(bfs) if bfs else None,
        "bfs_p95_ms": percentile(bfs, 95) if bfs else None,
        "bfs_samples": len(bfs),
        "sssp_p50_ms": median(sssp) if sssp else None,
        "sssp_samples": len(sssp),
        "failed_frac": outcome.failed / len(exchanges),
        "max_flush_size": max(flushes, default=0),
        "coalesced_bfs": sum(size > 1 for size in flushes),
    })
    return outcome


def _admission(service: Service, name: str) -> dict:
    status, body = service.get(f"/graphs/{name}/stats")
    if status != 200:
        raise BenchError(f"GET /graphs/{name}/stats returned {status}")
    return json.loads(body)["admission"]
