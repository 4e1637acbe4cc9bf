"""What one benchmark run is made of: server children, the run, the metrics.

``Server`` is one launcher child in its own process group; ``Run`` holds
the oracle, the seeded traffic and the failure tally of one workload
run; ``measure`` is the end-to-end run.  ``layers.traced_run`` is the
traced one.
"""

from __future__ import annotations

import atexit
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import estimators
import launcher
import loadgen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

N_CLIENTS = 2  # closed loop: two callers, each waiting for its reply
WINDOW_S = 2.0
WARM_S = 0.3
SETUP_BOOTS = 3
PREVERIFY_QUERIES = 64
BOOT_TIMEOUT_S = 120.0


# ------------------------------------------------------------------ servers
class Server:
    """One launcher child in its own process group, plus its scratch dir."""

    live: list["Server"] = []

    def __init__(self, topology: str) -> None:
        self.scratch = OUT / f"server-{os.getpid()}-{time.monotonic_ns()}"
        self.scratch.mkdir(parents=True)
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.scratch),
        )
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), topology, "--scratch", str(self.scratch)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(HERE),
            start_new_session=True,
        )
        Server.live.append(self)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"{topology} server did not come up")
            hello = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.port: int = hello["port"]
        self.phases: dict[str, float] = hello["phases"]
        self.pgid = self.proc.pid  # start_new_session makes the child its group leader

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        """End the child and everything it started; remove its scratch."""
        if self in Server.live:
            Server.live.remove(self)
        try:
            self.proc.stdin.close()  # the launcher tears down when its stdin closes
        except OSError:
            pass
        for escalation in (None, signal.SIGTERM, signal.SIGKILL):
            if escalation is not None:
                self._signal_group(escalation)
            try:
                self.proc.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
        self._signal_group(signal.SIGKILL)  # stragglers in the group
        while True:  # ... which this process adopted when their parent ended: wait for each
            try:
                os.waitpid(-self.proc.pid, 0)
            except ChildProcessError:
                break
        self.proc.stdout.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""  # gone already


def end_children(keep_tracker: bool = False) -> None:
    """Kill every child of this process and wait until each has ended,
    again and again while their orphans keep arriving."""
    me = os.getpid()
    while True:
        children = [pid for pid, fields in loadgen.proc_stats() if int(fields[1]) == me]
        if keep_tracker:
            children = [pid for pid in children if b"resource_tracker" not in _cmdline(pid)]
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def stop_servers_on_exit() -> None:
    """No process outlives the benchmark.  This process becomes the
    subreaper of everything below it, so a grandchild whose parent has
    ended is still ours to wait for; at exit it stops the servers, then
    whatever else is left (nothing, on a clean run), then lets
    ``multiprocessing``'s resource tracker finish and waits for it.
    SIGTERM becomes an exit so the handlers run."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # without it an orphan is init's to reap; it is still killed

    def stop_all() -> None:
        for server in list(Server.live):
            server.stop()
        end_children(keep_tracker=True)  # a live pool worker would hold the tracker's pipe open
        launcher.stop_resource_tracker()
        end_children()

    atexit.register(stop_all)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def get_json(port: int, endpoint: str) -> dict:
    with loadgen.Connection(port) as conn:
        status, body = conn.roundtrip(workloads.encode_request(endpoint, None))
    if status != 200:
        raise RuntimeError(f"GET /v1/{endpoint} answered {status}")
    return json.loads(body)


# ----------------------------------------------------------------- one run
class Run:
    """Shared state of one workload run: oracle, traffic, failure tally."""

    def __init__(self, workload: str, seed: int) -> None:
        from oracle import Oracle

        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.oracle = Oracle()
        self.universe = self.oracle.universe()
        self.requests = workloads.build_requests(self.workload, seed, self.universe)
        self.preverified = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def judge(self, request, status: int, body: bytes, where: str) -> None:
        """An answer must be a 200 the oracle agrees with."""
        self.attempted += 1
        problem = f"HTTP {status}" if status != 200 else self.oracle.check(request, body)
        if problem:
            self.fail(f"{where}: {problem}")

    def boot_verified(self) -> tuple[Server, float]:
        """Boot the topology; setup ends when the first response (verified
        right after) arrives, so lazy first-request work is inside it."""
        server = Server(self.workload.topology)
        try:
            with loadgen.Connection(server.port) as conn:
                status, body = conn.roundtrip(self.requests[0].raw)
            setup = time.perf_counter() - server.spawned
            self.judge(self.requests[0], status, body, "first response")
        except BaseException:
            server.stop()
            raise
        return server, setup

    def preverify(self, server: Server) -> None:
        """Answer the head of the request cycle and compare every body."""
        per_request = workloads.BATCH_QUERIES if self.workload.kind == "batch" else 1
        self.preverified = min(len(self.requests), max(1, PREVERIFY_QUERIES // per_request))
        with loadgen.Connection(server.port) as conn:
            for request in self.requests[: self.preverified]:
                self.judge(request, *conn.roundtrip(request.raw), "preverify")

    def absorb(self, logs: list[loadgen.ClientLog]) -> None:
        for log in logs:
            self.attempted += log.attempted
            self.failed += log.failed
            self.problems.extend(log.errors[: max(0, 5 - len(self.problems))])

    def check_samples(self, samples, writes) -> None:
        """Compare every kept body with the oracle.  With writes in the
        run, a read is right if it matches the compendium as it stood at
        any moment between the read's start and its end: the oracle
        replays the acknowledged writes in order and each read is tried
        against every version it could have seen."""
        # (sample, first version it could have seen, last version)
        pending = [
            (
                sample,
                sum(1 for w in writes if w[3] <= sample[2]),  # acknowledged before it started
                sum(1 for w in writes if w[2] < sample[3]),  # sent before it finished
            )
            for sample in samples
        ]
        for version in range(len(writes) + 1):
            if version:
                request, body, _, _ = writes[version - 1]
                problem = self.oracle.check_ingest(request, body)
                if problem:
                    self.fail(problem)
            later = []
            for sample, first, last in pending:
                if version < first:
                    later.append((sample, first, last))
                    continue
                problem = self.oracle.check(self.requests[sample[0]], sample[1])
                if problem is None:
                    continue
                if version < last:
                    later.append((sample, first, last))
                else:
                    self.fail(f"sampled: {problem}")
            pending = later

    def check_datasets(self, server: Server, writes) -> None:
        """Every acknowledged ingest must be listed with its fingerprint."""
        listed = {d["name"]: d["fingerprint"] for d in get_json(server.port, "datasets")["datasets"]}
        for request, body, _, _ in writes:
            ack = json.loads(body)
            if listed.get(request.payload["name"]) != ack.get("fingerprint"):
                self.fail(f"ingest {request.payload['name']} missing from /v1/datasets")

    def load(self, server: Server, windows: int, window_s: float):
        """Warm, then drive ``windows`` measured windows.  Returns the
        per-window rows plus the pooled latencies and write latencies."""
        raws = [r.raw for r in self.requests]
        mixed = self.workload.topology == "ingest"
        # clients start spread over the cycle and past the preverified head,
        # which a cold workload must not find in the cache
        readers = [
            loadgen.Client(server.port, raws, offset=self.preverified + k * len(raws) // N_CLIENTS)
            for k in range(N_CLIENTS)
        ]
        writer = None
        ingests: list[workloads.Request] = []
        if mixed:
            per_window = max(1, round(window_s / workloads.INGEST_PERIOD_S))
            ingests = workloads.build_ingests(self.seed, self.universe, windows * per_window)
            writer = loadgen.Client(server.port, [r.raw for r in ingests], sample_every=1)
        rows, pooled, samples, writes = [], [], [], []
        try:
            loadgen.run_window(WARM_S, readers)
            for _ in range(windows):
                cpu0 = loadgen.tree_cpu_seconds(server.pgid)
                elapsed, logs, wlog = loadgen.run_window(
                    window_s, readers, writer, workloads.INGEST_PERIOD_S
                )
                cpu = loadgen.tree_cpu_seconds(server.pgid) - cpu0
                self.absorb(logs + ([wlog] if wlog else []))
                latencies = [x for log in logs for x in log.latencies]
                done = len(latencies) + (len(wlog.latencies) if wlog else 0)
                rows.append(
                    {
                        "rps": done / elapsed,
                        "p50_ms": estimators.percentile(latencies, 50) * 1e3 if latencies else 0.0,
                        "cpu_ms": cpu * 1e3 / done if done else 0.0,
                    }
                )
                pooled.extend(latencies)
                samples.extend(s for log in logs for s in log.samples)
                if wlog:
                    writes.extend((ingests[i], body, s, f) for i, body, s, f in wlog.samples)
        finally:
            for client in readers + ([writer] if writer else []):
                client.close()
        self.check_samples(samples, writes)
        if mixed:
            self.check_datasets(server, writes)
        return rows, pooled, [w[3] - w[2] for w in writes]

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def window_plan(seconds: float, window_s: float) -> int:
    return max(1, int(seconds // window_s))


def measure(workload: str, seed: int, seconds: float, window_s: float = WINDOW_S) -> dict:
    """The end-to-end run (tracing off).  Returns the driver result plus
    ``detail`` (spreads and extras the table prints)."""
    run = Run(workload, seed)
    setups = []
    server = None
    for _ in range(SETUP_BOOTS):
        if server is not None:
            server.stop()
        server, setup = run.boot_verified()
        setups.append(setup)
    try:
        run.preverify(server)
        rows, pooled, write_latencies = run.load(server, window_plan(seconds, window_s), window_s)
        peak_rss = loadgen.tree_peak_rss_mb(server.pgid)
    finally:
        server.stop()

    rps = estimators.undisturbed([r["rps"] for r in rows], "higher")
    p50 = estimators.undisturbed([r["p50_ms"] for r in rows], "lower")
    cpu = estimators.undisturbed([r["cpu_ms"] for r in rows], "lower")
    metrics = {
        "throughput_rps": {"value": rps["value"], "unit": "1/s"},
        "latency_p50_ms": {"value": p50["value"], "unit": "ms"},
        "server_cpu_ms_per_req": {"value": cpu["value"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    result = run.result(metrics)
    result["detail"] = {
        "spread": {"throughput_rps": rps, "latency_p50_ms": p50, "server_cpu_ms_per_req": cpu},
        "setups_s": setups,
        "latency_samples": len(pooled),
        "latency_p95_ms": estimators.percentile(pooled, 95) * 1e3 if pooled else 0.0,
        "write_p50_ms": statistics.median(write_latencies) * 1e3 if write_latencies else None,
        "writes": len(write_latencies),
        "problems": run.problems,
    }
    return result
