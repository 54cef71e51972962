"""serve-mixed: ``repro serve`` under a seeded open-loop mix.

The server runs in its own process with default settings (see
``serve_launcher.py``); this process is the only client.  It keeps at
most ``CONNECTIONS`` requests in flight (the box has two cores) and
times every request from its due time, so a stalled server delays the
requests queued behind the stall.  The hot set is primed before timing;
about 90% of requests re-read it from the memory tier, about 10% are
fresh draws that miss, re-stamp the templates, run a batched solve and
write the cache.

Rounds of open-loop windows at 100 and 200 requests/s (evenly spaced
arrivals, every tenth request a miss) replay the same arrival times and
miss positions with fresh draws.  Each request position's latency is
its fastest replay, scaled to the reference machine speed by probes on
both cores (``bench_common.SpeedProbe``); capacity is the points the
server answered per second of its CPU time over the rounds.  Single
400 and 800 requests/s windows finish the max-rate ladder.  Every 200 body must equal
``evaluate_batch`` for the same parameters, record for record and bit
for bit.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import inputs as bench_inputs
from bench_common import (
    BENCH_DIR,
    SpeedProbe,
    child_env,
    median,
    metric,
    percentile,
    setup_metric,
    worker_args,
    write_json,
)

SETUP_BOOTS = 5
#: Requests in flight at most: one per core of the two-core box.
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 5.0
BOOT_TIMEOUT_S = 60.0
#: The max-rate ladder's latency limit on p99.
LATENCY_LIMIT_MS = 50.0
#: A ladder window stops sending once requests start this late.
BACKLOG_ABORT_S = 0.25
#: Speed probes per core before each window (the client and the server
#: are idle then).
PROBES_PER_WINDOW = 3
#: The fixed rate whose latency is the end-to-end figure: low enough
#: that a hit rarely queues behind a miss's solve, so p50 is the hit
#: path and p95 the miss path.
E2E_RATE = 100.0


def http(port: int, method: str, path: str, body: bytes = b""):
    """One request on a fresh connection -> ``(status, body)``; the
    status is ``None`` when the connection fails or times out."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=REQUEST_TIMEOUT_S) as sock:
            sock.sendall(head.encode("latin-1") + body)
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
    except OSError:
        return None, b""
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    try:
        return int(status_line.split(b" ", 2)[1]), payload
    except (IndexError, ValueError):
        return None, raw


class Server:
    """One ``repro serve`` process, ready once ``/healthz`` answers 200."""

    def __init__(self, trace: int, spans_path, log_path, cpu: int | None):
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   "--trace", str(trace)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace:
            command += ["--spans", str(spans_path)]
        self._log = open(log_path, "a")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        try:
            self.port = self._read_port(spawned + BOOT_TIMEOUT_S)
            while http(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > spawned + BOOT_TIMEOUT_S:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - spawned

    def _read_port(self, deadline: float) -> int:
        marker = "listening on http://127.0.0.1:"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port")
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           remaining)
            if not readable:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before it was ready")
            self._log.write(line)
            if marker in line:
                return int(line.split(marker, 1)[1].split()[0])

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server so far (all threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain (SIGTERM) and reap; kill if draining hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.write(self.proc.stdout.read())
        self.proc.stdout.close()
        self._log.close()


def open_loop(port: int, requests: list, abort_late_s: float | None = None):
    """Send ``[(due_s, body)]`` on schedule over ``CONNECTIONS`` sockets.

    Returns one entry per request: ``(status, payload, latency_s,
    queued_s, late_s)`` -- latency from the due time, time spent waiting
    for a free connection, and how late the generator itself sent it --
    or ``None`` for requests never sent after an abort.
    """
    results: list = [None] * len(requests)
    counter = itertools.count()
    aborted = threading.Event()
    t0 = time.monotonic() + 0.02

    def connection():
        free_at = time.monotonic()
        while not aborted.is_set():
            index = next(counter)
            if index >= len(requests):
                return
            due = t0 + requests[index][0]
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            sent = time.monotonic()
            status, payload = http(port, "POST", "/evaluate",
                                   requests[index][1])
            done = time.monotonic()
            results[index] = (status, payload, done - due,
                              max(free_at - due, 0.0),
                              sent - max(due, free_at))
            free_at = done
            if abort_late_s is not None and sent - due > abort_late_s:
                aborted.set()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, aborted.is_set()


def _metrics(port: int) -> dict:
    status, payload = http(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(payload)


def main() -> int:
    args = worker_args(__doc__)
    # Client and server each get a core of their own when there are
    # two, so the scheduler's placement of the two processes does not
    # vary from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    client_cpu, server_cpu = (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    spec = (json.loads(args.inputs.read_text()) if args.inputs
            else bench_inputs.serve_inputs(args.seed, args.seconds))
    out = args.out
    write_json(out / "inputs.json", spec)
    hot = spec["hot"]

    def overrides(request):
        return hot[request] if isinstance(request, int) else request

    def body(request) -> bytes:
        return json.dumps({"params": overrides(request),
                           "step": spec["step"]}).encode()

    spans_path = out / "spans.jsonl"
    log_path = out / "server.log"
    # Probes run on the client's core and on the server's (while the
    # server is idle), since the two cores need not run at one speed.
    probes = {cpu: SpeedProbe() for cpu in {client_cpu, server_cpu}}

    def sample_on(cpu_probes, count):
        for cpu, probe in cpu_probes.items():
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            probe.sample(count)
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})

    # Every request sent: (request, status, payload).
    sent: list[tuple] = []
    windows: dict[float, list] = {}  # rate -> one entry per window run

    def run_open(window, abort=None):
        requests = window["requests"]
        results, aborted = open_loop(
            port, [(due, body(req)) for due, req in requests], abort)
        sent.extend((req, r[0], r[1])
                    for (_due, req), r in zip(requests, results)
                    if r is not None)
        windows.setdefault(window["rate"], []).append(
            {"results": results, "aborted": aborted})

    setup_samples = []
    server = None
    try:
        # Boot several times for setup_s; the last server takes the load.
        for _ in range(1 if args.trace else SETUP_BOOTS):
            if server is not None:
                server.stop()
            server = Server(args.trace, spans_path, log_path, server_cpu)
            boot_probe = SpeedProbe()
            sample_on({server_cpu: boot_probe}, 5)
            setup_samples.append({"ready_s": server.ready_s,
                                  "slowdown": boot_probe.slowdown()})
        port = server.port
        for index in range(len(hot)):
            status, payload = http(port, "POST", "/evaluate", body(index))
            sent.append((index, status, payload))
        metrics_start = _metrics(port)
        rounds_ns = [time.perf_counter_ns()]
        rounds_cpu = [server.cpu_seconds()]
        answered = len(sent)
        for round_ in spec["rounds"]:
            for window in round_:
                sample_on(probes, PROBES_PER_WINDOW)
                run_open(window)
        rounds_cpu.append(server.cpu_seconds())
        answered = len(sent) - answered
        rounds_ns.append(time.perf_counter_ns())
        metrics_fixed = _metrics(port)
        for window in spec["ladder"]:
            run_open(window, abort=BACKLOG_ABORT_S)
        metrics_end = _metrics(port)
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # ------------------------------------------------------------------
    # Output checks: every 200 body equals evaluate_batch bit for bit.
    # ------------------------------------------------------------------
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.gsu.performability import evaluate_batch
    from repro.runtime.records import record_from_evaluation
    from repro.runtime.spec import default_grid

    expected: dict = {}

    def reference(request):
        key = json.dumps(overrides(request), sort_keys=True)
        if key not in expected:
            params = PAPER_TABLE3.with_overrides(**overrides(request))
            grid = default_grid(params.theta, step=spec["step"])
            expected[key] = [
                json.dumps(record_from_evaluation(evaluation), sort_keys=True)
                for evaluation in evaluate_batch(params, grid)
            ]
        return expected[key]

    failures = []
    for request, status, payload in sent:
        if status != 200:
            failures.append(f"status {status}: {payload[:120]!r}")
            continue
        try:
            points = json.loads(payload)["points"]
            got = [json.dumps(point["record"], sort_keys=True)
                   for point in points]
            consistent = all(point["y"] == point["record"]["value"]
                             for point in points)
        except (ValueError, KeyError, TypeError):
            got, consistent = None, False
        if not consistent or got != reference(request):
            failures.append(f"body differs from evaluate_batch for "
                            f"{overrides(request)}")

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def profile(runs):
        """Each request position's fastest latency (ms) over the replays
        of one window.  Rounds replay the same arrivals and miss
        positions, so what the fastest replay drops is one-off
        interference -- an interpreter-lock hand-off, a collector pass --
        that would otherwise decide a position's figure."""
        return [1e3 * min(run[i][2] for run in runs)
                for i in range(len(runs[0]))]

    def sustained(run):
        # Every request answered 200 within the limit at p99, and the
        # backlog did not grow: requests in the window's last quarter
        # waited no longer for a connection than those in its first.
        done = [r for r in run["results"] if r is not None]
        quarter = max(len(done) // 4, 1)
        waits = [r[3] for r in done]
        growth = median(waits[-quarter:]) - median(waits[:quarter])
        return (not run["aborted"] and all(r[0] == 200 for r in done)
                and percentile([r[2] * 1e3 for r in done], 0.99)
                <= LATENCY_LIMIT_MS
                and growth <= LATENCY_LIMIT_MS / 1e3)

    max_rate = 0.0
    for rate in sorted(windows):
        if not any(sustained(run) for run in windows[rate]):
            break
        max_rate = rate
    fixed_rates = [rate for rate, _ in bench_inputs.SERVE_ROUND_WINDOWS]
    profiles = {rate: profile([run["results"] for run in windows[rate]])
                for rate in fixed_rates}
    late_ms = [r[4] * 1e3 for rate in fixed_rates for run in windows[rate]
               for r in run["results"]]
    slowdown = median(probe.slowdown(fastest=True)
                      for probe in probes.values())
    e2e_profile = [ms / slowdown for ms in profiles[E2E_RATE]]
    # Capacity: the server runs on one core, so saturated it answers
    # as many points per second as it answers per second of its own CPU
    # time.  CPU time leaves out how its threads happened to interleave
    # under the interpreter lock, which moved a closed-loop measurement
    # by 25% from run to run.
    server_slowdown = probes[server_cpu].slowdown()
    capacity = (len(reference(0)) * answered
                / (rounds_cpu[1] - rounds_cpu[0]))
    result = {
        "attempted": len(sent),
        "failed": len(failures),
        "failures": failures[:20],
        "e2e": {
            "setup_s": setup_metric(setup_samples),
            "points_per_s": metric(capacity * server_slowdown, "1/s",
                                   answered),
            "peak_rss_mb": metric(rss_mb, "MB", 1),
            "lat_p50_ms": metric(median(e2e_profile), "ms",
                                 len(e2e_profile)),
            "lat_p95_ms": metric(percentile(e2e_profile, 0.95), "ms",
                                 len(e2e_profile)),
        },
        "notes": {
            "lat_p50_ms_r200": median(profiles[200.0]),
            "lat_p99_ms_r100": percentile(profiles[100.0], 0.99),
            "lat_p99_ms_r200": percentile(profiles[200.0], 0.99),
            "max_rate_rps": max_rate,
            "late_p99_ms": percentile(late_ms, 0.99),
            "requests": len(sent),
            "rounds": len(spec["rounds"]),
            "slowdown": slowdown,
            "unscaled_lat_p50_ms": median(profiles[E2E_RATE]),
            "unscaled_points_per_s": capacity,
            "connections": CONNECTIONS,
        },
    }
    if args.trace:
        import tracing

        spans, counters, span_cost = tracing.load(spans_path)
        summary = tracing.summarize(spans, (None, *rounds_ns))
        layers = tracing.layer_metrics(summary, counters, span_cost)
        layers.update(tracing.dispatch_metrics(
            metrics_start["solver"]["dispatch"],
            metrics_end["solver"]["dispatch"]))
        memory = {key: metrics_end["cache"]["memory"][key]
                  - metrics_start["cache"]["memory"][key]
                  for key in ("hits", "misses", "writes", "evictions")}
        for key, value in memory.items():
            layers[f"cache.memory.{key}"] = (value, "count")
        lookups = memory["hits"] + memory["misses"]
        layers["cache.memory.hit_rate"] = (
            memory["hits"] / lookups if lookups else 0.0, "ratio")
        solver_start, solver_end = (metrics_start["solver"],
                                    metrics_end["solver"])
        layers["batcher.batches"] = (
            solver_end["batches"] - solver_start["batches"], "count")
        layers["batcher.points_solved"] = (
            solver_end["points_solved"] - solver_start["points_solved"],
            "count")
        layers["batcher.points_coalesced"] = (
            solver_end["points_coalesced"] - solver_start["points_coalesced"],
            "count")
        layers["serve.rejected"] = (metrics_end["rejected_total"]
                                    - metrics_start["rejected_total"], "count")
        server_latency = metrics_fixed["latency"]["evaluate"]
        layers["serve.server_p50_ms"] = (server_latency["p50_ms"], "ms")
        layers["serve.server_p99_ms"] = (server_latency["p99_ms"], "ms")
        layers["serve.http_overhead_ms"] = (
            median(profiles[E2E_RATE]) - server_latency["p50_ms"], "ms")
        for rate, latencies in profiles.items():
            tag = f"r{rate:g}"
            layers[f"loadgen.lat_p50_ms.{tag}"] = (median(latencies), "ms")
            layers[f"loadgen.lat_p99_ms.{tag}"] = (
                percentile(latencies, 0.99), "ms")
        layers["loadgen.max_rate_rps"] = (max_rate, "1/s")
        layers["loadgen.late_p99_ms"] = (percentile(late_ms, 0.99), "ms")
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
    write_json(out / "result.json", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
