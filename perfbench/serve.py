"""The serve workloads: keep-alive clients against a ``repro serve`` daemon.

Shape: a closed loop of ``CLIENTS`` threads, each holding one
keep-alive ``http.client`` connection and sending its next request only
after the previous response is read and checked.  Every response is
compared with the in-process oracle (same rows, same backend); a
wrong answer counts as a failed request.  Each client records the
local port of every socket it used, and a run in which any client
opened a second connection is rejected: the workload is labelled
keep-alive and must measure keep-alive.

Everything per layer is read from outside the daemon: client-side
timings, diffs of the JSON ``/metrics`` scraped around each measured
window, and (traced run only) ``GET /v1/debug/trace/<X-Request-Id>``.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

import common
import fixtures

MODEL_NAME = "bench"
#: Two clients: one per core of the 2-core box the benchmark was sized on.
CLIENTS = 2
BOOTS = 3
WARMUP_REQUESTS = 20
RANK_ROWS = 64
POOL = 64
#: Traces fetched per client after the traced window; the daemon's
#: default ring holds 256, so the most recent of both clients fit.
TRACES_PER_CLIENT = 100
BOOT_TIMEOUT_S = 30.0
#: The daemon's boot line, e.g. ``serving 1 model(s) on http://127.0.0.1:43210``.
_BOOT_LINE = re.compile(r"serving .* on http://[^:]+:(\d+)")


class Daemon:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, model_path, extra_args: Sequence[str] = ()):
        self.model_path = pathlib.Path(model_path)
        self.extra_args = list(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the first ``/healthz`` 200; return seconds."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--model", f"{MODEL_NAME}={self.model_path}",
                "--host", "127.0.0.1", "--port", "0", *self.extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=str(common.ROOT),
        )
        for line in self.proc.stdout:
            match = _BOOT_LINE.search(line)
            if match:
                self.port = int(match.group(1))
                break
        else:
            raise RuntimeError("daemon exited before printing its port")
        deadline = started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never answered /healthz")

    def request(self, method: str, path: str):
        """One request on a fresh connection (ops traffic, not measured)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def boot_daemon(model_path):
    """Boot ``BOOTS`` times, keep the last daemon; return it and the times."""
    times = []
    for attempt in range(BOOTS):
        daemon = Daemon(model_path)
        try:
            times.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
        if attempt < BOOTS - 1:
            daemon.stop()
    return daemon, times


# ----------------------------------------------------------------------
# Requests and their oracles
# ----------------------------------------------------------------------
def build_requests(workload: str, seed: int, model) -> List[tuple]:
    """``(path, body_bytes, expected_payload)`` for one workload and seed."""
    if workload == "serve-1row":
        X = fixtures.sample_rows(seed, POOL)
        path = f"/v1/models/{MODEL_NAME}/score"
        out = []
        for row in X:
            score = float(fixtures.score(model, row[np.newaxis, :])[0])
            body = {"row": row.tolist()}
            expected = {"model": MODEL_NAME, "n": 1, "scores": [score],
                        "score": score}
            out.append((path, json.dumps(body).encode(), expected))
        return out
    X = fixtures.sample_rows(seed, POOL * RANK_ROWS)
    path = f"/v1/models/{MODEL_NAME}/rank"
    out = []
    for b in range(POOL):
        rows = X[b * RANK_ROWS:(b + 1) * RANK_ROWS]
        labels = [f"s{seed}-b{b}-r{i}" for i in range(RANK_ROWS)]
        entries = fixtures.ranking_entries(fixtures.score(model, rows), labels)
        body = {"rows": rows.tolist(), "labels": labels}
        expected = {"model": MODEL_NAME, "n": RANK_ROWS, "ranking": entries}
        out.append((path, json.dumps(body).encode(), expected))
    return out


class Client(threading.Thread):
    """One keep-alive connection in a closed loop."""

    def __init__(self, index, port, requests, ready, go, deadline_box):
        super().__init__(daemon=True)
        self.index = index
        self.port = port
        self.requests = requests
        self.ready = ready
        self.go = go
        self.deadline_box = deadline_box
        self.latency: List[float] = []
        self.headers_wait: List[float] = []
        self.body_wait: List[float] = []
        self.request_ids: List[str] = []
        self.ports = set()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: List[str] = []
        self.n_sent = 0

    def _one(self, conn, record: bool) -> None:
        path, body, expected = self.requests[
            (self.n_sent + self.index * 7) % len(self.requests)
        ]
        request_id = f"c{self.index}-{self.n_sent}"
        self.n_sent += 1
        t0 = time.perf_counter()
        conn.request("POST", path, body=body, headers={
            "Content-Type": "application/json", "X-Request-Id": request_id,
        })
        self.ports.add(conn.sock.getsockname()[1])
        t1 = time.perf_counter()
        response = conn.getresponse()
        t2 = time.perf_counter()
        data = response.read()
        t3 = time.perf_counter()
        if not record:
            return
        ok = response.status == 200
        wrong = ok and json.loads(data) != expected
        self.attempted += 1
        if wrong or not ok:
            self.failed += 1
            self.wrong += wrong
            self.errors.append(f"{response.status} {data[:200]!r}")
            return
        self.latency.append(t3 - t0)
        self.headers_wait.append(t2 - t1)
        self.body_wait.append(t3 - t2)
        self.request_ids.append(request_id)

    def _send(self, conn, record: bool) -> None:
        try:
            self._one(conn, record)
        except (OSError, http.client.HTTPException) as exc:
            # Counted when measured; the reconnect it forces also fails
            # the run's keep-alive check.
            if record:
                self.attempted += 1
                self.failed += 1
                self.errors.append(repr(exc))
            conn.close()

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            for _ in range(WARMUP_REQUESTS):
                self._send(conn, record=False)
            self.ready.wait()
            self.go.wait()
            deadline = self.deadline_box[0]
            while time.perf_counter() < deadline:
                self._send(conn, record=True)
        except BaseException as exc:  # reported by run_window
            self.errors.append(f"client aborted: {exc!r}")
            self.ready.abort()
            self.go.abort()
        finally:
            conn.close()


def run_window(daemon: Daemon, requests, seconds: float) -> dict:
    """One measured window: metrics scrape, clients, metrics scrape."""
    ready = threading.Barrier(CLIENTS + 1)
    go = threading.Barrier(CLIENTS + 1)
    deadline_box = [0.0]
    clients = [
        Client(i, daemon.port, requests, ready, go, deadline_box)
        for i in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    try:
        ready.wait(timeout=60)
        before = daemon.get_json("/metrics")
        started = time.perf_counter()
        deadline_box[0] = started + seconds
        go.wait(timeout=60)
    except threading.BrokenBarrierError:
        raise RuntimeError(
            "client failed before the window: "
            + "; ".join(e for c in clients for e in c.errors)
        ) from None
    for client in clients:
        client.join(timeout=seconds + 60)
    elapsed = time.perf_counter() - started
    after = daemon.get_json("/metrics")
    return {
        "clients": clients,
        "elapsed": elapsed,
        "before": before,
        "after": after,
        "rss_mb": common.vm_hwm_mb(daemon.proc.pid),
    }


# ----------------------------------------------------------------------
# Deriving the metrics
# ----------------------------------------------------------------------
STAGES = ("admission", "parse", "registry", "validate", "execute", "serialize")


def _diff(after: dict, before: dict, *keys) -> float:
    for key in keys:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def client_stats(win: dict) -> dict:
    clients = win["clients"]
    latency = [x for c in clients for x in c.latency]
    return {
        "latency": latency,
        "attempted": sum(c.attempted for c in clients),
        "failed": sum(c.failed for c in clients),
        "wrong": sum(c.wrong for c in clients),
        "connections": [len(c.ports) for c in clients],
        "errors": [e for c in clients for e in c.errors][:5],
    }


def end_to_end(win: dict, boot_times: List[float], rows_per_request: int):
    stats = client_stats(win)
    attempted = max(stats["attempted"], 1)
    throughput = len(stats["latency"]) / win["elapsed"]
    return {
        "setup_s": common.metric(common.median(boot_times), "s"),
        "latency_p50_ms": common.metric(
            common.percentile(stats["latency"], 50) * 1e3, "ms"),
        "latency_p99_ms": common.metric(
            common.percentile(stats["latency"], 99) * 1e3, "ms"),
        "throughput_rps": common.metric(throughput, "1/s"),
        "rows_per_s": common.metric(throughput * rows_per_request, "1/s"),
        "success_rate": common.metric(
            1.0 - stats["failed"] / attempted, "ratio"),
        "peak_rss_mb": common.metric(win["rss_mb"], "MB"),
    }


def http_layers(win: dict, endpoint: str) -> Dict[str, dict]:
    """Client-side HTTP timings plus the ``/metrics`` diff of one window."""
    from repro.obs import percentile_from_buckets

    clients = win["clients"]
    before, after = win["before"], win["after"]
    hist_b = before["latency_histograms"]["endpoints"][endpoint]["buckets"]
    hist_a = after["latency_histograms"]["endpoints"][endpoint]["buckets"]
    server_p50_ms = percentile_from_buckets(
        np.subtract(hist_a, hist_b), 50) * 1e3
    client_p50_ms = common.percentile(
        [x for c in clients for x in c.latency], 50) * 1e3
    requests = _diff(after, before, "endpoints", endpoint, "requests")
    rows = _diff(after, before, "rows_scored_total")
    eng_a, eng_b = after["engine"], before["engine"]

    def per_row_us(key: str) -> float:
        return _diff(eng_a, eng_b, key) / rows * 1e6

    m = common.metric
    return {
        "server.http.headers_wait_ms": m(common.percentile(
            [x for c in clients for x in c.headers_wait], 50) * 1e3, "ms"),
        "server.http.body_wait_ms": m(common.percentile(
            [x for c in clients for x in c.body_wait], 50) * 1e3, "ms"),
        "server.http.server_p50_ms": m(server_p50_ms, "ms"),
        "server.http.gap_ms": m(client_p50_ms - server_p50_ms, "ms"),
        "server.http.connections_per_client": m(
            np.mean([len(c.ports) for c in clients]), "count"),
        "server.admission.peak_inflight": m(
            after["admission"]["peak_inflight"], "count"),
        "server.admission.shed": m(
            _diff(after, before, "admission", "shed_total"), "count"),
        "server.registry.reload_checks_per_req": m(
            _diff(after, before, "registry", "reload_checks") / requests,
            "ratio"),
        "geometry.engine.grid_scan_us_per_row": m(
            per_row_us("grid_scan_seconds"), "us"),
        "geometry.engine.gss_us_per_row": m(per_row_us("gss_seconds"), "us"),
        "geometry.engine.newton_us_per_row": m(
            per_row_us("newton_seconds"), "us"),
        "geometry.engine.newton_iters_per_row": m(
            _diff(eng_a, eng_b, "newton_iterations") / rows, "ratio"),
        "geometry.engine.calls": m(
            _diff(eng_a, eng_b, "scoring_calls"), "count"),
    }


def stage_layers(daemon: Daemon, win: dict) -> tuple:
    """Per-stage p50s from the daemon's own traces of the traced window."""
    ids = [
        request_id
        for client in win["clients"]
        for request_id in client.request_ids[-TRACES_PER_CLIENT:]
    ]
    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(
            lambda rid: daemon.request("GET", f"/v1/debug/trace/{rid}"), ids))
    traces = [json.loads(body)["trace"] for status, body in answers
              if status == 200]
    per_stage: Dict[str, List[float]] = {name: [] for name in STAGES}
    unspanned, total = [], []
    for trace in traces:
        spans: Dict[str, float] = {}
        for span in trace["spans"]:
            spans[span["name"]] = spans.get(span["name"], 0.0) + span[
                "duration_ms"]
        for name in STAGES:
            per_stage[name].append(spans.get(name, 0.0))
        total.append(trace["duration_ms"])
        unspanned.append(trace["duration_ms"] - sum(spans.values()))
    out = {
        f"stage.{name}_ms": common.metric(common.median(values), "ms")
        for name, values in per_stage.items()
    }
    out["stage.unspanned_ms"] = common.metric(common.median(unspanned), "ms")
    out["stage.trace_ms"] = common.metric(common.median(total), "ms")
    return out, len(traces)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(workload, seed, seconds, trace, work_dir, model_path, model):
    """Run one serve workload; return ``(correct, attempted, failed,
    metrics, meta)``."""
    requests = build_requests(workload, seed, model)
    action = requests[0][0].rsplit("/", 1)[1]
    endpoint = f"POST /v1/models/{{name}}/{action}"
    meta: dict = {"clients": CLIENTS, "request_pool": len(requests)}
    windows = []
    daemons = []
    try:
        if not trace:
            daemon, boots = boot_daemon(model_path)
            daemons.append(daemon)
            windows.append(run_window(daemon, requests, seconds))
            metrics = end_to_end(
                windows[0], boots, 1 if action == "score" else RANK_ROWS)
            meta["setup_samples"] = len(boots)
        else:
            plain = Daemon(model_path)
            daemons.append(plain)
            plain.start()
            windows.append(run_window(plain, requests, seconds / 2))
            metrics = http_layers(windows[0], endpoint)
            traced = Daemon(model_path, ["--trace", "on"])
            daemons.append(traced)
            traced.start()
            windows.append(run_window(traced, requests, seconds / 2))
            stages, n_traces = stage_layers(traced, windows[1])
            metrics.update(stages)
            p50 = [common.percentile(client_stats(w)["latency"], 50)
                   for w in windows]
            metrics["obs.trace_overhead_pct"] = common.metric(
                (p50[1] - p50[0]) / p50[0] * 100.0, "%")
            meta["client_p50_ms_untraced_traced"] = [x * 1e3 for x in p50]
            meta["traces_fetched"] = n_traces
    finally:
        for daemon in daemons:
            daemon.stop()
    stats = [client_stats(w) for w in windows]
    meta["latency_samples"] = [len(s["latency"]) for s in stats]
    meta["connections_per_client"] = [s["connections"] for s in stats]
    meta["errors"] = [e for s in stats for e in s["errors"]]
    keep_alive = all(n == 1 for s in stats for n in s["connections"])
    correct = keep_alive and not any(s["wrong"] for s in stats)
    if not keep_alive:
        meta["rejected"] = "a client opened more than one connection"
    return (
        correct,
        sum(s["attempted"] for s in stats),
        sum(s["failed"] for s in stats),
        metrics,
        meta,
    )
