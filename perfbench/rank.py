"""The ranking workloads: ``stream-rank`` and ``shard-rank``.

Both rank the same seeded CSV (``fixtures.CSV_ROWS`` rows), each
repetition in a fresh process forked by a ``rank_job.py`` server, until
the measured window is used up.  Every job's output file is compared byte for byte
with the oracle: for ``stream-rank`` the in-memory
``build_ranking_list`` ranking, for ``shard-rank`` the output of
``stream_rank_csv`` on the same input (itself checked against the
in-memory ranking first).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import common
import fixtures

SHARDS = 2
MODEL_NAME = "bench"
BOOTS = 3
JOB_SCRIPT = pathlib.Path(__file__).resolve().parent / "rank_job.py"


class JobServer:
    """A ``rank_job.py`` fork server; each :meth:`run` is one fresh job."""

    def __init__(self, args: List[str], work_dir: pathlib.Path):
        spawned = time.monotonic()
        self._stderr = (work_dir / "jobs.err").open("a")
        self.proc = subprocess.Popen(
            [sys.executable, str(JOB_SCRIPT), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, cwd=str(common.ROOT),
        )
        self.setup_s = self._read()["ready_mono"] - spawned

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"rank job server exited ({self.proc.wait()})")
        report = json.loads(line)
        if "error" in report:
            raise RuntimeError(report["error"])
        return report

    def run(self) -> dict:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _boot_servers(args: List[str], work_dir: pathlib.Path, boots: int):
    """Start the job server ``boots`` times; keep the last one."""
    times = []
    for attempt in range(boots):
        server = JobServer(args, work_dir)
        times.append(server.setup_s)
        if attempt < boots - 1:
            server.close()
    return server, times


def _boot_fleet(model_path: pathlib.Path):
    """Boot the shard fleet ``BOOTS`` times; keep the last one."""
    from repro.sharding import LocalShardFleet

    times = []
    for attempt in range(BOOTS):
        fleet = LocalShardFleet(model_path, n_shards=SHARDS,
                                model_name=MODEL_NAME)
        t0 = time.perf_counter()
        fleet.__enter__()
        times.append(time.perf_counter() - t0)
        if attempt < BOOTS - 1:
            fleet.terminate()
    return fleet, times


def _shard_rollup(fleet) -> dict:
    from repro.sharding import fetch_shard_metrics, rollup_metrics

    return rollup_metrics(
        [fetch_shard_metrics(url) for url in fleet.urls], fleet.urls)


def _shard_buckets(rollup: dict) -> list:
    """The fleet's merged ``rank-shard`` latency buckets."""
    from repro.obs import N_LATENCY_BUCKETS

    cells = rollup["latency_histograms"]["endpoints"].get(
        "POST /v1/models/{name}/rank-shard")
    return cells["buckets"] if cells else [0] * N_LATENCY_BUCKETS


def _layer_medians(jobs: List[dict], key: str) -> float:
    return common.median([job["layers"].get(key, 0.0) for job in jobs])


def run(workload, seed, seconds, trace, work_dir, model_path, model):
    """Run one ranking workload; return ``(correct, attempted, failed,
    metrics, meta)``."""
    csv_path = work_dir / "input.csv"
    out_path = work_dir / "ranking.csv"
    X, labels = fixtures.write_rank_csv(seed, csv_path)
    expected = fixtures.expected_ranking_csv(
        model, X, labels, work_dir / "expected.csv")
    meta: dict = {"rows": fixtures.CSV_ROWS,
                  "memory_budget_rows": fixtures.MEMORY_BUDGET_ROWS,
                  "rows_per_block": fixtures.ROWS_PER_BLOCK}
    correct = True
    fleet = server = None
    try:
        if workload == "stream-rank":
            job_args = ["stream", "--model", str(model_path)]
        else:
            from repro.serving import stream_rank_csv

            stream_rank_csv(
                model, csv_path, work_dir / "stream.csv",
                backend=fixtures.BACKEND,
                memory_budget_rows=fixtures.MEMORY_BUDGET_ROWS,
            )
            reference = (work_dir / "stream.csv").read_bytes()
            if reference != expected:
                correct = False
                meta["reference_mismatch"] = "stream-rank != in-memory"
            expected = reference
            fleet, setup = _boot_fleet(model_path)
            before = _shard_rollup(fleet)
            job_args = ["shard", "--shards", ",".join(fleet.urls),
                        "--model-name", MODEL_NAME]
        job_args += ["--csv", str(csv_path), "--out", str(out_path),
                     "--trace", str(trace)]
        if fleet is None:
            server, setup = _boot_servers(job_args, work_dir, BOOTS)
        else:
            server = JobServer(job_args, work_dir)
        meta["setup_s"] = setup

        jobs: List[dict] = []
        failed = 0
        started = time.perf_counter()
        while True:
            try:
                job = server.run()
            except (RuntimeError, ValueError) as exc:
                failed += 1
                meta.setdefault("errors", []).append(str(exc)[-500:])
                job = None
            if job is not None:
                if out_path.read_bytes() != expected or job["rows"] != len(X):
                    failed += 1
                    correct = False
                else:
                    jobs.append(job)
                out_path.unlink()
            elapsed = time.perf_counter() - started
            typical = elapsed / (len(jobs) + failed)
            if elapsed + typical > seconds:
                break
        if fleet is not None:
            after = _shard_rollup(fleet)
    finally:
        if server is not None:
            server.close()
        if fleet is not None:
            fleet.terminate()

    attempted = len(jobs) + failed
    meta["jobs"] = attempted
    meta["latency_samples"] = len(jobs)
    meta["job_s"] = [round(job["job_s"], 4) for job in jobs]
    if workload == "shard-rank":
        # Ephemeral ports move blocks between shards from run to run, so
        # placement is recorded with every run, traced or not.
        shares = [job["stats"]["blocks_by_shard"] for job in jobs]
        meta["blocks_by_shard"] = [sorted(s.values()) for s in shares]
        meta["block_share_max"] = [
            max(s.values()) / sum(s.values()) for s in shares]
    if not jobs:
        return False, attempted, failed, {}, meta

    m = common.metric
    job_s = [job["job_s"] for job in jobs]
    if not trace:
        metrics = {
            "setup_s": m(common.median(meta["setup_s"]), "s"),
            "latency_p50_ms": m(common.median(job_s) * 1e3, "ms"),
            "latency_p99_ms": m(common.percentile(job_s, 99) * 1e3, "ms"),
            "throughput_rps": m(len(jobs) / elapsed, "1/s"),
            "rows_per_s": m(common.median(
                [job["rows"] / job["job_s"] for job in jobs]), "1/s"),
            "success_rate": m(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": m(common.median(
                [job["rss_mb"] for job in jobs]), "MB"),
        }
        return correct, attempted, failed, metrics, meta

    metrics: Dict[str, dict] = {}
    parts = ["csv_parse_s", "score_s", "add_s", "merge_s"]
    other = common.median([
        job["job_s"] - sum(job["layers"].get(k, 0.0) for k in parts)
        for job in jobs
    ])
    metrics["serving.stream.csv_parse_s"] = m(
        _layer_medians(jobs, "csv_parse_s"), "s")
    metrics["serving.stream.score_s"] = m(_layer_medians(jobs, "score_s"), "s")
    metrics["serving.stream.other_s"] = m(other, "s")
    metrics["serving.extsort.runs"] = m(_layer_medians(jobs, "runs"), "count")
    metrics["serving.extsort.add_s"] = m(_layer_medians(jobs, "add_s"), "s")
    metrics["serving.extsort.merge_s"] = m(
        _layer_medians(jobs, "merge_s"), "s")
    if workload == "stream-rank":
        rows = len(X)
        for phase in ("grid_scan", "gss", "newton"):
            metrics[f"geometry.engine.{phase}_us_per_row"] = m(
                _layer_medians(jobs, f"engine.{phase}_seconds") / rows * 1e6,
                "us")
        metrics["geometry.engine.newton_iters_per_row"] = m(
            _layer_medians(jobs, "engine.newton_iterations") / rows, "ratio")
        metrics["geometry.engine.calls"] = m(
            _layer_medians(jobs, "score_calls"), "count")
    else:
        from repro.obs import percentile_from_buckets

        buckets = np.subtract(_shard_buckets(after), _shard_buckets(before))
        stats = [job["stats"] for job in jobs]
        metrics["sharding.coordinator.blocks"] = m(
            common.median([s["n_blocks"] for s in stats]), "count")
        metrics["sharding.coordinator.retried_blocks"] = m(
            sum(s["retried_blocks"] for s in stats), "count")
        metrics["sharding.coordinator.block_gap_ms"] = m(
            _layer_medians(jobs, "block_gap_ms"), "ms")
        metrics["sharding.shard_server_p50_ms"] = m(
            percentile_from_buckets(buckets, 50) * 1e3, "ms")
        metrics["sharding.hashring.block_share_max"] = m(
            common.median(meta["block_share_max"]), "ratio")
    return correct, attempted, failed, metrics, meta
