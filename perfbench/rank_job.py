"""Ranking jobs, each in a fresh process forked from a warm parent.

Each repetition of ``stream-rank`` and ``shard-rank`` runs in its own
process, because repeated in-process calls drift.  A cold interpreter
pays about a second of imports per job, which would leave a measured
window with few repetitions on a noisy box; so this script starts once
(interpreter, imports and, for ``stream``, ``load_model``), prints
``{"ready_mono": ...}`` (``time.monotonic()``, a clock shared by every
process on the host, so the parent can time the start-up), then forks
one child per ``go`` line on standard input.  Every child starts from
the same untouched state, runs one job and prints one JSON line: the
job's wall time, rows ranked and its peak RSS.  With ``--trace 1`` the
child first installs timing probes around the public functions the
job goes through and reports the split.  End of input stops the
parent.

Usage::

    python3 perfbench/rank_job.py stream --model M --csv IN --out OUT --trace 0
    python3 perfbench/rank_job.py shard --shards URL,URL --model-name NAME \\
        --csv IN --out OUT --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from collections import defaultdict

import common
import fixtures


def _timed_iter(iterable, acc, key):
    iterator = iter(iterable)
    while True:
        t0 = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            acc[key] += time.perf_counter() - t0
            return
        acc[key] += time.perf_counter() - t0
        yield item


def install_probes(acc) -> None:
    """Time CSV parse, scoring, spill-phase adds and the merge."""
    import repro.serving.batch as batch_mod
    import repro.serving.stream as stream_mod
    import repro.sharding.coordinator as coord_mod
    from repro.serving.extsort import ExternalSorter

    chunks = stream_mod.iter_csv_chunks

    def iter_csv_chunks(*args, **kwargs):
        return _timed_iter(chunks(*args, **kwargs), acc, "csv_parse_s")

    stream_mod.iter_csv_chunks = iter_csv_chunks
    coord_mod.iter_csv_chunks = iter_csv_chunks

    score_batch = batch_mod.score_batch

    def timed_score_batch(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return score_batch(*args, **kwargs)
        finally:
            acc["score_s"] += time.perf_counter() - t0
            acc["score_calls"] += 1

    batch_mod.score_batch = timed_score_batch

    def timed_method(name, key):
        method = getattr(ExternalSorter, name)

        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                acc[key] += time.perf_counter() - t0

        setattr(ExternalSorter, name, wrapper)

    # The coordinator's spill phase adopts shipped runs instead of adding.
    timed_method("add", "add_s")
    timed_method("adopt_run_bytes", "add_s")
    ranked = ExternalSorter.ranked

    def timed_ranked(self):
        t0 = time.perf_counter()
        merged = ranked(self)
        acc["merge_s"] += time.perf_counter() - t0
        acc["runs"] = self.runs_spilled
        return _timed_iter(merged, acc, "merge_s")

    ExternalSorter.ranked = timed_ranked


def run_job(args, model) -> dict:
    """One job in this process; returns its report."""
    acc = defaultdict(float)
    report: dict = {}
    if args.trace:
        install_probes(acc)
    if args.mode == "stream":
        from repro.obs import EngineProfile, activate
        from repro.serving import stream_rank_csv

        profile = EngineProfile()
        t0 = time.perf_counter()
        with activate(profile):
            n_rows, _ = stream_rank_csv(
                model, args.csv, args.out, backend=fixtures.BACKEND,
                memory_budget_rows=fixtures.MEMORY_BUDGET_ROWS,
            )
        job_s = time.perf_counter() - t0
        acc.update({f"engine.{k}": v for k, v in profile.totals().items()})
    else:
        from repro.sharding import ShardCoordinator

        block_times = []
        coordinator = ShardCoordinator(
            args.shards.split(","), args.model_name,
            rows_per_block=fixtures.ROWS_PER_BLOCK,
            on_block=lambda *_: block_times.append(time.perf_counter()),
        )
        t0 = time.perf_counter()
        n_rows, _ = coordinator.rank_csv(args.csv, args.out)
        job_s = time.perf_counter() - t0
        gaps = [b - a for a, b in zip(block_times, block_times[1:])]
        acc["block_gap_ms"] = common.median(gaps) * 1e3
        report["stats"] = coordinator.stats()
    report.update(job_s=job_s, rows=n_rows, rss_mb=common.vm_hwm_mb(),
                  layers=dict(acc))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["stream", "shard"])
    parser.add_argument("--csv", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--model")
    parser.add_argument("--shards")
    parser.add_argument("--model-name")
    args = parser.parse_args(argv)
    common.require_source_tree()

    import repro.serving  # noqa: F401 - warm imports shared by every fork
    import repro.sharding  # noqa: F401
    from repro import load_model

    model = load_model(args.model) if args.mode == "stream" else None
    print(json.dumps({"ready_mono": time.monotonic()}), flush=True)
    for _ in sys.stdin:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                print(json.dumps(run_job(args, model)), flush=True)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status:
            print(json.dumps({"error": f"job exited with status {status}"}),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
