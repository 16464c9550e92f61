"""The repo benchmark: serving, streaming rank and sharded rank.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-1row --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload per call.  ``BENCHMARK.json`` gates ``serve-1row``,
``serve-rank64`` and ``shard-rank``.  ``stream-rank`` runs the same way
but is left out of the gate: it is a single CPU-bound process, and on a
shared 2-core box its run medians swung by up to 0.47 (quartile spread
over median, ten seeds) with the machine's speed, more than any bound
allows.  ``--trace 0`` measures the end-to-end metrics
with the program untraced; ``--trace 1`` is the separate run that
reports the per-layer metrics (see ``BENCHMARK.json`` for both lists).
The last line of standard output is the result object; the line
before it (``meta {...}``) records the run's metadata: machine and
software versions, the seed, the sample count behind every
percentile, shard placement and anything that went wrong.

``--workload all`` runs every workload with both ``--trace`` values,
each in its own process, and prints every metric by name with its unit.

Exit status: 0 with a result line when the run completed (the result
says whether outputs were correct); non-zero without one when it could
not complete (2: the checkout has no source tree to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

import common

WORKLOADS = ("serve-1row", "serve-rank64", "stream-rank", "shard-rank")
#: Hard stop for one workload run, below the 180 s a run may take.
RUN_DEADLINE_S = 170


def _per_layer_names() -> list:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return [(item["name"], item["unit"]) for item in spec["per_layer"]]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    common.require_source_tree()
    common.WORK_ROOT.mkdir(exist_ok=True)
    work_dir = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{workload}-", dir=common.WORK_ROOT))
    # Spill runs and temporary outputs, here and in every process this
    # run spawns (daemons, shard fleets, jobs), stay inside the checkout.
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = str(work_dir)
    try:
        import fixtures

        model_path = work_dir / "model.json"
        model = fixtures.fit_model(model_path)
        if workload.startswith("serve"):
            import serve as runner
        else:
            import rank as runner
        correct, attempted, failed, metrics, extra = runner.run(
            workload, seed, seconds, trace, work_dir, model_path, model)
        meta = common.run_metadata(workload, seed, trace)
        meta.update(extra)
        if trace:
            # Every per-layer metric is printed; those a workload does not
            # exercise read 0 and are listed as not applicable.
            meta["not_applicable"] = []
            for name, unit in _per_layer_names():
                if name not in metrics:
                    metrics[name] = common.metric(0.0, unit)
                    meta["not_applicable"].append(name)
        common.emit(meta, correct, max(attempted, 1), failed, metrics)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    common.require_source_tree()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(common.ROOT),
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, value in result["metrics"].items():
                print(f"   {name:42s} {value['value']:14.4f} {value['unit']}")
                total["metrics"][f"{workload}.{name}"] = value
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)

        def _overrun(signum, frame):
            raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

        signal.signal(signal.SIGALRM, _overrun)
        signal.alarm(RUN_DEADLINE_S)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except common.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
