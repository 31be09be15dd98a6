"""Clearing benchmark: file-to-file barterclear operations, checked answers.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a process of its own (``worker.py``), single-threaded,
so its peak memory is its own.  With ``--trace 0`` the benchmark prints the
end-to-end metrics; set-up time is the median of ``SETUP_SAMPLES`` fresh
processes, each timed from its start until its first operation could run.
With ``--trace 1`` it prints the per-layer metrics of a traced run and writes
the spans to ``perfbench/results/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("maxsize-market", "colors-market", "sat-gadgets")
SETUP_SAMPLES = 5
# metric name -> unit, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"] + _SPEC["per_layer"]}
# One thread everywhere: numeric libraries must not start pools of their own.
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchmarkError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: int, trace: int,
            setup_only: bool) -> tuple[float, str]:
    """Run one worker process; returns (seconds until READY, its last line)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read().strip().splitlines()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}")
    return setup, rest[-1] if rest else ""


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The workload's result object, and a line saying how many rounds ran
    and how long a round's operations took (medians over the rounds)."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(workload, seed, seconds, trace, setup_only=True)[0])
    setup, line = _worker(workload, seed, seconds, trace, setup_only=False)
    setups.append(setup)
    result = json.loads(line)
    values = result["metrics"]
    if not trace:
        values = {"setup_s": statistics.median(setups), **values}
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return ({"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics},
            f"{result['rounds']} rounds, {result['round_s']:.4g} s of operations per round")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "barterclear").is_dir():
        print(f"error: no barterclear sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            result, rounds = run_workload(workload, args.seed, args.seconds, args.trace)
            results[workload] = result
            print(f"{workload}: attempted {result['attempted']} failed {result['failed']}"
                  f" correct {str(result['correct']).lower()}; {rounds}")
            for name, metric in result["metrics"].items():
                print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
