"""One workload in one process: set up, run whole rounds, check every answer.

Started by ``run.py``.  Prints ``READY`` once the inputs are written and the
first operation can run, then, unless ``--setup-only``, runs rounds of the
workload's operations for about ``--seconds`` and prints one JSON line with
its counts and metrics.  Each operation calls
``barterclear.cli.main`` in this process, from input file to output file.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import barterclear.cli  # noqa: E402  (the import is part of set-up)

import workloads  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from spans import OP_SPAN, Tracer  # noqa: E402

EXIT_BUDGET = 3


def run_op(op: workloads.Op, tracer: Tracer | None) -> tuple[float, str, list[str], str]:
    """Time one operation's CLI calls; returns (seconds, status, stdouts,
    last stderr) with status "ok", "budget" or a description of the failure."""
    outs: list[str] = []
    status, err = "ok", ""
    span = tracer.begin(OP_SPAN) if tracer else None
    start = perf_counter()
    for argv in op.steps:
        out, errs = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(errs):
                code = barterclear.cli.main(argv)
        except Exception as exc:  # a crash is a result to report, not to hide
            status = f"{argv[0]} raised {type(exc).__name__}: {exc}"
            break
        outs.append(out.getvalue())
        err = errs.getvalue()
        if code == EXIT_BUDGET and "node limit" in err:
            status = "budget"
            break
        if code != 0:
            status = f"{argv[0]} exited {code}: {err.strip()}"
            break
    elapsed = perf_counter() - start
    if span:
        tracer.end(span)
    return elapsed, status, outs, err


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, HERE / "work" / args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # the benchmark's own objects stay out of the program's garbage collections
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # times[i] holds operation i's wall time in every round
    times: list[list[float]] = [[] for _ in ops]
    credited = 0
    failed = 0
    correct = True
    rounds = 0
    round_s = 0.0
    start = perf_counter()
    # whole rounds, as many as end closest to --seconds
    while rounds == 0 or perf_counter() - start + round_s / 2 < args.seconds:
        round_start = perf_counter()
        for op, op_times in zip(ops, times):
            elapsed, status, outs, err = run_op(op, tracer)
            op_times.append(elapsed)
            if status == "ok":
                try:
                    credited += op.check(outs)
                except WrongAnswer as exc:
                    correct = False
                    print(f"{args.workload} {op.name}: wrong answer: {exc}", file=sys.stderr)
                except Exception as exc:  # e.g. an output file not written
                    correct = False
                    print(f"{args.workload} {op.name}: unreadable answer: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            failed += 1
            if status != "budget" or not op.budget_stop:
                correct = False
                print(f"{args.workload} {op.name}: failed: {status} {err.strip()}",
                      file=sys.stderr)
        rounds += 1
        round_s = perf_counter() - round_start

    # Each operation's median over the rounds: the machine's speed drifts
    # over seconds, and a median over rounds drops the rounds a burst of
    # outside load sped up or slowed down.
    typical = [statistics.median(op_times) for op_times in times]
    if tracer:
        metrics, shares = tracer.summary(rounds)
        tracer.write(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "ops_per_round": len(ops), "per_round": metrics, "self_share": shares})
    else:
        metrics = {
            "op_s_p50": statistics.median(typical),
            "vertices_per_s": credited / rounds / sum(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops), "failed": failed,
                      "rounds": rounds, "round_s": sum(typical),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
