"""Benchmark for ehd2d: time to solution, step rate, set-up and memory.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole operations of one workload, each in a fresh interpreter
(worker.py), for about S seconds, then prints one line per operation,
every metric with its unit, and as the last line a JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, the median over the operations.
--trace 1 alternates an untraced and a traced operation and reports the
per-layer metrics of the traced ones; trace.overhead_s is the traced run_s
minus the untraced run_s, and the spans of the last traced operation are
written to benchmark/out/<workload>.trace.json.

The workloads are fixed presets, so --seed changes no input; it is
accepted and echoed so that runs can be told apart.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PROGRAM = os.path.join(os.path.dirname(HERE), "src", "ehd2d", "__init__.py")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0
# One BLAS thread: on two shared vCPUs, OpenBLAS's second thread made
# stationary-256 slower (median 3.19 s against 3.00 s) and less steady.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

END_TO_END = {"run_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _operation(workload, index, traced, deadline):
    opdir = os.path.join(OUT, workload, f"op{index}")
    shutil.rmtree(opdir, ignore_errors=True)
    os.makedirs(opdir)
    cmd = [sys.executable, WORKER, "--workload", workload, "--out", opdir,
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--trace-file", os.path.join(OUT, f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=WORKER_ENV,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"operation {index} ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _percentile_with_tail(samples, q):
    """q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100)[q - 1]
    return cut if sum(1 for s in samples if s > cut) >= 10 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(PROGRAM):
        print(f"benchmark error: no program at {PROGRAM}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  cpus {os.cpu_count()}")
    rounds = [False, True] if args.trace else [False]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results = []
    round_s = []
    try:
        # Another round starts only while it is expected to end nearer to
        # --seconds than stopping now would, so a run lasts about --seconds
        # however long one operation takes.
        while (not round_s or time.monotonic() - start
               + statistics.median(round_s) / 2 < args.seconds):
            round_start = time.monotonic()
            for traced in rounds:
                res = _operation(args.workload, len(results), traced, deadline)
                results.append((traced, res))
                _print_operation(len(results) - 1, traced, res)
            round_s.append(time.monotonic() - round_start)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    done = [(traced, r) for traced, r in results if r["exit_code"] == 0]
    failed = len(results) - len(done)
    correct = all(ok for _, r in done for _, ok, _ in r["checks"])
    if args.trace:
        metrics = _layer_summary(done)
    else:
        metrics = {
            name: {"value": statistics.median(r["metrics"][name] for _, r in done),
                   "unit": unit}
            for name, unit in END_TO_END.items()
        } if done else {}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(f"attempted {len(results)}  failed {failed}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if done else 1


def _print_operation(index, traced, res):
    kind = "traced" if traced else "untraced"
    if res["exit_code"] != 0:
        print(f"op {index} {kind}: FAILED exit {res['exit_code']} {res['error'] or ''}")
        return
    m = res["metrics"]
    bad = [f"{name} ({detail})" for name, ok, detail in res["checks"] if not ok]
    print(f"op {index} {kind}: run_s {m['run_s']:.4f}  setup_s {m['setup_s']:.4f}  "
          f"steps_per_s {m['steps_per_s']:.4f}  peak_rss_mb {m['peak_rss_mb']:.1f}  "
          f"checks {'FAILED: ' + '; '.join(bad) if bad else 'ok'}")


def _layer_summary(done):
    traced = [r for t, r in done if t]
    untraced = [r for t, r in done if not t]
    if not traced:
        return {}
    omitted = sorted({name for r in traced for name in r["omitted"]})
    missing = sorted({name for r in traced for name in r["missing"]})
    if missing:
        msg = (f"trace: missing entry points {', '.join(missing)}; "
               f"left out {', '.join(omitted)}")
        print(msg)
        print(msg, file=sys.stderr)
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    # The step percentiles pool the steps of every traced operation. 0 stands
    # for "no figure": no steps at all, or fewer than ten beyond the 90th
    # percentile; the line printed here says which.
    step_ms = [ms for r in traced for ms in r["step_ms"]]
    p50 = statistics.median(step_ms) if step_ms else 0.0
    p90 = _percentile_with_tail(step_ms, 90)
    if "sim.steps" in omitted:
        values.pop("sim.dt_distinct")
    elif not step_ms:
        print("sim.step: no steps; p50 and p90 printed as 0")
    else:
        print(f"sim.step: {len(step_ms)} samples, p50 {p50!r} ms, p90 "
              + (f"{p90!r} ms" if p90 is not None else "printed as 0 (fewer than "
                 "ten samples beyond it)"))
    if "sim.steps" not in omitted:
        values["sim.step.ms_p50"] = p50
        values["sim.step.ms_p90"] = p90 or 0.0
    if untraced:
        values["trace.overhead_s"] = (
            statistics.median(r["metrics"]["run_s"] for r in traced)
            - statistics.median(r["metrics"]["run_s"] for r in untraced))
    return {name: {"value": values[name], "unit": spans.UNITS[name]} for name in sorted(values)}


if __name__ == "__main__":
    sys.exit(main())
