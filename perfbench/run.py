"""pimodulo benchmark: one command, every workload, every metric.

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload check --seed 0 --seconds 25 --trace 0

A run measures for `run_seconds` of BENCHMARK.json, the length its bounds
were set for.  `--seconds` is part of the benchmark's command line
(`--workload W --seed N --seconds S --trace T`); it may be left out, and
any value other than `run_seconds` is refused.

Each measurement runs in a fresh worker process (`worker.py`) started from
the root of the checkout, with a fixed hash seed so that exact counts
repeat.  With `--trace 0` the end-to-end metrics are printed: throughput,
per-verdict latency, set-up time (the median of several fresh set-ups) and
peak RSS, with failures by class.  With `--trace 1` a traced worker
prints the per-layer metrics.  The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

The exit code is non-zero, and no result is printed, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("check", "model-sweep", "scan")
SETUPS = 5            # fresh set-ups per run, the timed worker's included
DEADLINE_S = 170      # a run must end within 180 s

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class WorkerFailed(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PIMODULO_FUEL"}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} timed out") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"worker {' '.join(args)} printed no result") from None


def end_to_end(workload: str, seed: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [worker(base + ["--setup-only"], deadline) for _ in range(SETUPS - 1)]
    result = worker(base + ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"], deadline)
    setups.append(result)
    metrics = dict(result["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
    raw = dict(result["raw"], setup_s=statistics.median(s["raw_setup_s"] for s in setups))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: seed {seed}, {result['samples']} items timed over {result['busy_s']:.2f} s, "
          f"set-up median of {len(setups)} fresh processes; the calibration load ran "
          f"{result['slowdown']:.3f}x its nominal time (mean of {result['calibrations']}), "
          f"so times are divided by that and rates multiplied (raw figures in brackets)")
    for name in END_TO_END_UNITS:
        in_raw = f"[{raw[name]:.4f}]" if name in raw else ""
        print(f"  {name:<16} {metrics[name]:12.4f} {END_TO_END_UNITS[name]:<8} {in_raw}")
    print(f"  {'failed_frac':<16} {failed / attempted:12.4f} ratio   "
          f"({failed} of {attempted} verdicts; by class: {result['classes']})")
    print_probe(result["probe"])
    if result["unexpected"]:
        print(f"  UNEXPECTED failures: {result['unexpected']}")
    # The result line's keys are fixed, so the unscaled figures and the
    # factor go on the line before it, where a move of the factor shows.
    print(json.dumps({"raw": raw, "slowdown": result["slowdown"]}))
    return {"correct": result["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}


def print_probe(probe: dict) -> None:
    """The probe's failures are printed, not counted in the result line,
    whose items are the timed ones."""
    if probe["attempted"]:
        print(f"  probe: failed_frac {probe['failed'] / probe['attempted']:.4f} "
              f"({probe['failed']} of {probe['attempted']} untimed checks; "
              f"by class: {probe['classes']})")
    if probe["unexpected"]:
        print(f"  UNEXPECTED probe failures: {probe['unexpected']}")


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    result = worker(["--workload", workload, "--seed", str(seed), "--trace", "1"], deadline)
    metrics = result["metrics"]
    print(f"{workload}: seed {seed}, traced {result['traced_s']:.2f} s vs untraced "
          f"{result['untraced_s']:.2f} s for the same blocks; {result['spans']} spans kept, "
          f"{result['spans_dropped']} past the cap")
    ranked = sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
    print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked if v > 0))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit_of(name)}")
    for key, value in result["invariants"].items():
        if key.endswith("sha256"):
            print(f"  {key:<36} {value}")
    for note in result["drift"]:
        print(f"  DRIFT from the recorded run: {note}")
    print_probe(result["probe"])
    if result["unexpected"]:
        print(f"  UNEXPECTED failures: {result['unexpected']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "invariants": result["invariants"],
        "overhead_frac": result["traced_s"] / result["untraced_s"] - 1,
    }


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; all when absent")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, choices=(BENCHMARK["run_seconds"],),
                    help="run_seconds of BENCHMARK.json, the only length measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload:
            if args.trace:
                out = per_layer(args.workload, args.seed, deadline)
            else:
                out = end_to_end(args.workload, args.seed, deadline)
            print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                              "failed": out["failed"], "metrics": with_units(out["metrics"])}))
            return 0
        results = {}
        for workload in WORKLOADS:
            # the all-workload run is not bounded by one run's deadline
            step = time.monotonic() + DEADLINE_S
            results[workload] = (per_layer(workload, args.seed, step) if args.trace
                                 else end_to_end(workload, args.seed, step))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": v for w, r in results.items()
                    for name, v in with_units(r["metrics"]).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
