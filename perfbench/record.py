"""Record the exact counts of every workload into perfbench/record.json.

    python3 perfbench/record.py

Runs each workload traced on the default seed and on the held-out seed,
and stores what a later traced run compares with: the exact counts and the
input and corpus hashes, and the tracing overhead.  Keep the held-out seed
out of tuning, so that a later claim can be checked on a seed it was not
tuned on.
"""

from __future__ import annotations

import json
import sys
import time

import run

DEFAULT_SEED = 0
HELDOUT_SEED = 7919


def main() -> int:
    # a stale record would be compared against while recording
    (run.HERE / "record.json").unlink(missing_ok=True)
    runs: dict = {}
    for workload in run.WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            layers = run.per_layer(workload, seed, time.monotonic() + run.DEADLINE_S)
            if not layers["correct"]:
                print(f"{workload} on seed {seed} is not correct; nothing recorded")
                return 1
            runs.setdefault(workload, {})[str(seed)] = {
                "invariants": layers["invariants"],
                "trace_overhead_frac": layers["overhead_frac"],
            }
    record = {"default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED, "runs": runs}
    (run.HERE / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
