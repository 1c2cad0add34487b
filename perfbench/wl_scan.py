"""`scan` workload: the scanning subcommands, run in-process through
`pimodulo.cli.main` with stdout captured.

One block is one cycle of calls:

- `sn-scan` for stt (beta-R) and cc (beta), several calls each on seeds
  drawn from the workload seed; every sampled term must normalize;
- `consistency-scan` for stt at size 11 and cc at size 10, each taking
  seconds; the free-variable targets must have no normal inhabitant;
- the control target `x : o |- eps x -> eps x`, which must find the
  identity.

Each sampled term and each scan target is one verdict.  Latency is per
call: the time a user waits for the subcommand's answer.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter

from pimodulo.cli import main
from pimodulo import syntax

SN_CALLS = 4           # sn-scan calls per theory per cycle
SN_COUNT = 250         # terms per sn-scan call
CONSISTENCY_SIZES = {"stt": 11, "cc": 10}
CONTROL = ("x : o |- eps x -> eps x", 10)
TRACE_BLOCKS = 1


class Workload:
    name = "scan"
    trace_blocks = TRACE_BLOCKS
    probe = ()

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cycles: list[list] = []
        self.identity = syntax.parse_term("\\h : eps x. h", frozenset({"x"}))
        self.inputs = ""

    def block(self, k: int) -> list:
        while len(self.cycles) <= k:
            calls = []
            for theory, mode in (("stt", "beta-R"), ("cc", "beta")):
                for _ in range(SN_CALLS):
                    seed = self.rng.randrange(2**31)
                    calls.append(("sn", ["sn-scan", "--theory", theory, "--mode", mode,
                                         "--count", str(SN_COUNT), "--seed", str(seed)]))
            for theory, size in CONSISTENCY_SIZES.items():
                calls.append(("empty", ["consistency-scan", "--theory", theory,
                                        "--max-size", str(size)]))
            target, size = CONTROL
            calls.append(("control", ["consistency-scan", "--theory", "stt", "--max-size",
                                       str(size), "--target", target]))
            self.cycles.append(calls)
            self.inputs += "\n".join(" ".join(argv) for _, argv in calls) + "\n"
        return self.cycles[k]

    @staticmethod
    def verdicts(entry) -> int:
        return SN_COUNT if entry[0] == "sn" else 1

    @staticmethod
    def allowed(entry, outcome: str) -> bool:
        return False

    def run(self, entry) -> Counter:
        kind, argv = entry
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        lines = [line.split("\t") for line in out.getvalue().splitlines()]
        if kind == "sn":
            summary = lines[-1]
            if summary[1] != "summary":
                return Counter(wrong_verdict=SN_COUNT)
            # "N normalizing, U unknown"; fewer than SN_COUNT terms is wrong too
            words = summary[2].split()
            normalizing, unknown = int(words[0]), int(words[2])
            return +Counter(ok=normalizing, fuel_exhausted=unknown,
                            wrong_verdict=SN_COUNT - normalizing - unknown)
        if kind == "empty":
            ok = code == 0 and len(lines) == 1 and lines[0][:2] == ["ok", "scan"]
            return Counter(ok=1) if ok else Counter(wrong_verdict=1)
        # parsed through the module, which the tracer never wraps
        found = [syntax.parse_term(line[2], frozenset({"x"})) for line in lines
                 if line[0] == "counterexample"]
        ok = code == 5 and self.identity in found
        return Counter(ok=1) if ok else Counter(wrong_verdict=1)
