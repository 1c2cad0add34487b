"""`check` workload: known-answer judgements for stt and cc.

Each item parses a judgement, checks it (or infers its type), normalizes
its subject and prints the normal form.  The verdict, the inferred type
and the normal form (up to alpha) are compared with the answers `known`
built for it, which are parsed in set-up; the printed text is not checked.
Every block holds each family in fixed proportion plus a fixed share of
the deep chains, so a run that stops at a block boundary always measures
the same mix.
"""

from __future__ import annotations

import random
from collections import Counter

import known
from pimodulo.errors import FuelError, ParseError, PiModuloError
from pimodulo.reduction import FuelExhausted, normalize
from pimodulo import syntax
from pimodulo.syntax import parse_judgement, print_term
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import check, check_theory, infer

BLOCKS = 40          # distinct blocks generated per seed; runs cycle over them
REGULAR_SETS = 2     # known.block() sets per block: 108 small judgements
TRACE_BLOCKS = 10    # blocks in the fixed-work pass of a traced run
CHAIN_N = 5          # chains at n, 2n and 4n


def chains() -> list:
    """Every chain item once, and the identity check over the 4n eps chain
    once more: that item is the slowest in the mix, and with two copies in
    118 items it holds the 99th percentile inside one item kind, so p99
    tracks the deep-term cost instead of jumping between kinds."""
    items = [item for n in (CHAIN_N, 2 * CHAIN_N, 4 * CHAIN_N) for item in known.chain_items(n)]
    items.append(known.chain_items(4 * CHAIN_N)[1])
    return [(known.STT, item) for item in items]


class Workload:
    name = "check"
    trace_blocks = TRACE_BLOCKS
    probe = ()

    def __init__(self, seed: int):
        self.theories = {}
        for name in ("stt", "cc"):
            theory = builtin_theory(name).theory
            report = check_theory(theory)
            if not report.ok:
                raise RuntimeError(f"theory {name} does not validate: {report.errors}")
            self.theories[name] = theory
        rng = random.Random(seed)
        self.blocks = []
        for _ in range(BLOCKS):
            items = [x for _ in range(REGULAR_SETS) for x in known.block(rng, depth=3)] + chains()
            rng.shuffle(items)
            self.blocks.append([self._prepare(v, item) for v, item in items])
        self.inputs = "\n".join(item.text for b in self.blocks for _, item, *_ in b)

    def _prepare(self, v, item: known.Item):
        theory = self.theories["stt" if v is known.STT else "cc"]
        # the answers are parsed through the module, a binding the tracer
        # never wraps, so checking them does not count as syntax work
        names = v.names | {"p", "f", "g", "h"}
        nf = syntax.parse_term(item.nf, names)
        inferred = syntax.parse_term(item.inferred, names) if item.inferred else None
        return theory, item, nf, inferred

    def block(self, k: int):
        return self.blocks[k % len(self.blocks)]

    @staticmethod
    def verdicts(entry) -> int:
        return 1

    @staticmethod
    def allowed(entry, outcome: str) -> bool:
        return False

    @staticmethod
    def run(entry) -> Counter:
        theory, item, want_nf, want_type = entry
        try:
            j = parse_judgement(item.text)
        except ParseError:
            return Counter(wrong_verdict=1)
        verdict = "ok"
        try:
            if j.expected is None:
                ty = infer(theory, j.ctx, j.term)
                if ty != want_type:
                    return Counter(wrong_verdict=1)
            else:
                check(theory, j.ctx, j.term, j.expected)
        except FuelError:
            return Counter(fuel_exhausted=1)
        except PiModuloError:
            verdict = "type-error"
        if verdict != item.verdict:
            return Counter(wrong_verdict=1)
        nf = normalize(j.term, theory)
        if isinstance(nf, FuelExhausted):
            return Counter(fuel_exhausted=1)
        print_term(nf)
        return Counter(ok=1) if nf == want_nf else Counter(wrong_verdict=1)
