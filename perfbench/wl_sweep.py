"""`model-sweep` workload: the three phases of `model-check`, both theories.

Over the 513 full algebras of size at most 2:

- every rule on every algebra;
- convertible pairs made as `model-check` makes them (seed terms from
  `sample_well_typed`, `convertible_pairs(max_size=40)`, the first 100
  pairs), each on a stride of 9 algebras;
- substitution instances in the style of acceptance criterion 4, each on
  one algebra.

An item is one (rule, pair or instance; algebra) check over all
valuations; by the paper's soundness lemmas its answer is "holds".  The
inputs are built in set-up.

The timed items are the rules of both theories on every algebra and the
`stt` instances: a block holds each of them in the proportion of its
population, in seeded order, so a run that stops at a block boundary
measures the whole mix.  None of them fails; a failure there makes the run
incorrect.

The pairs of both theories and the `cc` instances are the *probe*: every
one of them is checked once per run, after the timed part, and counted by
class, because the models cannot decide all of them today.  `cc` pairs and
instances hit ROADMAP defect 4b: the models raise "applied a finite
function outside its domain", "a pi code needs a finite function
argument" (a symbolic pi-code value where a tabulated function is needed)
or `UnenumerableUnion`, or find a counterexample to a convertible pair.
Some pairs of both theories and some `cc` instances also need a set past
the enumeration cap below, and stop with `SizeLimitExceeded`: an honest
"unknown".  Those failures are allowed in the probe; any other failure
makes the run incorrect.  The probe has a fixed population per seed, so its
counts repeat exactly, while the number of timed items depends on the
machine's speed.
"""

from __future__ import annotations

import random
from collections import Counter

from pimodulo.algebra import enumerate_full_algebras
from pimodulo.errors import PiModuloError, SizeLimitExceeded, UnenumerableUnion
from pimodulo.generate import convertible_pairs, sample_well_typed
from pimodulo.model_cc import (
    check_conversion_cc,
    check_substitution_cc,
    enumerate_m_valuations,
    enumerate_psis,
)
from pimodulo.model_stt import (
    check_conversion_stt,
    check_substitution_stt,
    enumerate_valuations,
)
from pimodulo.terms import Const, FVar
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import check_theory

PAIRS = 100            # pairs per theory, from as many sampled seed terms
PAIR_ALGEBRAS = 8      # the stride gives 9 of the 513 algebras, as in model-check
SUBST_TERMS = 600      # sampled terms for instances, as criterion 4 samples
BLOCK_DIVISOR = 171    # a block holds population / BLOCK_DIVISOR of each class
TRACE_BLOCKS = 40
# Enumeration cap passed to the models: a work budget per item.  At the
# default of 10**6, one valuation of a cc instance that ranges over U_Kind
# functions tabulates 65,536 functions and takes about 100 s, and an stt
# identity redex typed o -> o -> ((iota -> o) -> o) -> o takes 1-2 s; a few
# such items per seed would decide a run's time.  At this cap they stop at
# once.  No rule comes near it.
CAP = 1024

CTX = {
    "stt": (("p", Const("o")), ("q", Const("o"))),
    "cc": (("p", Const("U_Type")),),
}
PROBE = ("stt.pair", "cc.pair", "cc.subst")
CC_DEFECT_4B = {
    "counterexample", "model_error.outside_domain", "model_error.symbolic_value",
    "model_error.unenumerable_union",
}


def conversion_holds(theory: str, t, u, ctx, alg) -> bool:
    if theory == "stt":
        return all(check_conversion_stt(t, u, phi, alg, CAP)
                   for phi in enumerate_valuations(ctx, alg, CAP))
    return all(
        check_conversion_cc(t, u, phi, psi, alg, CAP)
        for psi in enumerate_psis(ctx, alg, CAP)
        for phi in enumerate_m_valuations(ctx, psi, alg, CAP)
    )


def substitution_holds(theory: str, t, x, u, ctx, alg) -> bool:
    if theory == "stt":
        return all(check_substitution_stt(t, x, u, phi, alg, CAP)
                   for phi in enumerate_valuations(ctx, alg, CAP))
    return all(
        check_substitution_cc(t, x, u, phi, psi, alg, CAP)
        for psi in enumerate_psis(ctx, alg, CAP)
        for phi in enumerate_m_valuations(ctx, psi, alg, CAP)
    )


class Workload:
    name = "model-sweep"
    trace_blocks = TRACE_BLOCKS

    def __init__(self, seed: int):
        rng = random.Random(seed)
        algebras = list(enumerate_full_algebras(1)) + list(enumerate_full_algebras(2))
        pair_algs = algebras[:: max(1, len(algebras) // PAIR_ALGEBRAS)]
        classes: dict[str, list] = {}
        corpus = []
        for name in ("stt", "cc"):
            theory = builtin_theory(name).theory
            report = check_theory(theory)
            if not report.ok:
                raise RuntimeError(f"theory {name} does not validate: {report.errors}")
            ctx = CTX[name]
            classes[f"{name}.rule"] = [
                ("rule", name, rule.lhs, rule.rhs, None, rule.ctx, alg)
                for rule in theory.rules for alg in algebras
            ]
            seeds = [t for t, _ in sample_well_typed(theory, PAIRS, seed, ctx)]
            pairs = list(convertible_pairs(theory, seeds, max_size=40, ctx=ctx))[:PAIRS]
            classes[f"{name}.pair"] = [
                ("pair", name, t, u, None, ctx, alg) for t, u in pairs for alg in pair_algs
            ]
            sampled = list(sample_well_typed(theory, SUBST_TERMS, seed + 1, ctx, max_size=10))
            var_type = ctx[0][1]
            images = [t for t, ty in sampled if ty == var_type and t != FVar(ctx[0][0])]
            terms = [t for t, _ in sampled]
            classes[f"{name}.subst"] = [
                ("subst", name, terms[i % len(terms)], images[i % len(images)],
                 ctx[i % len(ctx)][0], ctx, alg)
                for i, alg in enumerate(algebras)
            ]
            corpus += [(t, u) for t, u in pairs]
        self.inputs = "\n".join(f"{t!r}\t{u!r}" for t, u in corpus)
        for items in classes.values():
            rng.shuffle(items)
        self.probe = [entry for name in PROBE for entry in classes.pop(name)]
        self.classes = classes
        self.per_block = {k: max(1, round(len(v) / BLOCK_DIVISOR)) for k, v in classes.items()}
        self.cc_errors: Counter = Counter()

    def block(self, k: int) -> list:
        items = []
        for name, population in self.classes.items():
            n = self.per_block[name]
            items += [population[(k * n + i) % len(population)] for i in range(n)]
        random.Random(k).shuffle(items)
        return items

    @staticmethod
    def verdicts(entry) -> int:
        return 1

    @staticmethod
    def allowed(entry, outcome: str) -> bool:
        kind, theory = entry[0], entry[1]
        if f"{theory}.{kind}" not in PROBE:
            return False
        return outcome == "model_error.size_limit" or (theory == "cc" and outcome in CC_DEFECT_4B)

    def run(self, entry) -> Counter:
        kind, theory, t, u, x, ctx, alg = entry
        try:
            if kind == "subst":
                holds = substitution_holds(theory, t, x, u, ctx, alg)
            else:
                holds = conversion_holds(theory, t, u, ctx, alg)
            outcome = "ok" if holds else "counterexample"
        except UnenumerableUnion:
            outcome = "model_error.unenumerable_union"
        except SizeLimitExceeded:
            outcome = "model_error.size_limit"
        except PiModuloError as exc:
            if "outside its domain" in str(exc):
                outcome = "model_error.outside_domain"
            elif "needs a finite function argument" in str(exc):
                outcome = "model_error.symbolic_value"
            else:
                outcome = "model_error.other"
        if theory == "cc" and outcome != "ok":
            self.cc_errors[outcome] += 1
        return Counter({outcome: 1})
