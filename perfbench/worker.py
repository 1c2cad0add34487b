"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload check --seed 0 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload check --seed 0 --setup-only

`run.py` starts a fresh worker for every measurement.  Set-up is timed
from the first line of this file, so it includes importing pimodulo.

With `--trace 0` the worker runs whole blocks of items until they have
taken `--seconds` and reports throughput, latency, failures and peak RSS;
times are scaled by the calibration load of `reference.py`.  Then it
checks the workload's probe once, untimed (see `wl_sweep.py`), and reports
its failures by class.  With `--trace 1` it traces set-up, a fixed number
of blocks and the probe, so the counts it reports repeat exactly for a
seed, and times the deep chains one by one.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pimodulo  # noqa: E402
from pimodulo.reduction import normalize  # noqa: E402
from pimodulo.syntax import print_term  # noqa: E402
from pimodulo.terms import App, Const, FVar, Lam, Pi, Var  # noqa: E402
from pimodulo.theories import builtin_theory  # noqa: E402
from pimodulo.typecheck import check  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {"check": "wl_check", "model-sweep": "wl_sweep", "scan": "wl_scan"}
RECORD = HERE / "record.json"
CHAIN_SERIES = (50, 100, 200)   # eps chain and its identity check; beta at 2n
CALIBRATE_EVERY_S = 0.25

# Counts that must repeat exactly for a seed.
EXACT = (
    "reduction.steps", "generate.size_tests", "candidates.sn_nodes",
    "model_stt.evals", "model_stt.valuations", "model_cc.evals", "model_cc.valuations",
)


def run_item(wl, entry, tally: Counter, unexpected: Counter) -> None:
    try:
        outcome = wl.run(entry)
    except Exception:  # a crash is one failure class; the run goes on
        traceback.print_exc()
        outcome = Counter(internal=wl.verdicts(entry))
    for cls, n in outcome.items():
        tally[cls] += n
        if cls != "ok" and not wl.allowed(entry, cls):
            unexpected[cls] += n


def run_blocks(wl, blocks, tracer=None, seconds=None, calibrate=None):
    """Run blocks in order; with `seconds`, keep going until the items have
    taken that long and stop at a block boundary.  `calibrate` is called
    between items every CALIBRATE_EVERY_S; its time is not the items'."""
    latencies: list[float] = []
    tally: Counter = Counter()
    unexpected: Counter = Counter()
    busy = 0.0
    last = time.perf_counter()
    k = 0
    item_id = 0
    while True:
        for entry in wl.block(k):
            if tracer is not None:
                tracer.item = item_id
            item_id += 1
            t = time.perf_counter()
            run_item(wl, entry, tally, unexpected)
            dt = time.perf_counter() - t
            latencies.append(dt)
            busy += dt
            if calibrate is not None and t + dt - last >= CALIBRATE_EVERY_S:
                calibrate()
                last = time.perf_counter()
        k += 1
        if seconds is None and k >= blocks:
            break
        if seconds is not None and busy >= seconds:
            break
    return busy, latencies, tally, unexpected


def run_probe(wl, tracer=None, first_id: int = 0) -> dict:
    """Check every probe item once; their time is not measured."""
    tally: Counter = Counter()
    unexpected: Counter = Counter()
    for i, entry in enumerate(wl.probe):
        if tracer is not None:
            tracer.item = first_id + i
        run_item(wl, entry, tally, unexpected)
    return outcome_fields(tally, unexpected)


def outcome_fields(tally: Counter, unexpected: Counter) -> dict:
    attempted = sum(tally.values())
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": attempted - tally["ok"],
        "classes": dict(sorted(tally.items())),
        "unexpected": dict(sorted(unexpected.items())),
    }


def measure(wl, seconds: float) -> dict:
    loads: list[float] = []
    busy, latencies, tally, unexpected = run_blocks(
        wl, None, seconds=seconds, calibrate=lambda: loads.append(reference.time_once()))
    slowdown = reference.slowdown(loads)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    raw = {
        "items_per_s": tally["ok"] / busy,
        "verdict_p50_ms": cuts[49] * 1e3,
        "verdict_p99_ms": cuts[98] * 1e3,
    }
    # the probe's enumerations differ from seed to seed; they are not timed,
    # and their memory is not counted either
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = outcome_fields(tally, unexpected)
    out["probe"] = run_probe(wl)
    out["correct"] = out["correct"] and out["probe"]["correct"]
    out.update(busy_s=busy, samples=len(latencies), slowdown=slowdown,
               calibrations=len(loads), raw=raw)
    out["metrics"] = {
        "items_per_s": raw["items_per_s"] * slowdown,
        "verdict_p50_ms": raw["verdict_p50_ms"] / slowdown,
        "verdict_p99_ms": raw["verdict_p99_ms"] / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    return out


# --- the traced run ---------------------------------------------------------------

def chain_series() -> tuple[dict, bool]:
    """Untraced wall time of single calls on the ROADMAP chains.

    The chains are built as terms, not parsed: the parser recurses once per
    nesting level and overflows the stack on the longer ones (defect 4c).
    """
    stt = builtin_theory("stt").theory
    p, o, eps, imp = FVar("p"), Const("o"), Const("eps"), Const("imp")
    out, ok = {}, True
    for n in CHAIN_SERIES:
        chain, want = p, App(eps, p)
        for _ in range(n):
            chain = App(App(imp, p), chain)
            want = Pi("_", App(eps, p), want)
        start = time.perf_counter()
        nf = normalize(App(eps, chain), stt)
        out[f"reduction.chain_eps_n{n}_s"] = time.perf_counter() - start
        ok &= nf == want
        identity = Lam("h", App(eps, chain), Var(0))
        start = time.perf_counter()
        check(stt, (("p", o),), identity, Pi("_", want, want))
        out[f"typecheck.chain_check_n{n}_s"] = time.perf_counter() - start
    for n in (2 * n for n in CHAIN_SERIES):
        chain = p
        for _ in range(n):
            chain = App(Lam("x", o, Var(0)), chain)
        start = time.perf_counter()
        nf = normalize(chain, stt)
        out[f"reduction.chain_beta_n{n}_s"] = time.perf_counter() - start
        ok &= nf == p
    return out, ok


def layer_metrics(tr: spans.Tracer, self_s: Counter, cc_errors: Counter, overhead_s: float) -> dict:
    c = tr.counts
    by_fn = tr.total
    noop = c["reduction.normalize.noop"] + c["reduction.whnf.noop"]
    nw_calls = tr.ncalls("reduction.normalize") + tr.ncalls("reduction.whnf")
    sampled = sum(len(corpus) for corpus in tr.sampled_corpora())
    in_sample = c["generate.size_tests.in_sample"]
    return {
        "syntax.parse_s": by_fn("syntax.parse"),
        "syntax.print_s": by_fn("syntax.print"),
        "typecheck.self_s": self_s["typecheck"],
        "typecheck.infer_calls": tr.ncalls("typecheck.infer"),
        "reduction.self_s": self_s["reduction"],
        "reduction.normalize_calls": tr.ncalls("reduction.normalize"),
        "reduction.normalize_s": by_fn("reduction.normalize"),
        "reduction.whnf_s": by_fn("reduction.whnf"),
        "reduction.convertible_s": by_fn("reduction.convertible"),
        "reduction.noop_frac": noop / nw_calls if nw_calls else 0.0,
        "reduction.one_step_reducts_s": by_fn("reduction.one_step_reducts"),
        # whnf spends the fuel of its convertible call, which counts it
        "reduction.steps": c["reduction.normalize.steps"] + c["reduction.convertible.steps"],
        "terms.self_s": self_s["terms"],
        "terms.calls": tr.ncalls("terms."),
        "generate.self_s": self_s["generate"],
        "generate.sample_s": by_fn("generate.sample_well_typed"),
        "generate.size_tests": c["generate.size_tests"],
        "generate.sample_infer_calls": c["generate.infer_calls.in_sample"],
        "generate.sample_accept_ratio": sampled / in_sample if in_sample else 0.0,
        "generate.inhabit_s": by_fn("generate.enumerate_normal_inhabitants"),
        "generate.pairs_s": by_fn("generate.convertible_pairs"),
        "candidates.self_s": self_s["candidates"],
        "candidates.sn_calls": tr.ncalls("candidates.sn_check"),
        "candidates.sn_nodes": c["candidates.sn_check.steps"],
        "model_stt.self_s": self_s["model_stt"],
        "model_stt.evals": tr.ncalls("model_stt.check_"),
        "model_stt.valuations": c["model_stt.valuations"],
        "model_cc.self_s": self_s["model_cc"],
        "model_cc.evals": tr.ncalls("model_cc.check_"),
        "model_cc.valuations": c["model_cc.valuations"],
        "model_cc.errors.outside_domain": cc_errors["model_error.outside_domain"],
        "model_cc.errors.symbolic_value": cc_errors["model_error.symbolic_value"],
        "model_cc.errors.unenumerable_union": cc_errors["model_error.unenumerable_union"],
        "model_cc.errors.size_limit": cc_errors["model_error.size_limit"],
        "model_cc.errors.other": cc_errors["model_error.other"],
        "model_cc.errors.counterexample": cc_errors["counterexample"],
        "algebra.enumerate_s": by_fn("algebra.enumerate_full_algebras"),
        "theories.load_s": by_fn("theories.builtin_theory") + by_fn("theories.load_theory"),
        "cli.self_s": self_s["cli"],
        "trace.overhead_s": overhead_s,
    }


def corpus_sha256(corpora) -> str:
    h = hashlib.sha256()
    for corpus in corpora:
        for t, ty in corpus:
            h.update(f"{print_term(t)}\t{print_term(ty)}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


def compare_with_record(workload: str, seed: int, invariants: dict) -> tuple[bool, list[str]]:
    """Hashes must match the recorded run of this seed; counts that drift
    are reported, because a change may legitimately alter the work done."""
    if not RECORD.exists():
        return True, []
    recorded = json.loads(RECORD.read_text()).get("runs", {}).get(workload, {}).get(str(seed))
    if not recorded:
        return True, []
    want = recorded["invariants"]
    notes, ok = [], True
    for key, value in invariants.items():
        if key in want and want[key] != value:
            notes.append(f"{key}: recorded {want[key]}, now {value}")
            ok &= not key.endswith("sha256")
    return ok, notes


def traced(module, seed: int) -> dict:
    """Traced set-up, then the fixed blocks untraced (a warm-up), traced
    and followed by the traced probe, and untraced again; the overhead
    compares the blocks of the last two.  Self times cover the traced
    blocks and the probe; every other figure includes set-up."""
    tracer = spans.Tracer(pimodulo, [module, sys.modules[__name__]])
    tracer.install()
    wl = module.Workload(seed)
    tracer.uninstall()
    setup_self_s = Counter(tracer.layer_self_s)
    run_blocks(wl, wl.trace_blocks)
    wl.cc_errors = Counter()
    tracer.install()
    traced_s, latencies, tally, unexpected = run_blocks(wl, wl.trace_blocks, tracer=tracer)
    probe = run_probe(wl, tracer, len(latencies))
    tracer.uninstall()
    cc_errors, wl.cc_errors = wl.cc_errors, Counter()
    untraced_s, *_ = run_blocks(wl, wl.trace_blocks)
    series, chains_ok = chain_series()
    self_s = Counter(tracer.layer_self_s)
    self_s.subtract(setup_self_s)
    metrics = layer_metrics(tracer, self_s, cc_errors, traced_s - untraced_s)
    metrics.update(series)
    invariants = {key: metrics[key] for key in EXACT}
    invariants["inputs_sha256"] = hashlib.sha256(wl.inputs.encode()).hexdigest()
    invariants["corpus_sha256"] = corpus_sha256(tracer.sampled_corpora())
    same, drift = compare_with_record(module.Workload.name, seed, invariants)
    tracer.write(HERE / "out" / f"{module.Workload.name}-seed{seed}.spans")
    out = outcome_fields(tally, unexpected)
    out["correct"] = out["correct"] and probe["correct"] and chains_ok and same
    out["probe"] = probe
    out.update(metrics=metrics, invariants=invariants, drift=drift,
               traced_s=traced_s, untraced_s=untraced_s, layer_self_s=dict(self_s),
               spans=len(tracer.spans["id"]), spans_dropped=tracer.dropped)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="needed to measure, unused otherwise")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.seconds is None and not (args.trace or args.setup_only):
        ap.error("--seconds is needed to measure")
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        result = traced(module, args.seed)
    else:
        wl = module.Workload(args.seed)
        setup_s = time.perf_counter() - T0
        slowdown = reference.slowdown([reference.time_once() for _ in range(reference.SETUP_SAMPLES)])
        result = {"setup_s": setup_s / slowdown, "raw_setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(wl, args.seconds))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
