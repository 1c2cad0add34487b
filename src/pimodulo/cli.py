"""Command line front end.

Five subcommands: check judgement files against a theory, normalize a
term, sweep the finite models over the shipped embeddings, scan for
normal inhabitants of a target type, and scan generated terms for
strong normalization.

Output is line oriented.  Text format prints status, item id, and
detail separated by tabs; json-lines format prints one object per item
after a leading configuration object, with sorted keys and fixed
separators so runs with the same inputs are byte identical.  The exit
code is the most severe that applies: 0 ok, 1 type error, 2 parse
error, 3 budget exhausted, 4 file problem, 5 counterexample found,
6 internal error (a fault of pimodulo, reported on one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .algebra import enumerate_full_algebras, sample_full_algebras, write_alg
from .errors import DuplicateName, FuelError, ParseError, PiModuloError
from . import model_cc, model_stt
from .candidates import StronglyNormalizing, sn_check
from .generate import (
    convertible_pairs,
    enumerate_normal_inhabitants,
    sample_well_typed,
)
from .reduction import Fuel, FuelExhausted, normalize
from .syntax import (
    parse_judgement,
    parse_judgements,
    parse_term,
    print_judgement,
    print_term,
)
from .theories import builtin_example, load_theory, read_text
from .typecheck import check, check_frame, check_theory, infer

# --mode spellings: beta and the theory's rules, or beta alone
BETA = "beta"
BETA_R = "beta-R"

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_IO = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_INTERNAL = 6

_STATUS_CODES = {
    "ok": EXIT_OK,
    "type-error": EXIT_TYPE,
    "parse-error": EXIT_PARSE,
    "fuel-exhausted": EXIT_FUEL,
    "io-error": EXIT_IO,
    "counterexample": EXIT_COUNTEREXAMPLE,
    "unknown": EXIT_FUEL,
    "internal-error": EXIT_INTERNAL,
}


class Reporter:
    def __init__(self, fmt: str, config: dict):
        self.fmt = fmt
        self.worst = EXIT_OK
        if fmt == "json-lines":
            print(json.dumps(config, sort_keys=True, separators=(",", ":")))

    def emit(self, item_id: str, kind: str, status: str, detail: str = "") -> None:
        self.worst = max(self.worst, _STATUS_CODES.get(status, EXIT_IO))
        self.show(item_id, kind, status, detail)

    def show(self, item_id: str, kind: str, status: str, detail: str = "") -> None:
        """Print a line that leaves the exit code to a later summary."""
        if self.fmt == "json-lines":
            record = {"detail": detail, "id": item_id, "kind": kind, "status": status}
            print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        else:
            flat = detail.replace("\n", "; ")
            print(f"{status}\t{item_id}\t{flat}")


def _outcome(exc: PiModuloError) -> tuple[str, str]:
    """The status and the text of an error, both of its settled form: an
    error whose types run out of fuel as they are shown reports that."""
    exc = exc.settled()
    if isinstance(exc, ParseError):
        return "parse-error", str(exc)
    if isinstance(exc, FuelError):
        return "fuel-exhausted", str(exc)
    return "type-error", str(exc)


def _read_source(spec: str) -> str:
    if spec.startswith("builtin:"):
        return builtin_example(spec[len("builtin:"):])
    return read_text(spec)


# --- check ---------------------------------------------------------------------

def cmd_check(args, rep: Reporter) -> None:
    tf = load_theory(args.theory)
    report = check_theory(tf.theory, Fuel(args.fuel))
    for label, status in report.items:
        if status == "ok":
            rep.emit(label, "theory", "ok")
        else:
            rep.emit(label, "theory", "type-error", status)
    for warning in report.warnings:
        rep.emit("overlap", "theory", "ok", warning)
    for spec in args.files:
        try:
            text = _read_source(spec)
        except OSError as exc:
            rep.emit(spec, "file", "io-error", str(exc))
            continue
        try:
            judgements = parse_judgements(text)
        except (ParseError, DuplicateName) as exc:
            # a name bound twice in a context is malformed text like any other
            rep.emit(spec, "file", "parse-error", str(exc))
            continue
        for j in judgements:
            item = f"{spec}:{j.line}"
            try:
                check_frame(tf.theory, j.ctx, j.expected, Fuel(args.fuel))
                if j.expected is None:
                    ty = infer(tf.theory, j.ctx, j.term, Fuel(args.fuel))
                    rep.emit(item, "judgement", "ok", f"inferred {print_term(ty)}")
                else:
                    check(tf.theory, j.ctx, j.term, j.expected, Fuel(args.fuel))
                    rep.emit(item, "judgement", "ok", print_judgement(j))
            except PiModuloError as exc:
                rep.emit(item, "judgement", *_outcome(exc))


# --- normalize -----------------------------------------------------------------

def _reducing(theory, mode: str):
    """The theory that reduces under --mode: beta alone is reduction
    under the signature without the rules."""
    return theory if mode == BETA_R else theory.without_rules()


def cmd_normalize(args, rep: Reporter) -> None:
    tf = load_theory(args.theory)
    try:
        text = args.term if args.file is None else _read_source(args.file)
        t = parse_term(text)
    except PiModuloError as exc:
        rep.emit("input", "term", *_outcome(exc))
        return
    trace: list = []
    result = normalize(t, _reducing(tf.theory, args.mode), fuel=Fuel(args.fuel), trace=trace)
    if args.trace:
        for i, (pos, label, step) in enumerate(trace, start=1):
            where = ".".join(str(p) for p in pos) or "root"
            rep.emit(f"step{i}", "step", "ok", f"{where}\t{label}\t{print_term(step)}")
    if isinstance(result, FuelExhausted):
        rep.emit("result", "normal-form", "fuel-exhausted", print_term(result.last))
    else:
        rep.emit("result", "normal-form", "ok", print_term(result))


# --- model-check ----------------------------------------------------------------

def _model_family(signature) -> str | None:
    names = {name for name, _ in signature}
    if "U_Type" in names:
        return "cc"
    if "eps" in names and "imp" in names:
        return "stt"
    return None


def _default_context(family: str):
    if family == "stt":
        return (("p", parse_term("o")), ("q", parse_term("o")))
    return (("p", parse_term("U_Type")),)


def _model_algebras(args):
    n = args.algebra_size
    if n <= 2 and args.count == 0:
        return list(enumerate_full_algebras(n))
    count = args.count or 64
    return list(sample_full_algebras(n, count, args.seed))


def _valuations(family: str, ctx, alg):
    """Every valuation of ctx as (phi, psi); psi, the outer valuation of the
    three-layer model, is None for the one-layer model."""
    if family == "stt":
        for phi in model_stt.enumerate_valuations(ctx, alg):
            yield phi, None
        return
    for psi in model_cc.enumerate_psis(ctx, alg):
        for phi in model_cc.enumerate_m_valuations(ctx, psi, alg):
            yield phi, psi


def _check_on_algebra(spec) -> tuple[str, str]:
    """One item on one algebra, under every valuation: t converts to u when
    x is None, else substituting u for x in t commutes with interpretation."""
    family, alg, t, u, x, ctx = spec
    for phi, psi in _valuations(family, ctx, alg):
        if family == "stt":
            holds = (model_stt.check_conversion_stt(t, u, phi, alg) if x is None
                     else model_stt.check_substitution_stt(t, x, u, phi, alg))
        elif x is None:
            holds = model_cc.check_conversion_cc(t, u, phi, psi, alg)
        else:
            holds = model_cc.check_substitution_cc(t, x, u, phi, psi, alg)
        if not holds:
            return "counterexample", _witness(alg, t, u, phi, psi)
    return "ok", ""


def _witness(alg, t, u, phi, psi=None) -> str:
    lines = [
        f"terms: {print_term(t)}  vs  {print_term(u)}",
        f"valuation: {phi!r}",
    ]
    if psi is not None:
        lines.append(f"outer valuation: {psi!r}")
    lines.append("algebra:")
    lines.append(write_alg(alg).rstrip("\n"))
    return "\n".join(lines)


def cmd_model_check(args, rep: Reporter) -> None:
    tf = load_theory(args.theory)
    family = _model_family(tf.theory.signature)
    if family is None:
        rep.emit("theory", "config", "io-error",
                 "model checking needs a theory over the shipped vocabularies")
        return
    algebras = _model_algebras(args)
    # sampled algebras can repeat, so an algebra is named by its position
    items = [(rule, i) for rule in tf.theory.rules for i in range(len(algebras))]
    results = _run_items(
        [(family, algebras[i], rule.lhs, rule.rhs, None, rule.ctx) for rule, i in items],
        args.jobs,
    )
    by_rule: dict[str, tuple[int, int]] = {}
    for (rule, i), (status, detail) in zip(items, results):
        held, total = by_rule.get(rule.label, (0, 0))
        if status != "ok":
            rep.emit(f"rule {rule.label} algebra {i}",
                     "rule-conversion", status, detail)
        else:
            held += 1
        by_rule[rule.label] = (held, total + 1)
    for label, (held, total) in by_rule.items():
        if held == total:
            rep.emit(f"rule {label}", "rule-conversion", "ok",
                     f"holds on {total} algebras")

    ctx = _default_context(family)
    sample = partial(sample_well_typed, tf.theory, ctx=ctx, fuel=args.fuel)
    seeds = [t for t, _ in sample(args.pairs, args.seed)]
    pairs = list(convertible_pairs(tf.theory, seeds, 40, ctx, args.fuel))[: args.pairs]
    pair_algs = algebras[:: max(1, len(algebras) // 8)]
    specs = [(family, alg, t, u, None, ctx) for t, u in pairs for alg in pair_algs]
    _report_items(rep, _run_items(specs, args.jobs), "pair", "pair-conversion", "pairs",
                  f"{len(pairs)} convertible pairs over {len(pair_algs)} algebras")

    subst_terms = [t for t, _ in sample(args.subst, args.seed + 1)]
    x = ctx[0][0]
    images = [u for u, ty in sample(args.subst, args.seed + 2) if ty == ctx[0][1]]
    if not images:
        images = [parse_term("imp p q" if family == "stt" else "p",
                             var_names=frozenset(n for n, _ in ctx))]
    specs = [
        (family, alg, t, images[i % len(images)], x, ctx)
        for i, t in enumerate(subst_terms)
        for alg in pair_algs
    ]
    _report_items(rep, _run_items(specs, args.jobs), "subst", "substitution", "substitution",
                  f"{len(subst_terms)} instances over {len(pair_algs)} algebras")


def _report_items(rep: Reporter, results, item: str, kind: str, summary: str, detail: str) -> None:
    bad = [(i, witness) for i, (status, witness) in enumerate(results) if status != "ok"]
    for i, witness in bad:
        rep.emit(f"{item} {i}", kind, "counterexample", witness)
    rep.emit(summary, kind, "counterexample" if bad else "ok", detail)


def _run_items(specs, jobs: int):
    if jobs <= 1:
        return [_check_on_algebra(s) for s in specs]
    # specs come in runs of one rule or pair over many algebras: contiguous
    # chunks keep those runs on one worker, where a chunk's terms arrive
    # unpickled as one object each and their staged forms are reused; four
    # chunks a worker leave room to even out uneven items
    chunksize = max(1, len(specs) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_check_on_algebra, specs, chunksize=chunksize))


# --- consistency-scan -------------------------------------------------------------

def cmd_consistency_scan(args, rep: Reporter) -> None:
    tf = load_theory(args.theory)
    family = _model_family(tf.theory.signature)
    if args.target:
        target_text = args.target
    elif family is None:
        rep.emit("target", "config", "parse-error",
                 "no default target outside the shipped vocabularies; give one with --target")
        return
    else:
        target_text = "x : U_Type |- eps_Type x" if family == "cc" else "x : o |- eps x"
    try:
        j = parse_judgement(target_text, 1)
    except ParseError as exc:
        rep.emit("target", "config", "parse-error", str(exc))
        return
    try:
        check_frame(tf.theory, j.ctx, j.term, Fuel(args.fuel))
    except PiModuloError as exc:
        rep.emit("target", "config", *_outcome(exc))
        return
    found = 0
    for t in enumerate_normal_inhabitants(tf.theory, j.term, args.max_size, j.ctx,
                                          fuel=args.fuel):
        found += 1
        rep.emit(f"inhabitant {found}", "inhabitant", "counterexample",
                 print_term(t))
        if found >= args.limit:
            break
    if found == 0:
        rep.emit("scan", "inhabitation", "ok",
                 f"no normal inhabitant of {print_judgement(j)} up to size {args.max_size}")


# --- sn-scan ----------------------------------------------------------------------

def cmd_sn_scan(args, rep: Reporter) -> None:
    tf = load_theory(args.theory)
    family = _model_family(tf.theory.signature)
    ctx = _default_context(family) if family else ()
    reducing = _reducing(tf.theory, args.mode)
    counts = {"yes": 0, "unknown": 0}
    for i, (t, _) in enumerate(
        sample_well_typed(tf.theory, args.count, args.seed, ctx, max_size=args.max_size,
                          fuel=args.fuel)
    ):
        result = sn_check(t, args.fuel, reducing)
        match result:
            case StronglyNormalizing(_):
                counts["yes"] += 1
            case FuelExhausted(last):
                counts["unknown"] += 1
                # the summary, which weighs the unknowns against
                # --allow-unknown, sets the exit code
                rep.show(f"term {i}", "sn", "unknown",
                         f"{print_term(t)} not certified; search stopped at {print_term(last)}")
    status = "ok"
    if counts["unknown"] > args.allow_unknown:
        status = "fuel-exhausted"
    rep.emit("summary", "sn", status,
             f"{counts['yes']} normalizing, {counts['unknown']} unknown")


# --- entry ------------------------------------------------------------------------

def _at_least(minimum: int):
    """An argparse type: a decimal int no less than `minimum`."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r} (at least {minimum})")
        return int(text)
    return parse


_positive = _at_least(1)
_natural = _at_least(0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pimodulo",
        description="Type checking modulo user-declared rewrite rules, with finite-model and normalization scans.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--theory", default="stt",
                       help="builtin theory name (stt, cc) or a theory file path")
        # a string default goes through `type` like a command-line value,
        # so a bad PIMODULO_FUEL is a usage error just as a bad --fuel is
        p.add_argument("--fuel", type=_natural, default=os.environ.get("PIMODULO_FUEL") or "1000000",
                       help="reduction budget (env PIMODULO_FUEL)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    p = sub.add_parser("check", help="type-check judgement files against a theory")
    p.add_argument("files", nargs="*",
                   help="judgement files; builtin:NAME reads a packaged example")
    common(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("normalize", help="print the normal form of a term")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("term", nargs="?", help="term text")
    given.add_argument("--file", help="read the term from a file instead")
    p.add_argument("--mode", choices=(BETA, BETA_R), default=BETA_R)
    p.add_argument("--trace", action="store_true", help="print each step")
    common(p)
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("model-check",
                       help="sweep the finite models over rules, pairs, and substitutions")
    p.add_argument("--algebra-size", type=_positive, default=2)
    p.add_argument("--count", type=_natural, default=0,
                   help="algebras to sample; 0 means all when the size allows")
    p.add_argument("--pairs", type=_natural, default=24)
    p.add_argument("--subst", type=_natural, default=12)
    p.add_argument("--jobs", type=_positive, default=1)
    common(p)
    p.set_defaults(run=cmd_model_check)

    p = sub.add_parser("consistency-scan",
                       help="search for normal inhabitants of a target type")
    p.add_argument("--max-size", type=_natural, default=8)
    p.add_argument("--target",
                   help="judgement giving context and target, e.g. 'x : o |- eps x'")
    p.add_argument("--limit", type=_positive, default=5,
                   help="stop after this many inhabitants")
    common(p)
    p.set_defaults(run=cmd_consistency_scan)

    p = sub.add_parser("sn-scan",
                       help="check generated well-typed terms for strong normalization")
    p.add_argument("--count", type=_natural, default=100)
    p.add_argument("--max-size", type=_natural, default=24)
    p.add_argument("--mode", choices=(BETA, BETA_R), default=BETA)
    p.add_argument("--allow-unknown", type=_natural, default=0)
    common(p)
    p.set_defaults(run=cmd_sn_scan)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = {
        "command": args.command,
        "fuel": args.fuel,
        "seed": args.seed,
        "theory": args.theory,
    }
    try:
        rep = Reporter(args.format, config)
        try:
            args.run(args, rep)
        except PiModuloError as exc:
            rep.emit("fatal", "error", *_outcome(exc))
        except BrokenPipeError:
            raise
        except OSError as exc:
            rep.emit("fatal", "error", "io-error", str(exc))
        except Exception as exc:  # noqa: BLE001 - any other failure is pimodulo's own
            rep.emit("fatal", "error", "internal-error", f"{type(exc).__name__}: {exc}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: nothing more can reach it, and stdout on
        # devnull keeps the interpreter's final flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return rep.worst


if __name__ == "__main__":
    sys.exit(main())
