"""Desk-scale checks for the reducibility-candidate construction.

Candidates are finite descriptions: the set of all strongly normalizing
terms, function-space candidates built from a domain and a set of
codomain candidates, and finite intersections.  Membership of a term in
a function-space candidate asks that every abstraction the term reduces
to sends every domain member into every codomain.  Quantifying over all
domain members is beyond a desk check, so the domain is sampled by a
finite probe set and the verdict is honest about the three ways it can
come out: yes, no, or unknown.

The strong-normalization oracle explores the whole beta-reduction tree
rather than following one strategy.  It has two verdicts: strongly
normalizing, reported only once the finite tree has been walked to the
end, and fuel exhausted, reported both when the step budget runs out
and when a path revisits an ancestor (the tree is infinite either way,
so no positive certificate exists; the search just stops early).

The last two functions carry the syntactic facts used by the
termination argument for the simple-type embedding: rewrite steps
strictly shrink a count of logical constants, and the beta redices a
rewrite step creates only ever take a variable as their argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .reduction import DEFAULT_FUEL, Fuel, FuelExhausted, one_step_reducts
from .terms import (
    App,
    Const,
    FVar,
    Lam,
    TYPE,
    Term,
    Theory,
    Var,
    bind_pattern,
    children,
    instantiate,
    subterm_at,
    subterm_positions,
)


# --- strong normalization -----------------------------------------------------

@dataclass(frozen=True)
class StronglyNormalizing:
    """Every reduction sequence ends; max_depth is the longest one."""

    max_depth: int


SnVerdict = StronglyNormalizing | FuelExhausted

_EMPTY_THEORY = Theory()


def _as_fuel(fuel: Fuel | int | None) -> Fuel:
    if isinstance(fuel, Fuel):
        return fuel
    return Fuel(DEFAULT_FUEL if fuel is None else fuel)


def _explore(
    t: Term, theory: Theory, budget: Fuel
) -> tuple[dict[Term, int] | None, Term | None]:
    """Depth-first walk of the full reduction tree out of t.

    On success returns a map from every reachable term to the length of
    its longest reduction sequence.  Returns (None, offender) when the
    budget runs out or a path revisits itself.
    """
    memo: dict[Term, int] = {}
    onpath: set[Term] = set()
    # Frames are [term, reducts, next child index, best child depth];
    # reducts is None until the node is expanded.
    stack: list[list] = [[t, None, 0, 0]]

    def credit(depth: int) -> None:
        if stack:
            stack[-1][3] = max(stack[-1][3], depth)

    while stack:
        frame = stack[-1]
        term, reducts, idx, best = frame
        if reducts is None:
            if term in memo:
                stack.pop()
                credit(memo[term])
                continue
            if term in onpath or not budget.spend():
                return None, term
            onpath.add(term)
            frame[1] = one_step_reducts(term, theory)
            continue
        if idx < len(reducts):
            frame[2] += 1
            stack.append([reducts[idx], None, 0, 0])
            continue
        onpath.discard(term)
        memo[term] = best + 1 if reducts else 0
        stack.pop()
        credit(memo[term])
    return memo, None


def sn_check(
    t: Term,
    fuel: Fuel | int | None = None,
    theory: Theory | None = None,
) -> SnVerdict:
    """Bounded strong-normalization oracle under the theory's rules,
    beta-only without a theory."""
    theory = theory if theory is not None else _EMPTY_THEORY
    memo, offender = _explore(t, theory, _as_fuel(fuel))
    if memo is None:
        return FuelExhausted(offender)
    return StronglyNormalizing(memo[t])


# --- candidate descriptions -----------------------------------------------------

@dataclass(frozen=True)
class TTop:
    """All strongly normalizing terms."""


@dataclass(frozen=True)
class PiC:
    """Terms whose abstraction reducts send every member of the domain
    candidate into every codomain candidate."""

    dom: "Candidate"
    cods: frozenset


@dataclass(frozen=True)
class Intersect:
    members: frozenset


Candidate = TTop | PiC | Intersect

T_TOP = TTop()


def default_probes() -> tuple[Term, ...]:
    return (
        FVar("u'"),
        App(FVar("v'"), FVar("w'")),
        Lam("a", TYPE, Var(0)),
    )


def _join(verdicts) -> str:
    out = "yes"
    for v in verdicts:
        if v == "no":
            return "no"
        if v == "unknown":
            out = "unknown"
    return out


def in_candidate(
    t: Term,
    cand: Candidate,
    fuel: Fuel | int | None = None,
    probes: tuple[Term, ...] | None = None,
) -> str:
    """Tri-state membership: "yes", "no", or "unknown".

    One budget is shared by the whole query, so the verdict degrades to
    "unknown" as soon as any sub-check runs out of fuel.
    """
    budget = _as_fuel(fuel)
    probes = default_probes() if probes is None else tuple(probes)
    return _membership(t, cand, budget, probes)


def _membership(t: Term, cand: Candidate, budget: Fuel, probes: tuple[Term, ...]) -> str:
    reachable, _ = _explore(t, _EMPTY_THEORY, budget)
    if reachable is None:
        return "unknown"
    match cand:
        case TTop():
            return "yes"
        case Intersect(members):
            return _join(_membership(t, m, budget, probes) for m in members)
        case PiC(dom, cods):
            verdicts = []
            for lam in (r for r in reachable if isinstance(r, Lam)):
                for probe in probes:
                    eligible = _membership(probe, dom, budget, probes)
                    if eligible == "no":
                        continue
                    if eligible == "unknown":
                        verdicts.append("unknown")
                        continue
                    body = instantiate(lam.body, probe)
                    verdicts.extend(_membership(body, d, budget, probes) for d in cods)
            return _join(verdicts)
    raise ValueError(f"unknown candidate {cand!r}")


def enumerate_candidates(max_depth: int = 2) -> list[Candidate]:
    """All candidate descriptions up to a construction depth, smallest first."""
    if max_depth < 1:
        return []
    tiers: list[list[Candidate]] = [[T_TOP]]
    for _ in range(2, max_depth + 1):
        smaller = [c for tier in tiers for c in tier]
        fresh: list[Candidate] = []
        for dom in smaller:
            for size in (1, 2):
                for cods in combinations(smaller, size):
                    fresh.append(PiC(dom, frozenset(cods)))
        for pair in combinations(smaller, 2):
            fresh.append(Intersect(frozenset(pair)))
        seen = set(smaller)
        tier: list[Candidate] = []
        for c in fresh:
            if c not in seen:
                seen.add(c)
                tier.append(c)
        tiers.append(tier)
    return [c for tier in tiers for c in tier]


# --- the candidate lemmas ---------------------------------------------------------

def check_variables_lemma(
    cand: Candidate,
    fuel: Fuel | int | None = None,
    probes: tuple[Term, ...] | None = None,
) -> str:
    """Variables belong to every candidate."""
    return in_candidate(FVar("x'cand"), cand, fuel, probes)


def check_closure_lemma(
    t: Term,
    cand: Candidate,
    fuel: Fuel | int | None = None,
    probes: tuple[Term, ...] | None = None,
) -> str:
    """Candidates are closed under reduction: every beta reduct of a
    member is a member.  Vacuously yes when t is not a member."""
    pre = in_candidate(t, cand, fuel, probes)
    if pre == "no":
        return "yes"
    if pre == "unknown":
        return "unknown"
    return _join(
        in_candidate(u, cand, fuel, probes)
        for u in one_step_reducts(t, _EMPTY_THEORY)
    )


def check_application_lemma(
    t1: Term,
    t2: Term,
    dom: Candidate,
    cods,
    fuel: Fuel | int | None = None,
    probes: tuple[Term, ...] | None = None,
) -> str:
    """Members of a function-space candidate send domain members into
    every codomain, including arguments that were never membership
    probes.  Vacuously yes when a premise fails; unknown when a premise
    cannot be decided."""
    cods = frozenset(cods)
    pre_fn = in_candidate(t1, PiC(dom, cods), fuel, probes)
    pre_arg = in_candidate(t2, dom, fuel, probes)
    if "no" in (pre_fn, pre_arg):
        return "yes"
    if "unknown" in (pre_fn, pre_arg):
        return "unknown"
    return _join(in_candidate(App(t1, t2), d, fuel, probes) for d in cods)


# --- facts feeding the simple-type termination argument ----------------------------

def stt_measure(t: Term) -> int:
    """Occurrences of the logical constants the rewrite rules consume."""
    match t:
        case Const("imp"):
            return 1
        case Const(name) if name.startswith("all["):
            return 1
        case _:
            return sum(stt_measure(c) for c in children(t))


def created_beta_redices_are_trivial(t: Term, theory: Theory) -> bool:
    """Whether every beta redex a rewrite step on t can create takes a
    variable as its argument.

    A first-order rewrite assembles new applications only where its
    right-hand side applies a pattern variable, so a step creates a beta
    redex exactly when such a variable is bound to an abstraction; the
    other conceivable source is a whole contractum that is an
    abstraction consumed by the application surrounding the rewrite
    site.  Redexes that merely travel inside a pattern-variable image
    are residuals of redexes of t, not new ones.
    """
    compiled = theory.rule_index.compiled
    for pos, sub in subterm_positions(t):
        for rule, (lhs, _, _) in zip(theory.rules, compiled):
            binding = bind_pattern(lhs, sub)
            if binding is None:
                continue
            if not _rhs_applications_trivial(rule.rhs, binding):
                return False
            head = binding.get(rule.rhs.name) if isinstance(rule.rhs, FVar) else rule.rhs
            if isinstance(head, Lam):
                outer = _argument_applied_to(t, pos)
                if outer is not None and not isinstance(outer, (Var, FVar)):
                    return False
    return True


def _rhs_applications_trivial(rhs: Term, binding: dict[str, Term]) -> bool:
    redex = False
    match rhs:
        case App(FVar(x), arg):
            redex = isinstance(binding.get(x), Lam)
        case App(Lam(_, _, _), arg):
            redex = True
    if redex:
        # arg's instance is a variable exactly when this image is one
        image = binding.get(arg.name, arg) if isinstance(arg, FVar) else arg
        if not isinstance(image, (Var, FVar)):
            return False
    return all(_rhs_applications_trivial(c, binding) for c in children(rhs))


def _argument_applied_to(t: Term, pos) -> Term | None:
    """The argument of the application whose function part sits at pos."""
    if not pos or pos[-1] != 0:
        return None
    parent = subterm_at(t, pos[:-1])
    return parent.arg if isinstance(parent, App) else None
