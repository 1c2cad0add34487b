"""Beta and rewrite steps, normalization, and beta-R convertibility.

A theory's rules are the only rewrite rules there are: beta alone is
reduction under a theory without rules (`Theory.without_rules`).
Rewriting is fuel-bounded throughout: the rewrite relation of a user theory
need not terminate, so exhaustion is a reported value, never a wrong answer.

Every rule step goes through the theory's compiled rules
(`Theory.rule_index`, `terms.RuleIndex`), behind one root test that
`r_root` and `one_step_reducts` share with the search's `_first_step`:
beta is an application whose function is an abstraction, by exact type;
a root that is neither an application nor a constant goes to no rule;
any other root is dispatched to its bucket, whose compiled lhs programs
run in declaration order and whose rhs programs build the reducts.  A
rule whose lhs is not an algebraic pattern sits in no bucket and never
fires, and no algebraic pattern matches a beta redex, so a position has
a beta step or rule steps, never both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    App,
    Const,
    FVar,
    Lam,
    Pi,
    Position,
    RewriteRule,
    Term,
    Theory,
    _with_child,
    children,
    instantiate,
    substitute_many,
    subterm_positions,
)

DEFAULT_FUEL = 1_000_000


@dataclass
class FuelExhausted:
    """Outcome value for a reduction that ran out of budget."""

    last: Term

    def __bool__(self):
        # Tri-state results (True | False | FuelExhausted) must not silently
        # collapse into truthiness.
        raise TypeError("FuelExhausted has no boolean value; test with isinstance")


class Fuel:
    """Mutable step budget shared across one logical operation."""

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.remaining = steps

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def r_root(t: Term, theory: Theory) -> tuple[Term, str] | None:
    """First rule in declaration order whose lhs matches at the root,
    behind the root test of the module docstring."""
    index = theory.rule_index
    return index.rewrite(t) if type(t) in index.roots else None


def one_step_reducts(t: Term, theory: Theory) -> list[Term]:
    """All one-step reducts at any position, deduplicated up to alpha.

    One preorder walk: each entry carries the path above it as nested
    (parent, child index, path above the parent), and only the path of a
    position that fires is rebuilt.  A subterm marked normal under the
    theory's rules is skipped.  Each application or binder also leaves an
    entry that is popped once its subterm is walked, carrying the number
    of reducts found before its own root steps: if none were found since,
    its whole subterm is normal and gets the mark."""
    rules, index = theory.rules, theory.rule_index
    out: list[Term] = []
    stack: list[tuple[Term, tuple | int | None]] = [(t, None)]
    while stack:
        node, path = stack.pop()
        if type(path) is int:
            if len(out) == path:
                node._normal = rules
            continue
        mark = node._normal
        if mark is not None and (mark is rules or not rules):
            continue
        found = len(out)
        cls = type(node)
        if cls is App and type(node.fn) is Lam:
            reducts = [instantiate(node.fn.body, node.arg)]
        else:
            reducts = index.rewrites(node) if cls in index.roots else ()
        for reduct in reducts:
            up = path
            while up is not None:
                parent, i, up = up
                reduct = _with_child(parent, i, reduct)
            out.append(reduct)
        if cls is App:
            stack += ((node, found), (node.arg, (node, 1, path)), (node.fn, (node, 0, path)))
        elif cls is Pi:
            stack += ((node, found), (node.codomain, (node, 1, path)),
                      (node.domain, (node, 0, path)))
        elif cls is Lam:
            stack += ((node, found), (node.body, (node, 1, path)),
                      (node.annotation, (node, 0, path)))
    return list(dict.fromkeys(out))


# -- leftmost-outermost search ------------------------------------------------
#
# A search walks the term in preorder with an explicit stack of the current
# position's ancestors, each with the index of the child taken and that
# child as the ancestor holds it.  Whether a position is a redex depends
# only on the subterm there, so after a step at position p only p's
# ancestors can have changed before p in preorder: the applications among
# them up to the nearest binder above p are re-checked outermost first, and
# failing them the search resumes at p.  The steps taken are exactly those
# of a rescan from the root after every step.
#
# No binder is a redex: beta contracts an application, and an algebraic
# lhs has a constant head.  So a step lies below the nearest binder above
# it, and every node from that binder up keeps its constructor: an
# application above it keeps its beta status, and a rule pattern sees
# through a binder only with a pattern variable, which matches whatever
# lies below.
#
# An ancestor is stale exactly when the subterm below it is not its recorded
# child.  It is rebuilt only when needed (an application to re-check, a
# trace entry, the final term) or on the way back up, so a step under a
# binder copies no path above it.
#
# The search marks what it proves normal (`terms`, `_normal`) and treats
# a subterm marked under the theory's rules like a normal leaf.  A mark
# made under some rules holds under no rules at all, since beta-normal is
# part of normal under any rules, but not under other rules.  When the
# search pops past an ancestor from its second child, that ancestor,
# rebuilt, is marked.  This is sound by the invariant above.  Both
# children are normal: the first lies before the current position, and
# the second's subterm has just been walked to its end.  The ancestor's
# root was found no redex when the search first reached it.  Every step
# since then lay below it.  If no binder lay between such a step and the
# ancestor, the ancestor was re-checked after the step.  Otherwise the
# step could not change the ancestor's redex status.  So a rescan from the
# root would find no step in the marked subterm either.

Ancestors = list[tuple[Term, int, Term]]


def _first_step(t: Term, theory: Theory) -> tuple[Term, str] | None:
    """The step leftmost-outermost takes at the root of t: beta, or the
    first rule in declaration order that matches."""
    cls = type(t)
    if cls is App and type(t.fn) is Lam:
        return instantiate(t.fn.body, t.arg), "beta"
    # r_root's root test, inline: this runs at every position searched
    index = theory.rule_index
    return index.rewrite(t) if cls in index.roots else None


def _rebuild(above: Ancestors, sub: Term, level: int = 0) -> Term:
    """Bring the ancestors from `level` down up to date with `sub`, the
    subterm below the last of them; returns the node at `level`."""
    for k in range(len(above) - 1, level - 1, -1):
        node, i, child = above[k]
        if child is not sub:
            node = _with_child(node, i, sub)
            above[k] = (node, i, sub)
        sub = node
    return sub


def _search(t: Term, above: Ancestors, theory: Theory, head: bool = False):
    """First step at t or after it in preorder, every position before t
    being normal: (step, redex) with `above` left holding the redex's
    ancestors, or (None, root) with `above` emptied.  With `head`, a root
    that is neither an application nor a redex ends the search.  Marks
    each ancestor it leaves normal, and skips marked subterms."""
    rules = theory.rules
    while True:
        mark = t._normal
        if mark is None or (rules and mark is not rules):
            step = _first_step(t, theory)
            if step is not None:
                return step, t
            if head and not above and not isinstance(t, App):
                return None, t
            match t:
                case App(first, _) | Pi(_, first, _) | Lam(_, first, _):
                    above.append((t, 0, first))
                    t = first
                    continue
        while above:
            parent, i, child = above.pop()
            if child is not t:
                parent = _with_child(parent, i, t)
            if i == 0:
                t = children(parent)[1]
                above.append((parent, 1, t))
                break
            parent._normal = rules
            t = parent
        else:
            return None, t


def _reduce(
    t: Term,
    theory: Theory,
    fuel: Fuel,
    trace: list[tuple[Position, str, Term]] | None,
    head: bool,
) -> Term | FuelExhausted:
    """Leftmost-outermost steps until normal, or with `head` until the root
    is neither an application nor a redex."""
    above: Ancestors = []
    step, t = _search(t, above, theory, head)
    while step is not None:
        if not fuel.spend():
            return FuelExhausted(_rebuild(above, t))
        t, label = step
        if trace is not None:
            trace.append((tuple(i for _, i, _ in above), label, _rebuild(above, t)))
        fence = len(above)
        while fence and isinstance(above[fence - 1][0], App):
            fence -= 1
        _rebuild(above, t, fence)
        for k in range(fence, len(above)):
            step = _first_step(above[k][0], theory)
            if step is not None:
                t = above[k][0]
                del above[k:]
                break
        else:
            step, t = _search(t, above, theory, head)
    return t


def normalize(
    t: Term,
    theory: Theory,
    *,
    fuel: Fuel | None = None,
    trace: list[tuple[Position, str, Term]] | None = None,
) -> Term | FuelExhausted:
    """Leftmost-outermost normalization; exhaustion returns the last term."""
    return _reduce(t, theory, Fuel() if fuel is None else fuel, trace, head=False)


def whnf(t: Term, theory: Theory, *, fuel: Fuel | None = None) -> Term | FuelExhausted:
    """Leftmost-outermost steps until the root is neither an application
    nor a redex: a binder, a sort or an atom no rule rewrites, subterms
    untouched.

    Rule patterns can require inner structure, so while the root is an
    application this keeps stepping below it; an application root is left
    only when the whole term is normal.  A root that is no application
    and that `_search`'s root test sends to no rule is returned at once.
    """
    cls = type(t)
    if cls is not App and cls not in theory.rule_index.roots:
        return t
    return _reduce(t, theory, Fuel() if fuel is None else fuel, None, head=True)


def convertible(
    t: Term,
    u: Term,
    theory: Theory,
    fuel: Fuel | None = None,
) -> bool | FuelExhausted:
    """Beta-R convertibility, decided on weak-head forms.  Two binders
    compare part by part; any other pair by alpha-equivalence, which is
    exact because whnf leaves any other root only on a normal term.  Both
    sides follow the leftmost-outermost strategy, so the answer is whether
    their normal forms are equal, whenever they exist: convertibility when
    the theory's rewrite relation is confluent (both shipped theories are)."""
    fuel = Fuel() if fuel is None else fuel
    if t == u:
        return True
    wt = whnf(t, theory, fuel=fuel)
    if isinstance(wt, FuelExhausted):
        return wt
    wu = whnf(u, theory, fuel=fuel)
    if isinstance(wu, FuelExhausted):
        return wu
    match (wt, wu):
        case (Pi(_, a1, b1), Pi(_, a2, b2)) | (Lam(_, a1, b1), Lam(_, a2, b2)):
            sub = convertible(a1, a2, theory, fuel)
            if sub is not True:
                return sub
            return convertible(b1, b2, theory, fuel)
        case _:
            return wt == wu


def is_normal(t: Term, theory: Theory) -> bool:
    return _search(t, [], theory)[0] is None


def patterns_overlap(l1: Term, l2: Term, skip_root: bool = False) -> bool:
    """Can some term match l1 at the root and l2 at a non-variable position?

    Patterns are linear with disjoint variable namespaces assumed, so plain
    structural unification without an occurs check decides it.
    """

    def unify(a: Term, b: Term) -> bool:
        if isinstance(a, FVar) or isinstance(b, FVar):
            return True
        match (a, b):
            case (Const(x), Const(y)):
                return x == y
            case (App(f1, a1), App(f2, a2)):
                return unify(f1, f2) and unify(a1, a2)
            case _:
                return a == b

    for pos, sub in subterm_positions(l2):
        if isinstance(sub, FVar):
            continue
        if pos == () and skip_root:
            continue
        if unify(l1, sub):
            return True
    return False


def rule_overlap_warnings(theory: Theory) -> list[str]:
    warnings = []
    for i, r1 in enumerate(theory.rules):
        l1 = r1.lhs
        if patterns_overlap(l1, _freshen_lhs(r1), skip_root=True):
            warnings.append(f"rule {r1.label} overlaps itself at a proper position")
        for r2 in theory.rules[i + 1 :]:
            l2 = _freshen_lhs(r2)
            if patterns_overlap(l1, l2) or patterns_overlap(l2, l1, skip_root=True):
                warnings.append(f"rules {r1.label} and {r2.label} overlap")
    return warnings


def _freshen_lhs(rule: RewriteRule) -> Term:
    renaming = {x: FVar(x + "'") for x, _ in rule.ctx}
    return substitute_many(rule.lhs, renaming)
