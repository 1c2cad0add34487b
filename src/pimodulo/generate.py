"""Term generators for tests and scans.

Both exhaustive enumerators go by node count and memoize the terms of
each exact size, so subterms are shared: the raw one keyed also by binder
depth, the normal-inhabitant one by goal and local binders.  The latter
is type-directed and, for a confluent terminating theory, produces every
normal inhabitant within the size bound, which is what lets an empty
scan double as a non-inhabitation certificate.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from .errors import FuelError, PiModuloError
from .reduction import (
    DEFAULT_FUEL,
    Fuel,
    FuelExhausted,
    is_normal,
    normalize,
    one_step_reducts,
)
from .terms import (
    App,
    Const,
    Context,
    FVar,
    KIND,
    Lam,
    Pi,
    TYPE,
    Term,
    Theory,
    Var,
    close_binder,
    free_vars,
    instantiate,
    term_size,
)
from .typecheck import applied_type, check_codomain, head_product, infer


def enumerate_raw_terms(max_size: int, atoms: tuple[Term, ...] = (TYPE,)):
    """Yield every term of size up to max_size built from the given atoms,
    applications, and both binders (annotated with enumerated terms)."""

    @cache
    def exact(size: int, depth: int) -> tuple[Term, ...]:
        if size == 1:
            return tuple(atoms) + tuple(Var(i) for i in range(depth))
        out: list[Term] = []
        for left in range(1, size - 1):
            right = size - 1 - left
            for a in exact(left, depth):
                for b in exact(right, depth):
                    out.append(App(a, b))
            for ann in exact(left, depth):
                for body in exact(right, depth + 1):
                    out.append(Lam("x", ann, body))
                    out.append(Pi("x", ann, body))
        return tuple(out)

    for size in range(1, max_size + 1):
        yield from exact(size, 0)


def _normal(t: Term, theory: Theory, fuel: Fuel, during: str) -> Term:
    """The normal form of t, or FuelError if the fuel runs out first."""
    out = normalize(t, theory, fuel=fuel)
    if isinstance(out, FuelExhausted):
        raise FuelError(f"normalization budget exhausted during {during}")
    return out


class _Entry(NamedTuple):
    """A sampled term with its normal type, its size and the context names
    free in it."""

    term: Term
    ty: Term
    size: int
    free: frozenset


def sample_well_typed(
    theory: Theory,
    count: int,
    seed: int = 0,
    ctx: Context = (),
    max_size: int = 30,
    fuel: int = DEFAULT_FUEL,
):
    """Randomly grown well-typed terms, deterministic in the seed.

    The pool starts at the atoms and grows by application and by binding;
    candidates that fail the checker are dropped, so the yield is always
    checker-approved.  Heads are biased toward the signature to reach the
    rewrite rules often.

    A pool entry keeps its term with the term's normal type, its node
    count and the context names free in it.  A candidate is sized from
    its parts and, mostly, typed from their stored types by the kernel's
    own rules:

    - an application by `head_product` and `applied_type`, the codomain
      at the argument normalized;
    - a binder whose body closes over no context variable: the body has
      the same type under the binder as outside it, so a product takes
      the body's sort, and an abstraction the normalized product of its
      annotation and the body's type, once `check_codomain` (memoized
      per type) accepts that type;
    - an atom keeps the type it was first admitted with.

    `infer` types the atoms at the start and the binders that close over
    a context variable.  Each candidate gets its own `fuel` steps; one
    that runs out is dropped like an ill-typed one.
    """
    rng = random.Random(seed)
    names = frozenset(n for n, _ in ctx)
    atoms: list[Term] = [TYPE]
    atoms.extend(Const(name) for name, _ in theory.signature)
    atoms.extend(FVar(name) for name, _ in ctx)
    typed_atoms: dict[Term, _Entry] = {}
    pool: list[_Entry] = []
    # Indexes into the pool, kept in insertion order so the draws below
    # see exactly the lists a scan over the pool would build.
    fns: list[_Entry] = []
    anns: list[_Entry] = []
    by_type: dict[Term, list[_Entry]] = {}

    def admit(entry: _Entry) -> None:
        pool.append(entry)
        if isinstance(entry.ty, Pi):
            fns.append(entry)
        if entry.ty == TYPE:
            anns.append(entry)
        by_type.setdefault(entry.ty, []).append(entry)

    @cache
    def has_sort(body_ty: Term) -> bool:
        try:
            check_codomain(theory, ctx, body_ty, Fuel(fuel))
        except PiModuloError:
            return False
        return True

    for t in atoms:
        try:
            ty = infer(theory, ctx, t, Fuel(fuel))
        except PiModuloError:
            continue
        typed_atoms[t] = _Entry(t, ty, 1, names.intersection(free_vars(t)))
        admit(typed_atoms[t])
    produced = 0
    attempts = 0
    limit = max(500, count * 400)
    seen: set[Term] = set()
    while produced < count and attempts < limit:
        attempts += 1
        r = rng.random()
        if r < 0.55:
            if not fns:
                continue
            f = rng.choice(fns)
            fitting = by_type.get(f.ty.domain, ())
            a = rng.choice(fitting) if fitting and rng.random() < 0.8 else rng.choice(pool)
            t = App(f.term, a.term)
            size, free = 1 + f.size + a.size, f.free | a.free
        elif r < 0.8:
            if not anns:
                continue
            ann = rng.choice(anns)
            body = rng.choice(pool)
            closes = None
            if body.free and rng.random() < 0.5:
                closes = rng.choice(sorted(body.free))
            binder = Lam if rng.random() < 0.7 else Pi
            size, free = 1 + ann.size + body.size, ann.free | (body.free - {closes})
            if size > max_size:
                continue
            inner = body.term if closes is None else close_binder(body.term, closes)
            t = binder("x", ann.term, inner)
        else:
            atom = typed_atoms.get(rng.choice(atoms))
            if atom is None:
                continue
            t, _, size, free = atom
        if size > max_size or t in seen:
            continue
        budget = Fuel(fuel)
        try:
            if type(t) is App:
                pi = head_product(theory, f.term, f.ty, budget)
                ty = _normal(applied_type(theory, pi, a.term, a.ty, budget), theory, budget, "sampling")
            elif type(t) not in (Lam, Pi):
                ty = atom.ty
            elif closes is not None:
                ty = infer(theory, ctx, t, budget)
            elif type(t) is Pi:
                # the body's type under the binder is its type outside it
                ty = body.ty if body.ty in (TYPE, KIND) else None
            elif has_sort(body.ty):
                ty = _normal(Pi("x", ann.term, body.ty), theory, budget, "sampling")
            else:
                ty = None
        except PiModuloError:
            continue
        if ty is None:
            continue
        admit(_Entry(t, ty, size, free))
        seen.add(t)
        produced += 1
        yield t, ty


def convertible_pairs(
    theory: Theory,
    seeds,
    max_size: int = 8,
    ctx: Context = (),
    fuel: int = DEFAULT_FUEL,
):
    """Pairs of convertible terms: each seed against every prefix of its
    normalization trace, against its one-step reducts, and under a typed
    identity redex.  Well-typed seeds give well-typed pairs, which is what
    the model sweeps need.  Normalizing a seed and each of the two type
    inferences get `fuel` steps of their own; a seed whose normalization
    runs out keeps the trace prefixes taken before it did, each distinct
    term once, and one whose inference does loses its redex."""
    seen: set[tuple[Term, Term]] = set()
    for seed in seeds:
        trace: list = []
        normalize(seed, theory, fuel=Fuel(fuel), trace=trace)
        # the strategy is deterministic, so a trace that meets a term again
        # is a loop: keeping each term once keeps the trace to that point
        chain = dict.fromkeys([seed] + [step for _, _, step in trace])
        small = [t for t in chain if term_size(t) <= max_size]
        for i, a in enumerate(small):
            for b in small[i:]:
                if (a, b) not in seen:
                    seen.add((a, b))
                    yield a, b
        for r in one_step_reducts(seed, theory):
            if term_size(seed) <= max_size and term_size(r) <= max_size:
                if (seed, r) not in seen:
                    seen.add((seed, r))
                    yield seed, r
        try:
            seed_ty = infer(theory, ctx, seed, Fuel(fuel))
            expanded = App(Lam("x", seed_ty, Var(0)), seed)
            infer(theory, ctx, expanded, Fuel(fuel))
        except PiModuloError:
            continue
        if term_size(expanded) <= max_size and (expanded, seed) not in seen:
            seen.add((expanded, seed))
            yield expanded, seed


def enumerate_normal_inhabitants(
    theory: Theory,
    target: Term,
    max_size: int,
    ctx: Context = (),
    fuel: int = DEFAULT_FUEL,
):
    """Every normal term of size up to max_size whose type converts to the
    target, assuming the theory rewrites confluently and terminates.

    Normal terms are abstractions (only against a product type, and then
    the annotation is forced to the product's normal domain), products and
    the sort Type (only against a sort), or spines headed by a variable or
    constant; spine arguments go left to right so dependent domains see
    earlier ones.  Arguments and product domains come from a memo of the
    terms of exact size k, keyed by k, the goal and the local binders
    (named by depth), and by the repr of each type, since term equality
    ignores the binder hints that abstractions take from their goal.  An
    entry walks the goal at budget k and keeps the size-k terms: subterms
    are shared, the outer constructors of smaller candidates are rebuilt
    per k.  The order is that of first appearance when every argument
    budget k = 1, 2, ... is searched in turn.  Each normalization and
    inference has `fuel` steps; running out raises `FuelError`.
    """

    def norm(t: Term) -> Term:
        return _normal(t, theory, Fuel(fuel), "enumeration")

    heads = [(FVar(n), norm(ty)) for n, ty in ctx]
    heads.extend((Const(n), norm(ty)) for n, ty in theory.signature)

    @cache
    def exact(goal: Term, shown: str, n: int, local: tuple) -> tuple[Term, ...]:
        return tuple(t for t, size in walk(goal, n, local) if size == n)

    def walk(goal: Term, budget: int, local: tuple):
        """(term, size) for each candidate of size <= budget whose type
        converts to goal, which must arrive normalized."""
        if budget < 1:
            return
        x = f"?{len(local)}"
        match goal:
            case Pi(hint, dom, cod):
                used = 1 + term_size(dom)
                opened = norm(instantiate(cod, FVar(x)))
                for body, size in walk(opened, budget - used, local + ((x, dom, repr(dom)),)):
                    yield Lam(hint, dom, close_binder(body, x)), used + size
        if goal == KIND:
            yield TYPE, 1
        if goal in (TYPE, KIND):
            for left in range(1, budget - 1):
                for dom in exact(TYPE, "", left, local):
                    for cod, size in walk(goal, budget - 1 - left, local + ((x, dom, repr(dom)),)):
                        yield Pi("z", dom, close_binder(cod, x)), 1 + left + size

        def spine(term: Term, ty: Term, used: int):
            if ty == goal:
                yield term, used
            match ty:
                case Pi(_, dom, cod):
                    shown = repr(dom)
                    for k in range(1, budget - used):
                        for arg in exact(dom, shown, k, local):
                            yield from spine(App(term, arg), norm(instantiate(cod, arg)), used + 1 + k)

        for head, hty in heads + [(FVar(n), ty) for n, ty, _ in local]:
            yield from spine(head, hty, 1)

    for t, _ in walk(norm(target), max_size, ()):
        if not is_normal(t, theory):
            continue
        try:
            infer(theory, ctx, t, Fuel(fuel))
        except FuelError:
            raise
        except PiModuloError:
            continue
        yield t


def gen_raw_term(rng: random.Random, max_size: int, names: tuple[str, ...] = ("x", "y'", "f")) -> Term:
    """A random raw term for printer round-trips; no typing discipline."""
    if max_size <= 1:
        return rng.choice([TYPE, KIND, FVar(rng.choice(names)), Const(rng.choice(("c", "d'")))])
    shape = rng.randrange(3)
    left = rng.randrange(1, max_size)
    right = max_size - left
    if shape == 0:
        return App(gen_raw_term(rng, left, names), gen_raw_term(rng, right, names))
    hint = rng.choice(names)
    ann = gen_raw_term(rng, left, names)
    body = gen_raw_term(rng, right, names + (hint,))
    body = close_binder(body, hint)
    ctor = Lam if shape == 1 else Pi
    return ctor(hint, ann, body)
