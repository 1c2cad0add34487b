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

from .errors import FuelError, PiModuloError
from .reduction import BETA_R, DEFAULT_FUEL, Fuel, FuelExhausted, is_normal, normalize
from .reduction import one_step_reducts
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
from .typecheck import infer


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


def sample_well_typed(
    theory: Theory,
    count: int,
    seed: int = 0,
    ctx: Context = (),
    max_size: int = 30,
    mode: str = BETA_R,
):
    """Randomly grown well-typed terms, deterministic in the seed.

    The pool starts at the atoms and grows by application and by binding;
    candidates that fail the checker are dropped, so the yield is always
    checker-approved.  Heads are biased toward the signature to reach the
    rewrite rules often.
    """
    rng = random.Random(seed)
    atoms: list[Term] = [TYPE]
    atoms.extend(Const(name) for name, _ in theory.signature)
    atoms.extend(FVar(name) for name, _ in ctx)
    pool: list[tuple[Term, Term]] = []
    # Indexes into the pool, kept in insertion order so the draws below
    # see exactly the lists a scan over the pool would build.
    fns: list[tuple[Term, Term]] = []
    anns: list[Term] = []
    by_type: dict[Term, list[Term]] = {}

    def admit(t: Term, ty: Term) -> None:
        pool.append((t, ty))
        if isinstance(ty, Pi):
            fns.append((t, ty))
        if ty == TYPE:
            anns.append(t)
        by_type.setdefault(ty, []).append(t)

    for a in atoms:
        try:
            admit(a, infer(theory, ctx, a, mode=mode))
        except PiModuloError:
            continue
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
            f, fty = rng.choice(fns)
            fitting = by_type.get(fty.domain, ())
            if fitting and rng.random() < 0.8:
                t = App(f, rng.choice(fitting))
            else:
                t = App(f, rng.choice(pool)[0])
        elif r < 0.8:
            if not anns:
                continue
            ann = rng.choice(anns)
            body, _ = rng.choice(pool)
            bindable = sorted(free_vars(body) & {n for n, _ in ctx})
            if bindable and rng.random() < 0.5:
                body = close_binder(body, rng.choice(bindable))
            t = (Lam if rng.random() < 0.7 else Pi)("x", ann, body)
        else:
            t = rng.choice(atoms)
        if term_size(t) > max_size or t in seen:
            continue
        try:
            ty = infer(theory, ctx, t, mode=mode)
        except PiModuloError:
            continue
        admit(t, ty)
        seen.add(t)
        produced += 1
        yield t, ty


def convertible_pairs(
    theory: Theory,
    seeds,
    max_size: int = 8,
    mode: str = BETA_R,
    ctx: Context = (),
):
    """Pairs of convertible terms: each seed against every prefix of its
    normalization trace, against its one-step reducts, and under a typed
    identity redex.  Well-typed seeds give well-typed pairs, which is what
    the model sweeps need."""
    seen: set[tuple[Term, Term]] = set()
    for seed in seeds:
        trace: list = []
        result = normalize(seed, theory, mode, trace=trace)
        if isinstance(result, FuelExhausted):
            continue
        chain = [seed] + [step for _, _, step in trace]
        for i, a in enumerate(chain):
            for b in chain[i:]:
                if term_size(a) <= max_size and term_size(b) <= max_size:
                    if (a, b) not in seen:
                        seen.add((a, b))
                        yield a, b
        for r in one_step_reducts(seed, theory, mode):
            if term_size(seed) <= max_size and term_size(r) <= max_size:
                if (seed, r) not in seen:
                    seen.add((seed, r))
                    yield seed, r
        try:
            seed_ty = infer(theory, ctx, seed, mode=mode)
            expanded = App(Lam("x", seed_ty, Var(0)), seed)
            infer(theory, ctx, expanded, mode=mode)
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
    mode: str = BETA_R,
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
        out = normalize(t, theory, mode, Fuel(fuel))
        if isinstance(out, FuelExhausted):
            raise FuelError("normalization budget exhausted during enumeration")
        return out

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
        if not is_normal(t, theory, mode):
            continue
        try:
            infer(theory, ctx, t, Fuel(fuel), mode)
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
