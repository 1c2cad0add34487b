"""Reference enumerator: `enumerate_normal_inhabitants` as it stood before
the memoized exact-size walk, copied verbatim as an oracle.

It draws every spine argument and every product domain from all terms of
size at most a budget, for each budget in turn, so it rebuilds each
candidate many times and hides the repeats behind a `seen` set; slow,
but the order in which it first meets each term is the order
`pimodulo.generate` must keep, since `--limit` cuts the stream.  The
package takes no mode, so its calls into the package ask for beta alone
as reduction under the theory without its rules.
"""

from __future__ import annotations

from pimodulo.errors import PiModuloError
from pimodulo.reduction import FuelExhausted, is_normal, normalize
from pimodulo.terms import (
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
    close_binder,
    instantiate,
    term_size,
)
from pimodulo.typecheck import infer
from reference_reduction import BETA_R


def enumerate_normal_inhabitants(
    theory: Theory,
    target: Term,
    max_size: int,
    ctx: Context = (),
    mode: str = BETA_R,
):
    """Every normal term of size up to max_size whose type converts to the
    target, assuming the theory rewrites confluently and terminates.

    Normal terms are abstractions (only against a product type, and then
    the annotation is forced to the product's normal domain), products and
    the sort Type (only against a sort), or spines headed by a variable or
    constant.  Spine arguments are enumerated left to right so dependent
    domains see earlier arguments.
    """

    reducing = theory if mode == BETA_R else theory.without_rules()

    def norm(t: Term) -> Term:
        out = normalize(t, reducing)
        if isinstance(out, FuelExhausted):
            raise PiModuloError("normalization budget exhausted during enumeration")
        return out

    heads: list[tuple[Term, Term]] = []
    heads.extend((FVar(n), norm(ty)) for n, ty in ctx)
    heads.extend((Const(n), norm(ty)) for n, ty in theory.signature)

    fresh_counter = [0]

    def fresh(hint: str) -> str:
        fresh_counter[0] += 1
        return f"{hint}?{fresh_counter[0]}"

    def inhabit(goal: Term, size: int, local: list[tuple[str, Term]]):
        """Normal terms of size <= size whose type converts to goal, which
        must arrive normalized."""
        if size < 1:
            return
        match goal:
            case Pi(hint, dom, cod):
                x = fresh(hint if hint != "_" else "z")
                opened = norm(instantiate(cod, FVar(x)))
                for body in inhabit(opened, size - 1 - term_size(dom), local + [(x, dom)]):
                    yield Lam(hint, dom, close_binder(body, x))
        if goal == KIND:
            yield TYPE
        if goal in (TYPE, KIND):
            for left in range(1, size - 1):
                x = fresh("z")
                for dom in inhabit(TYPE, left, local):
                    for cod in inhabit(goal, size - 1 - left, local + [(x, dom)]):
                        yield Pi("z", dom, close_binder(cod, x))
        for head, hty in list(heads) + [(FVar(n), ty) for n, ty in local]:
            yield from spines(head, hty, goal, size, local)

    def spines(spine: Term, sty: Term, goal: Term, size: int, local):
        used = term_size(spine)
        if used > size:
            return
        if sty == goal:
            yield spine
        match sty:
            case Pi(_, dom, cod):
                for arg_size in range(1, size - used):
                    for arg in inhabit(dom, arg_size, local):
                        ext = norm(instantiate(cod, arg))
                        yield from spines(App(spine, arg), ext, goal, size, local)

    goal_n = norm(target)
    seen: set[Term] = set()
    for t in inhabit(goal_n, max_size, []):
        if t in seen:
            continue
        seen.add(t)
        if not is_normal(t, reducing):
            continue
        try:
            infer(reducing, ctx, t)
        except PiModuloError:
            continue
        yield t

