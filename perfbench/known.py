"""Known-answer judgements for the `check` workload.

Every item is built here from a small formula (stt) or code (cc) syntax
tree, together with its verdict and the normal form of its subject.  Both
answers follow from the construction and from the shipped rewrite rules,
worked out by hand below; nothing here asks pimodulo for an answer.

Families, and why each is in the mix:

- prop / code: plain well-formedness, the cheapest judgement, mostly
  `infer` on small spines.
- eps: decoding a proposition or code into a type; normalizing the subject
  fires one rule per connective.
- id: `\\h : eps P. h : eps (imp P P)` only checks after rule r1 (or the
  pi_TTT rule) rewrites the expected type, so conversion does real work.
- mp: modus ponens; `convertible` compares an argument type against a
  rewritten domain.
- elim: `all` (stt) or `pi_KTT` (cc) elimination; the result type is a
  beta redex under a rewrite, so instantiation and whnf both run.
- beta: a beta redex inside the subject or its type.
- mutants: one side of an id, mp, elim or beta judgement is swapped for a
  different formula or code, so the two sides have different normal forms
  and the verdict is a type error.
- chains: `eps (imp p (imp p ...))`, an identity over it and a chain of
  nested identity redexes at n, 2n and 4n; these are the deep terms whose
  normalization is quadratic today.

Normal forms are compared after parsing both texts, so binder names and
redundant parentheses do not matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Item:
    """One judgement and its known answers.

    `verdict` is "ok" or "type-error".  For an inference judgement (no
    `: type` after the term) `inferred` holds the known type.
    `nf` is the normal form of the judgement's subject term.
    """

    family: str
    text: str
    verdict: str
    nf: str
    inferred: str | None = None


def par(s: str) -> str:
    return s if " " not in s else f"({s})"


# --- stt formulas ------------------------------------------------------------
#
# ("var", p) | ("atom", arg) for P arg | ("imp", A, B) | ("all", x, B), where
# ("all", x, B) is all[iota] (\x : iota. B).  Binder names are x<depth>, so two
# formulas are alpha-equal exactly when they are equal as tuples.

STT_PROPS = ("p", "q", "r")
STT_INDIVIDUALS = ("a", "b")
STT_CTX = "p : o, q : o, r : o, a : iota, b : iota, P : iota -> o"
STT_NAMES = frozenset({"p", "q", "r", "a", "b", "P"})


def stt_formula(rng: random.Random, depth: int, bound: tuple[str, ...] = ()) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ("var", rng.choice(STT_PROPS))
        return ("atom", rng.choice(STT_INDIVIDUALS + bound))
    if rng.random() < 0.7:
        return ("imp", stt_formula(rng, depth - 1, bound), stt_formula(rng, depth - 1, bound))
    x = f"x{len(bound)}"
    return ("all", x, stt_formula(rng, depth - 1, bound + (x,)))


def stt_text(f: tuple) -> str:
    match f:
        case ("var", v):
            return v
        case ("atom", arg):
            return f"P {arg}"
        case ("imp", a, b):
            return f"imp {par(stt_text(a))} {par(stt_text(b))}"
        case ("all", x, body):
            return f"all[iota] (\\{x} : iota. {stt_text(body)})"
    raise ValueError(f)


def stt_eps_nf(f: tuple) -> str:
    """Normal form of `eps f`: r1 turns imp into an arrow, r2 turns
    all[iota] X into Pi z : iota. eps (X z), and X z beta-reduces."""
    match f:
        case ("var", v):
            return f"eps {v}"
        case ("atom", arg):
            return f"eps (P {arg})"
        case ("imp", a, b):
            return f"({stt_eps_nf(a)}) -> ({stt_eps_nf(b)})"
        case ("all", x, body):
            return f"(Pi {x} : iota. {stt_eps_nf(body)})"
    raise ValueError(f)


def stt_subst(f: tuple, x: str, arg: str) -> tuple:
    match f:
        case ("atom", a):
            return ("atom", arg if a == x else a)
        case ("imp", a, b):
            return ("imp", stt_subst(a, x, arg), stt_subst(b, x, arg))
        case ("all", y, body):
            return ("all", y, stt_subst(body, x, arg))
    return f


# --- cc codes ------------------------------------------------------------------
#
# ("var", A) | ("arr", c, d) for pi_TTT c (\z : eps_Type c. d) |
# ("poly", a, body) for pi_KTT dot_Type (\a : eps_Kind dot_Type. body).

CC_CODES = ("A", "B", "C")
CC_CTX = "A : U_Type, B : U_Type, C : U_Type"
CC_NAMES = frozenset(CC_CODES)


def cc_code(rng: random.Random, depth: int, bound: tuple[str, ...] = ()) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        return ("var", rng.choice(CC_CODES + bound))
    if rng.random() < 0.7:
        # the domain is printed twice (code and binder annotation), so keep
        # it shallow or the text grows exponentially with depth
        return ("arr", cc_code(rng, min(1, depth - 1), bound), cc_code(rng, depth - 1, bound))
    a = f"a{len(bound)}"
    return ("poly", a, cc_code(rng, depth - 1, bound + (a,)))


def cc_text(c: tuple) -> str:
    match c:
        case ("var", v):
            return v
        case ("arr", a, b):
            return f"pi_TTT {par(cc_text(a))} (\\z : eps_Type {par(cc_text(a))}. {cc_text(b)})"
        case ("poly", a, body):
            return f"pi_KTT dot_Type (\\{a} : eps_Kind dot_Type. {cc_text(body)})"
    raise ValueError(c)


def cc_eps_nf(c: tuple) -> str:
    """Normal form of `eps_Type c`: the pi_TTT rule gives a non-dependent
    arrow, the pi_KTT rule a product over eps_Kind dot_Type = U_Type."""
    match c:
        case ("var", v):
            return f"eps_Type {v}"
        case ("arr", a, b):
            return f"({cc_eps_nf(a)}) -> ({cc_eps_nf(b)})"
        case ("poly", a, body):
            return f"(Pi {a} : U_Type. {cc_eps_nf(body)})"
    raise ValueError(c)


def cc_nf(c: tuple) -> str:
    """Normal form of the code itself: only binder annotations reduce."""
    match c:
        case ("var", v):
            return v
        case ("arr", a, b):
            return f"pi_TTT ({cc_nf(a)}) (\\z : {cc_eps_nf(a)}. {cc_nf(b)})"
        case ("poly", a, body):
            return f"pi_KTT dot_Type (\\{a} : U_Type. {cc_nf(body)})"
    raise ValueError(c)


def cc_subst(c: tuple, x: str, code: tuple) -> tuple:
    match c:
        case ("var", v):
            return code if v == x else c
        case ("arr", a, b):
            return ("arr", cc_subst(a, x, code), cc_subst(b, x, code))
        case ("poly", a, body):
            return ("poly", a, cc_subst(body, x, code))
    raise ValueError(c)


def mentions(tree: tuple, name: str) -> bool:
    return any(
        part == name or (isinstance(part, tuple) and mentions(part, name))
        for part in tree[1:]
    )


# --- the two vocabularies, side by side ---------------------------------------


class Stt:
    """Formulas of the stt theory, decoded by eps."""

    ctx, names, eps, prop_type = STT_CTX, STT_NAMES, "eps", "o"
    tree = staticmethod(stt_formula)
    text = nf = staticmethod(stt_text)
    eps_nf = staticmethod(stt_eps_nf)
    arg_text = arg_nf = staticmethod(lambda arg: arg)

    @staticmethod
    def arrow(a, b):
        return ("imp", a, b)

    @staticmethod
    def quantified(rng, depth):
        body = stt_formula(rng, depth, ("x0",))
        while not mentions(body, "x0"):
            body = stt_formula(rng, depth, ("x0",))
        return ("all", "x0", body)

    @staticmethod
    def instantiate(q, arg):
        return stt_subst(q[2], q[1], arg)

    @staticmethod
    def pick_arg(rng):
        return rng.choice(STT_INDIVIDUALS)

    @staticmethod
    def other_arg(rng, arg):
        return "b" if arg == "a" else "a"


class Cc:
    """Codes of the cc theory, decoded by eps_Type."""

    ctx, names, eps, prop_type = CC_CTX, CC_NAMES, "eps_Type", "U_Type"
    tree = staticmethod(cc_code)
    text = arg_text = staticmethod(cc_text)
    nf = arg_nf = staticmethod(cc_nf)
    eps_nf = staticmethod(cc_eps_nf)

    @staticmethod
    def arrow(a, b):
        return ("arr", a, b)

    @staticmethod
    def quantified(rng, depth):
        body = cc_code(rng, depth, ("a0",))
        while not mentions(body, "a0"):
            body = cc_code(rng, depth, ("a0",))
        return ("poly", "a0", body)

    @staticmethod
    def instantiate(q, arg):
        return cc_subst(q[2], q[1], arg)

    @staticmethod
    def pick_arg(rng):
        return cc_code(rng, 2)

    @staticmethod
    def other_arg(rng, arg):
        other = cc_code(rng, 2)
        while other == arg:
            other = cc_code(rng, 2)
        return other


STT, CC = Stt(), Cc()
Vocabulary = Stt | Cc


def _different(v: Vocabulary, rng, depth: int, than: tuple) -> tuple:
    other = v.tree(rng, depth)
    while other == than:
        other = v.tree(rng, depth)
    return other


def make_item(v: Vocabulary, family: str, rng: random.Random, depth: int) -> Item:
    """One judgement of the named family over vocabulary v."""
    e, ctx = v.eps, v.ctx
    phi = v.tree(rng, depth)
    T, ET = v.text, v.eps_nf
    if family == "prop":
        return Item(family, f"{ctx} |- {T(phi)} : {v.prop_type}", "ok", v.nf(phi))
    if family == "prop-infer":
        return Item(family, f"{ctx} |- {T(phi)}", "ok", v.nf(phi), inferred=v.prop_type)
    if family == "eps":
        return Item(family, f"{ctx} |- {e} {par(T(phi))} : Type", "ok", ET(phi))
    if family == "eps-mutant":
        return Item(family, f"{ctx} |- {e} {par(T(phi))} : {v.prop_type}", "type-error", ET(phi))
    lam = f"\\h : {e} {par(T(phi))}. h"
    lam_nf = f"\\h : {ET(phi)}. h"
    if family == "id":
        goal = v.arrow(phi, phi)
        return Item(family, f"{ctx} |- {lam} : {e} {par(T(goal))}", "ok", lam_nf)
    if family == "id-infer":
        return Item(family, f"{ctx} |- {lam}", "ok", lam_nf,
                    inferred=f"({ET(phi)}) -> ({ET(phi)})")
    if family == "id-mutant":
        goal = v.arrow(phi, _different(v, rng, depth, phi))
        return Item(family, f"{ctx} |- {lam} : {e} {par(T(goal))}", "type-error", lam_nf)
    psi = v.tree(rng, depth)
    fctx = f"{ctx}, f : {e} {par(T(v.arrow(phi, psi)))}"
    if family == "mp":
        return Item(family, f"{fctx}, h : {e} {par(T(phi))} |- f h : {e} {par(T(psi))}", "ok", "f h")
    if family == "mp-mutant-result":
        chi = _different(v, rng, depth, psi)
        return Item(family, f"{fctx}, h : {e} {par(T(phi))} |- f h : {e} {par(T(chi))}",
                    "type-error", "f h")
    if family == "mp-mutant-arg":
        chi = _different(v, rng, depth, phi)
        return Item(family, f"{fctx}, h : {e} {par(T(chi))} |- f h : {e} {par(T(psi))}",
                    "type-error", "f h")
    q = v.quantified(rng, depth)
    arg = v.pick_arg(rng)
    gctx = f"{ctx}, g : {e} {par(T(q))}"
    app = f"g {par(v.arg_text(arg))}"
    app_nf = f"g {par(v.arg_nf(arg))}"
    if family == "elim":
        goal = v.instantiate(q, arg)
        return Item(family, f"{gctx} |- {app} : {e} {par(T(goal))}", "ok", app_nf)
    if family == "elim-mutant":
        # q's body mentions its bound name, so another argument gives
        # another instance
        wrong = v.instantiate(q, v.other_arg(rng, arg))
        return Item(family, f"{gctx} |- {app} : {e} {par(T(wrong))}", "type-error", app_nf)
    redex = f"(\\y : {v.prop_type}. {T(v.arrow(('var', 'y'), ('var', 'y')))}) {par(T(phi))}"
    hctx = f"{ctx}, h : {e} ({redex})"
    if family == "beta":
        return Item(family, f"{hctx} |- h : {e} {par(T(v.arrow(phi, phi)))}", "ok", "h")
    if family == "beta-subject":
        return Item(family, f"{ctx} |- {redex} : {v.prop_type}", "ok", v.nf(v.arrow(phi, phi)))
    if family == "beta-mutant":
        goal = v.arrow(phi, _different(v, rng, depth, phi))
        return Item(family, f"{hctx} |- h : {e} {par(T(goal))}", "type-error", "h")
    raise ValueError(family)


# Relative weights of the families inside one block of the check workload.
FAMILY_WEIGHTS = {
    "prop": 2, "prop-infer": 1, "eps": 3, "eps-mutant": 1,
    "id": 3, "id-infer": 1, "id-mutant": 2,
    "mp": 3, "mp-mutant-result": 1, "mp-mutant-arg": 1,
    "elim": 3, "elim-mutant": 2,
    "beta": 2, "beta-subject": 1, "beta-mutant": 1,
}


# --- chains ----------------------------------------------------------------------

def imp_chain(n: int) -> str:
    text = "p"
    for _ in range(n):
        text = f"imp p ({text})"
    return text


def imp_chain_eps_nf(n: int) -> str:
    return " -> ".join(["eps p"] * (n + 1))


def beta_chain(n: int) -> str:
    text = "p"
    for _ in range(n):
        text = f"(\\x : o. x) ({text})"
    return text


def chain_items(n: int) -> list[Item]:
    """The ROADMAP chains at one size n: eps chain, identity over it, and a
    beta chain twice as long (the beta chain is about five times cheaper)."""
    nf = imp_chain_eps_nf(n)
    return [
        Item(f"chain-eps-{n}", f"p : o |- eps ({imp_chain(n)}) : Type", "ok", nf),
        Item(f"chain-id-{n}", f"p : o |- \\h : eps ({imp_chain(n)}). h : ({nf}) -> {nf}",
             "ok", f"\\h : {nf}. h"),
        Item(f"chain-beta-{2 * n}", f"p : o |- {beta_chain(2 * n)} : o", "ok", "p"),
    ]


def block(rng: random.Random, depth: int) -> list[tuple[Vocabulary, Item]]:
    """One set of regular items: each family as often as its weight, for
    both theories, with formulas and codes nested up to depth."""
    return [
        (v, make_item(v, family, rng, depth))
        for v in (STT, CC)
        for family, weight in FAMILY_WEIGHTS.items()
        for _ in range(weight)
    ]
