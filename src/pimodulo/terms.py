"""Core term language: syntax trees, binding, substitution, positions.

Bound variables are nameless de Bruijn indices; free variables and signature
constants are referenced by name.  Binders keep a display hint that is ignored
by equality and hashing, so ``==`` on terms is exactly alpha-equivalence.

Every traversal walks an explicit stack, so term depth costs it no
recursion: the queries fold over one preorder walk, `_walk`, the
substitutions run on one rebuild, `_rebind`, `fold` builds a value
bottom-up, and the position helpers swap one child at a time,
`_with_child`.  A theory's rewrite rules are compiled once, into its
`RuleIndex`: each lhs to a flat preorder list of checks and each rhs to
a postfix list of build steps, both run on explicit stacks too, so a
rule step neither matches nor substitutes by recursion or by `_rebind`.

Each node caches `loose_bound`, how many enclosing binders its loose
indices need, so `shift` and `instantiate` hand back unchanged, rather
than copy, a subterm none of whose indices they can reach.
Applications and binders cache two more facts, outside the fields, so
`==` and `repr` ignore them, and a pickle leaves both behind:

- `_hash`, the value the dataclass would compute, so a set or dict
  lookup hashes a term once, not node by node;
- `_normal`, a mark: the rules tuple of a theory under which the node's
  whole subterm has no redex.  The reduction walks of `reduction` set it
  and skip a subterm that carries it.  A leaf's stays None: a bare
  constant can be a rule lhs, and a leaf is cheap to check anyway.

`==` and `repr` still recurse.

Term nodes are plain dataclasses, not frozen ones.  A frozen dataclass
stores each field through `object.__setattr__`: that cost 585-620 ns a
node against about 210 ns for a plain one of the same layout (CPython
3.11), and one pass of the benchmark's `check` workload builds some
565,000 nodes.  A node is immutable by convention: no module stores to
a field of a node once it is built, which a test that parses every
module with `ast` holds to.  The leaves hash by their fields as the
frozen classes did.  The three caches, `_loose`, `_hash` and `_normal`,
are ordinary attributes outside the fields, set by plain assignment,
here and in `reduction` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Union

Term = Union["Var", "FVar", "Const", "SortType", "SortKind", "Pi", "Lam", "App"]
Position = tuple[int, ...]


@dataclass(unsafe_hash=True)
class Var:
    """Bound variable: index counts binders outward from the use site."""

    index: int
    span: Any = field(default=None, compare=False, repr=False)
    _loose = None
    _normal = None


@dataclass(unsafe_hash=True)
class FVar:
    """Free variable, named by a context or pattern-context entry."""

    name: str
    span: Any = field(default=None, compare=False, repr=False)
    _loose = 0
    _normal = None


@dataclass(unsafe_hash=True)
class Const:
    """Constant declared in a theory signature."""

    name: str
    span: Any = field(default=None, compare=False, repr=False)
    _loose = 0
    _normal = None


@dataclass(unsafe_hash=True)
class SortType:
    span: Any = field(default=None, compare=False, repr=False)
    _loose = 0
    _normal = None


@dataclass(unsafe_hash=True)
class SortKind:
    span: Any = field(default=None, compare=False, repr=False)
    _loose = 0
    _normal = None


def _cached_hash(t: Term) -> int:
    h = t._hash
    return h if h is not None else _hash_nodes(t)


def _uncached_state(t: Term) -> dict:
    # str hashes differ between processes, and a rules tuple is matched
    # by identity, so a pickled term leaves its hash and its mark behind
    return {k: v for k, v in vars(t).items() if k != "_hash" and k != "_normal"}


@dataclass
class Pi:
    hint: str = field(compare=False)
    domain: Term
    codomain: Term
    span: Any = field(default=None, compare=False, repr=False)
    _loose = None
    _hash = None
    _normal = None
    __hash__ = _cached_hash
    __getstate__ = _uncached_state


@dataclass
class Lam:
    hint: str = field(compare=False)
    annotation: Term
    body: Term
    span: Any = field(default=None, compare=False, repr=False)
    _loose = None
    _hash = None
    _normal = None
    __hash__ = _cached_hash
    __getstate__ = _uncached_state


@dataclass
class App:
    fn: Term
    arg: Term
    span: Any = field(default=None, compare=False, repr=False)
    _loose = None
    _hash = None
    _normal = None
    __hash__ = _cached_hash
    __getstate__ = _uncached_state


TYPE = SortType()
KIND = SortKind()
_NODES = (App, Pi, Lam)


def _walk(t: Term):
    """Every node of t in preorder, with the number of binders above it."""
    stack = [(t, 0)]
    while stack:
        entry = stack.pop()
        yield entry
        node, d = entry
        cls = type(node)
        if cls is App:
            stack += ((node.arg, d), (node.fn, d))
        elif cls is Pi:
            stack += ((node.codomain, d + 1), (node.domain, d))
        elif cls is Lam:
            stack += ((node.body, d + 1), (node.annotation, d))


def term_size(t: Term) -> int:
    return sum(1 for _ in _walk(t))


def loose_bound(t: Term) -> int:
    """One more than the largest bound index escaping t, 0 when none does.

    Computed once per node and kept on it (`_loose`, outside the fields),
    children before parents on an explicit stack, so depth costs no
    recursion.  It dispatches on the exact type because a `match` here,
    run on every fresh node, cost `check` about 3% of its speed."""
    bound = t._loose
    if bound is not None:
        return bound
    stack = [t]
    while stack:
        node = stack[-1]
        cls = type(node)
        if cls is Var:
            bound = node.index + 1
        else:
            if cls is App:
                a, b, binds = node.fn, node.arg, 0
            elif cls is Pi:
                a, b, binds = node.domain, node.codomain, 1
            else:
                a, b, binds = node.annotation, node.body, 1
            if a._loose is None or b._loose is None:
                stack.extend(c for c in (a, b) if c._loose is None)
                continue
            bound = max(a._loose, b._loose - binds)
        node._loose = bound
        stack.pop()
    return bound


def _hash_nodes(t: Term) -> int:
    """t's hash, hash((first, second)) of its two children as the
    dataclass would compute it.  Computed once per node and kept on it
    (`_hash`), children before parents on an explicit stack like
    `loose_bound`'s."""
    stack = [t]
    while stack:
        node = stack[-1]
        cls = type(node)
        if cls is App:
            parts = (node.fn, node.arg)
        elif cls is Pi:
            parts = (node.domain, node.codomain)
        else:
            parts = (node.annotation, node.body)
        a, b = parts
        if type(a) in _NODES and a._hash is None:
            stack.append(a)
        elif type(b) in _NODES and b._hash is None:
            stack.append(b)
        else:
            node._hash = hash(parts)
            stack.pop()
    return t._hash


def _rebind(t: Term, depth: int, leaf: Callable[[Term, int], Term], reach: bool) -> Term:
    """Rebuild t with each leaf replaced by `leaf(node, d)`, d counting the
    binders above it from `depth`.  Every binder and application visited is
    rebuilt, keeping its hint and dropping its span; with `reach`, a subterm
    with `loose_bound(node) <= d` is returned as it is, unvisited."""
    done: list[Term] = []
    todo: list[tuple[Term, int | None]] = [(t, depth)]
    while todo:
        node, d = todo.pop()
        cls = type(node)
        if d is None:  # both children are done: rebuild the node
            b = done.pop()
            done[-1] = App(done[-1], b) if cls is App else cls(node.hint, done[-1], b)
        elif reach and loose_bound(node) <= d:
            done.append(node)
        elif cls is App:
            todo += ((node, None), (node.arg, d), (node.fn, d))
        elif cls is Pi:
            todo += ((node, None), (node.codomain, d + 1), (node.domain, d))
        elif cls is Lam:
            todo += ((node, None), (node.body, d + 1), (node.annotation, d))
        else:
            done.append(leaf(node, d))
    return done[0]


def fold(t: Term, leaf: Callable[[Term], Any], build: dict) -> Any:
    """`leaf(node)` for each leaf of t and `build[type(node)](node, first,
    second)` for each application or binder, given what its two children
    made, children before parents."""
    done: list = []
    todo: list[tuple[Term, bool]] = [(t, False)]
    while todo:
        node, ready = todo.pop()
        cls = type(node)
        if ready:
            second = done.pop()
            done[-1] = build[cls](node, done[-1], second)
        elif cls is App:
            todo += ((node, True), (node.arg, False), (node.fn, False))
        elif cls is Pi:
            todo += ((node, True), (node.codomain, False), (node.domain, False))
        elif cls is Lam:
            todo += ((node, True), (node.body, False), (node.annotation, False))
        else:
            done.append(leaf(node))
    return done[0]


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every bound index >= cutoff (indices escaping the term)."""
    if by == 0 or loose_bound(t) <= cutoff:
        return t
    return _rebind(t, cutoff, lambda v, d: Var(v.index + by), True)


def instantiate(body: Term, u: Term) -> Term:
    """Replace the binder variable of an opened body (index 0) by u."""
    return _rebind(body, 0, lambda v, d: shift(u, d) if v.index == d else Var(v.index - 1), True)


def open_binder(body: Term, name: str) -> Term:
    """Instantiate a binder body with a fresh free variable."""
    return instantiate(body, FVar(name))


def close_binder(t: Term, name: str) -> Term:
    """Abstract the free variable `name` back into binder index 0."""

    def leaf(u: Term, d: int) -> Term:
        cls = type(u)
        if cls is FVar and u.name == name:
            return Var(d)
        if cls is Var and u.index >= d:
            return Var(u.index + 1)
        return u

    return _rebind(t, 0, leaf, False)


def substitute(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding (u/x)t for the free variable x."""
    return substitute_many(t, {x: u})


def substitute_many(t: Term, subst: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables."""

    def leaf(u: Term, d: int) -> Term:
        return shift(subst[u.name], d) if type(u) is FVar and u.name in subst else u

    return _rebind(t, 0, leaf, False)


def free_vars(t: Term) -> set[str]:
    return {node.name for node, _ in _walk(t) if type(node) is FVar}


def const_names(t: Term) -> set[str]:
    return {node.name for node, _ in _walk(t) if type(node) is Const}


def uses_bound(t: Term, index: int = 0) -> bool:
    """Does t mention the bound variable with the given outward index?"""
    if loose_bound(t) <= index:
        return False
    return any(type(node) is Var and node.index == index + d for node, d in _walk(t))


def children(t: Term) -> tuple[Term, ...]:
    match t:
        case Pi(_, a, b) | Lam(_, a, b):
            return (a, b)
        case App(f, a):
            return (f, a)
        case _:
            return ()


def subterm_positions(t: Term) -> list[tuple[Position, Term]]:
    """Preorder enumeration of all subterm occurrences with their paths."""
    out: list[tuple[Position, Term]] = []
    stack = [((), t)]
    while stack:
        pos, node = stack.pop()
        out.append((pos, node))
        parts = children(node)
        stack += ((pos + (i,), parts[i]) for i in reversed(range(len(parts))))
    return out


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        t = children(t)[i]
    return t


def _with_child(t: Term, i: int, sub: Term) -> Term:
    """t with its child number i replaced by sub, keeping t's binder hint."""
    cls = type(t)
    if cls is App:
        return App(sub, t.arg) if i == 0 else App(t.fn, sub)
    if cls is Pi:
        return Pi(t.hint, sub, t.codomain) if i == 0 else Pi(t.hint, t.domain, sub)
    return Lam(t.hint, sub, t.body) if i == 0 else Lam(t.hint, t.annotation, sub)


def replace_at(t: Term, pos: Position, sub: Term) -> Term:
    above = []
    for i in pos:
        if type(t) not in _NODES:
            raise IndexError(f"position {pos} goes below a leaf")
        above.append(t)
        t = children(t)[i]
    for node, i in zip(reversed(above), reversed(pos)):
        sub = _with_child(node, i, sub)
    return sub


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind applications: returns (head, [arg1, ..., argk])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def arrow(a: Term, b: Term) -> Term:
    """Non-dependent function type: Pi with an unused binder."""
    return Pi("_", a, shift(b, 1))


# -- contexts, rules, theories -----------------------------------------------

Binding = tuple[str, Term]
Context = tuple[Binding, ...]


@dataclass(frozen=True)
class RewriteRule:
    ctx: Context
    lhs: Term
    rhs: Term
    rtype: Term
    label: str = field(default="rule", compare=False)


# A rule compiles to two flat programs.  The lhs program is the pattern in
# preorder, one check per node against a stack of subject nodes: `(App,
# None)` takes an application apart, `(Const, name)` wants that constant,
# `(SortType, None)` or `(SortKind, None)` that sort, and `(None, name)`
# binds the pattern variable `name` to the node, bindings in preorder.  A
# pattern holding a binder or a bound variable matches nothing, and
# compiles to None.  The rhs program is postfix, run on a stack of built
# terms: `(_PUSH, term, None)` pushes a subterm without pattern variables,
# shared by every reduct and taken from a span-free copy of the rhs;
# `(_VAR, k, d)` pushes binding k shifted by the d binders above it;
# `(App, None, None)`, `(Pi, hint, None)` and `(Lam, hint, None)` build a
# node from the top two.  So a reduct is what substituting the bindings
# into the rhs gives, with every node the rule builds span-free.

LhsProgram = tuple[tuple[Any, Any], ...]
RhsProgram = tuple[tuple[Any, Any, Any], ...]
CompiledRule = tuple[LhsProgram | None, RhsProgram, str]
_PUSH, _VAR = "push", "var"


def compile_lhs(lhs: Term) -> LhsProgram | None:
    program = []
    for node, _ in _walk(lhs):
        cls = type(node)
        if cls is App or cls is SortType or cls is SortKind:
            program.append((cls, None))
        elif cls is Const:
            program.append((Const, node.name))
        elif cls is FVar:
            program.append((None, node.name))
        else:
            return None
    return tuple(program)


def _match_lhs(program: LhsProgram | None, t: Term) -> list[Term] | None:
    """The bindings of an lhs program on the subject t, in preorder."""
    if program is None:
        return None
    stack = [t]
    binds = []
    for cls, name in program:
        node = stack.pop()
        if cls is None:
            binds.append(node)
        elif type(node) is not cls:
            return None
        elif cls is App:
            stack += (node.arg, node.fn)
        elif cls is Const and node.name != name:
            return None
    return binds


def bind_pattern(program: LhsProgram | None, t: Term) -> dict[str, Term] | None:
    """The bindings of an lhs program on t by pattern-variable name."""
    binds = _match_lhs(program, t)
    if binds is None:
        return None
    return dict(zip((name for cls, name in program if cls is None), binds))


def _compile_rhs(rhs: Term, slots: dict[str, int]) -> RhsProgram:
    """The rhs program of rhs, binding k standing for the pattern variable
    `x` with `slots[x] == k`.  Children before parents on an explicit
    stack; a subterm without pattern variables stays pending, built
    span-free, until a sibling needs code or the walk ends."""
    program: list = []
    pending: list[Term] = []

    def emit(op, x, y) -> None:
        program.extend((_PUSH, g, None) for g in pending)
        pending.clear()
        program.append((op, x, y))

    ground: list[bool] = []
    todo = [(rhs, 0, False)]
    while todo:
        node, d, ready = todo.pop()
        cls = type(node)
        if ready:
            second = ground.pop()
            if ground[-1] and second:
                b = pending.pop()
                pending[-1] = App(pending[-1], b) if cls is App else cls(node.hint, pending[-1], b)
            else:
                emit(cls, None if cls is App else node.hint, None)
                ground[-1] = False
        elif cls is App:
            todo += ((node, d, True), (node.arg, d, False), (node.fn, d, False))
        elif cls is Pi:
            todo += ((node, d, True), (node.codomain, d + 1, False), (node.domain, d, False))
        elif cls is Lam:
            todo += ((node, d, True), (node.body, d + 1, False), (node.annotation, d, False))
        elif cls is FVar and node.name in slots:
            emit(_VAR, slots[node.name], d)
            ground.append(False)
        else:
            pending.append(replace(node, span=None))
            ground.append(True)
    program.extend((_PUSH, g, None) for g in pending)
    return tuple(program)


def _build_rhs(program: RhsProgram, binds: list[Term]) -> Term:
    stack: list[Term] = []
    for op, x, y in program:
        if op is _PUSH:
            stack.append(x)
        elif op is _VAR:
            stack.append(shift(binds[x], y))
        else:
            b = stack.pop()
            stack[-1] = App(stack[-1], b) if op is App else op(x, stack[-1], b)
    return stack[0]


def _compile_rule(rule: RewriteRule) -> CompiledRule:
    lhs = compile_lhs(rule.lhs)
    names = [name for cls, name in lhs or () if cls is None]
    # a repeated pattern variable keeps its last binding
    slots = {name: k for k, name in enumerate(names)}
    return lhs, _compile_rhs(rule.rhs, slots), rule.label


class RuleIndex:
    """A theory's rules, compiled, by the head constant and spine arity of
    their lhs, then by the head constant of the lhs's first argument.

    `compiled` holds every rule's `_compile_rule` in declaration order.  A
    rule whose first argument is a pattern variable sits in every bucket
    of its head, and a rule whose lhs has no constant head in every bucket
    and in `generic`, so each bucket holds, in declaration order, every
    rule that can match a subject with that key; a rule whose lhs matches
    nothing sits in none.  Spines are unwound at most `limit` applications
    deep: a longer spine matches no constant-headed pattern.  `roots` holds
    the classes of the roots worth dispatching: applications and
    constants, every class when `generic` is not empty, none without rules.
    """

    def __init__(self, rules: tuple[RewriteRule, ...]):
        self.compiled = tuple(_compile_rule(rule) for rule in rules)
        keyed = []
        self.limit = 0
        for rule, compiled in zip(rules, self.compiled):
            if compiled[0] is None:
                continue
            head, args = spine(rule.lhs)
            first, first_args = spine(args[0]) if args else (None, [])
            self.limit = max(self.limit, len(args), len(first_args))
            key = (head.name, len(args)) if isinstance(head, Const) else None
            first_name = first.name if key and isinstance(first, Const) else None
            keyed.append((key, first_name, compiled))
        self.generic = tuple(rule for key, _, rule in keyed if key is None)
        self.table = {}
        for key in {key for key, _, _ in keyed if key is not None}:
            members = [(first, rule) for k, first, rule in keyed if k in (key, None)]
            default = tuple(rule for first, rule in members if first is None)
            by_first = {
                name: tuple(rule for first, rule in members if first in (name, None))
                for name, _ in members
                if name is not None
            }
            self.table[key] = (by_first, default)
        if self.generic:
            self.roots = frozenset((*_NODES, Var, FVar, Const, SortType, SortKind))
        else:
            self.roots = frozenset((App, Const)) if keyed else frozenset()

    def candidates(self, t: Term) -> tuple[CompiledRule, ...]:
        """The compiled rules that may match t at the root, in declaration
        order."""
        arity, first = 0, None
        while type(t) is App and arity < self.limit:
            first, t = t.arg, t.fn
            arity += 1
        entry = self.table.get((t.name, arity)) if type(t) is Const else None
        if entry is None:
            return self.generic
        by_first, default = entry
        depth = 0
        while type(first) is App and depth < self.limit:
            first = first.fn
            depth += 1
        return by_first.get(first.name, default) if type(first) is Const else default

    def rewrite(self, t: Term) -> tuple[Term, str] | None:
        """The first rule in declaration order that rewrites t at the root,
        applied, with its label."""
        for lhs, rhs, label in self.candidates(t):
            binds = _match_lhs(lhs, t)
            if binds is not None:
                return _build_rhs(rhs, binds), label
        return None


@dataclass(frozen=True)
class Theory:
    signature: Context = ()
    rules: tuple[RewriteRule, ...] = ()

    @cached_property
    def rule_index(self) -> RuleIndex:
        return RuleIndex(self.rules)

    def const_type(self, name: str) -> Term | None:
        for n, ty in self.signature:
            if n == name:
                return ty
        return None

    def without_rules(self) -> "Theory":
        return Theory(self.signature, ())


def ctx_lookup(ctx: Context, name: str) -> Term | None:
    for n, ty in ctx:
        if n == name:
            return ty
    return None
