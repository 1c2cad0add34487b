"""Reference front end: the recursive-descent lexer, term parser and
printer as they were before `pimodulo.syntax` moved onto tuple tokens and
explicit stacks.

The lexer matches one token at a time into a frozen `Token`; the parser
reads a term by recursive descent, one call per binder, parenthesis and
atom, and the printer recurses once per binder body and parenthesised
subterm, so both overflow the stack on deep input.  Their grammar is
plain to read, and the differential tests hold the package to them: the
same trees, spans and binder hints, the same `ParseError` or
`DuplicateName`, message and span, and the same printed text.

Only the front end lives here: the term classes, the term helpers and
the errors are the package's own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from pimodulo.errors import DuplicateName, ParseError
from pimodulo.terms import (
    App,
    Const,
    Context,
    FVar,
    Lam,
    Pi,
    SortKind,
    SortType,
    Term,
    Var,
    const_names,
    free_vars,
    spine,
    uses_bound,
)

RESERVED = frozenset({"Type", "Kind", "Pi"})


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.line, self.col)


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>[ \t\r]+)
    | (?P<NL>\n)
    | (?P<COMMENT>;[^\n]*)
    | (?P<RULEARROW>-->)
    | (?P<ARROW>->|→)
    | (?P<TURNSTILE>\|-|⊢)
    | (?P<LAMBDA>\\|λ)
    | (?P<PIU>Π)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*(?:\[[^\]\s]+\])?)
    | (?P<LPAR>\()
    | (?P<RPAR>\))
    | (?P<LBRACK>\[)
    | (?P<RBRACK>\])
    | (?P<COLON>:)
    | (?P<DOT>\.)
    | (?P<COMMA>,)
    | (?P<HASH>\#[A-Za-z]+)
    """,
    re.VERBOSE,
)


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line = first_line
    bol = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", span=(line, pos - bol + 1)
            )
        kind = m.lastgroup or "WS"
        tok_text = m.group()
        col = pos - bol + 1
        pos = m.end()
        if kind == "NL":
            line += 1
            bol = pos
            continue
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "PIU":
            kind, tok_text = "NAME", "Pi"
        tokens.append(Token(kind, tok_text, line, col))
    tokens.append(Token("EOF", "", line, len(text) - bol + 1))
    return tokens


class Parser:
    def __init__(self, tokens: list[Token], var_names: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.var_names = set(var_names)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", span=tok.span)
        return self.next()

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.text!r}", span=tok.span)

    # term := binder | app ('->' term)?, an arrow chain read in one loop
    def term(self, bound: list[str]) -> Term:
        arrows: list[tuple[Term, Token]] = []
        while True:
            tok = self.peek()
            if tok.kind == "LAMBDA":
                t = self.binder(bound, Lam)
                break
            if tok.kind == "NAME" and tok.text == "Pi":
                t = self.binder(bound, Pi)
                break
            t = self.app(bound)
            if self.peek().kind != "ARROW":
                break
            arrows.append((t, self.next()))
            bound.append("!arrow")
        for left, arrow_tok in reversed(arrows):
            bound.pop()
            t = Pi("_", left, t, span=arrow_tok.span)
        return t

    def binder(self, bound: list[str], node: type) -> Term:
        head = self.next()
        name_tok = self.expect("NAME", "a binder name")
        if name_tok.text in RESERVED:
            raise ParseError(
                f"{name_tok.text!r} is reserved and cannot bind", span=name_tok.span
            )
        self.expect("COLON", "':'")
        ann = self.term(bound)
        self.expect("DOT", "'.'")
        bound.append(name_tok.text)
        body = self.term(bound)
        bound.pop()
        return node(name_tok.text, ann, body, span=head.span)

    def app(self, bound: list[str]) -> Term:
        t = self.atom(bound)
        while self.peek().kind in ("NAME", "LPAR") and not (
            self.peek().kind == "NAME" and self.peek().text == "Pi"
        ):
            arg_tok = self.peek()
            arg = self.atom(bound)
            t = App(t, arg, span=arg_tok.span)
        return t

    def atom(self, bound: list[str]) -> Term:
        tok = self.peek()
        if tok.kind == "LPAR":
            self.next()
            t = self.term(bound)
            self.expect("RPAR", "')'")
            return t
        if tok.kind == "NAME":
            self.next()
            if tok.text == "Type":
                return SortType(span=tok.span)
            if tok.text == "Kind":
                return SortKind(span=tok.span)
            if tok.text == "Pi":
                raise ParseError("'Pi' cannot appear here", span=tok.span)
            for depth, name in enumerate(reversed(bound)):
                if name == tok.text:
                    return Var(depth, span=tok.span)
            if tok.text in self.var_names:
                return FVar(tok.text, span=tok.span)
            return Const(tok.text, span=tok.span)
        shown = tok.text or "end of input"
        raise ParseError(f"expected a term, found {shown!r}", span=tok.span)

    # ctx := (NAME ':' term (',' NAME ':' term)*)?
    def context_items(self, stop: str) -> Context:
        entries: list[tuple[str, Term]] = []
        if self.peek().kind == stop:
            return ()
        while True:
            name_tok = self.expect("NAME", "a variable name")
            if name_tok.text in RESERVED:
                raise ParseError(
                    f"{name_tok.text!r} is reserved", span=name_tok.span
                )
            if any(name_tok.text == n for n, _ in entries):
                raise DuplicateName(
                    f"{name_tok.text} bound twice in one context", span=name_tok.span
                )
            self.expect("COLON", "':'")
            ty = self.term([])
            entries.append((name_tok.text, ty))
            self.var_names.add(name_tok.text)
            if self.peek().kind == "COMMA":
                self.next()
                continue
            return tuple(entries)


def parse_term(text: str, var_names: frozenset[str] | set[str] = frozenset()) -> Term:
    parser = Parser(tokenize(text), frozenset(var_names))
    t = parser.term([])
    parser.finish()
    return t


def parse_judgement(text: str, line: int = 1) -> tuple[Context, Term, Term | None]:
    """`syntax.parse_judgement` as it was, returning (ctx, term, expected)."""
    parser = Parser(tokenize(text, line), frozenset())
    ctx: Context = ()
    if parser.peek().kind != "TURNSTILE":
        ctx = parser.context_items(stop="TURNSTILE")
    parser.expect("TURNSTILE", "'|-'")
    t = parser.term([])
    expected = None
    if parser.peek().kind == "COLON":
        parser.next()
        expected = parser.term([])
    parser.finish()
    return ctx, t, expected


_TERM_LEVEL = 0       # anything goes
_ARG_OF_ARROW = 1     # applications fine, arrows and binders need parens
_ARG_OF_APP = 2       # only atoms go bare


def print_term(t: Term) -> str:
    # fresh binder names avoid every free variable and constant of t
    return _print(t, [], _TERM_LEVEL, free_vars(t) | const_names(t) | RESERVED)


def _print(t: Term, stack: list[str], level: int, avoid: set[str]) -> str:
    match t:
        case SortType():
            return "Type"
        case SortKind():
            return "Kind"
        case Var(i):
            if i < len(stack):
                return stack[-1 - i]
            return f"#{i}"
        case FVar(name) | Const(name):
            return name
        case App():
            head, args = spine(t)
            text = " ".join([_print(head, stack, _ARG_OF_ARROW, avoid)]
                            + [_print(arg, stack, _ARG_OF_APP, avoid) for arg in args])
            return f"({text})" if level > _ARG_OF_ARROW else text
        case Pi(_, _, cod) if not uses_bound(cod):
            # a chain of arrows, one domain per non-dependent product
            parts, depth = [], len(stack)
            while isinstance(t, Pi) and not uses_bound(t.codomain):
                parts.append(_print(t.domain, stack, _ARG_OF_ARROW, avoid))
                stack.append("!")
                t = t.codomain
            parts.append(_print(t, stack, _TERM_LEVEL, avoid))
            del stack[depth:]
            text = " -> ".join(parts)
            return f"({text})" if level > _TERM_LEVEL else text
        case Pi(hint, dom, cod):
            return _print_binder("Pi", hint, dom, cod, stack, level, avoid)
        case Lam(hint, ann, body):
            if not uses_bound(body) and "_" not in avoid:
                name = "_"
            else:
                name = _pick_name(hint, avoid, stack)
            ann_text = _print(ann, stack, _TERM_LEVEL, avoid)
            stack.append(name)
            body_text = _print(body, stack, _TERM_LEVEL, avoid)
            stack.pop()
            text = f"\\{name} : {ann_text}. {body_text}"
            return f"({text})" if level > _TERM_LEVEL else text
    raise ValueError(f"cannot print {t!r}")


def _print_binder(
    kw: str, hint: str, dom: Term, cod: Term,
    stack: list[str], level: int, avoid: set[str],
) -> str:
    name = _pick_name(hint, avoid, stack)
    dom_text = _print(dom, stack, _TERM_LEVEL, avoid)
    stack.append(name)
    cod_text = _print(cod, stack, _TERM_LEVEL, avoid)
    stack.pop()
    text = f"{kw} {name} : {dom_text}. {cod_text}"
    return f"({text})" if level > _TERM_LEVEL else text


def _pick_name(hint: str, avoid: set[str], stack: list[str]) -> str:
    base = hint if hint and hint != "_" and hint[0] != "!" else "x"
    name = base
    while name in avoid or name in stack:
        name += "'"
    return name
