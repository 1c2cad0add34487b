"""Surface syntax: lexer, parser, and printer.

Term grammar (binders extend as far right as possible, arrows associate
to the right, application to the left):

    term   := '\\' NAME ':' term '.' term
            | 'Pi' NAME ':' term '.' term
            | app ('->' term)?
    app    := atom atom*
    atom   := 'Type' | 'Kind' | NAME | '(' term ')'

Names may carry a bracket suffix with no internal whitespace, as in
``all[iota->o]``; the whole thing is one identifier.  ``;`` starts a
comment that runs to the end of the line.  The unicode spellings
``λ``, ``Π``, ``→`` and ``⊢`` are accepted for ``\\``, ``Pi``, ``->``
and ``|-``.

Theory files are line oriented: one declaration, rewrite rule, or
directive per line.  Judgement files hold one ``ctx |- term [: type]``
per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DuplicateName, ParseError
from .terms import (
    TYPE,
    App,
    Const,
    Context,
    FVar,
    Lam,
    Pi,
    RewriteRule,
    SortKind,
    SortType,
    Term,
    Theory,
    Var,
    instantiate,
    names_in,
    spine,
    uses_bound,
)

RESERVED = frozenset({"Type", "Kind", "Pi"})


# --- lexer ---------------------------------------------------------------

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


# --- term parser ---------------------------------------------------------

class _Parser:
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
    parser = _Parser(tokenize(text), frozenset(var_names))
    t = parser.term([])
    parser.finish()
    return t


# --- judgement files -----------------------------------------------------

@dataclass(frozen=True)
class Judgement:
    ctx: Context
    term: Term
    expected: Term | None
    line: int
    source: str = field(default="", compare=False)


def parse_judgement(text: str, line: int = 1) -> Judgement:
    parser = _Parser(tokenize(text, line), frozenset())
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
    return Judgement(ctx, t, expected, line, source=text.strip())


def parse_judgements(text: str) -> list[Judgement]:
    out: list[Judgement] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        out.append(parse_judgement(stripped, i))
    return out


def _strip_comment(line: str) -> str:
    cut = line.find(";")
    return line if cut < 0 else line[:cut]


# --- theory files --------------------------------------------------------

@dataclass(frozen=True)
class TheoryFile:
    theory: Theory
    simpletypes: tuple[str, ...] = ()
    path: str | None = None


_BRACKET_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\[([^\]\s]+)\]")


def type_text(t: Term) -> str:
    """Space-free rendering of a simple type, fit for a bracket suffix."""
    match t:
        case Const(name) | FVar(name):
            return name
        case SortType():
            return "Type"
        case Pi(_, dom, cod) if not uses_bound(cod):
            left = type_text(dom)
            if isinstance(dom, Pi):
                left = f"({left})"
            return f"{left}->{type_text(_drop_binder(cod))}"
    raise ParseError(f"not a simple type: {print_term(t)}")


def _drop_binder(cod: Term) -> Term:
    # the bound variable is known to be unused, so any closed filler works
    return instantiate(cod, TYPE)


def _canonical_brackets(line: str) -> str:
    def fix(m: re.Match[str]) -> str:
        inner = parse_term(m.group(2))
        return f"{m.group(1)}[{type_text(inner)}]"

    return _BRACKET_NAME_RE.sub(fix, line)


def _expand_schema(line: str, var: str, inst_text: str) -> str:
    pattern = rf"(?<![A-Za-z0-9_']){re.escape(var)}(?![A-Za-z0-9_'\[])"
    line = re.sub(pattern, f"({inst_text})", line)
    line = line.replace(f"[{var}]", f"[({inst_text})]")
    return _canonical_brackets(line)


def _parse_decl_line(text: str, line: int) -> tuple[str, Term]:
    parser = _Parser(tokenize(text, line), frozenset())
    name_tok = parser.expect("NAME", "a constant name")
    if name_tok.text in RESERVED:
        raise ParseError(f"{name_tok.text!r} is reserved", span=name_tok.span)
    parser.expect("COLON", "':'")
    ty = parser.term([])
    parser.finish()
    return name_tok.text, ty


def _parse_rule_line(text: str, line: int, label: str) -> RewriteRule:
    parser = _Parser(tokenize(text, line), frozenset())
    parser.expect("LBRACK", "'['")
    ctx = parser.context_items(stop="RBRACK")
    parser.expect("RBRACK", "']'")
    lhs = parser.term([])
    parser.expect("RULEARROW", "'-->'")
    rhs = parser.term([])
    parser.expect("COLON", "':'")
    rtype = parser.term([])
    parser.finish()
    return RewriteRule(ctx, lhs, rhs, rtype, label=label)


def parse_theory(text: str, path: str | None = None) -> TheoryFile:
    """Parse a theory file, expanding schematic lines over simple types.

    A ``#forall A`` directive makes the next line a schema: it is emitted
    once per instantiation, with ``A`` replaced by the type (parenthesised
    when standing alone, canonicalised inside bracket suffixes).  The
    instantiation set comes from ``#simpletypes``, which a file with a
    schema must give.
    """
    lines = [(_strip_comment(raw).strip(), i) for i, raw in enumerate(text.splitlines(), 1)]
    lines = [(content, i) for content, i in lines if content]

    simpletypes: list[str] = []
    for content, lineno in lines:
        if content.split()[0] == "#simpletypes":
            if simpletypes:
                raise ParseError("#simpletypes given twice", span=(lineno, 1))
            simpletypes = _parse_simpletypes(content, lineno)

    items: list[tuple[str, str, int]] = []  # (kind, text, line)
    pending_forall: str | None = None
    forall_line = 0
    for content, lineno in lines:
        head = content.split()[0]
        if head == "#simpletypes":
            continue
        if head == "#forall":
            if pending_forall is not None:
                raise ParseError("#forall without a schema line", span=(forall_line, 1))
            rest = content[len("#forall"):].strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", rest or ""):
                raise ParseError("#forall needs one variable name", span=(lineno, 1))
            pending_forall = rest
            forall_line = lineno
            continue
        if head.startswith("#"):
            raise ParseError(f"unknown directive {head}", span=(lineno, 1))
        body = _canonical_brackets(content)
        if pending_forall is not None:
            if not simpletypes:
                raise ParseError(
                    "schema needs an instantiation set and none is available",
                    span=(forall_line, 1),
                )
            for inst in simpletypes:
                kind = "rule" if body.startswith("[") else "decl"
                items.append((kind, _expand_schema(body, pending_forall, inst), lineno))
            pending_forall = None
        else:
            kind = "rule" if body.startswith("[") else "decl"
            items.append((kind, body, lineno))
    if pending_forall is not None:
        raise ParseError("#forall without a schema line", span=(forall_line, 1))

    signature: list[tuple[str, Term]] = []
    rules: list[RewriteRule] = []
    for kind, body, lineno in items:
        if kind == "decl":
            name, ty = _parse_decl_line(body, lineno)
            if any(name == n for n, _ in signature):
                raise DuplicateName(f"constant {name} declared twice", span=(lineno, 1))
            signature.append((name, ty))
        else:
            rules.append(_parse_rule_line(body, lineno, label=f"r{len(rules) + 1}"))

    theory = Theory(tuple(signature), tuple(rules))
    return TheoryFile(theory, tuple(simpletypes), path)


def _parse_simpletypes(content: str, lineno: int) -> list[str]:
    rest = content[len("#simpletypes"):].strip()
    if not rest:
        raise ParseError("#simpletypes needs at least one type", span=(lineno, 1))
    out: list[str] = []
    for chunk in rest.split(","):
        out.append(type_text(parse_term(chunk.strip())))
    return out


# --- printer -------------------------------------------------------------

_TERM_LEVEL = 0       # anything goes
_ARG_OF_ARROW = 1     # applications fine, arrows and binders need parens
_ARG_OF_APP = 2       # only atoms go bare


def print_term(t: Term) -> str:
    # fresh binder names avoid every free variable and constant of t
    return _print(t, [], _TERM_LEVEL, names_in(t) | RESERVED)


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


def print_context(ctx: Context) -> str:
    return ", ".join(f"{name} : {print_term(ty)}" for name, ty in ctx)


def print_rule(rule: RewriteRule) -> str:
    return (
        f"[{print_context(rule.ctx)}] {print_term(rule.lhs)} "
        f"--> {print_term(rule.rhs)} : {print_term(rule.rtype)}"
    )


def print_judgement(j: Judgement) -> str:
    ctx = print_context(j.ctx)
    lead = f"{ctx} |- " if ctx else "|- "
    tail = f" : {print_term(j.expected)}" if j.expected is not None else ""
    return f"{lead}{print_term(j.term)}{tail}"

