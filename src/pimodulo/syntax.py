"""Surface syntax: lexer, parser, and printer.

The lexer makes one pass of one token pattern and hands out plain
``(kind, text, (line, column))`` tuples.  The term parser and the
printer each run on an explicit stack, so a term's depth costs them no
recursion: the parser keeps a frame for each open parenthesis, binder
annotation and binder body, and the printer a todo stack of text
pieces, subterms and binder names entering and leaving scope.  Arrow
chains and application spines are loops in both.

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
    uses_bound,
)

RESERVED = frozenset({"Type", "Kind", "Pi"})


# --- lexer ---------------------------------------------------------------

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


def tokenize(text: str, first_line: int = 1) -> list[tuple[str, str, tuple[int, int]]]:
    """The (kind, text, (line, column)) tokens of text, ending in one EOF
    token, in one pass of the token pattern; a gap between two matches
    starts with a character no token takes."""
    tokens = []
    line = first_line
    bol = 0
    end = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != end:
            break
        end = m.end()
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            bol = end
        elif kind != "WS" and kind != "COMMENT":
            if kind == "PIU":
                tokens.append(("NAME", "Pi", (line, start - bol + 1)))
            else:
                tokens.append((kind, m.group(), (line, start - bol + 1)))
    if end != len(text):
        raise ParseError(f"unexpected character {text[end]!r}", span=(line, end - bol + 1))
    tokens.append(("EOF", "", (line, len(text) - bol + 1)))
    return tokens


# --- term parser ---------------------------------------------------------

# frames of the term parser's stack, under their first field
_PAREN, _ANNOTATION, _BODY = range(3)


class _Parser:
    def __init__(self, tokens: list[tuple], var_names: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.var_names = set(var_names)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", span=tok[2])
        self.pos += 1
        return tok

    def finish(self) -> None:
        kind, text, span = self.peek()
        if kind != "EOF":
            raise ParseError(f"trailing input {text!r}", span=span)

    def term(self) -> Term:
        """One term, read on an explicit stack of frames, so nesting
        costs no recursion.  The innermost open term keeps its arrows
        read so far and its application spine; a parenthesis or a binder
        opens a new one, saving those in its frame:

            (_PAREN, spine, '(' span, arrows)
            (_ANNOTATION, Lam or Pi, name, head span, arrows)
            (_BODY, Lam or Pi, name, head span, arrows, annotation)
        """
        tokens = self.tokens
        var_names = self.var_names
        pos = self.pos
        bound: list[str] = []  # binder names, innermost last; "!" for an arrow
        frames: list[tuple] = []
        arrows: list[tuple[Term, tuple[int, int]]] = []
        spine: Term | None = None
        while True:
            kind, text, span = tokens[pos]
            if kind == "NAME" and text != "Pi":
                pos += 1
                if text == "Type":
                    t = SortType(span=span)
                elif text == "Kind":
                    t = SortKind(span=span)
                elif text in bound:
                    t = Var(bound[::-1].index(text), span=span)
                elif text in var_names:
                    t = FVar(text, span=span)
                else:
                    t = Const(text, span=span)
                spine = t if spine is None else App(spine, t, span=span)
                continue
            if kind == "LPAR":
                frames.append((_PAREN, spine, span, arrows))
                pos += 1
                arrows, spine = [], None
                continue
            if spine is None:
                if kind == "LAMBDA" or kind == "NAME":  # text is "Pi"
                    self.pos = pos + 1
                    _, name, name_span = self.expect("NAME", "a binder name")
                    if name in RESERVED:
                        raise ParseError(
                            f"{name!r} is reserved and cannot bind", span=name_span
                        )
                    self.expect("COLON", "':'")
                    pos = self.pos
                    frames.append((_ANNOTATION, Lam if kind == "LAMBDA" else Pi,
                                   name, span, arrows))
                    arrows = []
                    continue
                shown = text or "end of input"
                raise ParseError(f"expected a term, found {shown!r}", span=span)
            if kind == "ARROW":
                arrows.append((spine, span))
                bound.append("!")
                pos += 1
                spine = None
                continue
            # the spine ends the innermost open term; close terms outward
            # until one is an argument or an annotation
            t = spine
            while True:
                for left, arrow_span in reversed(arrows):
                    bound.pop()
                    t = Pi("_", left, t, span=arrow_span)
                if not frames:
                    self.pos = pos
                    return t
                frame = frames.pop()
                if frame[0] == _BODY:
                    _, node, name, head_span, arrows, ann = frame
                    bound.pop()
                    t = node(name, ann, t, span=head_span)
                    continue
                self.pos = pos
                if frame[0] == _PAREN:
                    self.expect("RPAR", "')'")
                    _, spine, paren_span, arrows = frame
                    spine = t if spine is None else App(spine, t, span=paren_span)
                else:
                    self.expect("DOT", "'.'")
                    _, node, name, head_span, arrows = frame
                    frames.append((_BODY, node, name, head_span, arrows, t))
                    bound.append(name)
                    arrows, spine = [], None
                pos = self.pos
                break

    # ctx := (NAME ':' term (',' NAME ':' term)*)?
    def context_items(self, stop: str) -> Context:
        entries: list[tuple[str, Term]] = []
        if self.peek()[0] == stop:
            return ()
        while True:
            _, name, span = self.expect("NAME", "a variable name")
            if name in RESERVED:
                raise ParseError(f"{name!r} is reserved", span=span)
            if any(name == n for n, _ in entries):
                raise DuplicateName(f"{name} bound twice in one context", span=span)
            self.expect("COLON", "':'")
            ty = self.term()
            entries.append((name, ty))
            self.var_names.add(name)
            if self.peek()[0] == "COMMA":
                self.next()
                continue
            return tuple(entries)


def parse_term(text: str, var_names: frozenset[str] | set[str] = frozenset()) -> Term:
    parser = _Parser(tokenize(text), frozenset(var_names))
    t = parser.term()
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
    if parser.peek()[0] != "TURNSTILE":
        ctx = parser.context_items(stop="TURNSTILE")
    parser.expect("TURNSTILE", "'|-'")
    t = parser.term()
    expected = None
    if parser.peek()[0] == "COLON":
        parser.next()
        expected = parser.term()
    parser.finish()
    return Judgement(ctx, t, expected, line, source=text.strip())


def parse_judgements(text: str) -> list[Judgement]:
    """The judgements of a file, one a line; columns count from the
    start of each line as written."""
    out: list[Judgement] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        content = _strip_comment(raw)
        if content.strip():
            out.append(parse_judgement(content, i))
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
    _, name, span = parser.expect("NAME", "a constant name")
    if name in RESERVED:
        raise ParseError(f"{name!r} is reserved", span=span)
    parser.expect("COLON", "':'")
    ty = parser.term()
    parser.finish()
    return name, ty


def _parse_rule_line(text: str, line: int, label: str) -> RewriteRule:
    parser = _Parser(tokenize(text, line), frozenset())
    parser.expect("LBRACK", "'['")
    ctx = parser.context_items(stop="RBRACK")
    parser.expect("RBRACK", "']'")
    lhs = parser.term()
    parser.expect("RULEARROW", "'-->'")
    rhs = parser.term()
    parser.expect("COLON", "':'")
    rtype = parser.term()
    parser.finish()
    return RewriteRule(ctx, lhs, rhs, rtype, label=label)


def parse_theory(text: str, path: str | None = None) -> TheoryFile:
    """Parse a theory file, expanding schematic lines over simple types.

    A ``#forall A`` directive makes the next line a schema: it is emitted
    once per instantiation, with ``A`` replaced by the type (parenthesised
    when standing alone, canonicalised inside bracket suffixes).  The
    instantiation set comes from ``#simpletypes``, which a file with a
    schema must give.

    A span's column counts from the start of the line as written, except
    on a line that is rewritten before it is parsed: there it refers to
    the rewritten line, with its bracket suffixes canonicalised and, on a
    schema line, the type variable expanded.
    """
    lines = [(_strip_comment(raw), i) for i, raw in enumerate(text.splitlines(), 1)]
    lines = [(content, i) for content, i in lines if content.strip()]

    simpletypes: list[str] = []
    for content, lineno in lines:
        if content.split()[0] == "#simpletypes":
            if simpletypes:
                raise ParseError("#simpletypes given twice", span=(lineno, 1))
            simpletypes = _parse_simpletypes(content.strip(), lineno)

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
            rest = content.strip()[len("#forall"):].strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", rest or ""):
                raise ParseError("#forall needs one variable name", span=(lineno, 1))
            pending_forall = rest
            forall_line = lineno
            continue
        if head.startswith("#"):
            raise ParseError(f"unknown directive {head}", span=(lineno, 1))
        body = _canonical_brackets(content)
        kind = "rule" if head.startswith("[") else "decl"
        if pending_forall is not None:
            if not simpletypes:
                raise ParseError(
                    "schema needs an instantiation set and none is available",
                    span=(forall_line, 1),
                )
            for inst in simpletypes:
                items.append((kind, _expand_schema(body, pending_forall, inst), lineno))
            pending_forall = None
        else:
            items.append((kind, body, lineno))
    if pending_forall is not None:
        raise ParseError("#forall without a schema line", span=(forall_line, 1))

    signature: list[tuple[str, Term]] = []
    rules: list[RewriteRule] = []
    for kind, body, lineno in items:
        if kind == "decl":
            name, ty = _parse_decl_line(body, lineno)
            if any(name == n for n, _ in signature):
                raise ParseError(f"constant {name} declared twice", span=(lineno, 1))
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
_BIND = -1            # not a level: the todo entry (name, _BIND) binds name


def print_term(t: Term) -> str:
    # fresh binder names avoid every free variable and constant of t
    names, used = _scan(t)
    return _print(t, names | RESERVED, used)


def _scan(t: Term) -> tuple[set[str], set[int]]:
    """The names of t's free variables and constants, and the ids of the
    binders of t whose variable occurs in their scope, in one preorder
    walk, so printing stays linear in binder depth.  An entry (binder,
    ~d) opens the body of a binder at depth d, which then sits at
    `scope[d]`.  A binder's answer depends only on its own subterm, so a
    shared node has one answer."""
    names: set[str] = set()
    used: set[int] = set()
    scope: list[Term] = []
    todo: list[tuple[Term, int]] = [(t, 0)]
    while todo:
        node, d = todo.pop()
        cls = type(node)
        if d < 0:
            del scope[~d:]
            scope.append(node)
        elif cls is Var:
            if node.index < d:
                used.add(id(scope[d - 1 - node.index]))
        elif cls is FVar or cls is Const:
            names.add(node.name)
        elif cls is App:
            todo += ((node.arg, d), (node.fn, d))
        elif cls is Pi:
            todo += ((node.codomain, d + 1), (node, ~d), (node.domain, d))
        elif cls is Lam:
            todo += ((node.body, d + 1), (node, ~d), (node.annotation, d))
    return names, used


def _print(t: Term, avoid: set[str], used: set[int]) -> str:
    """t's text, made on one explicit todo stack, so depth costs no
    recursion.  An entry is a piece of text, a (term, level) pair, a
    (name, _BIND) pair that brings a binder name into scope, or an int
    that drops the names bound past that many.  `used` holds the ids of
    the binders whose variable occurs."""
    out: list[str] = []
    names: list[str] = []  # the binder names in scope, innermost last
    # the same as a set: only "_" and "!" can be bound twice, and
    # `_pick_name` never chooses either
    in_scope: set[str] = set()
    todo: list = [(t, _TERM_LEVEL)]
    while todo:
        entry = todo.pop()
        if type(entry) is str:
            out.append(entry)
            continue
        if type(entry) is int:
            in_scope.difference_update(names[entry:])
            del names[entry:]
            continue
        t, level = entry
        if level == _BIND:
            names.append(t)
            in_scope.add(t)
            continue
        cls = type(t)
        if cls is Var:
            i = t.index
            out.append(names[-1 - i] if i < len(names) else f"#{i}")
        elif cls is FVar or cls is Const:
            out.append(t.name)
        elif cls is App:
            # the spine, its last argument pushed first
            parens = level > _ARG_OF_ARROW
            if parens:
                todo.append(")")
            while type(t) is App:
                todo += ((t.arg, _ARG_OF_APP), " ")
                t = t.fn
            todo.append((t, _ARG_OF_ARROW))
            if parens:
                todo.append("(")
        elif cls is Pi and id(t) not in used:
            # a chain of arrows, one domain per non-dependent product
            parens = level > _TERM_LEVEL
            chain = []
            while isinstance(t, Pi) and id(t) not in used:
                chain += ((t.domain, _ARG_OF_ARROW), " -> ", ("!", _BIND))
                t = t.codomain
            chain.append((t, _TERM_LEVEL))
            if parens:
                todo.append(")")
            todo.append(len(names))
            todo += reversed(chain)
            if parens:
                todo.append("(")
        elif cls is Pi or cls is Lam:
            if cls is Pi:
                kw, first, second = "Pi ", t.domain, t.codomain
                name = _pick_name(t.hint, avoid, in_scope)
            else:
                kw, first, second = "\\", t.annotation, t.body
                if id(t) not in used and "_" not in avoid:
                    name = "_"
                else:
                    name = _pick_name(t.hint, avoid, in_scope)
            parens = level > _TERM_LEVEL
            if parens:
                todo.append(")")
            todo += (len(names), (second, _TERM_LEVEL), (name, _BIND), ". ",
                     (first, _TERM_LEVEL), f"{kw}{name} : ")
            if parens:
                todo.append("(")
        elif cls is SortType:
            out.append("Type")
        elif cls is SortKind:
            out.append("Kind")
        else:
            raise ValueError(f"cannot print {t!r}")
    return "".join(out)


def _pick_name(hint: str, avoid: set[str], in_scope: set[str]) -> str:
    base = hint if hint and hint != "_" and hint[0] != "!" else "x"
    name = base
    while name in avoid or name in in_scope:
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

