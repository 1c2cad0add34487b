"""Type errors build their text when it is read, not when they are raised.

The kernel's errors hold their terms and types as `Deferred` details:
printing a term and normalizing a type wait until the text is read, on
the fuel of the check that failed.  These tests hold the text to the
stdout that `test_check_digest.py` pins, count the printing and
normalizing that a raise does, settle an error whose showing runs out of
fuel, and pickle errors across.  The last check parses `typecheck` with
`ast` and fails on a raise that builds its text eagerly.
"""

import ast
import hashlib
import pickle
from pathlib import Path

import pytest

from pimodulo import typecheck
from pimodulo.cli import main
from pimodulo.errors import FuelError, PiModuloError, TypeMismatch
from pimodulo.reduction import Fuel
from pimodulo.syntax import parse_judgement, parse_judgements, parse_theory
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import check, check_frame, infer

from test_check_digest import DIGESTS, JUDGEMENTS

LOOP_THEORY = "P : Type\nQ : Type\n[] P --> P -> Q : Type\n"
FUEL = 1_000_000


def judge(theory, j, fuel: int = FUEL):
    """What `pimodulo check` runs on one judgement, each call on fresh fuel."""
    check_frame(theory, j.ctx, j.expected, Fuel(fuel))
    if j.expected is None:
        infer(theory, j.ctx, j.term, Fuel(fuel))
    else:
        check(theory, j.ctx, j.term, j.expected, Fuel(fuel))


@pytest.mark.parametrize("family", sorted(JUDGEMENTS))
def test_an_error_shows_nothing_until_read_and_then_the_pinned_text(
        family, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.tm").write_text(JUDGEMENTS[family])
    main(["check", "--theory", family, "--fuel", str(FUEL), "j.tm"])
    out = capsys.readouterr().out
    # the digest test names its file after the theory; the text is the same
    pinned = out.replace("\tj.tm:", f"\t{family}.tm:")
    assert hashlib.sha256(pinned.encode()).hexdigest() == DIGESTS[family, "text"]
    details = {}
    for line in out.splitlines():
        status, item, detail = line.split("\t")
        if item.startswith("j.tm:") and status == "type-error":
            details[int(item.split(":")[1])] = detail

    calls = []
    for name in ("print_term", "normalize"):
        real = getattr(typecheck, name)
        monkeypatch.setattr(typecheck, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    theory = builtin_theory(family).theory
    failed = shown = 0
    for j in parse_judgements(JUDGEMENTS[family]):
        calls.clear()
        try:
            judge(theory, j)
        except PiModuloError as exc:
            failed += 1
            assert calls == [], j.line
            assert str(exc) == details[j.line]
            shown += "normalize" in calls
            calls.clear()
            assert str(exc) == details[j.line]
            assert calls == [], "the text is built once"
    assert failed == len(details) >= 10
    assert shown >= 6


def loop_mismatch():
    theory = parse_theory(LOOP_THEORY).theory
    j = parse_judgement("x : P |- x : Q")
    with pytest.raises(TypeMismatch) as info:
        check(theory, j.ctx, j.term, j.expected, Fuel(1000))
    return info.value


def test_an_error_whose_types_run_out_of_fuel_settles_to_a_fuel_error():
    # P's weak head is a product and Q's is not, so the check fails at
    # once; showing P normalizes it, which never ends
    exc = loop_mismatch()
    failure = exc.settled()
    assert type(failure) is FuelError
    assert failure.message == "ran out of fuel while normalizing"
    assert str(failure).startswith("ran out of fuel while normalizing term: (((")
    assert exc.settled() is failure
    with pytest.raises(FuelError) as info:
        str(exc)
    assert info.value is failure


def test_a_pickled_error_keeps_its_text():
    theory = builtin_theory("stt").theory
    j = parse_judgement("p : o, q : o, h : eps (imp p q) |- h : eps (imp q p)")
    with pytest.raises(TypeMismatch) as info:
        check(theory, j.ctx, j.term, j.expected)
    exc = info.value
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is TypeMismatch
    assert str(copy) == str(exc)
    assert "expected: eps q -> eps p" in str(copy)
    # an error whose showing runs out of fuel crosses as that failure
    loop = loop_mismatch()
    copy = pickle.loads(pickle.dumps(loop))
    assert type(copy) is FuelError
    assert str(copy) == str(loop.settled())


# --- no raise in the kernel builds its text eagerly ---

RENDERERS = frozenset({"print_term", "normalize", "_shown"})


def eager_raises(source: str) -> list[str]:
    """Each raise whose exception is built with a call to a renderer in an
    argument, the message or a detail, as `line: function`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        for arg in (*node.exc.args, *(k.value for k in node.exc.keywords)):
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    fn = sub.func
                    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    if name in RENDERERS:
                        found.append((sub.lineno, sub.col_offset, name))
    return [f"{line}: {name}" for line, _, name in sorted(found)]


def test_the_guard_finds_an_eager_raise():
    source = (
        "def f(t, ty, theory, fuel):\n"
        "    raise TypeMismatch('no', term=Deferred(print_term, t))\n"
        "    raise TypeMismatch('no', term=print_term(t))\n"
        "    raise DomainMismatch('no', expected=_shown(ty, theory, fuel),\n"
        "                         actual=syntax.print_term(normalize(ty, theory)))\n"
        "    raise IllegalSort(f'bad {print_term(t)}')\n"
        "    raise IllegalSort('no', actual=Deferred(_shown, ty, theory, fuel))\n"
        "    text = print_term(t)\n"
        "    raise exc\n"
    )
    assert eager_raises(source) == ["3: print_term", "4: _shown", "5: print_term", "5: normalize",
                                    "6: print_term"]


def test_no_raise_in_typecheck_builds_its_text_eagerly():
    assert eager_raises(Path(typecheck.__file__).read_text(encoding="utf-8")) == []
