"""`pimodulo check` stdout stays byte-identical on the shipped theories.

The judgements below are mostly ill typed, one or more for each error that
prints the forms it compares (NotAFunction, DomainMismatch, TypeMismatch,
IllegalSort), with beta and rule redices in the declared types so that
the printed forms are normal forms the checker had to compute.  A few
inference judgements pin the normal form `infer` reports.  The digests
were recorded before the kernel moved to weak-head types.

`MALFORMED` holds one judgement for each message the judgement parser
can give.  `check` stops reading a file at its first parse error, so
each judgement is a file of its own, all checked in one run.  Every line
starts at column 1, so the digests pin the spans as well, and they were
recorded before the parser moved onto explicit stacks.  The duplicate
context name comes last: it once ended the run with a `fatal` line, and
the digests were re-recorded when it became a `parse-error` line of its
own file, the only line that changed.
"""

import hashlib

import pytest

from pimodulo.cli import main

JUDGEMENTS = {
    "stt": """\
p : o |- p p
p : o, h : eps ((\\y : o. y) p) |- h h
p : o |- eps (eps p)
p : o, q : o, f : eps ((\\y : o. imp y q) p), a : eps (imp q q) |- f a
p : o, q : o, h : eps (imp p q) |- h : eps (imp q p)
p : o |- \\x : eps ((\\y : o. y) p). x : eps p -> eps (imp p p)
p : o, h : eps (all[o] (\\y : o. imp y p)) |- h : eps (imp p p)
p : o |- \\x : p. x
p : o |- \\x : (\\y : o. y) p. x
|- \\x : Type. x
p : o |- p : p
x : imp |- x
|- Kind
p : o, a : eps p |- (\\x : eps ((\\y : o. imp y y) p). x) a
p : o |- \\h : eps (imp p p). h
p : o, h : eps (all[o] (\\y : o. imp y p)) |- h
""",
    "cc": """\
x : U_Type, p : eps_Type x |- p p
|- dot_Type dot_Type
|- eps_Type dot_Type
x : U_Type, f : eps_Type (pi_TTT x (\\z : eps_Type x. x)), a : eps_Kind dot_Type |- f a
x : U_Type, p : eps_Type (pi_TTT x (\\z : eps_Type x. x)) |- p : eps_Type x
|- eps_Kind dot_Type : U_Type
y : eps_Kind dot_Type |- \\z : eps_Type y. z : eps_Type y
x : U_Type |- \\y : x. y
|- \\y : eps_Kind. y
y : eps_Kind dot_Type, a : eps_Type y |- (\\f : eps_Type (pi_TTT y (\\z : eps_Type y. y)). f) a
x : U_Type, p : eps_Type (pi_TTT x (\\z : eps_Type x. x)) |- p
y : eps_Kind dot_Type |- \\z : eps_Type y. z
""",
}

MALFORMED = (
    "|- o $\n",
    "|- \\: o. o\n",
    "|- \\Type : o. o\n",
    "|- Pi Kind : o. eps Kind\n",
    "|- \\x o. x\n",
    "|- \\x : o x\n",
    "|- eps (imp o o\n",
    "|- eps (imp o o ->\n",
    "|- \\x : . x\n",
    "|- o :\n",
    "|- o )\n",
    "|- (\\x : o. x) o) o\n",
    "|- Pi : o. o\n",
    ": o |- o\n",
    "Type : o |- o\n",
    "x : o\n",
    "x : o, eps x\n",
    "x : o, x : o |- x\n",
)

DIGESTS = {
    ("stt", "text"):
        "b8de81e74e691ccef4d1ed91a5b39fcba0ab4191da617404b3b5ba4e6de0576a",
    ("stt", "json-lines"):
        "394ea58ce46b4e9ab254323e24d82e8b129040b42f0e5ea154e71edcb6efa259",
    ("cc", "text"):
        "8a90fac2b7b78208189d642c374eb31d7cf0ca574975a10a42f6165b6532b643",
    ("cc", "json-lines"):
        "e5a64bc7e518fdc3b4a7b124d357547ae888b9b79b1f4d1ee16069a6b165bcd0",
}


@pytest.mark.parametrize("theory, fmt", sorted(DIGESTS))
def test_check_output_is_byte_identical(theory, fmt, capsys, tmp_path, monkeypatch):
    # item ids carry the file name, so the file sits in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{theory}.tm").write_text(JUDGEMENTS[theory])
    code = main(["check", "--theory", theory, "--fuel", "1000000", "--format", fmt, f"{theory}.tm"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[theory, fmt], out


MALFORMED_DIGESTS = {
    "text":
        "ef1b9ad1489c2f160e651d73d29bd5c5ffd2fae0361b7944b846acb131fa2aa2",
    "json-lines":
        "779815cb0f570c03c319488ae8b753e25aa0a0c754920a6ab27e1f07099402cb",
}


@pytest.mark.parametrize("fmt", sorted(MALFORMED_DIGESTS))
def test_parse_errors_are_byte_identical(fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = []
    for i, text in enumerate(MALFORMED):
        names.append(f"m{i:02}.tm")
        (tmp_path / names[-1]).write_text(text)
    code = main(["check", "--theory", "stt", "--format", fmt, *names])
    out = capsys.readouterr().out
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == MALFORMED_DIGESTS[fmt], out
