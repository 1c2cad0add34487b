"""Tests for the command line front end.

Most tests drive main(argv) in process and read captured stdout; a few
go through a subprocess where environment or worker processes matter.
The exit-code contract: 0 ok, 1 type error, 2 parse error, 3 budget
exhausted, 4 file problem, 5 counterexample found, 6 internal error.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from pimodulo.algebra import sample_full_algebras, write_alg
from pimodulo.cli import main
from pimodulo.syntax import Judgement, parse_term, print_term
from pimodulo.terms import Var

BROKEN_THEORY = """\
; simple-type vocabulary with the implication rule's sides swapped
iota : Type
o : Type
eps : o -> Type
imp : o -> o -> o

[X : o, Y : o] eps (imp X Y) --> eps Y -> eps X : Type
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- check ---


def test_check_builtin_examples_pass(capsys):
    code, out = run_cli(capsys, "check", "--theory", "stt", "builtin:stt_basics")
    assert code == 0
    assert "builtin:stt_basics:" in out
    assert all(line.startswith("ok") for line in out.strip().splitlines())


def test_check_reports_type_errors(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("|- imp : o\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(bad))
    assert code == 1
    assert "type-error" in out


def test_check_reports_parse_errors(capsys, tmp_path):
    mangled = tmp_path / "mangled.tm"
    mangled.write_text("|- (eps p\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(mangled))
    assert code == 2
    assert "parse-error" in out


def test_check_reports_missing_files(capsys, tmp_path):
    code, out = run_cli(capsys, "check", "--theory", "stt", str(tmp_path / "absent.tm"))
    assert code == 4
    assert "io-error" in out


def test_check_reports_a_judgement_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "latin1.tm"
    bad.write_bytes(b"|- o : Type\n; caf\xe9\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(bad))
    assert code == 4
    assert out.splitlines()[-1].startswith(f"io-error\t{bad}\t")


@pytest.mark.parametrize("theory", ("absent", "directory", "latin1"))
def test_an_unreadable_theory_is_an_io_error(capsys, tmp_path, theory):
    (tmp_path / "latin1.th").write_bytes(b"o : Type\n; caf\xe9\n")
    path = {"absent": tmp_path / "absent.th", "directory": tmp_path,
            "latin1": tmp_path / "latin1.th"}[theory]
    code, out = run_cli(capsys, "normalize", "--theory", str(path), "o")
    assert code == 4
    assert out.startswith("io-error\tfatal\t")
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("argv", (("normalize", "--theory", "{}", "o"),
                                  ("normalize", "--file", "{}"),
                                  ("check", "{}")),
                         ids=("theory", "term-file", "judgement-file"))
def test_a_file_that_is_not_utf8_is_named_in_its_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"o ; \xff\n")
    code, out = run_cli(capsys, *(a.format(bad) for a in argv))
    assert code == 4
    assert f"\t{bad}: 'utf-8' codec can't decode byte 0xff" in out.splitlines()[-1]


def test_check_reports_a_duplicate_context_name_and_reads_on(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.tm").write_text("p : o |- p : o\n")
    (tmp_path / "b.tm").write_text("x : o, x : o |- x\n")
    (tmp_path / "c.tm").write_text("|- o : Type\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", "a.tm", "b.tm", "c.tm")
    assert code == 2
    files = [l for l in out.splitlines() if ".tm" in l]
    assert files == [
        "ok\ta.tm:1\tp : o |- p : o",
        "parse-error\tb.tm\t(1, 8): x bound twice in one context",
        "ok\tc.tm:1\t|- o : Type",
    ]


def test_check_rejects_ill_formed_contexts(capsys, tmp_path):
    bad = tmp_path / "contexts.tm"
    bad.write_text("x : imp |- x : imp\ny : Kind |- y : Kind\nx : imp |- x\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(bad))
    assert code == 1
    judged = [l for l in out.splitlines() if str(bad) in l]
    assert len(judged) == 3
    assert all(l.startswith("type-error") for l in judged)


def test_check_rejects_an_expected_type_that_is_not_a_type(capsys, tmp_path):
    # the expected type converts to o, so only its own typing is at fault
    bad = tmp_path / "expected.tm"
    bad.write_text("x : o |- x : (\\y : o. o) imp\n|- Type : Kind\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(bad))
    assert code == 1
    lines = [l for l in out.splitlines() if str(bad) in l]
    assert lines[0].startswith("type-error")
    assert lines[1].startswith("ok")


def test_fresh_binder_names_do_not_depend_on_earlier_checks(capsys, tmp_path):
    # the same error, reported before and after a file of other judgements,
    # names the binder's variable by its depth, not by a running count
    bad = tmp_path / "self_application.tm"
    bad.write_text("p : o |- \\h : eps p. h h\n")
    code, out = run_cli(capsys, "check", "--theory", "stt",
                        str(bad), "builtin:stt_basics", str(bad), str(bad))
    assert code == 1
    errors = [l for l in out.splitlines() if l.startswith("type-error")]
    assert len(errors) == 3
    assert all("term: h!1 " in l for l in errors)


def test_check_validates_the_theory_itself(capsys):
    code, out = run_cli(capsys, "check", "--theory", "cc")
    assert code == 0
    lines = out.strip().splitlines()
    # four signature batches and five rules, each reported
    assert len([l for l in lines if l.startswith("ok")]) == len(lines)


# Theory files that are malformed text, each with the one line it gets.
MALFORMED_THEORIES = {
    "simpletypes-twice": ("#simpletypes o\n#simpletypes o\no : Type",
                          "(2, 1): #simpletypes given twice"),
    "forall-then-forall": ("#forall A\n#forall B\no : Type",
                           "(1, 1): #forall without a schema line"),
    "forall-at-the-end": ("o : Type\n#forall A", "(2, 1): #forall without a schema line"),
    "forall-two-names": ("#forall A B\no : Type", "(1, 1): #forall needs one variable name"),
    "unknown-directive": ("#model x", "(1, 1): unknown directive #model"),
    "simpletypes-empty": ("#simpletypes", "(1, 1): #simpletypes needs at least one type"),
    "simpletypes-not-a-type": ("#simpletypes o o", "not a simple type: o o"),
    "reserved-name": ("Type2 : Type\nPi : Type", "(2, 1): 'Pi' is reserved"),
    "schema-without-types": ("o : Type\n#forall A\nall[A] : (A -> o) -> o",
                             "(2, 1): schema needs an instantiation set and none is available"),
    "duplicate-constant": ("c : Type\nc : Type", "(2, 1): constant c declared twice"),
}


@pytest.mark.parametrize("name", MALFORMED_THEORIES)
def test_a_malformed_theory_file_is_a_parse_error(capsys, tmp_path, name):
    text, detail = MALFORMED_THEORIES[name]
    path = tmp_path / "bad.th"
    path.write_text(text)
    code = main(["check", "--theory", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, f"parse-error\tfatal\t{detail}\n", "")


def test_check_reports_a_rule_that_fails_validation(capsys, tmp_path):
    path = tmp_path / "ill_typed_rule.th"
    path.write_text("o : Type\np : o\n[] p --> o : o")
    code, out = run_cli(capsys, "check", "--theory", str(path))
    assert code == 1
    assert out.splitlines() == [
        "ok\tconstant o\t",
        "ok\tconstant p\t",
        "type-error\trule r1\t(3, 10): term does not have the expected type"
        " term: o expected: o actual: Type",
    ]


# A rule whose lhs is a bare constant, the common form of a definition.
DEFINITION_THEORY = "c : Type\nd : Type\n[] c --> d : Type\n"

# Dowek and Werner's theory: consistent, yet its proofs need not normalize.
LOOP_THEORY = "P : Type\nQ : Type\n[] P --> P -> Q : Type\n"
LOOP_PROOF = "|- (\\x : P. x x) (\\x : P. x x) : Q\n"


def test_check_unfolds_a_definition_at_the_root(capsys, tmp_path):
    (tmp_path / "def.th").write_text(DEFINITION_THEORY)
    (tmp_path / "def.tm").write_text("x : d |- x : c\nx : c |- x : d\n")
    code, out = run_cli(capsys, "check", "--theory", str(tmp_path / "def.th"), str(tmp_path / "def.tm"))
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("ok\t" + str(tmp_path / "def.tm"))]) == 2


def test_check_types_a_proof_whose_type_has_no_normal_form(tmp_path):
    # one weak-head step of P types the self-application; normalizing P
    # in full never ends, so the bound fails a checker that tries
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    (tmp_path / "loop.tm").write_text(LOOP_PROOF)
    run = subprocess.run([sys.executable, "-m", "pimodulo.cli", "check", "--theory",
                          str(tmp_path / "loop.th"), str(tmp_path / "loop.tm")],
                         capture_output=True, text=True, timeout=5)
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1].startswith("ok\t")


@pytest.mark.parametrize("fuel", ("100", "1000"))
def test_fuel_errors_print_a_bounded_term(capsys, tmp_path, fuel):
    # the identity's type P -> P normalizes forever, each step one level
    # deeper; the judgement after it must still be reported
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    (tmp_path / "loop.tm").write_text("|- \\x : P. x\n" + LOOP_PROOF)
    code, out = run_cli(capsys, "check", "--theory", str(tmp_path / "loop.th"),
                        "--fuel", fuel, str(tmp_path / "loop.tm"))
    assert code == 3
    judged = [l for l in out.splitlines() if str(tmp_path / "loop.tm") in l]
    assert len(judged) == 2
    assert judged[0].startswith("fuel-exhausted\t")
    assert "Pi(hint=" not in judged[0]
    assert len(judged[0]) < 400
    assert judged[1].startswith("ok\t")


def test_fuel_runs_out_while_a_type_error_is_shown(capsys, tmp_path):
    # x : P |- x : Q fails at once, as P's weak head is a product and Q's
    # is not; the error shows P's normal form, and normalizing P never
    # ends, so the judgement reports the budget, not the type error
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    (tmp_path / "loop.tm").write_text("x : P |- x : Q\n")
    code, out = run_cli(capsys, "check", "--theory", str(tmp_path / "loop.th"),
                        "--fuel", "1000", str(tmp_path / "loop.tm"))
    assert code == 3
    judged = [l for l in out.splitlines() if str(tmp_path / "loop.tm") in l]
    assert len(judged) == 1
    assert judged[0].startswith(f"fuel-exhausted\t{tmp_path / 'loop.tm'}:1\t"
                                "ran out of fuel while normalizing")


LOOP_CUT = "(" * 23 + "..." + " -> Q)" * 23 + " -> Q"


def test_loop_theory_outputs_stay_pinned(capsys, tmp_path, monkeypatch):
    # both runs meet a type that normalizes forever: the scan while it
    # normalizes the target's heads, the check while it shows the type
    # error; both report the budget, the check with the cut last term
    monkeypatch.delenv("PIMODULO_FUEL", raising=False)
    theory, judgement = tmp_path / "loop.th", tmp_path / "loop.tm"
    theory.write_text(LOOP_THEORY)
    judgement.write_text("x : P |- x : Q\n")
    code, out = run_cli(capsys, "consistency-scan", "--theory", str(theory),
                        "--target", "x : P |- Q", "--max-size", "4", "--fuel", "1000")
    assert (code, out) == (
        3, "fuel-exhausted\tfatal\tnormalization budget exhausted during enumeration\n")
    code, out = run_cli(capsys, "check", "--theory", str(theory), str(judgement))
    assert (code, out.splitlines()) == (3, [
        "ok\tconstant P\t",
        "ok\tconstant Q\t",
        "ok\trule r1\t",
        f"fuel-exhausted\t{judgement}:1\tran out of fuel while normalizing term: {LOOP_CUT}",
    ])


# A rule that checks only after a beta step in its type: (\y : A. P y) a.
FUEL_THEORY = """\
A : Type
a : A
P : A -> Type
f : A -> P a
g : A -> (\\y : A. P y) a
[x : A] f x --> g x : P a
"""


def test_a_theory_item_out_of_fuel_reports_the_budget(capsys, tmp_path):
    path = tmp_path / "fuel.th"
    path.write_text(FUEL_THEORY)
    code, out = run_cli(capsys, "check", "--theory", str(path), "--fuel", "0")
    assert (code, out.splitlines()[-1]) == (
        3, "fuel-exhausted\trule r1\tran out of fuel while comparing types term: (\\y : A. P y) a")
    code, out = run_cli(capsys, "check", "--theory", str(path), "--fuel", "5")
    assert code == 0
    assert all(line.startswith("ok\t") for line in out.splitlines())


# A nonlinear rule: check rejects it, and it never fires.
NONLINEAR_THEORY = """\
A : Type
B : Type
a : A
b : A
c : B
f : A -> A -> B
P : B -> Type
p : P c
[x : A] f x x --> c : B
"""


def test_a_rule_with_a_nonlinear_lhs_never_fires(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PIMODULO_FUEL", raising=False)
    theory, judgement = tmp_path / "nonlinear.th", tmp_path / "nonlinear.tm"
    theory.write_text(NONLINEAR_THEORY)
    judgement.write_text("|- p : P (f a b)\n")
    code, out = run_cli(capsys, "normalize", "--theory", str(theory), "f a b")
    assert (code, out) == (0, "ok\tresult\tf a b\n")
    code, out = run_cli(capsys, "check", "--theory", str(theory), str(judgement))
    assert (code, out.splitlines()[-2:]) == (1, [
        "type-error\trule r1\trule r1: lhs is not an algebraic pattern",
        f"type-error\t{judgement}:1\t(1, 4): term does not have the expected type"
        " term: p expected: P (f a b) actual: P c",
    ])


def test_a_rule_without_a_constant_head_never_fires(capsys, tmp_path):
    path = tmp_path / "headless.th"
    path.write_text("A : Type\na : A\n[x : A] x --> a : A\n")
    code, out = run_cli(capsys, "normalize", "--theory", str(path), "--fuel", "20", "Type")
    assert (code, out) == (0, "ok\tresult\tType\n")


# --- normalize ---


def test_normalize_applies_rewrite_rules(capsys):
    code, out = run_cli(capsys, "normalize", "eps (imp p q)")
    assert code == 0
    assert "eps p -> eps q" in out


def test_normalize_in_beta_mode_keeps_rule_redices(capsys):
    code, out = run_cli(capsys, "normalize", "--mode", "beta", "eps (imp p q)")
    assert code == 0
    assert "eps (imp p q)" in out


def test_normalize_traces_each_step(capsys):
    code, out = run_cli(capsys, "normalize", "--trace",
                        "eps (all[o] (\\y : o. imp y y))")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("\tr2\t" in l or "\tr3\t" in l or "\tr4\t" in l for l in lines)
    assert any("\tbeta\t" in l for l in lines)
    assert lines[-1].startswith("ok\tresult")


def test_normalize_reports_exhausted_budgets(capsys):
    code, out = run_cli(capsys, "normalize", "--fuel", "50",
                        "(\\x : Type. x x) (\\x : Type. x x)")
    assert code == 3
    assert "fuel-exhausted" in out


def test_normalize_reports_a_term_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"eps (imp p q) ; caf\xe9\n")
    code, out = run_cli(capsys, "normalize", "--file", str(bad))
    assert code == 4
    assert out.startswith("io-error\tfatal\t")


@pytest.mark.parametrize("argv", ((), ("o", "--file", "term.txt")), ids=("neither", "both"))
def test_normalize_takes_exactly_one_of_a_term_and_a_file(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--file" in captured.err


@pytest.mark.parametrize("text", (" -> ".join(["o"] * 1_501), "eps" + " o" * 3_001),
                         ids=("arrow-chain", "long-spine"))
def test_normalize_prints_terms_past_the_recursion_limit(capsys, text):
    code, out = run_cli(capsys, "normalize", "--theory", "stt", text)
    assert code == 0
    assert out == f"ok\tresult\t{text}\n"


def test_normalize_reads_parentheses_past_the_recursion_limit(capsys, tmp_path):
    deep = tmp_path / "parens.txt"
    deep.write_text("(" * 1_200 + "o" + ")" * 1_200 + "\n")
    code, out = run_cli(capsys, "normalize", "--theory", "stt", "--file", str(deep))
    assert code == 0
    assert out == "ok\tresult\to\n"


def test_normalize_reads_and_prints_binders_past_the_recursion_limit(capsys, tmp_path):
    deep = tmp_path / "binders.txt"
    deep.write_text("".join(f"\\x{i} : o. " for i in range(1, 1_501)) + "imp x1 x1500\n")
    code, out = run_cli(capsys, "normalize", "--theory", "stt", "--file", str(deep))
    assert code == 0
    status, item, text = out.rstrip("\n").split("\t")
    assert (status, item) == ("ok", "result")
    assert text.startswith("\\x1 : o. \\_ : o. ") and text.endswith(". \\x1500 : o. imp x1 x1500")
    assert text.count("\\") == 1_500
    # compared as text: == on terms this deep still recurses
    assert print_term(parse_term(text)) == text


# --- model-check ---


def test_model_check_sweeps_cleanly(capsys):
    code, out = run_cli(capsys, "model-check", "--theory", "stt",
                        "--count", "6", "--pairs", "4", "--subst", "2")
    assert code == 0
    assert "rule r1" in out
    assert "convertible pairs" in out


@pytest.mark.parametrize("size", ("0", "-1"))
def test_model_check_algebra_size_below_one_is_a_usage_error(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["model-check", "--algebra-size", size])
    assert exc.value.code == 2
    assert "--algebra-size" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ("model-check", "--count"),
    ("model-check", "--pairs"),
    ("model-check", "--subst"),
    ("consistency-scan", "--max-size"),
    ("sn-scan", "--count"),
    ("sn-scan", "--max-size"),
    ("sn-scan", "--allow-unknown"),
    ("sn-scan", "--fuel"),
    ("normalize", "--fuel"),
    ("model-check", "--jobs"),
))
def test_a_negative_count_or_size_is_a_usage_error(capsys, argv):
    # each of these once ran: as a vacuous pass over nothing, on a budget
    # spent before the first step, or serially
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err


@pytest.mark.parametrize("argv", (
    ("check", "builtin:stt_basics"),
    ("normalize", "o"),
    ("consistency-scan", "--target", "x : o |- o"),
    ("sn-scan", "--count", "1"),
))
def test_jobs_is_a_usage_error_outside_model_check(capsys, argv):
    # only model-check splits its items over workers; the others once
    # accepted the flag and ignored it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


def test_model_check_finds_the_swapped_rule(capsys, tmp_path):
    path = tmp_path / "broken.th"
    path.write_text(BROKEN_THEORY)
    code, out = run_cli(capsys, "model-check", "--theory", str(path),
                        "--count", "8", "--pairs", "2", "--subst", "1")
    assert code == 5
    assert "counterexample" in out
    assert "algebra:" in out


FALSE_RULE_THEORY = """\
o : Type
eps : o -> Type
imp : o -> o -> o

[X : o, Y : o] eps (imp X Y) --> eps Y : Type
"""


def test_a_failing_rule_names_the_algebra_at_its_own_position(capsys, tmp_path):
    # each of the 64 sampled algebras is named at its own position
    path = tmp_path / "false.th"
    path.write_text(FALSE_RULE_THEORY)
    code, out = run_cli(capsys, "model-check", "--theory", str(path), "--algebra-size", "2",
                        "--count", "64", "--pairs", "0", "--subst", "0")
    assert code == 5
    algebras = list(sample_full_algebras(2, 64, 0))
    assert len(set(algebras)) == 64
    named = []
    for line in out.splitlines():
        status, item, detail = line.split("\t")
        if status == "counterexample":
            i = int(item.removeprefix("rule r1 algebra "))
            assert detail.endswith("algebra:; " + write_alg(algebras[i]).rstrip("\n").replace("\n", "; "))
            named.append(i)
    assert len(named) == len(set(named)) == 62


def test_a_sample_larger_than_the_algebras_of_its_size_checks_each_once(capsys, tmp_path):
    # size 1 has one algebra, so a sample of 64 is that one
    path = tmp_path / "false.th"
    path.write_text(FALSE_RULE_THEORY)
    code, out = run_cli(capsys, "model-check", "--theory", str(path), "--algebra-size", "1",
                        "--count", "64", "--pairs", "0", "--subst", "0")
    assert code == 0
    assert out.splitlines()[0] == "ok\trule r1\tholds on 1 algebras"


# sha256 of model-check stdout, recorded before the two models shared one
# value layer; stt values print in counterexample witnesses, so renaming
# or reordering them shows here
MODEL_CHECK_DIGESTS = {
    "stt-text": "4d7aa72300120ccb6c3a9d3086ad97c5efc46d8e825d7d029b7e0f2360c830b9",
    "stt-json-lines": "9d512b1772fb205e5519adee7cd839076c6453bdfcaa34f241ba8f1f1475fc0d",
    "swapped-rule": "e3b0847fda648dfb42bfd315ea269d99cd5c3131a9358d49bcc06aa8c11dc40e",
    # recorded before finite functions were applied by index; the run ends
    # on a model error whose message prints a finite function
    "cc-text": "bd49cb1b061ade181053733ec04adabf926449659b77155b70f0653504655c62",
    # recorded before cc verdicts were kept across algebras: every rule on
    # all 512 algebras of size 2, then the pair phase's model error
    "cc-default-text": "01f3e32858c7d044b61094034a36de4d2b6666b835d19b7e7c0d65cc1115c25e",
    # recorded while the cc substitution check kept the layers that read no
    # inner valuation for the last instance: the run reaches its
    # substitution phase, and checks each instance on several algebras
    "cc-subst-text": "8261ff57f457d7eae886a1e7144167b7937e28b493d08c8b3ed43d0bc88ce0f9",
}


def test_model_check_json_lines_are_deterministic(capsys, tmp_path):
    argv = ("model-check", "--theory", "stt", "--format", "json-lines",
            "--count", "4", "--pairs", "3", "--subst", "2")
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    header = json.loads(out1.splitlines()[0])
    assert header["command"] == "model-check"
    for line in out1.splitlines()[1:]:
        record = json.loads(line)
        assert set(record) == {"detail", "id", "kind", "status"}

    sizes = ("--count", "6", "--pairs", "4", "--subst", "2")
    path = tmp_path / "broken.th"
    path.write_text(BROKEN_THEORY)
    runs = {
        "stt-text": ("--theory", "stt", *sizes),
        "stt-json-lines": ("--theory", "stt", "--format", "json-lines", *sizes),
        "swapped-rule": ("--theory", str(path), "--count", "8", "--pairs", "2", "--subst", "1"),
    }
    for name, args in runs.items():
        _, out = run_cli(capsys, "model-check", *args)
        assert hashlib.sha256(out.encode()).hexdigest() == MODEL_CHECK_DIGESTS[name], name


def test_model_check_cc_output_is_byte_identical(capsys):
    code, out = run_cli(capsys, "model-check", "--theory", "cc",
                        "--count", "16", "--pairs", "6", "--subst", "3")
    assert code == 1
    assert out.splitlines()[-1].startswith("type-error\tfatal\t")
    assert "FiniteFun(graph=" in out.splitlines()[-1]
    assert hashlib.sha256(out.encode()).hexdigest() == MODEL_CHECK_DIGESTS["cc-text"], out


def test_model_check_cc_at_default_sizes_is_byte_identical_serial_and_pooled(capsys):
    code, out = run_cli(capsys, "model-check", "--theory", "cc")
    assert code == 1
    assert out.splitlines()[-1].startswith("type-error\tfatal\tapplied a finite function outside")
    assert hashlib.sha256(out.encode()).hexdigest() == MODEL_CHECK_DIGESTS["cc-default-text"], out
    pooled = subprocess.run([sys.executable, "-m", "pimodulo.cli", "model-check", "--theory", "cc",
                             "--jobs", "2"], capture_output=True, text=True)
    assert pooled.returncode == 1
    assert pooled.stdout == out


def test_model_check_cc_substitution_phase_is_byte_identical_serial_and_pooled(capsys):
    code, out = run_cli(capsys, "model-check", "--theory", "cc", "--pairs", "0")
    assert code == 0
    assert out.splitlines()[-1] == "ok\tsubstitution\t12 instances over 8 algebras"
    assert hashlib.sha256(out.encode()).hexdigest() == MODEL_CHECK_DIGESTS["cc-subst-text"], out
    pooled = subprocess.run([sys.executable, "-m", "pimodulo.cli", "model-check", "--theory", "cc",
                             "--pairs", "0", "--jobs", "2"], capture_output=True, text=True)
    assert pooled.returncode == 0
    assert pooled.stdout == out


def _serial_and_pooled(theory, *sizes):
    argv = [sys.executable, "-m", "pimodulo.cli", "model-check", "--theory", theory,
            "--format", "json-lines", *sizes]
    serial = subprocess.run(argv + ["--jobs", "1"], capture_output=True, text=True)
    pooled = subprocess.run(argv + ["--jobs", "2"], capture_output=True, text=True)
    return serial, pooled


def test_model_check_worker_pool_output_matches_serial():
    serial, pooled = _serial_and_pooled("stt", "--count", "4", "--pairs", "3", "--subst", "2")
    assert serial.returncode == pooled.returncode == 0
    assert serial.stdout == pooled.stdout


def test_model_check_worker_pool_output_matches_serial_on_cc():
    # cc items still hit ROADMAP defect 4b and end the run early with a
    # model error, which the pool must raise at the same item as the serial
    # run; the sizes give each worker several chunks
    serial, pooled = _serial_and_pooled("cc", "--count", "16", "--pairs", "6", "--subst", "3")
    assert serial.returncode == pooled.returncode == 1
    assert serial.stdout == pooled.stdout
    assert serial.stdout.count("\n") > 1
    assert '"id":"fatal"' in serial.stdout


# --- consistency-scan ---


def test_consistency_scan_finds_no_proof_of_a_bare_proposition(capsys):
    code, out = run_cli(capsys, "consistency-scan", "--theory", "stt",
                        "--max-size", "5")
    assert code == 0
    assert "no normal inhabitant" in out


def test_consistency_scan_reports_inhabitants(capsys):
    code, out = run_cli(capsys, "consistency-scan", "--theory", "stt",
                        "--target", "x : o |- eps x -> eps x", "--max-size", "6")
    assert code == 5
    assert "inhabitant" in out
    assert ": eps x. " in out


def test_consistency_scan_rejects_an_ill_formed_target_context(capsys):
    code, out = run_cli(capsys, "consistency-scan", "--theory", "stt",
                        "--target", "x : imp |- eps x", "--max-size", "4")
    assert code == 1
    assert out.startswith("type-error\ttarget")
    assert "no normal inhabitant" not in out


def test_consistency_scan_rejects_a_target_that_is_not_a_type(capsys):
    code, out = run_cli(capsys, "consistency-scan", "--theory", "stt",
                        "--target", "x : o |- x", "--max-size", "4")
    assert code == 1
    assert out.startswith("type-error\ttarget")


def test_consistency_scan_picks_its_default_target_by_the_signature(capsys, tmp_path):
    # a copy of cc.th is the cc vocabulary under another name, so it gets
    # the cc target, not the stt one, whose `o` it does not declare
    path = tmp_path / "my_cc.th"
    path.write_text((resources.files("pimodulo") / "assets" / "theories" / "cc.th").read_text())
    code, out = run_cli(capsys, "consistency-scan", "--theory", str(path), "--max-size", "4")
    assert code == 0
    assert out == ("ok\tscan\tno normal inhabitant of x : U_Type |- eps_Type x"
                   " up to size 4\n")


def test_consistency_scan_asks_for_a_target_outside_the_shipped_vocabularies(capsys, tmp_path):
    # no default target fits a theory that is neither stt nor cc: that is
    # a usage error, not a type error in the user's input
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    code, out = run_cli(capsys, "consistency-scan", "--theory", str(tmp_path / "loop.th"),
                        "--max-size", "4")
    assert code == 2
    assert out.startswith("parse-error\ttarget\t")
    assert "--target" in out and len(out.splitlines()) == 1


def test_consistency_scan_honours_the_fuel_budget(tmp_path):
    # the context's type P normalizes forever; the scan must stop at the
    # budget it was given and say so, not run to the default
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    run = subprocess.run([sys.executable, "-m", "pimodulo.cli", "consistency-scan", "--theory",
                          str(tmp_path / "loop.th"), "--target", "x : P |- Q",
                          "--max-size", "4", "--fuel", "100"],
                         capture_output=True, text=True, timeout=5)
    assert run.returncode == 3
    assert run.stdout.startswith("fuel-exhausted\t")


def test_sn_scan_honours_the_fuel_budget_while_sampling(tmp_path):
    # the sampler types terms whose types normalize forever; each candidate
    # must stop at the budget given, not run to the default
    (tmp_path / "loop.th").write_text(LOOP_THEORY)
    run = subprocess.run([sys.executable, "-m", "pimodulo.cli", "sn-scan", "--theory",
                          str(tmp_path / "loop.th"), "--count", "5", "--max-size", "8",
                          "--fuel", "1000"],
                         capture_output=True, text=True, timeout=5)
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1].startswith("ok\t")


# every implication rewrites to a larger one, so the sampled seed `imp q q`
# normalizes forever; the rule itself fails on some algebras
GROWING_THEORY = """\
o : Type
eps : o -> Type
imp : o -> o -> o
[X : o, Y : o] imp X Y --> imp X (imp X Y) : o
"""


@pytest.mark.parametrize("budget", ("flag", "environment"))
def test_model_check_honours_the_fuel_budget_while_pairing(tmp_path, budget):
    # pairing a seed with its reducts must stop at the budget given, not
    # run to the default
    (tmp_path / "grow.th").write_text(GROWING_THEORY)
    argv = [sys.executable, "-m", "pimodulo.cli", "model-check", "--theory",
            str(tmp_path / "grow.th"), "--count", "2", "--pairs", "12", "--subst", "3"]
    env = dict(os.environ)
    if budget == "flag":
        argv += ["--fuel", "100"]
    else:
        env["PIMODULO_FUEL"] = "100"
    run = subprocess.run(argv, capture_output=True, text=True, timeout=5, env=env)
    assert run.returncode == 5
    assert run.stdout.splitlines()[-2:] == [
        "ok\tpairs\t12 convertible pairs over 2 algebras",
        "ok\tsubstitution\t3 instances over 2 algebras",
    ]


@pytest.mark.parametrize("limit", ("0", "-3"))
def test_consistency_scan_limit_below_one_is_a_usage_error(capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["consistency-scan", "--target", "x : o |- o", "--limit", limit])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit" in captured.err


# sha256 of consistency-scan stdout, recorded before each candidate was
# built once; the `x : o |- o` scans pin the order that --limit cuts, and
# in the `hints` scans two argument goals are equal up to a binder hint
# (h's argument against all[o]'s, and against pi_TTT p's), so each
# abstraction must print with its own goal's hint
CONSISTENCY_RUNS = {
    "stt-11": ("--theory", "stt", "--max-size", "11"),
    "cc-10": ("--theory", "cc", "--max-size", "10"),
    "control": ("--theory", "stt", "--max-size", "10", "--target", "x : o |- eps x -> eps x"),
    "o-7": ("--theory", "stt", "--max-size", "7", "--target", "x : o |- o"),
    "o-7-limit-20": ("--theory", "stt", "--max-size", "7", "--target", "x : o |- o",
                     "--limit", "20"),
    "stt-hints": ("--theory", "stt", "--max-size", "5", "--target",
                  "h : (Pi y : o. o) -> o |- o", "--limit", "20"),
    "cc-hints": ("--theory", "cc", "--max-size", "11", "--target",
                 "p : U_Type, f : eps_Type p -> U_Type, h : (Pi y : eps_Type p. U_Type) -> U_Type"
                 " |- U_Type", "--limit", "20"),
}
CONSISTENCY_DIGESTS = {
    ("stt-11", "text"): "1541e3e3673565b41d015f3cff697e9b9f770c4c1b0caec0a2331a61b8af72cf",
    ("stt-11", "json-lines"): "48476575dde8f9e839ce292e1bb6f5a83a973af506010ec6e5bfd82befc49fa6",
    ("cc-10", "text"): "14344711941dde1c416b36200020cdb8b3f774fd4419eecc1b719d90f2371446",
    ("cc-10", "json-lines"): "54314a78e55cf41981f135de32a2b3fb9a4adc073867e6f403c6aee3d1a67cad",
    ("control", "text"): "cf64267a60fcdd7312f88f0630eed9a5809bd5dbad8879439f7a8953c04c9117",
    ("control", "json-lines"): "f946916c45af43ab3d624f71e5363d1bb0ba77f3ce016ecba204009425cff1cd",
    ("o-7", "text"): "8bb4f1d52951975f70858f3ee46b78760afc4651c732627f331d1cb48361a0f7",
    ("o-7", "json-lines"): "780b037c62f95af0a1cf0726259d2552c51219873b640edf0c23148b774fab9e",
    ("o-7-limit-20", "text"): "2d403833a27de0fe08aa48f55ccf9bc7f7282b82de899e52bff70fd042eba960",
    ("o-7-limit-20", "json-lines"): "b0d0959c58b65426f91cb14337718cdd73e50e2e302d6f89e9dcfb01c619ae94",
    ("stt-hints", "text"): "0a552819052accb9086314046611c770cb090bdd784b3a720021663805a87a1d",
    ("stt-hints", "json-lines"): "a06cbdff7e372b6cd61d852fcec6976fa25e8ad491b153a74c899d0aaa09fb3b",
    ("cc-hints", "text"): "dfadc89ff7305c4f924a341cf51c4c9077375a4a569d02bdd567034ec42bfd8c",
    ("cc-hints", "json-lines"): "48de5cb084c048b22b402c710ef8e4ee545b3c3d36111b42fc46d6639fb815e6",
}


@pytest.mark.parametrize("run, fmt", sorted(CONSISTENCY_DIGESTS))
def test_consistency_scan_output_is_byte_identical(capsys, run, fmt):
    _, out = run_cli(capsys, "consistency-scan", *CONSISTENCY_RUNS[run], "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == CONSISTENCY_DIGESTS[run, fmt], out


# --- sn-scan ---


def test_sn_scan_certifies_generated_terms(capsys):
    code, out = run_cli(capsys, "sn-scan", "--theory", "stt",
                        "--count", "15", "--max-size", "14")
    assert code == 0
    assert "15 normalizing, 0 unknown" in out


def test_sn_scan_flags_starved_budgets(capsys):
    code, out = run_cli(capsys, "sn-scan", "--theory", "stt", "--count", "8",
                        "--max-size", "14", "--fuel", "0")
    assert code == 3
    assert "8 unknown" in out
    assert "not certified" in out


# At these budgets 45 (stt) and 26 (cc) of the 250 sampled terms stop
# mid-tree, and the term each unknown line shows as "search stopped at"
# depends on the order of one_step_reducts' reducts and on the oracle's
# walk, so these pin both as well as the sampler.
SN_SCAN_RUNS = {
    "stt-beta-R-3": ("--theory", "stt", "--mode", "beta-R", "--fuel", "3"),
    "cc-beta-5": ("--theory", "cc", "--mode", "beta", "--fuel", "5"),
}
SN_SCAN_DIGESTS = {
    ("stt-beta-R-3", "text"): "b7455472ff83e7f49f4f0268e59bef6e83226857e8ae6f4ebef22a20fdea46d8",
    ("stt-beta-R-3", "json-lines"): "345492751534b2f097f070e1684da4c110af97f9b553821704e3e7488fc85a92",
    ("cc-beta-5", "text"): "f45d0f8e8d261de747e30af5fa8d192f483fe938724f89efbc7d50c26a846cb0",
    ("cc-beta-5", "json-lines"): "b8e2b87a2e87c306c5f37894513af84529269cabfb0b4bb793831a83f96165a7",
}


@pytest.mark.parametrize("run, fmt", sorted(SN_SCAN_DIGESTS))
def test_sn_scan_output_is_byte_identical(capsys, run, fmt):
    _, out = run_cli(capsys, "sn-scan", *SN_SCAN_RUNS[run], "--count", "250", "--seed", "0",
                     "--allow-unknown", "1000", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == SN_SCAN_DIGESTS[run, fmt], out


@pytest.mark.parametrize("allowed, code", ((45, 0), (44, 3), (1000, 0)))
def test_sn_scan_exit_code_follows_the_unknown_allowance(capsys, allowed, code):
    # 45 of these 250 terms are unknown: the summary weighs them against
    # the allowance, and the per-term lines leave the exit code to it
    got, out = run_cli(capsys, "sn-scan", *SN_SCAN_RUNS["stt-beta-R-3"], "--count", "250",
                       "--seed", "0", "--allow-unknown", str(allowed))
    assert out.count("unknown\tterm ") == 45
    assert got == code


def test_sn_scan_follows_every_matching_rule(capsys, tmp_path):
    # c --> d alone would make c normalize; c --> c, c's second rule, loops
    path = tmp_path / "overlap.th"
    path.write_text("c : Type\nd : Type\nk : c\n[] c --> d : Type\n[] c --> c : Type\n")
    code, out = run_cli(capsys, "sn-scan", "--theory", str(path), "--mode", "beta-R",
                        "--count", "5", "--fuel", "1000")
    assert (code, out.splitlines()) == (3, [
        "unknown\tterm 2\tc not certified; search stopped at c",
        "fuel-exhausted\tsummary\t4 normalizing, 1 unknown",
    ])


# --- configuration ---


def test_fuel_environment_default(monkeypatch, capsys):
    monkeypatch.setenv("PIMODULO_FUEL", "12345")
    code, out = run_cli(capsys, "normalize", "--format", "json-lines", "o")
    assert code == 0
    assert json.loads(out.splitlines()[0])["fuel"] == 12345


def test_bad_fuel_environment_is_a_usage_error(monkeypatch, capsys):
    for fuel in ("abc", "-3"):
        monkeypatch.setenv("PIMODULO_FUEL", fuel)
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "o"])
        assert exc.value.code == 2
        assert f"invalid int value: '{fuel}'" in capsys.readouterr().err


def test_internal_failures_get_their_own_exit_code(capsys, tmp_path):
    # the type checker recurses once per arrow and runs out of stack
    deep = tmp_path / "arrows.tm"
    deep.write_text("|- \\x : " + "o -> " * 1_500 + "o. x\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(deep))
    assert code == 6
    # the theory's own items come first, each ok
    lines = [line for line in out.splitlines() if not line.startswith("ok\tconstant ")
             and not line.startswith("ok\trule ")]
    assert len(lines) == 1
    assert lines[0].startswith("internal-error\tfatal\tRecursionError: ")


def test_a_kernel_fault_is_not_a_type_error(capsys, tmp_path, monkeypatch):
    # exit 1 means a type error and nothing else: a loose bound variable,
    # which no parsed judgement holds, is pimodulo's own fault
    monkeypatch.setattr("pimodulo.cli.parse_judgements",
                        lambda text: [Judgement(ctx=(), term=Var(0), expected=None, line=1)])
    (tmp_path / "any.tm").write_text("|- o\n")
    code, out = run_cli(capsys, "check", "--theory", "stt", str(tmp_path / "any.tm"))
    assert code == 6
    assert out.splitlines()[-1] == (
        "internal-error\tfatal\tRuntimeError: loose bound variable #0 (internal invariant broken)")


@pytest.mark.parametrize("fmt", ("text", "json-lines"))
def test_a_closed_stdout_is_an_io_error_not_a_traceback(fmt):
    r, w = os.pipe()
    os.close(r)
    try:
        run = subprocess.run([sys.executable, "-m", "pimodulo.cli", "consistency-scan",
                              "--max-size", "4", "--format", fmt],
                             stdout=w, stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(w)
    assert run.returncode == 4
    assert "Traceback" not in run.stderr


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])
