import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import quatpoly
from quatpoly import rewrite, syzygy
from quatpoly.cli import ExpressionError, _input, build_parser, main, parse_expression
from quatpoly.freealg import Polynomial, Scalar, bracket, word_str
from quatpoly.qvars import QPolynomial, normalize_q


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def w(*letters):
    return Polynomial.from_word(letters)


def test_parse_simple():
    mode, p = parse_expression("v3*v2*v1 - v1*v2*v3")
    assert mode == "v"
    assert len(p.terms) == 2
    assert p == w(3, 2, 1) - w(1, 2, 3)


def test_parse_bracket_function():
    mode, p = parse_expression("S(v1*v2*v3)")
    assert mode == "v" and p == bracket(w(1, 2, 3))


def test_parse_q_mode():
    mode, p = parse_expression("q1*q1' - q1'*q1")
    assert mode == "q"
    assert p == QPolynomial({(1, -1): 1, (-1, 1): -1})


def test_parse_coefficients_and_functions():
    _, p = parse_expression("-1/2*v1*v2 + 3")
    assert p == w(1, 2) * Fraction(-1, 2) + Polynomial.constant(3)
    _, p = parse_expression("cross(v1, v2)")
    assert p == (w(1, 2) - w(2, 1)) * Fraction(1, 2)
    _, p = parse_expression("rev(v1*v2*v3)")
    assert p == w(3, 2, 1)
    _, p = parse_expression("A(v1*v2)")
    assert p == (w(1, 2) - w(2, 1)) * Fraction(1, 2)
    _, p = parse_expression("2*s1*v1")
    assert p == Polynomial({(1,): Scalar({(1,): 2})})


def test_parse_errors():
    with pytest.raises(ExpressionError):
        parse_expression("v1*+")
    with pytest.raises(ExpressionError):
        parse_expression("v1*q1")
    with pytest.raises(ExpressionError):
        parse_expression("w3")
    with pytest.raises(ExpressionError):
        parse_expression("(v1")
    with pytest.raises(ExpressionError):
        parse_expression("1/0")



@pytest.mark.parametrize(
    "text, message",
    [
        # Recorded from the tokenizer that matched one token at a time.
        ("v1 # v2", "unexpected character '#' (column 4)"),
        ("v1 + $", "unexpected character '$' (column 6)"),
        ("\tv1\n*\n v2 ?", "unexpected character '?' (column 11)"),
        ("v1*v2 )", "trailing input (column 7)"),
        ("v1 v2", "trailing input (column 4)"),
        ("q1''", "trailing input (column 4)"),
        ("v1 + * v2", "expected a factor (column 6)"),
        ("v1 + ", "expected a factor (column 6)"),
        ("  ", "expected a factor (column 3)"),
        ("", "expected a factor (column 1)"),
        ("-", "expected a factor (column 2)"),
        ("3/0*v1", "zero denominator (column 3)"),
        ("3/ 0", "zero denominator (column 4)"),
        ("12 / 0 * v1", "zero denominator (column 6)"),
        ("1/v2", "expected denominator digits (column 3)"),
        ("S v1", "expected '(' (column 3)"),
        ("cross(v1,v2", "expected ')' (column 12)"),
        ("x1", "unknown name 'x1' (column 1)"),
        ("S2(", "unknown variable 'S2' (column 1)"),
        ("A3(", "unknown variable 'A3' (column 1)"),
        ("rev1(", "unknown variable 'rev1' (column 1)"),
        ("cross4(", "unknown variable 'cross4' (column 1)"),
        ("cross(v1)", "expected ',' (column 9)"),
        ("S(v1, v2)", "expected ')' (column 5)"),
    ],
)
def test_parse_error_messages_and_columns_are_pinned(text, message):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert str(err.value) == message


def test_whitespace_around_tokens_is_skipped():
    assert parse_expression("  v1 *\tv2  ") == ("v", w(1, 2))
    mode, p = parse_expression(" 2 / 4 * q1 ' ")
    assert mode == "q" and p == QPolynomial({(-1,): Fraction(1, 2)})
    # Coefficients come out in canonical form: an integral a/b is an int.
    assert [type(c) for c in parse_expression("2*3 - 7")[1].terms.values()] == [int]
    assert parse_expression("4/2*v1")[1].terms == {(1,): 2}

def test_roundtrip_random_polynomials():
    rng = random.Random(6)
    for _ in range(150):
        p = helpers.random_poly(rng, n=4, max_degree=4)
        mode, back = parse_expression(str(p))
        assert mode == "v" and back == p
    # with scalar-symbol coefficients
    s = Scalar({(1, 1): Fraction(1, 2), (2,): -3})
    for p in (
        Polynomial({(1, 2): s, (): Scalar.symbol(2)}),
        Polynomial({(): s}),
        Polynomial.zero(),
    ):
        mode, back = parse_expression(str(p))
        assert back == p


def test_normalize_command():
    code, out = run(["normalize", "--vars", "3", "v3*v2*v1"])
    assert code == 0
    assert out == "-v2*v3*v1 + v1*v3*v2 + v1*v2*v3\n"
    code, out = run(["normalize", "v2*v2*v1"])
    assert code == 0 and out == "v1*v2*v2\n"
    code, out = run(["normalize", "q1*q1' - q1'*q1"])
    assert code == 0 and out == "0\n"


def test_check_normal_command():
    code, out = run(["check-normal", "--vars", "3", "v1*v2*v3"])
    assert code == 0 and out.strip() == "normal"
    code, out = run(["check-normal", "--vars", "3", "v3*v2*v1"])
    assert code == 1 and out.strip() == "not normal"
    code, _ = run(["check-normal", "--vars", "3", "--multilinear", "v1*v1"])
    assert code == 2


def test_check_normal_factorfree_half_matches_the_normal_form(monkeypatch):
    # With the structural predicate pinned to True, the disagreement
    # suffix shows the factor-free verdict, which must say whether the
    # word is its own normal form.
    monkeypatch.setattr(rewrite, "is_normal_structural", lambda w, mode="general": True)
    rng = random.Random(11)
    words = [word for m in range(1, 6) for word in itertools.product(range(1, 5), repeat=m)]
    words += [tuple(rng.randint(1, 9) for _ in range(rng.randint(6, 9))) for _ in range(200)]
    words += [(300, 2, 1), (1, 2, 300), (100, 101, 100), (102, 100, 101, 100), (200, 150, 100, 150)]
    distinct = list(itertools.permutations(range(1, 5)))
    distinct += [(5, 3, 4, 1, 2), (1, 2, 4, 3, 5), (300, 100, 200), (100, 200, 300), (7, 1, 6, 2, 5, 3)]
    for flags, batch in (([], words + distinct), (["--multilinear"], distinct)):
        for word in batch:
            p = Polynomial.from_word(word)
            expected = "normal\n" if syzygy._normal_form(p) == p else "normal (predicates disagree!)\n"
            assert run(["check-normal", *flags, word_str(word)]) == (0, expected), word


def test_gb_command():
    code, out = run(["gb", "--vars", "3", "--max-deg", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v3*v2*v1 -> -v2*v3*v1 + v1*v3*v2 + v1*v2*v3"
    assert len(lines) == 8
    code, out2 = run(["gb", "--vars", "3", "--max-deg", "3", "--tail-reduce"])
    assert code == 0 and len(out2.splitlines()) == 8
    # The multilinear family stops at the requested degree too: the 20
    # G3 rules on five letters, no Gm rule of degree 4 or 5.
    code, out3 = run(["gb", "--vars", "5", "--max-deg", "3", "--multilinear"])
    assert code == 0 and len(out3.splitlines()) == 20
    _, full = run(["gb", "--vars", "5", "--max-deg", "5", "--multilinear"])
    assert set(out3.splitlines()) < set(full.splitlines())



def test_gb_tail_reduce_and_verify_leave_the_cached_family_memo_alone():
    # Both commands read the cached rule family; its memo is not theirs.
    base = syzygy._family(4, 6, False)
    before = dict(base._nf_cache)
    code, out = run(["gb", "--vars", "4", "--max-deg", "6", "--tail-reduce"])
    assert code == 0 and len(out.splitlines()) == 27
    code, out = run(["verify-groebner", "--vars", "4", "--max-deg", "6"])
    assert code == 0 and out.endswith("all S-polynomials reduce to 0\n")
    assert syzygy._family(4, 6, False) is base and base._nf_cache == before

def test_verify_groebner_command():
    code, out = run(["verify-groebner", "--vars", "3", "--max-deg", "5"])
    assert code == 0
    assert "all S-polynomials reduce to 0" in out
    code, out = run(["verify-groebner", "--vars", "4", "--max-deg", "5", "--multilinear"])
    assert code == 0


def test_zero_test_command():
    code, out = run(["zero-test", "v1*v1*v2 - v2*v1*v1"])
    assert code == 0 and "zero on all 100 trials" in out
    code, out = run(["zero-test", "--trials", "5", "v1*v2 - v2*v1"])
    assert code == 1 and out.startswith("counterexample at trial")


def test_dim_check_command():
    code, out = run(["dim-check", "--vars", "2", "--deg", "3"])
    assert code == 0
    assert "words 8  rank 2  normal 6  factor-free 6  structural 6" in out
    code, out = run(["dim-check", "--vars", "3", "--deg", "3", "--multilinear"])
    assert code == 0
    assert "words 6  rank 2  normal 4  factor-free 4  structural 4" in out


def test_identities_command_small():
    code, out = run(["identities", "--max-n", "2", "--trials", "20"])
    assert code == 0
    assert "0 failures" in out
    assert all(line.startswith(("ok ", "eq", "FAIL")) or "identities checked" in line
               for line in out.splitlines())


def test_complete_command():
    code, out = run(["complete", "--vars", "2", "--max-deg", "4"])
    assert code == 0
    assert out.splitlines() == [
        "v2*v1*v1 -> v1*v1*v2",
        "v2*v2*v1 -> v1*v2*v2",
    ]
    code, out = run(["complete", "--max-deg", "4", "v1*v1*v2 - v2*v1*v1"])
    assert code == 0 and "v2*v1*v1 -> v1*v1*v2" in out


def test_complete_keeps_symbols_out_of_leading_coefficients(capsys):
    # A symbolic tail is allowed; a symbolic leading coefficient cannot
    # be made monic.
    assert run(["complete", "--max-deg", "3", "s1*v1*v2 - v2*v1"]) == (0, "v2*v1 -> s1*v1*v2\n")
    assert run(["complete", "--max-deg", "3", "v1*v2 - s1*v2*v1"]) == (2, "")
    assert capsys.readouterr().err == "error: scalar coefficient involves symbols: -s1\n"
    _, g = parse_expression("v1*v2 - s1*v2*v1")
    with pytest.raises(ValueError, match="^scalar coefficient involves symbols: -s1$"):
        rewrite.complete([g], 3)


def test_complete_with_a_symbolic_tail_resolves_its_overlaps():
    # The degree-3 overlaps carry s1 into their S-polynomials, and each
    # reduces to zero against the three degree-2 rules.
    gens = ["v2*v1 - s1*v1*v2", "v3*v1 - v1*v3", "v3*v2 - v2*v3"]
    assert run(["complete", "--max-deg", "3", *gens]) == (
        0,
        "v2*v1 -> s1*v1*v2\nv3*v1 -> v1*v3\nv3*v2 -> v2*v3\n",
    )


def test_max_deg_error_is_worded_once_for_both_alphabets(capsys):
    for expr in ("v1*v2", "q1*q2"):
        assert run(["normalize", "--max-deg", "1", expr]) == (2, "")
        assert capsys.readouterr().err == "error: input degree 2 exceeds --max-deg 1\n"
    assert run(["normalize", "--max-deg", "2", "q1*q2"]) == run(["normalize", "q1*q2"])


def test_reports_are_deterministic():
    _, first = run(["identities", "--max-n", "2", "--trials", "10"])
    _, second = run(["identities", "--max-n", "2", "--trials", "10"])
    assert first == second


def test_stdin_expression(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("v3*v2*v1"))
    code, out = run(["normalize", "--vars", "3", "-"])
    assert code == 0 and out == "-v2*v3*v1 + v1*v3*v2 + v1*v2*v3\n"
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("v1*v1*v2 - v2*v1*v1\nv2*v2*v1 - v1*v2*v2\n")
    )
    code, out = run(["complete", "--max-deg", "4", "-"])
    assert code == 0 and len(out.splitlines()) == 2


def test_an_expression_beginning_with_minus_follows_the_separator():
    # argparse reads a leading "-v2" as an option; "--" ends the options.
    assert run(["normalize", "--", "-v2*v1"]) == (0, "-v2*v1\n")
    assert run(["complete", "--max-deg", "3", "--", "-v2*v1 + v1*v2"]) == (0, "v2*v1 -> v1*v2\n")


def test_usage_errors_exit_2(capsys):
    code, _ = run(["normalize", "v1*q1"])
    assert code == 2
    code, _ = run(["normalize", "v1*+"])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2
    capsys.readouterr()
    # A negative degree bound is a usage error, not an empty check.
    for command in ("gb", "verify-groebner", "complete"):
        assert run([command, "--vars", "3", "--max-deg", "-1"]) == (2, "")
        assert capsys.readouterr().err == "error: max_degree must be >= 0, got -1\n"
    for flags in ([], ["--multilinear"]):
        assert run(["dim-check", "--vars", "3", "--deg", "-1", *flags]) == (2, "")
        assert capsys.readouterr().err == "error: degree must be >= 0, got -1\n"


def test_vars_below_letter_index_is_an_error(capsys):
    for argv in (
        ["normalize", "--vars", "2", "v3*v2*v1"],
        ["normalize", "--vars", "2", "q3*q2*q1"],
        ["check-normal", "--vars", "2", "v3*v2*v1"],
    ):
        code, out = run(argv)
        assert code == 2 and out == "", argv
        assert "exceeds --vars 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["normalize", "check-normal", "zero-test"])
@pytest.mark.parametrize("n", [0, -2])
def test_vars_below_one_is_an_error_without_letters(command, n, capsys):
    # The input has no letter, so no index exceeds --vars; the count itself
    # is rejected, as gb, verify-groebner and dim-check reject it.
    expr = "3/4" if command == "normalize" else "1"
    assert run([command, "--vars", str(n), expr]) == (2, "")
    assert capsys.readouterr().err == "error: need n >= 1, got %d\n" % n


def test_complete_reads_vars_only_without_expressions():
    # Generators given as expressions set their own letters; --vars, whose
    # default is 3, is not checked against them.
    assert run(["complete", "--vars", "2", "--max-deg", "2", "v5*v4 - v4*v5"]) == (
        0,
        "v5*v4 -> v4*v5\n",
    )


def test_zero_test_checks_vars(capsys):
    for expr in ("v3*v1 - v1*v3", "q3*q1 - q1*q3"):
        code, out = run(["zero-test", "--vars", "2", expr])
        assert code == 2 and out == "", expr
        assert "variable index 3 exceeds --vars 2" in capsys.readouterr().err
        # A large enough --vars only validates: same draws, same report.
        assert run(["zero-test", "--vars", "3", expr]) == run(["zero-test", expr])


def test_large_letter_index_builds_families_on_few_letters(monkeypatch):
    # Every input has degree 3.  A family on more letters would be the
    # whole alphabet: gb_vector(300, 3) has millions of rules.
    built = []

    def spy(real):
        def build(n, *args):
            if n > 3:
                raise AssertionError("rule family on %d letters" % n)
            built.append(n)
            return real(n, *args)

        return build

    monkeypatch.setattr(syzygy, "_closed_form", spy(syzygy._closed_form))
    syzygy._family.cache_clear()
    expected = "-v2*v300*v1 + v1*v300*v2 + v1*v2*v300\n"
    assert run(["normalize", "v300*v2*v1"]) == (0, expected)
    assert run(["normalize", "--multilinear", "v300*v2*v1"]) == (0, expected)
    assert run(["check-normal", "v300*v2*v1"]) == (1, "not normal\n")
    q = QPolynomial.from_word((300, 2, 1))
    assert str(normalize_q(q)) == (
        "-v2*v300*v1 + v1*v300*v2 + v1*v2*v300 + s1*v300*v2 + s2*v300*v1"
        " + s300*v2*v1 + s1*s2*v300 + s1*s300*v2 + s2*s300*v1 + s1*s2*s300"
    )
    assert built


def test_multilinear_family_no_longer_depends_on_vars(capsys):
    # --multilinear only validates: a repeated letter is an error, as in
    # check-normal, never a form that is not canonical.
    for argv, word in (
        (["--vars", "3", "v1*v3*v2*v1"], "v1*v3*v2*v1"),
        (["v1*v2*v1"], "v1*v2*v1"),
        (["v1*v2 + v2*v2*v1"], "v2*v2*v1"),
    ):
        assert run(["normalize", "--multilinear", *argv]) == (2, "")
        assert capsys.readouterr().err == (
            "error: multilinear mode requires distinct letters: %s\n" % word
        )
    # q_i and q_i' are one letter, and q-words print as typed.
    for expr, word in (("q1*q1'", "q1*q1'"), ("q2*q1 + q2'*q3*q2", "q2'*q3*q2")):
        assert run(["normalize", "--multilinear", expr]) == (2, "")
        assert capsys.readouterr().err == (
            "error: multilinear mode requires distinct letters: %s\n" % word
        )
    assert run(["normalize", "--multilinear", "q1*q2'"]) == run(["normalize", "q1*q2'"])
    assert run(["check-normal", "--multilinear", "v2*v1"]) == (0, "normal\n")
    # Distinct letters print the vector family's normal form.
    for expr in ("v3*v2*v1", "v4*v1*v3*v2 - 2*v2*v1", "v5*v3*v4*v1*v2"):
        assert run(["normalize", "--multilinear", expr]) == run(["normalize", expr])


def test_deep_nesting_is_a_parse_error():
    text = "(" * 2000 + "v1" + ")" * 2000
    with pytest.raises(ExpressionError):
        parse_expression(text)
    code, out = run(["normalize", text])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["complete", "--vars", "4", "--max-deg", "5"],
            "e5d41ab0bb3a3677da6c7acaeaae33e7fabd5cef30cf3d5145efe6d2f43349ed",
        ),
        (
            ["verify-groebner", "--vars", "5", "--max-deg", "6"],
            "7c3186d15bc308dc70c1a05a10ae0a1146d94ae29a6fa53c0b1b0f45e64a0539",
        ),
    ],
)
def test_report_digests_are_pinned(argv, digest):
    # Pins every rule tail of the completion, not only its leads.
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_complete_that_fails_its_own_check_is_an_error(capsys, monkeypatch):
    # Exit 1 is a verification finding; a completion that fails its own
    # closure or residue check is an error.
    real_set, real_overlaps = rewrite.RuleSet, rewrite._representative_overlaps

    def unclosed(*args, **kw):
        base = real_set(*args, **kw)
        base._top = 0
        return base

    monkeypatch.setattr(rewrite, "RuleSet", unclosed)
    assert run(["complete", "--vars", "3", "--max-deg", "4"]) == (2, "")
    assert capsys.readouterr().err == "error: completion lost relabeling closure at degree 3\n"
    monkeypatch.undo()

    asked = []

    def blind_at_the_bound(base, max_degree, top):
        # The last degree's overlaps are hidden, so the final check finds
        # v3*v1*v1*v2 unresolved.
        asked.append(max_degree)
        return [] if asked.count(4) == 1 else real_overlaps(base, max_degree, top)

    monkeypatch.setattr(rewrite, "_representative_overlaps", blind_at_the_bound)
    assert run(["complete", "--max-deg", "4", "v2*v1 - v1*v2", "v3*v2 - v2*v3"]) == (2, "")
    assert capsys.readouterr().err == "error: completion left an overlap residue at degree bound 4\n"


def test_complete_below_a_generator_degree_is_an_error(capsys):
    code, out = run(["complete", "--max-deg", "0", "v1*v1*v2 - v2*v1*v1"])
    assert code == 2 and out == ""
    assert "exceeds the degree bound 0" in capsys.readouterr().err
    code, out = run(["complete", "--max-deg", "2", "v1*v1*v2 - v2*v1*v1"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("n, d", [(4, 3), (5, 3), (6, 3), (2, 3), (3, 2), (2, 0)])
def test_complete_default_generators_stop_at_the_degree(n, d):
    # The default generators are those of degree at most --max-deg, so a
    # degree below 4 answers, with the closed-form family's rules.
    argv = ["--vars", str(n), "--max-deg", str(d)]
    code, out = run(["complete", *argv])
    assert code == 0
    assert sorted(out.splitlines()) == sorted(run(["gb", *argv, "--tail-reduce"])[1].splitlines())
    assert bool(out) == (d >= 3)


SRC = str(Path(quatpoly.__file__).resolve().parent.parent)


def python_m(*argv):
    return subprocess.run(
        [sys.executable, "-m", "quatpoly", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    proc = python_m("complete", "--vars", "2", "--max-deg", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["v2*v1*v1 -> v1*v1*v2", "v2*v2*v1 -> v1*v2*v2"]
    proc = python_m("complete", "--max-deg", "0", "v1*v1*v2 - v2*v1*v1")
    assert proc.returncode == 2 and proc.stdout == ""


def test_a_leading_minus_without_the_separator_names_the_fix():
    # argparse takes "-v2*v1" for an unknown option; stderr says to put
    # "--" before it, and with "--" the same expression prints.
    proc = python_m("normalize", "-v2*v1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        "error: -v2*v1 was read as an option; put -- before an expression that begins with '-'\n"
    )
    proc = python_m("normalize", "--", "-v2*v1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-v2*v1\n", "")


def test_the_separator_hint_names_only_a_dashed_word(capsys):
    assert run(["complete", "--max-deg", "3", "-v2*v1"])[0] == 2
    assert "error: -v2*v1 was read as an option" in capsys.readouterr().err
    # A negative number is an option value, "-" is stdin, and a word after
    # "--" is no option: none of them draws the hint.
    for argv in (["zero-test", "--seed", "-3"], ["complete", "-"], ["complete", "--", "-v1"]):
        assert run(argv)[0] == 2
        assert "was read as an option" not in capsys.readouterr().err


def test_importing_the_engine_loads_no_introspection_modules():
    # The record classes are plain classes: importing the engine and its
    # CLI loads none of dataclasses and the modules it pulls in.
    script = (
        "import sys; before = set(sys.modules); sys.path.insert(0, %r);"
        " import quatpoly, quatpoly.cli; print(*sorted(set(sys.modules) - before))" % SRC
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and "quatpoly.cli" in proc.stdout.split()
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    # 119 kB of rules: more than the pipe and both buffers hold, so the run
    # is still writing when the reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "quatpoly", "gb", "--vars", "8", "--max-deg", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.readline() == b"v3*v2*v1 -> -v2*v3*v1 + v1*v3*v2 + v1*v2*v3\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 141


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--vars", "3", "--deg", "5"], "words 243  rank 174  normal 69  factor-free 69  structural 69"),
        (["--vars", "4", "--deg", "5"], "words 1024  rank 768  normal 256  factor-free 256  structural 256"),
        (["--vars", "2", "--deg", "8"], "words 256  rank 231  normal 25  factor-free 25  structural 25"),
        (["--vars", "3", "--deg", "7"], "words 2187  rank 1998  normal 189  factor-free 189  structural 189"),
        (
            ["--vars", "5", "--deg", "5", "--multilinear"],
            "words 120  rank 99  normal 21  factor-free 21  structural 21",
        ),
        # Below degree 3 no generator or rule exists, however many letters.
        (["--vars", "100", "--deg", "2"], "words 10000  rank 0  normal 10000  factor-free 10000  structural 10000"),
        (["--vars", "10000", "--deg", "1"], "words 10000  rank 0  normal 10000  factor-free 10000  structural 10000"),
        # The multilinear family on two letters is empty.
        (["--vars", "2", "--deg", "2", "--multilinear"], "words 2  rank 0  normal 2  factor-free 2  structural 2"),
    ],
)
def test_dim_check_reports_are_pinned(argv, expected):
    assert run(["dim-check", *argv]) == (0, expected + "\ncounts agree\n")


def test_dim_check_builds_only_what_its_degree_uses(monkeypatch):
    # The V4 generators have degree 4 and the VGm rules degree >= 4: none
    # of them enters a degree-3 slice, so none is built.
    families, leads = [], []
    real_family, real_rule = syzygy.GeneratorFamily, syzygy._rule

    def family_spy(family, *args):
        families.append(family)
        return real_family(family, *args)

    def rule_spy(element, *args):
        rule = real_rule(element, *args)
        leads.append(rule.lead)
        return rule

    monkeypatch.setattr(syzygy, "GeneratorFamily", family_spy)
    monkeypatch.setattr(syzygy, "_rule", rule_spy)
    syzygy._family.cache_clear()
    assert run(["dim-check", "--vars", "21", "--deg", "3"]) == (
        0,
        "words 9261  rank 3080  normal 6181  factor-free 6181  structural 6181\ncounts agree\n",
    )
    assert sorted(set(families)) == ["V2", "V3"] and len(families) == 21 * 20 + 21 * 20 * 19
    assert leads and max(len(lead) for lead in leads) == 3


def test_multilinear_dim_check_builds_only_what_its_degree_uses(monkeypatch):
    # The multilinear slice is the one block on letters 1..3: only its
    # letters, and no Gm rule or V4 generator, enter on 14 letters.
    families, leads = [], []
    real_family, real_rule = syzygy.GeneratorFamily, syzygy._rule

    def family_spy(family, *args):
        families.append(family)
        return real_family(family, *args)

    def rule_spy(element, *args):
        rule = real_rule(element, *args)
        leads.append(rule.lead)
        return rule

    monkeypatch.setattr(syzygy, "GeneratorFamily", family_spy)
    monkeypatch.setattr(syzygy, "_rule", rule_spy)
    syzygy._family.cache_clear()
    assert run(["dim-check", "--vars", "14", "--deg", "3", "--multilinear"]) == (
        0,
        "words 6  rank 2  normal 4  factor-free 4  structural 4\ncounts agree\n",
    )
    assert set(families) == {"V3"} and len(families) == 6
    assert len(leads) == 2 and max(len(lead) for lead in leads) == 3


def test_families_below_degree_three_and_two_letter_multilinear_are_empty():
    # gb stops at its degree bound, and the multilinear family on two
    # letters is empty: both commands answer for the empty family.
    assert run(["gb", "--vars", "3", "--max-deg", "2"]) == (0, "")
    assert run(["gb", "--vars", "2", "--max-deg", "5", "--multilinear"]) == (0, "")
    assert run(["verify-groebner", "--vars", "2", "--max-deg", "4", "--multilinear"]) == (
        0,
        "checked 0 obstructions up to degree 2\nall S-polynomials reduce to 0\n",
    )


def test_one_letter_has_no_relations(capsys):
    # A single pure-imaginary letter commutes with its own square: no
    # generators, no rules, and every word is normal.
    argv = ["--vars", "1", "--max-deg", "4"]
    assert run(["complete", *argv]) == run(["gb", *argv, "--tail-reduce"]) == (0, "")
    assert run(["verify-groebner", *argv]) == (
        0,
        "checked 0 obstructions up to degree 4\nall S-polynomials reduce to 0\n",
    )
    assert run(["dim-check", "--vars", "1", "--deg", "3"]) == (
        0,
        "words 1  rank 0  normal 1  factor-free 1  structural 1\ncounts agree\n",
    )
    for command in (["complete", "--max-deg", "4"], ["dim-check", "--deg", "3"]):
        assert run([command[0], "--vars", "0", *command[1:]]) == (2, "")
        assert capsys.readouterr().err == "error: need n >= 1, got 0\n"


def test_complete_has_no_rule_cap():
    # 1,225 degree-2 commutators over 50 letters complete to themselves:
    # the degree bound, not a rule count, bounds completion.
    gens = ["v%d*v%d - v%d*v%d" % (j, i, i, j) for i in range(1, 51) for j in range(i + 1, 51)]
    code, out = run(["complete", "--max-deg", "2", *gens])
    assert code == 0 and len(out.splitlines()) == 1225
    assert out.splitlines()[0] == "v2*v1 -> v1*v2"


def test_dim_check_word_guards(capsys):
    cases = (
        (["--vars", "10", "--deg", "9"], "n^d = 1000000000 words exceeds the word-count guard 10000"),
        (
            ["--vars", "9", "--deg", "9", "--multilinear"],
            "362880 permutation words exceeds the word-count guard 10000",
        ),
    )
    for argv, message in cases:
        assert run(["dim-check", *argv]) == (2, "")
        assert capsys.readouterr().err == "error: %s\n" % message


def test_dim_check_guards_trip_before_any_family_is_built(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built a generator or rule family")

    for name in ("_generators", "_family", "gen_vector_syzygies", "gen_multilinear_syzygies", "gb_vector", "gb_multilinear"):
        monkeypatch.setattr(syzygy, name, refuse)
    for argv in (["--vars", "10", "--deg", "9"], ["--vars", "9", "--deg", "9", "--multilinear"]):
        assert run(["dim-check", *argv]) == (2, "")
        assert "exceeds the word-count guard 10000" in capsys.readouterr().err


def test_zero_test_scalar_symbol_counterexample():
    assert run(["zero-test", "s1*v1*v2 - s1*v2*v1"]) == (
        1,
        "counterexample at trial 0: v1=(0, 3, 4, -8), v2=(0, -1, 7, 6); s1=3, s2=0"
        " => (0, 480, -60, 150)\n",
    )
    assert run(["zero-test", "s1*v1 + v1"]) == (
        1,
        "counterexample at trial 2: v1=(0, -8, -7, -7); s1=2 => (0, -24, -21, -21)\n",
    )
    assert run(["zero-test", "1/3*v3*v1 - 2/5*s2*v1*v3"]) == (
        1,
        "counterexample at trial 0: v1=(0, 3, 4, -8), v2=(0, -1, 7, 6), v3=(0, 3, 0, 6);"
        " s1=2, s2=9, s3=-3 => (-637/5, -472/5, 826/5, 236/5)\n",
    )


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("S(q1*q2') - A(q2)*q1", "-3/2*v2*v1 - 1/2*v1*v2 - s1*v2 + s1*s2"),
        ("S(3) + A(5)*v1 - rev(1/2)", "5/2"),
        ("2*q1 - 1", "2*v1 + (2*s1 - 1)"),
        ("1 - q1'", "v1 + (-s1 + 1)"),
        ("rev(q1*q2') + 1/2", "-v2*v1 - s1*v2 + s2*v1 + (s1*s2 + 1/2)"),
        ("A(s1*v1*v2)", "-1/2*s1*v2*v1 + 1/2*s1*v1*v2"),
        ("cross(2,3)", "0"),
        ("cross(2,v1)", "0"),
        ("cross(1/2, q1)", "0"),
        ("-S(5) - 3", "-8"),
        ("A(q1)", "v1"),
        ("S(s1) + A(s1)", "s1"),
    ],
)
def test_normalize_constants_and_parts_are_pinned(expr, expected):
    # Constants stay in either alphabet; S, A and rev act on them as on
    # the empty word.
    assert run(["normalize", expr]) == (0, expected + "\n")


def test_mixing_alphabets_is_pinned(capsys):
    # One operand of each alphabet at every operator position.
    for expr in (
        "cross(v1,q1)", "s1*q1", "v1 + q1", "v1 - q1", "q1*v1", "S(q1) * v2", "(v1 + q2)*v3",
    ):
        assert run(["normalize", expr]) == (2, "")
        assert capsys.readouterr().err == (
            "error: cannot mix v-variables and q-variables in one expression\n"
        )


def test_input_reads_the_words_only_for_multilinear():
    # The words are scanned in order only to check --multilinear; with or
    # without the scan, and after any ordered read, the value keeps the
    # dict the parser built, in the parser's order.
    args = build_parser().parse_args(["normalize", "v1 + v2*v1"])
    order = list(parse_expression("v1 + v2*v1")[1]._data)
    for multilinear in (False, True):
        value = _input(args, multilinear=multilinear)[1]
        data = value._data
        assert list(data) == order
        value.terms, str(value), value.leading_word()
        assert value._data is data and list(data) == order


def test_zero_test_of_q_parts_is_pinned():
    assert run(["zero-test", "S(q1*q2)-S(q2*q1)"]) == (0, "zero on all 100 trials\n")
    assert run(["zero-test", "S(q1)*q2 - q2*S(q1)"]) == (0, "zero on all 100 trials\n")
