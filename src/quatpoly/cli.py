"""Command-line front end.

Expression grammar (ASCII):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coeff | var | '(' expr ')'
              | 'S(' expr ')' | 'A(' expr ')' | 'rev(' expr ')'
              | 'cross(' expr ',' expr ')'
    var    := 'v' INT | 's' INT | 'q' INT ["'"]
    coeff  := INT ['/' INT]

``S`` takes the conjugation-even part, ``A`` the odd part, ``rev``
reverses letter order, ``cross`` is the antisymmetrized half product; a
trailing apostrophe conjugates a q-variable.  An expression is either all
v/s-letters or all q-letters; mixing the two alphabets is rejected.

A parsed value is an ``int``, a ``Fraction`` (only an ``a/b`` literal
makes one), a ``Polynomial`` or a ``QPolynomial``; term-map arithmetic
lifts a constant into either alphabet, and the type of the result gives
the mode.

Exit codes: 0 success / property verified, 1 verification finding,
2 usage or parse error, 141 when stdout is a pipe its reader closed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import oracle, qvars, rewrite, syzygy
from .freealg import Polynomial, Scalar, bracket, cross, vector_part, word_str
from .qvars import QPolynomial


class ExpressionError(ValueError):
    """Parse or semantic error in an input expression, with position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (column %d)" % (message, pos + 1)
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>(?P<letters>[A-Za-z]+)(?P<idx>\d*))|(?P<op>[()+\-*,/'])|(?P<bad>\S)"
)


def _tokenize(text):
    """``(kind, value, offset)`` tokens in one pass, keyed by the
    outermost group that matched; whitespace separates tokens and is
    otherwise skipped."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "int":
            tokens.append((kind, int(m.group()), m.start()))
        elif kind == "name":
            tokens.append((kind, m.group("letters", "idx"), m.start()))
        elif kind == "op":
            tokens.append((kind, m.group(), m.start()))
        else:
            raise ExpressionError("unexpected character %r" % m.group(), m.start())
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.next()
        if kind != "op" or value != symbol:
            raise ExpressionError("expected %r" % symbol, pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", pos)
        return value

    def expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.next()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                out = out * self.factor()
            else:
                return out

    def factor(self):
        kind, value, pos = self.next()
        if kind == "int":
            num = value
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.next()
                k2, den, p2 = self.next()
                if k2 != "int":
                    raise ExpressionError("expected denominator digits", p2)
                if den == 0:
                    raise ExpressionError("zero denominator", p2)
                return Fraction(num, den)
            return num
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            return self.named(value, pos)
        raise ExpressionError("expected a factor", pos)

    def named(self, name_idx, pos):
        name, idx = name_idx
        if name in ("S", "A", "rev", "cross"):
            if idx:
                raise ExpressionError("unknown variable %r" % (name + idx), pos)
            self.expect_op("(")
            args = [self.expr()]
            if name == "cross":
                self.expect_op(",")
                args.append(self.expr())
            self.expect_op(")")
            return cross(*args) if name == "cross" else _apply_func(name, args[0])
        if name in ("v", "s", "q") and idx:
            index = int(idx)
            if index < 1:
                raise ExpressionError("variable index must be >= 1", pos)
            if name == "v":
                return Polynomial.variable(index)
            if name == "s":
                return Polynomial.constant(Scalar.symbol(index))
            barred = False
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "'":
                self.next()
                barred = True
            return QPolynomial.variable(index, barred=barred)
        raise ExpressionError("unknown name %r" % (name + idx), pos)


def _apply_func(name, value):
    if isinstance(value, (int, Fraction)):
        # A constant is the empty word: even, and its own reversal.
        return 0 if name == "A" else value
    if name == "S":
        return bracket(value)
    if name == "A":
        return vector_part(value)
    return value.reversion()


def parse_expression(text):
    """Parse ``text`` into a Polynomial (v-mode, possibly with scalar
    symbols) or a QPolynomial (q-mode).  Returns ``(mode, value)`` with
    mode 'v' or 'q'; a pure number parses as a constant Polynomial."""
    try:
        value = _Parser(text).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    except TypeError:
        # Term-map arithmetic takes no operand of the other alphabet.
        raise ExpressionError("cannot mix v-variables and q-variables in one expression") from None
    if isinstance(value, QPolynomial):
        return "q", value
    if isinstance(value, (int, Fraction)):
        value = Polynomial.constant(value)
    return "v", value


def _check_vars(n, indices):
    if n is None:
        return
    if n < 1:
        raise ExpressionError("need n >= 1, got %d" % n)
    top = max(indices, default=0)
    if top > n:
        raise ExpressionError("variable index %d exceeds --vars %d" % (top, n))


def _expr_arg(text):
    """Expression from the argument list, or from stdin when given '-'."""
    if text == "-":
        return sys.stdin.read()
    return text


def _input(args, multilinear=False):
    """The parsed expression, checked against ``--vars`` and, with
    ``multilinear``, for a word repeating an index (q_i' is q_i)."""
    mode, value = parse_expression(_expr_arg(args.expr))
    _check_vars(args.vars, value.indices() if mode == "q" else value.variables())
    if multilinear:
        for w in value.terms:
            if len({abs(x) for x in w}) != len(w):
                word = type(value).from_word(w)
                raise ExpressionError("multilinear mode requires distinct letters: %s" % word)
    return mode, value


def _cmd_normalize(args, out):
    mode, value = _input(args, args.multilinear)
    degree = value.degree()
    if args.max_deg is not None and degree > args.max_deg:
        raise ExpressionError("input degree %d exceeds --max-deg %d" % (degree, args.max_deg))
    out.write("%s\n" % syzygy._normal_form(qvars.split(value) if mode == "q" else value))
    return 0


def _single_word(value):
    if len(value._data) != 1:
        raise ExpressionError("expected a single monomial")
    (w, c), = value._items()
    if c != 1:
        raise ExpressionError("expected a monic monomial")
    return w


def _cmd_check_normal(args, out):
    mode, value = parse_expression(_expr_arg(args.expr))
    if mode != "v":
        raise ExpressionError("check-normal expects vector letters")
    w = _single_word(value)
    _check_vars(args.vars, w)
    pmode = "multilinear" if args.multilinear else "general"
    structural = rewrite.is_normal_structural(w, pmode)
    # The word relabeled onto 1..k, against the family _normal_form uses.
    local = rewrite._relabel(sorted(set(w)), [(w, 1)])
    family = syzygy._block_family(local)
    factorfree = family is None or rewrite.is_normal_factorfree(local[0][0], family)
    verdict = "normal" if structural else "not normal"
    agree = "" if structural == factorfree else " (predicates disagree!)"
    out.write("%s%s\n" % (verdict, agree))
    return 0 if structural else 1


def _format_rule(rule):
    return "%s -> %s" % (word_str(rule.lead), rule.rhs)


def _cmd_gb(args, out):
    base = syzygy._family(args.vars, args.max_deg, args.multilinear)
    if args.tail_reduce:
        base = rewrite.inter_reduce(base)
    for rule in base.rules:
        out.write("%s\n" % _format_rule(rule))
    return 0


def _cmd_verify_groebner(args, out):
    base = syzygy._family(args.vars, args.max_deg, args.multilinear)
    gens = syzygy._generators(args.vars, args.max_deg, args.multilinear)
    report = rewrite.check_groebner(
        base, args.max_deg, multilinear=args.multilinear, generators=gens
    )
    out.write("checked %d obstructions up to degree %d\n" % (report.obstructions_checked, report.max_degree))
    if report.ok:
        out.write("all S-polynomials reduce to 0\n")
        return 0
    for ob, residue in report.residues:
        out.write("residue at %s: %s\n" % (word_str(ob.word), residue))
    for residue in report.generator_residues:
        out.write("generator residue: %s\n" % residue)
    return 1


def _cmd_zero_test(args, out):
    mode, value = _input(args)
    if mode == "q":
        value = qvars.split(value)
    result = oracle.zero_test(value, trials=args.trials, seed=args.seed)
    if result.passed:
        out.write("zero on all %d trials\n" % result.trials)
        return 0
    out.write(
        "counterexample at trial %d: %s => %s\n"
        % (result.witness_trial, result.witness, result.value)
    )
    return 1


def _cmd_dim_check(args, out):
    multiset = None
    letters = args.vars
    if args.multilinear:
        if args.deg > args.vars:
            raise ExpressionError("multilinear degree cannot exceed --vars")
        multiset = tuple(range(1, args.deg + 1))
        # The slice is the one block on letters 1..deg; its generators and
        # rules use no other letter.
        letters = max(args.deg, 1)
    # The word-count guard trips before any generator or rule is built.
    oracle._slice(args.vars, args.deg, multiset)
    gens = syzygy._generators(letters, args.deg, args.multilinear)
    base = syzygy._family(letters, args.deg, args.multilinear)
    report = oracle.dimension_check(args.vars, args.deg, gens, base, multiset=multiset)
    out.write(
        "words %d  rank %d  normal %d  factor-free %d  structural %d\n"
        % (
            report.total_words,
            report.rank,
            report.normal_by_rank,
            report.normal_factorfree,
            report.normal_structural,
        )
    )
    out.write("counts agree\n" if report.ok else "counts disagree\n")
    return 0 if report.ok else 1


def _cmd_identities(args, out):
    corpus = oracle.identity_corpus()
    failures = 0
    shown = 0
    for name, p in corpus:
        if max(p.variables(), default=0) > args.max_n:
            continue
        shown += 1
        residue = syzygy._normal_form(p)
        zt = oracle.zero_test(p, trials=args.trials, seed=args.seed)
        if not residue and zt.passed:
            out.write("ok %s\n" % name)
        else:
            failures += 1
            detail = []
            if residue:
                detail.append("nonzero normal form")
            if not zt.passed:
                detail.append("counterexample at trial %d" % zt.witness_trial)
            out.write("FAIL %s: %s\n" % (name, ", ".join(detail)))
    out.write("%d identities checked, %d failures\n" % (shown, failures))
    return 1 if failures else 0


def _cmd_complete(args, out):
    if args.expr:
        texts = args.expr
        if texts == ["-"]:
            texts = [line for line in sys.stdin.read().splitlines() if line.strip()]
        gens = []
        for text in texts:
            mode, value = parse_expression(text)
            if mode != "v":
                raise ExpressionError("complete expects vector-letter generators")
            gens.append(value)
    else:
        gens = [g.element for g in syzygy._generators(args.vars, args.max_deg)]
    for rule in rewrite.complete(gens, args.max_deg).rules:
        out.write("%s\n" % _format_rule(rule))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quatpoly",
        description="normal forms and verification for quaternionic-variable polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_deg=False, seed=False):
        p.add_argument("--vars", type=int, default=None,
                       help="number of variables (only checked against the letter indices)")
        if max_deg:
            p.add_argument("--max-deg", dest="max_deg", type=int, default=None,
                           help="degree bound (only checked against the input degree)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("normalize", help="print the canonical normal form")
    common(p, max_deg=True)
    p.add_argument("--multilinear", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check-normal", help="test a monomial for normality")
    common(p)
    p.add_argument("--multilinear", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_check_normal)

    p = sub.add_parser("gb", help="emit the rule family, one LEAD -> RHS per line")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--max-deg", dest="max_deg", type=int, required=True)
    p.add_argument("--multilinear", action="store_true")
    p.add_argument("--tail-reduce", dest="tail_reduce", action="store_true")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("verify-groebner", help="check overlaps and generator membership")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--max-deg", dest="max_deg", type=int, required=True)
    p.add_argument("--multilinear", action="store_true")
    p.set_defaults(func=_cmd_verify_groebner)

    p = sub.add_parser("zero-test", help="evaluate at seeded random assignments")
    common(p, seed=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_zero_test)

    p = sub.add_parser("dim-check", help="count normal words three independent ways")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--multilinear", action="store_true")
    p.set_defaults(func=_cmd_dim_check)

    p = sub.add_parser("identities", help="run the identity corpus")
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("complete", help="bounded completion of generators")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--max-deg", dest="max_deg", type=int, required=True)
    p.add_argument("expr", nargs="*")
    p.set_defaults(func=_cmd_complete)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reads a word such as "-v2*v1" as an option it does not know.
        words = argv[: argv.index("--")] if "--" in argv else argv
        dashed = [x for x in words if len(x) > 1 and x[0] == "-" != x[1] and not x[1:].isdigit()]
        if exc.code and dashed:
            sys.stderr.write(
                "error: %s was read as an option; put -- before an expression "
                "that begins with '-'\n" % dashed[0]
            )
        return 2 if exc.code else 0
    try:
        return args.func(args, out)
    # RuntimeError: a completion that fails its own closure or residue check.
    except (ExpressionError, ValueError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    # The work outgrew the memory it may take; what it built is freed by now.
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


def entry():
    try:
        code = main()
        # Flush here, so that a closed pipe raises inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``| head``): send what is still buffered to
        # devnull, which keeps the exit-time flush quiet, and exit with
        # the shell's SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
