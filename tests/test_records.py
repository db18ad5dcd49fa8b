"""The engine's seven record classes: repr, construction with defaults,
equality and hashing, immutability, validation, copies and pickles."""

import copy
import pickle
from fractions import Fraction

import pytest

from quatpoly.freealg import Polynomial
from quatpoly.oracle import Assignment, DimensionReport, Quaternion, ZeroTestResult
from quatpoly.rewrite import GroebnerReport, Obstruction, RewriteRule
from quatpoly.syzygy import GeneratorFamily


def _rule(*args, **kw):
    return RewriteRule((2, 1), Polynomial.from_word((1, 2)), *args, **kw)


def _records():
    return [
        (Obstruction(0, 1, (2, 1), 0, 1), "rule_a"),
        (GroebnerReport((), 0, 5), "residues"),
        (ZeroTestResult(True, 100), "passed"),
        (DimensionReport(3, 5, "general", 243, 174, 69, 69, 69), "rank"),
        (Assignment({1: Quaternion(0, 1)}, {1: Fraction(2)}), "vectors"),
        (_rule("V2", (1, 2), 1), "lead"),
        (GeneratorFamily("V2", (1, 2), Polynomial.from_word((1,))), "family"),
    ]


def test_reprs_are_pinned():
    expected = [
        "Obstruction(rule_a=0, rule_b=1, word=(2, 1), offset_a=0, offset_b=1)",
        "GroebnerReport(residues=(), obstructions_checked=0, max_degree=5, generator_residues=())",
        "ZeroTestResult(passed=True, trials=100, witness_trial=None, witness=None, value=None)",
        "DimensionReport(n=3, degree=5, mode='general', total_words=243, rank=174,"
        " normal_by_rank=69, normal_factorfree=69, normal_structural=69)",
        "Assignment(vectors={1: Quaternion(0, 1, 0, 0)}, scalars={1: Fraction(2, 1)})",
        "RewriteRule(v2*v1 -> v1*v2)",
        "GeneratorFamily(V2(1, 2))",
    ]
    assert [repr(obj) for obj, _ in _records()] == expected
    assert repr(Assignment()) == "Assignment(vectors={}, scalars={})"
    family = GeneratorFamily("Q1", (1, 2), None, 1, (0, 1))
    assert repr(family) == "GeneratorFamily(Q1(1, 2), choices=(0, 1))"


def test_positional_and_keyword_construction_with_defaults():
    report = GroebnerReport((), 0, 7)
    assert (report.residues, report.obstructions_checked, report.max_degree) == ((), 0, 7)
    assert report.generator_residues == () and report.ok
    assert not GroebnerReport((), 0, 7, generator_residues=(Polynomial.one(),)).ok
    result = ZeroTestResult(True, 12)
    assert result and result.trials == 12
    assert result.witness_trial is result.witness is result.value is None
    failed = ZeroTestResult(passed=False, trials=3, witness_trial=2)
    assert not failed and failed.witness_trial == 2
    assert DimensionReport(2, 2, "general", 4, 0, 4, 4, 4).ok
    assert not DimensionReport(2, 2, "general", 4, 0, 4, 3, 4).ok
    rule = _rule()
    assert (rule.family, rule.indices, rule.variant) == ("", (), 0)
    rule = RewriteRule(lead=(2, 1), rhs=Polynomial.from_word((1, 2)), family="V2", variant=2)
    assert (rule.lead, rule.family, rule.indices, rule.variant) == ((2, 1), "V2", (), 2)
    assert rule.element == Polynomial({(2, 1): 1, (1, 2): -1})
    family = GeneratorFamily("V2", (1, 2), None)
    assert (family.variant, family.choices) == (0, ())
    fresh = Assignment()
    assert fresh.vectors == fresh.scalars == {}
    assert fresh.vectors is not Assignment().vectors
    assert Assignment(scalars={1: Fraction(3)}).scalars == {1: 3}


def test_value_records_compare_and_hash_by_value():
    for make in (
        lambda x: Obstruction(0, 1, (2, 1), 0, x),
        lambda x: GroebnerReport((), x, 5),
        lambda x: ZeroTestResult(True, x),
        lambda x: DimensionReport(3, 5, "general", 243, x, 69, 69, 69),
    ):
        assert make(1) == make(1) and hash(make(1)) == hash(make(1))
        assert make(1) != make(2)
        assert len({make(1), make(1), make(2)}) == 2


def test_rules_and_families_compare_by_identity():
    for make in (_rule, lambda: GeneratorFamily("V2", (1, 2), None)):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


def test_assignments_compare_by_value_and_are_unhashable():
    a = Assignment({1: Quaternion(0, 1)}, {1: Fraction(2)})
    assert a == Assignment({1: Quaternion(0, 1)}, {1: Fraction(2)})
    assert a != Assignment({1: Quaternion(0, 1)}, {1: Fraction(3)})
    assert a != Assignment({1: Quaternion(0, 0, 1)}, {1: Fraction(2)})
    assert Assignment() == Assignment()
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("index", range(7))
def test_records_refuse_assignment(index):
    obj, field = _records()[index]
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        setattr(obj, "extra", None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert repr(obj) == before


def test_validation_messages_are_unchanged():
    with pytest.raises(ValueError) as exc:
        RewriteRule((), Polynomial())
    assert str(exc.value) == "rewrite rule with empty lead (ideal contains a unit)"
    with pytest.raises(ValueError) as exc:
        RewriteRule((1, 2), Polynomial.from_word((2, 1)))
    assert str(exc.value) == "rule lead v1*v2 does not dominate v2*v1"
    with pytest.raises(ValueError) as exc:
        RewriteRule((2, 1), Polynomial.from_word((1, 1)))
    assert str(exc.value) == "rule v2*v1 -> ... mixes letter multisets"
    with pytest.raises(ValueError) as exc:
        Assignment({2: Quaternion(1, 1)})
    assert str(exc.value) == "vector v2 assigned a non-pure-imaginary value (1, 1, 0, 0)"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_records_survive_copies_and_pickles(clone):
    for obj, field in _records():
        twin = clone(obj)
        assert type(twin) is type(obj) and repr(twin) == repr(obj)
        assert getattr(twin, field) == getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(twin, field, None)
