"""Parser and expression-field suite: grammar corpus, errors, round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.diff_engine import JetPoint, float_point, seed_point
from jetlag.errors import (
    EvalDomainError,
    FieldValidationError,
    ParseError,
)
from jetlag.field_expr import (
    ExprField,
    ast_equal,
    eval_field,
    parse_field,
    render,
    validate_field,
)

from parser_corpus import (
    CORPUS_DIMS,
    CORPUS_POINT,
    DOMAIN_CASES,
    ERROR_CASES,
    EVAL_CASES,
)


@pytest.mark.parametrize("src,want", EVAL_CASES, ids=[c[0] for c in EVAL_CASES])
def test_eval_corpus(src, want):
    ast = parse_field(src, CORPUS_DIMS)
    got = float(eval_field(ast, float_point(CORPUS_POINT)))
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("src", [c[0] for c in EVAL_CASES])
def test_print_parse_fixpoint(src):
    ast = parse_field(src, CORPUS_DIMS)
    printed = render(ast)
    ast2 = parse_field(printed, CORPUS_DIMS)
    assert ast_equal(ast, ast2)
    # a second print must not drift
    assert render(ast2) == printed


@pytest.mark.parametrize("src", ERROR_CASES, ids=[repr(c) for c in ERROR_CASES])
def test_parse_errors(src):
    with pytest.raises(ParseError) as exc_info:
        parse_field(src, CORPUS_DIMS)
    err = exc_info.value
    assert isinstance(err.offset, int) and 0 <= err.offset <= len(src)


@pytest.mark.parametrize("src", DOMAIN_CASES)
def test_domain_errors(src):
    ast = parse_field(src, CORPUS_DIMS)
    with pytest.raises(EvalDomainError):
        eval_field(ast, float_point(CORPUS_POINT))


@pytest.mark.parametrize("src,offset", [("1 + exp(1000)*x[1]", 4),
                                        ("x[1] - 10^400", 9)])
@pytest.mark.parametrize("seed", [float_point, lambda pt: seed_point(pt, 1)],
                         ids=["float", "jet"])
def test_float_overflow_is_a_domain_error(src, offset, seed):
    # constant subexpressions stay floats even on seeded jets
    with pytest.raises(EvalDomainError, match="non-finite") as exc:
        ExprField(src, CORPUS_DIMS)(seed(CORPUS_POINT))
    assert exc.value.offset == offset


def test_corpus_size():
    assert len(EVAL_CASES) + len(ERROR_CASES) + len(DOMAIN_CASES) >= 40


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc_info:
        parse_field("1 +* 2", CORPUS_DIMS)
    err = exc_info.value
    assert err.offset == 3
    assert err.expected


def test_jet_evaluation_through_field():
    f = ExprField("exp(2*t[1]*x[1])", CORPUS_DIMS, deps=("t", "x"))
    res = f(seed_point(CORPUS_POINT, 2, f.deps))
    v = math.exp(2 * 2.0 * 3.0)
    assert float(res.value) == pytest.approx(v, rel=1e-12)
    # d/dt1 and d/dx1; x-coordinates sit after the p temporal slots
    assert float(res.partial(0).value) == pytest.approx(2 * 3.0 * v, rel=1e-9)
    assert float(res.partial(2).value) == pytest.approx(2 * 2.0 * v, rel=1e-9)


def test_declared_deps_are_enforced():
    with pytest.raises(FieldValidationError) as exc_info:
        ExprField("x[1]", CORPUS_DIMS, deps=("t",))
    assert exc_info.value.violations


def test_validate_field_reports_each_group():
    ast = parse_field("t[1]+x[2]*xs[1][2]", CORPUS_DIMS)
    violations = validate_field(ast, frozenset(("t",)))
    assert {v[0] for v in violations} == {"x", "xs"}
    assert validate_field(ast, frozenset(("t", "x", "xs"))) == []


# random expression texts generated grammar-first, so every draw is valid
def _expr_strategy():
    atoms = st.sampled_from(
        [
            "1",
            "2",
            "0.5",
            "1.5e1",
            ".25",
            "t[1]",
            "t[2]",
            "x[1]",
            "x[2]",
            "xs[1][2]",
            "xs[2][1]",
        ]
    )

    def compose(children):
        binary = st.tuples(
            children, st.sampled_from(["+", "-", "*", "/", "^"]), children
        ).map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        unary = children.map(lambda s: f"-({s})")
        call = st.tuples(
            st.sampled_from(["exp", "sin", "cos", "tanh", "abs"]), children
        ).map(lambda t: f"{t[0]}({t[1]})")
        return st.one_of(binary, unary, call)

    return st.recursive(atoms, compose, max_leaves=12)


@given(src=_expr_strategy())
@settings(max_examples=150, deadline=None)
def test_fixpoint_property(src):
    ast = parse_field(src, CORPUS_DIMS)
    printed = render(ast)
    ast2 = parse_field(printed, CORPUS_DIMS)
    assert ast_equal(ast, ast2)
    assert render(ast2) == printed


# --------------------------------------------------------------------------
# subexpression memo
# --------------------------------------------------------------------------

MEMO_POINT = JetPoint.of([0.1, 0.2], [-1.0, 0.5], [[0.3, 0.4], [0.5, 0.6]])


@pytest.mark.parametrize("seed", [float_point, lambda pt: seed_point(pt, 2)],
                         ids=["float", "jet"])
def test_memo_never_stores_errors(seed):
    # log(x[1]) is shared by both fields and fails at x1 = -1: the second
    # field re-raises at its own offset, not the first field's
    spt = seed(MEMO_POINT)
    for src, offset in (("log(x[1])", 0), ("2 + log(x[1])", 4)):
        with pytest.raises(EvalDomainError) as exc:
            ExprField(src, CORPUS_DIMS)(spt)
        assert exc.value.offset == offset
    assert spt.memo == {}


def test_memo_computes_shared_subtree_once(monkeypatch):
    from jetlag import field_expr

    calls = []
    exp = field_expr._FUNCTIONS["exp"]
    monkeypatch.setitem(field_expr._FUNCTIONS, "exp",
                        lambda v: calls.append(v) or exp(v))
    spt = seed_point(MEMO_POINT, 2)
    a = ExprField("exp(x[2]*t[1])*2", CORPUS_DIMS)(spt)
    b = ExprField("1 + exp(x[2] * t[1])", CORPUS_DIMS)(spt)
    assert len(calls) == 1
    fresh = seed_point(MEMO_POINT, 2)
    for got, src in ((a, "exp(x[2]*t[1])*2"), (b, "1 + exp(x[2] * t[1])")):
        want = eval_field(parse_field(src, CORPUS_DIMS), fresh)
        for cg, cw in zip(got.coeffs, want.coeffs):
            assert np.array_equal(cg, cw)


def test_memo_keys_are_structural():
    from jetlag.field_expr import Binary, Coord, Num, _intern

    x1 = Coord("x", 0, 0)
    assert _intern(Num(0.0)) != _intern(Num(-0.0))
    assert _intern(Binary("*", Num(2.0), x1, pos=0)) == _intern(
        Binary("*", Num(2.0), Coord("x", 0, 0, pos=9), pos=5))
    spt = float_point(MEMO_POINT)
    plus = ExprField(Binary("*", Num(0.0), x1), CORPUS_DIMS)(spt)
    minus = ExprField(Binary("*", Num(-0.0), x1), CORPUS_DIMS)(spt)
    assert math.copysign(1.0, plus) == -1.0  # 0.0 * -1.0
    assert math.copysign(1.0, minus) == 1.0  # -0.0 * -1.0
