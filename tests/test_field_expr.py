"""Parser and expression-field suite: grammar corpus, errors, round trips."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.diff_engine import Jet, JetPoint, float_point, seed_point
from jetlag.errors import (
    EvalDomainError,
    FieldValidationError,
    ParseError,
)
from jetlag.field_expr import (
    ExprField,
    FieldGrid,
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


@pytest.mark.parametrize("order", [1, 2])
def test_constant_base_power_of_a_jet(order):
    # a constant raised to a varying power goes through exp(expo * log(base))
    spt = seed_point(CORPUS_POINT, order)
    got = ExprField("2^x[1]", CORPUS_DIMS)(spt)
    want = ExprField("exp(x[1]*log(2))", CORPUS_DIMS)(spt)
    for g, w in zip(got.coeffs, want.coeffs):
        assert np.allclose(g, w, rtol=1e-14, atol=0.0)
    with pytest.raises(EvalDomainError, match="positive base") as exc:
        ExprField("1 + (0-2)^x[1]", CORPUS_DIMS)(spt)
    assert exc.value.offset == 9


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
# shared subexpressions in compiled grids
# --------------------------------------------------------------------------

MEMO_POINT = JetPoint.of([0.1, 0.2], [-1.0, 0.5], [[0.3, 0.4], [0.5, 0.6]])


@pytest.mark.parametrize("seed", [float_point, lambda pt: seed_point(pt, 2)],
                         ids=["float", "jet"])
def test_memo_never_stores_errors(seed):
    # log(x[1]) is shared by both fields and fails at x1 = -1: the second
    # field re-raises at its own offset, not the first field's
    spt = seed(MEMO_POINT)
    fields = [ExprField(src, CORPUS_DIMS) for src in ("log(x[1])", "2 + log(x[1])")]
    for field, offset in zip(fields, (0, 4)):
        with pytest.raises(EvalDomainError) as exc:
            field(spt)
        assert exc.value.offset == offset
    # one grid of both raises where its walk first meets the failing node
    for order, offset in ((fields, 0), (fields[::-1], 4)):
        with pytest.raises(EvalDomainError) as exc:
            FieldGrid(order).at([spt])
        assert exc.value.offset == offset


def test_memo_computes_shared_subtree_once(monkeypatch):
    from jetlag import field_expr

    calls = []
    exp = field_expr._FUNCTIONS["exp"]
    monkeypatch.setitem(field_expr._FUNCTIONS, "exp",
                        lambda v: calls.append(v) or exp(v))
    spt = seed_point(MEMO_POINT, 2)
    srcs = ("exp(x[2]*t[1])*2", "1 + exp(x[2] * t[1])")
    a, b = FieldGrid([ExprField(src, CORPUS_DIMS) for src in srcs]).at([spt])
    assert len(calls) == 1
    fresh = seed_point(MEMO_POINT, 2)
    for got, src in zip((a, b), srcs):
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


@pytest.mark.parametrize("src,offset", [("1e999", 0), ("2*1e999", 2),
                                        ("-1e999", 1), ("1" + "0" * 400, 0)])
def test_overflowing_literal_is_a_parse_error(src, offset):
    with pytest.raises(ParseError) as exc:
        parse_field(src, CORPUS_DIMS)
    assert (exc.value.offset, exc.value.expected) == (offset, "a finite numeric literal")


# --------------------------------------------------------------------------
# compiled grids against the reference interpreter
# --------------------------------------------------------------------------

from reference_eval import reference_eval  # noqa: E402

SEEDS = {"float": float_point, "jet": lambda pt: seed_point(pt, 2)}


def _bits(v):
    if isinstance(v, Jet):
        return [c.tobytes() for c in v.coeffs]
    return float(v).hex()  # keeps the sign of a zero


def _outcome(evaluate):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "value", [_bits(v) for v in evaluate()]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _reference(asts, spt):
    return _outcome(lambda: [reference_eval(ast, spt) for ast in asts])


def _grid(asts, spt):
    return _outcome(lambda: FieldGrid([ExprField(a, CORPUS_DIMS) for a in asts]).at([spt]))


@given(srcs=st.lists(_expr_strategy(), min_size=1, max_size=3),
       seed=st.sampled_from(sorted(SEEDS)))
@settings(max_examples=150, deadline=None)
def test_grid_matches_reference_interpreter(srcs, seed):
    asts = [parse_field(src, CORPUS_DIMS) for src in srcs]
    for pt in (CORPUS_POINT, MEMO_POINT):
        spt = SEEDS[seed](pt)
        assert _grid(asts, spt) == _reference(asts, spt)


@pytest.mark.parametrize("seed", sorted(SEEDS))
@pytest.mark.parametrize("srcs", [[src] for src in DOMAIN_CASES] + [
    ["log(x[1])", "2 + log(x[1])"],
    ["2 + log(x[1])", "log(x[1])"],
    ["0.0*x[1]", "-0.0*x[1]", "-(0.0*x[1])"],
    ["exp(exp(xs[1][1]*x[1]))"],  # overflows: OverflowError on floats
    ["log(x[2]) + sqrt(x[2])", "sqrt(x[2])"],  # the left operand fails first
], ids=repr)
def test_grid_errors_and_zeros_match_reference(srcs, seed):
    asts = [parse_field(src, CORPUS_DIMS) for src in srcs]
    for pt in (CORPUS_POINT, MEMO_POINT):
        spt = SEEDS[seed](pt)
        assert _grid(asts, spt) == _reference(asts, spt)


# --------------------------------------------------------------------------
# what reaches exec
# --------------------------------------------------------------------------

_NAME = r"[cv]\d+"
_SOURCE_LINE = re.compile("|".join(rf"(?:{p})" for p in [
    r"def _make\(C, S\):",
    r"    \((c\d+, )*\) = C",
    r"    def grid\(z\d+(, z\d+)*\):",
    r"        _k = 0",
    r"        try:",
    r"            _k = \d+",
    rf"            v\d+ = (z\d+\[\d+\]|-{_NAME}|{_NAME} (\+|-|\*|/|\*\*) {_NAME}"
    rf"|_float_pow\({_NAME}, {_NAME}, \d+\)|c\d+\({_NAME}\))",
    r"            if not (_isfinite|_jet_finite)\(v\d+\): raise OverflowError",
    rf"            _guard\({_NAME}, c\d+, c\d+, z\d+, c\d+\)",
    rf"            return \[{_NAME}(, {_NAME})*\]",
    r"        except Exception as exc:",
    r"            raise _lift\(exc, S\[_k\]\)",
    r"    return grid",
]))


def _source(fields, spt):
    grid = FieldGrid(fields)
    try:
        grid.at([spt])
    except EvalDomainError:
        pass
    (fn,) = grid._fns.values()
    return fn.source


def _bench_spaces():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spec.py")
    spec = importlib.util.spec_from_file_location("bench_spec", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [mod.WORKLOADS[w]["config"] for w in sorted(mod.WORKLOADS)]


def _space_grids(ctx):
    grids = [ctx.h.ravel(), ctx.g_source.entries.ravel()]
    if hasattr(ctx.nlc, "phi"):
        grids.append(ctx.nlc.phi.ravel())
    return grids


def test_generated_source_holds_no_field_text():
    from jetlag.spaces import build_space

    texts = [src for src, _ in EVAL_CASES] + DOMAIN_CASES
    sources = [_source([ExprField(t, CORPUS_DIMS)], SEEDS[s](CORPUS_POINT))
               for t in texts for s in SEEDS]
    for cfg in _bench_spaces():
        ctx = build_space(cfg["space"]["name"], cfg["space"]["params"])
        dims = (cfg["p"], cfg["n"])
        pt = JetPoint.of(np.full(dims[0], 0.3), np.full(dims[1], 0.2),
                         np.full((dims[1], dims[0]), 0.1))
        sources += [_source(list(grid), SEEDS[s](pt))
                    for grid in _space_grids(ctx) for s in SEEDS]
    assert len(sources) > 100
    for source in sources:
        assert "'" not in source and '"' not in source
        for line in source.splitlines():
            assert _SOURCE_LINE.fullmatch(line), line


def test_field_names_never_reach_the_source():
    n_field = ExprField("1 + x[1]^2", CORPUS_DIMS)
    odd = "g'[1]\"; import os; os.remove('x') #"
    spt = float_point(CORPUS_POINT)
    plain, named = (
        _source([ExprField("x[2]*(1 - 1/(1 + x[1]^2))", CORPUS_DIMS, name=name,
                           guard=(label, n_field))], spt)
        for name, label in (("g", "index"), (odd, odd + " index")))
    assert plain == named
    assert "_guard(" in plain
