"""Parser and expression-field suite: grammar corpus, errors, round trips."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetlag.diff_engine import (
    BatchDiverged,
    Jet,
    JetPoint,
    float_point,
    point_batch,
    seed_point,
)
from jetlag.errors import (
    EvalDomainError,
    FieldValidationError,
    JetlagError,
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
    r"            del v\d+(, v\d+)*",
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


# --------------------------------------------------------------------------
# a batch of points: one call, each point's bits
# --------------------------------------------------------------------------

_rng = np.random.default_rng(3)
# points with zeros and negative coordinates, and points inside every
# domain of the strategy's fractional powers and quotients
BATCHES = [
    [CORPUS_POINT, MEMO_POINT,
     JetPoint.of([0.0, -0.5], [0.5, 0.0], [[-0.0, 1.5], [0.2, -0.7]])],
    [JetPoint.of(_rng.uniform(0.1, 3, 2), _rng.uniform(0.1, 3, 2),
                 _rng.uniform(0.1, 3, (2, 2))) for _ in range(9)],
]


@given(srcs=st.lists(_expr_strategy(), min_size=1, max_size=3),
       order=st.sampled_from([0, 1, 2]))
@example(srcs=["1/(x[1] + x[2])", "(x[1]*xs[1][2])^-0.5", "log(t[1] + t[2])"], order=2)
@settings(max_examples=150, deadline=None)
def test_batch_matches_each_point_alone(srcs, order):
    grid = FieldGrid([ExprField(src, CORPUS_DIMS) for src in srcs])
    for pts in BATCHES:
        try:
            batch = grid.stacked(pts, order)
        except (JetlagError, BatchDiverged):
            continue  # a point raises alone, or the points branch apart
        for b, pt in enumerate(pts):
            row = batch[b]
            alone = grid.stacked([pt], order)[0]
            assert [c.tobytes() for c in row.coeffs] == [c.tobytes() for c in alone.coeffs]


# arguments at the edges of every function's domain and range: signed
# zeros, subnormals, negatives, and exp's first overflow
EDGE_ARGS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1.5, 709.7, 710.0, -745.2]


@pytest.mark.parametrize("fn", ["exp", "log", "sin", "cos", "tanh", "sqrt", "abs"])
@given(args=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(EDGE_ARGS), min_size=1, max_size=6))
@example(args=EDGE_ARGS)
@settings(max_examples=60, deadline=None)
def test_rows_give_each_row_the_float_path(fn, args):
    # a batch of rows runs the float path's own function at each element:
    # every value has its bits, and the first row outside the domain (or
    # that overflows) raises the float path's error there.  (A grid of
    # several nodes runs each over every row in turn, so its error is the
    # first node's to meet a bad row, not always the first bad row's.)
    dims = (1, 1)
    grid = FieldGrid([ExprField(f"{fn}(x[1])", dims)])
    zs = [[0.5, a, 0.25] for a in args]  # t[1], x[1], xs[1][1]
    want = None
    for z in zs:
        try:
            grid([z], dims)
        except JetlagError as exc:
            want = (type(exc), str(exc), exc.offset)
            break
    if want is None:
        got = grid.rows(np.array(zs), dims)
        assert got.shape == (1, len(zs))
        assert [v.hex() for v in got[0].tolist()] == [
            float(grid([z], dims)[0]).hex() for z in zs]
    else:
        with pytest.raises(want[0]) as exc:
            grid.rows(np.array(zs), dims)
        assert (type(exc.value), str(exc.value), exc.value.offset) == want


def _per_row(fn, *args):
    """``_each`` as it was: ``fn`` once per row, in row order."""
    cols = np.broadcast_arrays(*args)
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), float, cols[0].size)


def _each_outcome(fn, *args):
    try:
        return [v.hex() for v in fn(*args).tolist()]
    except Exception as exc:  # noqa: BLE001 - compared between the two paths
        return type(exc), str(exc), getattr(exc, "offset", None)


# few values, so rows repeat; signed zeros, a subnormal, NaN, overflow edges
ROW_VALUES = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, -2.0, 0.5, 3.0, 5e-324,
                              709.7, 710.0, -745.2, math.nan]) | st.floats()


@pytest.mark.parametrize("fn", ["pow", "exp", "log", "sin", "cos", "tanh", "sqrt", "abs"])
@given(rows=st.lists(st.tuples(ROW_VALUES, ROW_VALUES), min_size=1, max_size=12),
       scalar=st.none() | ROW_VALUES)
@settings(max_examples=80, deadline=None)
def test_each_runs_once_per_distinct_row(fn, rows, scalar):
    # _each runs the float path's operation once per distinct bit pattern
    # of its arguments, in the order of their first rows, and gives every
    # row its pattern's value: the values and the first error (type, text
    # and offset) of running it on every row in turn
    from jetlag.field_expr import _FUNCTIONS, _each, _float_pow

    a = np.array([r[0] for r in rows])
    if fn == "pow":  # base, then an exponent per row or one for all, and the offset
        args = (a, np.array([r[1] for r in rows]) if scalar is None else scalar, 7)
        op = _float_pow
    else:
        args, op = (a,), _FUNCTIONS[fn]
    calls = []

    def counted(*xs):
        calls.append(xs)
        return op(*xs)

    want = _each_outcome(_per_row, op, *args)
    assert _each_outcome(_each, counted, *args) == want
    bits = [tuple(np.asarray(c).view(np.int64).tolist())
            for c in np.broadcast_arrays(*args)]
    patterns = list(dict.fromkeys(zip(*bits)))
    if isinstance(want, list):
        assert [tuple(np.array(x).view(np.int64).tolist() for x in c)
                for c in calls] == patterns
    else:
        assert len(calls) <= len(patterns)


# --------------------------------------------------------------------------
# a grid's jets range over the coordinates its fields read
# --------------------------------------------------------------------------

def _signed_strategy():
    """Field texts with unary minus, negative constant factors and the
    calls exp, log, sqrt, sin, tanh and abs."""
    atoms = st.sampled_from(["1", "-2", "0.5", "-0.25", "t[1]", "t[2]", "x[1]",
                             "x[2]", "xs[1][2]", "xs[2][1]", "-x[1]", "-xs[1][1]"])

    def compose(children):
        binary = st.tuples(
            children, st.sampled_from(["+", "-", "*", "/", "^"]), children
        ).map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        unary = children.map(lambda s: f"-({s})")
        scaled = children.map(lambda s: f"-3*({s})")
        call = st.tuples(
            st.sampled_from(["exp", "log", "sqrt", "sin", "tanh", "abs"]), children
        ).map(lambda t: f"{t[0]}({t[1]})")
        return st.one_of(binary, unary, scaled, call)

    return st.recursive(atoms, compose, max_leaves=8)


# guards that always hold, that fail at some points, and that read a
# coordinate the guarded field may not read
GUARDS = [None, "1 + x[1]^2", "4*t[1]", "1 + xs[2][2]^2"]
SIGNED_POINTS = [
    JetPoint.of([0.7, 0.3], [1.2, 0.4], [[0.5, 1.5], [0.2, 0.9]]),
    JetPoint.of([0.2, 1.1], [0.6, 2.0], [[1.3, 0.4], [0.8, 0.1]]),
    CORPUS_POINT,  # x[2] < 0: log and sqrt of it raise
]


# the flat index of each coordinate reference at CORPUS_DIMS: t^1 t^2 x^1 x^2
# xs^1_1 xs^1_2 xs^2_1 xs^2_2
_COORD_REF = re.compile(r"xs\[\d\]\[\d\]|t\[\d\]|x\[\d\]")
_FLAT = {ref: k for k, ref in enumerate(["t[1]", "t[2]", "x[1]", "x[2]", "xs[1][1]",
                                         "xs[1][2]", "xs[2][1]", "xs[2][2]"])}


def _outcomes(evaluate):
    try:
        return evaluate()
    except (JetlagError, BatchDiverged) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _seeded_over_all(grid, pts, order):
    """Per field, the grid's value seeded in every coordinate of each group,
    as the grid seeds ``pts`` (one point alone): a float, or the jet's
    coefficients, each with a leading point axis."""
    one = len(pts) == 1
    seeds = [seed_point(pts[0] if one else pts, order, deps) for deps in grid.groups]
    if one:
        vals = grid.at(seeds)
    else:
        with point_batch():
            vals = grid.at(seeds)
    return [[c[None] if one else c for c in v.coeffs] if isinstance(v, Jet)
            else float(v) for v in vals]


@given(srcs=st.lists(st.tuples(_signed_strategy(), st.sampled_from(GUARDS),
                               st.sets(st.sampled_from(["t", "x", "xs"]))),
                     min_size=1, max_size=3),
       order=st.sampled_from([0, 1, 2, 3]))
@example(srcs=[("-(2)*-0.5", None, set()), ("exp(-1)", None, {"x"})], order=3)
@example(srcs=[("-x[1]", None, set()), ("-3*(xs[1][2])", "1 + xs[2][2]^2", set())],
         order=2)
@settings(max_examples=150, deadline=None)
def test_compact_jets_expand_to_the_full_seeding(srcs, order):
    # each entry of a grid's jets seeded over the coordinates it reads holds
    # the bits of that entry seeded over all N, alone and in a batch; every
    # other entry of the full seeding is a zero, whose sign the expansion
    # does not keep (unary minus and negative factors leave -0.0 there)
    fields = []
    for src, guard, extra in srcs:
        ast = parse_field(src, CORPUS_DIMS)
        deps = {c[0] for c in validate_field(ast, ())} | extra
        fields.append(ExprField(ast, CORPUS_DIMS, deps, guard=guard and (
            "guard", ExprField(guard, CORPUS_DIMS))))
    grid = FieldGrid(fields)
    over = grid.over(CORPUS_DIMS)
    texts = " ".join(f"{src} {guard}" for src, guard, _ in srcs)
    assert over == tuple(sorted({_FLAT[ref] for ref in _COORD_REF.findall(texts)}))
    for pts in [[pt] for pt in SIGNED_POINTS] + [SIGNED_POINTS[:2], SIGNED_POINTS]:
        compact = _outcomes(lambda: grid.compact(pts, order))
        stacked = _outcomes(lambda: grid.stacked(pts, order))
        full = _outcomes(lambda: _seeded_over_all(grid, pts, order))
        if isinstance(full, tuple):
            # a batch seeded over all N branches apart where a point alone
            # raises, and the grid runs a single point alone
            assert compact == stacked == full or (
                len(pts) > 1 and compact == stacked)
            continue
        assert not isinstance(compact, tuple), compact
        assert compact.nvars == len(over)
        for j, want in enumerate(full):
            for k in range(compact.order + 1):
                got = compact.coeffs[k][:, j]
                if isinstance(want, float):  # a constant jet
                    want = [np.full(len(pts), want)] + [
                        np.zeros((len(pts),) + (8,) * m) for m in range(1, order + 1)]
                read = (Ellipsis, *np.ix_(*[over] * k))
                assert np.ascontiguousarray(want[k][read]).tobytes() == got.tobytes()
                expected = np.zeros(want[k].shape)
                expected[read] = want[k][read]
                assert not (want[k] - expected).any()  # unread entries are zeros
                assert stacked.coeffs[k][:, j].tobytes() == expected.tobytes()


@given(srcs=st.lists(st.tuples(st.one_of(_signed_strategy(),
                                         st.sampled_from([src for src, _ in EVAL_CASES])),
                               st.sampled_from(GUARDS)),
                     min_size=1, max_size=3),
       order=st.sampled_from([0, 1, 2]), deeper=st.sampled_from([1, 2, 3]))
@example(srcs=[("-3*(x[1]*xs[2][1])", "4*t[1]"), ("sqrt(x[2])", None)], order=2, deeper=1)
@example(srcs=[("t[1]^t[2]", None), ("-(2)*-0.5", "1 + xs[2][2]^2")], order=0, deeper=1)
@settings(max_examples=150, deadline=None)
def test_a_deeper_run_truncated_is_the_run(srcs, order, deeper):
    # a grid's compact rows at an order are its rows at any deeper order
    # truncated, byte for byte, alone and in a batch: a Taylor coefficient
    # reads only the coefficients below it, so a row block serves every
    # frame from one run.  A run that raises at an order raises at every
    # deeper one; a deeper run may raise alone, where its top coefficients
    # leave a domain, and the row block then leaves the grid to each frame.
    # A power whose exponent reads a coordinate takes the real-power rule
    # at order 0 (t[1]^t[2] differs in its last bit), so a grid holding one
    # does not truncate
    fields = [ExprField(src, CORPUS_DIMS, guard=guard and (
        "guard", ExprField(guard, CORPUS_DIMS))) for src, guard in srcs]
    grid = FieldGrid(fields)
    if not grid.truncates:
        return
    for pts in [[pt] for pt in SIGNED_POINTS] + [SIGNED_POINTS[:2], SIGNED_POINTS]:
        run = _outcomes(lambda: grid.compact(pts, order))
        deep = _outcomes(lambda: grid.compact(pts, order + deeper))
        if isinstance(run, tuple):
            assert isinstance(deep, tuple), run
            continue
        if isinstance(deep, tuple):
            continue
        cut = deep.truncated(order)
        assert (run.nvars, run.order) == (cut.nvars, cut.order)
        assert [c.tobytes() for c in run.coeffs] == [c.tobytes() for c in cut.coeffs]


def test_a_power_whose_exponent_reads_a_coordinate_does_not_truncate():
    # at order 0 every jet exponent is constant, so t[1]^t[2] takes the
    # real-power rule there and exp(t[2]*log(t[1])) above it: the value of
    # the order-0 run is not the order-1 run's in its last bit
    grid = FieldGrid([ExprField("t[1]^t[2]", CORPUS_DIMS)])
    assert not grid.truncates
    assert any(grid.compact([pt], 0).coeffs[0].tobytes()
               != grid.compact([pt], 1).coeffs[0].tobytes() for pt in SIGNED_POINTS)
    assert FieldGrid([ExprField("t[1]^2.5 + 2^3", CORPUS_DIMS)]).truncates
