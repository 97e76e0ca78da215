"""Taylor-jet arithmetic against exact sympy derivatives, plus the FD path."""
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag import diff_engine
from jetlag.diff_engine import (
    POINT,
    BatchDiverged,
    Jet,
    JetPoint,
    PyField,
    check_grad,
    eval_derivs,
    fd_partial,
    jet_einsum,
    jet_linear,
    jet_matrix_inverse,
    jet_stack,
    jexp,
    jlog,
    jsin,
    jcos,
    jsqrt,
    jtanh,
    point_batch,
    seed_point,
)
from jetlag.errors import EvalDomainError, OrderExceededError, SingularMetricError
from jetlag.field_expr import ExprField

import support

N = 3  # jet variables
K = 3  # truncation order


@pytest.fixture(scope="module")
def basis():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.5, 1.5, size=N)
    syms = sp.symbols("z0 z1 z2")
    subs = {s: v for s, v in zip(syms, vals)}
    z = [
        Jet.variables(np.asarray(vals[i]), np.asarray(i), N, K)
        for i in range(N)
    ]
    return z, syms, subs


def _all_partials(expr, syms, subs, order):
    out = {}
    for k in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(N), k):
            d = expr
            for i in combo:
                d = sp.diff(d, syms[i])
            out[combo] = float(d.subs(subs))
    return out


def _jet_partial(j, combo):
    c = j.coeffs[len(combo)]
    return float(c[combo] if combo else c)


def assert_matches(jet, expr, syms, subs, order=K, tol=1e-9):
    for combo, want in _all_partials(expr, syms, subs, order).items():
        got = _jet_partial(jet, combo)
        assert got == pytest.approx(want, rel=tol, abs=tol), (
            f"partial {combo}: got {got}, want {want}"
        )


def test_polynomial_and_division(basis):
    z, syms, subs = basis
    expr = (syms[0] * syms[1] + 2) * syms[2] - syms[0] ** 3 / (syms[1] + 5)
    jet = (z[0] * z[1] + 2) * z[2] - z[0] ** 3 / (z[1] + 5)
    assert_matches(jet, expr, syms, subs)


def test_reflected_ops_and_fractional_power(basis):
    z, syms, subs = basis
    expr = 7 / (syms[0] + syms[1] ** 2) - (3 - syms[2]) ** sp.Rational(3, 2)
    jet = 7 / (z[0] + z[1] ** 2) - (3 - z[2]) ** 1.5
    assert_matches(jet, expr, syms, subs)


def test_negative_integer_power(basis):
    z, syms, subs = basis
    assert_matches((z[0] + z[1]) ** -2, (syms[0] + syms[1]) ** -2, syms, subs)


def test_transcendental_chain(basis):
    z, syms, subs = basis
    expr = sp.exp(sp.sin(syms[0]) * syms[1]) + sp.log(syms[2] + 1) * sp.cos(
        syms[0] ** 2
    )
    jet = jexp(jsin(z[0]) * z[1]) + jlog(z[2] + 1) * jcos(z[0] ** 2)
    assert_matches(jet, expr, syms, subs)


def test_sqrt_times_tanh(basis):
    z, syms, subs = basis
    expr = sp.sqrt(syms[0] + syms[1] * syms[2]) * sp.tanh(
        syms[1] - sp.Rational(1, 2)
    )
    jet = jsqrt(z[0] + z[1] * z[2]) * jtanh(z[1] - 0.5)
    assert_matches(jet, expr, syms, subs)


def test_jet_valued_exponent(basis):
    z, syms, subs = basis
    expr = (syms[0] + 1) ** (syms[1] * syms[2])
    jet = (z[0] + 1) ** (z[1] * z[2])
    assert_matches(jet, expr, syms, subs)


def _matrix_jets(z):
    A = jet_stack(
        [
            jet_stack([z[i] * z[j] + (1.0 if i == j else 0.0) for j in range(N)])
            for i in range(N)
        ]
    )
    B = jet_stack([z[i] ** 2 for i in range(N)])
    return A, B


def test_einsum_contraction(basis):
    z, syms, subs = basis
    A, B = _matrix_jets(z)
    C = jet_einsum("ij,j->i", A, B)
    for i in range(N):
        expr = sum(
            (syms[i] * syms[j] + (1 if i == j else 0)) * syms[j] ** 2
            for j in range(N)
        )
        assert_matches(C[i], expr, syms, subs)


def test_jet_linear_trace(basis):
    z, syms, subs = basis
    A, _ = _matrix_jets(z)
    tr = jet_linear("ii->", A)
    assert_matches(tr, sum(syms[i] * syms[i] + 1 for i in range(N)), syms, subs)


def test_matrix_inverse(basis):
    z, syms, subs = basis
    M = jet_stack(
        [
            jet_stack(
                [(2.0 if i == j else 0.0) + z[i] * z[j] / 4 for j in range(N)]
            )
            for i in range(N)
        ]
    )
    Minv = jet_matrix_inverse(M)
    Msym = sp.Matrix(N, N, lambda i, j: (2 if i == j else 0) + syms[i] * syms[j] / 4)
    Minv_sym = Msym.inv()
    for i in range(N):
        for j in range(N):
            assert_matches(Minv[i, j], Minv_sym[i, j], syms, subs, tol=1e-8)
    prod = jet_einsum("im,mj->ij", M, Minv)
    resid = max(
        float(np.max(np.abs(prod.coeffs[k] - (np.eye(N) if k == 0 else 0.0))))
        for k in range(K + 1)
    )
    assert resid < 1e-10


def _bits_equal(a: Jet, b: Jet) -> bool:
    return a.order == b.order and all(
        np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in zip(a.coeffs, b.coeffs))


def _spd_jet(seed: int, nvars: int = 15) -> Jet:
    """A random symmetric positive-definite 3x3 jet of order 3 with every
    derivative coefficient nonzero."""
    rng = np.random.default_rng(seed)
    z = Jet.variables(rng.uniform(-0.5, 0.5, nvars), np.arange(nvars), nvars, 3)
    Y = jet_einsum("ijc,c->ij", rng.normal(size=(3, 3, nvars)), jsin(z))
    return jet_einsum("ik,jk->ij", Y, Y) + Jet.constant(3.0 * np.eye(3), nvars, 3)


def test_matrix_inverse_order_cap_is_the_full_inverse_truncated(pt_mixed33):
    # coefficient k of each Newton step reads only coefficients up to k, and
    # every order takes the same two steps, so capping the order moves no bit
    from jetlag.geometry import frame

    ctx = support.mixed33_ctx()
    mats = [_spd_jet(5)]
    for pt in (pt_mixed33, JetPoint.of([-0.1, 0.3, 0.2], [0.1, -0.2, 0.3],
                                       np.full((3, 3), 0.15))):
        fr = frame(ctx, pt, 3)
        mats += [fr.h_jet, fr.g_jet, fr.phi_jet]
    for a in mats:
        assert a.order == 3 and not a.is_constant()
        full = jet_matrix_inverse(a)
        for k in range(4):
            assert _bits_equal(jet_matrix_inverse(a, order=k), full.truncated(k)), k
    singular = _spd_jet(6)
    singular.coeffs[0] = np.ones((3, 3))
    for k in range(4):
        with pytest.raises(SingularMetricError):
            jet_matrix_inverse(singular, order=k)


def test_einsum_with_constant_operands(basis):
    z, syms, subs = basis
    A, _ = _matrix_jets(z)
    rng = np.random.default_rng(11)
    const = rng.uniform(-1, 1, size=(N, N))
    D = jet_einsum("ij,jk->ik", A, const)
    D2 = jet_einsum("ij,jk->ik", const, A)
    e_D = sum(
        (syms[1] * syms[m] + (1 if 1 == m else 0)) * const[m, 2] for m in range(N)
    )
    e_D2 = sum(
        const[2, m] * (syms[m] * syms[0] + (1 if m == 0 else 0)) for m in range(N)
    )
    assert_matches(D[1, 2], e_D, syms, subs)
    assert_matches(D2[2, 0], e_D2, syms, subs)


def test_derivative_block(basis):
    z, syms, subs = basis
    A, _ = _matrix_jets(z)
    dA = A.dblock(slice(0, N))
    for i, j, v in [(0, 1, 2), (2, 2, 0)]:
        expr = sp.diff(syms[i] * syms[j] + (1 if i == j else 0), syms[v])
        assert_matches(dA[i, j, v], expr, syms, subs, order=K - 1)


def test_partial_chain(basis):
    z, syms, subs = basis
    expr = (syms[0] * syms[1] + 2) * syms[2] - syms[0] ** 3 / (syms[1] + 5)
    jet = (z[0] * z[1] + 2) * z[2] - z[0] ** 3 / (z[1] + 5)
    got = float(jet.partial(0).partial(1).value)
    want = float(sp.diff(expr, syms[0], syms[1]).subs(subs))
    assert got == pytest.approx(want, rel=1e-12)


def test_coefficient_tensors_symmetric(basis):
    z, _, _ = basis
    jet = jexp(jsin(z[0]) * z[1]) + jlog(z[2] + 1) * jcos(z[0] ** 2)
    for k in (2, 3):
        c = jet.coeffs[k]
        for perm in itertools.permutations(range(k)):
            assert float(np.max(np.abs(np.transpose(c, perm) - c))) < 1e-12


# ---------------------------------------------------------------------------
# field-level differentiation: taylor vs finite differences
# ---------------------------------------------------------------------------


def test_overflowing_field_raises_the_domain_error_not_a_warning():
    # exp(700) overflows the order-2 jet; the grid runs with numpy's
    # warnings off, so a library caller gets the named error alone
    f = ExprField("exp(x[1]*700)", (1, 1), deps=("x",))
    pt = JetPoint.of([0.0], [1.0], [[0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvalDomainError, match="non-finite result"):
            check_grad(f, [pt])


def test_check_grad_agreement():
    dims = (2, 2)
    f = ExprField("exp(0.5*t[1]*x[1])*xs[2][1]+sin(x[2])", dims)
    rng = np.random.default_rng(3)
    pts = [
        JetPoint.of(
            rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2))
        )
        for _ in range(10)
    ]
    rep = check_grad(f, pts)
    assert rep.n_comparisons > 0
    assert not rep.nan_flags
    assert rep.max_rel_dev < 1e-5


def _per_probe_check_grad(f, pts):
    """check_grad as one eval_derivs and one fd_partial call per probe."""
    worst, worst_pt, worst_wrt, count, nans = 0.0, -1, (), 0, []
    for ip, pt in enumerate(pts):
        p, n = pt.dims
        coords = [("t", a) for a in range(p) if "t" in f.deps]
        coords += [("x", i) for i in range(n) if "x" in f.deps]
        coords += [("xs", i, a) for i in range(n) for a in range(p) if "xs" in f.deps]
        probes = [(c,) for c in coords]
        probes += [(c, d) for k, c in enumerate(coords) for d in coords[k:]]
        for wrt in probes:
            a = eval_derivs(f, pt, list(wrt))
            b = fd_partial(f, pt, list(wrt))
            if not (np.isfinite(a) and np.isfinite(b)):
                nans.append((ip, wrt))
                continue
            dev = abs(a - b) / max(1.0, abs(a), abs(b))
            count += 1
            if dev > worst:
                worst, worst_pt, worst_wrt = dev, ip, wrt
    return worst, worst_pt, worst_wrt, count, nans


def test_check_grad_matches_per_probe_reference(monkeypatch):
    # mixed partials couple all three coordinate groups, so every order-2
    # entry read off the single jet is exercised; the quotient makes some
    # order-2 coefficients differ from their transposes in the last bit
    f = ExprField(
        "sin(t[1]*x[2])*exp(xs[1][2]*x[1])/(2+cos(t[2]*xs[2][1]))", (2, 2)
    )
    rng = np.random.default_rng(11)
    pts = [
        JetPoint.of(
            rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2))
        )
        for _ in range(4)
    ]
    rep = check_grad(f, pts)
    got = (rep.max_rel_dev, rep.worst_point, rep.worst_wrt, rep.n_comparisons,
           rep.nan_flags)
    assert got == _per_probe_check_grad(f, pts)
    assert rep.n_comparisons == 4 * (8 + 36)
    # with eval_derivs standing in for the FD side, a probe read off the jet
    # that differs from eval_derivs in any bit shows as a deviation
    def exact_rows(grid, pts, probes):  # _fd_rows's [point][field][probe]
        return [[[eval_derivs(fld, pt, list(wrt)) for wrt, _ in probes]
                 for fld in grid.fields] for pt in pts]

    monkeypatch.setattr(diff_engine, "_fd_rows", exact_rows)
    assert check_grad(f, pts).max_rel_dev == 0.0


def _points(seed, count):
    rng = np.random.default_rng(seed)
    return [JetPoint.of(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                        rng.uniform(-1, 1, (2, 2))) for _ in range(count)]


def _recorded(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls, fn = [], getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _hexed_report(rep) -> tuple:
    return (rep.max_rel_dev.hex(), rep.worst_point, rep.worst_wrt,
            rep.n_comparisons, rep.nan_flags)


# rational and polynomial fields in three dependency groups, two sharing
# one grid: quotients, integer powers of negative bases, a fractional
# power, sqrt and abs, all of which run on arrays with the float path's bits
STENCIL_FIELDS = [
    ExprField("(1 + t[1]^2)/(2 - t[2]) - t[1]*t[2]^3", (2, 2), deps=("t",)),
    ExprField("-(t[2] - 3)^-2*t[1]/7", (2, 2), deps=("t",)),
    ExprField("(x[1] - 2)^3/(3 + x[2]^2) + sqrt(2 + x[1]*x[2])", (2, 2), deps=("x",)),
    ExprField("xs[1][2]*abs(xs[2][1] - 3)^1.5 - 1/(3 + xs[1][1]*xs[2][2])",
              (2, 2), deps=("xs",)),
]


def test_check_grad_stencil_batch_matches_per_probe_reference(monkeypatch):
    # every estimate comes from one stencil batch per dependency group, and
    # each report is the per-probe reference's, bit for bit
    from jetlag.field_expr import FieldGrid

    pts = _points(5, 5)
    probes = _recorded(monkeypatch, diff_engine, "fd_partial")
    batches = _recorded(monkeypatch, FieldGrid, "rows")
    reps = check_grad(STENCIL_FIELDS, pts)
    assert not probes and len(batches) == 3
    for f, rep in zip(STENCIL_FIELDS, reps):
        worst, *rest = _per_probe_check_grad(f, pts)
        assert _hexed_report(rep) == (worst.hex(), *rest), f.src
        assert rep.n_comparisons > 0
    # and each estimate of the batch is fd_partial's
    monkeypatch.undo()  # stop recording
    for grid, *_ in batches:
        probes = diff_engine._probes(
            diff_engine._dep_coords(grid.fields[0], 2, 2), (2, 2))
        got = diff_engine._fd_rows(grid, pts, probes)
        want = [[[fd_partial(f, pt, list(wrt)).hex() for wrt, _ in probes]
                 for f in grid.fields] for pt in pts]
        assert [[[v.hex() for v in row] for row in at] for at in got] == want


def test_stencil_batch_keeps_the_per_probe_error(monkeypatch):
    # sqrt(x[1]) at x[1] = 5e-5: the point is inside the domain, its
    # step-2 stencil point x[1] - 1e-4 is not; the batch fails, and the
    # probes taken one at a time raise the error and witness they always did
    from jetlag.field_expr import FieldGrid

    f = ExprField("t[1] + sqrt(x[1])", (2, 2), deps=("t", "x"))
    pts = [JetPoint.of([0.1, 0.2], [0.5, 0.3], np.zeros((2, 2))),
           JetPoint.of([0.1, 0.2], [5e-5, 0.3], np.zeros((2, 2)))]
    got = []
    for refuse in (False, True):
        if refuse:
            def refusing(self, zs, dims):
                raise BatchDiverged
            monkeypatch.setattr(FieldGrid, "rows", refusing)
        with pytest.raises(EvalDomainError) as exc:
            check_grad(f, pts)
        got.append((type(exc.value), str(exc.value), exc.value.offset,
                    exc.value.witness))
    assert got[0][:3] == got[1][:3] == (EvalDomainError,
                                        "sqrt of a negative value", 7)
    assert got[0][3] is got[1][3] is pts[1]


@pytest.mark.parametrize("field", [
    ExprField("exp(0.5*x[1])*x[2]", (2, 2), deps=("x",)),
    PyField(lambda spt: spt.x[0] * spt.x[1] ** 2, deps=("x",), name="py"),
], ids=["exp", "python"])
def test_grids_without_a_stencil_batch_take_fd_partial(monkeypatch, field):
    # a python field runs on one point at a time, so it keeps the per-probe
    # path; a grid that calls exp runs its stencils as one batch, by math.exp
    # at each element, with the per-probe path's bits
    from jetlag.field_expr import FieldGrid

    python = isinstance(field, PyField)
    if python:
        with pytest.raises(BatchDiverged):
            FieldGrid.of([field]).rows(np.zeros((1, 8)), (2, 2))
    pts = _points(7, 3)
    probes = _recorded(monkeypatch, diff_engine, "fd_partial")
    batches = _recorded(monkeypatch, FieldGrid, "rows")
    rep = check_grad(field, pts)
    if python:
        assert len(probes) == rep.n_comparisons == 3 * (2 + 3)
    else:
        assert not probes and len(batches) == 1
        assert rep.n_comparisons == 3 * (2 + 3)
    worst, *rest = _per_probe_check_grad(field, pts)
    assert _hexed_report(rep) == (worst.hex(), *rest)


def test_check_grad_skips_fields_without_dependencies():
    def never(spt):
        raise AssertionError("a field without dependencies was evaluated")

    f = PyField(never, deps=())
    pt = JetPoint.of([0.1, 0.2], [0.3, 0.4], [[0.5, 0.6], [0.7, 0.8]])
    rep = check_grad(f, [pt, pt])
    assert rep.n_comparisons == 0
    assert rep.worst_point == -1 and not rep.nan_flags


def test_fd_second_order_convergence(monkeypatch):
    # halving the first-order step cuts the central-difference error ~4x
    f = ExprField("sin(t[1])", (1, 1), deps=("t",))
    pt = JetPoint.of([0.3], [0.0], [[0.0]])
    exact = eval_derivs(f, pt, [("t", 0)])
    errs = []
    for step in (2e-3, 1e-3):
        monkeypatch.setattr(diff_engine, "FD_STEP_1", step)
        approx = fd_partial(f, pt, [("t", 0)])
        errs.append(abs(approx - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_fd_partial_second_order():
    f = ExprField("x[1]^3*t[1]", (1, 1), deps=("t", "x"))
    pt = JetPoint.of([2.0], [0.7], [[0.0]])
    got = fd_partial(f, pt, [("x", 0), ("x", 0)])
    assert got == pytest.approx(6 * 0.7 * 2.0, rel=1e-5)


def test_order_budget_enforced():
    # finite differences stop at order 2
    f = ExprField("t[1]^4", (1, 1), deps=("t",))
    pt = JetPoint.of([0.5], [0.0], [[0.0]])
    with pytest.raises(OrderExceededError):
        fd_partial(f, pt, [("t", 0)] * 3)


def test_undeclared_coordinates_are_constants():
    # the field reads xs but only declares t, so d/dxs vanishes by seeding
    f = PyField(lambda spt: spt.xs[0][0], deps=("t",), name="sneaky")
    pt = JetPoint.of([0.1], [0.2], [[0.9]])
    assert eval_derivs(f, pt, [("xs", 0, 0)]) == 0.0


def test_seed_point_orders():
    pt = JetPoint.of([0.5], [0.25], [[2.0]])
    spt = seed_point(pt, 1, frozenset(("t", "x")))
    assert float(spt.t[0].coeffs[1][0]) == 1.0
    assert float(spt.x[0].coeffs[1][1]) == 1.0
    # xs outside deps is seeded as a constant jet: value kept, gradient zero
    xs_jet = spt.xs[0][0]
    assert float(xs_jet.value) == 2.0
    assert float(np.max(np.abs(xs_jet.coeffs[1]))) == 0.0


def _coeff_bytes(jet):
    return [np.asarray(c).tobytes() for c in jet.coeffs]


def test_powers_take_the_scalar_libm_pow_at_any_value_shape():
    # numpy's array pow may differ from the scalar libm pow in the last bit;
    # every derivative table takes its powers by the latter, so a value held
    # as a 0-d array, as a numpy scalar or as one row of a batch gives the
    # same coefficients
    import math

    rng = np.random.default_rng(11)
    B, n, order = 48, 2, 3
    vals = rng.uniform(0.05, 20.0, size=B)
    rest = [rng.normal(size=(B,) + (n,) * k) for k in range(1, order + 1)]
    batch = Jet(n, order, [vals, *rest])
    for e in (-2, -3, 0.5, -0.5, 1.5):
        got = diff_engine._pow(vals, e)
        assert got.tobytes() == np.array([math.pow(v, e) for v in vals]).tobytes()
    ops = {
        "reciprocal": lambda j: j._reciprocal(),
        "pow -1.5": lambda j: j ** -1.5,
        "pow 0.5": lambda j: j ** 0.5,
        "pow -2": lambda j: j ** -2,
        "log": jlog,
        "sqrt": jsqrt,
    }
    for name, op in ops.items():
        rows = op(batch)
        for b in range(B):
            rest_b = [c[b] for c in rest]
            want = _coeff_bytes(rows[b])
            for value in (np.asarray(vals[b]), np.float64(vals[b])):
                assert _coeff_bytes(op(Jet(n, order, [value, *rest_b]))) == want, (name, b)


# (jet_einsum spec with the batch axis z, component shapes of a and b,
# whether ``*`` broadcasts them); no spec sums a component axis, so each
# output entry is one Leibniz sum whatever the batch holds
_PRODUCT_CASES = [
    ("z,z->z", (), (), True),
    ("zi,zi->zi", (2,), (2,), True),
    ("zi,zi->zi", (1,), (3,), True),
    ("zi,zj->zij", (2,), (3,), False),
    ("z,zi->zi", (), (3,), False),
]


@st.composite
def _batched_factors(draw):
    """A product case and its two jets over a batch of 2-5 points, up to
    order 3, some coefficient blocks all +0.0 or all -0.0 at some points
    and the rest holding -0.0 entries among their values."""
    case = draw(st.sampled_from(_PRODUCT_CASES))
    B, nvars = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jets = []
    for comp in case[1:3]:
        order = draw(st.integers(0, 3))
        coeffs = []
        for k in range(order + 1):
            c = rng.choice([0.0, -0.0, 1.0, -1.5, 0.25], size=(B,) + comp + (nvars,) * k)
            c = np.where(rng.random(c.shape) < 0.5, c, rng.normal(size=c.shape))
            blocks = draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                   min_size=B, max_size=B))
            for b, fill in enumerate(blocks):
                if fill is not None:
                    c[b] = fill
            coeffs.append(c)
        jets.append(Jet(nvars, order, coeffs))
    return case, jets


def _point_of(jet, b):
    return Jet(jet.nvars, jet.order, [c[b] for c in jet.coeffs])


@settings(max_examples=200, deadline=None)
@given(_batched_factors())
def test_batched_products_keep_each_points_bits(factors):
    # a product skips a coefficient that is all zero, which a point alone
    # may do and its batch not; the batch adds that term as +0.0, which
    # leaves the point's bits, since no product coefficient is ever -0.0
    (spec, _, _, broadcasts), (a, b) = factors
    alone = spec.replace("z", "")
    with point_batch():
        got = {"einsum": jet_einsum(spec, a, b)}
        if broadcasts:
            got["*"] = a * b
    for name, batched in got.items():
        for pt in range(len(a.value)):
            pa, pb = _point_of(a, pt), _point_of(b, pt)
            want = pa * pb if name == "*" else jet_einsum(alone, pa, pb)
            assert _coeff_bytes(_point_of(batched, pt)) == _coeff_bytes(want), (name, pt)
        for c in batched.coeffs:
            assert not (np.signbit(c) & (c == 0.0)).any(), name


# the plans the router of diff_engine._per_point runs in the property test:
# the drifting four and two of optic-sweep's connection and curvature plans
_ROUTED_PLANS = support.DRIFTING_PLANS + ("acdjb,jbw->acdw", "iamu,mubk->iabk")
# the operand layouts of a block: C-contiguous, a transposed view (as the
# Leibniz placements make), a zero-stride broadcast (as Frame.xs_jet's shared
# tables) and a sliced view (as Frame.dblock)
_LAYOUTS = ("contiguous", "transposed", "broadcast", "sliced")
# layouts the probe cannot rebuild, and a probe that raises: all run per point
_UNPROBED = ("negative stride", "zero-size axis", "probe raises")


def _laid_out(draw, rng, shape, kind):
    """An array of ``shape`` with values from ``rng``, in the layout ``kind``."""
    if kind == "transposed":
        perm = draw(st.permutations(range(len(shape))))
        full = rng.normal(size=[shape[i] for i in perm])
        return full.transpose(np.argsort(perm))
    if kind == "broadcast":
        axis = draw(st.integers(0, len(shape) - 1))
        one = rng.normal(size=shape[:axis] + (1,) + shape[axis + 1:])
        return np.broadcast_to(one, shape)
    if kind == "sliced":
        axis = draw(st.integers(0, len(shape) - 1))
        full = rng.normal(size=shape[:axis] + (2 * shape[axis] + 1,) + shape[axis + 1:])
        return full[(slice(None),) * axis + (slice(1, None, 2),)]
    if kind == "negative stride":
        axis = draw(st.integers(0, len(shape) - 1))
        return np.flip(rng.normal(size=shape), axis)
    return rng.normal(size=shape)


@st.composite
def _routed_operands(draw):
    """(a routed plan with its point letter, its two operands over a block
    of 2-40 points, one of them or both batched, the unprobed case or
    None), values with some +0.0 and -0.0 among them."""
    spec = draw(st.sampled_from(_ROUTED_PLANS))
    B = draw(st.integers(2, 40))
    unprobed = draw(st.sampled_from((None,) * 3 + _UNPROBED))
    sizes = {c: draw(st.integers(1, 3)) for c in sorted(set(spec) - set(",->"))}
    if unprobed == "zero-size axis":
        sizes[draw(st.sampled_from(sorted(sizes)))] = 0
    lead = draw(st.sampled_from(((True, True), (True, False), (False, True))))
    ins, outs = spec.split("->")
    terms = [POINT * b + t for t, b in zip(ins.split(","), lead)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [draw(st.sampled_from(_LAYOUTS)) for _ in terms]
    if unprobed == "negative stride":
        kinds[draw(st.integers(0, 1))] = unprobed
    ops = []
    for term, kind in zip(terms, kinds):
        shape = tuple(B if c == POINT else sizes[c] for c in term)
        op = _laid_out(draw, rng, shape, kind)
        zeros = rng.random(op.shape) < 0.1
        if op.flags.writeable and zeros.any():
            op[zeros] = rng.choice((0.0, -0.0), int(zeros.sum()))
        ops.append(op)
    return f"{','.join(terms)}->{POINT}{outs}", ops, unprobed


@settings(max_examples=200, deadline=None)
@given(_routed_operands())
def test_routed_einsums_keep_each_points_bits(case):
    # whichever way its layout routes it, a contraction over two or more
    # letters gives each point the bytes of that point's own einsum, the
    # reference loop kept here; a layout the probe cannot rebuild, or whose
    # probe raises, runs per point, and no probe draws from numpy's global
    # generator
    subs, ops, unprobed = case
    one, lead = diff_engine._unpointed(subs)
    B = len(ops[lead.index(True)])
    want = [np.einsum(one, *(op[i] if b else op for op, b in zip(ops, lead)))
            for i in range(B)]
    layout = tuple((op.dtype, op.shape, op.strides) for op in ops)
    keeps = diff_engine._batch_keeps_bits
    keeps.cache_clear()  # each example probes its own layout
    state = np.random.get_state()
    if unprobed == "probe raises":
        with mock.patch.object(diff_engine, "_probe_operand", side_effect=MemoryError):
            got = diff_engine._per_point(subs, *ops)
    else:
        got = diff_engine._per_point(subs, *ops)
    after = np.random.get_state()
    assert after[0] == state[0] and after[2:] == state[2:]
    assert np.array_equal(after[1], state[1])
    assert got.shape == (B,) + want[0].shape
    for i in range(B):
        assert got[i].tobytes() == want[i].tobytes(), (subs, i)
    if unprobed is not None:
        assert keeps.cache_info().currsize == 1 and not keeps(subs, layout), unprobed
    keeps.cache_clear()


def test_router_batches_by_layout():
    # optic-sweep's connection plan keeps each point's bits in one einsum
    # over a block of 33; the conservation law's trace does not at
    # mixed33-deep's shapes, and runs point by point
    keeps = diff_engine._batch_keeps_bits

    def contiguous(*shapes):
        return tuple((np.dtype(float), s, np.zeros(s).strides) for s in shapes)

    assert keeps("Zacdjb,Zjbw->Zacdw", contiguous((33, 2, 2, 2, 2, 2), (33, 2, 2, 2)))
    assert not keeps("Zmuil,Zlmu->Zi", contiguous((4, 3, 3, 3, 3), (4, 3, 3, 3)))


# reference derivative tables, one loop per rule: the reciprocal's, the
# real power's (sqrt's is the same loop at e = 0.5) and log's from its
# first derivative on
def _reciprocal_table(c, order):
    _pow = diff_engine._pow
    return [((-1.0) ** m) * math.factorial(m) * _pow(c, -(m + 1))
            for m in range(order + 1)]


def _real_power_table(c, e, order):
    derivs = []
    for m in range(order + 1):
        fac = 1.0
        for r in range(m):
            fac *= e - r
        derivs.append(fac * diff_engine._pow(c, e - m))
    return derivs


def _log_tail(c, order):
    _pow = diff_engine._pow
    return [((-1.0) ** (m - 1)) * math.factorial(m - 1) * _pow(c, -m)
            for m in range(1, order + 1)]


def _hexed_table(derivs):
    return [[float(v).hex() for v in np.ravel(d)] for d in derivs]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
       st.sampled_from([-1.0, 0.5, -0.5, 1.5]), st.integers(0, 3))
def test_power_derivs_keep_each_rules_bits(values, e, order):
    c = np.array(values)
    got = _hexed_table(diff_engine._power_derivs(c, e, order))
    assert got == _hexed_table(_real_power_table(c, e, order))
    if e == -1.0:
        assert got == _hexed_table(_reciprocal_table(c, order))
    tail = diff_engine._power_derivs(c, -1.0, order - 1)
    assert _hexed_table(tail) == _hexed_table(_log_tail(c, order))
