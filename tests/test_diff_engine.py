"""Taylor-jet arithmetic against exact sympy derivatives, plus the FD path."""
import itertools

import numpy as np
import pytest
import sympy as sp

from jetlag import diff_engine
from jetlag.diff_engine import (
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
    seed_point,
)
from jetlag.errors import OrderExceededError, SingularMetricError
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
        coords = [("t", a) for a in range(2)] + [("x", i) for i in range(2)]
        coords += [("xs", i, a) for i in range(2) for a in range(2)]
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
    monkeypatch.setattr(diff_engine, "fd_partial", eval_derivs)
    assert check_grad(f, pts).max_rel_dev == 0.0


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
