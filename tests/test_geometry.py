"""Connection, torsion, curvature and metric pipeline against hand values
and finite-difference oracles."""
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetlag import geometry
from jetlag.diff_engine import JetPoint, PyField
from jetlag.field_expr import ExprField
from jetlag.geometry import (
    ChristoffelOfPhi,
    DirectMetric,
    FromLagrangian,
    GeometryContext,
    QuadraticCanonical,
    UserGiven,
    cartan_connection,
    curvature_antisymmetry_residuals,
    curvature_set,
    frame,
    kronecker_regularity_check,
    metricity_residuals,
    nlc_torsion_free_check,
    ricci_and_scalars,
    sample_points,
    spatial_nlc,
    temporal_christoffel_and_M,
    torsion_set,
)
from jetlag.errors import RegularityViolationError
from jetlag.tensor_core import S_DN, T_DN, V_UP

import support
from oracles import fd_christoffel, fd_riemann

E = ExprField


# --------------------------------------------------------------------------
# hand-checked baselines
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def diag_t_ctx():
    """h = diag(1, t1^2), n = 1: the classic warped clock example."""
    dims = (2, 1)
    h = [
        [E("1", dims, ("t",)), E("0", dims, ("t",))],
        [E("0", dims, ("t",)), E("t[1]^2", dims, ("t",))],
    ]
    g = [[E("1", dims, ())]]
    ctx = GeometryContext(
        2, 1, h, DirectMetric(np.array(g, dtype=object)), QuadraticCanonical()
    )
    return ctx, JetPoint.of([2.0, 0.7], [0.3], [[1.0, 3.0]])


@pytest.fixture(scope="module")
def diag_x_ctx():
    """g = diag(1, x1^2), p = 1: polar-style spatial warp."""
    dims = (1, 2)
    h = [[E("1", dims, ("t",))]]
    g = [
        [E("1", dims, ("x",)), E("0", dims, ("x",))],
        [E("0", dims, ("x",)), E("x[1]^2", dims, ("x",))],
    ]
    ctx = GeometryContext(
        1, 2, h, DirectMetric(np.array(g, dtype=object)), QuadraticCanonical()
    )
    return ctx, JetPoint.of([0.4], [3.0, -0.2], [[0.5], [2.0]])


def test_temporal_christoffel_hand_values(diag_t_ctx):
    ctx, pt = diag_t_ctx
    Htc, M = temporal_christoffel_and_M(ctx, pt)
    # nonzero symbols of diag(1, t1^2) at t1 = 2: H^2_21 = H^2_12 = 1/(2 t1),
    # H^1_22 = -t1 (after raising with h^11 = 1)
    assert Htc[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert Htc[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert Htc[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    # M^(i)_(a)b = -H^g_ab xs^i_g
    assert M[0, 1, 0] == pytest.approx(-1.5, abs=1e-12)


def test_adapted_derivative_uses_nlc(diag_t_ctx):
    ctx, pt = diag_t_ctx
    f = PyField(lambda spt: spt.xs[0][1], deps=("xs",), name="xs12")
    fr = frame(ctx, pt, 1)
    val = float(fr.delta_t(fr.eval_scalar(f)).value[0, 0])
    # delta/delta t^1 of xs^1_2 is -M^(1)_(2)1 = 1.5
    assert val == pytest.approx(1.5, abs=1e-12)


def test_spatial_christoffel_hand_values(diag_x_ctx):
    ctx, pt = diag_x_ctx
    Gamma = frame(ctx, pt, 1).gamma_g_jet.value[0]
    assert Gamma[1, 1, 0] == pytest.approx(1 / 3, abs=1e-12)
    assert Gamma[0, 1, 1] == pytest.approx(-3.0, abs=1e-12)
    Nv = spatial_nlc(ctx, pt)
    # N^(i)_(a)j = gamma^i_{jm} xs^m_a
    assert Nv[1, 0, 0] == pytest.approx(2 / 3, abs=1e-12)


def test_metricity_hand_fixtures(diag_t_ctx, diag_x_ctx):
    for ctx, pt in (diag_t_ctx, diag_x_ctx):
        res = metricity_residuals(ctx, pt)
        assert max(res.values()) < 1e-10


def test_energy_value(diag_x_ctx):
    ctx, pt = diag_x_ctx
    want = 1 * 1 * 0.5 ** 2 + (3.0 ** 2) * 2.0 ** 2
    fr = frame(ctx, pt, 0)
    energy = np.einsum("mn,ab,am,bn->", fr.inverse("h", 0).value[0], fr.g_jet.value[0],
                       fr.xs_jet.value[0], fr.xs_jet.value[0])
    assert float(energy) == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------------------
# finite-difference oracles on the curved temporal metric
# --------------------------------------------------------------------------


def test_temporal_christoffel_fd_oracle(ctx_curved_h):
    pt = JetPoint.of([0.6, -0.8], [0.2, 0.4], [[0.3, -0.5], [0.7, 0.1]])
    Htc, _ = temporal_christoffel_and_M(ctx_curved_h, pt)
    oracle = fd_christoffel(support.h22_at, pt.t.copy())
    assert np.max(np.abs(Htc - oracle)) < 1e-8


def test_temporal_curvature_fd_oracle(ctx_curved_h):
    pt = JetPoint.of([0.6, -0.8], [0.2, 0.4], [[0.3, -0.5], [0.7, 0.1]])
    cur = curvature_set(ctx_curved_h, pt)
    oracle = fd_riemann(support.h22_at, pt.t.copy())
    assert np.max(np.abs(cur.H - oracle)) < 1e-6


# --------------------------------------------------------------------------
# the direction-dependent space: metric compatibility and identities
# --------------------------------------------------------------------------


def test_metricity_mixed(ctx_mixed22, pt_mixed22):
    res = metricity_residuals(ctx_mixed22, pt_mixed22)
    assert set(res) == {
        "g_spatial",
        "g_vertical",
        "g_temporal",
        "h_temporal",
        "h_spatial",
        "h_vertical",
    }
    assert max(res.values()) < 1e-10


def test_metricity_quadratic_canonical(ctx_tdep22, pt_tdep22):
    assert max(metricity_residuals(ctx_tdep22, pt_tdep22).values()) < 1e-10


def test_curvature_antisymmetries(ctx_mixed22, pt_mixed22, ctx_tdep22, pt_tdep22):
    for ctx, pt in ((ctx_mixed22, pt_mixed22), (ctx_tdep22, pt_tdep22)):
        res = curvature_antisymmetry_residuals(ctx, pt)
        assert len(res) == 7
        assert max(res.values()) < 1e-10


def test_connection_symmetries(ctx_mixed22, pt_mixed22):
    cc = cartan_connection(ctx_mixed22, pt_mixed22)
    assert np.max(np.abs(cc.Lc - cc.Lc.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(cc.Cc - cc.Cc.transpose(0, 2, 1, 3))) < 1e-12
    assert np.max(np.abs(cc.Htc - cc.Htc.transpose(0, 2, 1))) < 1e-12


def test_torsion_blocks(ctx_mixed22, pt_mixed22):
    cc = cartan_connection(ctx_mixed22, pt_mixed22)
    ts = torsion_set(ctx_mixed22, pt_mixed22)
    assert np.max(np.abs(ts.T + cc.Gc.transpose(0, 2, 1))) < 1e-15
    assert np.max(np.abs(ts.P1 - cc.Cc)) < 1e-15
    # torsion-free nonlinear connection makes P3 symmetric in its spatial pair
    assert np.max(np.abs(ts.P3 - ts.P3.transpose(0, 1, 3, 2, 4))) < 1e-10


def test_direction_independent_reductions(ctx_tdep22, pt_tdep22):
    cc = cartan_connection(ctx_tdep22, pt_tdep22)
    assert np.max(np.abs(cc.Cc)) < 1e-15
    cur = curvature_set(ctx_tdep22, pt_tdep22)
    assert np.max(np.abs(cur.S)) < 1e-15


# --------------------------------------------------------------------------
# torsion-free verdicts
# --------------------------------------------------------------------------


def test_canonical_connections_torsion_free(ctx_mixed22, pt_mixed22, ctx_curved_h):
    assert nlc_torsion_free_check(ctx_mixed22, [pt_mixed22]).max_violation <= 1e-9
    pt = JetPoint.of([0.6, -0.8], [0.2, 0.4], [[0.3, -0.5], [0.7, 0.1]])
    assert nlc_torsion_free_check(ctx_curved_h, [pt]).max_violation <= 1e-9


def crafted_torsional_ctx():
    """User-supplied N with an asymmetric fibre dependence."""
    dims = (1, 2)
    nu = np.empty((2, 1, 2), dtype=object)
    for idx in np.ndindex(2, 1, 2):
        nu[idx] = E("0", dims, ())
    nu[0, 0, 0] = E("xs[2][1]*x[1]", dims, ("x", "xs"))
    h = [[E("1", dims, ("t",))]]
    g = [
        [E("1", dims, ()), E("0", dims, ())],
        [E("0", dims, ()), E("1", dims, ())],
    ]
    return GeometryContext(
        1, 2, h, DirectMetric(np.array(g, dtype=object)), UserGiven(nu)
    )


def test_crafted_nlc_has_torsion():
    ctx = crafted_torsional_ctx()
    pt = JetPoint.of([0.1], [0.8, -0.6], [[0.9], [0.2]])
    verdict = nlc_torsion_free_check(ctx, [pt])
    assert verdict.max_violation > 0.1
    assert verdict.witness is not None


# --------------------------------------------------------------------------
# covariant derivatives of evaluated fields through the frame
# --------------------------------------------------------------------------


def test_metric_covariant_derivatives_vanish(ctx_mixed22, pt_mixed22):
    fr = frame(ctx_mixed22, pt_mixed22, 1)
    g = fr.eval_grid(ctx_mixed22.g_source.entries)
    for kind, cov in (("temporal", fr.cov_t), ("spatial", fr.cov_s),
                      ("vertical", fr.cov_v)):
        D = cov(g, (S_DN, S_DN))
        assert np.max(np.abs(D.value)) < 1e-10, kind


def liouville_field(p, n):
    comps = np.empty((n, p), dtype=object)
    for i in range(n):
        for a in range(p):
            comps[i, a] = PyField(
                lambda spt, i=i, a=a: spt.xs[i][a], deps=("xs",), name=f"xs{i}{a}"
            )
    return comps


def test_liouville_closed_forms(ctx_mixed22, pt_mixed22):
    fr = frame(ctx_mixed22, pt_mixed22, 1)
    lio = fr.eval_grid(liouville_field(2, 2))
    xs = pt_mixed22.xs

    D = fr.cov_t(lio, (V_UP,))
    want = np.einsum("imb,ma->iab", fr.Gc_jet.value[0], xs)
    assert np.max(np.abs(D.value[0] - want)) < 1e-12

    D = fr.cov_s(lio, (V_UP,))
    want = -fr.N_jet.value[0] + np.einsum("imk,ma->iak", fr.Lc_jet.value[0], xs)
    assert np.max(np.abs(D.value[0] - want)) < 1e-12

    D = fr.cov_v(lio, (V_UP,))
    want = np.einsum("ij,ab->iajb", np.eye(2), np.eye(2)) + np.einsum(
        "ijmb,ma->iajb", fr.Cc_jet.value[0], xs
    )
    assert np.max(np.abs(D.value[0] - want)) < 1e-12


# --------------------------------------------------------------------------
# Lagrangian-derived vertical metrics and regularity
# --------------------------------------------------------------------------


def _lagrangian_ctx():
    dims = (2, 2)
    h = support.grid(support.ident_src(2), dims, ("t",))
    g_src = support.G_XDEP_SRC
    terms = []
    for a in range(2):
        for i in range(2):
            for j in range(2):
                terms.append(
                    f"({g_src[i][j]})*xs[{i + 1}][{a + 1}]*xs[{j + 1}][{a + 1}]"
                )
    # linear and zeroth-order terms must drop out of the fibre Hessian
    src = "+".join(terms) + "+0.5*xs[1][1]*x[2]+3*t[1]"
    L = E(src, dims, ("t", "x", "xs"))
    return GeometryContext(2, 2, h, FromLagrangian(L), QuadraticCanonical())


@pytest.fixture(scope="module")
def lagrangian_ctx():
    return _lagrangian_ctx()


def test_vertical_metric_from_lagrangian(lagrangian_ctx):
    pt = JetPoint.of([0.2, -0.1], [0.5, 0.3], [[0.4, -0.2], [0.1, 0.6]])
    fr = frame(lagrangian_ctx, pt, 0)
    # half-Hessian [i,mu,j,nu] as [mu,nu,i,j]
    Gvert = np.transpose(fr.vertical_half_hessian.value[0], (1, 3, 0, 2))
    gcan = fr.g_jet.value[0]
    g_want = np.array(
        [
            [1 + 0.3 * 0.3 ** 2, 0.1 * 0.5 * 0.3],
            [0.1 * 0.5 * 0.3, 2 + 0.2 * 0.5 ** 2],
        ]
    )
    assert np.max(np.abs(gcan - g_want)) < 1e-12
    assert np.max(np.abs(Gvert - np.einsum("mn,ij->mnij", np.eye(2), g_want))) < 1e-12
    assert max(metricity_residuals(lagrangian_ctx, pt).values()) < 1e-10


def test_quadratic_lagrangian_is_regular(lagrangian_ctx):
    pts = sample_points(lagrangian_ctx, 5, seed=11)
    verdict = kronecker_regularity_check(lagrangian_ctx, pts)
    assert verdict.max_deviation < 1e-9
    for pt, ghat in zip(pts, verdict.ghats):
        assert np.max(np.abs(ghat - frame(lagrangian_ctx, pt, 0).g_jet.value[0])) < 1e-9


def test_quartic_lagrangian_is_irregular():
    dims = (2, 1)
    h = support.grid(support.ident_src(2), dims, ("t",))
    g = [[E("1", dims, ())]]
    ctx = GeometryContext(
        2, 1, h, DirectMetric(np.array(g, dtype=object)), QuadraticCanonical()
    )
    quartic = E("xs[1][1]^4", dims, ("xs",))
    pts = [JetPoint.of([0.1, 0.2], [0.3], [[0.7, 0.4]])]
    verdict = kronecker_regularity_check(ctx, pts, lagrangian=quartic)
    assert verdict.witness is not None
    assert verdict.max_deviation > 0.1


# --------------------------------------------------------------------------
# Ricci assembly and refusals
# --------------------------------------------------------------------------


def test_ricci_loop_oracle(ctx_mixed22, pt_mixed22):
    ric, sc = ricci_and_scalars(ctx_mixed22, pt_mixed22)
    cur = curvature_set(ctx_mixed22, pt_mixed22)
    loop = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            loop[i, j] = sum(cur.R3[m, i, j, m] for m in range(2))
    assert np.max(np.abs(ric.R_mm - loop)) < 1e-14
    assert sc.total == pytest.approx(sc.H + sc.R + sc.S, abs=1e-15)


def test_generalized_christoffel_refused_on_fibre_dependence(
    ctx_mixed22, pt_mixed22
):
    with pytest.raises(RegularityViolationError):
        frame(ctx_mixed22, pt_mixed22, 1).gamma_g_jet


def test_sample_points_deterministic(ctx_mixed22):
    a = sample_points(ctx_mixed22, 4, seed=5)
    b = sample_points(ctx_mixed22, 4, seed=5)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.t, pb.t)
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.xs, pb.xs)


def test_signature_recorded_from_accepted_points_only():
    # g = diag(x1, 1) has signature (-1, 1) below x1 = 0; the cond_limit
    # rejects every draw with |x1| < 0.1, so every accepted point has
    # signature (1, 1).  The first draw (x1 < 0) is rejected and must not
    # fix the signature the accepted points are held to.
    from jetlag.spaces import build_space

    ctx = build_space("custom", {
        "h": [["1", "0"], ["0", "1"]],
        "g": [["x[1]", "0"], ["0", "1"]],
        "nlc": {"kind": "christoffel", "phi": [["1", "0"], ["0", "1"]]},
    })
    pts = sample_points(ctx, 3, 0, box_x=(-0.05, 1.0), cond_limit=10)
    assert len(pts) == 3
    assert all(pt.x[0] >= 0.1 for pt in pts)
    assert ctx._signature == ((1, 1), (1, 1))
    # an accepted point of another signature still raises, naming itself
    flip = JetPoint.of([0.1, 0.2], [-0.5, 0.4], [[0.5, 0.6], [0.7, 0.8]])
    with pytest.raises(RegularityViolationError, match="signature changed") as exc:
        frame(ctx, flip, 0).g_jet
    assert exc.value.witness is flip


OPTIC_PARAMS = {
    "h": [["1", "0"], ["0", "1 + t[1]^2"]],
    "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
    "n": "1 + 0.5/(1+x[1]^2)",
    "X": ["1", "1 - t[2]"],
}
OPTIC_POINT = JetPoint.of([0.1, 0.2], [0.3, -0.4], [[0.5, -0.2], [0.1, 0.3]])


def test_optic_metric_evaluates_refraction_index_once(monkeypatch):
    # every g entry holds n = 1 + 0.5/(1+x1^2) and 1/n, and its domain
    # guard evaluates n again: once per grid, that is two reciprocals
    from jetlag.diff_engine import Jet
    from jetlag.spaces import build_space

    calls = []
    reciprocal = Jet._reciprocal
    monkeypatch.setattr(Jet, "_reciprocal",
                        lambda self: calls.append(1) or reciprocal(self))
    ctx = build_space("optic", OPTIC_PARAMS)
    frame(ctx, OPTIC_POINT, 2).g_jet
    assert len(calls) == 2


def _seeded_points(obj):
    from jetlag.diff_engine import SeededPoint

    if isinstance(obj, SeededPoint):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [s for item in obj for s in _seeded_points(item)]
    return []


def test_cached_frames_keep_no_memo():
    from jetlag.spaces import build_space

    ctx = build_space("optic", OPTIC_PARAMS)
    for order in (0, 2):
        frame(ctx, OPTIC_POINT, order).g_jet
    assert len(ctx._frames) == 2
    for fr in ctx._frames.values():
        assert not _seeded_points(vars(fr))


def test_grid_keeps_signed_zeros(ctx_flat22):
    from jetlag.field_expr import Binary, Coord, Num
    from jetlag.geometry import Frame

    # 0.0*x1 and -0.0*x1 differ only in the sign of a zero literal
    x1 = Coord("x", 0, 0)
    grid = np.empty((2,), dtype=object)
    grid[0] = ExprField(Binary("*", Num(0.0), x1), (2, 2))
    grid[1] = ExprField(Binary("*", Num(-0.0), x1), (2, 2))
    val = Frame(ctx_flat22, OPTIC_POINT, 1).eval_grid(grid).value[0]
    assert [np.copysign(1.0, v) for v in val] == [1.0, -1.0]


# --------------------------------------------------------------------------
# a frame's order decides how much is computed, never a number
# --------------------------------------------------------------------------

PT22_B = JetPoint.of([-0.3, 0.4], [0.2, 0.5], [[-0.1, 0.4], [0.3, -0.2]])
PT33_B = JetPoint.of([-0.1, 0.3, 0.2], [0.1, -0.2, 0.3],
                     [[0.1, 0.2, -0.3], [-0.2, 0.1, 0.3], [0.3, -0.1, 0.1]])


def _blocks(fr) -> dict:
    """Every cached block of ``fr`` that it can compute, by name."""
    from functools import cached_property

    from jetlag.errors import OrderExceededError
    from jetlag.geometry import Frame

    out = {}
    for name, val in vars(Frame).items():
        if isinstance(val, cached_property):
            try:
                out[name] = getattr(fr, name)
            except (ValueError, RegularityViolationError, OrderExceededError):
                pass  # not defined on this space, or not at this order
    return out


def _order_keyed(fr, orders) -> dict:
    """The metric inverses and the S-torsion of ``fr``, asked for at each
    of ``orders`` in turn, by (name, order); a metric the space lacks is
    left out."""
    out = {}
    for k in orders:
        for which in ("h", "g", "phi"):
            try:
                out[which, k] = fr.inverse(which, k)
            except ValueError:
                pass  # no phi on this space
        if k < fr.order:  # the order of C, the S-torsion's factor
            out["tor_S", k] = fr.tor_S(k)
    return out


@pytest.mark.parametrize("space", ["optic", "mixed33", "lagrangian", "quadratic"])
def test_frame_of_any_order_is_the_order3_frame_truncated(request, space):
    from jetlag.spaces import build_space

    ctx, pts = {
        "optic": lambda: (build_space("optic", OPTIC_PARAMS),
                          [OPTIC_POINT, PT22_B]),
        "mixed33": lambda: (support.mixed33_ctx(),
                            [request.getfixturevalue("pt_mixed33"), PT33_B]),
        "lagrangian": lambda: (request.getfixturevalue("lagrangian_ctx"),
                               [OPTIC_POINT, PT22_B]),
        "quadratic": lambda: (support.tdep_g_ctx(), [OPTIC_POINT, PT22_B]),
    }[space]()
    for pt in pts:
        full = _blocks(frame(ctx, pt, 3))
        # highest order first, so that lower ones are served truncated
        full_keyed = _order_keyed(frame(ctx, pt, 3), (3, 2, 1, 0))
        for order in (0, 1, 2):
            blocks = _blocks(frame(ctx, pt, order))
            if order == 2:
                assert blocks.keys() == full.keys()
            for name, jet in blocks.items():
                want = full[name].truncated(jet.order)
                assert all(np.array_equal(a, b)
                           for a, b in zip(jet.coeffs, want.coeffs)), (order, name)
            # lowest order first, so that each higher one is built again
            keyed = _order_keyed(frame(ctx, pt, order), range(order + 1))
            assert keyed and keyed.keys() <= full_keyed.keys()
            for key, jet in keyed.items():
                want = full_keyed[key]
                assert jet.order == want.order == key[1], (order, key)
                assert all(np.array_equal(a, b)
                           for a, b in zip(jet.coeffs, want.coeffs)), (order, key)


# --------------------------------------------------------------------------
# a frame keeps its metrics one order below its own
# --------------------------------------------------------------------------

def _user_n_ctx():
    """A (2,2) space whose spatial nonlinear connection is user-given
    fields of t, x and xs, over a curved h and a t- and x-dependent g."""
    dims = (2, 2)
    src = "0.1*x[{j}]*xs[{i}][{a}] + 0.05*t[{a}]*x[{i}]"
    nu = np.array([[[E(src.format(i=i, a=a, j=j), dims, ("t", "x", "xs"))
                     for j in (1, 2)] for a in (1, 2)] for i in (1, 2)], dtype=object)
    g = support.grid(support.G_TDEP_SRC, dims, ("t", "x"))
    return GeometryContext(2, 2, support.grid(support.H22_SRC, dims, ("t",)),
                           DirectMetric(g), UserGiven(nu))


class _KeptAtTheFrameOrder(geometry.Frame):
    """The frame as it was before its metrics were kept one order lower:
    h, g and phi kept at the frame's own order, which every reader then
    reads truncated.  The reference for the connection blocks below."""

    def __init__(self, ctx, pts, order):
        super().__init__(ctx, pts, order)
        self.kept_order = order


CONNECTION_BLOCKS = ("Htc_jet", "M_jet", "gamma_phi_jet", "gamma_g_jet", "N_jet",
                     "Gc_jet", "Lc_jet", "Cc_jet")


def _same_bytes(a, b) -> bool:
    """Whether jets ``a`` and ``b`` have the same order and, coefficient by
    coefficient, the same shape, strides and bytes."""
    return a.order == b.order and all(
        x.shape == y.shape and x.strides == y.strides and x.tobytes() == y.tobytes()
        for x, y in zip(a.coeffs, b.coeffs, strict=True))


@pytest.mark.parametrize("space", ["optic", "mixed33", "lagrangian", "user-n"])
def test_kept_metrics_and_the_connection_keep_their_bytes(request, space):
    # at orders 0 to 3, each metric a frame keeps is the frame-order read
    # truncated, byte for byte, and every connection block has the bytes
    # and strides it has when the frame keeps its metrics at its own order
    from jetlag.errors import OrderExceededError
    from jetlag.spaces import build_space

    ctx, pt = {
        "optic": lambda: (build_space("optic", OPTIC_PARAMS), OPTIC_POINT),
        "mixed33": lambda: (support.mixed33_ctx(),
                            request.getfixturevalue("pt_mixed33")),
        "lagrangian": lambda: (request.getfixturevalue("lagrangian_ctx"), PT22_B),
        "user-n": lambda: (_user_n_ctx(), PT22_B),
    }[space]()
    metrics = ("h", "g", "phi") if isinstance(ctx.nlc, ChristoffelOfPhi) else ("h", "g")
    for order in range(4):
        fr = geometry.Frame(ctx, [pt], order)
        for which in metrics:
            kept, top = getattr(fr, f"{which}_jet"), fr.metric(which, order)
            assert kept.order == max(0, order - 1) and top.order == order, which
            assert _same_bytes(kept, top.truncated(kept.order)), (order, which)
        ref = _KeptAtTheFrameOrder(ctx, [pt], order)
        for name in CONNECTION_BLOCKS:
            try:
                want = getattr(ref, name)
            except (ValueError, RegularityViolationError, OrderExceededError) as exc:
                with pytest.raises(type(exc)):
                    getattr(fr, name)
                continue
            assert _same_bytes(getattr(fr, name), want), (order, name)


# --------------------------------------------------------------------------
# each product is built only to the order its result keeps
# --------------------------------------------------------------------------

def _record_orders(monkeypatch, name="jet_einsum") -> list:
    """The output order of every call of ``diff_engine.<name>``
    (``jet_einsum`` or ``jet_matrix_inverse``) that ``geometry`` and
    ``gravity`` make from now on, appended to the returned list."""
    from jetlag import diff_engine, geometry, gravity

    fn = getattr(diff_engine, name)
    seen = []

    def recording(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append(out.order)
        return out

    for mod in (geometry, gravity):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, recording)
    return seen


def test_no_product_outranks_the_block_it_feeds(monkeypatch, pt_mixed33):
    # Taylor coefficient k of a product reads only its operands' coefficients
    # up to k, so building a product past the order of the sum it feeds is
    # work that a truncation then throws away
    from functools import cached_property

    from jetlag.geometry import Frame
    from jetlag.gravity import _tilde_einstein_jets
    from jetlag.tensor_core import S_UP, T_DN, T_UP

    fr = Frame(support.mixed33_ctx(), pt_mixed33, 3)
    for name in ("Htc_jet", "M_jet", "N_jet", "Gc_jet", "Lc_jet", "Cc_jet"):
        getattr(fr, name)
    names = [nm for nm, val in vars(Frame).items()
             if isinstance(val, cached_property)]
    for name in names:
        if name.startswith("tor_"):
            getattr(fr, name)
    seen = _record_orders(monkeypatch)
    for name in names:
        if name.startswith("cur_"):
            seen.clear()
            block = getattr(fr, name)
            assert block.order == 1, name
            assert max(seen) <= block.order, (name, seen)
    for cov, slots in ((fr.cov_s, (S_UP, S_DN)), (fr.cov_t, (T_UP, T_DN)),
                       (fr.cov_v, (S_UP, S_DN))):
        A = fr.cur_R3_jet[:, :, 0, 0]  # an order-1 block
        seen.clear()
        out = cov(A, slots)
        assert out.order == 0, cov.__name__
        assert max(seen) == 0, (cov.__name__, seen)
    for name in names:
        if name.startswith(("ricci_", "scalar_")):
            getattr(fr, name)
    seen.clear()
    tilde = _tilde_einstein_jets(fr)
    assert max(seen) <= max(jet.order for jet in tilde) == 1, seen


def test_no_inverse_or_spread_torsion_outranks_its_readers(monkeypatch, pt_mixed33):
    # every Christoffel form reads its metric's inverse one order below the
    # metric, and the S-torsion is read only where a product is cut to the
    # order of a residual, so neither is built past what its readers keep
    from jetlag.cli import _RUNNERS
    from jetlag.spaces import build_space

    inverses = _record_orders(monkeypatch, "jet_matrix_inverse")
    ctx = support.mixed33_ctx()
    _RUNNERS["conservation"](ctx, [pt_mixed33])
    _RUNNERS["natural-form"](ctx, [pt_mixed33])
    fr = frame(ctx, pt_mixed33, 3)
    assert inverses and max(inverses) <= 2, inverses
    assert fr._built["tor_S"].order == 0

    # on an order-2 frame only the lowered Liouville field reads h^-1 at
    # the frame's order; h is inverted once, to that order, though the
    # temporal Christoffel form asks for it first, one order lower
    ctx = build_space("optic", OPTIC_PARAMS)
    inverses.clear()
    _RUNNERS["curvature"](ctx, [OPTIC_POINT])
    _RUNNERS["maxwell"](ctx, [OPTIC_POINT])
    built = frame(ctx, OPTIC_POINT, 2)._built
    assert (built["g"].order, built["phi"].order, built["h"].order) == (1, 1, 2)
    assert sorted(inverses) == [1, 1, 2], inverses


# --------------------------------------------------------------------------
# a field grid runs once over a block's points, bit for bit per point
# --------------------------------------------------------------------------

def _random_points(ctx, count, seed) -> list:
    rng = np.random.default_rng(seed)
    return [JetPoint.of(rng.uniform(-0.5, 0.5, ctx.p), rng.uniform(-0.5, 0.5, ctx.n),
                        rng.uniform(-0.5, 0.5, (ctx.n, ctx.p)))
            for _ in range(count)]


def _field_jets(ctx, pts, order) -> list:
    """Per point of ``pts`` (a point or a block), the bytes of every field
    grid of ``ctx`` that a frame of ``order`` evaluates there, by name."""
    from jetlag.geometry import Frame

    fr = Frame(ctx, pts, order)
    jets = {"h": fr.eval_grid(ctx.h)}
    src = ctx.g_source
    if isinstance(src, DirectMetric):
        jets["g"] = fr.eval_grid(src.entries)
    else:
        jets["L"] = fr.eval_scalar(src.L)
    if isinstance(ctx.nlc, ChristoffelOfPhi):
        jets["phi"] = fr.eval_grid(ctx.nlc.phi)
    return [{name: [c[b].tobytes() for c in jet.coeffs] for name, jet in jets.items()}
            for b in range(len(fr.pts))]


def _frame_fields(ctx) -> list:
    """The fields of every field grid that :func:`_field_jets` evaluates,
    in the order a frame passes them to its compiled grid."""
    src = ctx.g_source
    out = [list(ctx.h.flat),
           list(src.entries.flat) if isinstance(src, DirectMetric) else [src.L]]
    if isinstance(ctx.nlc, ChristoffelOfPhi):
        out.append(list(ctx.nlc.phi.flat))
    return out


SPACES = ("optic", "mixed33", "lagrangian", "quadratic")


def _space(name) -> GeometryContext:
    from jetlag.spaces import build_space

    return {
        "optic": lambda: build_space("optic", OPTIC_PARAMS),
        "mixed33": support.mixed33_ctx,
        "lagrangian": _lagrangian_ctx,
        "quadratic": support.tdep_g_ctx,
    }[name]()


@pytest.mark.parametrize("space", SPACES)
def test_registered_points_run_each_grid_once_bit_for_bit(monkeypatch, space):
    from jetlag.field_expr import FieldGrid

    calls = support.record_grid_calls(monkeypatch)
    ctx = _space(space)
    pts = _random_points(ctx, 5, 17)
    for order in range(4):
        calls.clear()
        got = _field_jets(ctx, pts, order)
        grids = {FieldGrid.of(fields) for fields in _frame_fields(ctx)}
        runs = [size for grid, k, size in calls if grid in grids]
        assert sorted(runs) == [len(pts)] * len(grids)
        assert got == [_field_jets(ctx, pt, order)[0] for pt in pts], order


def _every_block(fr) -> dict:
    """Every block the frame ``fr`` keeps once each of its cached
    properties that the space has is built, and the S-torsion at order 0:
    the cached properties, the metric inverses and S-torsion by key, and
    the frame-shared blocks in the order they were built.  A property the
    space does not have is named by the type of the error it raises."""
    from functools import cached_property

    from jetlag.geometry import Frame

    out = {}
    for name, attr in vars(Frame).items():
        if isinstance(attr, cached_property):
            try:
                out[name] = getattr(fr, name)
            except (ValueError, RegularityViolationError) as exc:
                out[name] = type(exc)
    fr.tor_S(0)
    out.update(fr._built)
    out.update(enumerate(fr._shared.values()))
    return out


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("space", SPACES)
def test_a_frame_of_one_point_is_a_block_of_one(space, order):
    # every block of a one-point frame keeps a point axis of size 1, and
    # holds the bytes of that point's row of a two-point frame
    from jetlag.diff_engine import Jet

    ctx = _space(space)
    pt, q = _random_points(ctx, 2, 29)
    one = _every_block(frame(ctx, [pt], order))
    two = _every_block(frame(ctx, [pt, q], order))
    ctx.forget_run()
    assert one.keys() == two.keys()
    for name, block in one.items():
        if not isinstance(block, Jet):
            assert block is two[name], name
            continue
        assert block.order == two[name].order, name
        for c, c2 in zip(block.coeffs, two[name].coeffs, strict=True):
            assert c.shape == (1,) + c2.shape[1:], name
            assert c.tobytes() == c2[0].tobytes(), name


def test_points_that_branch_apart_are_evaluated_alone(ctx_flat22, monkeypatch):
    # at t1 = 0 the first-order coefficient of t1^2 vanishes, so a product
    # with it skips a term there and not at the other points, which does
    # not branch: the batch adds that term as +0.0.  A constant jet
    # exponent takes the real-power rule, and a PyField may branch on its
    # point: such a block frame raises BatchDiverged, and its points are
    # framed one at a time.  Every point keeps its own bits, signed zeros
    # included.
    from jetlag.diff_engine import BatchDiverged, PyField
    from jetlag.geometry import Frame

    dims = (2, 2)
    grids = {
        "vanishing": [E("(1 - t[1]) * t[1]^2", dims), E("t[1]^3", dims)],
        "constant exponent": [E("(1 + x[1]^2)^(t[1] - t[1])", dims)],
        "varying exponent": [E("(5 + x[1]^2)^(7 + t[1])", dims)],
        "pyfield": [E("x[1]*x[2]", dims),
                    PyField(lambda spt: spt.x[0] * spt.x[1], ("x",))],
    }
    # the orders at which each grid runs as one batch: at order 0 every jet
    # exponent is constant
    batches_at = {"vanishing": {0, 1, 2, 3}, "constant exponent": set(),
                  "varying exponent": {1, 2, 3}, "pyfield": None}
    zero_t = JetPoint.of([0.0, 0.3], [0.2, -0.1], [[0.4, 0.1], [-0.3, 0.2]])
    pts = [zero_t] + _random_points(ctx_flat22, 4, 5)
    calls = support.record_grid_calls(monkeypatch)
    ctx = support.tdep_g_ctx()
    for name, fields in grids.items():
        for order in range(4):
            calls.clear()
            try:
                jet = Frame(ctx, pts, order)._eval_fields(fields, None)
                got = [jet[b] for b in range(len(pts))]
            except BatchDiverged:
                got = [Frame(ctx, pt, order)._eval_fields(fields, None) for pt in pts]
            sizes = [size for _, _, size in calls]
            alone = support.tdep_g_ctx()
            for pt, jet in zip(pts, got):
                want = Frame(alone, pt, order)._eval_fields(fields, None)
                assert ([c.tobytes() for c in jet.coeffs]
                        == [c.tobytes() for c in want.coeffs]), (name, order)
            # one batch where every point takes the same branches, else a
            # batch that gives up and then each point alone
            if batches_at[name] is None:  # never tried
                want = [0] * len(pts)
            elif order in batches_at[name]:
                want = [len(pts)]
            else:
                want = [len(pts)] + [0] * len(pts)
            assert sizes == want, (name, order)
    # d/dt1 of (1 - t1) t1^2 at t1 = 0 is (-1) * 0 plus a skipped term:
    # +0.0 alone and in the batch, as a product is never -0.0
    for fr in Frame(ctx, zero_t, 1), Frame(ctx, pts, 1):
        c = fr._eval_fields(grids["vanishing"], None).coeffs[1][..., 0, 0].flat[0]
        assert c == 0.0 and not np.signbit(c)


def test_a_grid_holding_a_python_field_runs_in_each_frame_block(monkeypatch):
    # a context holding a row block runs a grid of expression fields once
    # over all of its points, and each frame block takes its own rows; a
    # grid that holds a PyField, which may branch on its point, runs in
    # each frame block instead: a block of several points gives up
    # (BatchDiverged) and its points are framed alone.  Every point keeps
    # the bits it gets in a context holding no rows
    from jetlag.diff_engine import BatchDiverged
    from jetlag.geometry import Frame

    dims = (2, 2)
    grids = {"expression": ([E("x[1]*x[2]", dims), E("-exp(t[1])", dims)], [5]),
             "python": ([E("x[1]*x[2]", dims),
                         PyField(lambda spt: spt.x[0] * spt.x[1], ("x",))], [0] * 5)}
    ctx, alone = support.tdep_g_ctx(), support.tdep_g_ctx()
    pts = _random_points(ctx, 5, 11)
    ctx.hold_rows(pts)
    calls = support.record_grid_calls(monkeypatch)
    for name, (fields, want) in grids.items():
        for order in range(4):
            calls.clear()
            got = []
            for block in (pts[:1], pts[1:3], pts[3:]):
                try:
                    jet = Frame(ctx, block, order)._eval_fields(fields, None)
                    got += [jet[b] for b in range(len(block))]
                except BatchDiverged:
                    got += [Frame(ctx, pt, order)._eval_fields(fields, None)[0]
                            for pt in block]
            assert [size for _, _, size in calls] == want, (name, order)
            for pt, jet in zip(pts, got):
                ref = Frame(alone, pt, order)._eval_fields(fields, None)[0]
                assert ([c.tobytes() for c in jet.coeffs]
                        == [c.tobytes() for c in ref.coeffs]), (name, order)


def _log_domain_ctx():
    """g = diag(t1^16, sqrt(x2)): x2 < 0 leaves sqrt's domain, and a small
    t1 makes g ill-conditioned."""
    dims = (1, 2)
    h = [[E("1", dims, ("t",))]]
    g = [[E("t[1]^16", dims), E("0", dims)], [E("0", dims), E("sqrt(x[2])", dims)]]
    return GeometryContext(1, 2, h, DirectMetric(np.array(g, dtype=object)),
                           QuadraticCanonical())


def test_sampling_blocks_keep_draws_and_rejections(monkeypatch):
    # a block whose batch raises is tried one draw at a time, so a box that
    # rejects draws of both kinds gives the points and the error text of
    # sampling without batches (both taken that way)
    import hashlib

    from jetlag import geometry
    from jetlag.errors import ConfigError

    blocks = []
    metric_values = geometry._metric_values

    def recording(ctx, pts):
        if not isinstance(pts, JetPoint):
            blocks.append(len(pts))
        return metric_values(ctx, pts)

    monkeypatch.setattr(geometry, "_metric_values", recording)
    pts = sample_points(_log_domain_ctx(), 5, 4, box_t=(-0.4, 0.4), box_x=(-1.0, 1.0))
    assert hashlib.sha256(b"".join(p.key() for p in pts)).hexdigest() == (
        "47ed527317d7140d54708485ac266ef46f2207af8969987e001930948ecc9128")
    assert len(blocks) > 1 and blocks[0] == 5
    with pytest.raises(ConfigError) as exc:
        sample_points(_log_domain_ctx(), 3, 2, box_t=(-0.4, 0.4), box_x=(-1.0, 0.01))
    assert str(exc.value) == (
        "could not sample 3 admissible points in 1000 tries (1 found) from the "
        "boxes t (-0.4, 0.4), x (-1.0, 0.01), xs (-1.0, 1.0): 993 draws left a "
        "field's domain and 6 had a metric with condition number above 1e+08")


def test_a_step_on_no_points_raises_a_named_error():
    # a block of no points has no frame, so a step called on one stops
    # before any jet is built
    from jetlag.gravity import conservation_residuals

    ctx = support.mixed22_ctx()
    for step in (metricity_residuals, conservation_residuals):
        with pytest.raises(ValueError, match="a frame needs at least one point"):
            step(ctx, [])
    with pytest.raises(ValueError, match="a frame needs at least one point"):
        frame(ctx, [], 0)


# --------------------------------------------------------------------------
# block-wide value reads: a block frame's reads split into the bits each
# point's own frame gives, read there the way they were read point by point
# --------------------------------------------------------------------------

OPTIC_PARAMS = {
    "h": [["1", "0"], ["0", "1 + t[1]^2"]],
    "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
    "n": "1 + 0.5/(1+x[1]^2)",
    "X": ["1", "1 - t[2]"],
}


@pytest.fixture(scope="module")
def block_spaces():
    """{name: (context, sample points)} of the spaces the block reads run on."""
    from jetlag.spaces import build_space

    optic = build_space("optic", OPTIC_PARAMS)
    mixed33 = support.mixed33_ctx()
    return {"optic": (optic, sample_points(optic, 5, seed=7, box_xs=(-0.5, 0.5))),
            "mixed33": (mixed33, sample_points(mixed33, 3, seed=3,
                                               box_t=(-0.5, 0.5), box_x=(-0.5, 0.5),
                                               box_xs=(-0.5, 0.5)))}


def _bits(v):
    """``v`` with every float as its hex and every array as (shape, bytes)."""
    if is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in fields(v)}
    if isinstance(v, dict):
        return {k: _bits(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, np.ndarray):
        return v.shape, v.tobytes()
    return v


# the per-point reads as they were written before they read the block at
# once; each takes the frame of one point

def _ref_max_abs(fr, jet):
    return [float(np.max(np.abs(v))) for (v,) in fr.values(jet)]


def _ref_summaries(fr, pairs):
    per = [fr.values(res, *terms) for res, terms in pairs]
    out = []
    for v in per:
        residual, terms = v[0][0], v[0][1:]
        a = np.abs(residual)
        out.append((float(a.max()) if a.size else 0.0, float(a.sum()), a.size,
                    max((float(np.max(np.abs(t))) for t in terms), default=0.0)))
    return out


def _ref_direction_independent(fr):
    return [float(np.max(np.abs(dg))) <= 1e-10 * max(1.0, float(np.max(np.abs(g))))
            for g, dg in fr.values(fr.g_jet, fr.ddxs(fr.g_jet))]


def _ref_metricity(fr):
    g, g_slots = fr.g_jet.truncated(1), (S_DN, S_DN)
    h, h_slots = fr.h_jet.truncated(1), (T_DN, T_DN)
    names = ("g_spatial", "g_vertical", "h_temporal", "h_spatial",
             "h_vertical", "g_temporal")
    blocks = (fr.cov_s(g, g_slots), fr.cov_v(g, g_slots), fr.cov_t(h, h_slots),
              fr.cov_s(h, h_slots), fr.cov_v(h, h_slots), fr.cov_t(g, g_slots))
    return [{nm: float(np.max(np.abs(v))) for nm, v in zip(names, vals)}
            for vals in fr.values(*blocks)]


def _ref_antisymmetry(fr):
    def anti(lowered, perm):
        return float(np.max(np.abs(lowered + np.transpose(lowered, perm))))

    out = []
    for h, g, H, R1, R2, R3, P1, P2, S in fr.values(
            fr.h_jet, fr.g_jet, fr.cur_H_jet, fr.cur_R1_jet, fr.cur_R2_jet,
            fr.cur_R3_jet, fr.cur_P1_jet, fr.cur_P2_jet, fr.cur_S_jet):
        out.append({
            "H_tt": anti(np.einsum("bm,magd->abgd", h, H), (1, 0, 2, 3)),
            "R_tt": anti(np.einsum("jm,mibg->ijbg", g, R1), (1, 0, 2, 3)),
            "R_tm": anti(np.einsum("jm,mibk->ijbk", g, R2), (1, 0, 2, 3)),
            "R_mm": anti(np.einsum("jm,mikl->ijkl", g, R3), (1, 0, 2, 3)),
            "P_vt": anti(np.einsum("jm,mibkg->ijbkg", g, P1), (1, 0, 2, 3, 4)),
            "P_vm": anti(np.einsum("jm,mikld->ijkld", g, P2), (1, 0, 2, 3, 4)),
            "S_vv": anti(np.einsum("jm,mikgld->ijkgld", g, S), (1, 0, 2, 3, 4, 5)),
        })
    return out


def _ref_torsion_probe(fr):
    out = []
    for (dN,) in fr.values(fr.ddxs(fr.N_jet)):
        viol = np.abs(dN - np.transpose(dN, (0, 1, 3, 2, 4)))
        idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
        out.append((float(np.max(viol)), tuple(int(v) for v in idx)))
    return out


def _ref_einstein(fr):
    out = []
    for h, g, sH, sR, sS, rH, rR, rS, rRmt, rP3, rP1, rP2, h_inv in fr.values(
            fr.h_jet, fr.g_jet, fr.scalar_H_jet, fr.scalar_R_jet, fr.scalar_S_jet,
            fr.ricci_H_jet, fr.ricci_Rmm_jet, fr.ricci_S_jet, fr.ricci_Rmt_jet,
            fr.ricci_P3_jet, fr.ricci_P1_jet, fr.ricci_P2_jet, fr.inverse("h", 0)):
        sc = float(sH + sR + sS)
        out.append(dict(
            tt=rH - 0.5 * sc * h, ss=rR - 0.5 * sc * g,
            vv=rS - 0.5 * sc * np.einsum("ab,ij->iajb", h_inv, g),
            st=rRmt.copy(), vt=rP3.copy(), sv=rP1.copy(), vs=rP2.copy(),
            zero_ts=np.zeros((fr.p, fr.n)), zero_tv=np.zeros((fr.p, fr.n, fr.p))))
    return out


def _row(record, k):
    """Row ``k`` of a block's ``record``: the entry at point k of each of
    its columns (lists and arrays), kept in its maps, tuples and
    dataclasses (a dataclass as a map)."""
    if is_dataclass(record):
        record = {f.name: getattr(record, f.name) for f in fields(record)}
    if isinstance(record, dict):
        return {nm: _row(v, k) for nm, v in record.items()}
    if isinstance(record, tuple):
        return tuple(_row(v, k) for v in record)
    if isinstance(record, (list, np.ndarray)):
        return record[k]
    return record


def _rows(record, count):
    return [_row(record, k) for k in range(count)]


def _reads(ctx, pts, one):
    """Every block-wide read of the frames of ``pts``, per point; the
    reference loops instead when ``one`` (``pts`` is then one point).
    The fold checks' steps that have no reference loop give the rows of
    their record over ``pts`` either way."""
    from jetlag.em_field import (bianchi_residuals, deflection_identity_residuals,
                                 maxwell_at)
    from jetlag.geometry import kronecker_deviation_at, nlc_torsion_at
    from jetlag.gravity import (_laws_at, conservation_residuals, einstein_blocks,
                                natural_form_checks)

    fr = frame(ctx, pts, 2)
    jets = (fr.g_jet, fr.tor_P2_jet, fr.cur_S_jet, fr.scalar_R_jet)
    if one:
        reads = dict(
            max_abs=[_ref_max_abs(fr, j) for j in jets],
            direction_independent=_ref_direction_independent(fr),
            metricity=_ref_metricity(fr),
            antisymmetry=_ref_antisymmetry(fr),
            torsion=_ref_torsion_probe(fr),
            einstein=_ref_einstein(fr))
    else:
        B = len(pts)
        reads = dict(
            max_abs=[fr.max_abs(j) for j in jets],
            direction_independent=fr.direction_independent(),
            metricity=_rows(metricity_residuals(ctx, pts), B),
            antisymmetry=_rows(curvature_antisymmetry_residuals(ctx, pts), B),
            torsion=_rows(nlc_torsion_at(ctx, pts), B),
            einstein=[{k: v for k, v in row.items() if k != "note"}
                      for row in _rows(einstein_blocks(ctx, pts), B)])
    steps = dict(
        maxwell=maxwell_at,
        curvature=lambda ctx, pts: {**deflection_identity_residuals(ctx, pts),
                                    **bianchi_residuals(ctx, pts)},
        regularity=kronecker_deviation_at,
        conservation=conservation_residuals)
    if ctx.p > 2 and ctx.n > 2:
        steps["natural_form"] = natural_form_checks
    for name, step in steps.items():
        reads[name] = _rows(step(ctx, pts), len(pts))
    fr = frame(ctx, pts, 3)
    laws = _laws_at(fr)
    reads["summaries"] = [_ref_summaries(fr, laws)] if one else [
        list(row) for row in zip(*fr.summaries(laws))]
    return reads


@pytest.mark.parametrize("space", ["optic", "mixed33"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_block_reads_have_each_points_bits(block_spaces, space, data):
    # a block cut out of the space's points, a block of one included (the
    # first, simplest draw), reads at each point what that point's own
    # frame reads, bit for bit, with the loops that read it point by point;
    # row k of each fold check's step record is point k's one-point record
    ctx, pts = block_spaces[space]
    start = data.draw(st.integers(0, len(pts) - 1), label="start")
    size = data.draw(st.integers(1, len(pts) - start), label="size")
    block = pts[start:start + size]
    try:
        got = _reads(ctx, block, one=False)
        for k, pt in enumerate(block):
            want = _reads(ctx, [pt], one=True)
            assert _bits([col[k] for col in got["max_abs"]]) == _bits(
                [col[0] for col in want["max_abs"]]), k
            if "natural_form" in got:
                # the construction is the block's first point's only
                construction = want["natural_form"][0].pop("construction")
                assert _bits(got["natural_form"][k].pop("construction")) == _bits(
                    construction if k == 0 else None), k
            for name in ("direction_independent", "metricity", "antisymmetry",
                         "torsion", "einstein", "maxwell", "summaries", "curvature",
                         "regularity", "conservation", "natural_form"):
                if name in got:
                    assert _bits(got[name][k]) == _bits(want[name][0]), (name, k)
    finally:
        ctx.forget_run()


def _leaves(record):
    """The columns (lists and arrays) of ``record``."""
    if is_dataclass(record):
        record = {f.name: getattr(record, f.name) for f in fields(record)}
    if isinstance(record, dict):
        record = tuple(record.values())
    if isinstance(record, tuple):
        return [col for v in record for col in _leaves(v)]
    return [record] if isinstance(record, (list, np.ndarray)) else []


def test_a_block_holds_each_points_error_apart_from_its_record():
    # h, g and phi are ill-conditioned at the middle point alone, so every
    # fold check's step raises on the block: the record keeps the rows of
    # points 0 and 2, each as that point gives it alone, and point 1 holds
    # its own error, named and without a traceback
    from jetlag import cli
    from jetlag.errors import SingularMetricError
    from jetlag.geometry import _block_records
    from jetlag.spaces import build_space

    def diag(first):
        return [[first, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    ctx = build_space("custom", {
        "h": diag("t[1]^2 + 1e-14"), "g": diag("x[1]^2 + 1e-14"),
        "nlc": {"kind": "christoffel", "phi": diag("x[1]^2 + 1e-14")}})
    xs = [[0.1, 0.2, 0.3], [0.2, 0.1, 0.3], [0.3, 0.1, 0.2]]
    pts = [JetPoint.of([v, 0.2, 0.3], [v, 0.2, 0.1], xs) for v in (0.5, 0.0, 0.7)]
    steps = [name for name, check in cli.CHECKS.items() if check.fold]
    assert len(steps) == 9
    try:
        for name in steps:
            step = cli._RUNNERS[name]
            record, held = _block_records(step, ctx, pts)
            assert list(held) == [1], name
            assert isinstance(held[1], SingularMetricError), name
            assert held[1].witness is pts[1] and held[1].__traceback__ is None, name
            assert {len(col) for col in _leaves(record)} == {2}, name
            for k, pt in enumerate((pts[0], pts[2])):
                assert _bits(_row(record, k)) == _bits(_row(step(ctx, [pt]), 0)), name
    finally:
        ctx.forget_run()


def _direct_g_ctx(g_src):
    dims = (2, 2)
    return GeometryContext(
        2, 2, support.grid(support.ident_src(2), dims, ("t",)),
        DirectMetric(support.grid(g_src, dims, ("x",))), QuadraticCanonical())


@pytest.mark.parametrize("g_src,first_x1,message", [
    ([["1", "x[1]"], ["0", "1"]], 0.0,
     "vertical metric g is not symmetric at this point"),
    ([["x[1]", "0"], ["0", "1"]], 0.5,
     "metric signature changed between sample points: "
     "recorded ((1, 1), (1, 1)), found ((1, 1), (-1, 1))"),
], ids=["asymmetric", "signature"])
def test_a_block_raises_at_its_first_failing_point(g_src, first_x1, message):
    # the second and third points of the block fail, where x[1] is not 0
    # for the asymmetric g and negative for g = diag(x[1], 1): the block's
    # one reduction raises at the second
    ctx = _direct_g_ctx(g_src)
    pts = [JetPoint.of([0.1, 0.2], [x1, 0.3], [[0.2, 0.1], [0.3, 0.4]])
           for x1 in (first_x1, -0.5, -0.7)]
    with pytest.raises(RegularityViolationError) as exc:
        frame(ctx, pts, 1).g_jet
    assert str(exc.value) == message
    assert exc.value.witness is pts[1]
