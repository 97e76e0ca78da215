"""Deflections, electromagnetic blocks and the field-equation residuals."""
import numpy as np
import pytest

from jetlag.diff_engine import JetPoint
from jetlag.em_field import (
    bianchi_residuals,
    deflection_identity_residuals,
    deflection_set,
    em_tensors,
    maxwell_residuals,
)
from jetlag.errors import (EvalDomainError, SingularMetricError,
                           TorsionPreconditionError)
from jetlag.geometry import frame, sample_points

from test_geometry import OPTIC_PARAMS, OPTIC_POINT, crafted_torsional_ctx


def _lower(fr, raw):
    return np.einsum("au,im,mu...->ia...", fr.inverse("h", 0).value[0],
                     fr.g_jet.value[0], raw)


def test_metrical_deflections_are_lowered_raw(ctx_mixed22, pt_mixed22):
    ds = deflection_set(ctx_mixed22, pt_mixed22)
    fr = frame(ctx_mixed22, pt_mixed22, 2)
    for raw, met in (
        (ds.raw_temporal, ds.met_temporal),
        (ds.raw_spatial, ds.met_spatial),
        (ds.raw_vertical, ds.met_vertical),
    ):
        assert np.max(np.abs(_lower(fr, raw) - met)) < 1e-12


CONFORMAL_PARAMS = {
    "h": [["1", "0"], ["0", "1 + t[1]^2"]],
    "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
    "variant": "iii",
    "X": ["1", "1 - t[2]"],
}


@pytest.mark.parametrize("space", ["mixed22", "optic", "conformal"])
def test_raw_deflections_match_their_closed_forms(ctx_mixed22, pt_mixed22, space):
    # the covariant rules against the expanded forms G.xs, -N + L.xs and
    # delta + C.xs, which no library path computes
    from jetlag.spaces import build_space

    ctx, pt = {
        "mixed22": (ctx_mixed22, pt_mixed22),
        "optic": (build_space("optic", OPTIC_PARAMS), OPTIC_POINT),
        "conformal": (build_space("conformal", CONFORMAL_PARAMS), OPTIC_POINT),
    }[space]
    ds = deflection_set(ctx, pt)
    fr = frame(ctx, pt, 2)
    xs = pt.xs
    n, p = xs.shape
    want = (
        np.einsum("imb,ma->iab", fr.Gc_jet.value[0], xs),
        -fr.N_jet.value[0] + np.einsum("imj,ma->iaj", fr.Lc_jet.value[0], xs),
        np.einsum("ij,ab->iajb", np.eye(n), np.eye(p))
        + np.einsum("ijmb,ma->iajb", fr.Cc_jet.value[0], xs),
    )
    got = (ds.raw_temporal, ds.raw_spatial, ds.raw_vertical)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-15


def test_lowered_liouville_components(ctx_mixed22, pt_mixed22):
    ds = deflection_set(ctx_mixed22, pt_mixed22)
    fr = frame(ctx_mixed22, pt_mixed22, 2)
    want = np.einsum(
        "au,pm,mu->pa", fr.inverse("h", 0).value[0], fr.g_jet.value[0], pt_mixed22.xs
    )
    assert np.max(np.abs(ds.x_low - want)) < 1e-14


def test_em_blocks_antisymmetric(ctx_mixed22, pt_mixed22):
    em = em_tensors(ctx_mixed22, pt_mixed22)
    assert np.max(np.abs(em.F + np.einsum("jai->iaj", em.F))) < 1e-14
    assert np.max(np.abs(em.f + np.einsum("jaib->iajb", em.f))) < 1e-14


def test_deflection_identities(ctx_mixed22, pt_mixed22):
    res = deflection_identity_residuals(ctx_mixed22, pt_mixed22)
    assert max(res.values()) < 1e-10


def test_bracket_identities(ctx_mixed22, pt_mixed22):
    res = bianchi_residuals(ctx_mixed22, pt_mixed22)
    assert max(res.values()) < 1e-10


def test_maxwell_on_mixed_space(ctx_mixed22):
    pts = sample_points(ctx_mixed22, 10, seed=7, box_xs=(-0.6, 0.6))
    rep = maxwell_residuals(ctx_mixed22, pts)
    assert rep.n_points == 10
    assert set(rep.equations) == {
        "F_temporal",
        "f_temporal",
        "F_spatial_cyclic",
        "mixed_cyclic",
        "f_vertical_cyclic",
    }
    for stats in rep.equations.values():
        assert stats.max_rel < 1e-9


def test_flat_space_is_sourceless(ctx_flat22, pt_flat22):
    em = em_tensors(ctx_flat22, pt_flat22)
    assert np.max(np.abs(em.F)) == 0.0
    assert np.max(np.abs(em.f)) == 0.0
    ds = deflection_set(ctx_flat22, pt_flat22)
    assert np.max(np.abs(ds.raw_spatial)) == 0.0
    kron = np.einsum("ij,ab->iajb", np.eye(2), np.eye(2))
    assert np.max(np.abs(ds.raw_vertical - kron)) == 0.0
    rep = maxwell_residuals(ctx_flat22, [pt_flat22])
    assert max(s.max_abs for s in rep.equations.values()) == 0.0


def test_direction_independent_reduction(ctx_tdep22, pt_tdep22):
    # with fibre-independent g the vertical deflection is h^{ab} g_ij, so
    # its antisymmetrization f vanishes and F drops out as well under the
    # canonical quadratic connection
    ds = deflection_set(ctx_tdep22, pt_tdep22)
    em = em_tensors(ctx_tdep22, pt_tdep22)
    fr = frame(ctx_tdep22, pt_tdep22, 2)
    want = np.einsum("ab,ij->iajb", fr.inverse("h", 0).value[0], fr.g_jet.value[0])
    assert np.max(np.abs(ds.met_vertical - want)) < 1e-12
    assert np.max(np.abs(em.f)) < 1e-15
    assert np.max(np.abs(em.F)) < 1e-12
    assert max(deflection_identity_residuals(ctx_tdep22, pt_tdep22).values()) < 1e-10
    assert max(bianchi_residuals(ctx_tdep22, pt_tdep22).values()) < 1e-10


def test_maxwell_direction_independent(ctx_tdep22):
    pts = sample_points(ctx_tdep22, 10, seed=9)
    rep = maxwell_residuals(ctx_tdep22, pts)
    for stats in rep.equations.values():
        assert stats.max_rel < 1e-9


def test_torsional_connection_refused():
    ctx = crafted_torsional_ctx()
    pt = JetPoint.of([0.1], [0.8, -0.6], [[0.9], [0.2]])
    with pytest.raises(TorsionPreconditionError) as exc_info:
        maxwell_residuals(ctx, [pt])
    err = exc_info.value
    assert err.witness is not None
    assert err.value > 0.1


def test_maxwell_residuals_builds_each_frame_once(monkeypatch, ctx_mixed22):
    # the torsion probe and the equations of a block of points read one
    # order-2 frame of the block, as in a run
    from jetlag import geometry
    from jetlag.geometry import Frame

    pts = sample_points(ctx_mixed22, 4, seed=7, box_xs=(-0.6, 0.6))
    builds = []
    init = Frame.__init__

    def counting(self, ctx, block, order):
        init(self, ctx, block, order)
        builds.append(([pt.key() for pt in self.pts], order))

    monkeypatch.setattr(Frame, "__init__", counting)
    monkeypatch.setattr(geometry, "block_size", lambda p, n, order: 3)
    maxwell_residuals(ctx_mixed22, pts)
    assert builds == [([pt.key() for pt in pts[:2]], 2),
                      ([pt.key() for pt in pts[2:]], 2)]


def _precedence_ctx(g, nlc):
    from jetlag.spaces import build_space

    return build_space("custom", {"h": [["1", "0"], ["0", "1"]], "g": g,
                                  "nlc": nlc})


def test_maxwell_residuals_error_precedence():
    # g = diag(x1, 1) is singular at the first point, so an equation raises
    # there; the torsion probe at the second point outranks it
    g = [["x[1]", "0"], ["0", "1"]]
    xs = [[0.5, 0.6], [0.7, 0.8]]
    pts = [JetPoint.of([0.1, 0.2], [0.0, 0.4], xs),
           JetPoint.of([0.1, 0.2], [0.5, -0.4], xs)]
    ctx = _precedence_ctx(g, {"kind": "christoffel",
                              "phi": [["exp(x[1])", "0"], ["0", "log(x[2])"]]})
    with pytest.raises(EvalDomainError, match="log of a non-positive value"):
        maxwell_residuals(ctx, pts)
    # without the second point the equation error is the one raised
    with pytest.raises(SingularMetricError):
        maxwell_residuals(ctx, pts[:1])
    # a torsion violation outranks it too, named at its worst point
    ctx = _precedence_ctx(g, {"kind": "user", "entries": [
        [["xs[2][1]", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]})
    with pytest.raises(TorsionPreconditionError) as exc_info:
        maxwell_residuals(ctx, pts)
    assert exc_info.value.witness is pts[0]
