"""Einstein blocks, conservation laws and the trace-adjusted stress-energy."""
import numpy as np
import pytest

from jetlag.diff_engine import JetPoint, jet_einsum, jet_linear
from jetlag.errors import (
    EvalDomainError,
    NaturalFormUnavailableError,
    OrderExceededError,
    VacuumConstantError,
)
from jetlag.em_field import maxwell_fold, maxwell_step
from jetlag.geometry import (
    FromLagrangian,
    GeometryContext,
    QuadraticCanonical,
    _pooled_stats,
    frame,
    ricci_and_scalars,
    sample_points,
    sweep,
)
from jetlag.gravity import (
    conservation_fold,
    conservation_residuals,
    einstein_blocks,
    natural_form_checks,
    natural_form_fold,
    natural_stress_energy,
    stress_energy_extract,
    _divergences,
    _law_rhs,
    _laws_at,
    _new_laws_at,
    _prop_identities_at,
    _raised_p_jets,
    _tilde_einstein_jets,
)
from jetlag.field_expr import ExprField
from jetlag.tensor_core import S_UP, T_DN, T_UP, V_DN, V_UP

import support
from oracles import h_einstein_oracle


def _conservation(ctx, pts):
    """The conservation report over ``pts``, block by block."""
    return conservation_fold(sweep(conservation_residuals, ctx, pts, 3))


def _natural_form(ctx, pts):
    """The natural-form report over ``pts``, block by block."""
    return natural_form_fold(sweep(natural_form_checks, ctx, pts, 3))


def _all_blocks(eb):
    return [eb.tt, eb.ss, eb.vv, eb.st, eb.vt, eb.sv, eb.vs, eb.zero_ts, eb.zero_tv]


def test_flat_space_vacuum(ctx_flat22, pt_flat22):
    eb = einstein_blocks(ctx_flat22, pt_flat22)
    assert max(np.max(np.abs(b)) for b in _all_blocks(eb)) == 0.0
    T = stress_energy_extract(ctx_flat22, pt_flat22)
    blocks = [T.T_tt, T.T_ss, T.T_vv, T.T_st, T.T_vt, T.T_sv, T.T_vs]
    assert max(np.max(np.abs(b)) for b in blocks) == 0.0
    rep = _conservation(ctx_flat22, [pt_flat22])
    assert max(s.max_abs for s in rep.laws.values()) == 0.0
    assert all(s.max_rel < 1e-6 for s in rep.laws.values())


# --------------------------------------------------------------------------
# curved h, flat g: the semi-Riemannian regime with an independent oracle
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def curved_h_point():
    return JetPoint.of([0.5, -0.3], [0.4, 0.6], [[0.2, -0.4], [0.3, 0.5]])


def test_first_law_matches_h_oracle(ctx_curved_h, curved_h_point):
    fr = frame(ctx_curved_h, curved_h_point, 3)
    res1, _ = support.point_pairs(_laws_at(fr))[0]
    _, div_oracle = h_einstein_oracle(support.h22_at, curved_h_point.t)
    assert np.max(np.abs(res1 - div_oracle)) < 1e-7


def test_mixed_einstein_tensor_matches_h_oracle(ctx_curved_h, curved_h_point):
    fr = frame(ctx_curved_h, curved_h_point, 3)
    X1 = jet_einsum("am,mb->ab", fr.inverse("h", fr.order), fr.ricci_H_jet)
    total = float(
        fr.scalar_H_jet.value[0] + fr.scalar_R_jet.value[0] + fr.scalar_S_jet.value[0]
    )
    emix_engine = X1.value[0] - 0.5 * total * np.eye(2)
    emix_oracle, _ = h_einstein_oracle(support.h22_at, curved_h_point.t)
    assert np.max(np.abs(emix_engine - emix_oracle)) < 1e-7


def test_curved_h_laws_pass(ctx_curved_h):
    rep = _conservation(ctx_curved_h, sample_points(ctx_curved_h, 5, seed=3))
    assert all(s.max_rel < 1e-6 for s in rep.laws.values())
    assert rep.direction_independent


def test_x_dependent_g_laws_pass(ctx_xdep22):
    rep = _conservation(ctx_xdep22, sample_points(ctx_xdep22, 8, seed=11))
    assert all(s.max_rel < 1e-6 for s in rep.laws.values())
    assert rep.direction_independent


# --------------------------------------------------------------------------
# time-dependent g: the temporal law picks up a scalar defect
# --------------------------------------------------------------------------


def test_temporal_law_defect_structure(ctx_tdep22, pt_tdep22):
    fr = frame(ctx_tdep22, pt_tdep22, 3)
    res, _ = support.point_pairs(_laws_at(fr))[0]
    ginv = fr.inverse("g", 0).value[0]
    dgdt = fr.ddt(fr.g_jet).value[0]  # [i, j, b]
    ric_up = np.einsum(
        "im,jn,mn->ij", ginv, ginv, fr.ricci_Rmm_jet.value[0]
    )
    # the residual is exactly +R^{ij} dg_ij/dt^b / 2 when g varies with t
    pred = 0.5 * np.einsum("ij,ijb->b", ric_up, dgdt)
    assert np.max(np.abs(res - pred)) < 1e-10
    assert np.max(np.abs(pred)) > 1e-3  # the defect is genuinely nonzero here


def test_temporal_law_flagged_others_pass(ctx_tdep22, pt_tdep22):
    rep = _conservation(ctx_tdep22, [pt_tdep22])
    assert not rep.laws["temporal"].max_rel < 1e-6
    assert rep.laws["spatial"].max_rel < 1e-6
    assert rep.laws["vertical"].max_rel < 1e-6


# --------------------------------------------------------------------------
# stress-energy extraction and the vacuum constant
# --------------------------------------------------------------------------


def test_extraction_inverts_field_equation(ctx_tdep22, pt_tdep22):
    ric, sc = ricci_and_scalars(ctx_tdep22, pt_tdep22)
    gv = frame(ctx_tdep22, pt_tdep22, 2).g_jet.value[0]
    T = stress_energy_extract(ctx_tdep22, pt_tdep22)
    assert np.max(np.abs(T.K * T.T_ss + 0.5 * sc.total * gv - ric.R_mm)) < 1e-12


def test_vacuum_constant_scales_and_gates(pt_tdep22):
    dims = (2, 2)
    base = support.tdep_g_ctx()
    doubled = GeometryContext(
        2,
        2,
        support.grid(support.H22_SRC, dims, ("t",)),
        base.g_source,
        QuadraticCanonical(),
        K=2.0,
    )
    T1 = stress_energy_extract(base, pt_tdep22)
    T2 = stress_energy_extract(doubled, pt_tdep22)
    assert np.array_equal(T2.T_ss * 2.0, T1.T_ss)
    assert np.array_equal(T2.T_vt * 2.0, T1.T_vt)
    vacuum = GeometryContext(
        2,
        2,
        support.grid(support.H22_SRC, dims, ("t",)),
        base.g_source,
        QuadraticCanonical(),
        K=0.0,
    )
    with pytest.raises(VacuumConstantError):
        stress_energy_extract(vacuum, pt_tdep22)


def test_conservation_needs_deep_budget():
    dims = (2, 2)
    h = support.grid(support.ident_src(2), dims, ("t",))
    L = ExprField(
        "xs[1][1]^2+xs[1][2]^2+xs[2][1]^2+xs[2][2]^2", dims, ("xs",)
    )
    ctx = GeometryContext(2, 2, h, FromLagrangian(L), QuadraticCanonical())
    pt = JetPoint.of([0.1, 0.2], [0.3, 0.4], [[0.5, 0.6], [0.7, 0.8]])
    with pytest.raises(OrderExceededError):
        _conservation(ctx, [pt])


# --------------------------------------------------------------------------
# (3,3) direction-dependent space: layouts, identities, law variants
# --------------------------------------------------------------------------


def test_raised_contractions_match_ricci(ctx_mixed33, pt_mixed33):
    fr = frame(ctx_mixed33, pt_mixed33, 3)
    hv, hiv = fr.h_jet.value[0], fr.inverse("h", 0).value[0]
    giv = fr.inverse("g", 0).value[0]

    aux = np.einsum("me,ameb->ab", hiv, fr.cur_H_jet.value[0])
    assert np.max(np.abs(aux - np.einsum("am,mb->ab", hiv, fr.ricci_H_jet.value[0]))) < 1e-12

    aux = -np.einsum("lm,ilbm->ib", giv, fr.cur_R2_jet.value[0])
    assert np.max(np.abs(aux - np.einsum("im,mb->ib", giv, fr.ricci_Rmt_jet.value[0]))) < 1e-12

    aux = np.einsum("ml,imlj->ij", giv, fr.cur_R3_jet.value[0])
    assert np.max(np.abs(aux - np.einsum("im,mj->ij", giv, fr.ricci_Rmm_jet.value[0]))) < 1e-12

    Pvt, Pvs, Psb = _raised_p_jets(fr)
    aux = -np.einsum("lm,au,ilbmu->iab", giv, hv, fr.cur_P1_jet.value[0])
    assert np.max(np.abs(aux - Pvt.value[0])) < 1e-12
    aux = -np.einsum("lm,au,iljmu->iaj", giv, hv, fr.cur_P2_jet.value[0])
    assert np.max(np.abs(aux - Pvs.value[0])) < 1e-12
    aux = np.einsum("lm,ilmjb->ijb", giv, fr.cur_P2_jet.value[0])
    assert np.max(np.abs(aux - Psb.value[0])) < 1e-12

    aux = np.einsum("lm,au,ilmujb->iajb", giv, hv, fr.cur_S_jet.value[0])
    tmp = np.einsum("im,mujb->iujb", giv, fr.ricci_S_jet.value[0])
    Sup = np.einsum("au,iujb->iajb", hv, tmp)
    assert np.max(np.abs(aux - Sup)) < 1e-12


def test_divergence_identities_stated_vs_derived(ctx_mixed33, pt_mixed33):
    fr = frame(ctx_mixed33, pt_mixed33, 3)
    tilde = _tilde_einstein_jets(fr)
    displayed, derived = (support.point_pairs(pairs) for pairs in
                          _prop_identities_at(fr, _divergences(fr, *tilde[1::2])))
    # the temporal identity closes as stated
    assert np.max(np.abs(displayed[0][0])) < 1e-12
    # the stated spatial and vertical forms carry a real defect on
    # direction-dependent metrics
    assert np.max(np.abs(displayed[1][0])) > 1e-6
    assert np.max(np.abs(displayed[2][0])) > 1e-6
    # while the contracted-cyclic forms close to machine precision
    for res, terms in derived:
        scale = max(np.max(np.abs(t)) for t in terms)
        assert np.max(np.abs(res)) < 1e-12 * max(1.0, scale)


def test_law_variants_agree(ctx_mixed33, pt_mixed33):
    fr = frame(ctx_mixed33, pt_mixed33, 3)
    old = support.point_pairs(_laws_at(fr))
    tilde = _tilde_einstein_jets(fr)
    new = support.point_pairs(_new_laws_at(fr, tilde, _divergences(fr, *tilde[1::2]), 1.0)[0])
    for k in range(3):
        scale = max(1.0, np.max(np.abs(old[k][0])))
        assert np.max(np.abs(old[k][0] - new[k][0])) < 1e-11 * scale


def _two_path_laws(fr, tilde, K):
    """The rewritten-law residuals with the divergences taken a second
    time, of T = E / K, instead of dividing the identities' divergences."""
    p, n = fr.p, fr.n
    _, Emix_t, _, Emix_s, Evv, Econ = tilde
    d1, d2, d3 = _divergences(fr, Emix_t * (1.0 / K), Emix_s * (1.0 / K),
                              Econ * (1.0 / K))
    tT = jet_linear("aa->", Emix_t) * (1.0 / K)
    tM = jet_linear("ii->", Emix_s) * (1.0 / K)
    tmp = jet_einsum("ab,iajb->ij", fr.h_jet, Evv)
    tv = jet_linear("ii->", jet_einsum(
        "im,mj->ij", fr.inverse("g", tmp.order), tmp)) * (1.0 / K)
    div_R, div_P1, div_P2, div_P3 = fr.shared(_law_rhs)
    a, b, c = 1.0 / (2.0 - p), 1.0 / (2.0 - n), 1.0 / (2.0 - p * n)
    return [
        ((d1 - fr.delta_t(tM) * b - fr.delta_t(tv) * c) * K + div_R + div_P1).value[0],
        ((d2 - fr.delta_x(tT) * a - fr.delta_x(tv) * c) * K + div_P2).value[0],
        ((d3 - fr.ddxs(tT) * a - fr.ddxs(tM) * b) * K + div_P3).value[0],
    ]


@pytest.mark.parametrize("K", [1.0, 0.7])
def test_rewritten_laws_read_the_identities_divergences(pt_mixed33, K):
    # dividing the divergences of E by K is dividing E by K before taking
    # them: bit for bit at K = 1, to rounding otherwise
    fr = frame(support.mixed33_ctx(K), pt_mixed33, 3)
    tilde = _tilde_einstein_jets(fr)
    laws = support.point_pairs(_new_laws_at(fr, tilde, _divergences(fr, *tilde[1::2]), K)[0])
    for (res, terms), want in zip(laws, _two_path_laws(fr, tilde, K)):
        if K == 1.0:
            assert res.tobytes() == want.tobytes()
        scale = max(np.max(np.abs(t)) for t in terms)
        assert np.max(np.abs(res - want)) <= 1e-14 * scale


def test_trace_term_sign_matters(ctx_mixed33, pt_mixed33):
    # flipping the sign of the two trace terms in the temporal law moves the
    # residual by exactly twice those terms, so only one sign can close
    fr = frame(ctx_mixed33, pt_mixed33, 3)
    _, Emix_t, _, _, Evv, _ = _tilde_einstein_jets(fr)
    Ess = _tilde_einstein_jets(fr)[2]
    tM = jet_linear("ii->", jet_einsum("im,mj->ij", fr.inverse("g", fr.order), Ess))
    tmp = jet_einsum("ab,iajb->ij", fr.h_jet, Evv)
    tv = jet_linear("ii->", jet_einsum("im,mj->ij", fr.inverse("g", fr.order), tmp))
    d1 = jet_linear("aba->b", fr.cov_t(Emix_t, (T_UP, T_DN)))
    Rup = jet_einsum("im,mb->ib", fr.inverse("g", fr.order), fr.ricci_Rmt_jet)
    div_R = jet_linear("ibi->b", fr.cov_s(Rup, (S_UP, T_DN)))
    Pvt = _raised_p_jets(fr)[0]
    div_P1 = jet_linear("iabia->b", fr.cov_v(Pvt, (V_UP, T_DN)))
    n = 3
    term = fr.delta_t(tM) * (1.0 / (2.0 - n)) + fr.delta_t(tv) * (
        1.0 / (2.0 - n * n)
    )
    minus = ((d1 - term).value + div_R.value + div_P1.value)[0]
    plus = ((d1 + term).value + div_R.value + div_P1.value)[0]
    assert np.max(np.abs(plus - minus - 2 * term.value[0])) < 1e-12
    # the minus form is the engine's law; the trace terms are genuinely
    # nonzero here, so the plus variant is a different (wrong) equation
    engine_res, _ = support.point_pairs(_laws_at(fr))[0]
    assert np.max(np.abs(minus - engine_res)) < 1e-11
    assert np.max(np.abs(term.value[0])) > 1e-6


def test_block_trace_relation(ctx_mixed33, pt_mixed33):
    eb = einstein_blocks(ctx_mixed33, pt_mixed33)
    ric, sc = ricci_and_scalars(ctx_mixed33, pt_mixed33)
    hiv = frame(ctx_mixed33, pt_mixed33, 2).inverse("h", 0).value[0]
    lhs = np.einsum("ab,ab->", hiv, eb.tt)
    assert lhs == pytest.approx(sc.H - 1.5 * sc.total, abs=1e-10)


# --------------------------------------------------------------------------
# trace-adjusted stress-energy
# --------------------------------------------------------------------------


def test_natural_form_construction(ctx_mixed33, pt_mixed33):
    nf = natural_stress_energy(ctx_mixed33, pt_mixed33)
    assert nf.trace_residual < 1e-9
    assert nf.roundtrip_residual < 1e-10
    assert nf.e1prime_residual < 1e-12


def test_natural_form_checks_direction_dependent(ctx_mixed33, pt_mixed33):
    pt2 = JetPoint.of(
        [0.1, 0.3, -0.2],
        [0.4, -0.3, 0.2],
        [[0.3, 0.1, -0.2], [0.2, -0.1, 0.3], [-0.3, 0.2, 0.1]],
    )
    nfc = _natural_form(ctx_mixed33, [pt_mixed33, pt2])
    assert nfc.identity_residuals["temporal"].max_rel < 1e-9
    for name in ("spatial", "vertical"):
        assert nfc.identity_residuals[name].max_rel > 1e-6
    for stats in nfc.identity_residuals_derived.values():
        assert stats.max_rel < 1e-11
    assert not nfc.simple_form["applicable"]


def test_natural_form_checks_direction_independent(ctx_xdep33):
    pts = sample_points(ctx_xdep33, 3, seed=5)
    nfc = _natural_form(ctx_xdep33, pts)
    for stats in nfc.identity_residuals.values():
        assert stats.max_abs < 1e-8
    assert nfc.simple_form["applicable"]
    assert max(s.max_abs for s in nfc.simple_form["residuals"].values()) < 1e-8
    for stats in nfc.new_law_residuals.values():
        assert stats.max_abs < 1e-8


def test_natural_form_gates(ctx_tdep22, pt_tdep22):
    with pytest.raises(NaturalFormUnavailableError):
        natural_stress_energy(ctx_tdep22, pt_tdep22)
    vacuum33 = support.xdep33_ctx(K=0.0)
    pts = sample_points(vacuum33, 1, seed=5)
    nf0 = _natural_form(vacuum33, pts)
    assert nf0.identity_residuals is not None
    assert nf0.new_law_residuals is None
    assert nf0.tilde_tt is None


# --------------------------------------------------------------------------
# the fixed derivative budget at every entry point that reads frames
# --------------------------------------------------------------------------

def _budget_ctx(lagrangian):
    """A (3,3) space (the natural form needs p, n > 2) whose g, or L, leaves
    the log domain at x1 < 0, so a call that passes its budget gate ends at
    the first field evaluation."""
    from jetlag.geometry import ChristoffelOfPhi, DirectMetric

    dims = (3, 3)
    if lagrangian:
        src = FromLagrangian(ExprField(
            "log(x[1])*(xs[1][1]^2+xs[2][2]^2+xs[3][3]^2)", dims))
    else:
        src = DirectMetric(support.grid(
            [["log(x[1])", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            dims, ("t", "x")))
    return GeometryContext(
        3, 3, support.grid(support.ident_src(3), dims, ("t",)), src,
        ChristoffelOfPhi(support.grid(support.ident_src(3), dims, ("x",))),
    )


def _budget_entries():
    from jetlag import em_field
    from jetlag.geometry import cartan_connection, curvature_set

    one = {"cartan_connection": cartan_connection}
    two = {
        "curvature_set": curvature_set,
        "ricci_and_scalars": ricci_and_scalars,
        "deflection_set": em_field.deflection_set,
        "maxwell_residuals": lambda ctx, pt: em_field.maxwell_residuals(ctx, [pt]),
        "deflection_identity_residuals": em_field.deflection_identity_residuals,
        "bianchi_residuals": em_field.bianchi_residuals,
        "einstein_blocks": einstein_blocks,
        "natural_stress_energy": natural_stress_energy,
    }
    three = {
        "conservation_residuals": lambda ctx, pt: conservation_residuals(ctx, [pt]),
        "natural_form_checks": lambda ctx, pt: natural_form_checks(ctx, [pt]),
    }
    return [(name, fn, need) for need, fns in ((1, one), (2, two), (3, three))
            for name, fn in fns.items()]


@pytest.mark.parametrize("lagrangian", [False, True], ids=["direct", "lagrangian"])
@pytest.mark.parametrize("name,fn,need", _budget_entries(),
                         ids=[e[0] for e in _budget_entries()])
def test_budget_rule(name, fn, need, lagrangian):
    # a Lagrangian-derived g costs one more order: its half-Hessian
    from jetlag.geometry import MAX_ORDER

    need += lagrangian
    pt = JetPoint.of([0.1, 0.2, 0.3], [-0.5, 0.2, 0.1],
                     [[0.1, 0.2, 0.3], [0.2, 0.1, 0.3], [0.3, 0.1, 0.2]])
    ctx = _budget_ctx(lagrangian)
    if need > MAX_ORDER:
        with pytest.raises(OrderExceededError) as exc:
            fn(ctx, pt)
        assert str(exc.value).endswith(
            "of a Lagrangian-derived space needs a derivative budget of at "
            "least 4; the context allows 3")
    else:
        # within the budget, the log domain ends the evaluation
        with pytest.raises(EvalDomainError):
            fn(ctx, pt)


def test_maxwell_pools_components_and_laws_average_point_means(ctx_mixed33):
    # on these three points the two reductions of per-point residual blocks
    # differ in the last bit: Maxwell's mean_abs is the sum of |r| over all
    # points by their count of components, and the conservation and
    # natural-form folds take the mean of each point's own mean
    pts = sample_points(ctx_mixed33, 3, seed=1)

    def hexed(stats):
        return stats.mean_abs.hex()

    def mean_of_means(summaries):
        return float(np.mean([s / size for _, s, size, _ in summaries])).hex()

    record = sweep(maxwell_step, ctx_mixed33, pts, 2)
    rep = maxwell_fold(pts, record)
    differ = 0
    for name in rep.EQ_NAMES:
        summaries = record["equations"][name]
        pooled = sum(s for _, s, _, _ in summaries) / sum(n for _, _, n, _ in summaries)
        assert hexed(rep.equations[name]) == pooled.hex(), name
        differ += pooled.hex() != mean_of_means(summaries)
    assert differ

    def folded_against_pooled(columns, fold_map, point_summaries):
        differ = 0
        for k, (name, stats) in enumerate(fold_map.items()):
            means = [_pooled_stats([s]).mean_abs for s in columns[name]]
            assert hexed(stats) == float(np.mean(means)).hex(), name
            pooled = _pooled_stats([summaries[k] for summaries in point_summaries])
            differ += hexed(pooled) != hexed(stats)
        return differ

    def one_point(summaries):  # a one-point frame's summary of each pair
        return [col for [col] in summaries]

    frames = [frame(ctx_mixed33, pt, 3) for pt in pts]
    record = sweep(conservation_residuals, ctx_mixed33, pts, 3)
    assert folded_against_pooled(
        record["laws"], conservation_fold(record).laws,
        [one_point(fr.summaries(_laws_at(fr))) for fr in frames])

    def displayed(fr):
        tilde = _tilde_einstein_jets(fr)
        return _prop_identities_at(fr, _divergences(fr, *tilde[1::2]))[0]

    record = sweep(natural_form_checks, ctx_mixed33, pts, 3)
    assert folded_against_pooled(
        record["identity_residuals"],
        natural_form_fold(record).identity_residuals,
        [one_point(fr.summaries(displayed(fr))) for fr in frames])
