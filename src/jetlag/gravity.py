"""Einstein blocks, stress-energy, conservation laws, and the natural form.

Temporal indices a, b, g (range p); spatial indices i, j, k, m (range n);
Sc is the sum H + R + S of the three curvature scalars.  Block layouts keep
every vertical index pair adjacent, spatial axis first:

    tt[a, b]          H_ab - (Sc/2) h_ab
    ss[i, j]          R_ij - (Sc/2) g_ij
    vv[i, a, j, b]    S^(a)(b)_(i)(j) - (Sc/2) h^{ab} g_ij
    st[i, a]          R_ia
    vt[i, a, b]       P^(a)_(i)b
    sv[i, j, a]       P^(a)_i(j)
    vs[i, a, j]       P^(a)_(i)j

The two cross blocks with no curvature counterpart (layouts [a, i] and
[a, i, b]) are forced to vanish, so the matching stress-energy components
must be zero for the field equations to be solvable at all.

Conservation laws contract the first (upper) index of a mixed block against
the appended derivative axis; raised blocks follow the single convention
H^a_b = h^{am} H_mb, R^i_b = g^{im} R_mb, R^i_j = g^{im} R_mj,
P^(i)_(a)b = g^{im} h_{au} P^(u)_(m)b, P^{i(b)}_(j) = g^{im} P^(b)_m(j),
P^(i)_(a)j = g^{im} h_{au} P^(u)_(m)j and
S^(i)(b)_(a)(j) = g^{im} h_{au} S^(u)(b)_(m)(j).

The rewritten laws of the natural form keep these right-hand sides: the
divergences of the raised R and P blocks are derived once per frame
(:func:`_law_rhs`) and read by both law checks.  So are the Einstein
blocks (:func:`_einstein_blocks_at`), read by the field equations, the
stress-energy extraction and the natural-form construction.  The
natural-form checks build each frame's trace-adjusted Einstein jets and
their divergences once, for both the identities and the rewritten laws.

Both checks are a step, the report of each point of one frame alone, and
a fold of those reports over the points, in point order:
``jetlag run`` and a library sweep (:func:`~jetlag.geometry.sweep`) take
the same steps block by block and the same fold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .diff_engine import JetPoint, jet_einsum, jet_linear
from .errors import NaturalFormUnavailableError, VacuumConstantError
from .geometry import (GeometryContext, _each, _fold_stats, _gate,
                       _point_stats, frame)
from .tensor_core import S_DN, S_UP, T_DN, T_UP, V_DN, V_UP

__all__ = [
    "EinsteinBlocks",
    "StressEnergySet",
    "ConservationReport",
    "NaturalFormReport",
    "einstein_blocks",
    "stress_energy_extract",
    "conservation_residuals",
    "conservation_fold",
    "natural_stress_energy",
    "natural_form_checks",
    "natural_form_fold",
]

ZERO_BLOCK_NOTE = (
    "the temporal-spatial and temporal-vertical cross blocks have no "
    "curvature counterpart; the matching stress-energy components must vanish"
)


# --------------------------------------------------------------------------
# Einstein blocks and stress-energy extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EinsteinBlocks:
    """Left sides of the gravitational field equations (layouts above)."""

    tt: np.ndarray
    ss: np.ndarray
    vv: np.ndarray
    st: np.ndarray
    vt: np.ndarray
    sv: np.ndarray
    vs: np.ndarray
    zero_ts: np.ndarray
    zero_tv: np.ndarray
    note: str = ZERO_BLOCK_NOTE


@dataclass(frozen=True)
class StressEnergySet:
    """Stress-energy components extracted as Einstein block / K."""

    T_tt: np.ndarray
    T_ss: np.ndarray
    T_vv: np.ndarray
    T_st: np.ndarray
    T_vt: np.ndarray
    T_sv: np.ndarray
    T_vs: np.ndarray
    zero_ts: np.ndarray
    zero_tv: np.ndarray
    K: float


def einstein_blocks(ctx: GeometryContext, pt):
    """The adapted blocks of the gravitational field equations at a point,
    or the list of them over a block of points."""
    return _each(pt, _rows(frame(ctx, pt, 2).shared(_einstein_blocks_at)))


def _einstein_blocks_at(fr) -> EinsteinBlocks:
    """:func:`einstein_blocks` over the block of the frame ``fr``: one
    :class:`EinsteinBlocks` whose read-only arrays carry the frame's
    leading point axis, computed once for the block (:func:`_rows` splits
    it by point).  A frame-shared block (read through ``fr.shared``) that
    the Einstein blocks, the stress-energy extraction and the natural-form
    construction all read."""
    B, p, n = len(fr.pts), fr.p, fr.n
    h, g = fr.h_jet.value, fr.g_jet.value
    # the scalar curvature times 1/2, one per point, against the axes of h
    half = (0.5 * (fr.scalar_H_jet.value + fr.scalar_R_jet.value
                   + fr.scalar_S_jet.value))[:, None, None]
    arrays = dict(
        tt=fr.ricci_H_jet.value - half * h,
        ss=fr.ricci_Rmm_jet.value - half * g,
        vv=fr.ricci_S_jet.value - half[..., None, None] * np.einsum(
            "Zab,Zij->Ziajb", fr.inverse("h", 0).value, g),
        st=fr.ricci_Rmt_jet.value.copy(),
        vt=fr.ricci_P3_jet.value.copy(),
        sv=fr.ricci_P1_jet.value.copy(),
        vs=fr.ricci_P2_jet.value.copy(),
        zero_ts=np.zeros((B, p, n)),
        zero_tv=np.zeros((B, p, n, p)),
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return EinsteinBlocks(**arrays)


def _rows(blocks) -> list:
    """The per-point records of ``blocks``, a dataclass whose arrays carry
    a leading point axis: one copy per point, each array its row there
    (a view, as writable as the array), every other field kept."""
    arrays = {f.name: getattr(blocks, f.name) for f in fields(blocks)
              if isinstance(getattr(blocks, f.name), np.ndarray)}
    count = len(next(iter(arrays.values())))
    return [replace(blocks, **{nm: a[k] for nm, a in arrays.items()})
            for k in range(count)]


def stress_energy_extract(ctx: GeometryContext, pt):
    """Stress-energy components implied by the field equations and ctx.K,
    at a point, or the list of them over a block of points."""
    if ctx.K == 0.0:
        raise VacuumConstantError(
            "stress-energy extraction needs a nonzero gravitational constant; "
            "zero describes a vacuum source"
        )
    return _each(pt, _rows(_stress_energy_of(
        frame(ctx, pt, 2).shared(_einstein_blocks_at), ctx.K)))


def _stress_energy_of(eb: EinsteinBlocks, k: float) -> StressEnergySet:
    """The stress-energy of the Einstein blocks ``eb`` at K = ``k``, at a
    point or, with ``eb``'s point axis, over a block."""
    return StressEnergySet(
        T_tt=eb.tt / k,
        T_ss=eb.ss / k,
        T_vv=eb.vv / k,
        T_st=eb.st / k,
        T_vt=eb.vt / k,
        T_sv=eb.sv / k,
        T_vs=eb.vs / k,
        zero_ts=eb.zero_ts.copy(),
        zero_tv=eb.zero_tv.copy(),
        K=k,
    )


# --------------------------------------------------------------------------
# conservation laws
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    """Residuals LHS - RHS of the three divergence laws.

    Outside the direction-independent regime the laws are diagnostics, not
    hard assertions.
    """

    laws: dict
    direction_independent: bool
    n_points: int

    LAW_NAMES = ("temporal", "spatial", "vertical")


def _mixed_einstein_jets(fr):
    """(X1[a,b], X2[i,j], X3[i,a,j,b]): mixed blocks under the divergences.

    X1 = H^a_b - (Sc/2) d^a_b, X2 = R^i_j - (Sc/2) d^i_j,
    X3 = S^(i)(b)_(a)(j) - (Sc/2) d^i_j d^b_a.
    """
    half = (fr.scalar_H_jet + fr.scalar_R_jet + fr.scalar_S_jet) * 0.5
    eye_p = np.eye(fr.p)
    eye_n = np.eye(fr.n)
    h_inv, g_inv = fr.inverse("h", half.order), fr.inverse("g", half.order)
    X1 = jet_einsum("am,mb->ab", h_inv, fr.ricci_H_jet) - jet_einsum(
        ",ab->ab", half, eye_p
    )
    X2 = jet_einsum("im,mj->ij", g_inv, fr.ricci_Rmm_jet) - jet_einsum(
        ",ij->ij", half, eye_n
    )
    tmp = jet_einsum("im,mujb->iujb", g_inv, fr.ricci_S_jet)
    Sup = jet_einsum("au,iujb->iajb", fr.h_jet, tmp)
    X3 = Sup - jet_einsum(",iajb->iajb", half, np.einsum("ij,ab->iajb", eye_n, eye_p))
    return X1, X2, X3


def _raised_p_jets(fr):
    """Raised mixed P blocks of the law right-hand sides."""
    g_inv = fr.inverse("g", fr.ricci_P3_jet.order)  # every Ricci block's order
    tmp = jet_einsum("im,mub->iub", g_inv, fr.ricci_P3_jet)
    Pvt = jet_einsum("au,iub->iab", fr.h_jet, tmp)   # P^(i)_(a)b
    tmp = jet_einsum("im,muj->iuj", g_inv, fr.ricci_P2_jet)
    Pvs = jet_einsum("au,iuj->iaj", fr.h_jet, tmp)   # P^(i)_(a)j
    Psb = jet_einsum("im,mjb->ijb", g_inv, fr.ricci_P1_jet)  # P^{i(b)}_(j)
    return Pvt, Pvs, Psb


def _law_rhs(fr):
    """(div_R, div_P1, div_P2, div_P3): the divergences of the raised R and
    P blocks on the right of the laws, read through ``fr.shared``."""
    Pvt, Pvs, Psb = _raised_p_jets(fr)
    Rup = jet_einsum("im,mb->ib", fr.inverse("g", fr.ricci_Rmt_jet.order),
                     fr.ricci_Rmt_jet)
    return (jet_linear("ibi->b", fr.cov_s(Rup, (S_UP, T_DN))),
            jet_linear("iabia->b", fr.cov_v(Pvt, (V_UP, T_DN))),
            jet_linear("iajia->j", fr.cov_v(Pvs, (V_UP, S_DN))),
            jet_linear("ijbi->jb", fr.cov_s(Psb, (S_UP, V_DN))))


def _divergences(fr, Xt, Xs, Xv):
    """The divergences X^a_b/a, X^i_j|i and X^(i)(b)_(a)(j)|^(a)_(i) of a
    mixed temporal [a,b], spatial [i,j] and vertical [i,a,j,b] block."""
    return (jet_linear("aba->b", fr.cov_t(Xt, (T_UP, T_DN))),
            jet_linear("iji->j", fr.cov_s(Xs, (S_UP, S_DN))),
            jet_linear("iajbia->jb", fr.cov_v(Xv, (V_UP, V_DN))))


def _laws_at(fr) -> list:
    """[(residual, constituent terms)] jet pairs of the three laws at one
    frame."""
    mixed = _mixed_einstein_jets(fr)
    div_R, div_P1, div_P2, div_P3 = fr.shared(_law_rhs)
    lhs1, lhs2, lhs3 = _divergences(fr, *mixed)
    res1 = lhs1 + div_R + div_P1
    res2 = lhs2 + div_P2
    res3 = lhs3 + div_P3
    return [
        (res1, (lhs1, div_R, div_P1)),
        (res2, (lhs2, div_P2)),
        (res3, (lhs3, div_P3)),
    ]


def conservation_residuals(ctx: GeometryContext, pts):
    """Componentwise residuals of the three conservation laws at ``pts``,
    one point or a block of points read off one frame of it: the report
    of each point alone (of a :class:`JetPoint`, its one report).
    :func:`conservation_fold` folds them."""
    _gate(ctx, 3, "conservation-law divergences")
    fr = frame(ctx, pts, 3)
    return _each(pts, [
        ConservationReport(laws=_point_stats(ConservationReport.LAW_NAMES, laws),
                           direction_independent=di, n_points=1)
        for laws, di in zip(fr.summaries(_laws_at(fr)),
                            fr.direction_independent())])


def conservation_fold(reports) -> ConservationReport:
    """The report over the points of the per-point ``reports`` of
    :func:`conservation_residuals`, in point order; over a whole sweep,
    ``conservation_fold(sweep(conservation_residuals, ctx, pts, 3))``.
    Each law's mean_abs is the mean of the points' own means
    (:func:`~jetlag.geometry._fold_stats`), not pooled as Maxwell's is."""
    if not reports:
        raise ValueError("conservation_fold needs at least one report")
    return ConservationReport(
        laws=_fold_stats([r.laws for r in reports]),
        direction_independent=all(r.direction_independent for r in reports),
        n_points=sum(r.n_points for r in reports),
    )


# --------------------------------------------------------------------------
# natural form (p > 2, n > 2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalFormReport:
    """Trace-adjusted stress-energy and its identity residuals.

    The construction half (traces, recovered scalars, tilde blocks, the
    rewritten-equation and round-trip residuals) describes one probe point;
    the verification half covers the report's ``n_points`` points (one for
    a step of :func:`natural_form_checks`, all of them after
    :func:`natural_form_fold`) and is None in a bare construction.  With
    K = 0 only the pure-geometry identity residuals are available.
    """

    p: int
    n: int
    K: float
    traces: dict | None = None
    tilde_traces: dict | None = None
    scalars_direct: tuple | None = None
    scalars_solved: tuple | None = None
    scalars_from_tilde: tuple | None = None
    tilde_tt: np.ndarray | None = None
    tilde_ss: np.ndarray | None = None
    tilde_vv: np.ndarray | None = None
    e1prime_residual: float | None = None
    trace_residual: float | None = None
    roundtrip_residual: float | None = None
    identity_residuals: dict | None = None
    identity_residuals_derived: dict | None = None
    new_law_residuals: dict | None = None
    simple_form: dict | None = None
    n_points: int = 1

    IDENTITY_NAMES = ("temporal", "spatial", "vertical")


def _require_natural_form(ctx: GeometryContext):
    if ctx.p <= 2 or ctx.n <= 2:
        raise NaturalFormUnavailableError(
            f"the trace-adjusted form needs p > 2 and n > 2, got "
            f"p={ctx.p}, n={ctx.n}"
        )


def natural_stress_energy(ctx: GeometryContext, pt: JetPoint) -> NaturalFormReport:
    """Trace-adjusted stress-energy construction at one point."""
    _require_natural_form(ctx)
    if ctx.K == 0.0:
        raise VacuumConstantError(
            "the trace-adjusted stress-energy needs a nonzero gravitational "
            "constant"
        )
    return _natural_stress_energy_at(frame(ctx, pt, 2))[0]


def _natural_stress_energy_at(fr) -> list:
    """:func:`natural_stress_energy` at each point of the frame ``fr``."""
    p, n, K = fr.p, fr.n, fr.ctx.K
    out = []
    for T, (h, g, h_inv, g_inv, H, R, S, ricci_H, ricci_Rmm, ricci_S) in zip(
            _rows(_stress_energy_of(fr.shared(_einstein_blocks_at), K)), fr.values(
                fr.h_jet, fr.g_jet, fr.inverse("h", 0), fr.inverse("g", 0),
                fr.scalar_H_jet, fr.scalar_R_jet, fr.scalar_S_jet,
                fr.ricci_H_jet, fr.ricci_Rmm_jet, fr.ricci_S_jet)):
        H, R, S = float(H), float(R), float(S)

        # the vertical trace pairs the inverse vertical metric h_ab g^ij with
        # the vv block, mirroring the S scalar
        T_T = float(np.einsum("ab,ab->", h_inv, T.T_tt))
        T_M = float(np.einsum("ij,ij->", g_inv, T.T_ss))
        T_v = float(np.einsum("ab,ij,iajb->", h, g_inv, T.T_vv))
        D = 2.0 - p - n - p * n
        tot = T_T + T_M + T_v
        scalars_solved = (
            K * (T_T + p / D * tot),
            K * (T_M + n / D * tot),
            K * (T_v + p * n / D * tot),
        )

        G_up = np.einsum("ab,ij->iajb", h_inv, g)
        tilde_tt = T.T_tt + (R + S) / (2.0 * K) * h
        tilde_ss = T.T_ss + (H + S) / (2.0 * K) * g
        tilde_vv = T.T_vv + (H + R) / (2.0 * K) * G_up

        Tt_T = float(np.einsum("ab,ab->", h_inv, tilde_tt))
        Tt_M = float(np.einsum("ij,ij->", g_inv, tilde_ss))
        Tt_v = float(np.einsum("ab,ij,iajb->", h, g_inv, tilde_vv))
        scalars_from_tilde = (
            2.0 * K * Tt_T / (2.0 - p),
            2.0 * K * Tt_M / (2.0 - n),
            2.0 * K * Tt_v / (2.0 - p * n),
        )

        e1p = max(
            float(np.max(np.abs(ricci_H - 0.5 * H * h - K * tilde_tt))),
            float(np.max(np.abs(ricci_Rmm - 0.5 * R * g - K * tilde_ss))),
            float(np.max(np.abs(ricci_S - 0.5 * S * G_up - K * tilde_vv))),
        )
        direct = (H, R, S)
        trace_res = max(
            max(abs(a - b) for a, b in zip(direct, scalars_solved)),
            max(abs(a - b) for a, b in zip(direct, scalars_from_tilde)),
        )
        # round trip through the inverse trace relations
        Hr, Rr, Sr = scalars_from_tilde
        back_tt = tilde_tt - (Rr + Sr) / (2.0 * K) * h
        back_ss = tilde_ss - (Hr + Sr) / (2.0 * K) * g
        back_vv = tilde_vv - (Hr + Rr) / (2.0 * K) * G_up
        roundtrip = max(
            float(np.max(np.abs(back_tt - T.T_tt))),
            float(np.max(np.abs(back_ss - T.T_ss))),
            float(np.max(np.abs(back_vv - T.T_vv))),
        )
        out.append(NaturalFormReport(
            p=p,
            n=n,
            K=K,
            traces={"T_T": T_T, "T_M": T_M, "T_v": T_v},
            tilde_traces={"T_T": Tt_T, "T_M": Tt_M, "T_v": Tt_v},
            scalars_direct=direct,
            scalars_solved=scalars_solved,
            scalars_from_tilde=scalars_from_tilde,
            tilde_tt=tilde_tt,
            tilde_ss=tilde_ss,
            tilde_vv=tilde_vv,
            e1prime_residual=e1p,
            trace_residual=trace_res,
            roundtrip_residual=roundtrip,
        ))
    return out


def _tilde_einstein_jets(fr):
    """Trace-adjusted Einstein jets: lowered, mixed and raised variants."""
    o = fr.scalar_S_jet.order  # every block below has this order
    h_inv, g_inv = fr.inverse("h", o), fr.inverse("g", o)
    Ett = fr.ricci_H_jet - jet_einsum(",ab->ab", fr.scalar_H_jet * 0.5, fr.h_jet)
    Emix_t = jet_einsum("am,mb->ab", h_inv, Ett)
    Ess = fr.ricci_Rmm_jet - jet_einsum(",ij->ij", fr.scalar_R_jet * 0.5, fr.g_jet)
    Emix_s = jet_einsum("im,mj->ij", g_inv, Ess)
    Gup = jet_einsum("ab,ij->iajb", h_inv, fr.g_jet, order=o)
    Evv = fr.ricci_S_jet - jet_einsum(",iajb->iajb", fr.scalar_S_jet * 0.5, Gup)
    tmp = jet_einsum("mq,qujb->mujb", g_inv, Evv)
    Econ = jet_einsum("uv,mvjb->mujb", fr.h_jet, tmp)
    return Ett, Emix_t, Ess, Emix_s, Evv, Econ


def _prop_identities_at(fr, divs):
    """Residuals of the trace-adjusted Einstein divergence identities, from
    ``divs``, the :func:`_divergences` of the frame's trace-adjusted
    (Emix_t, Emix_s, Econ) (:func:`_tilde_einstein_jets`).

    Returns (displayed, derived), each a list of (residual, constituent
    terms) jet pairs: the curvature-product forms exactly as
    stated, and the forms obtained by contracting the cyclic differential
    identities of the connection (upper index against the second spatial
    slot, then g^{-1} and h on the remaining lower pairs).  On spaces with
    direction-dependent g the stated spatial and vertical forms carry a
    nonzero defect while the contracted-cyclic forms close to machine
    precision, so both are reported.
    """
    id1, lhs2, lhs3 = divs
    o = lhs2.order  # every product below feeds a sum of this order
    g_inv, tor_S = fr.inverse("g", o), fr.tor_S(o)

    # P^{l(u)}_(m): both plain lower spatial slots of the P-curvature
    # contracted away with g^{-1}
    Pcon = jet_einsum("lm,ilmjb->ijb", g_inv, fr.cur_P2_jet, order=o)
    t1 = jet_einsum("muil,lmu->i", fr.tor_R3_jet, Pcon)
    tmp = jet_einsum("mukl,lpimu->kpi", fr.tor_R3_jet, fr.cur_P2_jet, order=o)
    t2 = jet_einsum("kp,kpi->i", g_inv, tmp) * 0.5
    id2 = lhs2 - t1 + t2

    tA = jet_einsum("lm,ilmujb->iujb", g_inv, fr.cur_S_jet, order=o)
    Scon = jet_einsum("au,iujb->iajb", fr.h_jet, tA)   # S^(i)(b)_(a)(j)
    t3 = jet_einsum("muialc,lcmu->ia", tor_S, Scon)
    w1 = jet_einsum("cd,mukdlc->mukl", fr.h_jet, tor_S, order=o)
    w2 = jet_einsum("kp,mukl->mupl", g_inv, w1)
    t4 = jet_einsum("mupl,lpiamu->ia", w2, fr.cur_S_jet) * 0.5
    id3 = lhs3 - t3 + t4

    displayed = [(id1, (id1,)), (id2, (lhs2, t1, t2)), (id3, (lhs3, t3, t4))]

    # spatial, contracted-cyclic: lhs2 = -1/2 g^{kp} (sum of the three
    # R-curvature x P-curvature couplings, one with the upper/second-slot
    # trace of P)
    tracedP = jet_linear("jpjmu->pmu", fr.cur_P2_jet)
    B3 = jet_einsum("muki,pmu->pik", fr.tor_R3_jet, tracedP, order=o)
    C3 = jet_einsum("kp,pik->i", g_inv, B3)
    der2 = lhs2 + t1 * 0.5 - t2 + C3 * 0.5

    # vertical, same contraction pattern on the S-sector
    W1 = jet_einsum("kp,jpkgmu->jgmu", g_inv, fr.cur_S_jet, order=o)
    W2 = jet_einsum("bg,jgmu->jbmu", fr.h_jet, W1)
    R1 = jet_einsum("muiajb,jbmu->ia", tor_S, W2)
    V1 = jet_einsum("bg,mujbkg->mujk", fr.h_jet, tor_S, order=o)
    V2 = jet_einsum("kp,mujk->mujp", g_inv, V1)
    R2 = jet_einsum("mujp,jpiamu->ia", V2, fr.cur_S_jet)
    tracedS = jet_linear("jpjbmu->pbmu", fr.cur_S_jet)
    Y1 = jet_einsum("kp,pbmu->kbmu", g_inv, tracedS, order=o)
    Y2 = jet_einsum("bg,kbmu->kgmu", fr.h_jet, Y1)
    R3 = jet_einsum("mukgia,kgmu->ia", tor_S, Y2)
    der3 = lhs3 + (R1 + R2 + R3) * 0.5

    derived = [(id1, (id1,)), (der2, (lhs2, C3)), (der3, (lhs3, R1, R2, R3))]
    return displayed, derived


def _new_laws_at(fr, tilde, divs, K: float):
    """(residual, constituent terms) jet pairs of the rewritten
    conservation laws and of their simple form at one frame, from its
    :func:`_tilde_einstein_jets` ``tilde`` and the divergences ``divs``
    that :func:`_prop_identities_at` reads, here divided by K.  The
    divergences on the right are the conservation laws' own
    (:func:`_law_rhs`, shared per frame).

    The scalar-trace terms enter with minus signs: the defining trace
    relations give T~_M = (2-n) R / (2K) and T~_v = (2-pn) S / (2K), so
    substituting T = T~ - (corrections) into the divergence laws produces
    K (div T~ - trace terms) on the left; a plus variant is inconsistent
    with those relations.
    """
    p, n = fr.p, fr.n
    _, Emix_t, _, Emix_s, Evv, _ = tilde
    d1, d2, d3 = (d * (1.0 / K) for d in divs)
    tT = jet_linear("aa->", Emix_t) * (1.0 / K)
    tM = jet_linear("ii->", Emix_s) * (1.0 / K)
    tmp = jet_einsum("ab,iajb->ij", fr.h_jet, Evv)
    g_inv = fr.inverse("g", tmp.order)
    tv = jet_linear("ii->", jet_einsum("im,mj->ij", g_inv, tmp)) * (1.0 / K)

    div_R, div_P1, div_P2, div_P3 = fr.shared(_law_rhs)

    l1 = d1 - fr.delta_t(tM) * (1.0 / (2.0 - n)) - fr.delta_t(tv) * (1.0 / (2.0 - p * n))
    res1 = l1 * K + div_R + div_P1

    l2 = d2 - fr.delta_x(tT) * (1.0 / (2.0 - p)) - fr.delta_x(tv) * (1.0 / (2.0 - p * n))
    res2 = l2 * K + div_P2

    l3 = d3 - fr.ddxs(tT) * (1.0 / (2.0 - p)) - fr.ddxs(tM) * (1.0 / (2.0 - n))
    res3 = l3 * K + div_P3

    # the terms read only values: d * K at order 0
    dK1, dK2, dK3 = (d.truncated(0) * K for d in (d1, d2, d3))
    laws = [(res1, (dK1, div_R, div_P1)), (res2, (dK2, div_P2)), (res3, (dK3, div_P3))]
    simple = [(d1, (d1,)), (d2, (d2,)), (d3, (d3,))]
    return laws, simple


def natural_form_checks(ctx: GeometryContext, pts):
    """Identity and rewritten-law residuals at ``pts``, one point or a
    block of points read off one frame of it: the report of each point
    alone (of a :class:`JetPoint`, its one report), with its own
    construction of :func:`natural_stress_energy` (none without K).
    :func:`natural_form_fold` folds them.  The laws' divergence
    right-hand sides are shared with a conservation check of the frame.
    """
    _require_natural_form(ctx)
    _gate(ctx, 3, "the trace-adjusted identity checks")
    have_K = ctx.K != 0.0
    fr = frame(ctx, pts, 3)
    bases = (_natural_stress_energy_at(fr) if have_K else
             [NaturalFormReport(p=ctx.p, n=ctx.n, K=ctx.K)] * len(fr.pts))
    tilde = _tilde_einstein_jets(fr)
    divs = _divergences(fr, *tilde[1::2])  # Emix_t, Emix_s, Econ
    displayed, derived = _prop_identities_at(fr, divs)
    laws, simple = _new_laws_at(fr, tilde, divs, ctx.K) if have_K else ([], [])
    names = NaturalFormReport.IDENTITY_NAMES
    out = []
    for base, summaries, P, S in zip(
            bases, fr.summaries(displayed + derived + laws + simple),
            fr.max_abs(fr.cur_P2_jet), fr.max_abs(fr.cur_S_jet)):
        applicable = P < 1e-10 and S < 1e-10
        out.append(replace(
            base,
            identity_residuals=_point_stats(names, summaries[:3]),
            identity_residuals_derived=_point_stats(names, summaries[3:6]),
            new_law_residuals=_point_stats(names, summaries[6:9]),
            simple_form={"applicable": applicable, "max_P_curvature": P,
                         "max_S_curvature": S,
                         "residuals": _point_stats(names, summaries[9:])
                         if applicable else None},
        ))
    return _each(pts, out)


def natural_form_fold(reports) -> NaturalFormReport:
    """The report over the points of the per-point ``reports`` of
    :func:`natural_form_checks`, in point order, with the first point's
    construction; over a whole sweep,
    ``natural_form_fold(sweep(natural_form_checks, ctx, pts, 3))``."""
    if not reports:
        raise ValueError("natural_form_fold needs at least one report")
    simple = [r.simple_form for r in reports]
    max_P = max(sf["max_P_curvature"] for sf in simple)
    max_S = max(sf["max_S_curvature"] for sf in simple)
    applicable = max_P < 1e-10 and max_S < 1e-10
    return replace(
        reports[0],
        identity_residuals=_fold_stats([r.identity_residuals for r in reports]),
        identity_residuals_derived=_fold_stats(
            [r.identity_residuals_derived for r in reports]),
        new_law_residuals=_fold_stats([r.new_law_residuals for r in reports]),
        simple_form={"applicable": applicable, "max_P_curvature": max_P,
                     "max_S_curvature": max_S,
                     "residuals": _fold_stats([sf["residuals"] for sf in simple])
                     if applicable else None},
        n_points=sum(r.n_points for r in reports),
    )
