"""Deflection d-tensors, the electromagnetic 2-form, and Maxwell residuals.

Everything lives on the first-order jet bundle with temporal indices a, b, g
(range p) and spatial indices i, j, k, m (range n).  Array layouts keep each
vertical index pair adjacent, spatial axis first:

    x_low[p, a]          lowered Liouville field  x^(a)_(p) = h^{am} g_pq xs^q_m
    Dbar[i, a, b]        temporal metrical deflection   [x_low]_{/b}
    Dmet[i, a, j]        spatial metrical deflection    [x_low]_{|j}
    dmet[i, a, j, b]     vertical metrical deflection   [x_low]|^(b)_(j)
    F[i, a, j]           F^(a)_(i)j = (Dmet[i,a,j] - Dmet[j,a,i]) / 2
    f[i, a, j, b]        f^(a)(b)_(i)(j) = (dmet[i,a,j,b] - dmet[j,a,i,b]) / 2

Raw deflections carry the un-lowered Liouville field xs^i_a itself and have
the same axis order.  Alternations and cyclic sums permute spatial labels
only; greek indices stay attached to their slots.

The ten deflection identities are one Ricci identity, applied to a Liouville
field X (xs or x_low) with deflections D = (temporal, spatial, vertical):
each commutator of two covariant derivatives of X equals the curvature
acting on X's spatial index minus the torsion acting on D.  Lowering flips
the sign of the curvature term.  F and f are the antisymmetrized spatial
and vertical metrical deflections; they are derived once per frame, as a
shared block, and both the Maxwell residuals and :func:`em_tensors` read
them there.  ``jetlag run`` and :func:`maxwell_residuals` share the
Maxwell step (:func:`maxwell_step`) and fold (:func:`maxwell_fold`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff_engine import Jet, JetPoint, jet_einsum, jet_linear
from .errors import TorsionPreconditionError
from .geometry import (Frame, GeometryContext, ResidualStats, _block_records,
                       _each, _kept, _order2, _pooled_stats, frame,
                       nlc_torsion_at, sweep, torsion_free_verdict)
from .tensor_core import S_DN, S_UP, T_DN, V_DN, V_UP

__all__ = [
    "DeflectionSet",
    "EmSet",
    "ResidualStats",
    "MaxwellReport",
    "deflection_set",
    "em_tensors",
    "maxwell_residuals",
    "maxwell_at",
    "maxwell_step",
    "maxwell_fold",
    "TORSION_LIMIT",
    "deflection_identity_residuals",
    "bianchi_residuals",
]

# The Maxwell equations assume a torsion-free spatial nonlinear connection;
# a larger max |dN/dxs asymmetry| than this breaks that precondition.
TORSION_LIMIT = 1e-9


# --------------------------------------------------------------------------
# frame-level builders (jets, reused by several ops)
# --------------------------------------------------------------------------

def _x_low_jet(fr) -> Jet:
    """x^(a)_(p) = h^{am} g_pq xs^q_m, axes [p, a]."""
    gx = jet_einsum("pq,qm->pm", fr.metric("g", fr.order), fr.xs_jet)
    return jet_einsum("am,pm->pa", fr.inverse("h", fr.order), gx)


@_kept(_order2(1), "stt", "sts", "stst")
def _raw_jets(fr):
    """(Dbar, Dmet, dmet) of the Liouville field xs itself, as jets via the
    generic covariant rules; read through ``fr.shared``."""
    xs = fr.xs_jet
    return (fr.cov_t(xs, (V_UP,)), fr.cov_s(xs, (V_UP,)), fr.cov_v(xs, (V_UP,)))


@_kept(_order2(2), "st")
@_kept(_order2(1), "stt", "sts", "stst")
def _metrical_jets(fr):
    """(x_low, Dbar, Dmet, dmet) as jets via the generic covariant rules;
    read through ``fr.shared`` so each frame derives them once."""
    x_low = _x_low_jet(fr)
    return (
        x_low,
        fr.cov_t(x_low, (V_DN,)),
        fr.cov_s(x_low, (V_DN,)),
        fr.cov_v(x_low, (V_DN,)),
    )


@_kept(_order2(1), "sts", "stst")
def _em_jets(fr):
    """(F, f), the antisymmetrized metrical deflections, as jets; read
    through ``fr.shared``."""
    x_low, Dbar, Dmet, dmet = fr.shared(_metrical_jets)
    return ((Dmet - jet_linear("iaj->jai", Dmet)) * 0.5,
            (dmet - jet_linear("iajb->jaib", dmet)) * 0.5)


# --------------------------------------------------------------------------
# deflections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflectionSet:
    """Raw and metrical deflection d-tensors at one point.

    raw_temporal[i, a, b] = xs^i_{a/b}
    raw_spatial[i, a, j]  = xs^i_{a|j}
    raw_vertical[i, a, j, b] = xs^i_a|^(b)_(j)
    met_temporal / met_spatial / met_vertical: same derivatives of x_low,
    which equal the h^.g-lowering of the raw blocks.
    x_low[p, a]: the lowered Liouville field.
    """

    raw_temporal: np.ndarray
    raw_spatial: np.ndarray
    raw_vertical: np.ndarray
    met_temporal: np.ndarray
    met_spatial: np.ndarray
    met_vertical: np.ndarray
    x_low: np.ndarray


def deflection_set(ctx: GeometryContext, pt: JetPoint) -> DeflectionSet:
    """Deflections of the Liouville field, raw and metrically lowered.

    Both come from the generic covariant rules, applied to xs and to its
    lowering, as the frame-shared blocks that the deflection identities
    read.  Metricity, which makes lowering commute with the derivatives,
    ties the two together; tests compare them directly, and compare the
    raw blocks with their closed forms.
    """
    fr = frame(ctx, pt, 2)
    raw_t, raw_s, raw_v = fr.shared(_raw_jets)
    x_low, Dbar, Dmet, dmet = fr.shared(_metrical_jets)
    return DeflectionSet(
        raw_temporal=raw_t.value[0].copy(),
        raw_spatial=raw_s.value[0].copy(),
        raw_vertical=raw_v.value[0].copy(),
        met_temporal=Dbar.value[0].copy(),
        met_spatial=Dmet.value[0].copy(),
        met_vertical=dmet.value[0].copy(),
        x_low=x_low.value[0].copy(),
    )


@dataclass(frozen=True)
class EmSet:
    """Electromagnetic components F[i, a, j] and f[i, a, j, b]."""

    F: np.ndarray
    f: np.ndarray


def em_tensors(ctx: GeometryContext, pt: JetPoint) -> EmSet:
    """The two antisymmetrized electromagnetic blocks at a point."""
    F, f = frame(ctx, pt, 2).shared(_em_jets)
    return EmSet(F=F.value[0].copy(), f=f.value[0].copy())


# --------------------------------------------------------------------------
# Maxwell residuals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxwellReport:
    """Residuals of the five electromagnetic field equations."""

    equations: dict
    n_points: int

    EQ_NAMES = (
        "F_temporal",
        "f_temporal",
        "F_spatial_cyclic",
        "mixed_cyclic",
        "f_vertical_cyclic",
    )


def _cyclic3(core: Jet, spec1: str, spec2: str) -> Jet:
    return core + jet_linear(spec1, core) + jet_linear(spec2, core)


def maxwell_at(ctx: GeometryContext, pt) -> dict:
    """Residual summaries of the five equations at one point, or over a
    block of points their columns, by equation name.

    Each is the (max |r|, sum |r|, size, scale) summary of the residual r
    and its constituent terms.  The torsion precondition is not checked
    here; see :func:`maxwell_fold`.
    """
    fr = frame(ctx, pt, 2)
    x_low, Dbar, Dmet, dmet = fr.shared(_metrical_jets)
    F, f = fr.shared(_em_jets)
    Tt = fr.tor_T_jet
    Cc = fr.Cc_jet
    R2 = fr.tor_R2_jet
    out = []  # per equation, its column of summaries

    def add(res, *terms):
        out.extend(fr.summaries([(res, terms)]))

    # 1) F^(a)_(i)k/b  =  A_{i,k} { Dbar_{|k} + Dmet.T + dmet.R - [T_{|k} + C.R] x_low } / 2
    lhs = fr.cov_t(F, (V_DN, S_DN))  # [i,a,k,b]
    t1 = fr.shared(Frame.cov_s, Dbar, (V_DN, T_DN))  # [i,a,b,k]
    t2 = jet_einsum("iam,mbk->iabk", Dmet, Tt, order=t1.order)
    t3 = jet_einsum("iamu,mubk->iabk", dmet, R2)
    Tcs = fr.shared(Frame.cov_s, Tt, (S_UP, T_DN, S_DN))  # [p,b,i,k]
    br = Tcs + jet_einsum("pkmu,mubi->pbik", Cc, R2)
    t4 = jet_einsum("pbik,pa->iabk", br, x_low)
    core = t1 + t2 + t3 - t4
    rhs = (core - jet_linear("iabk->kabi", core)) * 0.5
    res = lhs - jet_linear("iabk->iakb", rhs)
    add(res, lhs, t1, t2, t3, t4)

    # 2) f^(a)(g)_(i)(k)/b = A_{i,k} { Dbar|^(g)_(k) + dmet.P2 - [dT/dxs + C.P2] x_low } / 2
    P2 = fr.tor_P2_jet
    lhs = fr.cov_t(f, (V_DN, V_DN))  # [i,a,k,g,b]
    u1 = fr.shared(Frame.cov_v, Dbar, (V_DN, T_DN))  # [i,a,b,k,g]
    u2 = jet_einsum("iamu,mubkg->iabkg", dmet, P2)
    br = fr.ddxs(Tt) + jet_einsum("pkmu,mubig->pbikg", Cc, P2)
    u3 = jet_einsum("pbikg,pa->iabkg", br, x_low)
    core = u1 + u2 - u3
    rhs = (core - jet_linear("iabkg->kabig", core)) * 0.5
    res = lhs - jet_linear("iabkg->iakgb", rhs)
    add(res, lhs, u1, u2, u3)

    # 3) sum_{i,j,k} F^(a)_(i)j|k = -(1/2) sum_{i,j,k} [C.x_low + dmet].R3
    R3 = fr.tor_R3_jet
    Fcs = fr.cov_s(F, (V_DN, S_DN))  # [i,a,j,k]
    lhs = _cyclic3(Fcs, "jaki->iajk", "kaij->iajk")
    B = jet_einsum("pimu,pa->iamu", Cc, x_low, order=R3.order) + dmet
    s = jet_einsum("iamu,mujk->iajk", B, R3)
    rhs = _cyclic3(s, "jaki->iajk", "kaij->iajk") * (-0.5)
    res = lhs - rhs
    add(res, Fcs, s)

    # 4) sum_{i,j,k} { F^(a)_(i)j|^(g)_(k) + f^(a)(g)_(i)(j)|k } = 0
    Fcv = fr.cov_v(F, (V_DN, S_DN))  # [i,a,j,k,g]
    fcs = fr.cov_s(f, (V_DN, V_DN))  # [i,a,j,g,k]
    both = Fcv + jet_linear("iajgk->iajkg", fcs)
    res = _cyclic3(both, "jakig->iajkg", "kaijg->iajkg")
    add(res, Fcv, fcs)

    # 5) sum_{i,j,k} f^(a)(b)_(i)(j)|^(g)_(k) = 0
    fcv = fr.cov_v(f, (V_DN, V_DN))  # [i,a,j,b,k,g]
    res = _cyclic3(fcv, "jakbig->iajbkg", "kaibjg->iajbkg")
    add(res, fcv)
    return _each(pt, dict(zip(MaxwellReport.EQ_NAMES, out)))


def maxwell_step(ctx: GeometryContext, pts) -> dict:
    """The record of a block (sequence) of points: its torsion probe
    (:func:`~jetlag.geometry.nlc_torsion_at`), which raises its error,
    and its :func:`maxwell_at` record, by the rule of
    :func:`~jetlag.geometry._block_records`, with each point's equation
    error, or None, in the column ``error``, for :func:`maxwell_fold`."""
    torsion = nlc_torsion_at(ctx, pts)
    equations, held = _block_records(maxwell_at, ctx, pts)
    return {"torsion": torsion, "equations": equations,
            "error": [held.get(k) for k in range(len(pts))]}


def maxwell_fold(pts, record) -> MaxwellReport:
    """Fold the :func:`maxwell_step` record of ``pts``, in point order.

    The equations assume a torsion-free spatial nonlinear connection, so
    after the probe errors, which a run or sweep raises, a torsion above
    :data:`TORSION_LIMIT` at any point is raised, at its witness, and then
    the first equation error held.  Each equation's stats pool its
    residual components over the points
    (:func:`~jetlag.geometry._pooled_stats`): mean_abs is the sum of |r|
    over all points by their count of components.
    """
    verdict = torsion_free_verdict(pts, record["torsion"])
    if verdict.max_violation > TORSION_LIMIT:
        raise TorsionPreconditionError(
            "spatial nonlinear connection has torsion: "
            f"max |dN/dxs asymmetry| = {verdict.max_violation:.3e} "
            f"at point {verdict.witness[0]!r}, entry {verdict.witness[1]}",
            witness=verdict.witness[0],
            value=verdict.max_violation,
        )
    error = next((exc for exc in record["error"] if exc is not None), None)
    if error is not None:
        raise error
    return MaxwellReport(
        equations={name: _pooled_stats(record["equations"][name])
                   for name in MaxwellReport.EQ_NAMES},
        n_points=len(record["error"]))


def maxwell_residuals(ctx: GeometryContext, pts) -> MaxwellReport:
    """Residuals of the five field equations over sample points: the
    :func:`maxwell_fold` of the :func:`maxwell_step` record, taken block
    by block (:func:`~jetlag.geometry.sweep`), so it raises the errors the
    run reports, in the run's order."""
    pts = list(pts)
    return maxwell_fold(pts, sweep(maxwell_step, ctx, pts, 2))


# --------------------------------------------------------------------------
# diagnostics: deflection and bracket identities
# --------------------------------------------------------------------------

def _liouville_identities(fr, X, D, up: bool) -> list:
    """Max-abs residuals of the five Ricci identities (module docstring) of
    the Liouville field ``X``, xs if ``up`` else x_low, whose deflections
    are D = (temporal, spatial, vertical)."""
    Dt, Ds, Dv = D
    v = V_UP if up else V_DN
    o = Dt.order - 1  # the order of two derivatives of X, on the left

    def curvature(block, rest):
        if up:
            return jet_einsum(f"ma,im{rest}->ia{rest}", X, block)
        return jet_einsum(f"ma,mi{rest}->ia{rest}", X, block) * (-1.0)

    def torsion(block, rest):
        return jet_einsum(f"iamu,mu{rest}->ia{rest}", Dv, block, order=o)

    out = []
    lhs = fr.shared(Frame.cov_s, Dt, (v, T_DN)) - jet_linear(
        "iakb->iabk", fr.cov_t(Ds, (v, S_DN)))
    rhs = (curvature(fr.cur_R2_jet, "bk")
           - jet_einsum("iam,mbk->iabk", Ds, fr.tor_T_jet, order=o)
           - torsion(fr.tor_R2_jet, "bk"))
    out.append(lhs - rhs)

    lhs = fr.shared(Frame.cov_v, Dt, (v, T_DN)) - jet_linear(
        "iakgb->iabkg", fr.cov_t(Dv, (v, V_DN)))
    rhs = curvature(fr.cur_P1_jet, "bkg") - torsion(fr.tor_P2_jet, "bkg")
    out.append(lhs - rhs)

    Dss = fr.cov_s(Ds, (v, S_DN))  # [i,a,j,k]
    lhs = Dss - jet_linear("iakj->iajk", Dss)
    rhs = curvature(fr.cur_R3_jet, "jk") - torsion(fr.tor_R3_jet, "jk")
    out.append(lhs - rhs)

    lhs = fr.cov_v(Ds, (v, S_DN)) - jet_linear(
        "iakgj->iajkg", fr.cov_s(Dv, (v, V_DN)))
    rhs = (curvature(fr.cur_P2_jet, "jkg")
           - jet_einsum("iam,mjkg->iajkg", Ds, fr.Cc_jet, order=o)
           - torsion(fr.tor_P3_jet, "jkg"))
    out.append(lhs - rhs)

    Dvv = fr.cov_v(Dv, (v, V_DN))  # [i,a,j,b,k,g]
    lhs = Dvv - jet_linear("iakgjb->iajbkg", Dvv)
    rhs = curvature(fr.cur_S_jet, "jbkg") - torsion(fr.tor_S(o), "jbkg")
    out.append(lhs - rhs)
    return [fr.max_abs(r) for r in out]


def deflection_identity_residuals(ctx: GeometryContext, pt):
    """Max-abs residuals of the ten deflection identities at one point, or
    over a block of points a map of columns.

    raw_1..raw_5 are the Liouville identities of xs^i_a, met_1..met_5 those
    of its lowering x_low.  All should vanish; they exercise every covariant
    rule against the stored curvature and torsion arrays.
    """
    fr = frame(ctx, pt, 2)
    raw = fr.shared(_raw_jets)
    x_low, *met = fr.shared(_metrical_jets)
    res = {}
    for kind, X, D, up in (("raw", fr.xs_jet, raw, True),
                           ("met", x_low, met, False)):
        for k, r in enumerate(_liouville_identities(fr, X, D, up), 1):
            res[f"{kind}_{k}"] = r
    return _each(pt, res)


def bianchi_residuals(ctx: GeometryContext, pt):
    """Max-abs residuals of the four bracket identities tying torsion to
    curvature (the fifth is the vertical curvature's defining formula), at
    one point, or over a block of points a map of columns.
    """
    fr = frame(ctx, pt, 2)
    Cc = fr.Cc_jet
    Tt = fr.tor_T_jet
    res = {}

    # b1: A_{j,k} { R^l_{jak} + T^l_{aj|k} + C^{l(u)}_{k(m)} R^(m)_(u)aj } = 0
    core = (
        jet_linear("ljak->lajk", fr.cur_R2_jet)
        + fr.shared(Frame.cov_s, Tt, (S_UP, T_DN, S_DN))
        + jet_einsum("lkmu,muaj->lajk", Cc, fr.tor_R2_jet)
    )
    res["b1"] = fr.max_abs(core - jet_linear("lakj->lajk", core))

    # b2 ties the vertical derivative of the temporal torsion to the mixed
    # curvature block.  The bare covariant derivative T|^(e)_(p) carries two
    # C-corrections; both are cancelled explicitly so the remainder reduces
    # to the defining combination of P^{l (e)}_{ka(p)}:
    #   T^l_{ak}|^(e)_(p) + C^{m(e)}_{k(p)} T^l_{am} - C^{l(e)}_{m(p)} T^m_{ak}
    #   + P^{l (e)}_{ka(p)} + C^{l(e)}_{k(p)/a} - C^{l(u)}_{k(m)} P^(m)(e)_(u)a(p) = 0
    dT = fr.cov_v(Tt, (S_UP, T_DN, S_DN))
    r2 = (
        dT
        + jet_einsum("mkpe,lam->lakpe", Cc, Tt, order=dT.order)
        - jet_einsum("lmpe,mak->lakpe", Cc, Tt, order=dT.order)
        + jet_linear("lkape->lakpe", fr.cur_P1_jet)
        + jet_linear("lkpea->lakpe", fr.shared(Frame.cov_t, Cc, (S_UP, S_DN, V_DN)))
        - jet_einsum("lkmu,muape->lakpe", Cc, fr.tor_P2_jet)
    )
    res["b2"] = fr.max_abs(r2)

    # b3: sum_{i,j,k} { R^l_{ijk} - C^{l(u)}_{k(m)} R^(m)_(u)ij } = 0
    core = fr.cur_R3_jet - jet_einsum("lkmu,muij->lijk", Cc, fr.tor_R3_jet)
    s = _cyclic3(core, "ljki->lijk", "lkij->lijk")
    res["b3"] = fr.max_abs(s)

    # b4: A_{j,k} { P^{l (e)}_{jk(p)} + C^{l(e)}_{j(p)|k} + C^{l(u)}_{k(m)} P^(m)(e)_(u)j(p) } = 0
    core = (
        fr.cur_P2_jet
        + jet_linear("ljpek->ljkpe", fr.shared(Frame.cov_s, Cc, (S_UP, S_DN, V_DN)))
        + jet_einsum("lkmu,mujpe->ljkpe", Cc, fr.tor_P3_jet)
    )
    res["b4"] = fr.max_abs(core - jet_linear("lkjpe->ljkpe", core))
    return _each(pt, res)
