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
them there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff_engine import Jet, JetPoint, jet_einsum, jet_linear
from .errors import TorsionPreconditionError
from .geometry import GeometryContext, frame, nlc_torsion_free_check
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
    "maxwell_report",
    "require_torsion_free",
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
    gx = jet_einsum("pq,qm->pm", fr.g_jet, fr.xs_jet)
    return jet_einsum("am,pm->pa", fr.h_inv, gx)


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

    Raw blocks come from the expanded closed forms; metrical blocks from the
    generic covariant rules applied to the lowered field.  The two routes are
    tied together by metricity, which makes lowering commute with the
    derivatives; tests compare them directly.
    """
    fr = frame(ctx, pt, 2)
    p, n = ctx.p, ctx.n
    xs = pt.xs
    Gc = fr.Gc_jet.value
    Lc = fr.Lc_jet.value
    Cc = fr.Cc_jet.value
    Nv = fr.N_jet.value

    raw_t = np.einsum("imb,ma->iab", Gc, xs)
    raw_s = -Nv + np.einsum("imj,ma->iaj", Lc, xs)
    raw_v = np.einsum("ij,ab->iajb", np.eye(n), np.eye(p)) + np.einsum(
        "ijmb,ma->iajb", Cc, xs
    )

    x_low, Dbar, Dmet, dmet = fr.shared(_metrical_jets)
    return DeflectionSet(
        raw_temporal=raw_t,
        raw_spatial=raw_s,
        raw_vertical=raw_v,
        met_temporal=Dbar.value.copy(),
        met_spatial=Dmet.value.copy(),
        met_vertical=dmet.value.copy(),
        x_low=x_low.value.copy(),
    )


@dataclass(frozen=True)
class EmSet:
    """Electromagnetic components F[i, a, j] and f[i, a, j, b]."""

    F: np.ndarray
    f: np.ndarray


def em_tensors(ctx: GeometryContext, pt: JetPoint) -> EmSet:
    """The two antisymmetrized electromagnetic blocks at a point."""
    F, f = frame(ctx, pt, 2).shared(_em_jets)
    return EmSet(F=F.value.copy(), f=f.value.copy())


# --------------------------------------------------------------------------
# Maxwell residuals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualStats:
    """Aggregate of one residual block over components and sample points.

    max_rel divides each point's max-abs residual by max(1, that point's
    largest constituent-term magnitude), so tiny fields cannot pass for free.
    worst_point is the index of the first point that reached max_rel.
    """

    max_abs: float
    mean_abs: float
    max_rel: float
    scale: float
    worst_point: int = 0


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


def _residual_summary(residual: np.ndarray, terms) -> tuple:
    """(max |r|, sum |r|, size, scale) of one point's residual block r and
    its constituent terms: all that ``_Agg`` keeps of the point."""
    a = np.abs(residual)
    pt_max = float(a.max()) if a.size else 0.0
    pt_scale = max((float(np.max(np.abs(t))) for t in terms), default=0.0)
    return pt_max, float(a.sum()), a.size, pt_scale


class _Agg:
    """Running stats of one residual block; ``add`` or ``add_summary`` is
    called once per point."""

    __slots__ = ("max_abs", "sum_abs", "count", "max_rel", "scale",
                 "n_points", "worst_point")

    def __init__(self):
        self.max_abs = 0.0
        self.sum_abs = 0.0
        self.count = 0
        self.max_rel = 0.0
        self.scale = 0.0
        self.n_points = 0
        self.worst_point = 0

    def add(self, residual: np.ndarray, terms):
        self.add_summary(_residual_summary(residual, terms))

    def add_summary(self, summary):
        pt_max, pt_sum, size, pt_scale = summary
        self.max_abs = max(self.max_abs, pt_max)
        self.sum_abs += pt_sum
        self.count += size
        rel = pt_max / max(1.0, pt_scale)
        if rel > self.max_rel:
            self.max_rel = rel
            self.worst_point = self.n_points
        self.n_points += 1
        self.scale = max(self.scale, pt_scale)

    def stats(self) -> ResidualStats:
        return ResidualStats(
            max_abs=self.max_abs,
            mean_abs=self.sum_abs / self.count if self.count else 0.0,
            max_rel=self.max_rel,
            scale=self.scale,
            worst_point=self.worst_point,
        )


def _cyclic3(core: Jet, spec1: str, spec2: str) -> Jet:
    return core + jet_linear(spec1, core) + jet_linear(spec2, core)


def maxwell_at(ctx: GeometryContext, pt: JetPoint) -> list:
    """Residual summaries of the five equations at one point.

    Returns one (max |r|, sum |r|, size, scale) summary of each residual r
    and its constituent terms, in equation order.  The torsion precondition
    is not checked here; see :func:`maxwell_residuals`.
    """
    fr = frame(ctx, pt, 2)
    x_low, Dbar, Dmet, dmet = fr.shared(_metrical_jets)
    F, f = fr.shared(_em_jets)
    Tt = fr.tor_T_jet
    Cc = fr.Cc_jet
    R2 = fr.tor_R2_jet
    out = []

    # 1) F^(a)_(i)k/b  =  A_{i,k} { Dbar_{|k} + Dmet.T + dmet.R - [T_{|k} + C.R] x_low } / 2
    lhs = fr.cov_t(F, (V_DN, S_DN))  # [i,a,k,b]
    t1 = fr.cov_s(Dbar, (V_DN, T_DN))  # [i,a,b,k]
    t2 = jet_einsum("iam,mbk->iabk", Dmet, Tt)
    t3 = jet_einsum("iamu,mubk->iabk", dmet, R2)
    Tcs = fr.cov_s(Tt, (S_UP, T_DN, S_DN))  # [p,b,i,k]
    br = Tcs + jet_einsum("pkmu,mubi->pbik", Cc, R2)
    t4 = jet_einsum("pbik,pa->iabk", br, x_low)
    core = t1 + t2 + t3 - t4
    rhs = (core - jet_linear("iabk->kabi", core)) * 0.5
    res = lhs - jet_linear("iabk->iakb", rhs)
    out.append(_residual_summary(
        res.value, (lhs.value, t1.value, t2.value, t3.value, t4.value)))

    # 2) f^(a)(g)_(i)(k)/b = A_{i,k} { Dbar|^(g)_(k) + dmet.P2 - [dT/dxs + C.P2] x_low } / 2
    P2 = fr.tor_P2_jet
    lhs = fr.cov_t(f, (V_DN, V_DN))  # [i,a,k,g,b]
    u1 = fr.cov_v(Dbar, (V_DN, T_DN))  # [i,a,b,k,g]
    u2 = jet_einsum("iamu,mubkg->iabkg", dmet, P2)
    br = fr.ddxs(Tt) + jet_einsum("pkmu,mubig->pbikg", Cc, P2)
    u3 = jet_einsum("pbikg,pa->iabkg", br, x_low)
    core = u1 + u2 - u3
    rhs = (core - jet_linear("iabkg->kabig", core)) * 0.5
    res = lhs - jet_linear("iabkg->iakgb", rhs)
    out.append(_residual_summary(
        res.value, (lhs.value, u1.value, u2.value, u3.value)))

    # 3) sum_{i,j,k} F^(a)_(i)j|k = -(1/2) sum_{i,j,k} [C.x_low + dmet].R3
    R3 = fr.tor_R3_jet
    Fcs = fr.cov_s(F, (V_DN, S_DN))  # [i,a,j,k]
    lhs = _cyclic3(Fcs, "jaki->iajk", "kaij->iajk")
    B = jet_einsum("pimu,pa->iamu", Cc, x_low) + dmet
    s = jet_einsum("iamu,mujk->iajk", B, R3)
    rhs = _cyclic3(s, "jaki->iajk", "kaij->iajk") * (-0.5)
    res = lhs - rhs
    out.append(_residual_summary(res.value, (Fcs.value, s.value)))

    # 4) sum_{i,j,k} { F^(a)_(i)j|^(g)_(k) + f^(a)(g)_(i)(j)|k } = 0
    Fcv = fr.cov_v(F, (V_DN, S_DN))  # [i,a,j,k,g]
    fcs = fr.cov_s(f, (V_DN, V_DN))  # [i,a,j,g,k]
    both = Fcv + jet_linear("iajgk->iajkg", fcs)
    res = _cyclic3(both, "jakig->iajkg", "kaijg->iajkg")
    out.append(_residual_summary(res.value, (Fcv.value, fcs.value)))

    # 5) sum_{i,j,k} f^(a)(b)_(i)(j)|^(g)_(k) = 0
    fcv = fr.cov_v(f, (V_DN, V_DN))  # [i,a,j,b,k,g]
    res = _cyclic3(fcv, "jakbig->iajbkg", "kaibjg->iajbkg")
    out.append(_residual_summary(res.value, (fcv.value,)))
    return out


def maxwell_residuals(ctx: GeometryContext, pts) -> MaxwellReport:
    """Residuals of the five field equations over sample points.

    The equations assume a torsion-free spatial nonlinear connection, so that
    is checked first over the same points and violated preconditions raise
    with the witness point.
    """
    pts = list(pts)
    require_torsion_free(nlc_torsion_free_check(ctx, pts))
    return maxwell_report([maxwell_at(ctx, pt) for pt in pts])


def require_torsion_free(verdict):
    """Raise TorsionPreconditionError at the witness of a torsion verdict
    whose violation exceeds :data:`TORSION_LIMIT`."""
    if verdict.max_violation > TORSION_LIMIT:
        raise TorsionPreconditionError(
            "spatial nonlinear connection has torsion: "
            f"max |dN/dxs asymmetry| = {verdict.max_violation:.3e} "
            f"at point {verdict.witness[0]!r}, entry {verdict.witness[1]}",
            witness=verdict.witness[0],
            value=verdict.max_violation,
        )


def maxwell_report(per_point: list) -> MaxwellReport:
    """Fold per-point :func:`maxwell_at` results, in point order."""
    aggs = [_Agg() for _ in range(5)]
    for eqs in per_point:
        for agg, summary in zip(aggs, eqs):
            agg.add_summary(summary)
    equations = {
        name: agg.stats() for name, agg in zip(MaxwellReport.EQ_NAMES, aggs)
    }
    return MaxwellReport(equations=equations, n_points=len(per_point))


# --------------------------------------------------------------------------
# diagnostics: deflection and bracket identities
# --------------------------------------------------------------------------

def _liouville_identities(fr, X, D, up: bool) -> list:
    """Max-abs residuals of the five Ricci identities (module docstring) of
    the Liouville field ``X``, xs if ``up`` else x_low, whose deflections
    are D = (temporal, spatial, vertical)."""
    Dt, Ds, Dv = D
    v = V_UP if up else V_DN

    def curvature(block, rest):
        if up:
            return jet_einsum(f"ma,im{rest}->ia{rest}", X, block)
        return jet_einsum(f"ma,mi{rest}->ia{rest}", X, block) * (-1.0)

    def torsion(block, rest):
        return jet_einsum(f"iamu,mu{rest}->ia{rest}", Dv, block)

    out = []
    lhs = fr.cov_s(Dt, (v, T_DN)) - jet_linear(
        "iakb->iabk", fr.cov_t(Ds, (v, S_DN)))
    rhs = (curvature(fr.cur_R2_jet, "bk")
           - jet_einsum("iam,mbk->iabk", Ds, fr.tor_T_jet)
           - torsion(fr.tor_R2_jet, "bk"))
    out.append(lhs - rhs)

    lhs = fr.cov_v(Dt, (v, T_DN)) - jet_linear(
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
           - jet_einsum("iam,mjkg->iajkg", Ds, fr.Cc_jet)
           - torsion(fr.tor_P3_jet, "jkg"))
    out.append(lhs - rhs)

    Dvv = fr.cov_v(Dv, (v, V_DN))  # [i,a,j,b,k,g]
    lhs = Dvv - jet_linear("iakgjb->iajbkg", Dvv)
    rhs = curvature(fr.cur_S_jet, "jbkg") - torsion(fr.tor_S_jet, "jbkg")
    out.append(lhs - rhs)
    return [float(np.max(np.abs(r.value))) for r in out]


def deflection_identity_residuals(ctx: GeometryContext, pt: JetPoint) -> dict:
    """Max-abs residuals of the ten deflection identities at one point.

    raw_1..raw_5 are the Liouville identities of xs^i_a, met_1..met_5 those
    of its lowering x_low.  All should vanish; they exercise every covariant
    rule against the stored curvature and torsion arrays.
    """
    fr = frame(ctx, pt, 2)
    xs = fr.xs_jet
    raw = (fr.cov_t(xs, (V_UP,)), fr.cov_s(xs, (V_UP,)), fr.cov_v(xs, (V_UP,)))
    x_low, *met = fr.shared(_metrical_jets)
    res = {}
    for kind, X, D, up in (("raw", xs, raw, True), ("met", x_low, met, False)):
        for k, r in enumerate(_liouville_identities(fr, X, D, up), 1):
            res[f"{kind}_{k}"] = r
    return res


def bianchi_residuals(ctx: GeometryContext, pt: JetPoint) -> dict:
    """Max-abs residuals of the four bracket identities tying torsion to
    curvature (the fifth is the vertical curvature's defining formula).
    """
    fr = frame(ctx, pt, 2)
    Cc = fr.Cc_jet
    Tt = fr.tor_T_jet
    res = {}

    # b1: A_{j,k} { R^l_{jak} + T^l_{aj|k} + C^{l(u)}_{k(m)} R^(m)_(u)aj } = 0
    core = (
        jet_linear("ljak->lajk", fr.cur_R2_jet)
        + fr.cov_s(Tt, (S_UP, T_DN, S_DN))
        + jet_einsum("lkmu,muaj->lajk", Cc, fr.tor_R2_jet)
    )
    res["b1"] = float(np.max(np.abs((core - jet_linear("lakj->lajk", core)).value)))

    # b2 ties the vertical derivative of the temporal torsion to the mixed
    # curvature block.  The bare covariant derivative T|^(e)_(p) carries two
    # C-corrections; both are cancelled explicitly so the remainder reduces
    # to the defining combination of P^{l (e)}_{ka(p)}:
    #   T^l_{ak}|^(e)_(p) + C^{m(e)}_{k(p)} T^l_{am} - C^{l(e)}_{m(p)} T^m_{ak}
    #   + P^{l (e)}_{ka(p)} + C^{l(e)}_{k(p)/a} - C^{l(u)}_{k(m)} P^(m)(e)_(u)a(p) = 0
    r2 = (
        fr.cov_v(Tt, (S_UP, T_DN, S_DN))
        + jet_einsum("mkpe,lam->lakpe", Cc, Tt)
        - jet_einsum("lmpe,mak->lakpe", Cc, Tt)
        + jet_linear("lkape->lakpe", fr.cur_P1_jet)
        + jet_linear("lkpea->lakpe", fr.cov_t(Cc, (S_UP, S_DN, V_DN)))
        - jet_einsum("lkmu,muape->lakpe", Cc, fr.tor_P2_jet)
    )
    res["b2"] = float(np.max(np.abs(r2.value)))

    # b3: sum_{i,j,k} { R^l_{ijk} - C^{l(u)}_{k(m)} R^(m)_(u)ij } = 0
    core = fr.cur_R3_jet - jet_einsum("lkmu,muij->lijk", Cc, fr.tor_R3_jet)
    s = _cyclic3(core, "ljki->lijk", "lkij->lijk")
    res["b3"] = float(np.max(np.abs(s.value)))

    # b4: A_{j,k} { P^{l (e)}_{jk(p)} + C^{l(e)}_{j(p)|k} + C^{l(u)}_{k(m)} P^(m)(e)_(u)j(p) } = 0
    core = (
        fr.cur_P2_jet
        + jet_linear("ljpek->ljkpe", fr.cov_s(Cc, (S_UP, S_DN, V_DN)))
        + jet_einsum("lkmu,mujpe->ljkpe", Cc, fr.tor_P3_jet)
    )
    res["b4"] = float(np.max(np.abs((core - jet_linear("lkjpe->ljkpe", core)).value)))
    return res
