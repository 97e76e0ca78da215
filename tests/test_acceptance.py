"""Acceptance sweep: the thirteen delivery criteria, one visible line each.

Each test computes its criterion end to end, prints a single
"criterion NN PASS/FAIL: detail" line past the capture (so the run log
always shows the full scoreboard), then asserts.  Shared heavy work (the
100-point residual sweeps) lives in module-scoped fixtures.
"""
import json

import numpy as np
import pytest

from jetlag.cli import _grad_fields, main
from jetlag.diff_engine import JetPoint, check_grad, float_point
from jetlag.errors import EvalDomainError, ParseError
from jetlag.em_field import (
    bianchi_residuals,
    deflection_identity_residuals,
    em_tensors,
    maxwell_residuals,
)
from jetlag.field_expr import ast_equal, eval_field, parse_field, render
from jetlag.geometry import (
    cartan_connection,
    curvature_antisymmetry_residuals,
    curvature_set,
    frame,
    kronecker_regularity_check,
    metricity_residuals,
    nlc_torsion_free_check,
    ricci_and_scalars,
    sample_points,
    torsion_set,
)
from jetlag.gravity import (
    _divergences,
    _laws_at,
    _prop_identities_at,
    _tilde_einstein_jets,
    conservation_residuals,
    einstein_blocks,
    natural_stress_energy,
)
from jetlag.spaces import (
    build_space,
    make_conformal,
    make_flat,
    make_optic,
    make_quadratic,
    optic_inverse_closed,
)

import support
from oracles import h_einstein_oracle
from test_geometry import crafted_torsional_ctx
from parser_corpus import (
    CORPUS_DIMS,
    CORPUS_POINT,
    DOMAIN_CASES,
    ERROR_CASES,
    EVAL_CASES,
)


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------
# the five nontrivial benchmark spaces (curved h everywhere)
# --------------------------------------------------------------------------

OPTIC_N = "1 + 0.5/(1+x[1]^2)"       # stays > 1, so FD probes never leave
OPTIC_X = ["1", "1 - t[2]"]          # the index domain


def _phi22_np(x):
    x1, x2 = x
    return np.array(
        [[1 + 0.3 * x2 * x2, 0.1 * x1 * x2], [0.1 * x1 * x2, 2 + 0.2 * x1 * x1]]
    )


@pytest.fixture(scope="module")
def spaces5():
    return {
        "quadratic": make_quadratic(support.H22_SRC, support.G_XDEP_SRC),
        "conformal-i": make_conformal(
            support.H22_SRC,
            support.PHI22_SRC,
            "i",
            [["t[1]", "x[1]"], ["0", "t[2]*x[2]"]],
        ),
        "conformal-ii": make_conformal(
            support.H22_SRC, support.PHI22_SRC, "ii", ["x[2]", "x[1]"]
        ),
        "conformal-iii": make_conformal(
            support.H22_SRC, support.PHI22_SRC, "iii", ["t[1]", "1"]
        ),
        "optic": make_optic(support.H22_SRC, support.PHI22_SRC, OPTIC_N, OPTIC_X),
    }


@pytest.fixture(scope="module")
def residual_sweep(spaces5):
    """One 100-point pass per space feeding criteria 2 and 3."""
    met, anti = {}, {}
    for i, (name, ctx) in enumerate(spaces5.items()):
        pts = sample_points(ctx, 100, seed=1000 + i, box_xs=(-0.5, 0.5))
        m = a = 0.0
        for pt in pts:
            m = max(m, max(metricity_residuals(ctx, pt).values()))
            a = max(a, max(curvature_antisymmetry_residuals(ctx, pt).values()))
        met[name], anti[name] = m, a
    return met, anti


# --------------------------------------------------------------------------
# 1: flat baseline
# --------------------------------------------------------------------------

def _flat_worst(ctx, pts):
    worst = 0.0

    def upd(*arrays):
        nonlocal worst
        for a in arrays:
            worst = max(worst, float(np.max(np.abs(a))))

    for pt in pts:
        C = cartan_connection(ctx, pt)
        upd(C.Htc, C.Gc, C.Lc, C.Cc)
        ts = torsion_set(ctx, pt)
        upd(ts.T, ts.P1, ts.P2, ts.P3, ts.R1, ts.R2, ts.R3, ts.S)
        cs = curvature_set(ctx, pt)
        upd(cs.H, cs.R1, cs.R2, cs.R3, cs.P1, cs.P2, cs.S)
        ric, sc = ricci_and_scalars(ctx, pt)
        upd(ric.H, ric.P1, ric.P2, ric.P3, ric.S, ric.R_mt, ric.R_mm)
        upd(np.array([sc.H, sc.R, sc.S, sc.total]))
        em = em_tensors(ctx, pt)
        upd(em.F, em.f)
        eb = einstein_blocks(ctx, pt)
        upd(eb.tt, eb.ss, eb.vv, eb.st, eb.vt, eb.sv, eb.vs,
            eb.zero_ts, eb.zero_tv)
        upd(np.array(list(metricity_residuals(ctx, pt).values())))
        upd(np.array(list(curvature_antisymmetry_residuals(ctx, pt).values())))
        upd(np.array(list(deflection_identity_residuals(ctx, pt).values())))
        upd(np.array(list(bianchi_residuals(ctx, pt).values())))
    mx = maxwell_residuals(ctx, pts)
    upd(np.array([s.max_abs for s in mx.equations.values()]))
    cons = conservation_residuals(ctx, pts)
    upd(np.array([cons.laws[nm].max_abs for nm in cons.LAW_NAMES]))
    return worst


def test_criterion_01_flat_baseline(capsys):
    w22 = _flat_worst(make_flat(2, 2), sample_points(make_flat(2, 2), 10, seed=101))
    w33 = _flat_worst(make_flat(3, 3), sample_points(make_flat(3, 3), 5, seed=102))
    worst = max(w22, w33)
    ok = worst <= 1e-12
    _line(capsys, 1, ok,
          f"flat (2,2) and (3,3): worst component/residual {worst:.2e} "
          f"(tol 1e-12)")
    assert ok, worst


# --------------------------------------------------------------------------
# 2 + 3: metricity and curvature antisymmetries, 100 points per space
# --------------------------------------------------------------------------

def test_criterion_02_metricity(capsys, residual_sweep):
    met, _ = residual_sweep
    worst = max(met.values())
    ok = worst <= 1e-8
    detail = ", ".join(f"{k} {v:.1e}" for k, v in met.items())
    _line(capsys, 2, ok, f"six metricity residuals over 100 pts/space: "
                         f"{detail} (tol 1e-8)")
    assert ok, met


def test_criterion_03_curvature_antisymmetries(capsys, residual_sweep):
    _, anti = residual_sweep
    worst = max(anti.values())
    ok = worst <= 1e-9
    detail = ", ".join(f"{k} {v:.1e}" for k, v in anti.items())
    _line(capsys, 3, ok, f"seven antisymmetry identities over 100 pts/space: "
                         f"{detail} (tol 1e-9)")
    assert ok, anti


# --------------------------------------------------------------------------
# 4: optic inverse, documented-discrepancy branch
# --------------------------------------------------------------------------

def test_criterion_04_optic_inverse(capsys, spaces5):
    ctx = spaces5["optic"]
    pts = sample_points(ctx, 100, seed=404, box_xs=(-0.5, 0.5))
    ident_dev = stated_dev = minus_dev = 0.0
    for pt in pts:
        g = frame(ctx, pt, 0).g_jet.value
        ginv = np.linalg.inv(g)
        ident_dev = max(ident_dev,
                        float(np.max(np.abs(g @ ginv - np.eye(2)))))
        stated = optic_inverse_closed(ctx, pt)
        scale = max(1.0, float(np.max(np.abs(ginv))))
        stated_dev = max(stated_dev,
                         float(np.max(np.abs(stated - ginv))) / scale)
        # the rank-one update with the opposite sign: phi^{-1} - q Y Y
        # instead of the stated phi^{-1} + q Y Y
        phi = _phi22_np(pt.x)
        nval = 1 + 0.5 / (1 + pt.x[0] ** 2)
        Xv = np.array([1.0, 1 - pt.t[1]])
        Y = np.einsum("im,mu,u->i", phi, pt.xs, Xv)
        phi_inv = np.linalg.inv(phi)
        Y_up = phi_inv @ Y
        c = 1.0 - 1.0 / nval
        q = c / (1.0 + c * float(Y_up @ Y))
        minus = phi_inv - q * np.outer(Y_up, Y_up)
        minus_dev = max(minus_dev,
                        float(np.max(np.abs(minus - ginv))) / scale)
    # the stated closed form does not reproduce the inverse; the numeric
    # inverse is self-consistent and the sign-flipped update matches it,
    # so the discrepancy is exactly the sign of the rank-one term
    ok = ident_dev <= 1e-10 and minus_dev <= 1e-10 and stated_dev > 1e-3
    _line(capsys, 4, ok,
          f"documented discrepancy branch: stated form deviates "
          f"{stated_dev:.2e} rel; numeric inverse self-consistent to "
          f"{ident_dev:.1e}; sign-flipped rank-one update matches to "
          f"{minus_dev:.1e} (tol 1e-10)")
    assert ok, (ident_dev, stated_dev, minus_dev)


# --------------------------------------------------------------------------
# 5: Maxwell residuals, 50 points, plus direction-independent reduction
# --------------------------------------------------------------------------

def test_criterion_05_maxwell(capsys, spaces5):
    worst = {}
    for name in ("optic", "conformal-i"):
        rep = maxwell_residuals(
            spaces5[name],
            sample_points(spaces5[name], 50, seed=505, box_xs=(-0.5, 0.5)),
        )
        worst[name] = max(s.max_rel for s in rep.equations.values())

    # direction-independent space: g(x) with the same phi connection
    from jetlag.geometry import ChristoffelOfPhi, DirectMetric, GeometryContext

    phi = support.grid(support.PHI22_SRC, (2, 2), ("x",))
    ctx_di = GeometryContext(
        2, 2, support.grid(support.H22_SRC, (2, 2), ("t",)),
        DirectMetric(phi), ChristoffelOfPhi(phi),
    )
    pts = sample_points(ctx_di, 50, seed=506)
    rep = maxwell_residuals(ctx_di, pts)
    worst["direction-independent"] = max(
        s.max_rel for s in rep.equations.values()
    )
    f_max = max(
        float(np.max(np.abs(em_tensors(ctx_di, pt).f))) for pt in pts
    )
    # with f identically zero the fourth equation is the cyclic vertical
    # derivative of F alone, so its residual measures that reduction
    mixed = rep.equations["mixed_cyclic"].max_rel
    ok = (
        max(worst.values()) <= 1e-7 and f_max <= 1e-12 and mixed <= 1e-8
    )
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _line(capsys, 5, ok,
          f"five equations at 50 pts: {detail} (tol 1e-7); reduction: "
          f"max|f| {f_max:.1e}, cyclic v-derivative of F {mixed:.1e} "
          f"(tol 1e-8)")
    assert ok, (worst, f_max, mixed)


# --------------------------------------------------------------------------
# 6: torsion-free prerequisite, both canonical connections + counterexample
# --------------------------------------------------------------------------

def test_criterion_06_torsion_free(capsys, spaces5):
    vq = nlc_torsion_free_check(
        spaces5["quadratic"], sample_points(spaces5["quadratic"], 20, seed=606)
    )
    vp = nlc_torsion_free_check(
        spaces5["conformal-ii"],
        sample_points(spaces5["conformal-ii"], 20, seed=607),
    )
    bad = crafted_torsional_ctx()
    vb = nlc_torsion_free_check(bad, sample_points(bad, 20, seed=608))
    ok = (
        vq.max_violation <= 1e-9
        and vp.max_violation <= 1e-9
        and vb.max_violation > 1e-9
        and vb.witness is not None
    )
    _line(capsys, 6, ok,
          f"canonical connections torsion-free (max {vq.max_violation:.1e}, "
          f"{vp.max_violation:.1e}); crafted asymmetric connection refused "
          f"with witness (violation {vb.max_violation:.2e})")
    assert ok, (vq, vp, vb)


# --------------------------------------------------------------------------
# 7: stress-energy <-> trace-adjusted form round trip at (3,3)
# --------------------------------------------------------------------------

def test_criterion_07_natural_form_roundtrip(capsys):
    worst_rt = worst_tr = 0.0
    for ctx in (support.mixed33_ctx(), support.xdep33_ctx()):
        for pt in sample_points(ctx, 3, seed=707, box_xs=(-0.5, 0.5)):
            rep = natural_stress_energy(ctx, pt)
            worst_rt = max(worst_rt, rep.roundtrip_residual)
            worst_tr = max(worst_tr, rep.trace_residual)
    ok = worst_rt <= 1e-10 and worst_tr <= 1e-9
    _line(capsys, 7, ok,
          f"(3,3) round trip {worst_rt:.2e} (tol 1e-10); trace recoveries "
          f"{worst_tr:.2e} (tol 1e-9)")
    assert ok, (worst_rt, worst_tr)


# --------------------------------------------------------------------------
# 8: curved-h flat-g reduction to the classical contracted Bianchi identity
# --------------------------------------------------------------------------

def test_criterion_08_contracted_bianchi_reduction(capsys):
    ctx = support.curved_h_ctx()
    worst_law = worst_id = 0.0
    for pt in sample_points(ctx, 3, seed=808):
        fr = frame(ctx, pt, 3)
        law1 = _laws_at(fr)[0][0]
        tilde = _tilde_einstein_jets(fr)
        displayed, _ = _prop_identities_at(fr, _divergences(fr, *tilde[1::2]))
        id1 = displayed[0][0]
        _, div = h_einstein_oracle(support.h22_at, np.asarray(pt.t))
        worst_law = max(worst_law, float(np.max(np.abs(law1 - div))))
        worst_id = max(worst_id, float(np.max(np.abs(id1 - div))))
    ok = worst_law <= 1e-7 and worst_id <= 1e-7
    _line(capsys, 8, ok,
          f"first conservation law vs h-only oracle {worst_law:.2e}; first "
          f"divergence identity vs oracle {worst_id:.2e} (tol 1e-7)")
    assert ok, (worst_law, worst_id)


# --------------------------------------------------------------------------
# 9: conservation laws, direction-independent spaces + flagged reporting
# --------------------------------------------------------------------------

def test_criterion_09_conservation(capsys):
    worst = 0.0
    oks = []
    for name, ctx in (
        ("xdep (2,2)", support.xdep_g_ctx()),
        ("curved-h (2,2)", support.curved_h_ctx()),
        ("xdep (3,3)", support.xdep33_ctx()),
    ):
        rep = conservation_residuals(
            ctx, sample_points(ctx, 30, seed=909, box_xs=(-0.5, 0.5)),
        )
        oks.append(
            rep.direction_independent
            and all(st.max_rel < 1e-6 for st in rep.laws.values())
        )
        worst = max(worst, max(rep.laws[nm].max_rel for nm in rep.LAW_NAMES))
    # direction-dependent space: computed and reported, pass or flagged
    mixed = conservation_residuals(
        support.mixed22_ctx(),
        sample_points(support.mixed22_ctx(), 10, seed=910, box_xs=(-0.5, 0.5)),
    )
    statuses = {nm: "pass" if st.max_rel < 1e-6 else "flagged"
                for nm, st in mixed.laws.items()}
    reported = all(np.isfinite(st.max_rel) for st in mixed.laws.values())
    flags = ", ".join(f"{k}={v}" for k, v in statuses.items())
    ok = all(oks) and worst <= 1e-6 and reported
    _line(capsys, 9, ok,
          f"three laws on direction-independent spaces, 30 pts: max rel "
          f"{worst:.2e} (tol 1e-6); direction-dependent space reported "
          f"[{flags}]")
    assert ok, (oks, worst, statuses)


# --------------------------------------------------------------------------
# 10: taylor vs central-FD on every built-in field
# --------------------------------------------------------------------------

def test_criterion_10_diff_cross_check(capsys, spaces5):
    custom = build_space(
        "custom",
        {
            "h": support.H22_SRC,
            "lagrangian": "(1 + x[1]^2)*(xs[1][1]^2 + xs[1][2]^2)"
                          " + (1 + x[2]^2)*(xs[2][1]^2 + xs[2][2]^2)",
            "nlc": {"kind": "quadratic", "n": 2},
        },
    )
    ctxs = dict(spaces5, custom=custom, flat=make_flat(2, 2))
    seen, worst, n_fields = set(), 0.0, 0
    nan_fields = []
    for i, ctx in enumerate(ctxs.values()):
        pts = sample_points(ctx, 20, seed=1010 + i, box_xs=(-0.5, 0.5))
        for name, fld in _grad_fields(ctx):
            key = getattr(fld, "src", name)
            if key in seen:
                continue
            seen.add(key)
            rep = check_grad(fld, pts)
            n_fields += 1
            worst = max(worst, rep.max_rel_dev)
            if rep.nan_flags:
                nan_fields.append(name)
    ok = worst <= 1e-5 and not nan_fields
    _line(capsys, 10, ok,
          f"{n_fields} distinct fields, first+second order at 20 pts each: "
          f"max rel deviation {worst:.2e} (tol 1e-5)")
    assert ok, (worst, nan_fields)


# --------------------------------------------------------------------------
# 11: regularity classification
# --------------------------------------------------------------------------

def test_criterion_11_regularity(capsys, spaces5):
    ctx = spaces5["quadratic"]
    pts = sample_points(ctx, 10, seed=1111)
    v = kronecker_regularity_check(ctx, pts, lagrangian=ctx.lagrangian)
    ghat_dev = max(
        float(np.max(np.abs(gh - frame(ctx, pt, 0).g_jet.value)))
        for pt, gh in zip(pts, v.ghats)
    )
    quartic = build_space(
        "custom",
        {
            "h": support.H22_SRC,
            "lagrangian": "(xs[1][1]^2 + xs[1][2]^2 + xs[2][1]^2"
                          " + xs[2][2]^2)^2",
            "nlc": {"kind": "quadratic", "n": 2},
        },
    )
    vq = kronecker_regularity_check(quartic, sample_points(quartic, 8, seed=1112))
    ok = (
        v.max_deviation <= 1e-9
        and ghat_dev <= 1e-9
        and vq.max_deviation > 1e-9
        and vq.witness is not None
    )
    _line(capsys, 11, ok,
          f"quadratic L regular, recovered metric deviation {ghat_dev:.2e} "
          f"(tol 1e-9); quartic L irregular with witness "
          f"(deviation {vq.max_deviation:.2e})")
    assert ok, (v.max_deviation, ghat_dev, vq.max_deviation)


# --------------------------------------------------------------------------
# 12: parser corpus + fixpoint over the built-in space expressions
# --------------------------------------------------------------------------

def test_criterion_12_parser(capsys, spaces5):
    n_cases = len(EVAL_CASES) + len(ERROR_CASES) + len(DOMAIN_CASES)
    fpt = float_point(CORPUS_POINT)
    for src, want in EVAL_CASES:
        got = float(eval_field(parse_field(src, CORPUS_DIMS), fpt))
        assert got == pytest.approx(want, abs=1e-12), src
    for src in ERROR_CASES:
        with pytest.raises(ParseError):
            parse_field(src, CORPUS_DIMS)
    for src in DOMAIN_CASES:
        with pytest.raises(EvalDomainError):
            eval_field(parse_field(src, CORPUS_DIMS), fpt)

    specimens = []
    for ctx in spaces5.values():
        specimens.extend(f.src for f in ctx.g_source.entries.ravel())
        specimens.extend(f.src for f in ctx.h.ravel())
        if getattr(ctx, "lagrangian", None) is not None:
            specimens.append(ctx.lagrangian.src)
    for src in specimens:
        a1 = parse_field(src, (2, 2))
        printed = render(a1)
        a2 = parse_field(printed, (2, 2))
        assert ast_equal(a1, a2), src
        assert render(a2) == printed, src
    ok = n_cases >= 40
    _line(capsys, 12, ok,
          f"grammar corpus of {n_cases} cases passed; parse-print-parse "
          f"fixpoint on {len(specimens)} built-in expressions")
    assert ok, n_cases


# --------------------------------------------------------------------------
# 13: CLI report determinism
# --------------------------------------------------------------------------

def test_criterion_13_cli_determinism(capsys, tmp_path):
    cfgs = {
        "flat": {
            "p": 2, "n": 2, "space": "flat",
            "points": {"seed": 1, "count": 10},
            "checks": ["metricity", "antisymmetry", "torsion", "curvature",
                       "maxwell", "einstein", "conservation", "regularity",
                       "grad-check"],
        },
        "optic": {
            "p": 2, "n": 2,
            "space": {"name": "optic", "params": {
                "h": support.H22_SRC,
                "phi": support.PHI22_SRC,
                "n": OPTIC_N, "X": OPTIC_X}},
            "points": {"seed": 7, "count": 6, "box": {"xs": [-0.5, 0.5]}},
            "checks": ["metricity", "torsion", "maxwell", "einstein",
                       "conservation"],
        },
    }
    ok = True
    for name, doc in cfgs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.json"
            main(["run", str(cfg), "--out", str(out)])
            lines = out.read_text().splitlines()
            outs.append([l for l in lines if "wall_time_s" not in l])
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 50
    capsys.readouterr()  # swallow the per-check lines of the four runs
    _line(capsys, 13, ok,
          "repeated runs byte-identical apart from the wall-time entry "
          "(flat full suite and optic subset)")
    assert ok
