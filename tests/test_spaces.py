"""Built-in space constructors: fixtures, reductions, and builder plumbing."""

import numpy as np
import pytest

from jetlag.diff_engine import JetPoint, seed_point
from jetlag.errors import (
    ConfigError,
    FieldDomainError,
    RegularityViolationError,
)
from jetlag.field_expr import ExprField, ast_equal, eval_field, parse_field, render
from jetlag.geometry import (
    ChristoffelOfPhi,
    DirectMetric,
    GeometryContext,
    cartan_connection,
    frame,
    kronecker_regularity_check,
    metricity_residuals,
    nlc_torsion_free_check,
    sample_points,
    spatial_nlc,
)
from jetlag.spaces import (
    build_space,
    make_conformal,
    make_flat,
    make_optic,
    make_quadratic,
    optic_inverse_closed,
    quadratic_lagrangian,
)

H2 = [["1", "0"], ["0", "1"]]
GQ = [["1", "0"], ["0", "x[1]^2"]]
PHI_NT = [["1 + x[2]^2", "x[1]*x[2]"], ["x[1]*x[2]", "2"]]
PHI_O = [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]]


def bits(a):
    # uint64 view: equality here means bitwise-identical floats
    return np.asarray(a, dtype=float).view(np.uint64)


def direct_phi_ctx(phi_src):
    phi = np.empty((2, 2), dtype=object)
    h = np.empty((2, 2), dtype=object)
    for i in range(2):
        for j in range(2):
            phi[i, j] = ExprField(phi_src[i][j], (2, 2), deps=("x",))
            h[i, j] = ExprField("1" if i == j else "0", (2, 2), deps=("t",))
    return GeometryContext(2, 2, h, DirectMetric(phi), ChristoffelOfPhi(phi))


def connection_blocks(ctx, pt):
    C = cartan_connection(ctx, pt)
    return (C.Htc, C.Gc, C.Lc, C.Cc)


@pytest.mark.parametrize("p,n", [(2, 2), (1, 3), (3, 3)])
def test_flat_connection_identically_zero(p, n):
    ctx = make_flat(p, n)
    for pt in sample_points(ctx, 5, seed=11):
        for blk in connection_blocks(ctx, pt):
            assert np.max(np.abs(blk)) == 0.0


def test_quadratic_nlc_hand_values():
    # g = diag(1, x1^2): gamma^2_{12} = 1/x1, gamma^1_{22} = -x1, dg/dt = 0
    ctx = make_quadratic(H2, GQ)
    pt = JetPoint.of([0.3, -0.2], [1.7, 0.4], [[0.5, -0.1], [0.2, 0.9]])
    N = spatial_nlc(ctx, pt)
    x1 = 1.7
    Nexp = np.zeros((2, 2, 2))
    for a in range(2):
        Nexp[1, a, 0] = (1.0 / x1) * pt.xs[1, a]
        Nexp[1, a, 1] = (1.0 / x1) * pt.xs[0, a]
        Nexp[0, a, 1] = -x1 * pt.xs[1, a]
    assert np.max(np.abs(N - Nexp)) < 1e-14


def test_quadratic_u_f_leave_connection_unchanged():
    ctx0 = make_quadratic(H2, GQ)
    ctx1 = make_quadratic(H2, GQ, U=[["t[1]", "0"], ["x[2]", "1"]], F="t[1]*x[1]")
    for pt in sample_points(ctx0, 4, seed=5):
        for b0, b1 in zip(connection_blocks(ctx0, pt), connection_blocks(ctx1, pt)):
            assert np.array_equal(b0, b1)


def test_quadratic_lagrangian_regular_with_ghat_equal_g():
    ctx = make_quadratic(H2, GQ, U=[["t[1]", "0"], ["x[2]", "1"]], F="t[1]*x[1]")
    pts = sample_points(ctx, 10, seed=7)
    verdict = kronecker_regularity_check(ctx, pts, lagrangian=ctx.lagrangian)
    assert verdict.max_deviation < 1e-12
    for pt, ghat in zip(pts, verdict.ghats):
        gval = frame(ctx, pt, 0).g_jet.value
        assert np.max(np.abs(ghat - gval)) < 1e-12


def test_quadratic_identity_data_equals_flat():
    ctx = make_quadratic(H2, [["1", "0"], ["0", "1"]])
    flat = make_flat(2, 2)
    for pt in sample_points(flat, 4, seed=3):
        assert np.array_equal(
            frame(ctx, pt, 1).g_jet.value, frame(flat, pt, 1).g_jet.value
        )
        for a, b in zip(connection_blocks(ctx, pt), connection_blocks(flat, pt)):
            assert np.array_equal(a, b)


def test_quadratic_refuses_fibre_dependent_g():
    with pytest.raises(RegularityViolationError) as exc:
        make_quadratic(H2, [["1", "0"], ["0", "1 + xs[1][1]^2"]])
    assert exc.value.witness is not None


def test_conformal_ii_fixture_value():
    # A = (1, 0), phi = delta: sigma = xs^1_1 at the chosen point, so g = e^0.5 delta
    ctx = make_conformal(H2, [["1", "0"], ["0", "1"]], "ii", ["1", "0"])
    pt = JetPoint.of([0.0, 0.0], [0.0, 0.0], [[0.5, 0.0], [0.0, 0.0]])
    gv = frame(ctx, pt, 0).g_jet.value
    assert np.max(np.abs(gv - np.exp(0.5) * np.eye(2))) < 1e-15


def test_conformal_sigma_zero_reduces_bitwise():
    ctx0 = make_conformal(H2, PHI_NT, "i", [["0", "0"], ["0", "0"]])
    ctx_phi = direct_phi_ctx(PHI_NT)
    for pt in sample_points(ctx_phi, 6, seed=9):
        a = frame(ctx0, pt, 0).g_jet.value
        b = frame(ctx_phi, pt, 0).g_jet.value
        assert np.array_equal(bits(a), bits(b))


@pytest.mark.parametrize(
    "variant,param",
    [
        ("i", [["t[1]", "x[1]"], ["0", "t[2]*x[2]"]]),
        ("ii", ["x[2]", "x[1]"]),
        ("iii", ["t[1]", "1"]),
    ],
)
def test_conformal_variant_metricity_and_torsion(variant, param):
    ctx = make_conformal([["1", "0"], ["0", "1 + t[1]^2"]], PHI_NT, variant, param)
    pts = sample_points(ctx, 6, seed=13, box_xs=(-0.4, 0.4))
    met = max(max(metricity_residuals(ctx, pt).values()) for pt in pts)
    assert met < 1e-8
    assert nlc_torsion_free_check(ctx, pts).max_violation <= 1e-9


def test_optic_fixture_inverse_discrepancy():
    # diag fixture isolates the 1/n^2 slot: numeric inverse gives 2/3 while
    # the stated closed form gives 4/3, a strict > 0.6 gap at this point
    ctx = make_optic(H2, [["1", "0"], ["0", "1"]], "2", ["1", "0"])
    pt = JetPoint.of([0.0, 0.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    gv = frame(ctx, pt, 0).g_jet.value[0]
    assert np.max(np.abs(gv - np.diag([1.5, 1.0]))) < 1e-15
    closed = optic_inverse_closed(ctx, pt)
    numeric = np.linalg.inv(gv)
    assert np.max(np.abs(numeric - np.diag([2.0 / 3.0, 1.0]))) < 1e-15
    assert abs(closed[0, 0] - 4.0 / 3.0) < 1e-15
    assert closed[0, 1] == 0.0 and numeric[0, 1] == 0.0
    assert float(np.max(np.abs(closed - numeric))) > 0.6


@pytest.mark.parametrize(
    "n_src,X_src",
    [("1", ["t[1]", "1"]), ("2 + x[1]^2", ["0", "0"])],
    ids=["n=1", "X=0"],
)
def test_optic_reduces_bitwise_to_phi_space(n_src, X_src):
    ctx = make_optic(H2, PHI_O, n_src, X_src)
    ctx_phi = direct_phi_ctx(PHI_O)
    for pt in sample_points(ctx_phi, 6, seed=21):
        a = frame(ctx, pt, 0).g_jet.value
        b = frame(ctx_phi, pt, 0).g_jet.value
        assert np.array_equal(bits(a), bits(b))


def test_optic_positive_definite_and_metric():
    ctx = make_optic(H2, PHI_O, "1 + exp(x[1])", ["t[1]", "1 - t[2]"])
    pts = sample_points(ctx, 30, seed=33)
    for pt in pts:
        eig = np.linalg.eigvalsh(frame(ctx, pt, 0).g_jet.value)
        assert np.min(eig) > 0.0
    met = max(max(metricity_residuals(ctx, pt).values()) for pt in pts[:8])
    assert met < 1e-8


def test_optic_index_below_one_raises():
    ctx = make_optic(H2, [["1", "0"], ["0", "1"]], "x[1]", ["1", "0"])
    pt = JetPoint.of([0.0, 0.0], [0.25, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(FieldDomainError) as exc:
        frame(ctx, pt, 0).g_jet
    assert exc.value.witness is not None
    assert exc.value.value == 0.25


def test_optic_index_guard_runs_before_the_entry():
    # at n = 0 the entry's 1/n would divide by zero; the guard names n first
    ctx = make_optic(H2, [["1", "0"], ["0", "1"]], "x[1]", ["1", "0"])
    pt = JetPoint.of([0.0, 0.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    for order in (0, 2):
        with pytest.raises(FieldDomainError) as exc:
            frame(ctx, pt, order).g_jet
        assert str(exc.value) == "refraction index 0.0 < 1 while evaluating 'g[1][1]'"


def test_build_space_every_kind():
    assert isinstance(build_space("flat", {"p": 2, "n": 2}), GeometryContext)
    c = build_space("quadratic", {"h": H2, "g": GQ, "F": "t[1]"})
    assert c.lagrangian.src.endswith("+ (t[1])")
    c = build_space(
        "conformal", {"h": H2, "phi": PHI_NT, "variant": "ii", "A": ["1", "0"]}
    )
    assert c.nlc.__class__.__name__ == "ChristoffelOfPhi"
    assert c.g_source.entries[0, 0].src.startswith("exp(2*(")
    c = build_space("optic", {"h": H2, "phi": PHI_O, "n": "2", "X": ["1", "0"]})
    assert c.n_field is not None
    c = build_space(
        "custom",
        {
            "h": H2,
            "lagrangian": "(xs[1][1]^2 + xs[1][2]^2 + xs[2][1]^2 + xs[2][2]^2)^2",
            "nlc": {"kind": "quadratic", "n": 2},
        },
    )
    assert c.g_source.__class__.__name__ == "FromLagrangian"
    c = build_space(
        "custom",
        {
            "h": H2,
            "g": GQ,
            "nlc": {
                "kind": "user",
                "entries": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            },
        },
    )
    assert c.nlc.__class__.__name__ == "UserGiven"
    c = build_space("flat", {"p": 1, "n": 2})
    assert c.p == 1 and c.n == 2


@pytest.mark.parametrize(
    "name,params,frag",
    [
        ("nope", {}, "unknown space"),
        ("flat", {"p": 2}, "missing required"),
        ("flat", {"p": 2, "n": 2, "zz": 1}, "unknown keys"),
        (
            "conformal",
            {"h": H2, "phi": PHI_NT, "variant": "ii", "X": ["1", "0"]},
            "needs key",
        ),
        (
            "conformal",
            {"h": H2, "phi": PHI_NT, "variant": "iv", "A": ["1"]},
            "must be",
        ),
        ("custom", {"h": H2, "nlc": {"kind": "quadratic"}}, "exactly one"),
        (
            "custom",
            {"h": H2, "g": GQ, "lagrangian": "1", "nlc": {"kind": "quadratic"}},
            "exactly one",
        ),
    ],
)
def test_build_space_config_errors(name, params, frag):
    with pytest.raises(ConfigError) as exc:
        build_space(name, params)
    assert frag in str(exc.value)


def test_vacuum_constant_threads_through():
    c = build_space("flat", {"p": 2, "n": 2, "K": 2.0})
    assert c.K == 2.0


def test_quartic_lagrangian_irregular():
    ctx = build_space(
        "custom",
        {
            "h": H2,
            "lagrangian": "(xs[1][1]^2 + xs[1][2]^2 + xs[2][1]^2 + xs[2][2]^2)^2",
            "nlc": {"kind": "quadratic", "n": 2},
        },
    )
    pts = sample_points(ctx, 8, seed=17)
    v = kronecker_regularity_check(ctx, pts)
    assert v.max_deviation > 1e-9
    assert v.witness is not None


def test_quadratic_lagrangian_text_matches_context():
    U = [["t[1]", "0"], ["x[2]", "1"]]
    ctx = make_quadratic(H2, GQ, U=U, F="t[1]*x[1]")
    L = quadratic_lagrangian(H2, GQ, U=U, F="t[1]*x[1]")
    assert L.src == ctx.lagrangian.src


def test_textual_h_inverse_p3_matches_numpy():
    from jetlag.spaces import _h_inverse_texts, _texts

    h3 = [["2", "0", "t[1]"], ["0", "1 + t[2]^2", "0"], ["t[1]", "0", "3"]]
    hin = _h_inverse_texts(_texts(np.asarray(h3, dtype=object), (3, 3), "h"), 3)
    pt = JetPoint.of([0.4, -0.7, 0.1], [0.0, 0.0, 0.0], np.zeros((3, 3)))
    spt = seed_point(pt, 0, frozenset({"t"}))
    hval = np.array(
        [
            [eval_field(parse_field(h3[i][j], (3, 3)), spt) for j in range(3)]
            for i in range(3)
        ],
        dtype=float,
    )
    hinv_txt = np.array(
        [
            [eval_field(parse_field(hin[i, j], (3, 3)), spt) for j in range(3)]
            for i in range(3)
        ],
        dtype=float,
    )
    assert np.max(np.abs(hinv_txt - np.linalg.inv(hval))) < 1e-14


def test_textual_h_inverse_p4_refused():
    with pytest.raises(ConfigError):
        quadratic_lagrangian(np.eye(4).tolist(), [["1"]])


def test_parse_print_parse_fixpoint_over_builtin_texts():
    ctxs = [
        make_quadratic(H2, GQ, U=[["t[1]", "0"], ["x[2]", "1"]], F="t[1]*x[1]"),
        make_conformal(H2, [["1", "0"], ["0", "1"]], "ii", ["1", "0"]),
        make_optic(H2, PHI_O, "1 + exp(x[1])", ["t[1]", "1 - t[2]"]),
        make_conformal(H2, PHI_NT, "i", [["0", "0"], ["0", "0"]]),
    ]
    specimens = []
    for ctx in ctxs:
        specimens.extend(ctx.g_source.entries.ravel())
        specimens.extend(ctx.h.ravel())
    specimens.append(ctxs[0].lagrangian)
    assert len(specimens) > 30
    for f in specimens:
        a1 = parse_field(f.src, f.dims)
        printed = render(a1)
        a2 = parse_field(printed, f.dims)
        assert ast_equal(a1, a2)
        assert render(a2) == printed
