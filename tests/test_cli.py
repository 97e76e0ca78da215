"""End-to-end CLI runs, in process: exit codes, reports, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import support
from jetlag import JetPoint, build_space, maxwell_residuals
from jetlag.cli import CHECK_NAMES, DUMP_FAMILIES, main

FULL_CHECKS = [
    "metricity",
    "antisymmetry",
    "torsion",
    "curvature",
    "maxwell",
    "einstein",
    "conservation",
    "regularity",
    "grad-check",
]

FLAT_CFG = {
    "p": 2,
    "n": 2,
    "space": "flat",
    "points": {"seed": 1, "count": 10},
    "checks": FULL_CHECKS,
}

OPTIC_CFG = {
    "p": 2,
    "n": 2,
    "space": {
        "name": "optic",
        "params": {
            "h": [["1", "0"], ["0", "1 + t[1]^2"]],
            "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
            "n": "1 + 0.5/(1+x[1]^2)",
            "X": ["1", "1 - t[2]"],
        },
    },
    "points": {"seed": 7, "count": 6, "box": {"xs": [-0.5, 0.5]}},
    "checks": ["metricity", "torsion", "maxwell", "einstein", "conservation",
               "regularity"],
    "dump": ["connection", "ricci"],
}

TORSIONAL_CFG = {
    "p": 2,
    "n": 2,
    "space": {
        "name": "custom",
        "params": {
            "h": [["1", "0"], ["0", "1"]],
            "g": [["1", "0"], ["0", "1"]],
            "nlc": {
                "kind": "user",
                "entries": [
                    [["xs[2][1]", "0"], ["0", "0"]],
                    [["0", "0"], ["0", "0"]],
                ],
            },
        },
    },
    "points": {"seed": 2, "count": 5},
    "checks": ["torsion"],
}

LAGRANGIAN_CFG = {
    "p": 2,
    "n": 2,
    "space": {
        "name": "custom",
        "params": {
            "h": [["1", "0"], ["0", "1"]],
            "lagrangian": "(1 + x[1]^2)*(xs[1][1]^2 + xs[1][2]^2)"
                          " + (1 + x[2]^2)*(xs[2][1]^2 + xs[2][2]^2)",
            "nlc": {"kind": "quadratic", "n": 2},
        },
    },
    "points": {"seed": 2, "count": 3},
    "checks": ["metricity", "regularity", "conservation", "einstein"],
}


# a direction-dependent g on a conformal space: both Liouville fields (raw
# and metrical deflections) and the electromagnetic blocks
CONFORMAL_EM_CFG = {
    "p": 2,
    "n": 2,
    "space": {
        "name": "conformal",
        "params": {
            "h": [["1", "0"], ["0", "1 + t[1]^2"]],
            "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
            "variant": "iii",
            "X": ["1", "1 - t[2]"],
        },
    },
    "points": {"seed": 5, "count": 4, "box": {"xs": [-0.5, 0.5]}},
    "checks": ["curvature", "maxwell", "conservation"],
    "dump": ["em", "torsion", "curvature"],
}


QUADRATIC_REGULARITY_CFG = {
    "p": 2,
    "n": 2,
    "space": {
        "name": "quadratic",
        "params": {
            "h": [["1+0.3*t[1]^2+0.1*t[2]", "0.2*t[1]*t[2]"],
                  ["0.2*t[1]*t[2]", "2+sin(t[2])*0.3"]],
            "g": [["(1+0.2*t[1])*(1+0.3*x[2]^2)", "0.1*x[1]*x[2]*t[2]"],
                  ["0.1*x[1]*x[2]*t[2]", "2+0.2*x[1]^2+0.1*t[1]^2"]],
        },
    },
    "points": {"seed": 4, "count": 4},
    "checks": ["regularity"],
}


# a (3,3) space with a direction-independent g and the quadratic-canonical
# connection: every order-3 divergence of the conservation and natural-form
# checks, next to the order-2 curvature blocks
QUADRATIC33_CFG = {
    "p": 3,
    "n": 3,
    "space": {
        "name": "quadratic",
        "params": {
            "h": [["1+0.2*t[1]^2", "0.1*t[1]*t[2]", "0"],
                  ["0.1*t[1]*t[2]", "2+0.1*sin(t[2])", "0.05*t[3]"],
                  ["0", "0.05*t[3]", "1.5+0.1*t[3]^2"]],
            "g": [["(1+0.1*t[1])*(1+0.2*x[2]^2)", "0.1*x[1]*x[3]", "0"],
                  ["0.1*x[1]*x[3]", "2+0.1*x[1]^2+0.05*t[2]*x[3]", "0.05*x[2]"],
                  ["0", "0.05*x[2]", "1+0.1*x[3]^2+0.1*t[3]^2"]],
        },
    },
    "points": {"seed": 11, "count": 3, "box": {"t": [-0.5, 0.5],
                                               "x": [-0.5, 0.5]}},
    "checks": ["conservation", "natural-form", "metricity", "curvature"],
    "dump": ["einstein", "curvature"],
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to(tmp_path, doc, *extra, name="cfg.json", out="report.json"):
    cfg = write_cfg(tmp_path, doc, name)
    target = tmp_path / out
    rc = main(["run", cfg, "--out", str(target), *extra])
    return rc, json.loads(target.read_text())


# the benchmark's direction-dependent (3,3) space (support.mixed33_ctx) at
# three sampled points; seven of the nine natural-form blocks have their
# worst point at the last point, not the first
MIXED33_CFG = {
    "p": 3, "n": 3,
    "space": {"name": "custom", "params": {
        "h": support.H33_SRC,
        "g": support.conformal_g_src(support.SIG33, support.PHI33_SRC),
        "nlc": {"kind": "christoffel", "phi": support.PHI33_SRC}}},
    "points": {"seed": 8, "count": 3,
               "box": {"t": [-0.5, 0.5], "x": [-0.5, 0.5],
                       "xs": [-0.5, 0.5]}},
    "checks": ["conservation", "natural-form"],
}

# grad-check on grids that call exp (conformal g, mixed33's g) and sin
# (mixed33's h), and at one explicit point
GRAD_CONFORMAL_CFG = dict(CONFORMAL_EM_CFG, checks=["grad-check"], dump=[])
GRAD_MIXED33_CFG = dict(MIXED33_CFG, points=dict(MIXED33_CFG["points"], count=4),
                        checks=["grad-check"])
GRAD_OPTIC_POINT_CFG = dict(
    OPTIC_CFG, points={"explicit": [{"t": [0.1, -0.2], "x": [0.3, 0.4],
                                     "xs": [[0.25, -0.1], [0.15, 0.35]]}]},
    checks=["grad-check"], dump=[])


def _custom_g_cfg(g):
    return {
        "p": 2, "n": 2,
        "space": {"name": "custom", "params": {
            "h": [["1", "0"], ["0", "1"]],
            "g": g,
            "nlc": {"kind": "christoffel", "phi": [["1", "0"], ["0", "1"]]}}},
        "points": {"seed": 1, "count": 2},
        "checks": ["metricity"],
    }


def _explicit_point(x1, x2=0.4):
    return {"t": [0.1, 0.2], "x": [x1, x2], "xs": [[0.5, 0.6], [0.7, 0.8]]}


# g = diag(x1, 1) is singular at x1 = 0
SINGULAR_CFG = dict(
    _custom_g_cfg([["x[1]", "0"], ["0", "1"]]),
    points={"explicit": [_explicit_point(0.0)]},
    checks=["metricity", "antisymmetry", "torsion", "curvature", "maxwell",
            "einstein", "conservation", "regularity"],
)

# point 0: g singular, so a Maxwell equation raises there; point 1: the
# phi of the torsion precheck takes the log of a negative number
MAXWELL_PRECEDENCE_CFG = {
    "p": 2, "n": 2,
    "space": {"name": "custom", "params": {
        "h": [["1", "0"], ["0", "1"]],
        "g": [["x[1]", "0"], ["0", "1"]],
        "nlc": {"kind": "christoffel",
                "phi": [["exp(x[1])", "0"], ["0", "log(x[2])"]]}}},
    "points": {"explicit": [_explicit_point(0.0, 0.4),
                            _explicit_point(0.5, -0.4)]},
    "checks": ["metricity", "torsion", "maxwell"],
}

# point 0: g singular; the user N has torsion at every point
TORSION_PRECEDENCE_CFG = dict(
    TORSIONAL_CFG,
    space={"name": "custom", "params": dict(
        TORSIONAL_CFG["space"]["params"], g=[["x[1]", "0"], ["0", "1"]])},
    points={"explicit": [_explicit_point(0.0), _explicit_point(0.5)]},
    checks=["metricity", "torsion", "maxwell"],
)

# every field text negated, some twice, with unary minus and negative
# factors: a field's jet then holds -0.0 in the derivative slots of the
# coordinates it does not read
NEGATED_CFG = {
    "p": 2, "n": 2,
    "space": {"name": "custom", "params": {
        "h": [["-(-1 - 0.3*t[1]^2)", "-0.2*t[1]*-t[2]"],
              ["-0.2*t[1]*-t[2]", "-(-2 - 0.1*sin(t[2]))"]],
        "g": [["-(-(1 + x[1]^2))*exp(-0.2*xs[1][1]^2)", "-0.1*x[1]*-x[2]"],
              ["-0.1*x[1]*-x[2]", "-(-2 - x[2]^2 - 0.1*t[1]*xs[2][2])"]],
        "nlc": {"kind": "christoffel",
                "phi": [["-(-1 - x[1]^2)", "-0*x[2]"],
                        ["-0*x[2]", "-(-(1 + x[2]^2))"]]}}},
    "points": {"seed": 6, "count": 4, "box": {"xs": [-0.5, 0.5]}},
    "checks": ["metricity", "antisymmetry", "torsion", "curvature", "maxwell",
               "einstein", "conservation", "regularity", "grad-check"],
    "dump": list(DUMP_FAMILIES),
}

# sha256 of a report minus its wall-time line, as the benchmark's
# report_digest takes it; a mismatch means some report byte changed
REPORT_DIGESTS = {
    "optic": ("f9f6a0312873826fc9476a4b416318a478325cdab9ceaff550d660fb03e2df37",
              OPTIC_CFG),
    "torsional": ("a952e4459b669d848b502c2e859603fa68e34753c2b4750b125e7990a92cc571",
                  TORSIONAL_CFG),
    # every frame block, through every dump family, on a direct metric and
    # on a Lagrangian-derived one
    "optic-dumps": ("33ae2fb2c70a2c6849631c460f53a96212c76e2b555cdb079f567ee579c60f4e",
                    dict(OPTIC_CFG, dump=list(DUMP_FAMILIES))),
    "lagrangian-dumps": ("15a0fd73623b8cc055447dceac83884e91c85c3243fba0295c4b5c559e98d8e2",
                         dict(LAGRANGIAN_CFG,
                              checks=["metricity", "regularity", "einstein",
                                      "curvature", "maxwell"],
                              dump=list(DUMP_FAMILIES))),
    # the regularity probe of a space's own explicit Lagrangian
    "conformal-em": ("b9c0dd20f3f8d1c15c7e35668c046835bcce43b51ccc769226c72ef096d598c8",
                     CONFORMAL_EM_CFG),
    "quadratic-regularity": ("e20c6b68b6124bffa2869eec3db26cd6f407d18fc87e796b1f50220a1951fad5",
                             QUADRATIC_REGULARITY_CFG),
    # order-3 divergences and their Einstein and curvature dumps beyond the
    # benchmark's own (3,3) workload
    "quadratic33-laws": ("e45682540680b3425a3198138a2b09530c5829fcb8823b11a71733d071d74f29",
                         QUADRATIC33_CFG),
    # grad-check where the per-probe path once ran: taken before the stencil
    # batch served grids that call exp or sin, or a single point
    "grad-conformal": ("8ded27c7fdfb88ea7625d7db23783fc49c646f1f6fd5db02994a6c08718fdb59",
                       GRAD_CONFORMAL_CFG),
    "grad-mixed33": ("db6ef380fe1dea27008ed70d333c6d3099cb68665f661f1a0d5527efcb078484",
                     GRAD_MIXED33_CFG),
    "grad-optic-point": ("e6372d5445c876b4aea783846040ba1a5aed62fdacdef5a13951c03b9a257aa3",
                         GRAD_OPTIC_POINT_CFG),
    # the error paths: a point error in every block check, and the order of
    # the Maxwell errors
    "singular": ("ed2a9c325b464be758bfd1d84c377d12008afa24273778fdc2ca68edc8acd0f4",
                 SINGULAR_CFG),
    "maxwell-precedence": ("be295607e3644c485e4e6bc29f57835b6c7524254a94ae553dc90a646adbe808",
                           MAXWELL_PRECEDENCE_CFG),
    "torsion-precedence": ("f6bef3ff2445cedafda09f52c72ccaaf99e33b5ab04808b9f79655bd9a89ab36",
                           TORSION_PRECEDENCE_CFG),
    # fields whose jets keep -0.0 in the slots of coordinates they do not
    # read, through every dump family: taken while every grid was seeded in
    # every coordinate of its groups
    "negated-dumps": ("14a253fa9621e238479eb84970f59789862b43eba285b617fd63f32bed246f6b",
                      NEGATED_CFG),
}
WALL_LINE = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def stable_lines(path):
    # wall time is the one legitimately nondeterministic report entry
    return [l for l in path.read_text().splitlines() if "wall_time_s" not in l]


def test_flat_full_suite_passes(tmp_path, capsys):
    rc, rep = run_to(tmp_path, FLAT_CFG)
    assert rc == 0
    out = capsys.readouterr().out
    for name in FULL_CHECKS:
        assert f"{name}: pass" in out
    assert "report written to" in out
    assert rep["schema"] == "jetlag-report/1"
    assert rep["summary"]["n_fail"] == 0
    assert rep["summary"]["n_checks"] == len(FULL_CHECKS)


def test_report_bytes_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    for out in ("r1.json", "r2.json"):
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == 0
    assert stable_lines(tmp_path / "r1.json") == stable_lines(tmp_path / "r2.json")
    # there is no thread-count option; argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--jobs", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digest_pinned(tmp_path, name):
    digest, doc = REPORT_DIGESTS[name]
    run_to(tmp_path, doc)
    text = WALL_LINE.sub("", (tmp_path / "report.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_an_empty_check_list_writes_an_empty_report(tmp_path, capsys):
    # load_config accepts "checks": []; the run writes a report with no
    # checks (digest taken before the check table sized blocks)
    rc, rep = run_to(tmp_path, dict(FLAT_CFG, checks=[]))
    assert rc == 0
    assert rep["summary"]["n_checks"] == 0 and rep["checks"] == {}
    text = WALL_LINE.sub("", (tmp_path / "report.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36a8baa322cc1d446813167620a47572d847429f73a0d7153443bcdc9754c17d")


def test_seed_override(tmp_path):
    rc, base = run_to(tmp_path, FLAT_CFG, name="a.json", out="a_rep.json")
    assert rc == 0
    rc, rep = run_to(tmp_path, FLAT_CFG, "--seed", "5",
                     name="b.json", out="b_rep.json")
    assert rc == 0
    assert rep["rng"]["seed"] == 5
    assert rep["points"] != base["points"]


def test_replaced_seed_and_dump_show_in_the_config_echo(tmp_path):
    # the report's config echo is read off the run's fields, so a seed or
    # dump list replaced after loading is the one the report names
    from dataclasses import replace

    from jetlag import cli

    doc = dict(FLAT_CFG, points={"seed": 3, "count": 2}, checks=["metricity"])
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    rep, rc = cli.run_report(replace(cfg, seed=9, dump=("ricci",)))
    assert rc == 0
    assert rep.config["points"]["seed"] == rep.rng["seed"] == 9
    assert rep.config["dump"] == ["ricci"]
    assert list(rep.dumps["families"]) == ["ricci"]


def test_torsion_failure_sets_exit_code_and_witness(tmp_path, capsys):
    rc, rep = run_to(tmp_path, TORSIONAL_CFG)
    assert rc == 1
    assert "torsion: fail" in capsys.readouterr().out
    doc = rep["checks"]["torsion"]
    assert doc["status"] == "fail"
    assert doc["witness"] is not None


def test_grad_check_probes_user_given_n(tmp_path):
    # a user NLC's entries are fields the frames evaluate into N, so
    # grad-check probes each of them after h and g, in np.ndindex order
    rc, rep = run_to(tmp_path, dict(TORSIONAL_CFG, checks=["grad-check"]))
    doc = rep["checks"]["grad-check"]
    assert rc == 0 and doc["status"] == "pass"
    two = (1, 2)
    assert list(doc["detail"]) == (
        [f"h[{i}][{j}]" for i in two for j in two]
        + [f"g[{i}][{j}]" for i in two for j in two]
        + [f"N[{i}][{a}][{j}]" for i in two for a in two for j in two])


def test_lagrangian_conservation_budget_error(tmp_path):
    rc, rep = run_to(tmp_path, LAGRANGIAN_CFG)
    assert rc == 1
    doc = rep["checks"]["conservation"]
    assert doc["status"] == "fail"
    assert "budget of at least 4" in doc["error"]
    assert doc["witness"] is None  # a config-level error names no point
    for name in ("metricity", "regularity", "einstein"):
        assert rep["checks"][name]["status"] == "pass"


def test_conservation_tolerance_at_the_measured_value_passes(tmp_path):
    # a tolerance equal to the worst measured max_rel passes, as value <= tol
    # does in every other check
    doc = dict(OPTIC_CFG, checks=["conservation"], dump=[],
               tolerances={"conservation": 0.21817123301995614})
    rc, rep = run_to(tmp_path, doc)
    cons = rep["checks"]["conservation"]
    assert max(law["max_rel"] for law in cons["detail"].values()
               if isinstance(law, dict)) == 0.21817123301995614
    assert (rc, cons["status"]) == (0, "pass")
    assert all(law["status"] == "pass" for law in cons["detail"].values()
               if isinstance(law, dict))


def test_dump_flag_overrides_the_config(tmp_path, capsys):
    doc = dict(OPTIC_CFG, checks=["metricity"], dump=[])
    rc, rep = run_to(tmp_path, doc, "--dump", "nlc")
    assert rc == 0
    assert rep["config"]["dump"] == ["nlc"]
    assert list(rep["dumps"]["families"]) == ["nlc"]
    capsys.readouterr()
    assert main(["run", write_cfg(tmp_path, doc), "--dump", "nlc,spin"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err)
    assert "unknown dump family 'spin'" in err


def test_maxwell_failure_names_worst_point(tmp_path):
    doc = dict(OPTIC_CFG, checks=["maxwell"], tolerances={"maxwell": 1e-300})
    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    assert rep["checks"]["maxwell"]["status"] == "fail"
    ctx = build_space("optic", OPTIC_CFG["space"]["params"])
    pts = [JetPoint.of(d["t"], d["x"], d["xs"]) for d in rep["points"]]
    per = [max(st.max_rel
               for st in maxwell_residuals(ctx, [pt]).equations.values())
           for pt in pts]
    assert rep["checks"]["maxwell"]["witness"] == rep["points"][int(np.argmax(per))]


def test_optic_run_dumps_and_flagging(tmp_path):
    rc, rep = run_to(tmp_path, OPTIC_CFG)
    # regularity genuinely fails on a direction-dependent metric and the
    # conservation laws are flagged, so the exit code reflects a failure
    assert rc == 1
    assert rep["summary"]["n_fail"] == 1
    assert rep["summary"]["n_flagged"] == 1
    assert rep["checks"]["regularity"]["status"] == "fail"
    assert rep["checks"]["regularity"]["witness"] is not None
    cons = rep["checks"]["conservation"]
    assert cons["status"] == "flagged"
    assert cons["detail"]["direction_independent"] is False
    fams = rep["dumps"]["families"]
    assert sorted(fams) == ["connection", "ricci"]
    assert sorted(fams["connection"]) == ["Cc", "Gc", "Htc", "Lc"]
    assert sorted(fams["ricci"]) == ["ricci", "scalars"]
    assert sorted(rep["dumps"]["point"]) == ["t", "x", "xs"]


def test_explicit_points(tmp_path):
    cfg = {
        "p": 2,
        "n": 2,
        "space": "flat",
        "points": {"explicit": [{"t": [0.1, 0.2], "x": [0.3, 0.4],
                                 "xs": [[0.5, 0.6], [0.7, 0.8]]}]},
        "checks": ["metricity", "einstein"],
    }
    rc, rep = run_to(tmp_path, cfg)
    assert rc == 0
    assert len(rep["points"]) == 1
    assert rep["points"][0]["t"] == [0.1, 0.2]
    assert rep["points"][0]["xs"] == [[0.5, 0.6], [0.7, 0.8]]


def test_vacuum_constant_zero_skips_extraction(tmp_path):
    cfg = {
        "p": 2,
        "n": 2,
        "space": {"name": "flat", "params": {"p": 2, "n": 2, "K": 0.0}},
        "points": {"seed": 1, "count": 2},
        "checks": ["einstein"],
    }
    rc, rep = run_to(tmp_path, cfg)
    assert rc == 0
    assert rep["space"]["K"] == 0
    assert "extraction_roundtrip" not in rep["checks"]["einstein"]["detail"]


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out.strip().endswith(": valid")
    bad = write_cfg(tmp_path, {"p": 2}, "bad.json")
    assert main(["validate", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_evaluates_explicit_points(tmp_path, capsys):
    # g = x1 is singular at the explicit x1 = 0: run grades the metricity
    # failure there, and validate names the point instead of passing it
    pt = {"t": [0.1], "x": [0.0], "xs": [[0.2]]}
    doc = {"p": 1, "n": 1,
           "space": {"name": "custom", "params": {
               "h": [["1"]], "g": [["x[1]"]],
               "nlc": {"kind": "christoffel", "phi": [["1"]]}}},
           "points": {"explicit": [pt]}, "checks": ["metricity"]}
    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    assert rep["checks"]["metricity"]["witness"] == pt
    capsys.readouterr()
    assert main(["validate", write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    _one_error_line(err)
    assert err == ("error: config.points.explicit[0]: metrics at "
                   f"{json.dumps(pt)}: matrix is singular or ill-conditioned "
                   "(cond=inf)\n")
    # a regular explicit point still validates
    doc["points"]["explicit"] = [dict(pt, x=[0.5])]
    assert main(["validate", write_cfg(tmp_path, doc)]) == 0


def test_spaces_subcommand(capsys):
    assert main(["spaces"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"flat", "quadratic", "conformal", "optic", "custom"}


# a rejection case's mutate may return the text written in place of the
# config, or NO_CONFIG to leave no file at the config's path
NO_CONFIG = object()


@pytest.mark.parametrize(
    "mutate,frag",
    [
        (lambda c: c.update(checks=["natural-form"]),
         "natural-form suite needs p > 2"),
        (lambda c: c.update(points={"count": 0}),
         "at least one point"),
        (lambda c: c.update(checks=["bogus"]),
         "unknown check 'bogus'"),
        (lambda c: c.update(points={"seed": 1, "count": 2,
                                    "box": {"zz": [0, 1]}}),
         "unknown keys"),
        (lambda c: NO_CONFIG, "cannot read config"),
        (lambda c: '{"p": 2,', "is not valid JSON"),
        (lambda c: "[1, 2]", "must be a JSON object"),
        (lambda c: c.update(zz=1), "config: unknown keys ['zz']"),
        (lambda c: c.update(space={"name": "flat", "zz": 1}),
         "config.space: unknown keys ['zz']"),
        (lambda c: c.update(points={"count": 2, "zz": 1}),
         "config.points: unknown keys ['zz']"),
        (lambda c: c.update(points={"explicit": [
            {"t": [0.0], "x": [0.0, 0.0], "xs": [[0.0], [0.0]]}]}),
         "config.points.explicit[0]: dims (1, 2) do not match (p, n) = (2, 2)"),
        (lambda c: c.update(checks=["metricity", "torsion", "metricity"]),
         "config.checks: check 'metricity' listed twice"),
        (lambda c: c.update(tolerances=[1e-3]),
         "config.tolerances: must be a map"),
        (lambda c: c.update(tolerances={"bogus": 1e-3}),
         "config.tolerances: unknown check 'bogus'"),
        (lambda c: c.update(dump=["bogus"]),
         "config.dump: unknown family 'bogus'"),
        (lambda c: c.update(output=3), "config.output: must be a path string"),
        (lambda c: c.update(space={"name": "flat", "params": {"p": 3, "n": 2}}),
         "config.space: space dims (3, 2) do not match the declared "
         "(p, n) = (2, 2)"),
    ],
    ids=["natural-form-dims", "zero-points", "unknown-check", "bad-box",
         "unreadable", "invalid-json", "not-an-object", "unknown-key",
         "unknown-space-key", "unknown-points-key", "explicit-dims",
         "check-twice", "tolerances-not-a-map", "unknown-tolerance",
         "unknown-dump", "output-not-a-string", "space-dims"],
)
def test_config_rejections(tmp_path, capsys, mutate, frag):
    doc = json.loads(json.dumps(FLAT_CFG))
    text = mutate(doc)
    cfg = write_cfg(tmp_path, doc)
    if text is NO_CONFIG:
        os.remove(cfg)
    elif text is not None:
        with open(cfg, "w") as fh:
            fh.write(text)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    _one_error_line(err)
    assert frag in err


@pytest.mark.parametrize(
    "g,count,frag",
    [
        ([["1", "x[1]"], ["0", "1"]], 2,
         "error: vertical metric g is not symmetric at this point; "
         "sampled point "),
        # g = diag(x1, 1) flips its signature between draws 0 and 1
        ([["x[1]", "0"], ["0", "1"]], 4,
         "error: metric signature changed between sample points: recorded "
         "((1, 1), (-1, 1)), found ((1, 1), (1, 1)); sampled point "),
        ([["log(x[1]-5)", "0"], ["0", "1"]], 2,
         "error: could not sample 2 admissible points in 1000 tries (0 found) "
         "from the boxes t (-1.0, 1.0), x (-1.0, 1.0), xs (-1.0, 1.0)"),
    ],
    ids=["asymmetric-g", "signature-flip", "sampling-exhausted"],
)
def test_run_time_config_defects_exit_2(tmp_path, capsys, g, count, frag):
    # the defect shows only once points are sampled, which validate does
    # too; a defect at a draw ends with the draw's coordinates
    doc = _custom_g_cfg(g)
    doc["points"]["count"] = count
    cfg = write_cfg(tmp_path, doc)
    for command in ("run", "validate"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(frag)
        assert err.count("\n") == 1 and "Traceback" not in err
        if frag.endswith("sampled point "):
            pt = JetPoint.of(**json.loads(err[len(frag):]))
            assert pt.dims == (2, 2)
            if "signature" in frag:
                assert pt.x[0] > 0  # the draw of the other sign
    if frag.endswith("sampled point "):
        # a library caller keeps the error's class and its witness
        from jetlag import cli
        from jetlag.errors import RegularityViolationError

        with pytest.raises(RegularityViolationError) as info:
            cli.run_report(cli.load_config(cfg))
        assert f"error: {info.value}\n" == err
        assert json.dumps(cli._point_doc(info.value.witness)) == \
            err[len(frag):].rstrip("\n")


def test_constant_to_varying_power_runs(tmp_path, capsys):
    doc = dict(_custom_g_cfg([["1+0.1*2^x[1]", "0"], ["0", "1"]]),
               checks=["metricity", "grad-check"])
    rc, rep = run_to(tmp_path, doc)
    assert rc == 0
    assert {c["status"] for c in rep["checks"].values()} == {"pass"}
    assert main(["validate", write_cfg(tmp_path, doc)]) == 0


def test_negative_base_to_varying_power_is_a_point_error(tmp_path, capsys):
    checks = ["metricity", "antisymmetry", "torsion", "curvature", "maxwell",
              "einstein", "conservation", "regularity", "grad-check"]
    doc = dict(_custom_g_cfg([["1+0.1*(-2)^x[1]", "0"], ["0", "1"]]),
               points={"explicit": [_point(0.3)]}, checks=checks)
    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    for name in checks:
        got = rep["checks"][name]
        if name == "torsion":  # reads only the identity phi
            assert got["status"] == "pass"
            continue
        assert got["error"] == "power with a varying exponent needs a positive base"
        assert got["witness"] == _point(0.3)
    # every sampled draw leaves the domain
    cfg = write_cfg(tmp_path, dict(doc, points={"seed": 1, "count": 2}))
    for command in ("run", "validate"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not sample 2 admissible points")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_asymmetric_g_at_explicit_point_names_witness(tmp_path):
    doc = _custom_g_cfg([["1", "x[1]"], ["0", "1"]])
    pt = {"t": [0.1, 0.2], "x": [0.3, 0.4], "xs": [[0.5, 0.6], [0.7, 0.8]]}
    doc["points"] = {"explicit": [pt]}
    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    check = rep["checks"]["metricity"]
    assert check["status"] == "fail"
    assert "vertical metric g is not symmetric" in check["error"]
    assert check["witness"] == pt


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "jetlag", "spaces"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {
        "flat", "quadratic", "conformal", "optic", "custom"}


@pytest.mark.parametrize(
    "doc,frag",
    [
        (
            {
                "p": 2, "n": 2,
                "space": {"name": "optic", "params": {
                    "h": [["1", "0"], ["0", "1"]],
                    "phi": [["1", "0"], ["0", "1"]],
                    "n": "2 +* 1", "X": ["1", "0"]}},
                "points": {"count": 1},
                "checks": ["metricity"],
            },
            "error: n: ",
        ),
        (
            {
                "p": 2, "n": 2,
                "space": {"name": "quadratic", "params": {
                    "h": [["1", "0"], ["0", "1"]],
                    "g": [["1", "0"], ["0", "1 +* x[1]"]]}},
                "points": {"count": 1},
                "checks": ["metricity"],
            },
            "error: g[2][2]: ",
        ),
    ],
    ids=["optic-index-text", "metric-entry-text"],
)
def test_named_parse_errors(tmp_path, capsys, doc, frag):
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert frag in err
    assert "offset 3" in err


# --------------------------------------------------------------------------
# point-major runs
# --------------------------------------------------------------------------

SWEEP_CHECKS = ["metricity", "antisymmetry", "curvature", "maxwell", "einstein"]


ORACLE_CFGS = {
    # a sweep of many points, each with its own frames
    "optic-66": dict(OPTIC_CFG, points=dict(OPTIC_CFG["points"], count=66),
                     checks=SWEEP_CHECKS, dump=[]),
    "mixed33": MIXED33_CFG,
    "torsional": dict(TORSIONAL_CFG, checks=[
        "torsion", "metricity", "maxwell", "conservation", "regularity",
        "grad-check"]),
    "lagrangian": dict(LAGRANGIAN_CFG, checks=LAGRANGIAN_CFG["checks"]
                       + ["torsion", "maxwell", "grad-check"]),
    "singular": SINGULAR_CFG,
    "maxwell-precedence": MAXWELL_PRECEDENCE_CFG,
    "torsion-precedence": TORSION_PRECEDENCE_CFG,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CFGS))
def test_point_major_matches_single_check_runs(tmp_path, name):
    # one check alone runs in the check-major order of a check-by-check
    # run, so each entry of the point-major run must equal it
    doc = ORACLE_CFGS[name]
    _, rep = run_to(tmp_path, doc)
    for check in doc["checks"]:
        _, alone = run_to(tmp_path, dict(doc, checks=[check]),
                          name=f"{check}.json", out=f"{check}.report.json")
        assert rep["checks"][check] == alone["checks"][check], check


def test_a_metric_of_large_scale_meets_its_tolerances(tmp_path):
    # metricity and curvature grade each point's residuals over max(1, the
    # scale of its metrics): with x up to 1e150 the optic g reaches about
    # 1e300, well conditioned, and its absolute metricity residuals of
    # about 1e134 are roundoff, which failed an absolute grade
    doc = dict(OPTIC_CFG, points=dict(OPTIC_CFG["points"], box={
        "x": [-1, 1e150], "xs": [-0.5, 0.5]}),
        checks=OPTIC_CFG["checks"] + ["curvature"], dump=[])
    rc, rep = run_to(tmp_path, doc)
    assert rep["checks"]["metricity"]["max_abs"] > 1e100
    assert rc == 0 and {c["status"] for c in rep["checks"].values()} <= {
        "pass", "flagged"}, {k: c["status"] for k, c in rep["checks"].items()}


def _block_sizes(count, size) -> list:
    """The sizes of the blocks that ``count`` points fall into: the fewest
    blocks of at most ``size``, the k-th of the n ending at point
    (k + 1) count // n."""
    n = -(-count // size)
    return [(k + 1) * count // n - k * count // n for k in range(n)]


def _block_size_of(tmp_path, doc) -> int:
    """The block size of a run of ``doc``: as many points as the frames of
    the orders its block checks read keep within the budget."""
    from jetlag import cli
    from jetlag.geometry import block_size

    cfg = cli.load_config(write_cfg(tmp_path, doc, name="sized.json"))
    return block_size(cfg.space, {cli.CHECKS[name].order for name in cfg.checks
                                  if cli.CHECKS[name].fold})


def _order2_builds(tmp_path, monkeypatch, doc) -> tuple:
    """(the number of points of each order-2 frame that a run of ``doc``
    builds, the run's block size)."""
    from jetlag.geometry import Frame

    builds = []
    init = Frame.__init__

    def counting(self, ctx, pts, order):
        init(self, ctx, pts, order)
        if order == 2:
            builds.append(len(self.pts))

    monkeypatch.setattr(Frame, "__init__", counting)
    rc, rep = run_to(tmp_path, doc)
    assert rc == 0 and len(rep["points"]) == sum(builds)
    return builds, _block_size_of(tmp_path, doc)


def test_point_major_builds_each_order2_frame_once(tmp_path, monkeypatch):
    # one order-2 frame per block of points, read by every check; a quarter
    # of the budget cuts the 66 points into several blocks
    from jetlag import geometry

    monkeypatch.setattr(geometry, "BLOCK_BYTES", geometry.BLOCK_BYTES // 4)
    builds, size = _order2_builds(tmp_path, monkeypatch, ORACLE_CFGS["optic-66"])
    assert 1 < size < 66
    assert builds == _block_sizes(66, size)


def test_optic_sweep_builds_one_order2_frame_per_block(tmp_path, monkeypatch):
    # a tooling guard: the benchmark's frame counts cannot change in a
    # change that claims a speed-up, so this count lives here
    doc = _load_bench(monkeypatch, "spec").make_config("optic-sweep", None)
    builds, size = _order2_builds(tmp_path, monkeypatch, doc)
    assert len(builds) <= -(-doc["points"]["count"] // size)
    assert size == 83 and builds == [50, 50]


@pytest.mark.parametrize("workload, frames", [
    ("mixed33-deep", {(3, 2): 8}),
    ("optic-suite", {(2, 12): 1, (3, 12): 1}),
    ("optic-sweep", {(2, 50): 2}),
])
def test_benchmark_runs_build_the_frame_blocks_they_are_charged_for(
        tmp_path, monkeypatch, workload, frames):
    # a tooling guard: each block is charged the frames of every order its
    # checks read (block_size), so the benchmark's configs build these
    # frames, by (order, points), besides their sampling frames of order 0
    from collections import Counter

    from jetlag.geometry import Frame

    built = Counter()
    init = Frame.__init__

    def counting(self, ctx, pts, order):
        init(self, ctx, pts, order)
        if order:
            built[order, len(self.pts)] += 1

    monkeypatch.setattr(Frame, "__init__", counting)
    run_to(tmp_path, _load_bench(monkeypatch, "spec").make_config(workload, None))
    assert built == frames


def test_the_charge_names_every_block_a_frame_keeps(tmp_path, monkeypatch):
    # a tooling guard: frame_bytes charges the blocks named in
    # geometry._KEPT_BLOCKS, so every cached property of a frame, every key
    # it keeps a block under to an order (Frame._upto) and every frame-shared
    # block that a pinned config builds has its charge there
    from functools import cached_property

    from jetlag import geometry
    from jetlag.geometry import Frame

    named = {name for _, blocks in geometry._KEPT_BLOCKS for name in blocks}
    props = {name for name, val in vars(Frame).items() if isinstance(val, cached_property)}
    assert props <= named, props - named
    frames = []
    init = Frame.__init__

    def keeping(self, ctx, pts, order):
        init(self, ctx, pts, order)
        frames.append(self)

    monkeypatch.setattr(Frame, "__init__", keeping)
    kept = set()
    for name, (_, doc) in REPORT_DIGESTS.items():
        run_to(tmp_path, doc, name=f"{name}.json", out=f"{name}.report.json")
        for fr in frames:
            kept |= set(fr._built) | {key[0].__name__ for key in fr._shared}
        frames.clear()
    assert {"h", "g", "phi", "tor_S", "cov_t", "cov_s", "cov_v", "_law_rhs",
            "_einstein_blocks_at", "_em_jets"} <= kept
    assert kept <= named, kept - named


def test_optic_run_compiles_each_grid_once(tmp_path, monkeypatch):
    # grad-check reads the field grids the frames compiled: one generated
    # function per (fields, dims, coordinate kinds) in the whole run
    from jetlag import field_expr

    compiled = []
    compile_ = field_expr._compile

    def recording(grid, dims, jets):
        compiled.append((grid.fields, dims, tuple(map(tuple, jets))))
        return compile_(grid, dims, jets)

    monkeypatch.setattr(field_expr, "_compile", recording)
    doc = _load_bench(monkeypatch, "spec").make_config("optic-suite", None)
    assert "grad-check" in doc["checks"]
    rc, _ = run_to(tmp_path, doc)
    assert rc == 0 and compiled
    assert len(set(compiled)) == len(compiled), len(compiled)


@pytest.mark.parametrize("which", ["optic-suite", "grad-conformal",
                                   "grad-mixed33", "grad-optic-point"])
def test_grad_check_takes_one_stencil_batch_per_group(tmp_path, monkeypatch, which):
    # a tooling guard: the benchmark's fd_partial count reads 0 on every
    # workload, so a fall back to the per-probe path shows only here; the
    # pinned grad-check runs call exp and sin, or hold one point
    from jetlag import cli, diff_engine
    from jetlag.field_expr import FieldGrid

    batches, probes = [], []
    rows = FieldGrid.rows

    def recording(self, zs, dims):
        batches.append(self)
        return rows(self, zs, dims)

    monkeypatch.setattr(FieldGrid, "rows", recording)
    monkeypatch.setattr(diff_engine, "fd_partial",
                        lambda *args: probes.append(args))
    doc = (_load_bench(monkeypatch, "spec").make_config(which, None)
           if which == "optic-suite" else REPORT_DIGESTS[which][1])
    cfg = cli.load_config(write_cfg(tmp_path, doc, name="space.json"))
    groups = {frozenset(f.deps) for _, f in cli._grad_fields(cfg.space)}
    rc, rep = run_to(tmp_path, doc)
    assert rc == 0 and rep["checks"]["grad-check"]["status"] == "pass"
    assert not probes
    assert len(batches) == len(groups) == 3
    assert {frozenset(g.fields[0].deps) for g in batches} == groups


def _hexed(obj):
    """``obj`` as plain data with every float as its ``float.hex``."""
    from jetlag import cli

    obj = cli._jsonable(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hexed(v) for v in obj]
    return obj


@pytest.mark.parametrize("which", ["mixed33", "optic-suite"])
def test_folds_over_blocks_match_folds_over_points(tmp_path, monkeypatch, which):
    # each fold of a library sweep, which takes its steps block by block, is
    # the fold of one-point steps, bit for bit; optic-suite's conservation
    # runs in one block of its 12 points, mixed33's in blocks of 2
    from jetlag import cli
    from jetlag.geometry import _concat, block_size, sweep
    from jetlag.gravity import (conservation_fold, conservation_residuals,
                                natural_form_checks, natural_form_fold)

    doc = (MIXED33_CFG if which == "mixed33" else
           _load_bench(monkeypatch, "spec").make_config(which, None))
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    ctx = cfg.space
    pts = cli._collect_points(cfg, ctx)
    assert block_size(ctx, [3]) == (2 if which == "mixed33" else 22)
    checks = [(conservation_residuals, conservation_fold)]
    if "natural-form" in cfg.checks:
        checks.append((natural_form_checks, natural_form_fold))
    for step, fold in checks:
        got = fold(sweep(step, ctx, pts, 3))
        assert _hexed(got) == _hexed(fold(_concat([step(ctx, [pt]) for pt in pts])))
        assert got.n_points == len(pts)
        with pytest.raises(ValueError):
            fold(sweep(step, ctx, [], 3))
    if which == "mixed33":
        # the worst point of most blocks is not the first
        worst = [st.worst_point for attr in ("new_law_residuals",
                                             "identity_residuals",
                                             "identity_residuals_derived")
                 for st in getattr(got, attr).values()]
        assert worst.count(0) <= 2, worst


def test_library_sweep_frames_hold_one_block(monkeypatch):
    # a library sweep frames block_size points at a time, as a run does; a
    # quarter of the budget cuts its 10 points into two blocks
    from jetlag import geometry
    from jetlag.geometry import Frame, block_size, sample_points, sweep
    from jetlag.gravity import conservation_fold, conservation_residuals

    monkeypatch.setattr(geometry, "BLOCK_BYTES", geometry.BLOCK_BYTES // 4)
    ctx = build_space("optic", OPTIC_CFG["space"]["params"])
    pts = sample_points(ctx, 10, seed=4, box_xs=(-0.5, 0.5))
    sizes = []
    init = Frame.__init__

    def counting(self, ctx, block, order):
        init(self, ctx, block, order)
        sizes.append(len(self.pts))

    monkeypatch.setattr(Frame, "__init__", counting)
    rep = conservation_fold(sweep(conservation_residuals, ctx, pts, 3))
    assert rep.n_points == 10 and block_size(ctx, [3]) == 5
    assert sizes == [5, 5]


@pytest.mark.parametrize("workload", ["optic-suite", "optic-sweep", "mixed33-deep"])
def test_block_size_charges_what_a_frame_keeps(tmp_path, monkeypatch, workload):
    # block_size cuts a run by the bytes its frames keep per point
    # (frame_bytes, one frame per order the run's block checks read): the
    # frames of a workload's first block, after every check's step has read
    # them, keep within 0.8 to 1.25 times that charge
    import gc
    import tracemalloc

    from jetlag import cli
    from jetlag.geometry import _block_records, block_size, blocks, frame_bytes

    doc = _load_bench(monkeypatch, "spec").make_config(workload, None)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    ctx = cfg.space
    orders = {cli.CHECKS[name].order for name in cfg.checks if cli.CHECKS[name].fold}
    block = blocks(cli._collect_points(cfg, ctx), block_size(ctx, orders))[0]
    ctx.forget_run()
    gc.collect()
    tracemalloc.start()
    try:
        for name in cfg.checks:
            if cli.CHECKS[name].fold:
                _block_records(cli._RUNNERS[name], ctx, block)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        ctx.forget_run()
        gc.collect()
        kept -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    charged = len(block) * sum(frame_bytes(ctx, k) for k in orders)
    assert 0.8 * charged <= kept <= 1.25 * charged, (len(block), kept, charged)


def test_frames_share_the_coordinate_jets_derivatives(tmp_path, monkeypatch):
    # the derivative coefficients of a frame's xs jets are read-only views
    # of one table, the same in every frame of a space and order, and the
    # jets equal those of Jet.variables; an order-3 block of a run keeps
    # its report bytes
    from jetlag import cli
    from jetlag.diff_engine import Jet, coord_index
    from jetlag.geometry import frame

    bench_spec = _load_bench(monkeypatch, "spec")
    doc = bench_spec.make_config("optic-suite", None)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    ctx = cfg.space
    pts = cli._collect_points(cfg, ctx)
    idx = [[coord_index(2, 2, ("xs", i, a)) for a in range(2)] for i in range(2)]
    firsts = []
    for block in (pts[:6], pts[6:], pts[:1]):
        xs = frame(ctx, block, 3).xs_jet
        vals = np.array([pt.xs for pt in block])
        want = Jet.variables(vals, np.broadcast_to(idx, vals.shape), 8, 3)
        for c, w in zip(xs.coeffs, want.coeffs, strict=True):
            assert c.shape == w.shape and np.array_equal(c, w)
        for c in xs.coeffs[1:]:
            assert c.base is not None and not c.flags.writeable
        firsts.append(xs.coeffs[1])
    assert all(np.shares_memory(firsts[0], c) for c in firsts[1:])
    ctx.forget_run()
    run_to(tmp_path, doc, out="suite.json")
    text = (tmp_path / "suite.json").read_text()
    assert hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest() == (
        bench_spec.WORKLOADS["optic-suite"]["digest"])


def test_a_run_leaves_no_frame_behind(tmp_path, monkeypatch):
    # with one block covering every point, a second run of one loaded
    # config would find the first run's frames and build none; a run and a
    # library sweep each drop their frames when they end
    from jetlag import cli, geometry
    from jetlag.geometry import Frame, sweep
    from jetlag.gravity import conservation_residuals

    def whole(ctx, orders):
        return 10 ** 6

    monkeypatch.setattr(cli, "block_size", whole)
    monkeypatch.setattr(geometry, "block_size", whole)
    builds = []
    init = Frame.__init__

    def counting(self, ctx, pts, order):
        init(self, ctx, pts, order)
        builds.append((len(self.pts), order))

    monkeypatch.setattr(Frame, "__init__", counting)
    doc = _load_bench(monkeypatch, "spec").make_config("optic-suite", None)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    counts = []
    for _ in range(2):
        builds.clear()
        cli.run_report(cfg)
        counts.append(list(builds))
        assert cfg.space._frames == {}
    assert counts[0] == counts[1] and (12, 2) in counts[0]
    pts = cli._collect_points(cfg, cfg.space)
    for _ in range(2):
        builds.clear()
        sweep(conservation_residuals, cfg.space, pts, 3)
        assert builds == [(12, 3)] and cfg.space._frames == {}


def test_mixed33_deep_takes_each_divergence_once(tmp_path, monkeypatch):
    # natural-form's rewritten laws read the divergences its identities
    # take: 12 covariant derivatives per order-3 frame, not 15, in 8 frames
    # of 2 points
    from jetlag.geometry import Frame

    calls = []
    cov = Frame._cov

    def counting(self, *args):
        calls.append(self.order)
        return cov(self, *args)

    monkeypatch.setattr(Frame, "_cov", counting)
    doc = _load_bench(monkeypatch, "spec").make_config("mixed33-deep", None)
    run_to(tmp_path, doc)
    assert calls == [3] * 96


def test_mixed33_deep_builds_one_construction_per_block(tmp_path, monkeypatch):
    # natural-form builds its trace-adjusted construction at the first
    # point of each block, not at each point: 8 for 16 points in 8 frames of
    # 2, and the fold keeps the first block's, which is pts[0]'s
    from jetlag import cli, gravity
    from jetlag.geometry import block_size, blocks

    built = []

    class Counted(gravity.NaturalFormReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.traces is not None and self.identity_residuals is None:
                built.append(self)  # a construction, not a fold of one

    monkeypatch.setattr(gravity, "NaturalFormReport", Counted)
    doc = _load_bench(monkeypatch, "spec").make_config("mixed33-deep", None)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    pts = cli._collect_points(cfg, cfg.space)
    rep, _ = cli.run_report(cfg)
    assert len(built) == len(blocks(pts, block_size(cfg.space, {3}))) == 8
    assert len(pts) == 16
    got = rep.checks["natural-form"]["detail"]["construction"]
    assert got["roundtrip"] == gravity.natural_stress_energy(
        cfg.space, pts[0]).roundtrip_residual


def _block_key(pts):
    return tuple(pt.key() for pt in pts)


def test_frames_live_only_as_long_as_their_point(tmp_path, monkeypatch):
    # when a frame of a new block is built, no frame and no field jet of an
    # earlier block is alive: the run drops each block's frames, and the
    # jets they evaluated, when the next block starts
    import weakref

    from jetlag.field_expr import FieldGrid
    from jetlag.geometry import Frame

    bench_spec = _load_bench(monkeypatch, "spec")
    built = []  # (block key, weak reference) of every frame and field jet
    stale = []
    init = Frame.__init__
    stacked = FieldGrid.stacked

    def tracking(self, ctx, pts, order):
        init(self, ctx, pts, order)
        key = _block_key(self.pts)
        stale.extend(k for k, ref in built if k != key and ref() is not None)
        built.append((key, weakref.ref(self)))

    def evaluating(self, pts, order):
        jet = stacked(self, pts, order)
        key = _block_key([pts] if isinstance(pts, JetPoint) else pts)
        built.extend((key, weakref.ref(c)) for c in jet.coeffs)
        return jet

    monkeypatch.setattr(Frame, "__init__", tracking)
    monkeypatch.setattr(FieldGrid, "stacked", evaluating)
    for doc in (MIXED33_CFG, bench_spec.make_config("optic-sweep", None)):
        built.clear()
        run_to(tmp_path, doc)
        assert len({k for k, _ in built}) >= 3
        assert not stale, len(stale)


def test_point_errors_name_their_point(tmp_path):
    rc, rep = run_to(tmp_path, SINGULAR_CFG)
    assert rc == 1
    pt = SINGULAR_CFG["points"]["explicit"][0]
    for name in ("metricity", "curvature", "einstein"):
        doc = rep["checks"][name]
        assert doc["status"] == "fail"
        assert "singular" in doc["error"]
        assert doc["witness"] == pt


def test_maxwell_error_precedence(tmp_path):
    # a frame error of the torsion precheck at a later point outranks a
    # Maxwell-equation error at an earlier one
    _, rep = run_to(tmp_path, MAXWELL_PRECEDENCE_CFG)
    doc = rep["checks"]["maxwell"]
    assert doc["error"] == "log of a non-positive value"
    assert doc["witness"] == MAXWELL_PRECEDENCE_CFG["points"]["explicit"][1]
    # so does a torsion violation, named at its worst point
    _, rep = run_to(tmp_path, TORSION_PRECEDENCE_CFG, out="torsion.json")
    doc = rep["checks"]["maxwell"]
    assert doc["error"].startswith("spatial nonlinear connection has torsion")
    assert doc["witness"] == TORSION_PRECEDENCE_CFG["points"]["explicit"][0]
    assert rep["checks"]["metricity"]["error"].startswith("matrix is singular")


@pytest.mark.parametrize("count", [2, 1])
def test_held_maxwell_error_keeps_no_frame_alive(tmp_path, monkeypatch, count):
    # the equation error of point 0 waits in its record while point 1 is
    # evaluated, and holds none of point 0's frames; the library's
    # maxwell_residuals raises what the run reports, at the same witness
    import weakref

    from jetlag import cli
    from jetlag.errors import JetlagError
    from jetlag.geometry import Frame

    points = dict(MAXWELL_PRECEDENCE_CFG["points"],
                  explicit=MAXWELL_PRECEDENCE_CFG["points"]["explicit"][:count])
    doc = dict(MAXWELL_PRECEDENCE_CFG, points=points, checks=["maxwell"])
    built, stale = [], []
    init = Frame.__init__

    def tracking(self, ctx, pts, order):
        init(self, ctx, pts, order)
        key = _block_key(self.pts)
        stale.extend(k for k, ref in built if k != key and ref() is not None)
        built.append((key, weakref.ref(self)))

    monkeypatch.setattr(Frame, "__init__", tracking)
    _, rep = run_to(tmp_path, doc)
    # the block of both points, then each point alone
    assert len({k for k, _ in built}) == (1 if count == 1 else 3) and not stale
    got = rep["checks"]["maxwell"]
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    with pytest.raises(JetlagError) as info:
        maxwell_residuals(cfg.space, cfg.explicit)
    assert str(info.value) == got["error"]
    assert cli._point_doc(info.value.witness) == got["witness"] == points["explicit"][-1]


def test_a_torsion_error_skips_the_blocks_maxwell_equations(tmp_path, monkeypatch):
    # the torsion probe of point 1 raises, so the block's probe falls back
    # to each point alone and the equations are not stepped: three frames,
    # the block and each point, and the report keeps the probe's error
    from jetlag.geometry import Frame

    builds = []
    init = Frame.__init__

    def counting(self, ctx, pts, order):
        init(self, ctx, pts, order)
        builds.append(_block_key(self.pts))

    monkeypatch.setattr(Frame, "__init__", counting)
    _, rep = run_to(tmp_path, dict(MAXWELL_PRECEDENCE_CFG, checks=["maxwell"]))
    explicit = MAXWELL_PRECEDENCE_CFG["points"]["explicit"]
    assert len(builds) == 3 and len(set(builds)) == 3
    assert rep["checks"]["maxwell"]["error"] == "log of a non-positive value"
    assert rep["checks"]["maxwell"]["witness"] == explicit[1]


def _load_bench(monkeypatch, name):
    """A module of perfbench/, loaded read-only under its own name."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_check_has_one_row_and_one_runner():
    # the check table and the runners name the same checks, and only the
    # whole-sweep grad-check has no fold
    from jetlag import cli

    assert list(cli.CHECKS) == list(cli._RUNNERS)
    assert [n for n, c in cli.CHECKS.items() if c.fold is None] == ["grad-check"]


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the traced benchmark run wraps these names; a refactor that drops one
    # fails there, and here
    import importlib

    from jetlag import cli

    bench_spec = _load_bench(monkeypatch, "spec")
    spans = _load_bench(monkeypatch, "spans")
    for modname, attr, *_ in spans.TARGETS + spans.ORDER_TARGETS:
        mod = importlib.import_module(f"jetlag.{modname}")
        if "." in attr:
            clsname, meth = attr.split(".")
            assert meth in vars(getattr(mod, clsname)), (modname, attr)
        else:
            assert callable(getattr(mod, attr, None)), (modname, attr)
    assert set(bench_spec.CHECKS) <= set(cli._RUNNERS)
    assert all(callable(fn) for fn in cli._RUNNERS.values())
    # the traced run wraps each Frame block under a block name
    # (spans._block_of raises LookupError for a name it cannot place)
    from functools import cached_property

    from jetlag.geometry import Frame

    assert all(spans._block_of(prop) in bench_spec.BLOCKS
               for prop, val in vars(Frame).items()
               if isinstance(val, cached_property))


def _traced_workloads(tmp_path, monkeypatch):
    """(workload, its config, its per-layer metrics) of one run of each
    benchmark workload's config, under perfbench's own span recorder."""
    from jetlag import cli

    bench_spec = _load_bench(monkeypatch, "spec")
    spans = _load_bench(monkeypatch, "spans")
    # the recorder rebinds names with setattr; through monkeypatch every
    # name is restored after the test, and the runner table is a copy
    monkeypatch.setattr(spans, "setattr", monkeypatch.setattr, raising=False)
    monkeypatch.setattr(cli, "_RUNNERS", dict(cli._RUNNERS))
    rec = spans.install()
    for name in bench_spec.WORKLOADS:
        cfg = cli.load_config(write_cfg(
            tmp_path, bench_spec.make_config(name, None), name=f"{name}.json"))
        lo = len(rec)
        report, _ = cli.run_report(cfg)
        yield name, cfg, spans.layer_metrics(
            rec.summary(lo, len(rec)), len(report.points) - len(cfg.explicit))


def test_benchmark_nonzero_targets_hold(tmp_path, monkeypatch):
    # the traced benchmark run asserts spec.NONZERO_ON: each workload must
    # reach the targets named for it (check_grad, natural_form_checks) and
    # no other, and tensor_core on none
    bench_spec = _load_bench(monkeypatch, "spec")
    for name, _, got in _traced_workloads(tmp_path, monkeypatch):
        for metric, on in bench_spec.NONZERO_ON.items():
            assert (got[metric] > 0) == (name in on), (name, metric, got[metric])


# the library entry points each check's step calls, by the per-layer
# metric that times them; a step that stops calling one reads 0 there
CHECK_SPANS = {
    "conservation": ("gravity.conservation.s",),
    "einstein": ("gravity.einstein_blocks.s", "gravity.stress_energy.s"),
    "curvature": ("em_field.deflection_identities.s", "em_field.bracket.s"),
}


def test_benchmark_check_spans_take_time(tmp_path, monkeypatch):
    # each workload that runs a check times the library entry points its
    # step calls
    seen = set()
    for name, cfg, got in _traced_workloads(tmp_path, monkeypatch):
        for check in set(CHECK_SPANS) & set(cfg.checks):
            seen.add(check)
            for metric in CHECK_SPANS[check]:
                assert got[metric] > 0, (name, metric)
    assert seen == set(CHECK_SPANS)


# the workload reports at a second seed; the benchmark pins only the
# default seed's digest, and a change that keeps reports byte-identical
# keeps these too
SEED23_DIGESTS = {
    "optic-suite": "169d047f3d8c238437c01a975e3fbd5b88e68d95a21c9288db5a16bd812b8f48",
    "optic-sweep": "493b2e712367985bfbb26d5d7d437318a5b84615e15180b76d1051497daac7bb",
    "mixed33-deep": "3cb9c9d57b6bbf64169d268f76d86cabc57194bd6f3a0d549caf154fd26c8b0a",
}


def test_benchmark_workload_digests(tmp_path, monkeypatch):
    # every benchmark run is checked against these references; a change
    # that moves one report byte fails here before the benchmark runs
    bench_spec = _load_bench(monkeypatch, "spec")
    for seed in (None, 23):
        for name, ref in bench_spec.WORKLOADS.items():
            rc, rep = run_to(tmp_path, bench_spec.make_config(name, seed),
                             name=f"{name}.json", out=f"{name}.report.json")
            text = (tmp_path / f"{name}.report.json").read_text()
            statuses = {check: doc["status"]
                        for check, doc in rep["checks"].items()}
            assert statuses == ref["statuses"], (name, seed)
            assert rc == ref["exit_code"], (name, seed)
            digest = hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest()
            want = ref["digest"] if seed is None else SEED23_DIGESTS[name]
            assert digest == want, (name, seed)


# g = diag(log(x1), 1) leaves the log domain at x1 <= 0
LOG_DOMAIN_CFG = dict(
    _custom_g_cfg([["log(x[1])", "0"], ["0", "1"]]),
    points={"explicit": [_explicit_point(2.0), _explicit_point(-0.5)]},
    checks=["grad-check"],
)


def test_grad_check_names_its_witness(tmp_path):
    rc, rep = run_to(tmp_path, LOG_DOMAIN_CFG)
    assert rc == 1
    doc = rep["checks"]["grad-check"]
    assert doc["status"] == "fail"
    assert doc["error"] == "log of a non-positive value"
    assert doc["witness"] == LOG_DOMAIN_CFG["points"]["explicit"][1]


def _eye3():
    return [["1" if i == j else "0" for j in range(3)] for i in range(3)]


# g = diag(log(x1), 1, 1) on a (3,3) space leaves the log domain at point 1
NATURAL_LOG_DOMAIN_CFG = {
    "p": 3, "n": 3,
    "space": {"name": "custom", "params": {
        "h": _eye3(),
        "g": [["log(x[1])", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "nlc": {"kind": "christoffel", "phi": _eye3()}}},
    "points": {"explicit": [
        {"t": [0.1, 0.2, 0.3], "x": [x1, 0.4, 0.5],
         "xs": [[0.5, 0.6, 0.1], [0.7, 0.8, 0.2], [0.3, 0.1, 0.4]]}
        for x1 in (2.0, -0.5)]},
    "checks": ["natural-form"],
}


def test_natural_form_names_its_witness(tmp_path):
    rc, rep = run_to(tmp_path, NATURAL_LOG_DOMAIN_CFG)
    assert rc == 1
    doc = rep["checks"]["natural-form"]
    assert doc["status"] == "fail"
    assert doc["error"] == "log of a non-positive value"
    assert doc["witness"] == NATURAL_LOG_DOMAIN_CFG["points"]["explicit"][1]


# the two natural-form grades short of fail: on a (3,3) quadratic space of
# diagonal h(t) and g(x) every identity and law closes (pass); on the
# direction-dependent space with K = 0 the contracted-cyclic identities
# close and the stated ones do not (flagged)
NATURAL_PASS_CFG = {
    "p": 3, "n": 3,
    "space": {"name": "quadratic", "params": {
        "h": [["1+0.1*t[2]^2", "0", "0"], ["0", "2+0.1*t[3]^2", "0"],
              ["0", "0", "1.5+0.1*t[1]^2"]],
        "g": [["1+0.2*x[2]^2", "0", "0"], ["0", "2+0.1*x[3]^2", "0"],
              ["0", "0", "1+0.1*x[1]^2"]]}},
    "points": {"seed": 5, "count": 2, "box": {"t": [-0.5, 0.5],
                                              "x": [-0.5, 0.5]}},
    "checks": ["natural-form"],
}
NATURAL_FLAGGED_CFG = dict(
    MIXED33_CFG,
    space={"name": "custom", "params": dict(MIXED33_CFG["space"]["params"], K=0)},
    points=dict(MIXED33_CFG["points"], count=2),
    checks=["natural-form"],
)


@pytest.mark.parametrize("doc,status,digest", [
    (NATURAL_PASS_CFG, "pass",
     "5f9307f7b283edcc8c9048243a441481400b79afe3dfcee750c94c48a1b991db"),
    (NATURAL_FLAGGED_CFG, "flagged",
     "abf9c078e8043b9e9b83372217cd3496a42ac11c1107cf457c2841a3ad3acc87"),
], ids=["pass", "flagged"])
def test_natural_form_pass_and_flagged(tmp_path, doc, status, digest):
    rc, rep = run_to(tmp_path, doc)
    assert rc == 0
    assert rep["checks"]["natural-form"]["status"] == status
    assert rep["checks"]["natural-form"]["witness"] is None
    text = WALL_LINE.sub("", (tmp_path / "report.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# N^(1)_(1)1 = 5e-10 xs^2_1: a violation below the Maxwell precondition's
# limit that a torsion tolerance of 1e-12 still fails
WEAK_TORSION_CFG = dict(
    TORSIONAL_CFG,
    space={"name": "custom", "params": dict(
        TORSIONAL_CFG["space"]["params"],
        nlc={"kind": "user", "entries": [[["5e-10*xs[2][1]", "0"], ["0", "0"]],
                                         [["0", "0"], ["0", "0"]]]})},
    tolerances={"torsion": 1e-12},
)


def test_every_failing_check_names_its_witness(tmp_path):
    # the optic config with every check it allows, each at a tolerance that
    # only an exact zero meets
    checks = [c for c in CHECK_NAMES if c != "natural-form"]
    optic = dict(OPTIC_CFG, checks=checks, dump=[],
                 tolerances={c: 1e-300 for c in checks})
    for doc in (optic, WEAK_TORSION_CFG):
        rc, rep = run_to(tmp_path, doc)
        assert rc == 1
        for name, got in rep["checks"].items():
            if got["status"] == "fail" and got["error"] is None:
                assert got["witness"] is not None, name
            for flag in ("torsion_free", "regular"):
                if flag in got["detail"]:
                    assert got["detail"][flag] == (got["status"] == "pass"), name
    torsion = rep["checks"]["torsion"]
    assert torsion["status"] == "fail"
    assert torsion["detail"]["torsion_free"] is False
    assert torsion["witness"]["where"] == [[0, 0, 0, 1, 0]]


def test_shared_blocks_derived_once_per_frame(monkeypatch, pt_mixed33):
    # conservation and natural-form read one set of law right-hand sides
    # per frame, curvature and maxwell one set of metrical deflections,
    # torsion and maxwell one torsion probe, and the einstein step reads
    # one set of Einstein blocks for the blocks and the stress-energy
    from jetlag import cli, em_field, geometry, gravity

    calls = []
    for mod, name in ((gravity, "_raised_p_jets"), (em_field, "_metrical_jets"),
                      (gravity, "_einstein_blocks_at"),
                      (geometry, "_torsion_probe")):
        def counting(fr, _fn=getattr(mod, name), _name=name):
            calls.append(_name)
            return _fn(fr)

        monkeypatch.setattr(mod, name, counting)
    ctx = support.mixed33_ctx()
    cli._run_conservation(ctx, [pt_mixed33])
    cli._natural_form_at(ctx, [pt_mixed33])
    assert calls.count("_einstein_blocks_at") == 1  # the construction's
    ctx = build_space("optic", OPTIC_CFG["space"]["params"])
    pt = JetPoint.of([0.1, 0.2], [0.3, 0.4], [[0.2, -0.1], [0.3, 0.4]])
    cli._run_curvature(ctx, [pt])
    cli._RUNNERS["torsion"](ctx, [pt])
    cli._RUNNERS["maxwell"](ctx, [pt])
    cli._run_einstein(ctx, [pt])
    assert calls.count("_raised_p_jets") == 1
    assert calls.count("_metrical_jets") == 1
    assert calls.count("_torsion_probe") == 1
    assert calls.count("_einstein_blocks_at") == 2


def test_a_reader_cannot_change_a_shared_block():
    # the Einstein blocks are frozen with read-only arrays, at a point and
    # over a block, and the torsion probe's columns are handed out as new
    # lists, so a later reader of the frame gets what the first got
    from dataclasses import FrozenInstanceError

    from jetlag.geometry import nlc_torsion_at
    from jetlag.gravity import einstein_blocks, stress_energy_extract

    ctx = build_space("optic", OPTIC_CFG["space"]["params"])
    pt = JetPoint.of([0.1, 0.2], [0.3, 0.4], [[0.2, -0.1], [0.3, 0.4]])
    eb = einstein_blocks(ctx, [pt])
    with pytest.raises(ValueError):
        eb.tt[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        einstein_blocks(ctx, pt).tt[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        eb.tt = np.zeros_like(eb.tt)
    assert einstein_blocks(ctx, [pt]).tt.shape == (1, 2, 2)
    assert stress_energy_extract(ctx, pt).T_tt.flags.writeable
    for column in nlc_torsion_at(ctx, [pt]):
        column.clear()
    assert list(map(len, nlc_torsion_at(ctx, [pt]))) == [1, 1]


# g = diag(x1, 1): signature ((1, 1), (-1, 1)) at point 0, ((1, 1), (1, 1))
# at point 1
SIGNATURE_FLIP_CFG = dict(
    _custom_g_cfg([["x[1]", "0"], ["0", "1"]]),
    points={"explicit": [_explicit_point(-0.5), _explicit_point(0.5)]},
)


@pytest.mark.parametrize("checks", [
    ["metricity", "curvature", "einstein"],
    ["einstein", "curvature", "metricity"],
    ["regularity", "torsion", "curvature"],
])
def test_explicit_run_signature_from_first_point(tmp_path, monkeypatch, checks):
    from jetlag import cli
    from jetlag.geometry import GeometryContext

    # the signature is recorded from point 0, the first point the first
    # block reads, so the check order cannot change which point is held to
    # which signature
    events = []
    record = GeometryContext._check_signature

    def check_signature(ctx, pts, hs, gs):
        events.extend(("signature", pt.x[0]) for pt in pts)
        return record(ctx, pts, hs, gs)

    monkeypatch.setattr(GeometryContext, "_check_signature", check_signature)
    for name in checks:
        def step(*args, _name=name, _fn=cli._RUNNERS[name]):
            events.append(("check", _name))
            return _fn(*args)

        monkeypatch.setitem(cli._RUNNERS, name, step)
    rc, rep = run_to(tmp_path, dict(SIGNATURE_FLIP_CFG, checks=checks))
    assert next(e for e in events if e[0] == "signature") == ("signature", -0.5)
    assert rc == 1
    flip = SIGNATURE_FLIP_CFG["points"]["explicit"][1]
    for name in checks:
        doc = rep["checks"][name]
        if name in ("regularity", "torsion"):
            assert doc["status"] == "pass"  # neither evaluates g
            continue
        assert doc["error"] == ("metric signature changed between sample "
                                "points: recorded ((1, 1), (-1, 1)), found "
                                "((1, 1), (1, 1))")
        assert doc["witness"] == flip


def _report_text(cfg, path):
    from jetlag import cli

    cli.run_report(cfg, out_path=str(path))
    return WALL_LINE.sub("", path.read_text())


@pytest.mark.parametrize("before", ["run", "frame", "sweep"])
def test_a_run_inherits_no_signature(tmp_path, before):
    # g = diag(x1, 1) has opposite signatures at x1 = 0.5 and x1 = -0.5: a
    # run at one of them, after a run, a frame's g or a library sweep at
    # the other on the same loaded config, writes the report it writes
    # on a config of its own
    from dataclasses import replace

    from jetlag import cli
    from jetlag.geometry import frame, metricity_residuals, sweep

    path = write_cfg(tmp_path, dict(
        _custom_g_cfg([["x[1]", "0"], ["0", "1"]]),
        points={"explicit": [_explicit_point(0.5)]},
        checks=["metricity", "curvature", "einstein"]))

    def at(cfg, x1):
        pt = JetPoint.of([0.1, 0.2], [x1, 0.4], [[0.5, 0.6], [0.7, 0.8]])
        return replace(cfg, explicit=(pt,))

    for first, second in ((0.5, -0.5), (-0.5, 0.5)):
        alone = _report_text(at(cli.load_config(path), second),
                             tmp_path / "alone.json")
        assert "signature changed" not in alone
        cfg = cli.load_config(path)
        earlier = at(cfg, first)
        if before == "run":
            cli.run_report(earlier, out_path=str(tmp_path / "first.json"))
        elif before == "frame":
            frame(cfg.space, earlier.explicit[0], 0).g_jet
        else:
            sweep(metricity_residuals, cfg.space, list(earlier.explicit), 2)
        assert _report_text(at(cfg, second), tmp_path / "after.json") == alone


@pytest.mark.parametrize("doc", [
    OPTIC_CFG, dict(SIGNATURE_FLIP_CFG, checks=["metricity", "curvature"])],
    ids=["optic", "signature-flip"])
def test_one_config_builds_its_space_once(tmp_path, monkeypatch, doc):
    # load_config builds the space, and every run of the config evaluates
    # that one; the second run writes the first run's bytes
    from jetlag import cli

    built = []
    build = cli.build_space

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_space", counting)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    for out in ("r1.json", "r2.json"):
        cli.run_report(cfg, out_path=str(tmp_path / out))
    assert len(built) == 1
    assert stable_lines(tmp_path / "r1.json") == stable_lines(tmp_path / "r2.json")


def _point(x1, x2=0.4):
    return {"t": [0.1, 0.2], "x": [x1, x2], "xs": [[0.5, 0.6], [0.7, 0.8]]}


# g[1][2] alone leaves the log domain, and only at the step-2 stencil
# points of its second explicit point (x1 = 5e-5 < 1e-4); g[2][1] holds the
# same value with its log at another offset
GRAD_LOG_STENCIL_CFG = dict(
    _custom_g_cfg([["1 + x[1]^2", "0.01*log(x[1])"],
                   ["log(x[1])*0.01", "1"]]),
    points={"explicit": [_point(2.0), _point(5e-5)]},
    checks=["grad-check"],
)

# the refraction index n = x1 is 1 + 5e-5 at the second point, so only a
# step-2 stencil point dips below 1; the witness is that stencil point
GRAD_INDEX_STENCIL_CFG = dict(
    OPTIC_CFG,
    space={"name": "optic",
           "params": dict(OPTIC_CFG["space"]["params"], n="x[1]")},
    points={"explicit": [_point(1.5), _point(1.00005)]},
    checks=["grad-check"], dump=[],
)


# g[1][1] leaves the sqrt domain at the Taylor point of the second point,
# after g[1][2] left the log domain at a stencil point of the first: the
# fields are checked in turn, so g[1][1]'s error is the one reported
GRAD_FIELD_ORDER_CFG = dict(
    GRAD_LOG_STENCIL_CFG,
    space={"name": "custom", "params": dict(
        GRAD_LOG_STENCIL_CFG["space"]["params"],
        g=[["1 + sqrt(x[2] - 0.35)", "0.01*log(x[1])"],
           ["log(x[1])*0.01", "1"]])},
    points={"explicit": [_point(5e-5), _point(2.0, 0.3)]},
)


# the same, with g[1][2] failing at the Taylor point of the first point
GRAD_TAYLOR_ORDER_CFG = dict(
    GRAD_FIELD_ORDER_CFG, points={"explicit": [_point(-0.5), _point(2.0, 0.3)]})


@pytest.mark.parametrize("doc,error,offset,witness", [
    (GRAD_LOG_STENCIL_CFG, "log of a non-positive value", 5, _point(5e-5)),
    (GRAD_FIELD_ORDER_CFG, "sqrt needs a positive argument", 4,
     _point(2.0, 0.3)),
    (GRAD_TAYLOR_ORDER_CFG, "sqrt needs a positive argument", 4,
     _point(2.0, 0.3)),
    (GRAD_INDEX_STENCIL_CFG,
     "refraction index 0.9999499950000001 < 1 while evaluating 'g[1][1]'",
     None,
     {"t": [0.10010000000000001, 0.2], "x": [0.9999499950000001, 0.4],
      "xs": [[0.5, 0.6], [0.7, 0.8]]}),
], ids=["log", "field-order", "taylor-order", "refraction-index"])
def test_grad_check_error_attribution(tmp_path, doc, error, offset, witness):
    from jetlag import cli
    from jetlag.errors import JetlagError

    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    check = rep["checks"]["grad-check"]
    assert (check["status"], check["error"], check["witness"]) == (
        "fail", error, witness)
    ctx = build_space(doc["space"]["name"], doc["space"]["params"])
    pts = [JetPoint.of(p["t"], p["x"], p["xs"]) for p in doc["points"]["explicit"]]
    with pytest.raises(JetlagError) as exc:
        cli._run_grad_check(ctx, pts, 1e-5)
    assert str(exc.value) == error
    assert getattr(exc.value, "offset", None) == offset
    if offset is not None:  # a domain error names the probed point
        assert exc.value.witness is pts[1]


def test_dump_error_names_family_and_point(tmp_path, capsys, monkeypatch):
    # without the dump, the same run reports the singular point as witness;
    # with it, the run stops before any check step
    from jetlag import cli

    steps = []
    for name, run in list(cli._RUNNERS.items()):
        monkeypatch.setitem(cli._RUNNERS, name,
                            lambda *a, run=run: steps.append(a) or run(*a))
    cfg = write_cfg(tmp_path, dict(SINGULAR_CFG, dump=["connection"]))
    assert main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert steps == []
    err = capsys.readouterr().err
    point = json.dumps(SINGULAR_CFG["points"]["explicit"][0])
    assert err == (f"error: dump 'connection' at point {point}: matrix is "
                   "singular or ill-conditioned (cond=inf)\n")


def test_em_dump_builds_deflections_once(monkeypatch):
    from jetlag import cli, em_field

    calls = []
    build = em_field.deflection_set
    for mod in (cli, em_field):
        monkeypatch.setattr(mod, "deflection_set",
                            lambda ctx, pt: calls.append(pt) or build(ctx, pt))
    ctx = build_space("optic", OPTIC_CFG["space"]["params"])
    pt = JetPoint.of([0.1, 0.2], [0.3, 0.4], [[0.2, -0.1], [0.3, 0.4]])
    doc = cli._dump_families(ctx, pt, ["em"])["families"]["em"]
    assert len(calls) == 1
    em = em_field.em_tensors(ctx, pt)
    assert np.array_equal(doc["em"].F, em.F) and np.array_equal(doc["em"].f, em.f)


# --------------------------------------------------------------------------
# error contract: every malformed input ends in one named error
# --------------------------------------------------------------------------

def _space_cfg(name, params, points=None):
    return {"p": 2, "n": 2, "space": {"name": name, "params": params},
            "points": points or {"seed": 1, "count": 1},
            "checks": ["metricity"]}


EYE2 = [["1", "0"], ["0", "1"]]
CONFORMAL_PARAMS = {"h": EYE2, "phi": EYE2, "variant": "iii", "X": ["1", "0"]}
LAGRANGIAN_PARAMS = dict(LAGRANGIAN_CFG["space"]["params"])


MALFORMED_SPACES = {
    "optic-h-scalar": ("optic", dict(OPTIC_CFG["space"]["params"], h="1")),
    "conformal-phi-map": ("conformal", dict(CONFORMAL_PARAMS, phi={"a": "1"})),
    "quadratic-g-scalar": ("quadratic", {"h": EYE2, "g": 1}),
    "custom-h-map": ("custom", dict(LAGRANGIAN_PARAMS, h={})),
    "custom-g-scalar": ("custom", _custom_g_cfg("1")["space"]["params"]),
    "nlc-phi-scalar": ("custom", dict(
        LAGRANGIAN_PARAMS, nlc={"kind": "christoffel", "phi": "1"})),
    "nlc-entries-map": ("custom", dict(
        LAGRANGIAN_PARAMS, nlc={"kind": "user", "entries": {"a": 1}})),
    "K-text": ("conformal", dict(CONFORMAL_PARAMS, K="abc")),
    "K-list": ("optic", dict(OPTIC_CFG["space"]["params"], K=[1])),
    "nlc-n-text": ("custom", dict(
        LAGRANGIAN_PARAMS, nlc={"kind": "quadratic", "n": "abc"})),
    "nlc-n-zero": ("custom", dict(
        LAGRANGIAN_PARAMS, nlc={"kind": "quadratic", "n": 0})),
    "variant-list": ("conformal", dict(CONFORMAL_PARAMS, variant=["i"])),
    "K-nan": ("conformal", dict(CONFORMAL_PARAMS, K=float("nan"))),
    "K-inf": ("optic", dict(OPTIC_CFG["space"]["params"], K=float("inf"))),
    "K-bool": ("conformal", dict(CONFORMAL_PARAMS, K=True)),
    "nlc-n-float": ("custom", dict(
        LAGRANGIAN_PARAMS, nlc={"kind": "quadratic", "n": 2.7})),
}

# a box whose width overflows a float, or an infinite bound, used to end
# sampling in an OverflowError traceback; a finite but huge box of the
# conformal xs overflows exp(2 sigma) at every draw, and its error used to
# follow numpy overflow warnings on stderr
BOX_CASES = {"box-overflow": [-1e308, 1e308], "box-infinite": [0, float("inf")],
             "box-huge": [-1, 1e308]}


def _one_error_line(err):
    assert err.startswith("error:"), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(MALFORMED_SPACES) + sorted(BOX_CASES) + [
    "explicit-scalar", "explicit-nan", "tolerance-inf", "negative-seed"])
def test_malformed_input_is_a_named_error(tmp_path, capsys, case):
    if case in MALFORMED_SPACES:
        doc = _space_cfg(*MALFORMED_SPACES[case])
    else:
        doc = _space_cfg("conformal", CONFORMAL_PARAMS)
    if case in BOX_CASES:
        doc["points"]["box"] = {"xs": BOX_CASES[case]}
    if case == "explicit-scalar":
        doc["points"] = {"explicit": 5}
    if case == "explicit-nan":
        doc["points"] = {"explicit": [_point(float("nan"))]}
    if case == "tolerance-inf":
        doc["tolerances"] = {"metricity": float("inf")}
    cfg = write_cfg(tmp_path, doc)
    if case == "negative-seed":
        commands = [["run", cfg, "--seed", "-1"]]
    else:
        commands = [["run", cfg], ["validate", cfg]]
    for argv in commands:
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err)


# the optic space's guard raises where the refraction index n = x1 < 1
GUARDED_OPTIC_CFG = dict(
    OPTIC_CFG,
    space={"name": "optic", "params": dict(OPTIC_CFG["space"]["params"], n="x[1]")},
    points=dict(OPTIC_CFG["points"], box={"x": [0.5, 2], "xs": [-0.5, 0.5]}))


def test_sampling_rejects_a_draw_that_fails_a_field_guard(tmp_path, capsys):
    # a draw where n < 1 is rejected as one that left a field's domain, so
    # a box that holds admissible points gives a report, and one that holds
    # none ends in the sampling error that counts the rejections
    rc, rep = run_to(tmp_path, GUARDED_OPTIC_CFG)
    assert rc in (0, 1) and len(rep["points"]) == OPTIC_CFG["points"]["count"]
    assert all(pt["x"][0] >= 1 for pt in rep["points"])
    doc = dict(GUARDED_OPTIC_CFG, points=dict(
        GUARDED_OPTIC_CFG["points"], box={"x": [0.1, 0.9]}))
    cfg = write_cfg(tmp_path, doc)
    for command in ("run", "validate"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        _one_error_line(err)
        assert err.startswith("error: could not sample 6 admissible points")
        assert ("1000 draws left a field's domain and 0 had a metric with "
                "condition number above 1e+08") in err


@pytest.mark.parametrize("case", ["config-not-utf8", "output-dir-missing",
                                  "out-is-a-directory"])
def test_unreadable_or_unwritable_path_is_a_named_error(tmp_path, capsys, case):
    # each ends in one error line naming the path, and leaves no temporary
    # report file behind
    doc, extra = FLAT_CFG, []
    if case == "output-dir-missing":
        path = str(tmp_path / "missing" / "report.json")
        doc = dict(FLAT_CFG, output=path)
    elif case == "out-is-a-directory":
        path = str(tmp_path / "reports")
        os.mkdir(path)
        extra = ["--out", path]
    cfg = write_cfg(tmp_path, doc)
    if case == "config-not-utf8":  # "flat" with a Latin-1 byte
        path = cfg
        (tmp_path / "cfg.json").write_bytes(
            json.dumps(FLAT_CFG).encode().replace(b'"flat"', b'"fl\xe4t"'))
    assert main(["run", cfg, *extra]) == 2
    err = capsys.readouterr().err
    _one_error_line(err)
    assert repr(path) in err
    assert not list(tmp_path.rglob(".jetlag-*.tmp"))


FUZZ_BASES = [
    _space_cfg("conformal", dict(CONFORMAL_PARAMS, K=1.0),
               points={"seed": 1, "count": 1, "box": {"xs": [-0.5, 0.5]},
                       "explicit": [_point(0.3)]}),
    dict(_space_cfg("custom", LAGRANGIAN_PARAMS),
         tolerances={"metricity": 1e-8}, dump=["nlc"]),
    {"p": 1, "n": 1, "space": "flat", "checks": ["metricity"],
     "points": {"count": 1, "box": {"t": [-1, 1], "x": [-1, 1], "xs": [-1, 1]}}},
]


def _key_paths(doc, prefix=()):
    """(path, value) of every key of the maps in ``doc`` and every index
    of its lists."""
    for key, val in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,), val
        if isinstance(val, (dict, list)):
            yield from _key_paths(val, prefix + (key,))


def _with(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _validate_ends_cleanly(tmp_path, capsys, doc):
    """validate accepts ``doc`` or names the error, and never raises."""
    capsys.readouterr()
    rc = main(["validate", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    if rc == 2:
        _one_error_line(err)
    else:
        assert rc == 0 and err == ""


def _run_ends_cleanly(tmp_path, capsys, doc):
    """run writes a report of ``doc`` and exits 0 or 1, or names the error
    and exits 2, and never raises."""
    capsys.readouterr()
    out = tmp_path / "fuzz.report.json"
    out.unlink(missing_ok=True)
    rc = main(["run", write_cfg(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 2:
        _one_error_line(err)
        assert not out.exists()
    else:
        assert rc in (0, 1) and err == ""
        assert (json.loads(out.read_text())["summary"]["n_fail"] > 0) == rc


def _ends_cleanly(tmp_path, capsys, doc):
    """validate and run each end cleanly on ``doc``."""
    _validate_ends_cleanly(tmp_path, capsys, doc)
    _run_ends_cleanly(tmp_path, capsys, doc)


# non-finite and overflowing numbers
EXTREMES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308]
EXTREME = st.sampled_from(EXTREMES)

FUZZ_VALUES = st.one_of(
    st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=4), EXTREME,
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2), EXTREME),
             max_size=3),
    st.booleans(), st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.integers(-10**6, -1),
)


@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_shape_fuzz(tmp_path, capsys, data):
    # one key of a small config gets a value of the wrong shape, and both
    # validate and run end in a report or a named error
    base = data.draw(st.sampled_from(FUZZ_BASES))
    path = data.draw(st.sampled_from([p for p, _ in _key_paths(base)]))
    _ends_cleanly(tmp_path, capsys, _with(base, path, data.draw(FUZZ_VALUES)))


def test_extreme_number_at_every_number(tmp_path, capsys):
    # each number of the fuzz bases in turn becomes nan, +-inf or +-1e308;
    # the random fuzz above seldom lands on a box bound
    for base in FUZZ_BASES:
        for path, val in _key_paths(base):
            if type(val) in (int, float):
                for value in EXTREMES:
                    _ends_cleanly(tmp_path, capsys, _with(base, path, value))


def test_regularity_at_singular_h_names_its_point(tmp_path):
    # h = diag(t1, 1) is singular at t1 = 0: regularity fails there with
    # the singular-metric error, as metricity does
    params = dict(LAGRANGIAN_CFG["space"]["params"], h=[["t[1]", "0"], ["0", "1"]])
    pt = {"t": [0.0, 0.2], "x": [0.3, 0.4], "xs": [[0.5, 0.6], [0.7, 0.8]]}
    doc = dict(LAGRANGIAN_CFG, space={"name": "custom", "params": params},
               points={"explicit": [pt]}, checks=["metricity", "regularity"])
    rc, rep = run_to(tmp_path, doc)
    assert rc == 1
    for name in ("metricity", "regularity"):
        check = rep["checks"][name]
        assert check["status"] == "fail"
        assert check["error"] == "matrix is singular or ill-conditioned (cond=inf)"
        assert check["witness"] == pt


# --------------------------------------------------------------------------
# field grids run once per order over the run's points
# --------------------------------------------------------------------------

# phi = diag(exp(x1), log(x2)) leaves the log domain at the third point only
DOMAIN_SWEEP_CFG = {
    "p": 2, "n": 2,
    "space": {"name": "custom", "params": {
        "h": [["1", "0"], ["0", "1 + t[1]^2"]],
        "g": [["1 + x[1]^2", "0"], ["0", "2 + x[2]^3"]],
        "nlc": {"kind": "christoffel",
                "phi": [["exp(x[1])", "0"], ["0", "log(x[2])"]]}}},
    "points": {"explicit": [_explicit_point(x1, x2) for x1, x2 in
                            ((0.1, 1.4), (0.3, 1.5), (0.5, -0.4), (0.2, 1.7), (0.4, 1.3))]},
    "checks": ["metricity", "torsion", "curvature", "maxwell", "einstein"],
}


def test_a_point_outside_a_domain_keeps_its_error_in_a_batch(tmp_path, monkeypatch):
    # the phi grid's batch raises, so each point is evaluated alone and the
    # third one raises its own error; the digest was taken with every point
    # evaluated alone.  In one frame block of all five points, the row
    # block's failed phi run is the frame block's, so phi runs over the
    # five once and then over each point alone.  In frame blocks of at most
    # two points, one row block holds all five: its phi run raises, so each
    # frame block runs phi itself while h and g still run once over all
    # five points
    from jetlag import cli

    calls = support.record_grid_calls(monkeypatch)
    bad = DOMAIN_SWEEP_CFG["points"]["explicit"][2]
    for size in (None, 2):
        if size is not None:
            phi_runs = [n for grid, order, n in calls if order == 2
                        and {f.deps for f in grid.fields} == {frozenset({"x"})}]
            assert phi_runs[0] == 5 and set(phi_runs[1:]) == {0}, phi_runs
            monkeypatch.setattr(cli, "block_size", lambda ctx, orders: size)
        calls.clear()
        rc, rep = run_to(tmp_path, DOMAIN_SWEEP_CFG)
        assert rc == 1
        for name in DOMAIN_SWEEP_CFG["checks"]:
            doc = rep["checks"][name]
            assert (doc["status"], doc["error"], doc["witness"]) == (
                "fail", "log of a non-positive value", bad), (size, name)
        text = (tmp_path / "report.json").read_text()
        digest = hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest()
        assert digest == "f375815e1d5b583b40317ffa9309d884a696e2e0129e48c3884865877b276eab"
    runs = {}
    for grid, order, n in calls:
        if order == 2:
            runs.setdefault(tuple(f.deps for f in grid.fields), []).append(n)
    # blocks of 1, 2 and 2 points; a point framed alone is seeded alone
    phi = runs.pop((frozenset({"x"}),) * 4)
    assert phi[0] == 5 and set(phi[1:]) == {0, 2}
    assert list(runs.values()) == [[5], [5]]


def test_a_sampled_run_evaluates_each_grid_once_per_order(tmp_path, monkeypatch):
    # a tooling guard: perfbench's field_expr.eval.calls wraps ExprField
    # calls, which grids bypass, so it cannot see a run that falls back to
    # evaluating its fields point by point.  The run's frames take its
    # points in several blocks, but the rows of every grid fit one row
    # block, so each grid runs once per order over all of them
    calls = support.record_grid_calls(monkeypatch)
    count = 90
    doc = dict(OPTIC_CFG, points=dict(OPTIC_CFG["points"], count=count),
               checks=SWEEP_CHECKS, dump=[])
    rc, rep = run_to(tmp_path, doc)
    assert rc == 0 and len(rep["points"]) == count
    assert len(_block_sizes(count, _block_size_of(tmp_path, doc))) > 1
    # one sampling block (no draw is rejected), then one run per order
    runs = {}
    for grid, order, n in calls:
        runs.setdefault((grid, order), []).append(n)
    assert {order for _, order in runs} == {0, 2}
    assert len([key for key in runs if key[1] == 2]) == 3
    for (grid, order), sizes in runs.items():
        assert sizes == [count], order


def test_a_deep_run_evaluates_each_grid_once_over_the_coordinates_it_reads(
        tmp_path, monkeypatch):
    # sixteen points of the (3,3) space frame two points at a time at order
    # 3, and the h, g and phi grids each run once over all of them, their
    # jets over the 3, 8 and 3 coordinates they read of 15
    calls = support.record_grid_calls(monkeypatch, nvars=True)
    doc = dict(MIXED33_CFG, points=dict(MIXED33_CFG["points"], count=16))
    run_to(tmp_path, doc)
    assert _block_size_of(tmp_path, doc) == 2
    runs = {}
    for grid, order, n, nvars in calls:
        if order == 3:
            deps = " ".join(sorted(grid.fields[0].deps))
            runs.setdefault(deps, []).append((n, nvars))
    assert runs == {"t": [(16, 3)], "t x xs": [(16, 8)], "x": [(16, 3)]}


def test_rows_held_at_once_stay_within_the_block_budget(tmp_path, monkeypatch):
    # a g that reads all 15 coordinates keeps 266,112 bytes of order-3 rows
    # per point, so 40 points, framed one at a time, go in row blocks of
    # seven, five in the last, and the rows held at any one time never pass
    # BLOCK_BYTES
    from jetlag import geometry

    sigma = " + ".join(f"0.01*{c}" for c in
                       ["t[1]", "t[2]", "t[3]", "x[1]", "x[2]", "x[3]"]
                       + [f"xs[{i}][{a}]^2" for i in (1, 2, 3) for a in (1, 2, 3)])
    doc = dict(MIXED33_CFG, space={"name": "custom", "params": dict(
        MIXED33_CFG["space"]["params"],
        g=support.conformal_g_src(sigma, support.PHI33_SRC))},
               points=dict(MIXED33_CFG["points"], count=40), checks=["conservation"])
    held = []
    run = geometry._RowBlock._run

    def holding(self, grid, order):
        jet = run(self, grid, order)
        held.append(sum(c.nbytes for rows in [*self.held.values(), jet]
                        if rows is not None for c in rows.coeffs))
        return jet

    monkeypatch.setattr(geometry._RowBlock, "_run", holding)
    calls = support.record_grid_calls(monkeypatch, nvars=True)
    rc, rep = run_to(tmp_path, doc)
    assert rep["checks"]["conservation"]["error"] is None
    g_runs = [n for grid, order, n, nvars in calls if order == 3 and nvars == 15]
    assert g_runs == [7] * 5 + [5]
    assert held and max(held) <= geometry.BLOCK_BYTES


def test_two_runs_of_one_loaded_config_make_the_same_grid_calls(tmp_path, monkeypatch):
    # a run starts with no frame of another run's points, so every run of
    # one loaded config runs the same grids at the same orders over the
    # same batches
    from jetlag import cli

    calls = support.record_grid_calls(monkeypatch)
    points = {"explicit": [_explicit_point(x1) for x1 in (0.1, 0.3, 0.5)]}
    cfg = cli.load_config(write_cfg(tmp_path, dict(OPTIC_CFG, points=points)))
    runs = []
    for out in ("r1.json", "r2.json"):
        calls.clear()
        cli.run_report(cfg, out_path=str(tmp_path / out))
        runs.append(list(calls))
    assert runs[0] == runs[1] and runs[0]


# --------------------------------------------------------------------------
# a block of points gives each point the report it gets alone
# --------------------------------------------------------------------------

def _block_point(x1=0.3, xs11=0.5):
    return {"t": [0.1, 0.2], "x": [x1, 0.4], "xs": [[xs11, 0.6], [0.7, 0.8]]}


# g is singular at the third of five points, so a metric inverse over the
# block of all five raises; each point of the block then runs alone
SINGULAR_IN_BLOCK_CFG = dict(
    _custom_g_cfg([["x[1]^2 + 1e-14", "0"], ["0", "1"]]),
    points={"explicit": [_block_point(x1) for x1 in (0.2, 0.4, 0.0, 0.6, 0.8)]},
    checks=["metricity", "antisymmetry", "torsion", "curvature", "maxwell",
            "einstein", "regularity"],
)

# g = 1 + xs11^2 in its first entry is direction-independent where xs11 = 0
# only: the quadratic-canonical connection exists at the first point of the
# block and not at the second, and conservation records each point's flag
DIRECTION_IN_BLOCK_CFG = dict(
    _custom_g_cfg([["1 + xs[1][1]^2", "0"], ["0", "1"]]),
    points={"explicit": [_block_point(xs11=v) for v in (0.0, 0.5, 0.0, 0.3)]},
    checks=["metricity", "curvature", "einstein", "conservation"],
)
DIRECTION_QUADRATIC_CFG = dict(
    DIRECTION_IN_BLOCK_CFG,
    space={"name": "custom", "params": dict(
        DIRECTION_IN_BLOCK_CFG["space"]["params"], nlc={"kind": "quadratic"})},
    checks=["metricity", "torsion", "curvature", "einstein", "conservation"],
)


@pytest.mark.parametrize("doc,digest", [
    (SINGULAR_IN_BLOCK_CFG,
     "b99d4114ce0f1c1611954dbfbd3a4c75267995f6acca164c9998f5c93cafad1d"),
    (DIRECTION_QUADRATIC_CFG,
     "1e6cde2383066afac99f669dab40b357895ccaeb8d21231d415b739f35a3ddd2"),
    (DIRECTION_IN_BLOCK_CFG,
     "2bfb373a7cf2f50581e23c9768fc2379a8afd21c1e845a429ea48f4a4d404a9d"),
], ids=["singular", "direction-quadratic", "direction-christoffel"])
def test_a_block_keeps_each_points_errors_and_branches(tmp_path, monkeypatch,
                                                       doc, digest):
    # the digests were taken with every point evaluated alone
    from jetlag.geometry import Frame

    spans = []
    init = Frame.__init__

    def counting(self, ctx, pts, order):
        init(self, ctx, pts, order)
        spans.append(len(self.pts))

    monkeypatch.setattr(Frame, "__init__", counting)
    rc, rep = run_to(tmp_path, doc)
    assert max(spans) > 1  # a frame of a block
    text = (tmp_path / "report.json").read_text()
    assert hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest() == digest
    pts = doc["points"]["explicit"]
    if doc is SINGULAR_IN_BLOCK_CFG:
        for name in ("metricity", "antisymmetry", "curvature", "maxwell", "einstein"):
            got = rep["checks"][name]
            assert got["error"].startswith("matrix is singular"), name
            assert got["witness"] == pts[2], name
    elif doc is DIRECTION_QUADRATIC_CFG:
        for name, got in rep["checks"].items():
            assert got["error"].startswith("the quadratic-canonical connection"), name
            assert got["witness"] == pts[1], name
    else:
        assert rep["checks"]["conservation"]["detail"]["direction_independent"] is False


def _summed(subs: str) -> set:
    """The letters an einsum's subscripts sum over."""
    ins, outs = subs.split("->")
    return set(ins.replace(",", "")) - set(outs)


def _drifts(subs, layout) -> bool:
    """Whether one einsum of ``subs`` over the point axis moves the bits of
    some point, on normal values of ``layout`` ((dtype, shape, strides) per
    operand, none negative), drawn here apart from the router's probe."""
    from jetlag import diff_engine

    rng = np.random.default_rng(5)
    ops = [np.lib.stride_tricks.as_strided(
               rng.normal(size=sum((n - 1) * s for n, s in zip(shape, strides)) // 8 + 1),
               shape, strides) for _, shape, strides in layout]
    one, lead = diff_engine._unpointed(subs)
    out = np.einsum(subs, *ops)
    return any(out[i].tobytes() != np.einsum(one, *(op[i] if b else op
                                                   for op, b in zip(ops, lead))).tobytes()
               for i in range(len(out)))


def _routes(monkeypatch) -> list:
    """The (subscripts, layout, batched) of each routing decision of
    diff_engine._per_point while the test runs, in order; the recorder
    keeps the router's cache_clear and cache_info."""
    from jetlag import diff_engine

    keeps = diff_engine._batch_keeps_bits
    routes = []

    def recording(subs, layout):
        out = keeps(subs, layout)
        routes.append((subs, layout, out))
        return out

    recording.cache_clear, recording.cache_info = keeps.cache_clear, keeps.cache_info
    monkeypatch.setattr(diff_engine, "_batch_keeps_bits", recording)
    return routes


@pytest.mark.parametrize("size", [1, 4])
def test_batched_einsums_keep_each_points_bits(tmp_path, monkeypatch, size):
    # every einsum over the point axis of a block, in every pinned config
    # and benchmark workload run in blocks of ``size``, is replayed at each
    # point alone and must give its bytes; the router's probes run their own
    # kernel and are not replayed.  On an axis of one point every plan runs
    # as it is; in blocks of 4 the plans that sum two or more letters run as
    # one einsum where their layout keeps each point's bits, and the
    # drifting ones run one point at a time at a layout where they drift
    from jetlag import cli, diff_engine

    bench_spec = _load_bench(monkeypatch, "spec")
    einsum, pointed = diff_engine._einsum, diff_engine._pointed
    batched, routes = set(), _routes(monkeypatch)
    keeps = diff_engine._batch_keeps_bits

    def checking(subs, *ops):
        out = einsum(subs, *ops)
        if diff_engine.POINT in subs:
            one, lead = diff_engine._unpointed(subs)
            for i, got in enumerate(out):
                alone = einsum(one, *(op[i] if b else op for op, b in zip(ops, lead)))
                assert got.tobytes() == alone.tobytes(), subs
            batched.add((subs, len(out)))
        return out

    monkeypatch.setattr(diff_engine, "_einsum", checking)
    monkeypatch.setattr(cli, "block_size", lambda ctx, orders: size)
    docs = {name: (digest, doc) for name, (digest, doc) in REPORT_DIGESTS.items()}
    docs.update({name: (ref["digest"], bench_spec.make_config(name, None))
                 for name, ref in bench_spec.WORKLOADS.items()})
    pointed.cache_clear()  # it keeps the einsum it hands out
    keeps.cache_clear()  # so that every layout is probed here
    try:
        for name, (digest, doc) in docs.items():
            run_to(tmp_path, doc, name=f"{name}.json", out=f"{name}.report.json")
            text = (tmp_path / f"{name}.report.json").read_text()
            assert hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest() == digest, name
    finally:
        pointed.cache_clear()
        keeps.cache_clear()
    assert batched
    if size == 1:
        return
    assert any(len(_summed(subs)) >= 2 for subs, B in batched if B > 1)
    for plan in support.DRIFTING_PLANS:
        assert any(_drifts(subs, layout) for subs, layout, out in routes
                   if not out and diff_engine._unpointed(subs)[0] == plan), plan


def test_optic_sweep_batches_its_contractions(tmp_path, monkeypatch):
    # a second optic-sweep run in one process, in two blocks of 50 points,
    # finds every layout probed by the first and runs 138 of its 140
    # two-letter contractions as one einsum over the block (all 140 ran one
    # einsum per point before the router); the other 2 are the scalar S
    # trace's "ab,iajb->ij" over a transposed Ricci view, a layout where it
    # drifts.  A mixed33 run in blocks of 4 still runs the drifting
    # plans point by point
    from jetlag import cli, diff_engine

    bench_spec = _load_bench(monkeypatch, "spec")
    routes = _routes(monkeypatch)
    keeps = diff_engine._batch_keeps_bits
    keeps.cache_clear()
    try:
        doc = bench_spec.make_config("optic-sweep", None)
        run_to(tmp_path, doc)
        probed = keeps.cache_info().misses
        del routes[:]
        run_to(tmp_path, doc)
        assert keeps.cache_info().misses == probed
        looped = [(subs, layout) for subs, layout, out in routes if not out]
        assert len(routes) == 140 and len(looped) == 2
        assert all(diff_engine._unpointed(subs)[0] == "ab,iajb->ij"
                   and _drifts(subs, layout) for subs, layout in looped)
        assert {shape[0] for subs, layout, _ in routes
                for (_, shape, _), b in zip(layout, diff_engine._unpointed(subs)[1])
                if b} == {50}
        del routes[:]
        monkeypatch.setattr(cli, "block_size", lambda ctx, orders: 4)
        run_to(tmp_path, bench_spec.make_config("mixed33-deep", None))
    finally:
        keeps.cache_clear()
    looped = {diff_engine._unpointed(subs)[0] for subs, _, out in routes if not out}
    assert set(support.DRIFTING_PLANS) <= looped


# g is singular at the second of four points and direction-dependent at the
# third, where the quadratic-canonical connection does not exist: a block
# that holds the second raises, and one that holds the third too raises
# there first, so every block of two or more points falls back to single
# points; the digest was taken one point at a time
FALLBACK_CFG = {
    "p": 2, "n": 2,
    "space": {"name": "custom", "params": {
        "h": [["1", "0"], ["0", "1"]],
        "g": [["(x[1]^2 + 1e-14)*(1 + xs[1][1]^2)", "0"], ["0", "1"]],
        "nlc": {"kind": "quadratic"}}},
    "points": {"explicit": [_block_point(x1, xs11) for x1, xs11 in
                            ((0.3, 0.0), (0.0, 0.0), (0.4, 0.5), (0.6, 0.0))]},
    "checks": ["metricity", "torsion", "curvature", "einstein", "conservation",
               "regularity"],
}
FALLBACK_DIGEST = "1025faae4dcce4aad7b64de5bacfda8d6e4ce1c9bf86a2e698032eb8efd4931c"

# every check that reads frames, on the two points of opposite signature
SIGNATURE_FLIP_ALL_CFG = dict(
    SIGNATURE_FLIP_CFG,
    checks=["metricity", "antisymmetry", "torsion", "curvature", "maxwell",
            "einstein", "conservation", "regularity"])
SIGNATURE_FLIP_DIGEST = "423318e0a0d499865fe2b5400e4de77675e2802c0b36ea95c6e0268c3a07ef4b"


@pytest.mark.parametrize("size", [1, 2, 5, "all"])
@given(data=st.data())
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reports_do_not_depend_on_the_block_size(tmp_path, monkeypatch, size, data):
    # every pinned config, the fallback and signature-flip configs and
    # every benchmark workload at both of its seeds gives the same report
    # bytes however its points are cut into blocks; hypothesis draws each
    # run's block size, and its first, simplest draw cuts every run into
    # blocks of 1, 2, 5 or all of its points
    from jetlag import cli, geometry

    bench_spec = _load_bench(monkeypatch, "spec")
    runs = dict(REPORT_DIGESTS, fallback=(FALLBACK_DIGEST, FALLBACK_CFG),
                flip=(SIGNATURE_FLIP_DIGEST, SIGNATURE_FLIP_ALL_CFG))
    for name, ref in bench_spec.WORKLOADS.items():
        runs[name] = (ref["digest"], bench_spec.make_config(name, None))
        runs[f"{name}-23"] = (SEED23_DIGESTS[name], bench_spec.make_config(name, 23))
    for name, (digest, doc) in runs.items():
        count = len(doc["points"].get("explicit", ())) + doc["points"].get("count", 0)
        first = count if size == "all" else min(size, count)
        cut = data.draw(st.integers(0, count - 1).map(
            lambda k: (first - 1 + k) % count + 1), label=name)

        def forced(ctx, orders, cut=cut):
            return cut

        monkeypatch.setattr(cli, "block_size", forced)
        monkeypatch.setattr(geometry, "block_size", forced)
        run_to(tmp_path, doc, name=f"{name}.json", out=f"{name}.report.json")
        text = (tmp_path / f"{name}.report.json").read_text()
        assert hashlib.sha256(WALL_LINE.sub("", text).encode()).hexdigest() == digest, name


@pytest.mark.parametrize("doc", [SINGULAR_CFG, MAXWELL_PRECEDENCE_CFG,
                                 TORSION_PRECEDENCE_CFG, FALLBACK_CFG],
                         ids=["singular", "maxwell-precedence",
                              "torsion-precedence", "fallback"])
def test_library_sweeps_raise_what_the_run_reports(tmp_path, doc):
    # each block check's step, swept at the check's own order, and its
    # fold raise the error and witness that the run reports, and a check
    # that the run reports without error raises none; maxwell's step holds
    # its errors, so its fold raises them
    from jetlag import cli
    from jetlag.errors import JetlagError
    from jetlag.geometry import sweep

    _, rep = run_to(tmp_path, doc)
    cfg = cli.load_config(write_cfg(tmp_path, doc))
    pts = list(cfg.explicit)
    raised = []
    for name in cfg.checks:
        check, got = cli.CHECKS[name], rep["checks"][name]
        try:
            check.fold(pts, sweep(cli._RUNNERS[name], cfg.space, pts, check.order),
                       cfg.tolerances[name])
        except JetlagError as exc:
            raised.append(name)
            assert str(exc) == got["error"], name
            assert cli._point_doc(exc.witness) == got["witness"], name
        else:
            assert got["measure"] != "error", name
    assert raised
