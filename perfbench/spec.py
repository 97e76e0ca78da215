"""Workloads, correctness references and the per-layer metric map of the
jetlag benchmark.

Every workload is one pinned ``jetlag run`` config.  The seed passed to the
benchmark replaces ``points.seed``; the program sees only the generated
config.
"""

OPTIC_SPACE = {
    "name": "optic",
    "params": {
        "h": [["1", "0"], ["0", "1 + t[1]^2"]],
        "phi": [["1 + x[1]^2", "0"], ["0", "1 + x[2]^2"]],
        "n": "1 + 0.5/(1+x[1]^2)",
        "X": ["1", "1 - t[2]"],
    },
}

# the (3,3) direction-dependent space of tests/support.mixed33_ctx
H33 = [
    ["1+0.2*t[1]^2", "0.1*t[1]*t[2]", "0"],
    ["0.1*t[1]*t[2]", "2+0.1*sin(t[2])", "0.05*t[3]"],
    ["0", "0.05*t[3]", "1.5+0.1*t[3]^2"],
]
PHI33 = [
    ["1+0.2*x[2]^2", "0.1*x[1]*x[3]", "0"],
    ["0.1*x[1]*x[3]", "2+0.1*x[1]^2", "0.05*x[2]"],
    ["0", "0.05*x[2]", "1+0.1*x[3]^2"],
]
SIG33 = "0.1*(xs[1][1]^2+xs[2][2]^2)+0.05*xs[3][1]*xs[1][3]+0.05*t[1]*x[2]"
MIXED33_SPACE = {
    "name": "custom",
    "params": {
        "h": H33,
        "g": [[f"exp(2*({SIG33}))*({PHI33[i][j]})" for j in range(3)]
              for i in range(3)],
        "nlc": {"kind": "christoffel", "phi": PHI33},
    },
}

HALF = [-0.5, 0.5]

WORKLOADS = {
    "optic-suite": {
        "why": "check_grad takes most of the run while all 36 frames fit the "
               "64-entry frame cache: the scalar field-evaluation path "
               "without cache pressure",
        "config": {
            "p": 2, "n": 2, "space": OPTIC_SPACE,
            "points": {"seed": 7, "count": 12, "box": {"xs": HALF}},
            "checks": ["metricity", "antisymmetry", "torsion", "curvature",
                       "maxwell", "einstein", "conservation", "grad-check"],
        },
        "statuses": {"metricity": "pass", "antisymmetry": "pass",
                     "torsion": "pass", "curvature": "pass",
                     "maxwell": "pass", "einstein": "pass",
                     "conservation": "flagged", "grad-check": "pass"},
        "exit_code": 0,
        "digest": "4b03beec323d622b462a495198ab59c38393539f1462a96f4392af4e42b611e3",
    },
    "optic-sweep": {
        "why": "100 points overflow the 64-entry frame cache, so every check "
               "rebuilds its order-2 frames: shows frame-cache and "
               "point-batching changes, not check_grad ones",
        "config": {
            "p": 2, "n": 2, "space": OPTIC_SPACE,
            "points": {"seed": 7, "count": 100, "box": {"xs": HALF}},
            "checks": ["metricity", "antisymmetry", "curvature", "maxwell",
                       "einstein"],
        },
        "statuses": {"metricity": "pass", "antisymmetry": "pass",
                     "curvature": "pass", "maxwell": "pass",
                     "einstein": "pass"},
        "exit_code": 0,
        "digest": "5086dce2e4814d0881281e7bd3ab8ee68fdc0633ee5c33aab060769c9f268b8c",
    },
    "mixed33-deep": {
        "why": "15-variable order-3 jets on a direction-dependent (3,3) "
               "space: jet_einsum dominates and peak memory is 3x the optic "
               "runs",
        "config": {
            "p": 3, "n": 3, "space": MIXED33_SPACE,
            "points": {"seed": 3, "count": 16,
                       "box": {"t": HALF, "x": HALF, "xs": HALF}},
            "checks": ["conservation", "natural-form"],
        },
        "statuses": {"conservation": "flagged", "natural-form": "fail"},
        "exit_code": 1,
        "digest": "c01b488ef7a47196e3c7f43f67757410515b8c829f53cf1e0031d8ef82e027ef",
    },
}


def make_config(workload: str, seed: int | None) -> dict:
    """The run config of ``workload``, with ``points.seed`` set to ``seed``
    (the workload's default when None)."""
    cfg = WORKLOADS[workload]["config"]
    points = dict(cfg["points"])
    if seed is not None:
        points["seed"] = seed
    return dict(cfg, points=points)


def default_seed(workload: str) -> int:
    return WORKLOADS[workload]["config"]["points"]["seed"]


# checks run by any workload; each gets a cli.check.<name>.s metric
CHECKS = ("metricity", "antisymmetry", "torsion", "curvature", "maxwell",
          "einstein", "conservation", "grad-check", "natural-form")
DIFF_FUNCS = ("jet_mul", "compose", "jet_einsum", "jet_linear",
              "jet_matrix_inverse", "seed_point", "eval_derivs", "fd_partial",
              "check_grad")
BLOCKS = ("metric", "nlc", "connection", "torsion", "curvature", "ricci")

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Perf changes quote their prediction from this map.
LAYER_MAP = [
    {"layer": "cli",
     "metrics": ["cli.load_config.s"]
                + [f"cli.check.{c}.s" for c in CHECKS]
                + ["cli.report_write.s"],
     "moves": "setup_s (load_config); run_s on the workloads that run each "
              "check; report_write on optic-sweep (100-point report)"},
    {"layer": "spaces",
     "metrics": ["spaces.build_space.calls", "spaces.build_space.s"],
     "moves": "setup_s and run_s on all three (2 calls per run: load_config "
              "and run_report)"},
    {"layer": "field_expr",
     "metrics": ["field_expr.parse.calls", "field_expr.eval.calls",
                 "field_expr.eval.self_s"],
     "moves": "run_s on optic-suite and optic-sweep; about no change on "
              "mixed33-deep"},
    {"layer": "diff_engine",
     "metrics": [f"diff_engine.{f}.{k}" for f in DIFF_FUNCS
                 for k in ("calls", "self_s")],
     "moves": "jet_mul/eval_derivs/fd_partial/check_grad: run_s on "
              "optic-suite; jet_einsum: run_s on mixed33-deep"},
    {"layer": "tensor_core",
     "metrics": ["tensor_core.calls"],
     "moves": "none: 0 on every workload, so deleting the layer must leave "
              "every metric flat"},
    {"layer": "geometry",
     "metrics": ["geometry.frame.calls", "geometry.frame.builds",
                 "geometry.frame.hit_ratio"]
                + [f"geometry.frame.builds.o{k}" for k in range(4)]
                + [f"geometry.block.{b}.{k}" for b in BLOCKS
                   for k in ("computes", "self_s")]
                + ["geometry.sample_points.s",
                   "geometry.sample_points.accept_ratio"],
     "moves": "run_s on optic-sweep (frame cache overflows); the contrast is "
              "optic-suite, where every frame fits the cache"},
    {"layer": "em_field",
     "metrics": ["em_field.maxwell.s", "em_field.deflection_identities.s",
                 "em_field.bracket.s"],
     "moves": "run_s on optic-sweep"},
    {"layer": "gravity",
     "metrics": ["gravity.einstein_blocks.s", "gravity.stress_energy.s",
                 "gravity.conservation.s", "gravity.natural_form.s"],
     "moves": "run_s on mixed33-deep (and conservation on optic-suite)"},
    {"layer": "trace",
     "metrics": ["trace.overhead_s"],
     "moves": "none: traced run_s minus untraced run_s, the cost of the "
              "span recorder itself"},
]

# metric -> workloads where it must be > 0; it must be 0 on the others.  A
# renamed function that escapes its wrapper then fails the traced run.
NONZERO_ON = {
    "diff_engine.check_grad.calls": {"optic-suite"},
    "gravity.natural_form.s": {"mixed33-deep"},
    "tensor_core.calls": set(),
}


def per_layer_names() -> list[str]:
    return [m for layer in LAYER_MAP for m in layer["metrics"]]
