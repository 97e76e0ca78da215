"""Batch front end.

Loads a JSON run configuration, builds the requested space, executes the
selected check suites over seeded (or explicitly listed) sample points and
writes a machine-readable report.  Reports are deterministic for a fixed
(config, seed) pair: reals are serialized with 17 significant digits, keys
keep a fixed order, the sampled points are embedded, and only the wall-time
entry varies between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .diff_engine import JetPoint, check_grad
from .em_field import (
    bianchi_residuals,
    deflection_identity_residuals,
    deflection_set,
    em_tensors,
    maxwell_fold,
    maxwell_step,
)
from .errors import ConfigError, JetlagError
from .geometry import (
    ChristoffelOfPhi,
    DirectMetric,
    FromLagrangian,
    GeometryContext,
    UserGiven,
    _block_records,
    _point_max,
    _raise_held,
    block_size,
    blocks,
    cartan_connection,
    curvature_antisymmetry_residuals,
    curvature_set,
    frame,
    in_row_blocks,
    kronecker_deviation_at,
    metricity_residuals,
    nlc_torsion_at,
    regularity_verdict,
    ricci_and_scalars,
    sample_points,
    spatial_nlc,
    temporal_christoffel_and_M,
    torsion_free_verdict,
    torsion_set,
)
from .gravity import (
    conservation_fold,
    conservation_residuals,
    einstein_blocks,
    natural_form_checks,
    natural_form_fold,
    stress_energy_extract,
)
from .spaces import PARAM_SCHEMAS, _finite_real, build_space, space_names

__all__ = ["RunConfig", "RunReport", "load_config", "run_report", "main"]

SCHEMA = "jetlag-report/1"

DUMP_FAMILIES = ("nlc", "connection", "torsion", "curvature", "ricci",
                 "em", "einstein")


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, with the space every run of it reads."""

    p: int
    n: int
    space_name: str
    space: GeometryContext
    seed: int
    count: int
    box: dict
    explicit: tuple   # JetPoints listed verbatim in the config
    checks: tuple
    tolerances: dict
    dump: tuple
    output: str | None
    space_params: dict

    @property
    def echo(self) -> dict:
        """The normalized config as the report embeds it, read off the
        fields, so a field replaced after loading shows in the report."""
        return {
            "p": self.p,
            "n": self.n,
            "space": {"name": self.space_name, "params": self.space_params},
            "points": {
                "seed": self.seed,
                "count": self.count,
                "box": {k: list(v) for k, v in self.box.items()},
                "explicit": [_point_doc(pt) for pt in self.explicit],
            },
            "checks": list(self.checks),
            "tolerances": {c: self.tolerances[c] for c in self.checks},
            "dump": list(self.dump),
        }


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced; see to_json for the serialized layout."""

    config: dict
    space: dict
    rng: dict
    points: list
    checks: dict
    dumps: dict | None
    summary: dict
    wall_time_s: float

    def to_json(self) -> str:
        """The report as JSON: the schema name, then each field in order,
        written in one walk (:func:`_to_json`)."""
        doc = {"schema": SCHEMA, **{f.name: getattr(self, f.name) for f in fields(self)}}
        return _to_json(doc) + "\n"


def _err(loc: str, msg: str) -> ConfigError:
    return ConfigError(f"config.{loc}: {msg}")


def _get_int(cfg, key, loc, minimum=None):
    v = cfg.get(key)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise _err(loc, f"must be an integer, got {v!r}")
    v = int(v)
    if minimum is not None and v < minimum:
        raise _err(loc, f"must be >= {minimum}, got {v}")
    return v


def _box_pair(v, loc):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise _err(loc, f"must be [lo, hi], got {v!r}")
    lo, hi = (_finite_real(e, f"config.{loc}") for e in v)
    # a finite width keeps the draws in range
    if not (lo < hi and math.isfinite(hi - lo)):
        raise _err(loc, f"must be [lo, hi] with lo < hi and a finite width, "
                        f"got {v!r}")
    return lo, hi


def load_config(path: str) -> RunConfig:
    """Read and fully validate a run configuration file."""
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    allowed = {"p", "n", "space", "points", "checks", "tolerances",
               "dump", "output"}
    extra = sorted(set(raw) - allowed)
    if extra:
        raise ConfigError(
            f"config: unknown keys {extra}; allowed {sorted(allowed)}"
        )
    for key in ("p", "n", "space", "checks", "points"):
        if key not in raw:
            raise ConfigError(f"config: missing required key {key!r}")

    p = _get_int(raw, "p", "p", minimum=1)
    n = _get_int(raw, "n", "n", minimum=1)

    space = raw["space"]
    if isinstance(space, str):
        name, params = space, {}
    elif isinstance(space, dict):
        if "name" not in space:
            raise _err("space", "map form needs a 'name' key")
        stray = sorted(set(space) - {"name", "params"})
        if stray:
            raise _err("space", f"unknown keys {stray}")
        name = space["name"]
        params = space.get("params", {})
        if not isinstance(params, dict):
            raise _err("space.params", "must be a map")
    else:
        raise _err("space", f"must be a name or a map, got {type(space).__name__}")
    if name not in space_names():
        raise _err("space", f"unknown space {name!r}; available {space_names()}")
    if name == "flat" and not params:
        params = {"p": p, "n": n}

    pts_cfg = raw["points"]
    if not isinstance(pts_cfg, dict):
        raise _err("points", "must be a map")
    stray = sorted(set(pts_cfg) - {"seed", "count", "box", "explicit"})
    if stray:
        raise _err("points", f"unknown keys {stray}")
    seed = _get_int(pts_cfg, "seed", "points.seed", minimum=0) \
        if "seed" in pts_cfg else 0
    count = _get_int(pts_cfg, "count", "points.count", minimum=0) \
        if "count" in pts_cfg else 0
    box_cfg = pts_cfg.get("box", {})
    if not isinstance(box_cfg, dict):
        raise _err("points.box", "must be a map")
    stray = sorted(set(box_cfg) - {"t", "x", "xs"})
    if stray:
        raise _err("points.box", f"unknown keys {stray}")
    box = {
        key: _box_pair(box_cfg[key], f"points.box.{key}")
        if key in box_cfg else (-1.0, 1.0)
        for key in ("t", "x", "xs")
    }
    explicit = []
    if not isinstance(pts_cfg.get("explicit", []), list):
        raise _err("points.explicit", "must be a list")
    for k, entry in enumerate(pts_cfg.get("explicit", [])):
        loc = f"points.explicit[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"t", "x", "xs"}:
            raise _err(loc, "must be a map with exactly the keys t, x, xs")
        t, x, xs = entry["t"], entry["x"], entry["xs"]
        if not (isinstance(t, list) and isinstance(x, list) and isinstance(xs, list)
                and len(xs) == len(x)
                and all(isinstance(row, list) and len(row) == len(t) for row in xs)):
            raise _err(loc, "t and x must be lists and xs a list of len(x) lists "
                            "of len(t) coordinates")
        pt = JetPoint(np.array([_finite_real(v, f"every coordinate of config.{loc}")
                                for v in [*t, *x, *(v for row in xs for v in row)]]),
                      (len(t), len(x)))
        if pt.dims != (p, n):
            raise _err(loc, f"dims {pt.dims} do not match (p, n) = ({p}, {n})")
        explicit.append(pt)
    if count == 0 and not explicit:
        raise _err("points", "at least one point is required "
                             "(count >= 1 or a non-empty explicit list)")

    checks_cfg = raw["checks"]
    if not isinstance(checks_cfg, list):
        raise _err("checks", "must be a list")
    seen = set()
    checks = []
    for c in checks_cfg:
        if c not in CHECK_NAMES:
            raise _err("checks", f"unknown check {c!r}; available {list(CHECK_NAMES)}")
        if c in seen:
            raise _err("checks", f"check {c!r} listed twice")
        seen.add(c)
        checks.append(c)
    if "natural-form" in seen and (p <= 2 or n <= 2):
        raise _err("checks", "the natural-form suite needs p > 2 and n > 2, "
                             f"got p={p}, n={n}")

    tol_cfg = raw.get("tolerances", {})
    if not isinstance(tol_cfg, dict):
        raise _err("tolerances", "must be a map")
    tolerances = {name: check.tol for name, check in CHECKS.items()}
    for key, v in tol_cfg.items():
        if key not in CHECK_NAMES:
            raise _err("tolerances", f"unknown check {key!r}")
        tolerances[key] = _finite_real(v, f"config.tolerances.{key}")
        if not tolerances[key] > 0.0:
            raise _err(f"tolerances.{key}", f"must be positive, got {v!r}")

    dump_cfg = raw.get("dump", [])
    if not isinstance(dump_cfg, list):
        raise _err("dump", "must be a list")
    for fam in dump_cfg:
        if fam not in DUMP_FAMILIES:
            raise _err("dump", f"unknown family {fam!r}; "
                               f"available {list(DUMP_FAMILIES)}")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise _err("output", "must be a path string")

    # building the space realizes every expression field, so parse and
    # dependency errors surface here, named
    ctx = build_space(name, params)
    if (ctx.p, ctx.n) != (p, n):
        raise _err("space", f"space dims ({ctx.p}, {ctx.n}) do not match the "
                            f"declared (p, n) = ({p}, {n})")

    return RunConfig(
        p=p, n=n, space_name=name, space=ctx, seed=seed,
        count=count, box=box, explicit=tuple(explicit), checks=tuple(checks),
        tolerances=tolerances, dump=tuple(dump_cfg), output=output,
        space_params=params,
    )


# --------------------------------------------------------------------------
# serialization: 17-significant-digit JSON with a fixed key order
# --------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    if math.isfinite(v):
        return f"{v:.17g}"
    return '"nan"' if math.isnan(v) else '"inf"' if v > 0 else '"-inf"'


_string = json.encoder.encode_basestring_ascii  # json.dumps of a str
_NUMBER = {float: _fmt_float, int: int.__repr__, bool: lambda v: "true" if v else "false"}
_WRITTEN = {*_NUMBER, str, type(None), dict, list}  # as they are


def _plain(obj):
    """``obj`` as a type of ``_WRITTEN``: an integer as int, any other real
    as float, an array as its ``tolist``, a dataclass as the dict of its
    fields, any other dict as a dict, a tuple as a list, else its str."""
    while type(obj) not in _WRITTEN:
        if isinstance(obj, str):
            obj = str.__str__(obj)
        elif isinstance(obj, numbers.Integral):
            obj = int(obj)
        elif isinstance(obj, numbers.Real):
            obj = float(obj)
        elif isinstance(obj, np.ndarray):
            obj = obj.tolist()
        elif is_dataclass(obj):
            obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
        elif isinstance(obj, (dict, list, tuple)):
            obj = dict(obj) if isinstance(obj, dict) else list(obj)
        else:
            obj = str(obj)
    return obj


def _write(obj, level: int, out: list):
    """Append the JSON text of ``obj``, nested ``level`` deep, to ``out``,
    converting values as they are met (:func:`_plain`): reals with 17
    significant digits, NaN and infinities as strings, a list of numbers
    (bools included) on one line, and each entry of any other container on
    its own line, keys as text in their order."""
    if type(obj) not in _WRITTEN:
        obj = _plain(obj)
    kind = type(obj)
    if kind is not dict and kind is not list:
        return out.append(_string(obj) if kind is str else
                          "null" if obj is None else _NUMBER[kind](obj))
    if not obj:
        return out.append("{}" if kind is dict else "[]")
    if kind is dict:
        if set(map(type, obj)) - {str}:  # keys equal as text keep the last value
            obj = {str(k): v for k, v in obj.items()}
        heads, values, brackets = [f"{_string(k)}: " for k in obj], obj.values(), "{}"
    else:
        if set(map(type, obj)) == {float}:  # one format for the whole list
            text = ", ".join(map("{:.17g}".format, obj))
            if "n" not in text:  # no nan or inf
                return out.append(f"[{text}]")
        values = [_plain(v) for v in obj]
        if set(map(type, values)) <= _NUMBER.keys():
            return out.append("[" + ", ".join([_NUMBER[type(v)](v) for v in values]) + "]")
        heads, brackets = [""] * len(values), "[]"
    inner = "  " * (level + 1)
    sep = brackets[0] + "\n" + inner
    for head, v in zip(heads, values):
        out.append(sep + head)
        _write(v, level + 1, out)
        sep = ",\n" + inner
    out.append("\n" + "  " * level + brackets[1])


def _to_json(doc) -> str:
    """``doc`` as JSON text, written in one walk (:func:`_write`)."""
    _write(doc, 0, out := [])
    return "".join(out)


def _point_doc(pt: JetPoint) -> dict:
    return {"t": pt.t.tolist(), "x": pt.x.tolist(), "xs": pt.xs.tolist()}


def _witness_doc(obj):
    if obj is None:
        return None
    if isinstance(obj, JetPoint):
        return _point_doc(obj)
    if isinstance(obj, tuple) and obj and isinstance(obj[0], JetPoint):
        return {**_point_doc(obj[0]), "where": list(obj[1:])}
    return str(obj)


def _atomic_write(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it.  On
    any error the temporary file is removed, and an OS error is raised as a
    ConfigError that names ``path``."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".jetlag-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: "
                          f"{exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# check runners
# --------------------------------------------------------------------------

@dataclass
class CheckOutcome:
    status: str               # pass | fail | flagged
    max_abs: float | None
    mean_abs: float | None
    measure: str
    detail: dict
    witness: object = None
    error: str | None = None

    def doc(self, tol: float) -> dict:
        return {"status": self.status, "tolerance": tol, "measure": self.measure,
                "max_abs": self.max_abs, "mean_abs": self.mean_abs,
                "detail": self.detail, "witness": _witness_doc(self.witness),
                "error": self.error}


def _error_outcome(exc: JetlagError) -> CheckOutcome:
    """The outcome of a check that raised ``exc``."""
    return CheckOutcome(
        status="fail", max_abs=None, mean_abs=None, measure="error",
        detail={}, witness=exc.witness, error=str(exc),
    )


def _from_per_point(pts, record, tol, measure="max_abs", scales=None):
    """Fold a {name: column of each point's residual} record into one
    outcome.  With ``scales``, a column, each point's largest residual is
    graded over max(1, its scale), and the witness is the first point worst
    so graded; the reported residuals stay absolute."""
    agg = {nm: max(col) for nm, col in record.items()}
    point_max = [max(row) for row in zip(*record.values())]
    graded = point_max if scales is None else [
        v / max(1.0, scale) for v, scale in zip(point_max, scales)]
    worst = int(np.argmax(graded))
    status = "pass" if graded[worst] <= tol else "fail"
    return CheckOutcome(
        status=status, max_abs=float(max(point_max)),
        mean_abs=float(np.mean(point_max)), measure=measure,
        detail=agg, witness=pts[worst] if status == "fail" else None,
    )


def _from_scaled(pts, record, tol):
    """:func:`_from_per_point` of a :func:`_metric_scaled` record."""
    return _from_per_point(pts, record["residuals"], tol, scales=record["scale"])


def _metric_scaled(step):
    """``step`` with its record under ``residuals`` and the column
    ``scale``, the scale of the metrics at each point, the largest |entry|
    of h and g there, read off the order-2 frame of the block: a
    well-conditioned metric of large scale then meets its tolerance
    relative to that scale."""
    def scaled(ctx, block):
        residuals = step(ctx, block)
        fr = frame(ctx, block, 2)
        return {"residuals": residuals, "scale": list(
            map(max, fr.max_abs(fr.h_jet), fr.max_abs(fr.g_jet)))}
    return scaled


def _run_curvature(ctx, block):
    return {**{f"deflection_{k}": v for k, v in
               deflection_identity_residuals(ctx, block).items()},
            **{f"bracket_{k}": v for k, v in bianchi_residuals(ctx, block).items()}}


def _fold_first_max(verdict_of, value, flag, measure, pts, record, tol):
    """Grade a first-maximum verdict: ``flag`` in the detail is the status,
    and only a failure shows the verdict's witness."""
    verdict = verdict_of(pts, record)
    v = float(getattr(verdict, value))
    ok = v <= tol
    return CheckOutcome(
        status="pass" if ok else "fail", max_abs=v, mean_abs=v,
        measure=measure, detail={value: v, flag: ok},
        witness=None if ok else verdict.witness,
    )


def _fold_maxwell(pts, record, tol):
    rep = maxwell_fold(pts, record)
    detail = {
        nm: {"max_abs": st.max_abs, "mean_abs": st.mean_abs,
             "max_rel": st.max_rel}
        for nm, st in rep.equations.items()
    }
    worst_rel = max(st.max_rel for st in rep.equations.values())
    max_abs = max(st.max_abs for st in rep.equations.values())
    mean_abs = float(np.mean([st.mean_abs for st in rep.equations.values()]))
    status = "pass" if worst_rel <= tol else "fail"
    witness = None
    if status == "fail":
        worst = min(st.worst_point for st in rep.equations.values()
                    if st.max_rel == worst_rel)
        witness = pts[worst]
    return CheckOutcome(status=status, max_abs=max_abs, mean_abs=mean_abs,
                        measure="max_rel", detail=detail, witness=witness)


def _run_einstein(ctx, block):
    """The einstein step: each identity's max |residual| at each point of
    ``block``, one reduction over the block's Einstein blocks and
    stress-energy each."""
    k = ctx.K

    def point_max(a):
        return _point_max(a).tolist()

    eb = einstein_blocks(ctx, block)
    cols = {
        "tt_symmetry": point_max(eb.tt - eb.tt.swapaxes(1, 2)),
        "ss_symmetry": point_max(eb.ss - eb.ss.swapaxes(1, 2)),
        "vv_symmetry": point_max(eb.vv - eb.vv.transpose(0, 3, 4, 1, 2)),
        "declared_zero_blocks": [max(a, b) for a, b in zip(
            point_max(eb.zero_ts), point_max(eb.zero_tv))],
    }
    if k != 0.0:
        tss = stress_energy_extract(ctx, block)
        cols["extraction_roundtrip"] = [max(row) for row in zip(*(
            point_max(k * getattr(tss, f"T_{b}") - getattr(eb, b))
            for b in ("tt", "ss", "vv", "st", "vt", "sv", "vs")))]
    return cols


# The conservation and natural-form steps are the library's, called through
# module-level names: the traced benchmark run times them by rebinding
# those names, which a _RUNNERS entry holding the function would bypass.
def _run_conservation(ctx, block):
    return conservation_residuals(ctx, block)


def _fold_conservation(pts, record, tol):
    rep = conservation_fold(record)
    laws = rep.laws.values()
    detail = {nm: {"max_abs": st.max_abs, "mean_abs": st.mean_abs,
                   "max_rel": st.max_rel,
                   "status": "pass" if st.max_rel <= tol else "flagged"}
              for nm, st in rep.laws.items()}
    detail["direction_independent"] = rep.direction_independent
    return CheckOutcome(
        status="pass" if max(st.max_rel for st in laws) <= tol else "flagged",
        max_abs=max(st.max_abs for st in laws),
        mean_abs=float(np.mean([st.mean_abs for st in laws])),
        measure="max_rel", detail=detail)


def _natural_form_at(ctx, block):
    return natural_form_checks(ctx, block)


def _fold_natural_form(pts, record, tol):
    """Grade :func:`~jetlag.gravity.natural_form_fold`, whose construction
    is the first point's."""
    rep = natural_form_fold(record)
    construction = {
        "rewritten_equation": rep.e1prime_residual,
        "trace_recovery": rep.trace_residual,
        "roundtrip": rep.roundtrip_residual,
    }
    detail = {"construction": construction}
    for key, stats in (("rewritten_laws", rep.new_law_residuals),
                       ("identities_stated", rep.identity_residuals),
                       ("identities_contracted_cyclic",
                        rep.identity_residuals_derived)):
        if stats:
            detail[key] = {nm: {"max_abs": st.max_abs, "max_rel": st.max_rel}
                           for nm, st in stats.items()}
    hard = [v for v in construction.values() if v is not None] + [
        st.max_rel for stats in (rep.new_law_residuals or {},
                                 rep.identity_residuals_derived)
        for st in stats.values()]
    stated_worst = max(st.max_rel for st in rep.identity_residuals.values())
    worst_hard = max(hard) if hard else 0.0
    if worst_hard > tol:
        status = "fail"
    elif stated_worst > tol:
        # the stated spatial/vertical identity forms carry a defect on
        # direction-dependent metrics; the contracted-cyclic forms above
        # are the ones that must close
        status = "flagged"
    else:
        status = "pass"
    return CheckOutcome(
        status=status, max_abs=float(max(worst_hard, stated_worst)),
        mean_abs=float(np.mean(hard)) if hard else 0.0, measure="max_rel",
        detail=detail, witness=pts[0] if status == "fail" else None,
    )


def _run_regularity(ctx, block):
    return kronecker_deviation_at(ctx, block, getattr(ctx, "lagrangian", None))


def _grad_fields(ctx):
    def entries(name, arr):  # each named by its 1-based indices
        return [(name + "".join(f"[{k + 1}]" for k in idx), arr[idx])
                for idx in np.ndindex(arr.shape)]

    out = entries("h", ctx.h)
    if isinstance(ctx.g_source, DirectMetric):
        out += entries("g", ctx.g_source.entries)
    elif isinstance(ctx.g_source, FromLagrangian):
        out.append(("L", ctx.g_source.L))
    if isinstance(ctx.nlc, ChristoffelOfPhi):
        out += entries("phi", ctx.nlc.phi)
    elif isinstance(ctx.nlc, UserGiven):
        out += entries("N", ctx.nlc.entries)
    return out


def _run_grad_check(ctx, pts, tol):
    """The ``grad-check`` outcome over the whole sweep: each field of the
    space cross-checked by :func:`~jetlag.diff_engine.check_grad`, whose
    Taylor side reads the rows of the row block that the context holds
    (:meth:`~jetlag.geometry.GeometryContext.held_rows`) where it covers
    ``pts``, and runs its own batch otherwise."""
    detail = {}
    worst = 0.0
    witness = None
    flagged_nans = []
    fields = _grad_fields(ctx)
    reps = check_grad([fld for _, fld in fields], pts,
                      rows=lambda grid: ctx.held_rows(grid, pts, 2))
    for (name, _), rep in zip(fields, reps):
        detail[name] = rep.max_rel_dev
        if rep.nan_flags:
            flagged_nans.append(name)
        if rep.max_rel_dev > worst:
            worst = rep.max_rel_dev
            witness = pts[rep.worst_point] if rep.worst_point >= 0 else None
    mean_abs = float(np.mean(list(detail.values()))) if detail else 0.0
    status = "pass" if worst <= tol else "fail"
    note = None
    if flagged_nans:
        note = "non-finite finite-difference probes on: " + ", ".join(flagged_nans)
    return CheckOutcome(
        status=status, max_abs=float(worst), mean_abs=mean_abs,
        measure="max_rel", detail=detail,
        witness=witness if status == "fail" else None, error=note,
    )


# A check with a fold runs block-major: run_report calls its step
# ``(ctx, block) -> record`` on each block of points (geometry._block_records
# holds each point's error apart), a record of the block whose columns hold
# one entry per point, then its fold ``(pts, record, tol) -> CheckOutcome``
# once, over the records concatenated in point order.  Every check that
# reads frames has one.  ``grad-check`` reads none, and its runner takes
# the whole sweep, ``(ctx, pts, tol)``.  run_report looks every runner up
# here at call time.
_RUNNERS = {
    "metricity": _metric_scaled(metricity_residuals),
    "antisymmetry": curvature_antisymmetry_residuals,
    "torsion": nlc_torsion_at,
    "curvature": _metric_scaled(_run_curvature),
    "maxwell": maxwell_step,
    "einstein": _run_einstein,
    "conservation": _run_conservation,
    "natural-form": _natural_form_at,
    "regularity": _run_regularity,
    "grad-check": _run_grad_check,
}


class Check(NamedTuple):
    """What the run knows of a check besides its runner."""

    tol: float             # the default tolerance
    fold: Callable | None  # see _RUNNERS; None: the runner takes the sweep
    order: int             # the highest frame order the check's step reads


# Every check, in the order the config error lists them.  A new check is
# one row here and one runner in _RUNNERS.
CHECKS = {
    "metricity": Check(1e-8, _from_scaled, 2),
    "antisymmetry": Check(1e-9, _from_per_point, 2),
    "torsion": Check(1e-9, partial(_fold_first_max, torsion_free_verdict,
                                   "max_violation", "torsion_free",
                                   "max_abs"), 2),
    "curvature": Check(1e-9, _from_scaled, 2),
    "maxwell": Check(1e-7, _fold_maxwell, 2),
    "einstein": Check(1e-9, _from_per_point, 2),
    "conservation": Check(1e-6, _fold_conservation, 3),
    "natural-form": Check(1e-8, _fold_natural_form, 3),
    "regularity": Check(1e-9, partial(_fold_first_max, regularity_verdict,
                                      "max_deviation", "regular",
                                      "max_rel"), 2),
    "grad-check": Check(1e-5, None, 0),
}

CHECK_NAMES = tuple(CHECKS)


def _dump_family(ctx, pt, fam):
    if fam == "nlc":
        Htc, M = temporal_christoffel_and_M(ctx, pt)
        return {"M": M, "N": spatial_nlc(ctx, pt)}
    if fam == "connection":
        return cartan_connection(ctx, pt)
    if fam == "torsion":
        return torsion_set(ctx, pt)
    if fam == "curvature":
        return curvature_set(ctx, pt)
    if fam == "ricci":
        ric, sc = ricci_and_scalars(ctx, pt)
        return {"ricci": ric, "scalars": sc}
    if fam == "em":
        return {"deflections": deflection_set(ctx, pt),
                "em": em_tensors(ctx, pt)}
    return einstein_blocks(ctx, pt)


def _dump_families(ctx, pt, families) -> dict:
    """The dumped blocks at ``pt``; an error names its family and point."""
    blocks = {}
    for fam in families:
        try:
            blocks[fam] = _dump_family(ctx, pt, fam)
        except JetlagError as exc:
            raise ConfigError(f"dump {fam!r} at point "
                              f"{json.dumps(_point_doc(pt))}: {exc}") from exc
    return {"point": _point_doc(pt), "families": blocks}


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _collect_points(cfg: RunConfig, ctx) -> list:
    """The run's points: the explicit ones, then ``cfg.count`` sampled ones.
    A sampling error at a draw (an asymmetric metric, a signature change)
    keeps its class and witness, and its message ends with the draw's
    coordinates."""
    pts = list(cfg.explicit)
    if cfg.count:
        try:
            pts += sample_points(ctx, cfg.count, cfg.seed, box_t=cfg.box["t"],
                                 box_x=cfg.box["x"], box_xs=cfg.box["xs"])
        except JetlagError as exc:
            if exc.witness is not None:
                exc.args = (f"{exc}; sampled point "
                            f"{json.dumps(_point_doc(exc.witness))}",)
            raise
    return pts


def _outcome(fn) -> CheckOutcome:
    """``fn()``, or the outcome of the JetlagError it raises."""
    try:
        return fn()
    except JetlagError as exc:
        return _error_outcome(exc)


def _step_order(names) -> list:
    """The checks ``names`` in the order they take their steps on a block:
    deepest frame order first, and in config order within an order, so
    that each shallower frame of the block takes what the deeper ones
    built (:func:`~jetlag.geometry.frame`)."""
    return sorted(names, key=lambda name: -CHECKS[name].order)


def run_report(cfg: RunConfig, jobs: int = 1, out_path: str | None = None):
    """Execute a validated config; returns (RunReport, exit_code).

    Writes the serialized report to ``out_path`` (or the config's output
    path) atomically.  Evaluation is serial; ``jobs`` is accepted for
    existing callers and ignored.  Every run of one config evaluates the
    space ``load_config`` built, and starts and ends with no frame and no
    metric signature on it (:meth:`~jetlag.geometry.GeometryContext.forget_run`):
    it takes its signature from its first accepted draw, else from the
    dumps at ``pts[0]``, else from the first block, before any check steps
    on it (:meth:`~jetlag.geometry.GeometryContext.record_signature`), so
    the order the checks step in does not decide it.  The dumps
    are taken at ``pts[0]`` before the first check step.  The run goes
    block by block, through the
    :func:`~jetlag.geometry.blocks` of at most as many points as
    :func:`~jetlag.geometry.block_size` lets the frames of the deepest order
    its checks read keep within one budget of bytes: on each block every
    frame-reading check takes its step, by the rule of the library's
    sweeps (:func:`~jetlag.geometry._block_records`), the checks of the
    deepest frame order first (:func:`_step_order`), so the block's
    frames are built once, read by every check, and dropped when the next
    block starts; the last block's are dropped when the blocks end.  A
    shallower frame takes what the deeper frame of its block built,
    truncated, and builds only the rest.  The
    blocks come in row blocks (:func:`~jetlag.geometry.in_row_blocks`),
    as many whole blocks as keep the compact rows of the space's field
    grids at that order within the same budget, and each field grid of the
    space runs once over a row block, at the order its deepest frames read
    it; shallower frames take those rows truncated.  A step gives one
    record per block.
    A point error does not stop a check: its point holds it, and the
    check steps every later block.  After the last block, its frames
    dropped and its row block still held, ``grad-check`` takes its
    whole-sweep runner, which reads the row block's rows, truncated to
    order 2, where that row block covers every point
    (:func:`_run_grad_check`).  Then, in
    config order, a check whose points hold an error reports the first
    one, and any other check gets its fold, over its blocks' records in
    point order, or the outcome of its runner.
    """
    start = time.perf_counter()
    ctx = cfg.space
    ctx.forget_run()  # a run inherits no frame or signature
    try:
        pts = _collect_points(cfg, ctx)
        # a dump error ends the run, so it comes before any check step; it
        # reads pts[0] alone, at orders the checks may not read
        dumps = _dump_families(ctx, pts[0], cfg.dump) if cfg.dump else None

        # by check with a fold, the (record, held errors) of each block
        parts = {name: [] for name in cfg.checks if CHECKS[name].fold}
        orders = {CHECKS[name].order for name in parts}
        frame_blocks = blocks(pts, block_size(ctx, orders)) if orders else []
        steps = _step_order(parts)
        depth = max(orders, default=0)
        for block in in_row_blocks(ctx, frame_blocks, depth):
            ctx.record_signature(block, depth)
            for name in steps:
                parts[name].append(_block_records(_RUNNERS[name], ctx, block))
        # the whole-sweep runners read no frame, and the rows of the last
        # row block, which the context still holds
        ctx.forget_frames()
        outcomes = {name: _outcome(partial(_RUNNERS[name], ctx, pts, cfg.tolerances[name]))
                    for name in cfg.checks if name not in parts}
    finally:
        ctx.forget_run()  # and leaves none for the next to find
    checks = {}
    for name in cfg.checks:
        tol = cfg.tolerances[name]
        if name in parts:
            outcome = _outcome(lambda: CHECKS[name].fold(pts, _raise_held(parts[name]), tol))
        else:
            outcome = outcomes[name]
        checks[name] = outcome.doc(tol)

    statuses = [c["status"] for c in checks.values()]
    summary = {
        "n_checks": len(statuses),
        "n_pass": statuses.count("pass"),
        "n_fail": statuses.count("fail"),
        "n_flagged": statuses.count("flagged"),
    }
    report = RunReport(
        config=cfg.echo,
        space={"name": cfg.space_name, "p": ctx.p, "n": ctx.n, "K": ctx.K},
        rng={
            "algorithm": "PCG64",
            "procedure": "numpy.random.default_rng(seed); coordinates drawn "
                         "uniformly per axis over the configured box; points "
                         "with metric condition number above 1e8 rejected",
            "seed": cfg.seed,
        },
        points=[_point_doc(pt) for pt in pts],
        checks=checks,
        dumps=dumps,
        summary=summary,
        wall_time_s=time.perf_counter() - start,
    )
    target = out_path or cfg.output
    if target:
        _atomic_write(target, report.to_json())
    return report, (1 if summary["n_fail"] else 0)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    if args.dump:
        dump = tuple(args.dump.split(","))
        for fam in dump:
            if fam not in DUMP_FAMILIES:
                raise ConfigError(f"unknown dump family {fam!r}; "
                                  f"available {list(DUMP_FAMILIES)}")
        cfg = replace(cfg, dump=dump)
    report, code = run_report(cfg, out_path=args.out)
    for name, doc in report.checks.items():
        res = doc["max_abs"]
        shown = "n/a" if res is None else f"{res:.3e}"
        print(f"{name}: {doc['status']} (max {shown}, tol {doc['tolerance']:.1e})")
    target = args.out or cfg.output
    if target:
        print(f"report written to {target}")
    return code


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    ctx = cfg.space
    # sampling evaluates the metrics, so a defect that shows only at a
    # point ends here as it would in run; explicit points are not sampled,
    # so their order-0 metric inverses are taken here
    _collect_points(cfg, ctx)
    for k, pt in enumerate(cfg.explicit):
        fr = frame(ctx, pt, 0)
        try:
            fr.inverse("h", 0), fr.inverse("g", 0)
            if isinstance(ctx.nlc, ChristoffelOfPhi):
                fr.inverse("phi", 0)
        except JetlagError as exc:
            raise _err(f"points.explicit[{k}]", f"metrics at "
                       f"{json.dumps(_point_doc(pt))}: {exc}") from None
    print(f"{args.config}: valid")
    return 0


def _cmd_spaces(args) -> int:
    doc = {name: PARAM_SCHEMAS[name] for name in space_names()}
    print(_to_json(doc))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jetlag",
        description="check suites and component dumps for multi-time "
                    "jet-bundle geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="report path "
                       "(overrides the config's output entry)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's point seed")
    p_run.add_argument("--dump", default=None,
                       help="comma-separated component families to dump")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a configuration file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_sp = sub.add_parser("spaces", help="list built-in spaces and their "
                                         "parameter schemas")
    p_sp.set_defaults(fn=_cmd_spaces)

    args = parser.parse_args(argv)
    try:
        # overflow or nan in the jet arithmetic ends in a named error or a
        # rejected draw, so numpy's warnings would only add stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except JetlagError as exc:
        msg = str(exc)
        excerpt = getattr(exc, "excerpt", None)
        if excerpt is not None:
            msg += f" (offset {getattr(exc, 'offset', '?')} in {excerpt!r})"
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a space or a run too large for the host is no failing check
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
