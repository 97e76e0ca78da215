"""Span recorder for the traced benchmark run.

``install()`` wraps the public entry points of every jetlag layer, from
outside the package: each wrapped call appends one span (name, start, end,
parent) to in-memory arrays.  Nothing under ``src/`` is modified; the
wrappers replace the attributes in the running process only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from functools import cached_property

import numpy as np

import spec

# (module, attribute, span name).  "Class.attr" names a class attribute.
# Each target is replaced at every binding of the same object, so names a
# module imported with ``from .diff_engine import jet_einsum`` are wrapped
# too.
TARGETS = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "RunReport.to_json", "cli.report_write"),
    ("cli", "_atomic_write", "cli.report_write"),
    ("spaces", "build_space", "spaces.build_space"),
    ("field_expr", "parse_field", "field_expr.parse"),
    ("field_expr", "ExprField.__call__", "field_expr.eval"),
    ("diff_engine", "Jet.__mul__", "diff_engine.jet_mul"),
    ("diff_engine", "Jet.compose", "diff_engine.compose"),
    ("diff_engine", "jet_einsum", "diff_engine.jet_einsum"),
    ("diff_engine", "jet_linear", "diff_engine.jet_linear"),
    ("diff_engine", "jet_matrix_inverse", "diff_engine.jet_matrix_inverse"),
    ("diff_engine", "seed_point", "diff_engine.seed_point"),
    ("diff_engine", "eval_derivs", "diff_engine.eval_derivs"),
    ("diff_engine", "fd_partial", "diff_engine.fd_partial"),
    ("diff_engine", "check_grad", "diff_engine.check_grad"),
    ("tensor_core", "contract", "tensor_core"),
    ("tensor_core", "sym_inverse", "tensor_core"),
    ("tensor_core", "raise_lower", "tensor_core"),
    ("tensor_core", "split_vertical", "tensor_core"),
    ("tensor_core", "bind_vertical", "tensor_core"),
    ("geometry", "sample_points", "geometry.sample_points"),
    ("em_field", "maxwell_residuals", "em_field.maxwell"),
    ("em_field", "deflection_identity_residuals",
     "em_field.deflection_identities"),
    ("em_field", "bianchi_residuals", "em_field.bracket"),
    ("gravity", "einstein_blocks", "gravity.einstein_blocks"),
    ("gravity", "stress_energy_extract", "gravity.stress_energy"),
    ("gravity", "conservation_residuals", "gravity.conservation"),
    ("gravity", "natural_form_checks", "gravity.natural_form"),
]

# frame(ctx, pt, order=2) and Frame(ctx, pt, order): spans named per order
ORDER_TARGETS = [
    ("geometry", "frame", "geometry.frame", 2, 2),
    ("geometry", "Frame.__init__", "geometry.frame_build", 3, None),
]

# Frame's cached properties, grouped into the blocks of the frame pipeline;
# names not listed fall back to their prefix (tor_, cur_, ricci_, scalar_)
BLOCK_OF = {
    "xs_jet": "metric", "h_jet": "metric", "g_jet": "metric",
    "vertical_half_hessian": "metric", "h_inv": "metric", "g_inv": "metric",
    "Htc_jet": "nlc", "M_jet": "nlc", "phi_jet": "nlc", "phi_inv": "nlc",
    "gamma_phi_jet": "nlc", "gamma_g_jet": "nlc", "N_jet": "nlc",
    "Gc_jet": "connection", "Lc_jet": "connection", "Cc_jet": "connection",
}
BLOCK_PREFIXES = {"tor_": "torsion", "cur_": "curvature", "ricci_": "ricci",
                  "scalar_": "ricci"}


class Recorder:
    """Spans of every wrapped call, kept in flat arrays until written out.

    ``parent`` is the index of the enclosing wrapped call (-1 at top
    level); ``nested`` marks a call made inside another call of the same
    name, so that total span time counts recursion once.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack = [-1]
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, nid_of):
        """``fn`` recording one span per call, named by ``nid_of(args,
        kwargs)``."""
        names, parents, nested = self.name, self.parent, self.nested
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = nid_of(args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(depth[nid] > 0)
            depth[nid] += 1
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[nid] -= 1

        return wrapper

    def span(self, name: str, fn):
        nid = self.name_id(name)
        return self.wrap(fn, lambda args, kwargs: nid)

    def summary(self, lo: int, hi: int) -> dict:
        """Per span name over spans ``lo:hi``: calls, total seconds (outermost
        calls only) and self seconds (duration minus direct children)."""
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.intc)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.intc)[lo:hi]
        nested = np.frombuffer(self.nested, dtype=np.int8)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner],
                            minlength=hi - lo)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur * (nested == 0), minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        out = {nm: (int(calls[i]), float(total[i]), float(own[i]))
               for i, nm in enumerate(self.names)}
        # order-0 frames requested by sample_points, for its accept ratio
        tried = 0
        if "geometry.frame.o0" in self._ids and "geometry.sample_points" in self._ids:
            o0 = self._ids["geometry.frame.o0"]
            sp = self._ids["geometry.sample_points"]
            sel = (name == o0) & inner
            pname = np.frombuffer(self.name, dtype=np.intc)[parent[sel]]
            tried = int(np.count_nonzero(pname == sp))
        out["geometry.sample_points.tried"] = (tried, 0.0, 0.0)
        return out

    def write(self, path: str):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), nested=np.asarray(self.nested),
                 start=np.asarray(self.start), end=np.asarray(self.end))


def _replace_everywhere(old, new):
    """Rebind every module-level name in jetlag that refers to ``old``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "jetlag" and not modname.startswith("jetlag."):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _replace_in_class(cls, old, new):
    """Rebind every attribute of ``cls`` that refers to ``old`` (this covers
    aliases such as ``__rmul__ = __mul__``)."""
    for key, val in list(vars(cls).items()):
        if val is old:
            setattr(cls, key, new)


def _patch(modname: str, attr: str, make):
    """Wrap ``jetlag.<modname>.<attr>`` with ``make(fn)`` at every binding.

    Raises if the target is gone, so a renamed entry point fails the traced
    run instead of reading as a layer that costs nothing.
    """
    mod = importlib.import_module(f"jetlag.{modname}")
    if "." in attr:
        clsname, meth = attr.split(".")
        cls = getattr(mod, clsname)
        fn = vars(cls).get(meth)
        if fn is None:
            raise LookupError(f"trace target jetlag.{modname}.{attr} is gone")
        _replace_in_class(cls, fn, make(fn))
    else:
        fn = getattr(mod, attr, None)
        if fn is None:
            raise LookupError(f"trace target jetlag.{modname}.{attr} is gone")
        _replace_everywhere(fn, make(fn))


def _block_of(prop: str) -> str:
    if prop in BLOCK_OF:
        return BLOCK_OF[prop]
    for prefix, block in BLOCK_PREFIXES.items():
        if prop.startswith(prefix):
            return block
    raise LookupError(f"Frame.{prop} belongs to no traced block; add it to "
                      "BLOCK_OF")


def install() -> Recorder:
    """Wrap every traced entry point of the imported jetlag package."""
    rec = Recorder()
    for modname, attr, name in TARGETS:
        _patch(modname, attr, lambda fn, name=name: rec.span(name, fn))

    for modname, attr, name, pos, default in ORDER_TARGETS:
        def nid_of(args, kwargs, name=name, pos=pos, default=default):
            order = args[pos] if len(args) > pos else kwargs.get("order", default)
            return rec.name_id(f"{name}.o{order}")

        _patch(modname, attr, lambda fn, nid_of=nid_of: rec.wrap(fn, nid_of))

    cli = importlib.import_module("jetlag.cli")
    for check, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[check] = rec.span(f"cli.check.{check}", fn)

    geometry = importlib.import_module("jetlag.geometry")
    frame_cls = geometry.Frame
    for prop, val in list(vars(frame_cls).items()):
        if isinstance(val, cached_property):
            wrapped = cached_property(
                rec.span(f"geometry.block.{_block_of(prop)}", val.func))
            wrapped.__set_name__(frame_cls, prop)
            setattr(frame_cls, prop, wrapped)
    return rec


def layer_metrics(s: dict, accepted: int) -> dict:
    """Per-layer metrics of one traced run from its ``Recorder.summary``.

    ``accepted`` is the number of points ``sample_points`` returned.
    """
    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return s.get(name, (0, 0.0, 0.0))[2]

    def by_prefix(prefix):
        return sum(v[0] for k, v in s.items() if k.startswith(prefix))

    m = {"cli.load_config.s": total("cli.load_config")}
    for check in spec.CHECKS:
        m[f"cli.check.{check}.s"] = total(f"cli.check.{check}")
    m["cli.report_write.s"] = total("cli.report_write")
    m["spaces.build_space.calls"] = calls("spaces.build_space")
    m["spaces.build_space.s"] = total("spaces.build_space")
    m["field_expr.parse.calls"] = calls("field_expr.parse")
    m["field_expr.eval.calls"] = calls("field_expr.eval")
    m["field_expr.eval.self_s"] = own("field_expr.eval")
    for fn in spec.DIFF_FUNCS:
        m[f"diff_engine.{fn}.calls"] = calls(f"diff_engine.{fn}")
        m[f"diff_engine.{fn}.self_s"] = own(f"diff_engine.{fn}")
    m["tensor_core.calls"] = calls("tensor_core")
    frame_calls = by_prefix("geometry.frame.o")
    builds = by_prefix("geometry.frame_build.o")
    m["geometry.frame.calls"] = frame_calls
    m["geometry.frame.builds"] = builds
    m["geometry.frame.hit_ratio"] = (
        (frame_calls - builds) / frame_calls if frame_calls else 0.0)
    for k in range(4):
        m[f"geometry.frame.builds.o{k}"] = calls(f"geometry.frame_build.o{k}")
    for block in spec.BLOCKS:
        m[f"geometry.block.{block}.computes"] = calls(f"geometry.block.{block}")
        m[f"geometry.block.{block}.self_s"] = own(f"geometry.block.{block}")
    m["geometry.sample_points.s"] = total("geometry.sample_points")
    tried = calls("geometry.sample_points.tried")
    m["geometry.sample_points.accept_ratio"] = accepted / tried if tried else 0.0
    for name in ("maxwell", "deflection_identities", "bracket"):
        m[f"em_field.{name}.s"] = total(f"em_field.{name}")
    for name in ("einstein_blocks", "stress_energy", "conservation",
                 "natural_form"):
        m[f"gravity.{name}.s"] = total(f"gravity.{name}")
    return m
