"""Connections and curvature of generalized metrical multi-time Lagrange
spaces on a first-order jet bundle.

A space is described by a :class:`GeometryContext`: dimensions (p temporal,
n spatial), a temporal metric h (fields of t only), a vertical metric source
(direct g entries, or a Lagrangian whose half-Hessian is contracted down to
g), a spatial nonlinear-connection choice and the gravitational constant K.

The canonical temporal nonlinear connection is M^(i)_(a)b = -H^g_ab x^i_g,
with H the Christoffel symbols of h.  The spatial one is either the
quadratic-canonical formula N^(i)_(a)j = Gamma^i_jm x^m_a
+ (g^im/2) dg_jm/dt^a (only for direction-independent g), the Christoffel
form gamma^i_jm(phi) x^m_a of a fixed spatial metric phi, or user-given
fields.

From these the Cartan canonical connection (H, G, L, C), its eight torsion
blocks, seven curvature blocks, Ricci contractions and scalar curvature are
assembled.  H, L and C are one Christoffel form,
(1/2) inv^im (D_k m_mj + D_j m_mk - D_m m_jk), of h along d/dt, of g along
delta/delta x and of g along d/dxs; gamma(phi) and Gamma(g) are the same
form along d/dx.  All differentiation flows through exact Taylor jets;
finite differences appear only in tests as an independent oracle.

Derivative budget: the theory needs jets of order at most ``MAX_ORDER`` = 3
(two derivatives of the metrics for curvature, one more for its
divergences).  An entry point that reads jets of order k needs k, and k + 1
on a Lagrangian-derived space, whose g already spends one order on the
half-Hessian of L.  So only the order-3 readers, the conservation laws and
the natural-form checks, are closed to a Lagrangian-derived space.

A check over many points folds the records of a per-point step, which
:func:`sweep` takes block by block as ``jetlag run`` does.

Index layout convention used for every stored block: axes follow the
symbol's logical indices left to right, a bound vertical pair contributing
(spatial, temporal) adjacent axes.  All indices are 0-based in arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .diff_engine import (
    BatchDiverged,
    Jet,
    JetPoint,
    ScalarField,
    _LETTERS,
    _seed_tables,
    coord_count,
    jet_einsum,
    jet_linear,
    jet_matrix_inverse,
)
from .errors import (
    ConfigError,
    EvalDomainError,
    DerivativeDomainError,
    FieldDomainError,
    FieldValidationError,
    JetlagError,
    OrderExceededError,
    RegularityViolationError,
    name_witness,
)
from .field_expr import FieldGrid
from .tensor_core import S_DN, S_UP, T_DN, V_DN

MAX_ORDER = 3  # the derivative budget (module docstring)

# The bytes the frames of one block of points may keep (:func:`block_size`):
# 768 KiB, which puts a (2,2) order-3 run in blocks of 6 points, a (2,2)
# order-2 run in blocks of up to 43 and a (3,3) order-3 run one point at a
# time.
BLOCK_BYTES = 768 * 1024

__all__ = [
    "MAX_ORDER",
    "DirectMetric",
    "FromLagrangian",
    "QuadraticCanonical",
    "ChristoffelOfPhi",
    "UserGiven",
    "GeometryContext",
    "CartanCoefficients",
    "TorsionSet",
    "CurvatureSet",
    "RicciSet",
    "ScalarSet",
    "RegularityVerdict",
    "ResidualStats",
    "TorsionFreeVerdict",
    "BLOCK_BYTES",
    "block_size",
    "blocks",
    "frame_bytes",
    "sweep",
    "frame",
    "sample_points",
    "temporal_christoffel_and_M",
    "spatial_nlc",
    "cartan_connection",
    "torsion_set",
    "curvature_set",
    "ricci_and_scalars",
    "kronecker_regularity_check",
    "kronecker_deviation_at",
    "regularity_verdict",
    "nlc_torsion_free_check",
    "nlc_torsion_at",
    "torsion_free_verdict",
    "metricity_residuals",
    "curvature_antisymmetry_residuals",
]


# --------------------------------------------------------------------------
# context
# --------------------------------------------------------------------------

def _as_grid(entries, shape, what) -> np.ndarray:
    grid = np.empty(shape, dtype=object)
    arr = np.asarray(entries, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{what} must be a {shape} grid of fields, got {arr.shape}")
    for idx in np.ndindex(shape):
        f = arr[idx]
        if not isinstance(f, ScalarField):
            raise TypeError(f"{what}{list(idx)} is not a scalar field: {f!r}")
        grid[idx] = f
    return grid


def _check_deps(grid, allowed, what):
    allowed = frozenset(allowed)
    for idx in np.ndindex(grid.shape):
        extra = grid[idx].deps - allowed
        if extra:
            raise FieldValidationError(
                f"{what}{list(idx)} depends on {sorted(extra)}; "
                f"allowed dependencies are {sorted(allowed)}"
            )


@dataclass(frozen=True)
class DirectMetric:
    """Vertical metric given directly as an n x n grid of g_ij fields."""

    entries: object  # np.ndarray of ScalarField, shape (n, n)


@dataclass(frozen=True)
class FromLagrangian:
    """Vertical metric derived from a Lagrangian:
    g_ij = (1/p) h_mn d^2 L / (2 dxs^i_m dxs^j_n)."""

    L: ScalarField


@dataclass(frozen=True)
class QuadraticCanonical:
    """Spatial NLC N^(i)_(a)j = Gamma^i_jm x^m_a + (g^im/2) dg_jm/dt^a.

    Requires a direction-independent g.
    """


@dataclass(frozen=True)
class ChristoffelOfPhi:
    """Spatial NLC N^(i)_(a)j = gamma^i_jm(phi) x^m_a for a fixed spatial
    metric phi(x)."""

    phi: object  # np.ndarray of ScalarField, shape (n, n), deps {x}


@dataclass(frozen=True)
class UserGiven:
    """Spatial NLC supplied directly as an n x p x n grid of fields."""

    entries: object  # np.ndarray of ScalarField, shape (n, p, n)


class GeometryContext:
    """One space, and the state of evaluating it: not immutable.

    Besides the fields and K it holds one block's frames (:func:`frame`)
    and the recorded signature, until :meth:`forget_run`.  All runs of one
    ``RunConfig`` share it, and each starts and ends with that call.

    The realized g must stay symmetric, invertible, and of constant
    signature: :attr:`Frame.g_jet` records the eigenvalue signs at the
    first point it reads and asserts them at every later one;
    ``sample_points`` does so only for the draws it accepts.
    """

    def __init__(self, p, n, h, g_source, nlc, K=1.0):
        if p < 1 or n < 1:
            raise ValueError(f"dimensions must be positive, got p={p}, n={n}")
        self.p = int(p)
        self.n = int(n)
        self.h = _as_grid(h, (self.p, self.p), "h")
        _check_deps(self.h, {"t"}, "h")
        if isinstance(g_source, DirectMetric):
            g_source = DirectMetric(_as_grid(g_source.entries, (self.n, self.n), "g"))
        elif isinstance(g_source, FromLagrangian):
            if not isinstance(g_source.L, ScalarField):
                raise TypeError("FromLagrangian.L must be a scalar field")
        else:
            raise TypeError(f"unknown g source {g_source!r}")
        self.g_source = g_source
        if isinstance(nlc, ChristoffelOfPhi):
            phi = _as_grid(nlc.phi, (self.n, self.n), "phi")
            _check_deps(phi, {"x"}, "phi")
            nlc = ChristoffelOfPhi(phi)
        elif isinstance(nlc, UserGiven):
            nlc = UserGiven(
                _as_grid(nlc.entries, (self.n, self.p, self.n), "N")
            )
        elif not isinstance(nlc, QuadraticCanonical):
            raise TypeError(f"unknown spatial nonlinear connection {nlc!r}")
        self.nlc = nlc
        self.K = float(K)
        self.forget_run()

    def forget_run(self):
        """Forget the frames of the block last framed and the recorded
        signature.  A run starts and ends with this, and
        :func:`sweep` ends with it, so no run inherits either."""
        self._framed = None  # the key of the block last framed
        self._frames = {}  # its frames, by order
        self._signature = None  # (h signs, g signs) at the first point read

    # signature bookkeeping (D-tensor metrics must keep constant signature)

    def _check_signature(self, pt: JetPoint, h_val, g_val):
        signs = (
            tuple(int(np.sign(v)) for v in np.linalg.eigvalsh(h_val)),
            tuple(int(np.sign(v)) for v in np.linalg.eigvalsh(g_val)),
        )
        if self._signature is None:
            self._signature = signs
        elif self._signature != signs:
            raise RegularityViolationError(
                f"metric signature changed between sample points: "
                f"recorded {self._signature}, found {signs}",
                witness=pt,
            )


# --------------------------------------------------------------------------
# frame: all jet-level geometry at a block of points, lazily computed and
# cached
# --------------------------------------------------------------------------

# The blocks a frame of order k keeps at each of its points, as (the order
# it keeps them at, the axes of each: t one of p temporal, s one of n
# spatial indices).  A block kept below order 0 is not built.
_KEPT_BLOCKS = (
    # the metric jets h, g and phi
    (lambda k: k, ("tt", "ss", "ss")),
    # h^-1, read at the frame's order on frames of order 2 or less
    (lambda k: min(k, MAX_ORDER - 1), ("tt",)),
    # g^-1 and phi^-1; the connection H, M, gamma, N, G, L, C; T = -G
    (lambda k: k - 1, ("ss", "ss", "ttt", "stt", "sss", "sts", "sst", "sss",
                       "ssst", "sts")),
    # the torsion P2, P3, R1, R2, R3 and the curvature H, R1, R2, R3, P1,
    # P2, S
    (lambda k: k - 2, ("sttst", "stsst", "sttt", "stts", "stss", "tttt",
                       "sstt", "ssts", "ssss", "sstst", "sssst", "ssstst")),
    # the S-torsion, built at order 0 only (Frame.tor_S)
    (lambda k: min(k - 2, 0), ("ststst",)),
)


def frame_bytes(p: int, n: int, order: int) -> int:
    """The bytes that the frame blocks of ``order`` keep at each point of
    a (p, n) space: each block of :data:`_KEPT_BLOCKS` as a jet of
    doubles at the order it is kept at.  The frames of lower orders that a
    run builds beside it, and the blocks derived outside this module, are
    left out."""
    N = coord_count(p, n)
    dim = {"t": p, "s": n}
    elements = 0
    for kept_at, shapes in _KEPT_BLOCKS:
        terms = sum(N ** j for j in range(kept_at(order) + 1))
        elements += terms * sum(math.prod(dim[a] for a in axes) for axes in shapes)
    return 8 * elements


def block_size(p: int, n: int, order: int) -> int:
    """How many points one frame spans on a (p, n) space whose frames go
    up to ``order``: as many as keep :func:`frame_bytes` within
    :data:`BLOCK_BYTES`, and at least one."""
    return max(1, BLOCK_BYTES // frame_bytes(p, n, order))


def blocks(pts, size: int) -> list:
    """``pts`` cut, in order, into the fewest blocks of at most ``size``
    points, whose sizes differ by one at most."""
    count = -(-len(pts) // size)
    return [pts[k * len(pts) // count:(k + 1) * len(pts) // count]
            for k in range(count)]


def _block_records(step, ctx, block) -> list:
    """The records of ``step`` at the points of ``block``, one per point,
    in order: from one call over the block, or, where that raises or its
    points branch apart, from one call per point.  A point whose call
    raises a :class:`JetlagError` has that error as its record, held: its
    witness named and the traceback of every error in its chain dropped,
    so that it keeps none of the point's frames alive.  So a point keeps
    the record or the error it gets alone, and no JetlagError leaves
    here: each caller decides what a held error means."""
    if len(block) > 1:
        try:
            return step(ctx, block)
        except (JetlagError, BatchDiverged):
            pass  # each point alone gives its own record or error
    out = []
    for pt in block:
        try:
            out += step(ctx, [pt])
        except JetlagError as exc:
            out.append(_held(name_witness(exc, pt)))
    return out


def _held(exc: JetlagError) -> JetlagError:
    """``exc``, with the traceback of every exception in its chain
    (``__cause__`` and ``__context__``) dropped."""
    seen, todo = set(), [exc]
    while todo:
        e = todo.pop()
        if e is not None and id(e) not in seen:
            seen.add(id(e))
            e.__traceback__ = None
            todo += [e.__cause__, e.__context__]
    return exc


def _raise_held(records) -> list:
    """``records``, once the first error held among them, in point order,
    is raised (:func:`_block_records`)."""
    for rec in records:
        if isinstance(rec, JetlagError):
            raise rec
    return records


def sweep(step, ctx, pts, order: int) -> list:
    """The records of ``step`` (``(ctx, block) -> [record per point]``) at
    ``pts``, as ``jetlag run`` takes them: :func:`_block_records` of each
    of the :func:`blocks` of at most :func:`block_size` points whose
    frames go up to ``order``, so a fold of them has the run's bits,
    errors and witnesses.  After the last block it raises the first error
    a point holds.  Like a run, it ends with ``ctx.forget_run()``."""
    out = []
    try:
        for block in blocks(pts, block_size(ctx.p, ctx.n, order)):
            out += _block_records(step, ctx, block)
    finally:
        ctx.forget_run()
    return _raise_held(out)


def frame(ctx: GeometryContext, pts, order: int = 2) -> "Frame":
    """The geometry frame of ``ctx`` at ``pts``, a block (sequence) of
    points; one :class:`JetPoint` is the block of that point alone, and
    its frame is the frame of ``[pt]``.

    The context keeps the frames of one block, by order: asking for
    another drops them.  So a caller that goes block by block, as
    ``jetlag run`` and :func:`sweep` do, reads each block's frames while
    they live and frees them when the next block starts; it drops the last
    block's when it ends (:meth:`GeometryContext.forget_run`), so a later
    run of the same context finds none of them.

    ``order`` is the Taylor depth carried by the metric-level jets; 2 covers
    torsion/curvature values, 3 is needed for covariant derivatives of
    curvature-level objects (conservation laws, Bianchi residuals).  It
    decides how much is computed, not any number: every block of an
    order-k frame is the order-3 frame's block truncated, bit for bit.
    Each product is built only to the order its result keeps, and each
    metric inverse and the S-torsion only to the order their readers read.
    A block of no points raises ValueError.
    """
    pts = (pts,) if isinstance(pts, JetPoint) else tuple(pts)
    if not pts:
        raise ValueError("a frame needs at least one point")
    key = tuple(pt.key() for pt in pts)
    if ctx._framed != key:
        ctx._framed, ctx._frames = key, {}
    fr = ctx._frames.get(order)
    if fr is None:
        fr = ctx._frames[order] = Frame(ctx, pts, order)
    return fr


def _each(pts, records):
    """``records``, one per point, as a caller of a per-point function
    asked for them: the one record at a :class:`JetPoint`, else the list."""
    return records[0] if isinstance(pts, JetPoint) else records


class Frame:
    """Lazy jet pipeline of one (context, block of points, order) triple.

    Every cached property is a Jet whose component axes follow the block's
    logical indices; ``.value`` peels the point values.  The frame of a
    block of B points (:func:`frame`) runs the same pipeline once for all
    of them: every jet carries one leading point axis of size B, a block
    of one point included, which the jet operations recognise as one
    component axis more than their spec names, and each point gets the
    bits it gets alone.  :meth:`values` splits values by point.

    The three covariant derivatives (:meth:`cov_t` /b, :meth:`cov_s` |k,
    :meth:`cov_v` |^(g)_(k)) are one rule: the base derivative
    (delta/delta t, delta/delta x, d/dxs) of the tensor, plus the
    coefficient contracted into each upper index, minus it contracted on
    its upper index into each lower one.  The coefficients are H on
    temporal and G on spatial indices for /b, L for |k and C for |^(g)_(k);
    the latter two leave temporal indices alone.  A block that
    several checks derive (the conservation-law right-hand sides, the
    metrical deflections, the Einstein blocks, the torsion probe) is built
    once per frame through :meth:`shared`, so it lives and dies with the
    frame.
    Each product is built only to the order its result keeps, through the
    ``order`` cap of :func:`jet_einsum`.  The metric inverses
    (:meth:`inverse`) and the S-torsion (:meth:`tor_S`) are built only to
    the order their readers name: each reader asks for the order of the
    block it contracts, and a lower order is served truncated.  The
    fields (h, g, phi, N, L) come from the context's compiled field grids
    (:meth:`eval_grid`), each run once per order over the frame's points.
    """

    def __init__(self, ctx: GeometryContext, pts, order: int):
        self.pts = (pts,) if isinstance(pts, JetPoint) else tuple(pts)
        for pt in self.pts:
            if pt.dims != (ctx.p, ctx.n):
                raise ValueError(
                    f"point dims {pt.dims} do not match context ({ctx.p},{ctx.n})"
                )
        self.ctx = ctx
        self.order = order
        self.p = ctx.p
        self.n = ctx.n
        self.N = coord_count(ctx.p, ctx.n)
        self._shared = {}
        self._built = {}

    def shared(self, block, *args):
        """``block(self, *args)``, computed on the first call and kept per
        frame.  A jet argument is keyed by identity: pass only jets that the
        frame itself keeps, such as its blocks."""
        key = (block, *args)
        if key not in self._shared:
            self._shared[key] = block(self, *args)
        return self._shared[key]

    def _upto(self, key, order: int, build) -> Jet:
        """``build(order)``, kept per frame at the highest order asked for
        so far; a lower order is that block truncated, bit for bit."""
        have = self._built.get(key)
        if have is None or have.order < order:
            have = self._built[key] = build(order)
        return have.truncated(order)

    def _rank(self, A: Jet) -> int:
        """The number of ``A``'s component axes, its point axis not counted."""
        return A.value.ndim - 1

    def values(self, *jets) -> list:
        """Per point of the frame, the tuple of the values of ``jets`` there."""
        return list(zip(*[j.value for j in jets]))

    def max_abs(self, jet: Jet) -> list:
        """Per point of the frame, the largest |value| of ``jet`` there."""
        return [float(np.max(np.abs(v))) for (v,) in self.values(jet)]

    def residuals(self, pairs) -> list:
        """Per point of the frame, [(residual value, constituent-term
        values)] of each (residual, terms) pair of jets in ``pairs``."""
        per = [self.values(res, *terms) for res, terms in pairs]
        return [[(v[k][0], v[k][1:]) for v in per] for k in range(len(self.pts))]

    # -- field evaluation ----------------------------------------------------

    def eval_scalar(self, f: ScalarField, order=None) -> Jet:
        return self._eval_fields([f], order).reshape_components((len(self.pts),))

    def eval_grid(self, grid: np.ndarray, order=None) -> Jet:
        fields = [grid[idx] for idx in np.ndindex(grid.shape)]
        return self._eval_fields(fields, order).reshape_components(
            (len(self.pts),) + grid.shape)

    def _eval_fields(self, fields, order) -> Jet:
        """``fields`` at the frame's B points, as one jet of ``order``
        (default: the frame's) of component shape (B, F), B = 1 included,
        through the context's compiled grid of them (:meth:`FieldGrid.of`),
        run once over the frame's points.  A block whose grid raises or
        whose points branch apart raises, and its points are then framed
        alone (:class:`~jetlag.diff_engine.BatchDiverged`)."""
        order = self.order if order is None else order
        return FieldGrid.of(fields).stacked(self.pts, order)

    # -- coordinates -------------------------------------------------------

    @cached_property
    def xs_jet(self) -> Jet:
        """The velocity coordinates xs^i_a as jets, axes [i,a]: their
        derivative coefficients are the same at every point, so they are
        read-only views of the tables that seed every coordinate
        (:func:`~jetlag.diff_engine._seed_tables`): the rows of the
        identity that belong to xs, and the zero tables above order 1."""
        p, n, N = self.p, self.n, self.N
        xs = np.array([pt.xs for pt in self.pts], dtype=float)
        unit, zeros = _seed_tables(N, self.order)
        # xs^i_a is the coordinate p + n + i p + a
        derivs = [unit[p + n:].reshape(n, p, N)][:self.order] + zeros[1:]
        return Jet(N, self.order, [xs, *(
            np.broadcast_to(c, xs.shape + (N,) * k)
            for k, c in enumerate(derivs, 1))])

    # -- metrics -----------------------------------------------------------

    def _symmetric(self, jet: Jet, what: str) -> Jet:
        """``jet`` after checking that its (square) value is symmetric at
        each point."""
        for pt, (val,) in zip(self.pts, self.values(jet)):
            scale = max(1.0, float(np.max(np.abs(val))))
            if float(np.max(np.abs(val - val.T))) > 1e-9 * scale:
                raise RegularityViolationError(
                    f"{what} is not symmetric at this point", witness=pt
                )
        return jet

    @cached_property
    def h_jet(self) -> Jet:
        return self._symmetric(self.eval_grid(self.ctx.h), "temporal metric h")

    @cached_property
    def g_jet(self) -> Jet:
        """:meth:`symmetric_g`, its signature at each point held to the
        context's (:meth:`GeometryContext._check_signature`)."""
        g = self.symmetric_g()
        for pt, (h_val, g_val) in zip(self.pts, self.values(self.h_jet, g)):
            self.ctx._check_signature(pt, h_val, g_val)
        return g

    def symmetric_g(self) -> Jet:
        """g at the frame's points, checked symmetric but not held to any
        signature; built anew on each call."""
        src = self.ctx.g_source
        if isinstance(src, DirectMetric):
            g = self.eval_grid(src.entries)
        else:
            hh = self.vertical_half_hessian
            g = jet_einsum("mn,imjn->ij", self.h_jet, hh) * (1.0 / self.p)
        return self._symmetric(g, "vertical metric g")

    @cached_property
    def vertical_half_hessian(self) -> Jet:
        """G^(m)(n)_(i)(j) = (1/2) d^2 L / dxs^i_m dxs^j_n, axes [i,m,j,n]."""
        src = self.ctx.g_source
        if not isinstance(src, FromLagrangian):
            raise ValueError("vertical half-Hessian requires a Lagrangian source")
        return self.half_hessian(self.eval_scalar(src.L, self.order + 2))

    def half_hessian(self, L: Jet) -> Jet:
        """(1/2) d^2 L / dxs^i_m dxs^j_n of a scalar jet, axes [i,m,j,n]."""
        lo = self.p + self.n
        d1 = L.dblock(slice(lo, self.N), (self.n, self.p))
        return d1.dblock(slice(lo, self.N), (self.n, self.p)) * 0.5

    def inverse(self, which: str, order: int) -> Jet:
        """The inverse of the metric ``which`` ("h", "g" or "phi"), built
        to ``order`` only.  h^-1 is built at once to the frame's order, at
        most ``MAX_ORDER - 1``: on a frame of order 2 or less the lowered
        Liouville field reads it at the frame's order after the temporal
        Christoffel form has read it one lower, and on an order-3 frame no
        reader reads it above order 2."""
        top = min(self.order, MAX_ORDER - 1) if which == "h" else order
        return self._upto(which, max(order, top), lambda k: jet_matrix_inverse(
            getattr(self, f"{which}_jet"), order=k)).truncated(order)

    # -- raw derivative blocks ----------------------------------------------

    def ddt(self, A: Jet) -> Jet:
        return A.dblock(slice(0, self.p))

    def ddx(self, A: Jet) -> Jet:
        return A.dblock(slice(self.p, self.p + self.n))

    def ddxs(self, A: Jet) -> Jet:
        return A.dblock(slice(self.p + self.n, self.N), (self.n, self.p))

    @staticmethod
    @lru_cache(maxsize=None)
    def _letters(k: int, avoid: str) -> str:
        return "".join([c for c in _LETTERS if c not in avoid][:k])

    def delta_t(self, A: Jet) -> Jet:
        """Adapted temporal derivative dA/dt^a - M^(j)_(b)a dA/dxs^j_b;
        appends one temporal axis."""
        return self._adapted(A, self.ddt, self.M_jet)

    def delta_x(self, A: Jet) -> Jet:
        """Adapted spatial derivative dA/dx^i - N^(j)_(b)i dA/dxs^j_b;
        appends one spatial axis."""
        return self._adapted(A, self.ddx, self.N_jet)

    def _christoffel(self, d: Jet, which: str) -> Jet:
        """(1/2) inv^im (d_mjk + d_mkj - d_jkm), axes [i,j,k] (+ [g]), of
        the derivative block d[m,j,k] = D_k m_mj of the metric ``which``; a
        vertical D carries a trailing temporal axis g through."""
        g = "g" if self._rank(d) == 4 else ""
        sym = d + jet_linear(f"mjk{g}->mkj{g}", d) - jet_linear(f"jkm{g}->mjk{g}", d)
        return jet_einsum(f"im,mjk{g}->ijk{g}", self.inverse(which, d.order), sym) * 0.5

    def _adapted(self, A: Jet, base, connection: Jet) -> Jet:
        """``base(A)`` minus the nonlinear ``connection`` [j,b,w] contracted
        with dA/dxs^j_b; appends the derivative axis w."""
        S = self._letters(self._rank(A), "jbw")
        corr = jet_einsum(f"{S}jb,jbw->{S}w", self.ddxs(A), connection)
        return base(A) - corr

    # -- connections ---------------------------------------------------------

    @cached_property
    def Htc_jet(self) -> Jet:
        """Temporal Christoffel H^g_ab of h, axes [g,a,b]."""
        return self._christoffel(self.ddt(self.h_jet), "h")

    @cached_property
    def M_jet(self) -> Jet:
        """Canonical temporal NLC M^(i)_(a)b = -H^g_ab x^i_g, axes [i,a,b]."""
        return -jet_einsum("gab,ig->iab", self.Htc_jet, self.xs_jet)

    @cached_property
    def phi_jet(self) -> Jet:
        if not isinstance(self.ctx.nlc, ChristoffelOfPhi):
            raise ValueError("this context has no fixed spatial metric phi")
        return self._symmetric(self.eval_grid(self.ctx.nlc.phi), "spatial metric phi")

    @cached_property
    def gamma_phi_jet(self) -> Jet:
        """Christoffel gamma^i_jm of phi, axes [i,j,m]."""
        return self._christoffel(self.ddx(self.phi_jet), "phi")

    def direction_independent(self) -> list:
        """Per point of the frame, whether g has no velocity dependence
        there: max |dg/dxs| <= 1e-10 max(1, max |g|)."""
        src = self.ctx.g_source
        if isinstance(src, DirectMetric) and not any(
                "xs" in f.deps for f in src.entries.flat):
            return [True] * len(self.pts)
        return [float(np.max(np.abs(dg))) <= 1e-10 * max(1.0, float(np.max(np.abs(g))))
                for g, dg in self.values(self.g_jet, self.ddxs(self.g_jet))]

    def require_direction_independent(self, what: str):
        """Error, at the first point that is not, unless every point of the
        frame is :meth:`direction_independent`."""
        independent = self.direction_independent()
        if all(independent):
            return
        k = independent.index(False)
        dg = np.abs(self.values(self.ddxs(self.g_jet))[k][0])
        ij = np.unravel_index(int(np.argmax(dg)), dg.shape)
        raise RegularityViolationError(
            f"{what} requires a direction-independent g, but "
            f"dg/dxs at indices {tuple(int(v) for v in ij)} is {float(dg.max()):.3e}",
            witness=self.pts[k],
        )

    @cached_property
    def gamma_g_jet(self) -> Jet:
        """Generalized Christoffel Gamma^i_jm of g(t,x); direction-independent
        g only."""
        self.require_direction_independent("the generalized Christoffel symbols")
        return self._christoffel(self.ddx(self.g_jet), "g")

    @cached_property
    def N_jet(self) -> Jet:
        """Spatial NLC N^(i)_(a)j, axes [i,a,j]."""
        nlc = self.ctx.nlc
        if isinstance(nlc, UserGiven):
            return self.eval_grid(nlc.entries)
        if isinstance(nlc, ChristoffelOfPhi):
            return jet_einsum("ijm,ma->iaj", self.gamma_phi_jet, self.xs_jet)
        self.require_direction_independent("the quadratic-canonical connection")
        term1 = jet_einsum("ijm,ma->iaj", self.gamma_g_jet, self.xs_jet)
        dg_t = self.ddt(self.g_jet)  # [j,m,a]
        term2 = jet_einsum("im,jma->iaj", self.inverse("g", dg_t.order), dg_t) * 0.5
        return term1 + term2

    # -- Cartan canonical connection ------------------------------------------

    @cached_property
    def Gc_jet(self) -> Jet:
        """G^k_jg = (g^ki/2) delta g_ij / delta t^g, axes [k,j,g]."""
        dg = self.delta_t(self.g_jet)  # [i,j,g]
        return jet_einsum("ki,ijg->kjg", self.inverse("g", dg.order), dg) * 0.5

    @cached_property
    def Lc_jet(self) -> Jet:
        """L^i_jk, axes [i,j,k]; Christoffel-type with delta/delta x."""
        return self._christoffel(self.delta_x(self.g_jet), "g")

    @cached_property
    def Cc_jet(self) -> Jet:
        """C^i(g)_j(k), axes [i,j,k,g]; Christoffel-type with d/dxs."""
        return self._christoffel(self.ddxs(self.g_jet), "g")

    # -- generic covariant derivatives on jets ---------------------------------

    def _storage_slots(self, slots):
        out = []
        for s in slots:
            out.extend(s.constituents())
        return tuple(out)

    def cov_t(self, A: Jet, slots) -> Jet:
        """Temporal covariant derivative /b; appends one temporal axis."""
        return self._cov(A, slots, self.delta_t, ("Htc_jet", "Gc_jet"), 1)

    def cov_s(self, A: Jet, slots) -> Jet:
        """Spatial covariant derivative |k; appends one spatial axis."""
        return self._cov(A, slots, self.delta_x, (None, "Lc_jet"), 1)

    def cov_v(self, A: Jet, slots) -> Jet:
        """Vertical covariant derivative |^(g)_(k); appends (n, p) axes."""
        return self._cov(A, slots, self.ddxs, (None, "Cc_jet"), 2)

    def _cov(self, A: Jet, slots, base, coefficients, extra_axes) -> Jet:
        """``base(A)`` plus +K^w_(q..) A^q per upper and -K^q_(w..) A_q per
        lower storage axis, K the frame block named by ``coefficients``
        (temporal, spatial) for the axis family (None: no correction);
        ``base`` appends ``extra_axes`` derivative axes, and so does K."""
        slots = self._storage_slots(slots)
        cn = self._rank(A)
        if len(slots) != cn:
            raise ValueError(f"{len(slots)} slots for {cn} component axes")
        letters = self._letters(cn + 2 + extra_axes, "")
        S = letters[:cn]
        w, q = letters[cn:cn + 2]
        D = letters[cn + 2:]
        out = base(A)
        for ax, slot in enumerate(slots):
            name = coefficients[slot.family != "temporal"]
            if name is None:
                continue
            src = S[:ax] + q + S[ax + 1:]
            dst = S[:ax] + w + S[ax + 1:]
            cspec = f"{w}{q}{D}" if slot.up else f"{q}{w}{D}"
            term = jet_einsum(f"{cspec},{src}->{dst}{D}", getattr(self, name), A,
                              order=out.order)
            out = out + term if slot.up else out - term
        return out

    # -- torsion ---------------------------------------------------------------

    @cached_property
    def tor_T_jet(self) -> Jet:
        """T^m_bk = -G^m_kb; axes [m,b,k]."""
        return jet_linear("mkb->mbk", self.Gc_jet) * (-1.0)

    @cached_property
    def tor_P2_jet(self) -> Jet:
        """P^(m)(b)_(mu)a(j) = dM^(m)_(mu)a/dxs^j_b - d^b_mu G^m_ja
        + d^m_j H^b_mu a; axes [m,mu,a,j,b]."""
        dM = self.ddxs(self.M_jet)  # [m,mu,a,j,b]
        p, n = self.p, self.n
        eye_p = np.eye(p)
        eye_n = np.eye(n)
        t2 = jet_einsum("mja,ub->muajb", self.Gc_jet, eye_p, order=dM.order)
        t3 = jet_einsum("bua,mj->muajb", self.Htc_jet, eye_n, order=dM.order)
        return dM - t2 + t3

    @cached_property
    def tor_P3_jet(self) -> Jet:
        """P^(m)(b)_(mu)i(j) = dN^(m)_(mu)i/dxs^j_b - d^b_mu L^m_ji;
        axes [m,mu,i,j,b]."""
        dN = self.ddxs(self.N_jet)  # [m,mu,i,j,b]
        t2 = jet_einsum("mji,ub->muijb", self.Lc_jet, np.eye(self.p), order=dN.order)
        return dN - t2

    @cached_property
    def tor_R1_jet(self) -> Jet:
        """R^(m)_(mu)ab = delta M^(m)_(mu)a/dt^b - (a<->b); axes [m,mu,a,b]."""
        dM = self.delta_t(self.M_jet)  # [m,mu,a,b]
        return dM - jet_linear("muab->muba", dM)

    @cached_property
    def tor_R2_jet(self) -> Jet:
        """R^(m)_(mu)aj = delta M^(m)_(mu)a/dx^j - delta N^(m)_(mu)j/dt^a;
        axes [m,mu,a,j]."""
        dM = self.delta_x(self.M_jet)   # [m,mu,a,j]
        dN = self.delta_t(self.N_jet)   # [m,mu,j,a]
        return dM - jet_linear("muja->muaj", dN)

    @cached_property
    def tor_R3_jet(self) -> Jet:
        """R^(m)_(mu)ij = delta N^(m)_(mu)i/dx^j - (i<->j); axes [m,mu,i,j]."""
        dN = self.delta_x(self.N_jet)  # [m,mu,i,j]
        return dN - jet_linear("muij->muji", dN)

    def tor_S(self, order: int) -> Jet:
        """S^(m)(a)(b)_(mu)(i)(j) = d^a_mu C^m(b)_i(j) - d^b_mu C^m(a)_j(i),
        built to ``order`` only; axes [m,mu,i,a,j,b]."""
        def build(k):
            eye = np.eye(self.p)
            return (jet_einsum("mijb,ua->muiajb", self.Cc_jet, eye, order=k)
                    - jet_einsum("mjia,ub->muiajb", self.Cc_jet, eye, order=k))
        return self._upto("tor_S", order, build)

    # -- curvature ---------------------------------------------------------------

    @cached_property
    def cur_H_jet(self) -> Jet:
        """H^a_e b g = dH^a_eb/dt^g - dH^a_eg/dt^b + H^m_eb H^a_mg
        - H^m_eg H^a_mb; axes [a,e,b,g]."""
        dH = self.ddt(self.Htc_jet)  # [a,e,b,g]
        quad = jet_einsum("meb,amg->aebg", self.Htc_jet, self.Htc_jet, order=dH.order)
        anti = dH + quad
        return anti - jet_linear("aebg->aegb", anti)

    @cached_property
    def cur_R1_jet(self) -> Jet:
        """R^l_i b g; axes [l,i,b,g]."""
        dG = self.delta_t(self.Gc_jet)  # [l,i,b,g]
        quad = jet_einsum("mib,lmg->libg", self.Gc_jet, self.Gc_jet, order=dG.order)
        anti = dG + quad
        anti = anti - jet_linear("libg->ligb", anti)
        tail = jet_einsum("limu,mubg->libg", self.Cc_jet, self.tor_R1_jet)
        return anti + tail

    @cached_property
    def cur_R2_jet(self) -> Jet:
        """R^l_i b k; axes [l,i,b,k]."""
        dG = self.delta_x(self.Gc_jet)   # [l,i,b,k]
        dL = self.delta_t(self.Lc_jet)   # [l,i,k,b]
        t1 = dG - jet_linear("likb->libk", dL)
        t2 = jet_einsum("mib,lmk->libk", self.Gc_jet, self.Lc_jet, order=t1.order)
        t3 = jet_einsum("mik,lmb->libk", self.Lc_jet, self.Gc_jet, order=t1.order)
        tail = jet_einsum("limu,mubk->libk", self.Cc_jet, self.tor_R2_jet)
        return t1 + t2 - t3 + tail

    @cached_property
    def cur_R3_jet(self) -> Jet:
        """R^l_i j k; axes [l,i,j,k]."""
        dL = self.delta_x(self.Lc_jet)  # [l,i,j,k]
        quad = jet_einsum("mij,lmk->lijk", self.Lc_jet, self.Lc_jet, order=dL.order)
        anti = dL + quad
        anti = anti - jet_linear("lijk->likj", anti)
        tail = jet_einsum("limu,mujk->lijk", self.Cc_jet, self.tor_R3_jet)
        return anti + tail

    @cached_property
    def cur_P1_jet(self) -> Jet:
        """P^l(g)_i b (k) = dG^l_ib/dxs^k_g - C^l(g)_i(k)/b
        + C^l(mu)_i(m) P^(m)(g)_(mu)b(k); axes [l,i,b,k,g]."""
        dG = self.ddxs(self.Gc_jet)  # [l,i,b,k,g]
        Ccov = self.shared(Frame.cov_t, self.Cc_jet, (S_UP, S_DN, V_DN))  # [l,i,k,g,b]
        t2 = jet_linear("likgb->libkg", Ccov)
        t3 = jet_einsum("limu,mubkg->libkg", self.Cc_jet, self.tor_P2_jet)
        return dG - t2 + t3

    @cached_property
    def cur_P2_jet(self) -> Jet:
        """P^l(g)_ij(k) = dL^l_ij/dxs^k_g - C^l(g)_i(k)|j
        + C^l(mu)_i(m) P^(m)(g)_(mu)j(k); axes [l,i,j,k,g]."""
        dL = self.ddxs(self.Lc_jet)  # [l,i,j,k,g]
        Ccov = self.shared(Frame.cov_s, self.Cc_jet, (S_UP, S_DN, V_DN))  # [l,i,k,g,j]
        t2 = jet_linear("likgj->lijkg", Ccov)
        t3 = jet_einsum("limu,mujkg->lijkg", self.Cc_jet, self.tor_P3_jet)
        return dL - t2 + t3

    @cached_property
    def cur_S_jet(self) -> Jet:
        """S^l(b)(g)_i(j)(k); axes [l,i,j,b,k,g]."""
        dC = self.ddxs(self.Cc_jet)  # [l,i,j,b,k,g]
        quad = jet_einsum("mijb,lmkg->lijbkg", self.Cc_jet, self.Cc_jet, order=dC.order)
        anti = dC + quad
        return anti - jet_linear("lijbkg->likgjb", anti)

    # -- Ricci and scalars ----------------------------------------------------

    @cached_property
    def ricci_H_jet(self) -> Jet:
        """H_ab = H^m_abm."""
        return jet_linear("mabm->ab", self.cur_H_jet)

    @cached_property
    def ricci_P1_jet(self) -> Jet:
        """P^(a)_i(j) = -P^m(a)_im(j); axes [i,j,a]."""
        return -jet_linear("mimja->ija", self.cur_P2_jet)

    @cached_property
    def ricci_P2_jet(self) -> Jet:
        """P^(a)_(i)j = P^m(a)_ij(m); axes [i,a,j]."""
        return jet_linear("mijma->iaj", self.cur_P2_jet)

    @cached_property
    def ricci_P3_jet(self) -> Jet:
        """P^(a)_(i)b = P^m(a)_ib(m); axes [i,a,b]."""
        return jet_linear("mibma->iab", self.cur_P1_jet)

    @cached_property
    def ricci_S_jet(self) -> Jet:
        """S^(a)(b)_(i)(j) = S^m(b)(a)_i(j)(m); axes [i,a,j,b]."""
        return jet_linear("mijbma->iajb", self.cur_S_jet)

    @cached_property
    def ricci_Rmt_jet(self) -> Jet:
        """R_ia = R^m_iam; axes [i,a]."""
        return jet_linear("miam->ia", self.cur_R2_jet)

    @cached_property
    def ricci_Rmm_jet(self) -> Jet:
        """R_ij = R^m_ijm; axes [i,j]."""
        return jet_linear("mijm->ij", self.cur_R3_jet)

    @cached_property
    def scalar_H_jet(self) -> Jet:
        B = self.ricci_H_jet
        return jet_linear("aa->", jet_einsum("ab,bc->ac", self.inverse("h", B.order), B))

    @cached_property
    def scalar_R_jet(self) -> Jet:
        B = self.ricci_Rmm_jet
        return jet_linear("ii->", jet_einsum("ij,jk->ik", self.inverse("g", B.order), B))

    @cached_property
    def scalar_S_jet(self) -> Jet:
        B = jet_einsum("ab,iajb->ij", self.h_jet, self.ricci_S_jet)
        return jet_linear("ii->", jet_einsum("ij,jk->ik", self.inverse("g", B.order), B))


# --------------------------------------------------------------------------
# result bundles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CartanCoefficients:
    """Htc[g,a,b] = H^g_ab; Gc[k,j,g] = G^k_jg; Lc[i,j,k] = L^i_jk;
    Cc[i,j,k,g] = C^i(g)_j(k)."""

    Htc: np.ndarray
    Gc: np.ndarray
    Lc: np.ndarray
    Cc: np.ndarray


@dataclass(frozen=True)
class TorsionSet:
    """The eight torsion blocks.

    T[m,a,j] = T^m_aj; P1[m,i,j,b] = P^m(b)_i(j); P2[m,mu,a,j,b] =
    P^(m)(b)_(mu)a(j); P3[m,mu,i,j,b] = P^(m)(b)_(mu)i(j); R1[m,mu,a,b] =
    R^(m)_(mu)ab; R2[m,mu,a,j] = R^(m)_(mu)aj; R3[m,mu,i,j] = R^(m)_(mu)ij;
    S[m,mu,i,a,j,b] = S^(m)(a)(b)_(mu)(i)(j).
    """

    T: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    P3: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    R3: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class CurvatureSet:
    """The seven effective curvature blocks.

    H[a,e,b,g] = H^a_ebg; R1[l,i,b,g] = R^l_ibg; R2[l,i,b,k] = R^l_ibk;
    R3[l,i,j,k] = R^l_ijk; P1[l,i,b,k,g] = P^l(g)_ib(k); P2[l,i,j,k,g] =
    P^l(g)_ij(k); S[l,i,j,b,k,g] = S^l(b)(g)_i(j)(k).

    The remaining table entries are delta-weighted copies of these and are
    not stored.
    """

    H: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    R3: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class RicciSet:
    """Ricci contractions.

    H[a,b] = H_ab; P1[i,j,a] = P^(a)_i(j) (carries the defining minus sign);
    P2[i,a,j] = P^(a)_(i)j; P3[i,a,b] = P^(a)_(i)b; S[i,a,j,b] =
    S^(a)(b)_(i)(j); R_mt[i,a] = R_ia; R_mm[i,j] = R_ij.
    """

    H: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    P3: np.ndarray
    S: np.ndarray
    R_mt: np.ndarray
    R_mm: np.ndarray


@dataclass(frozen=True)
class ScalarSet:
    """H = h^ab H_ab; R = g^ij R_ij; S = h_ab g^ij S^(a)(b)_(i)(j);
    total = H + R + S."""

    H: float
    R: float
    S: float
    total: float


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the Kronecker h-regularity probe."""

    max_deviation: float
    witness: object  # first JetPoint reaching max_deviation, or None
    ghats: tuple     # extracted ghat (n, n) per sample point


@dataclass(frozen=True)
class TorsionFreeVerdict:
    """Outcome of the spatial-NLC torsion-freeness probe."""

    max_violation: float
    witness: object  # (JetPoint, indices) of the first maximum, or None


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def temporal_christoffel_and_M(ctx: GeometryContext, pt: JetPoint):
    """(H^g_ab, M^(i)_(a)b) of the canonical temporal nonlinear connection."""
    fr = frame(ctx, pt, 1)
    return fr.Htc_jet.value[0].copy(), fr.M_jet.value[0].copy()


def spatial_nlc(ctx: GeometryContext, pt: JetPoint):
    """N^(i)_(a)j values at pt, axes [i,a,j]."""
    return frame(ctx, pt, 1).N_jet.value[0].copy()


def _gate(ctx: GeometryContext, order: int, why: str):
    """The derivative-budget rule (module docstring): ``why`` reads jets of
    ``order``, one more on a Lagrangian-derived space."""
    if isinstance(ctx.g_source, FromLagrangian):
        order += 1
        why += " of a Lagrangian-derived space"
    if MAX_ORDER < order:
        raise OrderExceededError(
            f"{why} needs a derivative budget of at least {order}; "
            f"the context allows {MAX_ORDER}"
        )


def cartan_connection(ctx: GeometryContext, pt: JetPoint) -> CartanCoefficients:
    """The four coefficient families of the Cartan canonical connection."""
    fr = frame(ctx, pt, 1)
    return CartanCoefficients(
        Htc=fr.Htc_jet.value[0].copy(),
        Gc=fr.Gc_jet.value[0].copy(),
        Lc=fr.Lc_jet.value[0].copy(),
        Cc=fr.Cc_jet.value[0].copy(),
    )


def torsion_set(ctx: GeometryContext, pt: JetPoint) -> TorsionSet:
    """All eight torsion blocks of the Cartan canonical connection."""
    fr = frame(ctx, pt, 2)
    return TorsionSet(
        T=fr.tor_T_jet.value[0].copy(),
        P1=fr.Cc_jet.value[0].copy(),
        P2=fr.tor_P2_jet.value[0].copy(),
        P3=fr.tor_P3_jet.value[0].copy(),
        R1=fr.tor_R1_jet.value[0].copy(),
        R2=fr.tor_R2_jet.value[0].copy(),
        R3=fr.tor_R3_jet.value[0].copy(),
        S=fr.tor_S(0).value[0].copy(),
    )


def curvature_set(ctx: GeometryContext, pt: JetPoint) -> CurvatureSet:
    """The seven effective curvature blocks."""
    fr = frame(ctx, pt, 2)
    return CurvatureSet(
        H=fr.cur_H_jet.value[0].copy(),
        R1=fr.cur_R1_jet.value[0].copy(),
        R2=fr.cur_R2_jet.value[0].copy(),
        R3=fr.cur_R3_jet.value[0].copy(),
        P1=fr.cur_P1_jet.value[0].copy(),
        P2=fr.cur_P2_jet.value[0].copy(),
        S=fr.cur_S_jet.value[0].copy(),
    )


def ricci_and_scalars(ctx: GeometryContext, pt: JetPoint):
    """Ricci contractions and the three curvature scalars."""
    fr = frame(ctx, pt, 2)
    ric = RicciSet(
        H=fr.ricci_H_jet.value[0].copy(),
        P1=fr.ricci_P1_jet.value[0].copy(),
        P2=fr.ricci_P2_jet.value[0].copy(),
        P3=fr.ricci_P3_jet.value[0].copy(),
        S=fr.ricci_S_jet.value[0].copy(),
        R_mt=fr.ricci_Rmt_jet.value[0].copy(),
        R_mm=fr.ricci_Rmm_jet.value[0].copy(),
    )
    H = float(fr.scalar_H_jet.value[0])
    R = float(fr.scalar_R_jet.value[0])
    S = float(fr.scalar_S_jet.value[0])
    return ric, ScalarSet(H=H, R=R, S=S, total=H + R + S)


def kronecker_regularity_check(ctx, pts, lagrangian=None) -> RegularityVerdict:
    """Probe whether a Lagrangian's half-Hessian splits as h^ab * ghat.

    For each sample point the half-Hessian blocks B^(a)(b) (n x n) are read
    off the point's frame, ghat = (1/p) h_ab B^(a)(b) extracted, and the
    residual max |B^(a)(b) - h^ab ghat| measured (scaled by the block
    magnitude).  The Lagrangian is ``lagrangian`` if given, else
    the context's own (whose half-Hessian its g already holds), else, on a
    direct metric, the absolute energy E = h^mn g_ij xs^i_m xs^j_n.  g is
    read there without the frame's symmetry and signature checks.  The
    points are read block by block (:func:`sweep`).
    """
    return regularity_verdict(pts, sweep(
        partial(kronecker_deviation_at, lagrangian=lagrangian), ctx, pts, 2))


def kronecker_deviation_at(ctx, pt, lagrangian=None):
    """(scaled max |B^(a)(b) - h^ab ghat|, ghat) at one point, or the list
    of them over a block of points; see :func:`kronecker_regularity_check`."""
    if lagrangian is not None:
        fr = frame(ctx, pt, 0)
        B = fr.half_hessian(fr.eval_scalar(lagrangian, 2))
    elif isinstance(ctx.g_source, FromLagrangian):
        fr = frame(ctx, pt, 0)
        B = fr.vertical_half_hessian
    else:
        fr = frame(ctx, pt, 2)
        E = jet_einsum("mn,am->an", fr.inverse("h", fr.order), fr.xs_jet)
        E = jet_einsum("an,ab->bn", E, fr.eval_grid(ctx.g_source.entries))
        B = fr.half_hessian(jet_einsum("bn,bn->", E, fr.xs_jet))
    out = []
    for B, hval, hinv in fr.values(B, fr.h_jet, fr.inverse("h", 0)):  # B[i,mu,j,nu]
        ghat = np.einsum("mn,imjn->ij", hval, B) / ctx.p
        recon = np.einsum("mn,ij->imjn", hinv, ghat)
        scale = max(1.0, float(np.max(np.abs(B))))
        out.append((float(np.max(np.abs(B - recon))) / scale, ghat))
    return _each(pt, out)


def _first_max(values, witnesses) -> tuple:
    """(the largest of ``values``, the witness of the first value to reach
    it); the witness is None when no value is above 0."""
    worst, witness = 0.0, None
    for v, w in zip(values, witnesses):
        if v > worst:
            worst, witness = v, w
    return worst, witness


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


def _residual_summary(residual: np.ndarray, terms) -> tuple:
    """(max |r|, sum |r|, size, scale) of one point's residual block r and
    its constituent terms: all that :func:`_pooled_stats` reads of the
    point."""
    a = np.abs(residual)
    pt_max = float(a.max()) if a.size else 0.0
    pt_scale = max((float(np.max(np.abs(t))) for t in terms), default=0.0)
    return pt_max, float(a.sum()), a.size, pt_scale


def _pooled_stats(summaries) -> ResidualStats:
    """The stats of one residual block over the points of its per-point
    ``summaries`` (:func:`_residual_summary`), in point order, with the
    components of all points pooled: mean_abs is the sum of |r| over the
    count of components.  No summaries give five zeros."""
    max_abs = sum_abs = max_rel = scale = 0.0
    count = worst_point = 0
    for i, (pt_max, pt_sum, size, pt_scale) in enumerate(summaries):
        max_abs = max(max_abs, pt_max)
        sum_abs += pt_sum
        count += size
        rel = pt_max / max(1.0, pt_scale)
        if rel > max_rel:
            max_rel, worst_point = rel, i
        scale = max(scale, pt_scale)
    return ResidualStats(
        max_abs=max_abs,
        mean_abs=sum_abs / count if count else 0.0,
        max_rel=max_rel,
        scale=scale,
        worst_point=worst_point,
    )


def _point_stats(names, pairs):
    """{name: :class:`ResidualStats`} of one point's (residual, constituent
    terms) value ``pairs``, one per name; None for no pairs."""
    return {nm: _pooled_stats([_residual_summary(res, terms)])
            for nm, (res, terms) in zip(names, pairs)} if pairs else None


def _fold_stats(maps):
    """The {name: stats} map over the points of per-point ``maps``
    (:func:`_point_stats`; None if they are None), in point order: the max
    of max_abs, max_rel and scale, the mean of the points' mean_abs, and
    the first point reaching max_rel."""
    if maps[0] is None:
        return None
    out = {}
    for nm in maps[0]:
        stats = [m[nm] for m in maps]
        rels = [st.max_rel for st in stats]
        out[nm] = ResidualStats(
            max_abs=max(st.max_abs for st in stats),
            mean_abs=float(np.mean([st.mean_abs for st in stats])),
            max_rel=max(rels), scale=max(st.scale for st in stats),
            worst_point=rels.index(max(rels)))
    return out


def regularity_verdict(pts, per_point) -> RegularityVerdict:
    """Fold the per-point ``kronecker_deviation_at`` results, in point
    order."""
    worst, witness = _first_max([dev for dev, _ in per_point], pts)
    return RegularityVerdict(
        max_deviation=worst,
        witness=witness,
        ghats=tuple(ghat for _, ghat in per_point),
    )


def nlc_torsion_free_check(ctx, pts) -> TorsionFreeVerdict:
    """Measure dN^(i)_(a)j/dxs^k_g - dN^(i)_(a)k/dxs^j_g over sample points,
    block by block (:func:`sweep`)."""
    return torsion_free_verdict(pts, sweep(nlc_torsion_at, ctx, pts, 2))


def nlc_torsion_at(ctx, pt):
    """(max |dN/dxs asymmetry|, the entry [i,a,j,k,g] holding it) at one
    point, or the list of them over a block of points; see
    :func:`nlc_torsion_free_check`.  The ``torsion`` check and the Maxwell
    step both read it off the frame-shared :func:`_torsion_probe`."""
    # Christoffel-built N already spends one derivative order, so the
    # xs-gradient of N needs a depth-2 frame.
    return _each(pt, list(frame(ctx, pt, 2).shared(_torsion_probe)))


def _torsion_probe(fr) -> tuple:
    """:func:`nlc_torsion_at` at each point of the frame ``fr``, as a
    tuple; read through ``fr.shared``."""
    out = []
    for (dN,) in fr.values(fr.ddxs(fr.N_jet)):  # [i,a,j,k,g]
        viol = np.abs(dN - np.transpose(dN, (0, 1, 3, 2, 4)))
        idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
        out.append((float(np.max(viol)), tuple(int(v) for v in idx)))
    return tuple(out)


def torsion_free_verdict(pts, per_point) -> TorsionFreeVerdict:
    """Fold the per-point ``nlc_torsion_at`` results, in point order; the
    witness carries the point's entry."""
    worst, witness = _first_max(
        [dev for dev, _ in per_point],
        [(pt, idx) for pt, (_, idx) in zip(pts, per_point)],
    )
    return TorsionFreeVerdict(max_violation=worst, witness=witness)


def metricity_residuals(ctx: GeometryContext, pt):
    """Max-abs covariant derivatives of both metrics; all six should vanish.
    One map at a point, or the list of them over a block of points."""
    fr = frame(ctx, pt, 2)
    # only values are read, so the metrics enter at order 1
    g, g_slots = fr.g_jet.truncated(1), (S_DN, S_DN)
    h, h_slots = fr.h_jet.truncated(1), (T_DN, T_DN)
    names = ("g_spatial", "g_vertical", "h_temporal", "h_spatial",
             "h_vertical", "g_temporal")
    blocks = (fr.cov_s(g, g_slots), fr.cov_v(g, g_slots), fr.cov_t(h, h_slots),
              fr.cov_s(h, h_slots), fr.cov_v(h, h_slots), fr.cov_t(g, g_slots))
    return _each(pt, [{nm: float(np.max(np.abs(v))) for nm, v in zip(names, vals)}
                      for vals in fr.values(*blocks)])


def curvature_antisymmetry_residuals(ctx: GeometryContext, pt):
    """The seven lowered-antisymmetry identities; max |sym part| each.
    One map at a point, or the list of them over a block of points.

    Lower the upper index with the matching metric, then the sum of the
    tensor and its first-two-index swap must vanish.
    """
    fr = frame(ctx, pt, 2)

    def anti(lowered, perm):
        return float(np.max(np.abs(lowered + np.transpose(lowered, perm))))

    out = []
    for h, g, H, R1, R2, R3, P1, P2, S in fr.values(
            fr.h_jet, fr.g_jet, fr.cur_H_jet, fr.cur_R1_jet, fr.cur_R2_jet,
            fr.cur_R3_jet, fr.cur_P1_jet, fr.cur_P2_jet, fr.cur_S_jet):
        out.append({
            "H_tt": anti(np.einsum("bm,magd->abgd", h, H), (1, 0, 2, 3)),
            "R_tt": anti(np.einsum("jm,mibg->ijbg", g, R1), (1, 0, 2, 3)),
            "R_tm": anti(np.einsum("jm,mibk->ijbk", g, R2), (1, 0, 2, 3)),
            "R_mm": anti(np.einsum("jm,mikl->ijkl", g, R3), (1, 0, 2, 3)),
            "P_vt": anti(np.einsum("jm,mibkg->ijbkg", g, P1), (1, 0, 2, 3, 4)),
            "P_vm": anti(np.einsum("jm,mikld->ijkld", g, P2), (1, 0, 2, 3, 4)),
            "S_vv": anti(np.einsum("jm,mikgld->ijkgld", g, S), (1, 0, 2, 3, 4, 5)),
        })
    return _each(pt, out)


# --------------------------------------------------------------------------
# sampling (identities are pointwise; boxes keep fields in smooth regimes)
# --------------------------------------------------------------------------

def _metric_values(ctx, pts) -> list:
    """The values (h, g) at each of ``pts``, off their order-0 frame, which
    the next frame replaces; g is held to no signature."""
    fr = frame(ctx, pts, 0)
    return fr.values(fr.h_jet, fr.symmetric_g())


def sample_points(
    ctx: GeometryContext,
    count: int,
    seed: int,
    box_t=(-1.0, 1.0),
    box_x=(-1.0, 1.0),
    box_xs=(-1.0, 1.0),
    cond_limit=1e8,
):
    """Draw points uniformly from coordinate boxes, rejecting near-singular
    metrics (condition number above ``cond_limit``) and field-domain
    violations.  Raises :class:`ConfigError` naming the boxes and counting
    each kind of rejection when the try budget runs out.  Only accepted
    points record or assert the metric signature, which ``ctx`` keeps
    until :meth:`GeometryContext.forget_run`.  The draws are made one
    block at a time, one draw per point still wanted, and h and g are read
    off one order-0 frame of the block, by the rule of
    :func:`_block_records`, so each draw is tried, in draw order, as it
    would be alone: a draw that holds a domain error is rejected, and any
    other error a draw holds is raised.  No draw inverts a metric: a
    singular h or g is rejected as ill-conditioned."""
    rng = np.random.default_rng(seed)
    p, n = ctx.p, ctx.n
    pts = []
    tries = 0
    ill_conditioned = 0
    budget = max(1000, 50 * count)
    while len(pts) < count:
        if tries >= budget:
            rejected = budget - len(pts)
            raise ConfigError(
                f"could not sample {count} admissible points in {budget} tries "
                f"({len(pts)} found) from the boxes t {tuple(box_t)}, "
                f"x {tuple(box_x)}, xs {tuple(box_xs)}: "
                f"{rejected - ill_conditioned} draws left a field's domain and "
                f"{ill_conditioned} had a metric with condition number above "
                f"{cond_limit:g}"
            )
        # one draw per point still wanted, evaluated as one block
        block = [JetPoint.of(
            rng.uniform(box_t[0], box_t[1], size=p),
            rng.uniform(box_x[0], box_x[1], size=n),
            rng.uniform(box_xs[0], box_xs[1], size=(n, p)),
        ) for _ in range(min(count - len(pts), budget - tries))]
        for pt, rec in zip(block, _block_records(_metric_values, ctx, block)):
            tries += 1
            if isinstance(rec, (EvalDomainError, DerivativeDomainError,
                                FieldDomainError)):
                continue  # the draw left a field's domain
            if isinstance(rec, JetlagError):
                raise rec
            hval, gval = rec
            if np.linalg.cond(hval) > cond_limit or np.linalg.cond(gval) > cond_limit:
                ill_conditioned += 1
                continue
            ctx._check_signature(pt, hval, gval)
            pts.append(pt)
    return pts
