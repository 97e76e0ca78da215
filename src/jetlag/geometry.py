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

A check over many points folds the record of a block-wide step, which
:func:`sweep` takes block by block and concatenates as ``jetlag run`` does.

Index layout convention used for every stored block: axes follow the
symbol's logical indices left to right, a bound vertical pair contributing
(spatial, temporal) adjacent axes.  All indices are 0-based in arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .diff_engine import (
    BatchDiverged,
    Jet,
    JetPoint,
    ScalarField,
    _LETTERS,
    _pointed,
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
# 2 MiB, which puts the benchmark's (3,3) order-3 runs in blocks of 2
# points, and runs on its (2,2) optic space in blocks of up to 17 where
# they read frames of orders 2 and 3, of up to 83 where they read order 2
# alone.  The compact field-grid rows of one row block keep within it too
# (:func:`in_row_blocks`).
BLOCK_BYTES = 2 * 1024 * 1024

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
    "in_row_blocks",
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
        """Forget the frames of the block last framed, the rows of the row
        block last held (:meth:`hold_rows`) and the recorded signature.  A
        run starts and ends with this, and :func:`sweep` ends with it, so
        no run inherits any of them."""
        self.forget_frames()
        self._rows = None  # the _RowBlock held
        self._signature = None  # (h signs, g signs) at the first point read

    def forget_frames(self):
        """Forget the frames of the block last framed (:func:`frame`)."""
        self._framed = None  # the key of the block last framed
        self._frames = {}  # its frames, by order

    def hold_rows(self, pts, depth: int):
        """Hold the rows of the row block ``pts``, whose deepest frames are
        of order ``depth``, until the next row block or :meth:`forget_run`,
        and drop the frames of the block last framed, which the next frame
        block replaces: the first reader of its points that asks for a
        field grid runs the grid once over all of them, a grid of the
        context at the order its deepest frames read it, and every frame of
        its points takes its own points' rows, truncated to the order it
        asks for (:class:`_RowBlock`, :meth:`Frame._eval_fields`)."""
        self.forget_frames()
        self._rows = _RowBlock(self, pts, depth)

    def held_rows(self, grid, pts, order: int):
        """The compact rows (:meth:`~jetlag.field_expr.FieldGrid.compact`)
        of ``grid`` at ``pts`` to ``order`` from the row block held
        (:meth:`hold_rows`), as a frame of ``pts`` takes them
        (:meth:`_RowBlock.rows`); None where no row block holding every one
        of ``pts`` is held or it leaves the grid to its readers."""
        return self._rows and self._rows.rows(grid, pts, order)

    def row_bytes(self, order: int) -> int:
        """The bytes of one point's compact rows
        (:meth:`~jetlag.field_expr.FieldGrid.row_bytes`) of the grids that
        a frame of ``order`` runs (:meth:`_frame_grids`)."""
        return sum(grid.row_bytes((self.p, self.n), k)
                   for grid, k in self._frame_grids(order))

    def _frame_grids(self, order: int) -> list:
        """(grid, the order it runs at) of each field grid that a frame of
        ``order`` runs: h, g's entries or L at ``order`` + 2, and phi's or
        N's entries, at ``order`` but for L."""
        grids = [(self.h.flat, order)]
        if isinstance(self.g_source, DirectMetric):
            grids.append((self.g_source.entries.flat, order))
        else:
            grids.append(([self.g_source.L], order + 2))
        if isinstance(self.nlc, ChristoffelOfPhi):
            grids.append((self.nlc.phi.flat, order))
        elif isinstance(self.nlc, UserGiven):
            grids.append((self.nlc.entries.flat, order))
        return [(FieldGrid.of(list(fields)), k) for fields, k in grids]

    # signature bookkeeping (D-tensor metrics must keep constant signature)

    def record_signature(self, pts, order: int):
        """Unless a signature is recorded, record it off g of the frame of
        ``order`` at the block ``pts``, else of each point's frame in turn
        until one records it; an error is left to the readers of its
        points.  ``jetlag run`` does this on each block before any check
        steps, at the order its deepest checks read, so that no check
        decides the signature by the point it reads g at first: a step
        that fails at a point before it reads g would leave it to a later
        point."""
        if self._signature is not None:
            return
        for block in (pts, *([pt] for pt in pts)):
            try:
                frame(self, block, order).g_jet
            except (JetlagError, BatchDiverged):
                pass
            if self._signature is not None:
                return

    def _check_signature(self, pts, hs, gs):
        """Hold the eigenvalue signs of h and g at each of ``pts``, whose
        values ``hs`` and ``gs`` are stacked along a leading point axis, to
        the recorded signature, in point order: the first point records it
        if none is, and the first point whose signs differ raises, as its
        witness.  The eigenvalues come from one stacked ``eigvalsh`` per
        metric."""
        h_signs = np.sign(np.linalg.eigvalsh(hs)).tolist()
        g_signs = np.sign(np.linalg.eigvalsh(gs)).tolist()
        for pt, h_row, g_row in zip(pts, h_signs, g_signs):
            signs = (tuple(int(v) for v in h_row), tuple(int(v) for v in g_row))
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

# The blocks a frame keeps at each of its points, by the name it keeps each
# under (a cached property, an :meth:`Frame._upto` key or the function of a
# :meth:`Frame.shared` block): its groups of (kept-order rule, the axes of
# each jet or value array the group holds: t one of p temporal, s one of n
# spatial indices), as the block's builder declares them (:func:`_kept`).
_KEPT = {}


def _kept(rule, *axes, key=None):
    """Declare that a frame of order k on ctx keeps the block ``key``
    (default: the decorated function's name) at order ``rule(ctx, k)``,
    none of it below order 0, as one array of each of ``axes``; each
    declaration of a block adds a group.  The function is returned as it
    is."""
    def declare(fn):
        _KEPT.setdefault(key or fn.__name__, []).append((rule, axes))
        return fn
    return declare


def _kept_block(rule, *axes):
    """A :class:`Frame` block: a cached property declared by :func:`_kept`."""
    return lambda fn: cached_property(_kept(rule, *axes)(fn))


# kept-order rules: (ctx, k) -> the order a frame of order k on ctx keeps a
# block at

def _metric_order(ctx, k: int) -> int:
    """h, g and phi: one below the frame (:attr:`Frame.kept_order`)."""
    return max(0, k - 1)


def _less(j: int, user_n=False):
    """``j`` below the frame; with ``user_n`` (N and the blocks that
    differentiate N alone), one above that on a user-given N, which
    :attr:`Frame.N_jet` keeps at the frame's own order."""
    return lambda ctx, k: k - j + (user_n and isinstance(ctx.nlc, UserGiven))


def _on(kind, rule):
    """``rule`` where the g source or the spatial connection is a ``kind``;
    none kept elsewhere."""
    return lambda ctx, k: (rule(ctx, k) if isinstance(ctx.g_source, kind)
                           or isinstance(ctx.nlc, kind) else -1)


def _order2(j: int):
    """At ``j`` on frames of order 2, whose readers alone read the block
    (em_field's and the torsion and curvature sets)."""
    return lambda ctx, k: j if k == 2 else -1


def _values(ctx, k: int) -> int:
    """At order 0 on frames of order 2 or more."""
    return min(k - 2, 0)


def frame_bytes(ctx, order: int) -> int:
    """The bytes that a frame of ``order`` on ``ctx`` keeps at each of its
    points, as every reader of that order reads it: each group of each
    block declared (:func:`_kept`), as jets of doubles at the order its rule
    keeps it at, and the compact rows of its field grids.  Importing
    jetlag imports every module that declares a block."""
    N = coord_count(ctx.p, ctx.n)
    dim = {"t": ctx.p, "s": ctx.n}
    elements = 0
    for groups in _KEPT.values():
        for rule, shapes in groups:
            elements += (sum(N ** j for j in range(rule(ctx, order) + 1))
                         * sum(math.prod(dim[a] for a in axes) for axes in shapes))
    return 8 * elements + ctx.row_bytes(order)


def block_size(ctx, orders) -> int:
    """How many points one block spans on ``ctx`` when it builds a frame
    of each of ``orders``: as many as keep the :func:`frame_bytes` of
    those frames within :data:`BLOCK_BYTES`, and at least one."""
    return max(1, BLOCK_BYTES // sum(frame_bytes(ctx, k) for k in set(orders)))


def blocks(pts, size: int) -> list:
    """``pts`` cut, in order, into the fewest blocks of at most ``size``
    points, whose sizes differ by one at most."""
    count = -(-len(pts) // size)
    return [pts[k * len(pts) // count:(k + 1) * len(pts) // count]
            for k in range(count)]


class _RowBlock:
    """The points of a row block (:meth:`GeometryContext.hold_rows`) and,
    by (grid, order), the compact jet
    (:meth:`~jetlag.field_expr.FieldGrid.compact`) of the grid's one run
    at that order over all of them, or None where each frame block runs
    the grid itself: a grid that holds a field that is not an
    :class:`~jetlag.field_expr.ExprField`, or rows that would take the held
    rows past :data:`BLOCK_BYTES`.

    Each of the context's grids (:meth:`GeometryContext._frame_grids`)
    runs at the order that the row block's deepest frames, of order
    ``depth``, read it at, and every frame of a lower order takes those
    rows truncated to the order it asks for: a Taylor coefficient reads
    only the coefficients below it, so they are the rows of a run at that
    order, bit for bit, and the grid runs once per row block.  Any other
    grid, and a grid whose powers' exponents read coordinates (which
    :attr:`~jetlag.field_expr.FieldGrid.truncates` excludes), runs at the
    order asked.  A run that raises keeps its error
    (held, :func:`_held`): a frame block of all the row block's points
    that asks at the run's own order meets it again without a second run;
    each smaller frame block, each point, and each frame that asks below
    the run's order, which a deeper run's error need not reach, runs the
    grid at its own order and meets its own."""

    def __init__(self, ctx, pts, depth: int):
        self.pts = tuple(pts)
        self.dims = (ctx.p, ctx.n)
        self.deepest = dict(ctx._frame_grids(depth))  # {grid: its run's order}
        self.row = {pt.key(): k for k, pt in enumerate(self.pts)}
        self.held = {}
        self.nbytes = 0

    def rows(self, grid, pts, order):
        """The rows of ``pts`` of the grid at ``order``: a compact jet of
        component shape (len(pts), F), a view of the run's where ``pts``
        are a run of the row block's points; None where ``pts`` are not all
        in the row block or the frame block runs the grid itself.  Raises
        the run's error where it raised at ``order`` and ``pts`` are all
        the row block's points."""
        at = [self.row.get(pt.key()) for pt in pts]
        if None in at:
            return None
        if at == list(range(at[0], at[0] + len(at))):
            at = slice(at[0], at[0] + len(at))  # so a view of the run's rows
        run = max(order, self.deepest.get(grid, order)) if grid.truncates else order
        if (grid, run) not in self.held:
            self.held[grid, run] = self._run(grid, run)
        jet = self.held[grid, run]
        if isinstance(jet, Exception):
            if run == order and len(pts) == len(self.pts):
                raise jet
            return None
        return None if jet is None else jet.truncated(order)[at]

    def _run(self, grid, order):
        nbytes = grid.row_bytes(self.dims, order) * len(self.pts)
        if not grid.batchable or self.nbytes + nbytes > BLOCK_BYTES:
            return None
        try:
            jet = grid.compact(self.pts, order)
        except (JetlagError, BatchDiverged) as exc:
            return _held(exc)
        self.nbytes += nbytes
        return jet


def in_row_blocks(ctx, frame_blocks, order: int):
    """Yield ``frame_blocks`` (:func:`blocks`) in order, cut into row
    blocks: runs of as many whole frame blocks as keep one point's compact
    rows of the context's grids at ``order``, the deepest frame order the
    run reads (:meth:`GeometryContext.row_bytes`), within
    :data:`BLOCK_BYTES`, one frame block at least.  While a row block's
    frame blocks are yielded, the context holds its rows
    (:meth:`GeometryContext.hold_rows`), so each of the context's grids
    runs once over the row block, at the order the frames of ``order``
    read it, and frames of a lower order take those rows truncated."""
    size = BLOCK_BYTES // ctx.row_bytes(order)
    runs = []
    for block in frame_blocks:
        if runs and sum(map(len, runs[-1])) + len(block) <= size:
            runs[-1].append(block)
        else:
            runs.append([block])
    for run in runs:
        ctx.hold_rows([pt for block in run for pt in block], order)
        yield from run


def _block_records(step, ctx, block) -> tuple:
    """(record, held): the record of ``step`` at the points of ``block``
    from one call over the block, and no errors held; where that raises or
    its points branch apart, the :func:`_concat` of one call per point,
    and the errors held by point, {index in ``block``: error}.  A point
    whose call raises a :class:`JetlagError` holds that error, its witness
    named and the traceback of every error in its chain dropped, so that
    it keeps none of the point's frames alive, and has no row.  So no
    JetlagError leaves here: each caller decides what a held error means."""
    if len(block) > 1:
        try:
            return step(ctx, block), {}
        except (JetlagError, BatchDiverged) as exc:
            # each point alone gives its own row or error; the block's
            # error, which a row block may hold (_RowBlock), keeps none of
            # the block's frames
            _held(exc)
    rows, held = [], {}
    for k, pt in enumerate(block):
        try:
            rows.append(step(ctx, [pt]))
        except JetlagError as exc:
            held[k] = _held(name_witness(exc, pt))
    return _concat(rows), held


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


def _raise_held(parts):
    """The record of the points of the :func:`_block_records` ``parts`` of
    consecutive blocks, concatenated in point order (:func:`_concat`),
    once the first error a point holds, in point order, is raised."""
    for _, held in parts:
        if held:
            raise held[min(held)]
    return _concat([record for record, _ in parts])


def _columns(fn, records):
    """One record of ``records``, records of one shape: a map, a tuple or a
    dataclass of records, or a column (a list or an array, an entry per
    point), which ``fn`` makes of the list of the records' columns; any
    other value is a constant, the first record's.  None records are
    skipped, and none left give None."""
    records = [r for r in records if r is not None]
    if not records:
        return None
    first = records[0]
    if isinstance(first, dict):
        return {nm: _columns(fn, [r[nm] for r in records]) for nm in first}
    if isinstance(first, tuple):
        return tuple(_columns(fn, list(cols)) for cols in zip(*records))
    if is_dataclass(first):
        return replace(first, **{f.name: _columns(fn, [getattr(r, f.name) for r in records])
                                 for f in fields(first)})
    if isinstance(first, (list, np.ndarray)):
        return fn(records)
    return first


def _concat(records):
    """The record of the points of ``records``, the records of runs of
    points in point order, each column concatenated (:func:`_columns`);
    one record is returned as it is."""
    if len(records) == 1:
        return records[0]
    return _columns(lambda cols: np.concatenate(cols) if isinstance(cols[0], np.ndarray)
                    else [v for col in cols for v in col], records)


def _each(pts, record):
    """A block's ``record``, or at a :class:`JetPoint` its one row."""
    if isinstance(pts, JetPoint):
        return _columns(lambda cols: cols[0][0], [record])
    return record


def sweep(step, ctx, pts, order: int):
    """The record of ``step`` (``(ctx, block) -> record``) at ``pts``, as
    ``jetlag run`` takes it: :func:`_block_records` of each of the
    :func:`blocks` of at most :func:`block_size` points that frames of
    ``order`` are charged for, in the row blocks of :func:`in_row_blocks`,
    so a fold of it has the run's bits, errors and witnesses
    (:func:`_raise_held`).  Like a run, it ends with ``ctx.forget_run()``."""
    parts = []
    try:
        for block in in_row_blocks(ctx, blocks(pts, block_size(ctx, [order])), order):
            parts.append(_block_records(step, ctx, block))
    finally:
        ctx.forget_run()
    return _raise_held(parts)


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
    order-k frame is the order-3 frame's block truncated, bit for bit, in
    shape, strides and bytes.  So a frame created while the context holds
    a deeper frame of the same points takes what that frame has built
    (:meth:`Frame._take_built`), and builds only the rest; ``jetlag run``
    steps a block's deepest checks first, so that its shallower frames
    find the most.  Each product is built only to the order its result
    keeps, and each metric inverse and the S-torsion only to the order
    their readers read.  A frame keeps h, g and phi one order below its
    own, and the compact rows of its field grids, from which the readers
    of a metric's top order expand it anew (:meth:`Frame.metric`);
    :func:`frame_bytes` charges all it keeps, taken or not.  A block of no
    points raises ValueError.
    """
    pts = (pts,) if isinstance(pts, JetPoint) else tuple(pts)
    if not pts:
        raise ValueError("a frame needs at least one point")
    key = tuple(pt.key() for pt in pts)
    if ctx._framed != key:
        ctx._framed, ctx._frames = key, {}
    fr = ctx._frames.get(order)
    if fr is None:
        fr = Frame(ctx, pts, order)
        deepest = max(ctx._frames, default=order)
        if deepest > order:
            fr._take_built(ctx._frames[deepest])
        ctx._frames[order] = fr
    return fr


def _pointed_einsum(spec: str, *ops) -> np.ndarray:
    """``np.einsum(spec)`` of value arrays that carry a frame block's
    leading point axis, over the whole block, each point with the bits of
    its own einsum (:func:`~jetlag.diff_engine._pointed`)."""
    subs, einsum = _pointed(spec, *(op.ndim for op in ops))
    return einsum(subs, *ops)


def _point_max(a: np.ndarray) -> np.ndarray:
    """max |a| over every axis of ``a`` but its leading point axis: one
    reduction over a frame block's values, each point's bits its own, as
    the maximum of a set does not depend on the order it is read in."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


class Frame:
    """Lazy jet pipeline of one (context, block of points, order) triple.

    Every cached property is a Jet whose component axes follow the block's
    logical indices; ``.value`` peels the point values.  The frame of a
    block of B points (:func:`frame`) runs the same pipeline once for all
    of them: every jet carries one leading point axis of size B, a block
    of one point included, which the jet operations recognise as one
    component axis more than their spec names, and each point gets the
    bits it gets alone.  The value reads do too: :meth:`max_abs`,
    :meth:`summaries`, the symmetry and signature checks of the metrics and
    :meth:`direction_independent` each reduce the block's values over every
    axis but the point axis, once per block, into a column of one entry
    per point; a check raises at the first point, in point order, that
    fails it.

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
    (:meth:`eval_grid`), each run once over the row block the context
    holds, at the order its deepest frames read, or else over the frame's
    points (:meth:`_eval_fields`).
    The frame keeps the compact rows of each grid it reads and the metrics
    h, g and phi at :attr:`kept_order`, one below its own: only the
    readers that differentiate a metric at the frame's order read its top
    coefficient, and each takes a fresh expansion of the rows
    (:meth:`metric`), with the code, layout and bits of the kept jet's.
    Each block's builder declares the order it is kept at and its index
    kinds (:func:`_kept`).  A frame that :func:`frame` creates while the
    context holds a deeper frame of its points starts with what that
    frame has built, truncated to those orders (:meth:`_take_built`).
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
        self.kept_order = _metric_order(ctx, order)
        self._shared = {}
        self._built = {}
        self._rows = {}  # the compact rows of each (grid, order) read

    def shared(self, block, *args):
        """``block(self, *args)``, computed on the first call and kept per
        frame.  A jet argument is keyed by identity: pass only jets that the
        frame itself keeps, such as its blocks."""
        key = (block, *args)
        if key not in self._shared:
            self._shared[key] = block(self, *args)
        return self._shared[key]

    def _take_built(self, deeper: "Frame"):
        """Take what ``deeper``, a frame of the same points of a higher
        order, has built, as :meth:`~jetlag.diff_engine.Jet.truncated`
        views at the orders this frame keeps them at, by the rule each
        declares (:func:`_kept`): each cached block but the xs jets, whose
        order is their frame's, and each :meth:`_upto` entry, at most at
        the order it was built to.  Each is the block this frame would
        build, bit for bit (see :func:`frame`).  A taken metric skips this
        frame's symmetry and signature checks, which ``deeper`` ran on the
        same points.  What ``deeper`` has not built, the shared blocks
        (:meth:`shared`) among it, this frame builds itself, and a block
        that raised there raises here as it is built."""
        cached = vars(deeper)
        for name, [(rule, _), *_] in _KEPT.items():
            k = rule(self.ctx, self.order)  # what is taken is declared once
            if name in deeper._built and k >= 0:
                have = deeper._built[name]
                self._built[name] = have.truncated(min(k, have.order))
            elif name in cached and name != "xs_jet" and 0 <= k <= cached[name].order:
                vars(self)[name] = cached[name].truncated(k)

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

    def max_abs(self, jet: Jet) -> list:
        """The column of the largest |value| of ``jet`` at the frame's
        points: one reduction over the block's values (:func:`_point_max`)."""
        return _point_max(jet.value).tolist()

    def summaries(self, pairs) -> list:
        """Per (residual r, constituent terms) pair of jets in ``pairs``,
        the column of its (max |r|, sum |r|, size, scale) summary at the
        frame's points: all that :func:`_pooled_stats` reads of a point,
        scale being the largest |value| among the terms.  Each maximum and
        sum is one reduction over the block's values; a point gets the
        bits it gets alone."""
        B = len(self.pts)
        cols = []
        for res, terms in pairs:
            a = np.abs(res.value)
            axes = tuple(range(1, a.ndim))
            size = a[0].size
            maxes = a.max(axis=axes).tolist() if size else [0.0] * B
            scales = [max(col) for col in zip(*map(self.max_abs, terms))] or [0.0] * B
            cols.append(list(zip(maxes, a.sum(axis=axes).tolist(), [size] * B, scales)))
        return cols

    # -- field evaluation ----------------------------------------------------

    def eval_scalar(self, f: ScalarField, order=None) -> Jet:
        return self._eval_fields([f], order).reshape_components((len(self.pts),))

    def eval_grid(self, grid: np.ndarray, order=None, to=None) -> Jet:
        return self._eval_fields(list(grid.flat), order, to).reshape_components(
            (len(self.pts),) + grid.shape)

    def _eval_fields(self, fields, order, to=None) -> Jet:
        """``fields`` at the frame's B points, as one jet of ``order``
        (default: the frame's) of component shape (B, F), B = 1 included,
        through the context's compiled grid of them (:meth:`FieldGrid.of`),
        seeded only in the coordinates it reads and expanded over all N
        (:meth:`FieldGrid.expand`) up to order ``to`` (default: all of
        it).  Its rows come from the grid's one run over the row block that
        the context holds (:meth:`GeometryContext.hold_rows`), a grid of
        the context at the order the row block's deepest frames read it,
        truncated to ``order`` (:class:`_RowBlock`): a view of the run's
        rows where the frame's points are a run of the row block's.  Where
        there is no row block, or it leaves the grid to each frame block,
        they come from one run over the frame's points at ``order``.  The
        frame keeps them, by (grid, order), so each call after the first
        only expands them.  A block whose grid raises or whose points
        branch apart raises, and its points are then framed alone
        (:class:`~jetlag.diff_engine.BatchDiverged`)."""
        order = self.order if order is None else order
        grid = FieldGrid.of(fields)
        rows = self._rows.get((grid, order))
        if rows is None:
            rows = self.ctx.held_rows(grid, self.pts, order)
            if rows is None:
                rows = grid.compact(self.pts, order)
            self._rows[grid, order] = rows
        return grid.expand(rows if to is None else rows.truncated(to), (self.p, self.n))

    # -- coordinates -------------------------------------------------------

    @_kept_block(lambda ctx, k: 0, "st")  # every frame shares the derivatives
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
        each point, once over the block: the first point that is not
        raises, as its witness."""
        val = jet.value
        scale = np.fmax(1.0, _point_max(val))  # fmax: max(1.0, nan) is 1.0
        bad = _point_max(val - val.swapaxes(1, 2)) > 1e-9 * scale
        if bad.any():
            raise RegularityViolationError(
                f"{what} is not symmetric at this point",
                witness=self.pts[int(bad.argmax())],
            )
        return jet

    def metric(self, which: str, order: int) -> Jet:
        """The metric ``which`` ("h", "g" or "phi") to ``order``: the jet
        the frame keeps (:attr:`h_jet`, :attr:`g_jet`, :attr:`phi_jet`)
        truncated, or, above it, a jet built anew from the frame's rows
        (:meth:`_metric_jet`), which its reader drops once read.  The kept
        jet is read first, so its checks come first."""
        kept = getattr(self, f"{which}_jet")
        if order <= kept.order:
            return kept.truncated(order)
        return self._metric_jet(which, order)

    def _metric_jet(self, which: str, order: int) -> Jet:
        """The metric ``which`` to ``order``, unchecked and built anew on
        each call: h, phi and a direct g expanded from the frame's rows of
        their grids, a Lagrangian-derived g contracted from its half-Hessian
        and h."""
        if which == "h":
            return self.eval_grid(self.ctx.h, to=order)
        if which == "phi":
            if not isinstance(self.ctx.nlc, ChristoffelOfPhi):
                raise ValueError("this context has no fixed spatial metric phi")
            return self.eval_grid(self.ctx.nlc.phi, to=order)
        src = self.ctx.g_source
        if isinstance(src, DirectMetric):
            return self.eval_grid(src.entries, to=order)
        hh = self.vertical_half_hessian
        return jet_einsum("mn,imjn->ij", self.metric("h", order), hh,
                          order=order) * (1.0 / self.p)

    @_kept_block(_metric_order, "tt")
    def h_jet(self) -> Jet:
        """h, checked symmetric, kept at :attr:`kept_order`."""
        return self._symmetric(self._metric_jet("h", self.kept_order),
                               "temporal metric h")

    @_kept_block(_metric_order, "ss")
    def g_jet(self) -> Jet:
        """:meth:`symmetric_g` kept at :attr:`kept_order`, its signature at
        each point held to the context's, once over the block
        (:meth:`GeometryContext._check_signature`)."""
        g = self.symmetric_g(self.kept_order)
        self.ctx._check_signature(self.pts, self.h_jet.value, g.value)
        return g

    def symmetric_g(self, order=None) -> Jet:
        """g at the frame's points to ``order`` (default: the frame's),
        checked symmetric but not held to any signature; built anew on each
        call."""
        order = self.order if order is None else order
        return self._symmetric(self._metric_jet("g", order), "vertical metric g")

    @_kept_block(_on(FromLagrangian, _less(0)), "stst")
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

    @_kept(lambda ctx, k: min(k, MAX_ORDER - 1), "tt", key="h")
    @_kept(_less(1), "ss", key="g")
    @_kept(_on(ChristoffelOfPhi, _less(1)), "ss", key="phi")
    def inverse(self, which: str, order: int) -> Jet:
        """The inverse of the metric ``which`` ("h", "g" or "phi"), built
        to ``order`` only.  h^-1 is built at once to the frame's order, at
        most ``MAX_ORDER - 1``: on a frame of order 2 or less the lowered
        Liouville field reads it at the frame's order after the temporal
        Christoffel form has read it one lower, and on an order-3 frame no
        reader reads it above order 2."""
        top = min(self.order, MAX_ORDER - 1) if which == "h" else order
        return self._upto(which, max(order, top), lambda k: jet_matrix_inverse(
            self.metric(which, k))).truncated(order)

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

    @_kept_block(_less(1), "ttt")
    def Htc_jet(self) -> Jet:
        """Temporal Christoffel H^g_ab of h, axes [g,a,b]."""
        return self._christoffel(self.ddt(self.metric("h", self.order)), "h")

    @_kept_block(_less(1), "stt")
    def M_jet(self) -> Jet:
        """Canonical temporal NLC M^(i)_(a)b = -H^g_ab x^i_g, axes [i,a,b]."""
        return -jet_einsum("gab,ig->iab", self.Htc_jet, self.xs_jet)

    @_kept_block(_on(ChristoffelOfPhi, _metric_order), "ss")
    def phi_jet(self) -> Jet:
        """phi, checked symmetric, kept at :attr:`kept_order`."""
        return self._symmetric(self._metric_jet("phi", self.kept_order),
                               "spatial metric phi")

    @_kept_block(_on(ChristoffelOfPhi, _less(1)), "sss")
    def gamma_phi_jet(self) -> Jet:
        """Christoffel gamma^i_jm of phi, axes [i,j,m]."""
        return self._christoffel(self.ddx(self.metric("phi", self.order)), "phi")

    def direction_independent(self) -> list:
        """Per point of the frame, whether g has no velocity dependence
        there: max |dg/dxs| <= 1e-10 max(1, max |g|), read once over the
        block."""
        src = self.ctx.g_source
        if isinstance(src, DirectMetric) and not any(
                "xs" in f.deps for f in src.entries.flat):
            return [True] * len(self.pts)
        g = self.g_jet.value
        dg = self._dg_dxs()
        return (_point_max(dg) <= 1e-10 * np.fmax(1.0, _point_max(g))).tolist()

    def _dg_dxs(self) -> np.ndarray:
        """The values of dg/dxs at the frame's points, axes [point,i,j,k,g]."""
        return self.ddxs(self.metric("g", min(1, self.order))).value

    def require_direction_independent(self, what: str):
        """Error, at the first point that is not, unless every point of the
        frame is :meth:`direction_independent`."""
        independent = self.direction_independent()
        if all(independent):
            return
        k = independent.index(False)
        dg = np.abs(self._dg_dxs()[k])
        ij = np.unravel_index(int(np.argmax(dg)), dg.shape)
        raise RegularityViolationError(
            f"{what} requires a direction-independent g, but "
            f"dg/dxs at indices {tuple(int(v) for v in ij)} is {float(dg.max()):.3e}",
            witness=self.pts[k],
        )

    @_kept_block(_on(QuadraticCanonical, _less(1)), "sss")
    def gamma_g_jet(self) -> Jet:
        """Generalized Christoffel Gamma^i_jm of g(t,x); direction-independent
        g only."""
        self.require_direction_independent("the generalized Christoffel symbols")
        return self._christoffel(self.ddx(self.metric("g", self.order)), "g")

    @_kept_block(_less(1, user_n=True), "sts")
    def N_jet(self) -> Jet:
        """Spatial NLC N^(i)_(a)j, axes [i,a,j]."""
        nlc = self.ctx.nlc
        if isinstance(nlc, UserGiven):
            return self.eval_grid(nlc.entries)
        if isinstance(nlc, ChristoffelOfPhi):
            return jet_einsum("ijm,ma->iaj", self.gamma_phi_jet, self.xs_jet)
        self.require_direction_independent("the quadratic-canonical connection")
        term1 = jet_einsum("ijm,ma->iaj", self.gamma_g_jet, self.xs_jet)
        dg_t = self.ddt(self.metric("g", self.order))  # [j,m,a]
        term2 = jet_einsum("im,jma->iaj", self.inverse("g", dg_t.order), dg_t) * 0.5
        return term1 + term2

    # -- Cartan canonical connection ------------------------------------------

    @_kept_block(_less(1), "sst")
    def Gc_jet(self) -> Jet:
        """G^k_jg = (g^ki/2) delta g_ij / delta t^g, axes [k,j,g]."""
        dg = self.delta_t(self.metric("g", self.order))  # [i,j,g]
        return jet_einsum("ki,ijg->kjg", self.inverse("g", dg.order), dg) * 0.5

    @_kept_block(_less(1), "sss")
    def Lc_jet(self) -> Jet:
        """L^i_jk, axes [i,j,k]; Christoffel-type with delta/delta x."""
        return self._christoffel(self.delta_x(self.metric("g", self.order)), "g")

    @_kept_block(_less(1), "ssst")
    def Cc_jet(self) -> Jet:
        """C^i(g)_j(k), axes [i,j,k,g]; Christoffel-type with d/dxs."""
        return self._christoffel(self.ddxs(self.metric("g", self.order)), "g")

    # -- generic covariant derivatives on jets ---------------------------------

    def _storage_slots(self, slots):
        out = []
        for s in slots:
            out.extend(s.constituents())
        return tuple(out)

    # The covariant derivatives are charged for what they give the shared
    # calls (:meth:`shared`): C/b (cur_P1_jet, em_field.bianchi_residuals);
    # C|j (cur_P2_jet, bianchi_residuals); on frames of order 2, T|k
    # (bianchi_residuals, em_field.maxwell_at), and Dbar|k and Dbar|^(g)_(k)
    # of the metrical (maxwell_at, em_field._liouville_identities) and of
    # the raw deflections (_liouville_identities).
    @_kept(_less(2), "ssstt")
    def cov_t(self, A: Jet, slots) -> Jet:
        """Temporal covariant derivative /b; appends one temporal axis."""
        return self._cov(A, slots, self.delta_t, ("Htc_jet", "Gc_jet"), 1)

    @_kept(_less(2), "sssts")
    @_kept(_order2(0), "stss", "stts", "stts")
    def cov_s(self, A: Jet, slots) -> Jet:
        """Spatial covariant derivative |k; appends one spatial axis."""
        return self._cov(A, slots, self.delta_x, (None, "Lc_jet"), 1)

    @_kept(_order2(0), "sttst", "sttst")
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

    @_kept_block(_order2(1), "sts")
    def tor_T_jet(self) -> Jet:
        """T^m_bk = -G^m_kb; axes [m,b,k]."""
        return jet_linear("mkb->mbk", self.Gc_jet) * (-1.0)

    @_kept_block(_less(2), "sttst")
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

    @_kept_block(_less(2, user_n=True), "stsst")
    def tor_P3_jet(self) -> Jet:
        """P^(m)(b)_(mu)i(j) = dN^(m)_(mu)i/dxs^j_b - d^b_mu L^m_ji;
        axes [m,mu,i,j,b]."""
        dN = self.ddxs(self.N_jet)  # [m,mu,i,j,b]
        t2 = jet_einsum("mji,ub->muijb", self.Lc_jet, np.eye(self.p), order=dN.order)
        return dN - t2

    @_kept_block(_order2(0), "sttt")
    def tor_R1_jet(self) -> Jet:
        """R^(m)_(mu)ab = delta M^(m)_(mu)a/dt^b - (a<->b); axes [m,mu,a,b]."""
        dM = self.delta_t(self.M_jet)  # [m,mu,a,b]
        return dM - jet_linear("muab->muba", dM)

    @_kept_block(_less(2), "stts")
    def tor_R2_jet(self) -> Jet:
        """R^(m)_(mu)aj = delta M^(m)_(mu)a/dx^j - delta N^(m)_(mu)j/dt^a;
        axes [m,mu,a,j]."""
        dM = self.delta_x(self.M_jet)   # [m,mu,a,j]
        dN = self.delta_t(self.N_jet)   # [m,mu,j,a]
        return dM - jet_linear("muja->muaj", dN)

    @_kept_block(_less(2, user_n=True), "stss")
    def tor_R3_jet(self) -> Jet:
        """R^(m)_(mu)ij = delta N^(m)_(mu)i/dx^j - (i<->j); axes [m,mu,i,j]."""
        dN = self.delta_x(self.N_jet)  # [m,mu,i,j]
        return dN - jet_linear("muij->muji", dN)

    @_kept(_values, "ststst")
    def tor_S(self, order: int) -> Jet:
        """S^(m)(a)(b)_(mu)(i)(j) = d^a_mu C^m(b)_i(j) - d^b_mu C^m(a)_j(i),
        built to ``order`` only; axes [m,mu,i,a,j,b]."""
        def build(k):
            eye = np.eye(self.p)
            return (jet_einsum("mijb,ua->muiajb", self.Cc_jet, eye, order=k)
                    - jet_einsum("mjia,ub->muiajb", self.Cc_jet, eye, order=k))
        return self._upto("tor_S", order, build)

    # -- curvature ---------------------------------------------------------------

    @_kept_block(_less(2), "tttt")
    def cur_H_jet(self) -> Jet:
        """H^a_e b g = dH^a_eb/dt^g - dH^a_eg/dt^b + H^m_eb H^a_mg
        - H^m_eg H^a_mb; axes [a,e,b,g]."""
        dH = self.ddt(self.Htc_jet)  # [a,e,b,g]
        quad = jet_einsum("meb,amg->aebg", self.Htc_jet, self.Htc_jet, order=dH.order)
        anti = dH + quad
        return anti - jet_linear("aebg->aegb", anti)

    @_kept_block(_order2(0), "sstt")
    def cur_R1_jet(self) -> Jet:
        """R^l_i b g; axes [l,i,b,g]."""
        dG = self.delta_t(self.Gc_jet)  # [l,i,b,g]
        quad = jet_einsum("mib,lmg->libg", self.Gc_jet, self.Gc_jet, order=dG.order)
        anti = dG + quad
        anti = anti - jet_linear("libg->ligb", anti)
        tail = jet_einsum("limu,mubg->libg", self.Cc_jet, self.tor_R1_jet)
        return anti + tail

    @_kept_block(_less(2), "ssts")
    def cur_R2_jet(self) -> Jet:
        """R^l_i b k; axes [l,i,b,k]."""
        dG = self.delta_x(self.Gc_jet)   # [l,i,b,k]
        dL = self.delta_t(self.Lc_jet)   # [l,i,k,b]
        t1 = dG - jet_linear("likb->libk", dL)
        t2 = jet_einsum("mib,lmk->libk", self.Gc_jet, self.Lc_jet, order=t1.order)
        t3 = jet_einsum("mik,lmb->libk", self.Lc_jet, self.Gc_jet, order=t1.order)
        tail = jet_einsum("limu,mubk->libk", self.Cc_jet, self.tor_R2_jet)
        return t1 + t2 - t3 + tail

    @_kept_block(_less(2), "ssss")
    def cur_R3_jet(self) -> Jet:
        """R^l_i j k; axes [l,i,j,k]."""
        dL = self.delta_x(self.Lc_jet)  # [l,i,j,k]
        quad = jet_einsum("mij,lmk->lijk", self.Lc_jet, self.Lc_jet, order=dL.order)
        anti = dL + quad
        anti = anti - jet_linear("lijk->likj", anti)
        tail = jet_einsum("limu,mujk->lijk", self.Cc_jet, self.tor_R3_jet)
        return anti + tail

    @_kept_block(_less(2), "sstst")
    def cur_P1_jet(self) -> Jet:
        """P^l(g)_i b (k) = dG^l_ib/dxs^k_g - C^l(g)_i(k)/b
        + C^l(mu)_i(m) P^(m)(g)_(mu)b(k); axes [l,i,b,k,g]."""
        dG = self.ddxs(self.Gc_jet)  # [l,i,b,k,g]
        Ccov = self.shared(Frame.cov_t, self.Cc_jet, (S_UP, S_DN, V_DN))  # [l,i,k,g,b]
        t2 = jet_linear("likgb->libkg", Ccov)
        t3 = jet_einsum("limu,mubkg->libkg", self.Cc_jet, self.tor_P2_jet)
        return dG - t2 + t3

    @_kept_block(_less(2), "sssst")
    def cur_P2_jet(self) -> Jet:
        """P^l(g)_ij(k) = dL^l_ij/dxs^k_g - C^l(g)_i(k)|j
        + C^l(mu)_i(m) P^(m)(g)_(mu)j(k); axes [l,i,j,k,g]."""
        dL = self.ddxs(self.Lc_jet)  # [l,i,j,k,g]
        Ccov = self.shared(Frame.cov_s, self.Cc_jet, (S_UP, S_DN, V_DN))  # [l,i,k,g,j]
        t2 = jet_linear("likgj->lijkg", Ccov)
        t3 = jet_einsum("limu,mujkg->lijkg", self.Cc_jet, self.tor_P3_jet)
        return dL - t2 + t3

    @_kept_block(_less(2), "ssstst")
    def cur_S_jet(self) -> Jet:
        """S^l(b)(g)_i(j)(k); axes [l,i,j,b,k,g]."""
        dC = self.ddxs(self.Cc_jet)  # [l,i,j,b,k,g]
        quad = jet_einsum("mijb,lmkg->lijbkg", self.Cc_jet, self.Cc_jet, order=dC.order)
        anti = dC + quad
        return anti - jet_linear("lijbkg->likgjb", anti)

    # -- Ricci and scalars ----------------------------------------------------

    @_kept_block(_less(2), "tt")
    def ricci_H_jet(self) -> Jet:
        """H_ab = H^m_abm."""
        return jet_linear("mabm->ab", self.cur_H_jet)

    @_kept_block(_less(2), "sst")
    def ricci_P1_jet(self) -> Jet:
        """P^(a)_i(j) = -P^m(a)_im(j); axes [i,j,a]."""
        return -jet_linear("mimja->ija", self.cur_P2_jet)

    @_kept_block(_less(2), "sts")
    def ricci_P2_jet(self) -> Jet:
        """P^(a)_(i)j = P^m(a)_ij(m); axes [i,a,j]."""
        return jet_linear("mijma->iaj", self.cur_P2_jet)

    @_kept_block(_less(2), "stt")
    def ricci_P3_jet(self) -> Jet:
        """P^(a)_(i)b = P^m(a)_ib(m); axes [i,a,b]."""
        return jet_linear("mibma->iab", self.cur_P1_jet)

    @_kept_block(_less(2), "stst")
    def ricci_S_jet(self) -> Jet:
        """S^(a)(b)_(i)(j) = S^m(b)(a)_i(j)(m); axes [i,a,j,b]."""
        return jet_linear("mijbma->iajb", self.cur_S_jet)

    @_kept_block(_less(2), "st")
    def ricci_Rmt_jet(self) -> Jet:
        """R_ia = R^m_iam; axes [i,a]."""
        return jet_linear("miam->ia", self.cur_R2_jet)

    @_kept_block(_less(2), "ss")
    def ricci_Rmm_jet(self) -> Jet:
        """R_ij = R^m_ijm; axes [i,j]."""
        return jet_linear("mijm->ij", self.cur_R3_jet)

    @_kept_block(_less(2), "")
    def scalar_H_jet(self) -> Jet:
        B = self.ricci_H_jet
        return jet_linear("aa->", jet_einsum("ab,bc->ac", self.inverse("h", B.order), B))

    @_kept_block(_less(2), "")
    def scalar_R_jet(self) -> Jet:
        B = self.ricci_Rmm_jet
        return jet_linear("ii->", jet_einsum("ij,jk->ik", self.inverse("g", B.order), B))

    @_kept_block(_less(2), "")
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
    """(scaled max |B^(a)(b) - h^ab ghat|, ghat) at one point, or over a
    block of points the two columns; see :func:`kronecker_regularity_check`."""
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
    B = B.value  # B[i,mu,j,nu] at each point
    ghat = _pointed_einsum("mn,imjn->ij", fr.h_jet.value, B) / ctx.p
    recon = _pointed_einsum("mn,ij->imjn", fr.inverse("h", 0).value, ghat)
    scale = np.fmax(1.0, _point_max(B))  # fmax: max(1.0, nan) is 1.0
    return _each(pt, ((_point_max(B - recon) / scale).tolist(), ghat))


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


def _pooled_stats(summaries) -> ResidualStats:
    """The stats of one residual block over the points of its column of
    (max |r|, sum |r|, size, scale) ``summaries`` (:meth:`Frame.summaries`),
    in point order, with the components of all points pooled: mean_abs is
    the sum of |r| over the count of components.  No summaries give five
    zeros."""
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


def _fold_stats(columns):
    """The {name: stats} map over the points of the {name: column of
    :meth:`Frame.summaries`} ``columns``, in point order, from each
    point's own stats (:func:`_pooled_stats`): the max of max_abs,
    max_rel and scale, the mean of the points' mean_abs, and the first
    point reaching max_rel.  No columns give None."""
    if not columns:
        return None
    out = {}
    for nm, col in columns.items():
        stats = [_pooled_stats([summary]) for summary in col]
        rels = [st.max_rel for st in stats]
        out[nm] = ResidualStats(
            max_abs=max(st.max_abs for st in stats),
            mean_abs=float(np.mean([st.mean_abs for st in stats])),
            max_rel=max(rels), scale=max(st.scale for st in stats),
            worst_point=rels.index(max(rels)))
    return out


def regularity_verdict(pts, record) -> RegularityVerdict:
    """Fold the ``kronecker_deviation_at`` record of ``pts``, in point
    order."""
    devs, ghats = record
    worst, witness = _first_max(devs, pts)
    return RegularityVerdict(max_deviation=worst, witness=witness,
                             ghats=tuple(ghats))


def nlc_torsion_free_check(ctx, pts) -> TorsionFreeVerdict:
    """Measure dN^(i)_(a)j/dxs^k_g - dN^(i)_(a)k/dxs^j_g over sample points,
    block by block (:func:`sweep`)."""
    return torsion_free_verdict(pts, sweep(nlc_torsion_at, ctx, pts, 2))


def nlc_torsion_at(ctx, pt):
    """(max |dN/dxs asymmetry|, the entry [i,a,j,k,g] holding it) at one
    point, or over a block of points the two columns; see
    :func:`nlc_torsion_free_check`.  The ``torsion`` check and the Maxwell
    step both read it off the frame-shared :func:`_torsion_probe`."""
    # Christoffel-built N already spends one derivative order, so the
    # xs-gradient of N needs a depth-2 frame.
    devs, entries = frame(ctx, pt, 2).shared(_torsion_probe)
    return _each(pt, (list(devs), list(entries)))


@_kept(_values)  # floats
def _torsion_probe(fr) -> tuple:
    """:func:`nlc_torsion_at`'s two columns over the frame ``fr``, as
    tuples, from one maximum and one argmax over the block; read through
    ``fr.shared``."""
    dN = fr.ddxs(fr.N_jet).value  # [point,i,a,j,k,g]
    viol = np.abs(dN - dN.swapaxes(3, 4)).reshape(len(fr.pts), -1)
    shape = dN.shape[1:]
    return (tuple(viol.max(axis=1).tolist()),
            tuple(tuple(int(v) for v in np.unravel_index(k, shape))
                  for k in viol.argmax(axis=1).tolist()))


def torsion_free_verdict(pts, record) -> TorsionFreeVerdict:
    """Fold the ``nlc_torsion_at`` record of ``pts``, in point order; the
    witness carries the point's entry."""
    devs, entries = record
    worst, witness = _first_max(devs, list(zip(pts, entries)))
    return TorsionFreeVerdict(max_violation=worst, witness=witness)


def metricity_residuals(ctx: GeometryContext, pt):
    """Max-abs covariant derivatives of both metrics; all six should vanish.
    One map at a point, or over a block of points a map of columns."""
    fr = frame(ctx, pt, 2)
    # only values are read, so the metrics enter at order 1
    g, g_slots = fr.metric("g", 1), (S_DN, S_DN)
    h, h_slots = fr.metric("h", 1), (T_DN, T_DN)
    names = ("g_spatial", "g_vertical", "h_temporal", "h_spatial",
             "h_vertical", "g_temporal")
    blocks = (fr.cov_s(g, g_slots), fr.cov_v(g, g_slots), fr.cov_t(h, h_slots),
              fr.cov_s(h, h_slots), fr.cov_v(h, h_slots), fr.cov_t(g, g_slots))
    return _each(pt, dict(zip(names, map(fr.max_abs, blocks))))


def curvature_antisymmetry_residuals(ctx: GeometryContext, pt):
    """The seven lowered-antisymmetry identities; max |sym part| each.
    One map at a point, or over a block of points a map of columns.

    Lower the upper index with the matching metric, then the sum of the
    tensor and its first-two-index swap must vanish.
    """
    fr = frame(ctx, pt, 2)
    h, g = fr.h_jet.value, fr.g_jet.value
    # (name, metric, curvature block, lowering); Z is the point axis, and
    # one summed letter gives each point the bits it gets alone
    rows = (("H_tt", h, fr.cur_H_jet, "Zbm,Zmagd->Zabgd"),
            ("R_tt", g, fr.cur_R1_jet, "Zjm,Zmibg->Zijbg"),
            ("R_tm", g, fr.cur_R2_jet, "Zjm,Zmibk->Zijbk"),
            ("R_mm", g, fr.cur_R3_jet, "Zjm,Zmikl->Zijkl"),
            ("P_vt", g, fr.cur_P1_jet, "Zjm,Zmibkg->Zijbkg"),
            ("P_vm", g, fr.cur_P2_jet, "Zjm,Zmikld->Zijkld"),
            ("S_vv", g, fr.cur_S_jet, "Zjm,Zmikgld->Zijkgld"))
    cols = {}
    for name, metric, block, spec in rows:
        lowered = np.einsum(spec, metric, block.value)
        cols[name] = _point_max(lowered + lowered.swapaxes(1, 2)).tolist()
    return _each(pt, cols)


# --------------------------------------------------------------------------
# sampling (identities are pointwise; boxes keep fields in smooth regimes)
# --------------------------------------------------------------------------

def _metric_values(ctx, pts) -> dict:
    """The values {"h", "g"} at ``pts``, (B, ., .) arrays off their order-0
    frame, which the next frame replaces; g is held to no signature."""
    fr = frame(ctx, pts, 0)
    return {"h": fr.h_jet.value, "g": fr.symmetric_g().value}


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
    block at a time, one draw per point still wanted: one ``rng.uniform``
    call fills a (draws, p + n + n p) array, bounded column by column, in
    row-major order with ``low + (high - low) u`` at each element, so every
    draw takes the stream position and the bits that drawing t, x and xs in
    turn would give it, and its point keeps its row as its flat
    coordinates (:class:`~jetlag.diff_engine.JetPoint`).  h and g are read
    off one order-0 frame of the block, by the rule of
    :func:`_block_records`, so each draw is tried, in draw order, as it
    would be alone: a draw that holds a domain error is rejected, and the
    first that holds any other error is raised, once the draws before it
    are tried.  Those draws are tried together, on the rows of the block's
    h and g arrays: one ``cond`` of their h, one of the g of those whose h
    passed, and one signature check of the accepted ones.  No draw inverts a metric: a singular h or
    g is rejected as ill-conditioned."""
    rng = np.random.default_rng(seed)
    p, n = ctx.p, ctx.n
    # each column's bounds, for a draw's flat coordinates: t, x, then xs
    lo, hi = (np.repeat([box_t[k], box_x[k], box_xs[k]], [p, n, n * p]) for k in (0, 1))
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
        draws = rng.uniform(lo, hi, size=(min(count - len(pts), budget - tries), lo.size))
        block = [JetPoint(z, (p, n)) for z in draws]
        tries += len(block)
        values, held = _block_records(_metric_values, ctx, block)
        # the first draw that holds an error other than a domain error
        # (a draw that left a field's domain) is raised after the draws
        # before it
        stop = min((k for k, exc in held.items() if not isinstance(
            exc, (EvalDomainError, DerivativeDomainError, FieldDomainError))),
            default=len(block))
        kept = [k for k in range(stop) if k not in held]
        if kept:  # the first rows, as the draws that hold no error have rows
            hs, gs = values["h"][:len(kept)], values["g"][:len(kept)]
            ok = ~(np.linalg.cond(hs) > cond_limit)
            ok[ok] = ~(np.linalg.cond(gs[ok]) > cond_limit)
            ill_conditioned += len(kept) - int(ok.sum())
            accepted = [block[k] for k, good in zip(kept, ok) if good]
            ctx._check_signature(accepted, hs[ok], gs[ok])
            pts += accepted
        if stop < len(block):
            raise held[stop]
    return pts
