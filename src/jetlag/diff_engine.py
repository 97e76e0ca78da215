"""Forward-mode derivative arithmetic over jet-bundle coordinates.

The coordinate set of a first-order jet bundle with p temporal and n spatial
dimensions is flattened into a single variable vector

    z = (t^1..t^p, x^1..x^n, xs^1_1, xs^1_2, ..., xs^n_p)

of length N = p + n + n*p, with xs laid out row-major in (i, alpha).

A :class:`Jet` is a truncated multivariate Taylor expansion with respect to z:
``coeffs[k]`` stores the raw k-th derivative tensor, whose trailing k axes
(one per differentiation slot, each of size N) are symmetric.  A leading
"component" shape lets one Jet carry a whole tensor of values at once, and all
arithmetic broadcasts over it like numpy does.  The same axis can run over the
points of a batch (:func:`seed_point` of several points, evaluated inside a
:func:`point_batch`): vector forward mode, one pass for all of them.  Above
the fields, a frame of a block of points, one point included, gives every
jet one leading point axis, which :func:`jet_einsum`, :func:`jet_linear` and
:func:`jet_matrix_inverse` recognise as one component axis more than their
spec names, and letter :data:`POINT`; each point keeps the bits it gets
alone.  A contraction that sums two or more letters runs as one einsum over
the point axis only at a layout (subscripts, shapes, strides) whose probe
shows that it keeps them, and one point at a time elsewhere
(:func:`_per_point`).

Products, ``*`` and :func:`jet_einsum` alike, use one multilinear Leibniz
kernel (:func:`_leibniz`), compositions use Faa di Bruno over set
partitions, and matrix inversion uses a Newton iteration whose accuracy
order doubles per step.  Finite differences are only ever used as an
independent cross-check of the Taylor path: :func:`check_grad` evaluates
every stencil of a dependency group in one batch, and only a grid that holds
a Python field, or whose batch raises, is checked one probe at a time by
:func:`fd_partial`, the reference that gives the batch's bits.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DerivativeDomainError,
    JetlagError,
    OrderExceededError,
    SingularMetricError,
    name_witness,
)

__all__ = [
    "Jet",
    "JetPoint",
    "SeededPoint",
    "ScalarField",
    "PyField",
    "AgreementReport",
    "BatchDiverged",
    "point_batch",
    "coord_count",
    "coord_index",
    "seed_point",
    "float_point",
    "eval_derivs",
    "fd_partial",
    "check_grad",
    "jet_einsum",
    "jet_linear",
    "jet_stack",
    "jet_matrix_inverse",
    "jexp",
    "jlog",
    "jsin",
    "jcos",
    "jsqrt",
    "jtanh",
    "jabs",
]


# --------------------------------------------------------------------------
# coordinate bookkeeping
# --------------------------------------------------------------------------

def coord_count(p: int, n: int) -> int:
    return p + n + n * p


def coord_index(p: int, n: int, cid) -> int:
    """Flattened variable index of a coordinate id.

    Coordinate ids are 0-based tuples: ("t", a), ("x", i) or ("xs", i, a).
    """
    kind = cid[0]
    if kind == "t":
        a = cid[1]
        if not 0 <= a < p:
            raise IndexError(f"temporal index {a} out of range for p={p}")
        return a
    if kind == "x":
        i = cid[1]
        if not 0 <= i < n:
            raise IndexError(f"spatial index {i} out of range for n={n}")
        return p + i
    if kind == "xs":
        i, a = cid[1], cid[2]
        if not (0 <= i < n and 0 <= a < p):
            raise IndexError(f"velocity index ({i},{a}) out of range")
        return p + n + i * p + a
    raise ValueError(f"unknown coordinate kind {kind!r}")


@dataclass(frozen=True)
class JetPoint:
    """A single sample point on the jet bundle: t (p,), x (n,), xs (n,p)."""

    t: np.ndarray
    x: np.ndarray
    xs: np.ndarray

    @staticmethod
    def of(t, x, xs) -> "JetPoint":
        t = np.asarray(t, dtype=float).reshape(-1)
        x = np.asarray(x, dtype=float).reshape(-1)
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape != (x.size, t.size):
            raise ValueError(
                f"xs must have shape (n,p)=({x.size},{t.size}); got {xs.shape}"
            )
        return JetPoint(t, x, xs)

    @property
    def dims(self):
        return len(self.t), len(self.x)

    def key(self) -> bytes:
        return self.t.tobytes() + self.x.tobytes() + self.xs.tobytes()

    def flat(self) -> np.ndarray:
        return np.concatenate([self.t, self.x, self.xs.reshape(-1)])


# --------------------------------------------------------------------------
# set partitions and subset placements (cached combinatorics)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _placements(k: int, j: int):
    return tuple(itertools.combinations(range(k), j))


@lru_cache(maxsize=None)
def _moved(ndim: int, k: int, S) -> tuple:
    """The axis order ``np.moveaxis`` gives an array of ``ndim`` axes when
    the first ``len(S)`` of its ``k`` trailing jet axes move to slots ``S``
    of them."""
    src = [ndim - k + m for m in range(len(S))]
    dst = [ndim - k + s for s in S]
    order = [q for q in range(ndim) if q not in src]
    for d, q in sorted(zip(dst, src)):
        order.insert(d, q)
    return tuple(order)


def _partitions_of(elems):
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for part in _partitions_of(rest):
        yield ((first,),) + part
        for bi in range(len(part)):
            yield part[:bi] + ((first,) + part[bi],) + part[bi + 1:]


@lru_cache(maxsize=None)
def _set_partitions(k: int):
    return tuple(_partitions_of(tuple(range(k))))


# --------------------------------------------------------------------------
# the Jet class
# --------------------------------------------------------------------------

class Jet:
    """Truncated multivariate Taylor value; see module docstring."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs):
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs  # list of ndarrays, coeffs[k]: shape + (nvars,)*k

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, nvars, order) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = [value] + [
            np.zeros(value.shape + (nvars,) * k) for k in range(1, order + 1)
        ]
        return Jet(nvars, order, coeffs)

    @staticmethod
    def variables(values, var_indices, nvars, order) -> "Jet":
        """A jet whose components are coordinate variables themselves."""
        values = np.asarray(values, dtype=float)
        var_indices = np.asarray(var_indices, dtype=int)
        if var_indices.shape != values.shape:
            raise ValueError("values and var_indices must have the same shape")
        coeffs = [values.copy()]
        if order >= 1:
            first = np.zeros(values.shape + (nvars,))
            flat = first.reshape(-1, nvars)
            flat[np.arange(flat.shape[0]), var_indices.reshape(-1)] = 1.0
            coeffs.append(first)
        for k in range(2, order + 1):
            coeffs.append(np.zeros(values.shape + (nvars,) * k))
        return Jet(nvars, order, coeffs)

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self):
        return self.coeffs[0].shape

    @property
    def value(self):
        return self.coeffs[0]

    def truncated(self, order) -> "Jet":
        if order > self.order:
            raise OrderExceededError(
                f"requested order {order} exceeds stored order {self.order}"
            )
        if order == self.order:
            return self
        return Jet(self.nvars, order, self.coeffs[: order + 1])

    def is_constant(self) -> bool:
        return all(not c.any() for c in self.coeffs[1:])

    def __getitem__(self, idx) -> "Jet":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.nvars, self.order, [c[idx] for c in self.coeffs])

    def reshape_components(self, newshape) -> "Jet":
        out = []
        for k, c in enumerate(self.coeffs):
            out.append(c.reshape(tuple(newshape) + (self.nvars,) * k))
        return Jet(self.nvars, self.order, out)

    # -- derivatives -------------------------------------------------------

    def partial(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to variable ``var``."""
        if self.order < 1:
            raise OrderExceededError("cannot differentiate an order-0 jet")
        return Jet(
            self.nvars,
            self.order - 1,
            [self.coeffs[k + 1][..., var] for k in range(self.order)],
        )

    def dblock(self, var_slice, newshape=None) -> "Jet":
        """Partial derivatives over a contiguous variable block.

        Appends one component axis (reshaped to ``newshape`` when given) that
        ranges over the block, e.g. d/dt for all temporal coordinates at once.
        """
        if self.order < 1:
            raise OrderExceededError("cannot differentiate an order-0 jet")
        cn = self.coeffs[0].ndim
        out = []
        for k in range(self.order):
            c = self.coeffs[k + 1][..., var_slice]  # shape + (N,)*k + (G,)
            # the k jet axes move behind G, as np.moveaxis(c, -1, cn) would
            c = c.transpose(_moved(c.ndim, k + 1, tuple(range(1, k + 1))))
            if newshape is not None:
                c = c.reshape(c.shape[:cn] + tuple(newshape) + (self.nvars,) * k)
            out.append(c)
        return Jet(self.nvars, self.order - 1, out)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise ValueError("jets over different variable sets")
            return other
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return Jet.constant(other, self.nvars, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = min(self.order, o.order)
        return Jet(self.nvars, K, [self.coeffs[k] + o.coeffs[k] for k in range(K + 1)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = min(self.order, o.order)
        return Jet(self.nvars, K, [self.coeffs[k] - o.coeffs[k] for k in range(K + 1)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return Jet(self.nvars, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.nvars, self.order, [c * float(other) for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = _mul_spec(self.coeffs[0].ndim, o.coeffs[0].ndim)
        return _leibniz(spec, self, o, min(self.order, o.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise DerivativeDomainError("division by zero")
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self) -> "Jet":
        c = self.coeffs[0]
        if np.any(c == 0.0):
            raise DerivativeDomainError("division by zero")
        return self.compose(_power_derivs(c, -1.0, self.order))

    def __pow__(self, expo):
        if isinstance(expo, Jet):
            if expo.is_constant() and expo.value.ndim == 0:
                expo = float(expo.value)
            else:
                # at a point where the exponent is constant the point alone
                # takes the branch above
                if _batched and not np.any(
                        [_at_each_point(c) for c in expo.coeffs[1:]], axis=0).all():
                    raise BatchDiverged
                base = self.coeffs[0]
                if np.any(base <= 0.0):
                    raise DerivativeDomainError(
                        "power with a varying exponent needs a positive base"
                    )
                return jexp(expo * jlog(self))
        if isinstance(expo, (int, np.integer)) or (
            isinstance(expo, (float, np.floating)) and float(expo).is_integer()
        ):
            return self._int_pow(int(expo))
        e = float(expo)
        c = self.coeffs[0]
        if np.any(c <= 0.0):
            raise DerivativeDomainError(
                "non-integer power of a non-positive base"
            )
        return self.compose(_power_derivs(c, e, self.order))

    def __rpow__(self, base):
        """A constant base to this jet's power, by :meth:`__pow__`."""
        o = self._coerce(base)
        if o is None:
            return NotImplemented
        return o ** self

    def _int_pow(self, e: int) -> "Jet":
        if e == 0:
            return Jet.constant(np.ones(self.shape), self.nvars, self.order)
        if e < 0:
            return self._int_pow(-e)._reciprocal()
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- composition (Faa di Bruno) ----------------------------------------

    def compose(self, derivs) -> "Jet":
        """Apply a scalar function given its derivatives at ``self.value``.

        ``derivs[m]`` must hold the m-th derivative of the outer function,
        evaluated elementwise at the jet's value, for m = 0..order.  Faa di
        Bruno over set partitions of the k differentiation slots.
        """
        K = self.order
        N = self.nvars
        cn = self.coeffs[0].ndim
        out = [np.array(np.asarray(derivs[0], dtype=float), copy=True)]
        for k in range(1, K + 1):
            acc = np.zeros(
                np.broadcast_shapes(
                    np.asarray(derivs[0]).shape, self.coeffs[0].shape
                )
                + (N,) * k
            )
            for part in _set_partitions(k):
                m = len(part)
                term = np.asarray(derivs[m], dtype=float)
                term = term.reshape(term.shape + (1,) * k)
                used = 0
                positions = []
                for block in part:
                    b = len(block)
                    blk = self.coeffs[b]
                    expand = blk.reshape(
                        blk.shape[:cn]
                        + (1,) * used
                        + blk.shape[cn:]
                        + (1,) * (k - used - b)
                    )
                    term = term * expand
                    positions.extend(block)
                    used += b
                if positions != sorted(positions):
                    term = term.transpose(_moved(term.ndim, k, tuple(positions)))
                acc = acc + term
            out.append(acc)
        return Jet(N, K, out)

    # -- misc ----------------------------------------------------------------

    def __float__(self):
        if self.coeffs[0].ndim:
            raise TypeError("only scalar jets convert to float")
        return float(self.coeffs[0])

    def __repr__(self):
        return (
            f"Jet(order={self.order}, nvars={self.nvars}, "
            f"shape={self.shape}, value={self.value!r})"
        )


# set while a batch of points is evaluated; see :func:`point_batch`
_batched = False


class BatchDiverged(Exception):
    """A data-dependent branch of the jet arithmetic would go one way at some
    points of a batch and the other way at the rest."""


@contextmanager
def point_batch():
    """Evaluate jets whose leading component axis runs over the points of a
    batch (:func:`seed_point` of several points).

    Arithmetic is elementwise over that axis, and powers are taken by the
    scalar libm pow (:func:`_pow`), so each point gets bit for bit the
    values it gets alone.  A product that skips an all-zero coefficient
    does not branch (:func:`_leibniz`); a power whose jet exponent is
    constant takes the real-power rule, and that branch raises
    :class:`BatchDiverged` inside this block unless it goes the same way at
    every point.  It wraps only field-grid calls, which run with numpy's
    floating-point warnings off (:class:`~jetlag.field_expr.FieldGrid`).
    """
    global _batched
    _batched = True
    try:
        yield
    finally:
        _batched = False


def _at_each_point(c) -> np.ndarray:
    """Per point of a batched coefficient ``c``: whether it has a nonzero."""
    return c.reshape(len(c), -1).any(axis=1)


def _pow(c, e):
    """``c ** e`` elementwise, each element by the scalar libm pow.

    numpy's array pow may take a vector path that differs from libm in the
    last bit, so every derivative table takes its powers here: a point then
    gets the same bits alone, in a batch, or as a 0-d array.
    """
    c = np.asarray(c, dtype=float)
    return np.array([v ** e for v in c.ravel()]).reshape(c.shape)


def _power_derivs(c, e, order) -> list:
    """The derivatives 0..``order`` of x ** e at ``c``: the falling
    factorial e (e - 1) ... (e - m + 1) times ``_pow(c, e - m)``, the table
    of every real power, reciprocal, log and sqrt jet."""
    derivs, fac = [], 1.0
    for m in range(order + 1):
        derivs.append(fac * _pow(c, e - m))
        fac *= e - m
    return derivs


# --------------------------------------------------------------------------
# jet-aware tensor helpers
# --------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXY"
# the letter of the point axis of a batched operand; no spec or plan uses it
POINT = "Z"

try:  # the kernel np.einsum calls when it is not asked to optimize
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        if x.nvars != like.nvars:
            raise ValueError("jets over different variable sets")
        return x
    return Jet.constant(x, like.nvars, like.order)


@lru_cache(maxsize=None)
def _pointed(spec: str, *ranks) -> tuple:
    """(``spec`` with the point letter on each operand whose component rank
    in ``ranks`` is one more than ``spec`` names, and on the output if any
    operand has it; the einsum that runs its subscripts).

    A batched operand carries one leading point axis over the points of a
    frame's block (:class:`~jetlag.geometry.Frame`), of size 1 on the frame
    of one point, and the result keeps it.  A contraction over one letter
    gives each point the bits it gets alone, but one over two or more may
    sum them in another order, so such a spec runs through
    :func:`_per_point`, which batches it only at a layout whose probe
    keeps every point's bits.
    """
    ins, outs = spec.split("->")
    terms = ins.split(",")
    lead = [r == len(t) + 1 for t, r in zip(terms, ranks)]
    if not any(lead):
        return spec, _einsum
    summed = set("".join(terms)) - set(outs)
    terms = [POINT * b + t for t, b in zip(terms, lead)]
    return (f"{','.join(terms)}->{POINT}{outs}",
            _per_point if len(summed) >= 2 else _einsum)


@lru_cache(maxsize=None)
def _unpointed(subs: str) -> tuple:
    """(``subs`` without the point letter, which operands carry it)."""
    ins = subs.split("->")[0].split(",")
    return subs.replace(POINT, ""), tuple(t.startswith(POINT) for t in ins)


def _per_point(subs: str, *ops) -> np.ndarray:
    """``np.einsum(subs, *ops)``, each point along the point axis with the
    bits of its own einsum: one einsum over the whole axis where the
    operands' layout keeps them (:func:`_batch_keeps_bits`), else one
    einsum per point, stacked.  On an axis of one point it runs ``subs``
    as it is: one point has only one summation order.

    Two forms were tried before the layout probe, and both moved bits, so
    that reports changed with the block size: one batched einsum of every
    two-letter sum over the whole point axis, whose summation order
    depends on the layout, and each point's einsum written into a
    preallocated stack through ``out=``."""
    ops = tuple(map(np.asarray, ops))
    if (len(ops[_unpointed(subs)[1].index(True)]) == 1
            or _batch_keeps_bits(subs, tuple((op.dtype, op.shape, op.strides)
                                             for op in ops))):
        return _einsum(subs, *ops)
    return np.stack(_each_point(_einsum, subs, ops))


def _each_point(einsum, subs: str, ops) -> list:
    """Each point's own ``einsum`` of ``subs`` along the point axis, in
    point order."""
    one, lead = _unpointed(subs)
    B = len(ops[lead.index(True)])
    return [einsum(one, *(op[i] if b else op for op, b in zip(ops, lead)))
            for i in range(B)]


# how many output entries of each point a layout's probe compares, at the
# least: one draw of probe operands covers a layout of that many entries,
# and a smaller one draws again, as its few sums may round alike in two
# orders by chance
_PROBE_SUMS = 16


@lru_cache(maxsize=None)
def _batch_keeps_bits(subs: str, layout: tuple, einsum=_einsum) -> bool:
    """Whether one einsum of ``subs`` over the whole point axis gives each
    point the bytes of that point's own einsum, at operands of ``layout``:
    (dtype, shape, strides) per operand.

    The summation order of an einsum depends on its subscripts, shapes and
    strides, not on its values, so one probe per layout decides it.  The
    probe operands have exactly that layout and dense float64 values from a
    private generator of fixed seed, with random mantissas, signs and
    magnitudes spread over about 2**+-10: no term vanishes or drowns
    another, so another association of a sum most often rounds
    differently, and the probe draws until it has compared
    :data:`_PROBE_SUMS` entries of each point.  A layout the probe cannot rebuild (another dtype, a negative
    stride, a zero-size axis), or any probe that raises, runs one point at
    a time.  The probe runs the kernel bound here, whatever later replaces
    the module's ``_einsum``, and draws nothing from numpy's global
    generator.
    """
    try:
        rng = np.random.default_rng(0)
        drawn = 0
        while drawn < _PROBE_SUMS:
            ops = [_probe_operand(rng, *op) for op in layout]
            out = einsum(subs, *ops)
            if any(got.tobytes() != alone.tobytes()
                   for got, alone in zip(out, _each_point(einsum, subs, ops))):
                return False
            drawn += out.size // len(out)
        return True
    except Exception:
        return False


def _probe_operand(rng, dtype, shape, strides) -> np.ndarray:
    """A read-only float64 array of ``shape`` and ``strides`` over a dense
    buffer of probe values; ValueError where no such buffer exists."""
    item = np.dtype(float).itemsize
    if (dtype != np.float64 or 0 in shape
            or any(s < 0 or s % item for s in strides)):
        raise ValueError(f"no probe operand of layout {shape}, {strides}")
    size = sum((n - 1) * s for n, s in zip(shape, strides)) // item + 1
    base = rng.uniform(-2.0, 2.0, size)
    np.ldexp(base, rng.integers(-10, 11, size, dtype=np.int8), out=base)
    return np.lib.stride_tricks.as_strided(base, shape, strides, writeable=False)


@lru_cache(maxsize=None)
def _einsum_plan(spec: str, K: int, kinds: str):
    """Everything :func:`jet_einsum` derives from its spec alone, per order
    k <= K; ``kinds`` names the Jet operands ("a", "b" or "ab").

    For one Jet operand: the subscripts of each order.  For two: the
    subscripts of the order-0 product, used for the shape of a vanishing
    order, and per order k the terms ``(j, subscripts, placements)`` of the
    Leibniz split, one axis order per placement of the a-side slots (None
    when they stay in front).
    """
    if "." in spec:
        raise ValueError(f"jet_einsum specs name every component axis: {spec!r}")
    ins, outs = spec.split("->")
    sa, sb = ins.split(",")
    used = set(sa) | set(sb) | set(outs)
    pool = "".join(c for c in _LETTERS if c not in used)
    if kinds == "a":
        return tuple(f"{sa}{pool[:k]},{sb}->{outs}{pool[:k]}" for k in range(K + 1))
    if kinds == "b":
        return tuple(f"{sa},{sb}{pool[:k]}->{outs}{pool[:k]}" for k in range(K + 1))
    orders = []
    for k in range(K + 1):
        terms = []
        for j in range(k + 1):
            ja = pool[:j]
            jb = pool[j:k]
            placements = tuple(
                None if S == tuple(range(j)) else _moved(len(outs) + k, k, S)
                for S in _placements(k, j)
            )
            terms.append((j, f"{sa}{ja},{sb}{jb}->{outs}{ja}{jb}", placements))
        orders.append(tuple(terms))
    return f"{sa},{sb}->{outs}", tuple(orders)


def jet_einsum(spec: str, a, b, order=None) -> Jet:
    """Two-operand einsum over component axes with the Leibniz rule on jets.

    ``spec`` addresses only the component axes, e.g. ``"gmb,im->gib"``, and
    names every one of them (no ``...``), but for the point axis of a
    batched operand, which it recognises by its one extra leading axis
    (:func:`_pointed`).  Either operand may be a plain ndarray (treated as
    a constant).  The subscripts and slot placements come from a plan made
    once per (spec, order, operand kinds); two jets are multiplied by
    :func:`_leibniz`, the kernel of ``*`` too.

    The result has the lower of the operands' orders, capped at ``order``
    when given.  Coefficient k reads only the operands' coefficients up to
    k, so a product that feeds a sum of lower order is built to that order
    alone, bit for bit the low coefficients of the uncapped product.
    """
    a_is_jet = isinstance(a, Jet)
    b_is_jet = isinstance(b, Jet)
    if not (a_is_jet or b_is_jet):
        raise TypeError("at least one operand must be a Jet")
    cap = math.inf if order is None else order
    spec, einsum = _pointed(spec, a.coeffs[0].ndim if a_is_jet else np.ndim(a),
                            b.coeffs[0].ndim if b_is_jet else np.ndim(b))
    if a_is_jet and not b_is_jet:
        K, N = min(a.order, cap), a.nvars
        subs = _einsum_plan(spec, K, "a")
        return Jet(N, K, [einsum(subs[k], a.coeffs[k], b) for k in range(K + 1)])
    if b_is_jet and not a_is_jet:
        K, N = min(b.order, cap), b.nvars
        subs = _einsum_plan(spec, K, "b")
        return Jet(N, K, [einsum(subs[k], a, b.coeffs[k]) for k in range(K + 1)])
    if a.nvars != b.nvars:
        raise ValueError("jets over different variable sets")
    return _leibniz(spec, a, b, min(a.order, b.order, cap), einsum)


@lru_cache(maxsize=None)
def _mul_spec(na: int, nb: int) -> str:
    """The :func:`jet_einsum` spec of an elementwise product of component
    ranks ``na`` and ``nb``, their axes aligned from the right as numpy
    broadcasts them (einsum broadcasts an axis of size 1 too)."""
    out = _LETTERS[:max(na, nb)]
    return f"{out[len(out) - na:]},{out[len(out) - nb:]}->{out}"


def _live(c: np.ndarray) -> bool:
    """``c.any()``, looking at its first entry before scanning it all."""
    return c.size > 0 and (c.flat[0] != 0 or c.any())


def _leibniz(spec: str, a: Jet, b: Jet, K: int, einsum=_einsum) -> Jet:
    """The product of jets ``a`` and ``b`` to order ``K`` by the
    multilinear Leibniz rule, components contracted by ``spec`` through
    ``einsum`` (:func:`_pointed`).

    Each split of the k differentiation slots between the factors is one
    einsum, whose transposes route the a-side jet axes to each subset of
    slots.  Skipping an all-zero coefficient is a shortcut, not a branch:
    einsum sums into +0.0, so no term or sum of terms is -0.0, and a term
    that is zero at a point of a :func:`point_batch` leaves its bits.
    """
    N = a.nvars
    base, orders = _einsum_plan(spec, K, "ab")
    # which coefficients are worth a term: the value always is
    live_a = [True, *map(_live, a.coeffs[1:K + 1])]
    live_b = [True, *map(_live, b.coeffs[1:K + 1])]
    out = []
    for k, terms in enumerate(orders):
        acc = None
        for j, subs, placements in terms:
            if not (live_a[j] and live_b[k - j]):
                continue
            P = einsum(subs, a.coeffs[j], b.coeffs[k - j])
            for perm in placements:
                term = P if perm is None else P.transpose(perm)
                acc = term if acc is None else acc + term
        if acc is None:
            shape_probe = np.einsum(base, a.coeffs[0], b.coeffs[0]).shape
            acc = np.zeros(shape_probe + (N,) * k)
        out.append(acc)
    return Jet(N, K, out)


@lru_cache(maxsize=None)
def _linear_plan(spec: str, K: int) -> tuple:
    """The subscripts of :func:`jet_linear` per order k <= K."""
    ins, outs = spec.split("->")
    used = set(ins) | set(outs)
    pool = "".join(c for c in _LETTERS if c not in used)
    return tuple(f"{ins}{pool[:k]}->{outs}{pool[:k]}" for k in range(K + 1))


def jet_linear(spec: str, a: Jet) -> Jet:
    """Single-operand einsum (trace, transpose, diagonal) applied per order;
    a batched operand keeps its point axis, as in :func:`jet_einsum`."""
    spec, einsum = _pointed(spec, a.coeffs[0].ndim)
    subs = _linear_plan(spec, a.order)
    return Jet(a.nvars, a.order, [einsum(s, c) for s, c in zip(subs, a.coeffs)])


def jet_stack(jets) -> Jet:
    """Stack scalar-compatible jets along a new leading component axis."""
    jets = list(jets)
    first = next(j for j in jets if isinstance(j, Jet))
    jets = [_as_jet(j, first) for j in jets]
    K = min(j.order for j in jets)
    out = [np.stack([j.coeffs[k] for j in jets]) for k in range(K + 1)]
    return Jet(first.nvars, K, out)


def jet_matrix_inverse(a: Jet, order=None) -> Jet:
    """Inverse of a jet-valued square matrix (component shape (m, m), or
    (B, m, m) over the points of a block), to the order of ``a``, capped
    at ``order`` when given.

    Newton iteration X <- X (2I - A X); the number of correct Taylor orders
    doubles each step, so ceil(log2(order+1)) steps suffice.  Every order
    takes at least the two steps of order 3, the derivative budget:
    coefficient k of each step reads only coefficients up to k, so the
    inverse of an order-k jet is the order-3 inverse truncated, bit for bit.
    The cap therefore inverts ``a`` truncated to ``order``, with the same
    steps, and an inverse is built only to the order its readers keep.
    """
    if order is not None and order < a.order:
        a = a.truncated(order)
    a0 = a.coeffs[0]
    if a0.ndim not in (2, 3) or a0.shape[-2] != a0.shape[-1]:
        raise ValueError("jet_matrix_inverse expects a square matrix jet")
    # a stack of matrices gets each matrix's own cond and inverse, bit for bit
    cond = np.linalg.cond(a0)
    bad = ~(np.isfinite(cond) & (cond <= 1e12))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        one = a0 if a0.ndim == 2 else a0[i]
        cond = np.ravel(cond)[i]
        raise SingularMetricError(
            f"matrix is singular or ill-conditioned (cond={cond:.3e})",
            determinant=float(np.linalg.det(one)),
            condition=float(cond),
        )
    x = Jet.constant(np.linalg.inv(a0), a.nvars, a.order)
    eye = np.eye(a0.shape[-1])
    steps = max(2, math.ceil(math.log2(a.order + 1)))
    for _ in range(steps):
        ax = jet_einsum("im,mj->ij", a, x)
        corr = Jet(ax.nvars, ax.order, [eye - ax.coeffs[0]] + [-c for c in ax.coeffs[1:]])
        x = x + jet_einsum("im,mj->ij", x, corr)
    return x


# --------------------------------------------------------------------------
# generic math that accepts floats or jets
# --------------------------------------------------------------------------

def jexp(x):
    if isinstance(x, Jet):
        e = np.exp(x.coeffs[0])
        return x.compose([e] * (x.order + 1))
    return math.exp(float(x))


def _require(cond, msg):
    if not cond:
        raise DerivativeDomainError(msg)


def jlog(x):
    if isinstance(x, Jet):
        c = x.coeffs[0]
        _require(np.all(c > 0.0), "log of a non-positive value")
        # log' = x ** -1, so the rest is the reciprocal's table
        return x.compose([np.log(c)] + _power_derivs(c, -1.0, x.order - 1))
    xf = float(x)
    _require(xf > 0.0, "log of a non-positive value")
    return math.log(xf)


def jsin(x):
    if isinstance(x, Jet):
        c = x.coeffs[0]
        cycle = [np.sin(c), np.cos(c), -np.sin(c), -np.cos(c)]
        return x.compose([cycle[m % 4] for m in range(x.order + 1)])
    return math.sin(float(x))


def jcos(x):
    if isinstance(x, Jet):
        c = x.coeffs[0]
        cycle = [np.cos(c), -np.sin(c), -np.cos(c), np.sin(c)]
        return x.compose([cycle[m % 4] for m in range(x.order + 1)])
    return math.cos(float(x))


def jsqrt(x):
    if isinstance(x, Jet):
        c = x.coeffs[0]
        if x.order >= 1:
            _require(np.all(c > 0.0), "sqrt needs a positive argument")
        else:
            _require(np.all(c >= 0.0), "sqrt of a negative value")
        return x.compose(_power_derivs(c, 0.5, x.order))
    xf = float(x)
    _require(xf >= 0.0, "sqrt of a negative value")
    return math.sqrt(xf)


@lru_cache(maxsize=None)
def _tanh_poly(m: int):
    """Coefficients (low to high) of Q_m with tanh^(m) = Q_m(tanh)."""
    from numpy.polynomial import polynomial as P

    if m == 0:
        return (0.0, 1.0)
    prev = np.asarray(_tanh_poly(m - 1))
    dprev = P.polyder(prev)
    out = P.polymul(dprev, np.asarray((1.0, 0.0, -1.0)))
    return tuple(float(v) for v in out)


def jtanh(x):
    if isinstance(x, Jet):
        from numpy.polynomial import polynomial as P

        u = np.tanh(x.coeffs[0])
        derivs = [P.polyval(u, np.asarray(_tanh_poly(m))) for m in range(x.order + 1)]
        return x.compose(derivs)
    return math.tanh(float(x))


def jabs(x):
    if isinstance(x, Jet):
        c = x.coeffs[0]
        derivs = [np.abs(c), np.sign(c)] + [np.zeros_like(c)] * max(0, x.order - 1)
        return x.compose(derivs[: x.order + 1])
    return abs(float(x))


# --------------------------------------------------------------------------
# scalar fields and finite-difference steps
# --------------------------------------------------------------------------

# central-difference steps of :func:`fd_partial`, relative to the coordinate
FD_STEP_1 = 1e-5
FD_STEP_2 = 1e-4


class SeededPoint:
    """Coordinates handed to a scalar field: floats or scalar jets."""

    __slots__ = ("t", "x", "xs", "p", "n")

    def __init__(self, t, x, xs):
        self.t = t
        self.x = x
        self.xs = xs
        self.p = len(t)
        self.n = len(x)

    @staticmethod
    def of_flat(z, dims) -> "SeededPoint":
        """The point whose :meth:`flat` coordinates are ``z``."""
        p, n = dims
        base = p + n
        return SeededPoint(list(z[:p]), list(z[p:base]),
                           [list(z[base + i * p: base + (i + 1) * p]) for i in range(n)])

    def flat(self) -> list:
        """The coordinates in the order of :func:`coord_index`."""
        return [*self.t, *self.x, *(v for row in self.xs for v in row)]


class ScalarField:
    """A real-valued function of the jet coordinates.

    ``deps`` declares which coordinate groups the field may read ("t", "x",
    "xs").  Evaluation receives a :class:`SeededPoint` whose entries are
    floats or scalar jets; coordinates outside ``deps`` are seeded as
    constants, so their derivatives vanish identically.
    """

    deps: frozenset = frozenset(("t", "x", "xs"))

    def __call__(self, spt: SeededPoint):
        raise NotImplementedError

    @property
    def name(self) -> str:
        return getattr(self, "_name", self.__class__.__name__)


class PyField(ScalarField):
    """Wrap a plain python callable as a scalar field."""

    def __init__(self, fn, deps, name=None):
        self._fn = fn
        self.deps = frozenset(deps)
        bad = self.deps - {"t", "x", "xs"}
        if bad:
            raise ValueError(f"unknown dependency groups {sorted(bad)}")
        self._name = name or getattr(fn, "__name__", "field")

    def __call__(self, spt: SeededPoint):
        return self._fn(spt)


@lru_cache(maxsize=None)
def _seed_tables(N: int, order: int) -> tuple:
    """(the N x N identity, the zero coefficients of orders 1..``order``),
    read-only, shared by every seeded coordinate and by the velocity jets
    of every frame (:attr:`~jetlag.geometry.Frame.xs_jet`)."""
    tables = [np.eye(N)] + [np.zeros((N,) * k) for k in range(1, order + 1)]
    for t in tables:
        t.flags.writeable = False
    return tables[0], tables[1:]


def seed_point(pts, order: int, deps=frozenset(("t", "x", "xs"))) -> SeededPoint:
    """Seed points with scalar jets; non-dependency groups become constants.

    ``pts`` is one :class:`JetPoint`, seeded alone (component shape ()), or
    a sequence of B points of the same dims, seeded as one batch: each
    coordinate is then one jet whose value axis runs over the points
    (component shape (B,)), for a :func:`point_batch`.  The derivative
    coefficients are the same at every point, so they are broadcast,
    read-only views.
    """
    one = isinstance(pts, JetPoint)
    p, n = (pts if one else pts[0]).dims
    N = coord_count(p, n)
    values = pts.flat() if one else np.stack([pt.flat() for pt in pts], axis=1)
    comp = values.shape[1:]
    unit, zeros = _seed_tables(N, order)
    if comp:
        unit = np.broadcast_to(unit[:, None], (N,) + comp + (N,))
        zeros = [np.broadcast_to(c, comp + c.shape) for c in zeros]
    z = []
    # at order 0 there is no first-order slot; everything is a constant
    for k, group in enumerate(["t"] * p + ["x"] * n + ["xs"] * (n * p)):
        coeffs = [np.asarray(values[k]), *zeros]
        if group in deps and order >= 1:
            coeffs[1] = unit[k]
        z.append(Jet(N, order, coeffs))
    return SeededPoint.of_flat(z, (p, n))


def float_point(pt: JetPoint) -> SeededPoint:
    return SeededPoint.of_flat(pt.flat().tolist(), pt.dims)


def _field_value(res) -> float:
    if isinstance(res, Jet):
        return float(res.value)
    return float(res)


def eval_derivs(f: ScalarField, pt: JetPoint, wrt) -> float:
    """Mixed partial of ``f`` at ``pt`` with respect to the coordinate ids in
    ``wrt`` (order = len(wrt)), exact through Taylor arithmetic.
    """
    order = len(wrt)
    if order == 0:
        return _field_value(f(float_point(pt)))
    p, n = pt.dims
    spt = seed_point(pt, order, f.deps)
    res = f(spt)
    if not isinstance(res, Jet):
        return 0.0
    cur = res
    for cid in wrt:
        cur = cur.partial(coord_index(p, n, cid))
    return float(cur.value)


def fd_partial(f: ScalarField, pt: JetPoint, wrt) -> float:
    """Central finite-difference estimate of a first or second partial.

    Steps are relative: ``FD_STEP_1`` (first order) or ``FD_STEP_2``
    (second order) times max(1, |coordinate|).  Each stencil point shifts
    plain float copies of ``pt``'s flat coordinates, and ``f`` is called
    there alone.  This is :func:`check_grad`'s reference: its stencil batch
    gives these bits, and a group whose batch raises falls back to it.
    """
    order = len(wrt)
    if order not in (1, 2):
        raise OrderExceededError("finite differences support orders 1 and 2 only")
    dims = p, n = pt.dims
    z = pt.flat().tolist()

    def ev(*shifts) -> float:
        q = z.copy()
        for i, delta in shifts:
            q[i] += delta
        return _field_value(f(SeededPoint.of_flat(q, dims)))

    if order == 1:
        i = coord_index(p, n, wrt[0])
        h = FD_STEP_1 * max(1.0, abs(z[i]))
        return (ev((i, h)) - ev((i, -h))) / (2 * h)
    c1, c2 = wrt
    i, j = coord_index(p, n, c1), coord_index(p, n, c2)
    h1 = FD_STEP_2 * max(1.0, abs(z[i]))
    if c1 == c2:
        return (ev((i, h1)) - 2 * ev() + ev((i, -h1))) / (h1 * h1)
    h2 = FD_STEP_2 * max(1.0, abs(z[j]))
    fpp = ev((i, h1), (j, h2))
    fpm = ev((i, h1), (j, -h2))
    fmp = ev((i, -h1), (j, h2))
    fmm = ev((i, -h1), (j, -h2))
    return (fpp - fpm - fmp + fmm) / (4 * h1 * h2)


@dataclass
class AgreementReport:
    """Worst deviation between the Taylor and finite-difference paths."""

    max_rel_dev: float
    worst_point: int
    worst_wrt: tuple
    n_comparisons: int
    nan_flags: list


def _dep_coords(f: ScalarField, p: int, n: int):
    out = []
    if "t" in f.deps:
        out += [("t", a) for a in range(p)]
    if "x" in f.deps:
        out += [("x", i) for i in range(n)]
    if "xs" in f.deps:
        out += [("xs", i, a) for i in range(n) for a in range(p)]
    return out


def _probes(coords, dims) -> list:
    """``(wrt, ix)`` for every first and second partial over ``coords``, in
    the order :func:`check_grad` folds them: ``wrt`` the coordinate ids,
    ``ix`` their flat indices (:func:`coord_index`)."""
    idx = [coord_index(*dims, c) for c in coords]
    probes = [((c,), (i,)) for c, i in zip(coords, idx)]
    probes += [
        ((coords[k], coords[m]), (idx[k], idx[m]))
        for k in range(len(coords))
        for m in range(k, len(coords))
    ]
    return probes


def _taylor(res, ix) -> float:
    """The partial over flat indices ``ix`` read off ``res``, a field's
    order-2 Taylor value: ``coeffs[2][j, i]`` for ``ix = (i, j)``, the entry
    :func:`eval_derivs` reaches by taking ``.partial(i)`` then
    ``.partial(j)`` (the order-2 coefficient is not bitwise symmetric)."""
    # a field that ignores the seeded jets returns a plain number
    return float(res.coeffs[len(ix)][ix[::-1]]) if isinstance(res, Jet) else 0.0


def _fd_rows(grid, pts, probes) -> list:
    """:func:`fd_partial` of each field of ``grid`` for each probe at each
    point of ``pts``, as lists ``[point][field][probe]``.

    The stencil points of every probe at every point are one (rows, N)
    array, evaluated by one :meth:`~jetlag.field_expr.FieldGrid.rows` call,
    and the central-difference formulas are array expressions: the same
    IEEE operations on the same operands as :func:`fd_partial`, so each
    estimate has its bits.  Raises what that call raises.
    """
    z = np.array([pt.flat() for pt in pts])
    scale = np.maximum(1.0, np.abs(z))

    def shifted(*shifts):
        q = z.copy()
        for i, delta in shifts:
            q[:, i] += delta
        return q

    # per probe: its steps and its stencil points, in fd_partial's order
    stencils = []
    for _, ix in probes:
        i, j = ix[0], ix[-1]
        if len(ix) == 1:
            h = FD_STEP_1 * scale[:, i]
            stencils.append(((h,), [shifted((i, h)), shifted((i, -h))]))
        elif i == j:
            h = FD_STEP_2 * scale[:, i]
            stencils.append(((h,), [shifted((i, h)), z, shifted((i, -h))]))
        else:
            h1, h2 = FD_STEP_2 * scale[:, i], FD_STEP_2 * scale[:, j]
            stencils.append(((h1, h2), [
                shifted((i, h1), (j, h2)), shifted((i, h1), (j, -h2)),
                shifted((i, -h1), (j, h2)), shifted((i, -h1), (j, -h2))]))
    rows = np.concatenate([q for _, qs in stencils for q in qs])
    f = grid.rows(rows, pts[0].dims).reshape(len(grid.fields), -1, len(pts))
    fd, r = [], 0
    for h, qs in stencils:
        v = f[:, r:r + len(qs)]
        r += len(qs)
        if len(qs) == 2:  # first partial
            fd.append((v[:, 0] - v[:, 1]) / (2 * h[0]))
        elif len(qs) == 3:  # second partial in one coordinate
            fd.append((v[:, 0] - 2 * v[:, 1] + v[:, 2]) / (h[0] * h[0]))
        else:  # mixed second partial
            fd.append((v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4 * h[0] * h[1]))
    # (probe, field, point) -> [point][field][probe]
    return np.transpose(fd, (2, 1, 0)).tolist()


def _fold(rep: AgreementReport, ip: int, pairs):
    for wrt, a, b in pairs:
        if not (math.isfinite(a) and math.isfinite(b)):
            rep.nan_flags.append((ip, wrt))
            continue
        dev = abs(a - b) / max(1.0, abs(a), abs(b))
        rep.n_comparisons += 1
        if dev > rep.max_rel_dev:
            rep.max_rel_dev, rep.worst_point, rep.worst_wrt = dev, ip, wrt


def check_grad(f, pts):
    """Compare first and second partials between taylor and fd at each point.

    ``f`` is one field, or a sequence of fields; for a sequence the result
    is a list with one report per field, each the report that field gets
    alone.  The fields of one dependency group are evaluated together: one
    shared grid of all of them (:meth:`~jetlag.field_expr.FieldGrid.of`),
    run once at order 2 over every point
    (:meth:`~jetlag.field_expr.FieldGrid.stacked`, a single point seeded
    alone), and once at order 0 over every stencil point of every probe at
    every point (:func:`_fd_rows`).

    The Taylor side reads every probe off a field's order-2 jet
    (:func:`_taylor`).  The finite-difference side is :func:`fd_partial`'s
    estimate, bit for bit, from the stencil batch.  Only where either batch
    raises (a domain error, a guard, points that branch apart, or a field
    that is not an :class:`~jetlag.field_expr.ExprField`) is the group
    checked field by field, point by point, one probe at a time: each
    field's own order-2 jet, then :func:`fd_partial` per probe.  There, a
    domain or singular-metric error raised while a point is evaluated names
    that point as its ``witness``, and the error raised is the first
    field's, in order, that raises: the one checking the fields one at a
    time would meet first.  The reports are folded point by point, in probe
    order (:func:`_probes`), either way.
    """
    from .field_expr import FieldGrid  # field_expr builds on this module

    fields = [f] if isinstance(f, ScalarField) else list(f)
    reports = [AgreementReport(0.0, -1, (), 0, []) for _ in fields]
    errors = {}
    groups = {}
    for k, fld in enumerate(fields):
        groups.setdefault(frozenset(fld.deps), []).append(k)
    for deps, members in groups.items():
        grid = FieldGrid.of([fields[k] for k in members])
        if not (deps and pts):
            continue  # no coordinate or no point to probe
        dims = pts[0].dims
        probes = _probes(_dep_coords(grid.fields[0], *dims), dims)
        try:
            jet = grid.stacked(pts, 2)
            fds = _fd_rows(grid, pts, probes)
        except (JetlagError, BatchDiverged):
            pass  # field by field, below: each keeps its error and witness
        else:
            for ip in range(len(pts)):
                for j, k in enumerate(members):
                    res = jet[ip, j]
                    _fold(reports[k], ip, [
                        (wrt, _taylor(res, ix), b)
                        for (wrt, ix), b in zip(probes, fds[ip][j])])
            continue
        for ip, pt in enumerate(pts):
            for k in members:
                if k in errors:
                    continue
                fld = fields[k]
                try:
                    res = fld(seed_point(pt, 2, deps))
                    pairs = [(wrt, _taylor(res, ix), fd_partial(fld, pt, list(wrt)))
                             for wrt, ix in probes]
                except JetlagError as exc:
                    errors[k] = name_witness(exc, pt)
                    continue
                _fold(reports[k], ip, pairs)
    if errors:
        raise errors[min(errors)]
    return reports[0] if isinstance(f, ScalarField) else reports
