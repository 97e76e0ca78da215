"""Typed dense d-tensors over a temporal index range 1..p and a spatial one
1..n, with contraction, symmetric inversion, and index raising/lowering.

A tensor's signature is an ordered list of logical index slots.  Temporal and
spatial slots occupy one storage axis each (extent p and n).  A vertical slot
is a bound pair occupying two adjacent storage axes, stored (spatial,
temporal): vertical-up means (spatial-up, temporal-down), vertical-down means
(spatial-down, temporal-up).  Splitting a vertical slot into its constituents
is a free reinterpretation of the same storage.

Components are dense float64 arrays, row-major over the signature, immutable
by convention.  Indices are 0-based internally, 1-based in messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractMismatchError,
    RaiseLowerMismatchError,
    SingularMetricError,
)

__all__ = [
    "IndexSlot",
    "T_UP",
    "T_DN",
    "S_UP",
    "S_DN",
    "V_UP",
    "V_DN",
    "DTensor",
    "contract",
    "sym_inverse",
    "raise_lower",
    "split_vertical",
    "bind_vertical",
]


@dataclass(frozen=True)
class IndexSlot:
    """One logical tensor index: family and variance."""

    family: str  # "temporal" | "spatial" | "vertical"
    up: bool

    def __post_init__(self):
        if self.family not in ("temporal", "spatial", "vertical"):
            raise ValueError(f"unknown index family {self.family!r}")

    @property
    def storage_axes(self) -> int:
        return 2 if self.family == "vertical" else 1

    def extents(self, p: int, n: int):
        if self.family == "temporal":
            return (p,)
        if self.family == "spatial":
            return (n,)
        return (n, p)

    def constituents(self):
        """Storage-axis slots of a vertical pair: (spatial, temporal)."""
        if self.family != "vertical":
            return (self,)
        return (
            IndexSlot("spatial", self.up),
            IndexSlot("temporal", not self.up),
        )

    def __repr__(self):
        arrow = "up" if self.up else "dn"
        return f"{self.family[0]}:{arrow}"


T_UP = IndexSlot("temporal", True)
T_DN = IndexSlot("temporal", False)
S_UP = IndexSlot("spatial", True)
S_DN = IndexSlot("spatial", False)
V_UP = IndexSlot("vertical", True)
V_DN = IndexSlot("vertical", False)


class DTensor:
    """Dense tensor with a typed signature; see module docstring."""

    __slots__ = ("signature", "dims", "components")

    def __init__(self, signature, dims, components, check=True):
        signature = tuple(signature)
        p, n = dims
        comp = np.asarray(components, dtype=float)
        expect = tuple(e for s in signature for e in s.extents(p, n))
        if comp.shape != expect:
            raise ValueError(
                f"components shape {comp.shape} does not match signature "
                f"{signature} with (p,n)=({p},{n}); expected {expect}"
            )
        if check and comp.size and not np.all(np.isfinite(comp)):
            raise ValueError("tensor components must be finite")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "dims", (p, n))
        object.__setattr__(self, "components", comp)

    def __setattr__(self, *a):
        raise AttributeError("DTensor is immutable")

    @property
    def rank(self) -> int:
        return len(self.signature)

    def storage_offset(self, logical: int) -> int:
        if not 0 <= logical < len(self.signature):
            raise IndexError(
                f"logical axis {logical} out of range for rank {self.rank}"
            )
        return sum(s.storage_axes for s in self.signature[:logical])

    def __repr__(self):
        return (
            f"DTensor({list(self.signature)}, dims={self.dims}, "
            f"shape={self.components.shape})"
        )


def contract(a: DTensor, axis_up: int, axis_dn: int) -> DTensor:
    """Sum over a matched up/down pair of logical axes.

    Both axes must share a family and have opposite variance; a vertical axis
    may be contracted against a vertical axis of opposite variance, summing
    both constituent storage axes.
    """
    if axis_up == axis_dn:
        raise ContractMismatchError("cannot contract an axis with itself")
    su, sd = a.signature[axis_up], a.signature[axis_dn]
    if su.family != sd.family:
        raise ContractMismatchError(
            f"family mismatch: axis {axis_up + 1} is {su.family}, "
            f"axis {axis_dn + 1} is {sd.family}"
        )
    if not (su.up and not sd.up):
        raise ContractMismatchError(
            f"variance mismatch: axis {axis_up + 1} must be up and "
            f"axis {axis_dn + 1} down; got {su} and {sd}"
        )
    ou, od = a.storage_offset(axis_up), a.storage_offset(axis_dn)
    if su.family == "vertical":
        # spatial with spatial, temporal with temporal
        comp = _trace_pair(a.components, (ou, od), (ou + 1, od + 1))
    else:
        comp = np.trace(a.components, axis1=ou, axis2=od)
    sig = tuple(
        s
        for k, s in enumerate(a.signature)
        if k not in (axis_up, axis_dn)
    )
    return DTensor(sig, a.dims, comp)


def _trace_pair(arr: np.ndarray, pair1, pair2) -> np.ndarray:
    letters = "abcdefghijklmnopqrstuvwxyz"
    nd = arr.ndim
    labels = list(letters[:nd])
    labels[pair1[1]] = labels[pair1[0]]
    labels[pair2[1]] = labels[pair2[0]]
    out = [
        labels[k]
        for k in range(nd)
        if k not in (pair1[0], pair1[1], pair2[0], pair2[1])
    ]
    return np.einsum("".join(labels) + "->" + "".join(out), arr)


def sym_inverse(m: DTensor, cond_limit: float = 1e12) -> DTensor:
    """Inverse of a symmetric rank-2 same-family tensor; variance flips.

    The matrix must be symmetric to 1e-12 (relative to its magnitude) and
    have condition number at most ``cond_limit``.
    """
    if m.rank != 2:
        raise ValueError(f"sym_inverse needs a rank-2 tensor, got rank {m.rank}")
    s1, s2 = m.signature
    if s1.family != s2.family or s1.family == "vertical":
        raise ValueError(
            f"sym_inverse needs two indices of one scalar family, got {s1}, {s2}"
        )
    if s1.up != s2.up:
        raise ValueError("sym_inverse needs both indices of one variance")
    arr = m.components
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
    asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if asym > 1e-12 * scale:
        raise ValueError(
            f"matrix is not symmetric: max |m - m^T| = {asym:.3e}"
        )
    cond = float(np.linalg.cond(arr))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMetricError(
            f"metric is singular or ill-conditioned (cond={cond:.3e})",
            determinant=float(np.linalg.det(arr)),
            condition=cond,
        )
    inv = np.linalg.inv(arr)
    inv = 0.5 * (inv + inv.T)
    flipped = IndexSlot(s1.family, not s1.up)
    return DTensor((flipped, flipped), m.dims, inv)


def raise_lower(a: DTensor, axis: int, metric: DTensor) -> DTensor:
    """Flip the variance of one scalar logical axis using a metric.

    Raising a down axis needs an up-up metric; lowering an up axis needs a
    down-down metric.  The metric family must match the axis family.
    """
    slot = a.signature[axis]
    if slot.family == "vertical":
        raise RaiseLowerMismatchError(
            "cannot raise/lower a bound vertical pair in one step; "
            "split it first (split_vertical)"
        )
    if metric.rank != 2:
        raise RaiseLowerMismatchError("metric must be rank 2")
    m1, m2 = metric.signature
    if m1 != m2 or m1.family == "vertical":
        raise RaiseLowerMismatchError(
            f"metric must carry two identical scalar-family indices, got {m1}, {m2}"
        )
    if m1.family != slot.family:
        raise RaiseLowerMismatchError(
            f"family mismatch: axis is {slot.family}, metric is {m1.family}"
        )
    if m1.up == slot.up:
        want = "up-up" if not slot.up else "down-down"
        raise RaiseLowerMismatchError(
            f"variance mismatch: axis {slot} needs a {want} metric"
        )
    off = a.storage_offset(axis)
    comp = np.tensordot(metric.components, a.components, axes=([1], [off]))
    comp = np.moveaxis(comp, 0, off)
    sig = list(a.signature)
    sig[axis] = IndexSlot(slot.family, not slot.up)
    return DTensor(tuple(sig), a.dims, comp)


def split_vertical(a: DTensor, axis: int) -> DTensor:
    """Reinterpret one vertical logical axis as its two scalar constituents.

    Storage is unchanged; only the signature splits.
    """
    slot = a.signature[axis]
    if slot.family != "vertical":
        raise ValueError(f"axis {axis + 1} is {slot.family}, not vertical")
    sig = a.signature[:axis] + slot.constituents() + a.signature[axis + 1:]
    return DTensor(sig, a.dims, a.components)


def bind_vertical(a: DTensor, axis: int) -> DTensor:
    """Bind a (spatial, temporal) slot pair at ``axis`` into one vertical slot.

    The pair must have the layout of a vertical index: opposite variances with
    the spatial axis first.
    """
    if axis + 1 >= len(a.signature):
        raise ValueError("need two adjacent axes to bind")
    s1, s2 = a.signature[axis], a.signature[axis + 1]
    if not (
        s1.family == "spatial"
        and s2.family == "temporal"
        and s1.up != s2.up
    ):
        raise ValueError(
            f"axes {axis + 1},{axis + 2} are {s1},{s2}; a vertical pair is "
            "(spatial, temporal) with opposite variances"
        )
    sig = a.signature[:axis] + (IndexSlot("vertical", s1.up),) + a.signature[axis + 2:]
    return DTensor(sig, a.dims, a.components)
