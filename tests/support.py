"""Shared fixture data: metric sources and context builders used across suites.

Everything here is plain construction; the numerical claims live in the test
modules and in oracles.py.
"""
import numpy as np

from jetlag.field_expr import ExprField
from jetlag.geometry import (
    ChristoffelOfPhi,
    DirectMetric,
    GeometryContext,
    QuadraticCanonical,
)


def grid(src_rows, dims, deps):
    """Matrix of expression texts -> object array of ExprFields."""
    return np.array(
        [[ExprField(s, dims, deps) for s in row] for row in src_rows],
        dtype=object,
    )


# The einsum plans that sum two or more letters and, stacked over the points
# of a mixed33-deep block, move bits: at such a layout each runs one point
# at a time (diff_engine._per_point).
DRIFTING_PLANS = ("ab,iajb->ij", "muil,lmu->i", "muialc,lcmu->ia",
                  "muiajb,jbmu->ia")


def point_pairs(pairs, k=0):
    """(residual value, constituent-term values) of each (residual, terms)
    pair of frame jets in ``pairs``, at point ``k`` of their frame."""
    return [(res.value[k], tuple(t.value[k] for t in terms)) for res, terms in pairs]


def ident_src(k):
    return [["1" if i == j else "0" for j in range(k)] for i in range(k)]


# --------------------------------------------------------------------------
# (2,2) building blocks
# --------------------------------------------------------------------------

# curved temporal metric shared by most 2x2 fixtures
H22_SRC = [
    ["1+0.3*t[1]^2+0.1*t[2]", "0.2*t[1]*t[2]"],
    ["0.2*t[1]*t[2]", "2+sin(t[2])*0.3"],
]


def h22_at(tv):
    """The same temporal metric as H22_SRC, as a plain numpy callable."""
    t1, t2 = tv
    return np.array(
        [
            [1 + 0.3 * t1 * t1 + 0.1 * t2, 0.2 * t1 * t2],
            [0.2 * t1 * t2, 2 + np.sin(t2) * 0.3],
        ]
    )


PHI22_SRC = [
    ["1+0.3*x[2]^2", "0.1*x[1]*x[2]"],
    ["0.1*x[1]*x[2]", "2+0.2*x[1]^2"],
]

SIG22 = "0.2*(xs[1][1]^2+xs[1][2]^2)+0.1*t[1]*x[1]"

# curved spatial metric depending on t and x but not on the fibre
G_TDEP_SRC = [
    ["(1+0.2*t[1])*(1+0.3*x[2]^2)", "0.1*x[1]*x[2]*t[2]"],
    ["0.1*x[1]*x[2]*t[2]", "2+0.2*x[1]^2+0.1*t[1]^2"],
]

# curved spatial metric depending on x alone
G_XDEP_SRC = [
    ["1+0.3*x[2]^2", "0.1*x[1]*x[2]"],
    ["0.1*x[1]*x[2]", "2+0.2*x[1]^2"],
]


def conformal_g_src(sigma, phi_src):
    k = len(phi_src)
    return [
        [f"exp(2*({sigma}))*({phi_src[i][j]})" for j in range(k)]
        for i in range(k)
    ]


def mixed22_ctx():
    """Direction-dependent conformal-style metric with the phi connection."""
    dims = (2, 2)
    g_src = conformal_g_src(SIG22, PHI22_SRC)
    return GeometryContext(
        2,
        2,
        grid(H22_SRC, dims, ("t",)),
        DirectMetric(grid(g_src, dims, ("t", "x", "xs"))),
        ChristoffelOfPhi(grid(PHI22_SRC, dims, ("x",))),
    )


def curved_h_ctx():
    """Curved h, identity g: the semi-Riemannian comparison space."""
    dims = (2, 2)
    return GeometryContext(
        2,
        2,
        grid(H22_SRC, dims, ("t",)),
        DirectMetric(grid(ident_src(2), dims, ())),
        QuadraticCanonical(),
    )


def tdep_g_ctx():
    dims = (2, 2)
    return GeometryContext(
        2,
        2,
        grid(H22_SRC, dims, ("t",)),
        DirectMetric(grid(G_TDEP_SRC, dims, ("t", "x"))),
        QuadraticCanonical(),
    )


def xdep_g_ctx():
    dims = (2, 2)
    return GeometryContext(
        2,
        2,
        grid(H22_SRC, dims, ("t",)),
        DirectMetric(grid(G_XDEP_SRC, dims, ("x",))),
        QuadraticCanonical(),
    )


# --------------------------------------------------------------------------
# (3,3) building blocks
# --------------------------------------------------------------------------

H33_SRC = [
    ["1+0.2*t[1]^2", "0.1*t[1]*t[2]", "0"],
    ["0.1*t[1]*t[2]", "2+0.1*sin(t[2])", "0.05*t[3]"],
    ["0", "0.05*t[3]", "1.5+0.1*t[3]^2"],
]

PHI33_SRC = [
    ["1+0.2*x[2]^2", "0.1*x[1]*x[3]", "0"],
    ["0.1*x[1]*x[3]", "2+0.1*x[1]^2", "0.05*x[2]"],
    ["0", "0.05*x[2]", "1+0.1*x[3]^2"],
]

SIG33 = "0.1*(xs[1][1]^2+xs[2][2]^2)+0.05*xs[3][1]*xs[1][3]+0.05*t[1]*x[2]"

G33_XDEP_SRC = PHI33_SRC


def mixed33_ctx(K=1.0):
    dims = (3, 3)
    g_src = conformal_g_src(SIG33, PHI33_SRC)
    return GeometryContext(
        3,
        3,
        grid(H33_SRC, dims, ("t",)),
        DirectMetric(grid(g_src, dims, ("t", "x", "xs"))),
        ChristoffelOfPhi(grid(PHI33_SRC, dims, ("x",))),
        K=K,
    )


def xdep33_ctx(K=1.0):
    dims = (3, 3)
    return GeometryContext(
        3,
        3,
        grid(H33_SRC, dims, ("t",)),
        DirectMetric(grid(G33_XDEP_SRC, dims, ("x",))),
        QuadraticCanonical(),
        K=K,
    )


def record_grid_calls(monkeypatch) -> list:
    """(grid, order, batch size) of every jet-seeded FieldGrid call from now
    on; the batch size of a point seeded alone is 0."""
    from jetlag.diff_engine import Jet
    from jetlag.field_expr import FieldGrid

    calls = []
    call = FieldGrid.__call__

    def recording(self, zs, dims):
        z = zs[0][0]
        if isinstance(z, Jet):
            calls.append((self, z.order, z.value.size if z.value.ndim else 0))
        return call(self, zs, dims)

    monkeypatch.setattr(FieldGrid, "__call__", recording)
    return calls
