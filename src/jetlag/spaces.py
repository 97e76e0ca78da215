"""Built-in example spaces.

Constructors for the flat, quadratic, conformally deformed and optic
vertical metrics, each returning a ready :class:`GeometryContext` wired to
the spatial connection that construction calls for.  All field data enters
as expression text and the realized metric is composed textually, so every
built-in space stays inside the expression grammar: its fields can be
printed, re-parsed and shipped through run configurations unchanged.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .diff_engine import seed_point
from .errors import (
    ConfigError,
    FieldValidationError,
    ParseError,
    RegularityViolationError,
)
from .field_expr import ExprField
from .geometry import (
    ChristoffelOfPhi,
    DirectMetric,
    FromLagrangian,
    GeometryContext,
    QuadraticCanonical,
    UserGiven,
)

__all__ = [
    "QuadraticContext",
    "ConformalContext",
    "OpticContext",
    "make_flat",
    "make_quadratic",
    "make_conformal",
    "make_optic",
    "optic_inverse_closed",
    "quadratic_lagrangian",
    "build_space",
    "space_names",
]


# --------------------------------------------------------------------------
# text plumbing
# --------------------------------------------------------------------------

def _square(entries, what, tail=()) -> tuple:
    """(texts, k): ``entries`` as a (k, *tail, k) grid of expression texts,
    k its leading extent."""
    arr = np.asarray(entries, dtype=object)
    k = arr.shape[0] if arr.ndim else 1
    return _texts(arr, (k, *tail, k), what), k


def _finite_real(v, what) -> float:
    """``v`` as a float, or a named error unless it is a finite number (a
    bool is not)."""
    try:
        if not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an int too large for a float
        pass
    raise ConfigError(f"{what} must be a finite number, got {v!r}")


def _texts(entries, shape, what) -> np.ndarray:
    """Coerce a nested sequence of expression texts to an object array."""
    arr = np.asarray(entries, dtype=object)
    if arr.shape != tuple(shape):
        raise ConfigError(
            f"{what} must have shape {tuple(shape)}, got {arr.shape}"
        )
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        if isinstance(v, str):
            out[idx] = v
        elif isinstance(v, numbers.Real) and not isinstance(v, bool):
            out[idx] = repr(float(v))
        else:
            loc = "".join(f"[{k + 1}]" for k in idx)
            raise ConfigError(
                f"{what}{loc} must be expression text or a number, "
                f"got {type(v).__name__}"
            )
    return out


def _fields(texts, dims, deps, label, guard=None) -> np.ndarray:
    """Parse an object array of texts into ExprFields with shared deps and
    an optional domain ``guard`` (see :class:`ExprField`)."""
    out = np.empty(texts.shape, dtype=object)
    for idx in np.ndindex(texts.shape):
        name = label + "".join(f"[{k + 1}]" for k in idx)
        out[idx] = _named(lambda: ExprField(texts[idx], dims, deps=deps,
                                            name=name, guard=guard), name)
    return out


def _named(make, name):
    """Run a field constructor, prefixing any parse error with the field name."""
    try:
        return make()
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}", offset=exc.offset,
                         expected=exc.expected, excerpt=exc.excerpt) from None


def _scalar_field(src, dims, deps, name) -> ExprField:
    return _named(lambda: ExprField(src, dims, deps=deps, name=name), name)


def _eye_texts(k: int) -> np.ndarray:
    out = np.empty((k, k), dtype=object)
    for i in range(k):
        for j in range(k):
            out[i, j] = "1" if i == j else "0"
    return out


def _sum(terms) -> str:
    return " + ".join(terms) if terms else "0"


def _det2(a, b, c, d) -> str:
    return f"(({a})*({d}) - ({b})*({c}))"


def _h_inverse_texts(h: np.ndarray, p: int) -> np.ndarray:
    """Entrywise expression texts of h^{ab}, by cofactor expansion.

    Hand expansion stops being reasonable past 3x3; the built-in spaces
    never need more.
    """
    if p == 1:
        out = np.empty((1, 1), dtype=object)
        out[0, 0] = f"1/({h[0, 0]})"
        return out
    if p == 2:
        det = _det2(h[0, 0], h[0, 1], h[1, 0], h[1, 1])
        out = np.empty((2, 2), dtype=object)
        out[0, 0] = f"({h[1, 1]})/{det}"
        out[0, 1] = f"-(({h[0, 1]}))/{det}"
        out[1, 0] = f"-(({h[1, 0]}))/{det}"
        out[1, 1] = f"({h[0, 0]})/{det}"
        return out
    if p == 3:
        def cof(r, c):
            rs = [i for i in range(3) if i != r]
            cs = [j for j in range(3) if j != c]
            m = _det2(h[rs[0], cs[0]], h[rs[0], cs[1]],
                      h[rs[1], cs[0]], h[rs[1], cs[1]])
            return m if (r + c) % 2 == 0 else f"(-{m})"

        det = _sum(f"({h[0, c]})*({cof(0, c)})" for c in range(3))
        out = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                # adjugate transposes the cofactor matrix
                out[i, j] = f"({cof(j, i)})/({det})"
        return out
    raise ConfigError(
        f"textual inverse of h is only available for p <= 3 "
        f"(cofactor expansion), got p={p}"
    )


def _eval0(fld, pt) -> float:
    res = fld(seed_point(pt, 0, fld.deps))
    return float(getattr(res, "value", res))


# --------------------------------------------------------------------------
# contexts with extra structure
# --------------------------------------------------------------------------

class QuadraticContext(GeometryContext):
    """Canonical space of a quadratic Lagrangian.

    Carries the linear and scalar pieces (geometry-inert: the vertical
    Hessian drops them) plus the assembled Lagrangian itself for
    regularity probes.
    """

    def __init__(self, p, n, h, g_source, nlc, *, U_fields, F_field,
                 lagrangian, K=1.0):
        super().__init__(p, n, h, g_source, nlc, K=K)
        self.U_fields = U_fields
        self.F_field = F_field
        self.lagrangian = lagrangian


class ConformalContext(GeometryContext):
    """Conformal deformation g = e^{2 sigma} phi of a static spatial metric."""

    def __init__(self, p, n, h, g_source, nlc, *, phi_fields, sigma_field,
                 variant, K=1.0):
        super().__init__(p, n, h, g_source, nlc, K=K)
        self.phi_fields = phi_fields
        self.sigma_field = sigma_field
        self.variant = variant


class OpticContext(GeometryContext):
    """Optic deformation g = phi + (1 - 1/n) Y Y of a static spatial metric."""

    def __init__(self, p, n, h, g_source, nlc, *, phi_fields, n_field,
                 X_fields, K=1.0):
        super().__init__(p, n, h, g_source, nlc, K=K)
        self.phi_fields = phi_fields
        self.n_field = n_field
        self.X_fields = X_fields


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def make_flat(p: int, n: int, *, K: float = 1.0) -> GeometryContext:
    """Identity temporal and vertical metrics; every curvature object vanishes."""
    if p < 1 or n < 1:
        raise ConfigError(f"dimensions must be positive, got p={p}, n={n}")
    dims = (p, n)
    h = _fields(_eye_texts(p), dims, ("t",), "h")
    g = _fields(_eye_texts(n), dims, ("t", "x"), "g")
    return GeometryContext(p, n, h, DirectMetric(g), QuadraticCanonical(), K=K)


def quadratic_lagrangian(h, g, U=None, F=None) -> ExprField:
    """The quadratic Lagrangian h^{ab}(t) g_{ij}(t,x) xs^i_a xs^j_b
    + U^{(a)}_{(i)}(t,x) xs^i_a + F(t,x), as one expression field.

    Accepts the same text grids as :func:`make_quadratic`; its vertical
    half-Hessian splits as h^{ab} g_{ij}, so the canonical metric the
    regularity probe extracts is g itself.
    """
    h, p = _square(h, "h")
    g, n = _square(g, "g")
    dims = (p, n)
    hinv = _h_inverse_texts(h, p)
    terms = [
        f"({hinv[a, b]})*({g[i, j]})*xs[{i + 1}][{a + 1}]*xs[{j + 1}][{b + 1}]"
        for a in range(p) for b in range(p)
        for i in range(n) for j in range(n)
    ]
    if U is not None:
        U = _texts(U, (n, p), "U")
        terms += [
            f"({U[i, a]})*xs[{i + 1}][{a + 1}]"
            for i in range(n) for a in range(p)
        ]
    if F is not None:
        F = _texts(np.asarray([F], dtype=object), (1,), "F")[0]
        terms.append(f"({F})")
    return _scalar_field(_sum(terms), dims, ("t", "x", "xs"), "L")


def make_quadratic(h, g, U=None, F=None, *, K: float = 1.0) -> QuadraticContext:
    """Canonical space of the quadratic Lagrangian over g_{ij}(t, x).

    g must not depend on the fibre coordinates: the canonical spatial
    connection differentiates g along t, which only closes for
    direction-independent metrics.
    """
    h, p = _square(h, "h")
    g, n = _square(g, "g")
    dims = (p, n)
    h_fields = _fields(h, dims, ("t",), "h")
    try:
        g_fields = _fields(g, dims, ("t", "x"), "g")
    except FieldValidationError as exc:
        raise RegularityViolationError(
            f"quadratic g must be independent of the fibre coordinates: {exc}",
            witness=exc.violations,
        ) from exc
    U_fields = None
    if U is not None:
        U_fields = _fields(_texts(U, (n, p), "U"), dims, ("t", "x"), "U")
    F_field = None
    if F is not None:
        F_text = _texts(np.asarray([F], dtype=object), (1,), "F")[0]
        F_field = _scalar_field(F_text, dims, ("t", "x"), "F")
    lagrangian = quadratic_lagrangian(h, g, U=U, F=F) if p <= 3 else None
    return QuadraticContext(
        p, n, h_fields, DirectMetric(g_fields), QuadraticCanonical(),
        U_fields=U_fields, F_field=F_field, lagrangian=lagrangian, K=K,
    )


def _sigma_text(variant, params, p, n, h, phi) -> str:
    if variant == "i":
        U = _texts(params, (n, p), "U")
        return _sum(
            f"({U[i, a]})*xs[{i + 1}][{a + 1}]"
            for i in range(n) for a in range(p)
        )
    if variant == "ii":
        A = _texts(params, (n,), "A")
        hinv = _h_inverse_texts(h, p)
        return _sum(
            f"({hinv[a, b]})*({A[i]})*({A[j]})"
            f"*xs[{i + 1}][{a + 1}]*xs[{j + 1}][{b + 1}]"
            for a in range(p) for b in range(p)
            for i in range(n) for j in range(n)
        )
    if variant == "iii":
        X = _texts(params, (p,), "X")
        return _sum(
            f"({phi[i, j]})*({X[a]})*({X[b]})"
            f"*xs[{i + 1}][{a + 1}]*xs[{j + 1}][{b + 1}]"
            for i in range(n) for j in range(n)
            for a in range(p) for b in range(p)
        )
    raise ConfigError(
        f"conformal variant must be 'i', 'ii' or 'iii', got {variant!r}"
    )


def make_conformal(h, phi, variant, params, *, K: float = 1.0) -> ConformalContext:
    """Space with g = e^{2 sigma} phi_{ij}(x) and the static-metric connection.

    ``variant`` selects the shape of sigma and what ``params`` holds:

    * ``"i"``   sigma = U^{(a)}_{(i)}(t,x) xs^i_a; params is the (n, p)
      grid U.
    * ``"ii"``  sigma = h^{ab}(t) A_i(x) A_j(x) xs^i_a xs^j_b; params is
      the covector A.
    * ``"iii"`` sigma = phi_{ij}(x) X^a(t) X^b(t) xs^i_a xs^j_b; params is
      the vector X.
    """
    h, p = _square(h, "h")
    phi, n = _square(phi, "phi")
    dims = (p, n)
    h_fields = _fields(h, dims, ("t",), "h")
    phi_fields = _fields(phi, dims, ("x",), "phi")
    # dependency shapes of the sigma ingredients are pinned per variant
    if variant == "i":
        _fields(_texts(params, (n, p), "U"), dims, ("t", "x"), "U")
    elif variant == "ii":
        _fields(_texts(params, (n,), "A"), dims, ("x",), "A")
    elif variant == "iii":
        _fields(_texts(params, (p,), "X"), dims, ("t",), "X")
    sigma = _sigma_text(variant, params, p, n, h, phi)
    sigma_field = _scalar_field(sigma, dims, ("t", "x", "xs"), "sigma")
    g_texts = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g_texts[i, j] = f"exp(2*({sigma}))*({phi[i, j]})"
    g_fields = _fields(g_texts, dims, ("t", "x", "xs"), "g")
    return ConformalContext(
        p, n, h_fields, DirectMetric(g_fields), ChristoffelOfPhi(phi_fields),
        phi_fields=phi_fields, sigma_field=sigma_field, variant=variant, K=K,
    )


def make_optic(h, phi, n_expr, X, *, K: float = 1.0) -> OpticContext:
    """Space with g = phi_{ij} + (1 - 1/n) Y_i Y_j, Y_i = phi_{im} xs^m_u X^u.

    n is the refraction index of the medium, a scalar field on the whole
    bundle with range [1, oo); X^a(t) is the observation direction.  Every
    metric entry guards the n >= 1 domain at evaluation time.
    """
    h, p = _square(h, "h")
    phi, n = _square(phi, "phi")
    dims = (p, n)
    h_fields = _fields(h, dims, ("t",), "h")
    phi_fields = _fields(phi, dims, ("x",), "phi")
    n_text = _texts(np.asarray([n_expr], dtype=object), (1,), "n")[0]
    n_field = _scalar_field(n_text, dims, ("t", "x", "xs"), "n")
    X = _texts(X, (p,), "X")
    X_fields = _fields(X, dims, ("t",), "X")
    Y = [
        _sum(
            f"({phi[i, m]})*xs[{m + 1}][{u + 1}]*({X[u]})"
            for m in range(n) for u in range(p)
        )
        for i in range(n)
    ]
    g_texts = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g_texts[i, j] = (
                f"({phi[i, j]}) + (1 - 1/({n_text}))*({Y[i]})*({Y[j]})"
            )
    g_fields = _fields(g_texts, dims, ("t", "x", "xs"), "g",
                       guard=("refraction index", n_field))
    return OpticContext(
        p, n, h_fields, DirectMetric(g_fields), ChristoffelOfPhi(phi_fields),
        phi_fields=phi_fields, n_field=n_field, X_fields=X_fields, K=K,
    )


def optic_inverse_closed(ctx: OpticContext, pt) -> np.ndarray:
    """The stated closed form of the optic inverse metric at ``pt``.

    Evaluates phi^{ij} + [(1 - 1/n) / (1 + (1 - 1/n) Y^2)] Y^i Y^j with
    Y^i = phi^{ir} Y_r and Y^2 = Y^m Y_m, exactly as that expression
    stands.  It exists to be compared against the numeric inverse of the
    realized g, which stays authoritative downstream.
    """
    if not isinstance(ctx, OpticContext):
        raise TypeError("optic_inverse_closed needs a context from make_optic")
    n = ctx.n
    phi = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            phi[i, j] = _eval0(ctx.phi_fields[i, j], pt)
    Xv = np.array([_eval0(f, pt) for f in ctx.X_fields], dtype=float)
    nval = _eval0(ctx.n_field, pt)
    Y = np.einsum("im,mu,u->i", phi, np.asarray(pt.xs, dtype=float), Xv)
    phi_inv = np.linalg.inv(phi)
    Y_up = phi_inv @ Y
    Y2 = float(Y_up @ Y)
    c = 1.0 - 1.0 / nval
    return phi_inv + (c / (1.0 + c * Y2)) * np.outer(Y_up, Y_up)


# --------------------------------------------------------------------------
# name + parameter-map front door
# --------------------------------------------------------------------------

def _take(params: dict, allowed, required, where: str) -> dict:
    extra = sorted(set(params) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown keys {extra}; allowed {sorted(allowed)}")
    missing = sorted(set(required) - set(params))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    return params


def _int_param(params, key, where) -> int:
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    return int(v)


def _build_flat(params, K):
    _take(params, {"p", "n", "K"}, {"p", "n"}, "flat")
    return make_flat(_int_param(params, "p", "flat"),
                     _int_param(params, "n", "flat"), K=K)


def _build_quadratic(params, K):
    _take(params, {"h", "g", "U", "F", "K"}, {"h", "g"}, "quadratic")
    return make_quadratic(params["h"], params["g"],
                          U=params.get("U"), F=params.get("F"), K=K)


def _build_conformal(params, K):
    _take(params, {"h", "phi", "variant", "U", "A", "X", "K"},
          {"h", "phi", "variant"}, "conformal")
    variant = params["variant"]
    key = isinstance(variant, str) and {"i": "U", "ii": "A", "iii": "X"}.get(variant)
    if not key:
        raise ConfigError(
            f"conformal.variant must be 'i', 'ii' or 'iii', got {variant!r}"
        )
    if key not in params:
        raise ConfigError(f"conformal variant {variant!r} needs key {key!r}")
    stray = {"U", "A", "X"} & set(params) - {key}
    if stray:
        raise ConfigError(
            f"conformal variant {variant!r} takes only {key!r}, "
            f"got {sorted(stray)} as well"
        )
    return make_conformal(params["h"], params["phi"], variant, params[key], K=K)


def _build_optic(params, K):
    _take(params, {"h", "phi", "n", "X", "K"}, {"h", "phi", "n", "X"}, "optic")
    return make_optic(params["h"], params["phi"], params["n"], params["X"], K=K)


def _build_custom(params, K):
    _take(params, {"h", "g", "lagrangian", "nlc", "K"}, {"h", "nlc"}, "custom")
    h, p = _square(params["h"], "h")
    if ("g" in params) == ("lagrangian" in params):
        raise ConfigError("custom needs exactly one of 'g' or 'lagrangian'")
    nlc_spec = params["nlc"]
    if not isinstance(nlc_spec, dict) or "kind" not in nlc_spec:
        raise ConfigError("custom.nlc must be a map with a 'kind' key")

    if "g" in params:
        g, n = _square(params["g"], "g")
        dims = (p, n)
        g_fields = _fields(g, dims, ("t", "x", "xs"), "g")
        g_source = DirectMetric(g_fields)
    else:
        # dimensions are not recoverable from a Lagrangian text alone
        if "n" not in nlc_spec and "phi" not in nlc_spec and "entries" not in nlc_spec:
            raise ConfigError(
                "custom with a lagrangian needs nlc.phi, nlc.entries or nlc.n "
                "to pin the spatial dimension"
            )
        if "phi" in nlc_spec:
            n = _square(nlc_spec["phi"], "nlc.phi")[1]
        elif "entries" in nlc_spec:
            n = _square(nlc_spec["entries"], "nlc.entries", (p,))[1]
        else:
            n = _int_param(nlc_spec, "n", "custom.nlc")
            if n < 1:
                raise ConfigError(f"custom.nlc.n must be positive, got {n}")
        dims = (p, n)
        L = _texts(np.asarray([params["lagrangian"]], dtype=object), (1,), "lagrangian")[0]
        g_source = FromLagrangian(_scalar_field(L, dims, ("t", "x", "xs"), "L"))

    kind = nlc_spec["kind"]
    if kind == "quadratic":
        _take(nlc_spec, {"kind", "n"}, {"kind"}, "custom.nlc")
        nlc = QuadraticCanonical()
    elif kind == "christoffel":
        _take(nlc_spec, {"kind", "phi"}, {"kind", "phi"}, "custom.nlc")
        phi = _texts(nlc_spec["phi"], (n, n), "nlc.phi")
        nlc = ChristoffelOfPhi(_fields(phi, dims, ("x",), "phi"))
    elif kind == "user":
        _take(nlc_spec, {"kind", "entries"}, {"kind", "entries"}, "custom.nlc")
        ent = _texts(nlc_spec["entries"], (n, p, n), "nlc.entries")
        nlc = UserGiven(_fields(ent, dims, ("t", "x", "xs"), "N"))
    else:
        raise ConfigError(
            f"custom.nlc.kind must be 'quadratic', 'christoffel' or 'user', "
            f"got {kind!r}"
        )
    h_fields = _fields(h, dims, ("t",), "h")
    return GeometryContext(p, n, h_fields, g_source, nlc, K=K)


_BUILDERS = {
    "flat": _build_flat,
    "quadratic": _build_quadratic,
    "conformal": _build_conformal,
    "optic": _build_optic,
    "custom": _build_custom,
}


def space_names():
    return sorted(_BUILDERS)


def build_space(name: str, params: dict) -> GeometryContext:
    """Construct a built-in space from its name and parameter map."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown space {name!r}; available: {space_names()}"
        ) from None
    params = dict(params or {})
    K = _finite_real(params.get("K", 1.0), f"{name}.K")
    return builder(params, K)
