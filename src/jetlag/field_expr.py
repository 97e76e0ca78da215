"""A small total expression language for scalar fields on jet coordinates.

Users write the entries of metrics, conformal factors, refraction indices and
potentials as text like ``"exp(2*t[1]*x[1])"``.  The language has numbers,
coordinate references ``t[a]``, ``x[i]``, ``xs[i][a]`` (1-based), the binary
operators ``+ - * / ^``, unary minus, and the calls exp, log, sin, cos, sqrt,
tanh, abs.

Precedence, tightest first: ``^`` (right-associative), unary minus, ``* /``,
``+ -``.  So ``-2^2`` is ``-(2^2)`` and ``2^-3`` is ``2^(3rd reciprocal)``,
matching the usual mathematical convention.

Evaluation is generic over the coordinate values: pass floats for plain
evaluation or :class:`~jetlag.diff_engine.Jet` values for exact derivative
propagation.  Domain violations (log of a non-positive number, division by
zero, fractional power of a negative base) surface as
:class:`~jetlag.errors.EvalDomainError` carrying the offending node's byte
offset; evaluation never returns NaN silently.

Every AST node has a structural key: equal subtrees get equal keys whatever
their source positions, and a number is keyed by its exact bits, so ``0.0``
and ``-0.0`` stay apart.  Fields are evaluated by compiled grids
(:class:`FieldGrid`): the fields that one caller evaluates, a metric's
entries say, become one generated straight-line Python function with one
local per distinct subexpression, so a subexpression that several fields
share (the refraction index in every optic metric entry) is computed once.
The function runs at one point or, with jets seeded over a batch of
points, at all of them in one call; the jets range only over the
coordinates that the grid's fields read.  Only node types, integer indices
and constant slots reach the generated source, never field text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diff_engine import (
    BatchDiverged,
    Jet,
    JetPoint,
    ScalarField,
    SeededPoint,
    _dep_coords,
    coord_count,
    coord_index,
    jabs,
    jcos,
    jexp,
    jlog,
    jsin,
    jsqrt,
    jtanh,
    point_batch,
    seed_point,
)
from .errors import (
    DerivativeDomainError,
    EvalDomainError,
    FieldDomainError,
    FieldValidationError,
    ParseError,
)

__all__ = [
    "Num",
    "Coord",
    "Binary",
    "Neg",
    "Call",
    "parse_field",
    "eval_field",
    "FieldGrid",
    "validate_field",
    "render",
    "ast_equal",
    "ExprField",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Coord:
    """Coordinate reference; indices stored 0-based after bounds checking."""

    kind: str  # "t" | "x" | "xs"
    i: int     # spatial index for x/xs, temporal index for t
    a: int     # temporal index for xs, unused otherwise
    pos: int = 0


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    child: object
    pos: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    pos: int = 0


_FUNCTIONS = {
    "exp": jexp,
    "log": jlog,
    "sin": jsin,
    "cos": jcos,
    "sqrt": jsqrt,
    "tanh": jtanh,
    "abs": jabs,
}


# --------------------------------------------------------------------------
# lexer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # "num" | "ident" | one of "+-*/^()[]" | "end"
    text: str
    pos: int
    is_int: bool = False


def _excerpt(src: str, pos: int) -> str:
    start = src.rfind("\n", 0, pos) + 1
    end = src.find("\n", pos)
    if end < 0:
        end = len(src)
    line = src[start:end]
    if len(line) > 60:
        lo = max(start, pos - 30)
        line = ("..." if lo > start else "") + src[lo: lo + 60]
    return line


def _perr(src: str, pos: int, expected: str) -> ParseError:
    return ParseError(
        f"expected {expected}",
        offset=pos,
        expected=expected,
        excerpt=_excerpt(src, pos),
    )


def _lex(src: str):
    tokens = []
    i = 0
    L = len(src)
    while i < L:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^()[]":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < L and src[i + 1].isdigit()):
            j = i
            while j < L and src[j].isdigit():
                j += 1
            is_int = True
            if j < L and src[j] == ".":
                is_int = False
                j += 1
                while j < L and src[j].isdigit():
                    j += 1
            if j < L and src[j] in "eE":
                k = j + 1
                if k < L and src[k] in "+-":
                    k += 1
                if k < L and src[k].isdigit():
                    is_int = False
                    j = k
                    while j < L and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise _perr(src, i, "a numeric literal")
            if not math.isfinite(value):  # 1e999 reads as inf
                raise _perr(src, i, "a finite numeric literal")
            tokens.append(_Token("num", text, i, is_int=is_int))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < L and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        raise _perr(src, i, "a token (number, name, operator or bracket)")
    tokens.append(_Token("end", "", L))
    return tokens


# --------------------------------------------------------------------------
# parser (recursive descent, precedence ^ > unary- > */ > +-)
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, src: str, dims):
        self.src = src
        self.toks = _lex(src)
        self.k = 0
        self.p, self.n = dims

    @property
    def cur(self) -> _Token:
        return self.toks[self.k]

    def advance(self) -> _Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise _perr(self.src, self.cur.pos, what)
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.cur.kind != "end":
            raise _perr(self.src, self.cur.pos, "end of input or an operator")
        return node

    def expr(self):
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Binary(op.kind, node, rhs, op.pos)
        return node

    def term(self):
        node = self.factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            node = Binary(op.kind, node, rhs, op.pos)
        return node

    def factor(self):
        if self.cur.kind == "-":
            op = self.advance()
            return Neg(self.factor(), op.pos)
        return self.power()

    def power(self):
        base = self.atom()
        if self.cur.kind == "^":
            op = self.advance()
            expo = self.factor()  # right-assoc; admits unary minus
            return Binary("^", base, expo, op.pos)
        return base

    def atom(self):
        t = self.cur
        if t.kind == "num":
            self.advance()
            return Num(float(t.text), t.pos)
        if t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if t.kind == "ident":
            self.advance()
            if t.text in ("t", "x", "xs"):
                return self.coord(t)
            if t.text in _FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(t.text, arg, t.pos)
            raise _perr(
                self.src, t.pos,
                "a coordinate (t, x, xs) or function "
                "(exp, log, sin, cos, sqrt, tanh, abs)",
            )
        raise _perr(self.src, t.pos, "a number, coordinate, function or '('")

    def index(self, upper: int, what: str) -> int:
        self.expect("[", "'['")
        t = self.cur
        if t.kind != "num" or not t.is_int:
            raise _perr(self.src, t.pos, f"an integer {what}")
        v = int(float(t.text))
        if not 1 <= v <= upper:
            raise _perr(self.src, t.pos, f"{what} in 1..{upper}")
        self.advance()
        self.expect("]", "']'")
        return v - 1

    def coord(self, t: _Token):
        if t.text == "t":
            a = self.index(self.p, "temporal index")
            return Coord("t", a, 0, t.pos)
        if t.text == "x":
            i = self.index(self.n, "spatial index")
            return Coord("x", i, 0, t.pos)
        i = self.index(self.n, "spatial index")
        a = self.index(self.p, "temporal index")
        return Coord("xs", i, a, t.pos)


def parse_field(src: str, dims):
    """Parse ``src`` into an AST; dims = (p, n) bounds the coordinate indices.

    Raises :class:`~jetlag.errors.ParseError` (with byte offset, expected-token
    text and a line excerpt) on any lexical, syntactic or bounds violation.
    """
    p, n = dims
    if p < 1 or n < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return _Parser(src, dims).parse()


# --------------------------------------------------------------------------
# evaluation: fields compiled to straight-line code
# --------------------------------------------------------------------------

# node structure -> its key, an object compared by identity: a pure cache,
# since a structure always maps to the same key.  A key copied into another
# process matches nothing there, so it can miss but never alias.
_KEYS: dict = {}


def _intern(node):
    """The structural key of ``node``, hash-consed on first use and stored on
    the node (positions are not part of it)."""
    key = node.__dict__.get("_key")
    if key is not None:
        return key
    if isinstance(node, Num):
        sig = ("num", float(node.value).hex())
    elif isinstance(node, Coord):
        sig = ("coord", node.kind, node.i, node.a)
    elif isinstance(node, Neg):
        sig = ("neg", _intern(node.child))
    elif isinstance(node, Binary):
        sig = ("bin", node.op, _intern(node.left), _intern(node.right))
    elif isinstance(node, Call):
        sig = ("call", node.fn, _intern(node.arg))
    else:
        raise TypeError(f"not an AST node: {node!r}")
    key = _KEYS.get(sig)
    if key is None:
        key = _KEYS[sig] = object()
    object.__setattr__(node, "_key", key)
    return key


def _float_pow(base: float, expo: float, pos: int) -> float:
    if float(expo).is_integer():
        if base == 0.0 and expo < 0:
            raise EvalDomainError("zero raised to a negative power", offset=pos)
        return float(base) ** float(expo)
    if base <= 0.0:
        raise EvalDomainError(
            "non-integer power of a non-positive base", offset=pos
        )
    return float(base) ** float(expo)


def _each(fn, *args) -> np.ndarray:
    """The float path's operation ``fn`` (:func:`_float_pow`, or a function
    of ``_FUNCTIONS``) at each element of ``args`` (arrays over rows, or
    floats): the libm call, domain check and error of the float path at
    every row, where numpy's array form may take a vector path that differs
    in the last bit.  ``fn`` runs once per distinct bit pattern of the
    arguments (their int64 views, so -0.0 and 0.0 stay apart), in the order
    the rows first hold them, and each row takes its pattern's value: so
    the first row outside the domain raises, as it would row by row."""
    cols = np.broadcast_arrays(*args)
    bits = [c.view(np.int64).tolist() for c in cols if c.strides[0]]  # those that vary
    rows = list(zip(*bits)) if len(bits) > 1 else bits[0] if bits else [0] * len(cols[0])
    last = dict(zip(rows, range(len(rows))))  # pattern -> last row, in first-row order
    value = dict(zip(last, map(fn, *(c[list(last.values())].tolist() for c in cols))))
    return np.fromiter(map(value.__getitem__, rows), float, len(rows))


def _jet_finite(v) -> bool:
    # one check over every coefficient is cheaper than one per order
    return np.isfinite(np.concatenate([c.ravel() for c in v.coeffs])).all()


def _all_finite(v) -> bool:
    return np.isfinite(v).all()


_isfinite = math.isfinite

# by the kind of a generated local (a float, a Jet, or an array of floats
# over rows): the check of a site's value and the expression of its power
_FINITE = {float: "_isfinite", Jet: "_jet_finite", np.ndarray: "_all_finite"}
_POWER = {float: "_float_pow({}, {}, {})", Jet: "{} ** {}",
          np.ndarray: "_each(_float_pow, {}, {}, {})"}


def _kind(t) -> type:
    """The kind of a coordinate of type ``t``: Jet, ndarray or float."""
    if issubclass(t, Jet):
        return Jet
    return np.ndarray if issubclass(t, np.ndarray) else float


def _join(a, b) -> type:
    """The kind of an operation on locals of kinds ``a`` and ``b``."""
    return Jet if Jet in (a, b) else np.ndarray if np.ndarray in (a, b) else float


def _lift(exc, site):
    """The error that ``exc``, caught while computing ``site`` (a node's
    offset and whether it is a call; None between nodes), stands for.
    Generated code raises OverflowError for a non-finite value too."""
    if site is not None:
        pos, call = site
        if isinstance(exc, OverflowError):
            return EvalDomainError("non-finite result", offset=pos)
        if isinstance(exc, DerivativeDomainError) or (call and isinstance(exc, ValueError)):
            return EvalDomainError(str(exc), offset=pos)
        if isinstance(exc, ZeroDivisionError) and not call:
            return EvalDomainError("division by zero", offset=pos)
    return exc


def _guard(v, label, name, z, dims):
    value = np.asarray(getattr(v, "value", v))
    if not (value < 1.0).any():
        return
    if value.ndim:  # a batch: the points that fail raise alone
        raise BatchDiverged
    nval = float(value)
    pt = SeededPoint.of_flat([float(getattr(c, "value", c)) for c in z], dims)
    raise FieldDomainError(f"{label} {nval} < 1 while evaluating {name!r}",
                           witness=JetPoint.of(pt.t, pt.x, pt.xs), value=nval)


_LOCAL = re.compile(r"\bv\d+\b")


def _with_dels(body, big_locals, keep) -> list:
    """``body`` with a ``del`` of each local in ``big_locals`` after its
    last use, except those in ``keep``, so a batch of points holds only the
    jets and arrays still needed."""
    last = {}
    for i, line in enumerate(body):
        for name in _LOCAL.findall(line):
            last[name] = i
    out = []
    for i, line in enumerate(body):
        out.append(line)
        dead = [nm for nm in dict.fromkeys(_LOCAL.findall(line))
                if last[nm] == i and nm in big_locals and nm not in keep]
        if dead:
            out.append(f"del {', '.join(dead)}")
    return out


def _compile(grid, dims, kinds):
    """The generated function of ``grid`` at points of ``dims`` whose
    coordinate k of group g is of kind ``kinds[g][k]`` (:func:`_kind`); see
    :class:`FieldGrid`.

    Literals, functions, fields and texts sit in the constant table
    (``c0``, ...), so the source holds only names, integers and operators.
    A node that can fail is a *site*: it stores its index in ``_k`` before
    it runs, so the handler knows its offset, and its value must be finite.
    """
    body, consts, slots, names, sites, checked = [], [], {}, {}, [None], set()
    big_locals = set()  # the jets and arrays, deleted after their last use

    def const(key, value):
        if key not in slots:
            slots[key] = len(consts)
            consts.append(value)
        return f"c{slots[key]}"

    def new(expr):
        body.append(f"v{len(body)} = {expr}")
        return f"v{len(body) - 1}"

    def site(node, call, expr, kind):
        body.append(f"_k = {len(sites)}")
        sites.append((node.pos, call))
        name = new(expr)
        body.append(f"if not {_FINITE[kind]}({name}): raise OverflowError")
        return name, kind

    def visit(node, g):
        if isinstance(node, Num):
            return const(_intern(node), node.value), float
        key = (g, _intern(node))
        if key in names:
            return names[key]
        if isinstance(node, Coord):
            k = _flat_index(node, dims)
            got = new(f"z{g}[{k}]"), kinds[g][k]
        elif isinstance(node, Neg):
            child, kind = visit(node.child, g)
            got = new(f"-{child}"), kind
        elif isinstance(node, Binary):
            (lhs, lk), (rhs, rk) = visit(node.left, g), visit(node.right, g)
            kind = _join(lk, rk)
            if node.op != "^":
                expr = f"{lhs} {node.op} {rhs}"
            else:
                expr = _POWER[kind].format(lhs, rhs, node.pos)
            got = site(node, False, expr, kind)
        elif isinstance(node, Call):
            arg, kind = visit(node.arg, g)
            fn = const(("fn", node.fn), _FUNCTIONS[node.fn])
            call = f"_each({fn}, {arg})" if kind is np.ndarray else f"{fn}({arg})"
            got = site(node, True, call, kind)
        else:
            raise TypeError(f"not an AST node: {node!r}")
        names[key] = got
        if got[1] is not float:
            big_locals.add(got[0])
        return got

    outs = []
    for f in grid.fields:
        g = grid.groups.index(frozenset(f.deps))
        point = f"z{g}, {const(('dims',), dims)}"
        if not isinstance(f, ExprField):  # called as it is, on a seeded point
            body.append("_k = 0")
            outs.append(new(f"{const(('field', id(f)), f)}(SeededPoint.of_flat({point}))"))
            continue
        if f.guard is not None:
            value, _ = visit(f.guard[1].ast, g)
            if value not in checked:
                checked.add(value)
                texts = ", ".join(const(("text", t), t) for t in (f.guard[0], f.name))
                body.append(f"_guard({value}, {texts}, {point})")
        outs.append(visit(f.ast, g)[0])
    source = "\n".join([
        "def _make(C, S):",
        f"    ({''.join(f'c{i}, ' for i in range(len(consts)))}) = C",
        f"    def grid({', '.join(f'z{g}' for g in range(len(kinds)))}):",
        "        _k = 0",
        "        try:",
        *(" " * 12 + line for line in _with_dels(body, big_locals, set(outs))),
        f"            return [{', '.join(outs)}]",
        "        except Exception as exc:",
        "            raise _lift(exc, S[_k])",
        "    return grid\n"])
    made = {}
    exec(compile(source, "<field grid>", "exec"), globals(), made)
    fn = made["_make"](tuple(consts), tuple(sites))
    fn.source = source
    return fn


class FieldGrid:
    """Fields evaluated together by one generated function.

    The fields are grouped by dependency groups (``groups``, in order of
    first appearance); each group reads its own seeded coordinates.
    Within a group, each distinct subexpression (by structural key) is one
    local, computed once: the refraction index in every optic metric entry
    is shared.  Nodes run in the order of a depth-first, left-to-right walk
    of the fields in turn, through the operations, checks and offsets of a
    walk of each AST; constant subtrees stay floats, so each node's type is
    known before it runs.  So every value is bit for bit that of the field
    evaluated alone, and the first error raised is the first the walk
    meets.  An :class:`ExprField` with a ``guard`` checks it first.  Each
    jet or array local is deleted after its last use.

    The same function evaluates one point or a batch of points
    (:meth:`compact`): seeded as a batch, each coordinate is one jet whose
    value axis runs over the points, and Jet arithmetic is elementwise over
    it, so the grid runs once for all of them and each point gets the bits
    it gets alone (:func:`~jetlag.diff_engine.point_batch`).  Its jets range
    only over the coordinates that the fields and their guards read
    (:meth:`over`); every operation of a grid is elementwise over the
    derivative slots too, so each of their entries holds the bits of the
    same entry of a grid seeded over all N coordinates, and
    :meth:`stacked` scatters them back among zeros (:meth:`expand`).
    Float points run as one batch too (:meth:`rows`), each coordinate one
    array over the points: an array local runs each float-path operation
    once per distinct element (powers and the calls exp, log, sin, cos,
    sqrt, tanh and abs), so every grid of :class:`ExprField` values
    batches with the float path's bits.

    The function is generated on first use for each point shape (dims and
    the type of each coordinate) and kept with the grid; :meth:`of` keeps
    the grid of each tuple of fields, so every caller shares its functions.
    """

    def __init__(self, fields):
        self.fields = tuple(fields)
        self.groups = list(dict.fromkeys(frozenset(f.deps) for f in self.fields))
        self._fns = {}
        self._over = {}
        # any other field is called on one seeded point, which it may branch on
        self.batchable = all(isinstance(f, ExprField) for f in self.fields)
        # a power whose exponent reads a coordinate takes the real-power rule
        # where its jet exponent is constant, as every jet of order 0 is, so
        # only a grid without one gives at each order its deeper runs' rows
        # truncated, bit for bit (a Taylor coefficient reads only those below)
        self.truncates = self.batchable and not any(
            _varying_power(a) for f in self.fields
            for a in [f.ast] + ([f.guard[1].ast] if f.guard else []))

    @staticmethod
    def of(fields) -> "FieldGrid":
        """The grid of ``fields``, made on the first call for that tuple and
        kept on its first field, so it lives as long as the fields do."""
        key = tuple(fields)
        grids = vars(key[0]).setdefault("_grids", {})
        if key not in grids:
            grids[key] = FieldGrid(key)
        return grids[key]

    def __call__(self, zs, dims) -> list:
        """The fields' values at one point of dims (p, n): ``zs[g]`` lists
        the coordinates seeded for ``groups[g]`` (floats or scalar jets, in
        the order of :meth:`~jetlag.diff_engine.SeededPoint.flat`).  numpy's
        floating-point warnings are off: a value that would warn is not
        finite, and the grid's finiteness checks raise
        :class:`~jetlag.errors.EvalDomainError` for it."""
        kinds = tuple(tuple(map(type, z)) for z in zs)
        fn = self._fns.get((dims, kinds))
        if fn is None:
            fn = self._fns[dims, kinds] = _compile(
                self, dims, [[_kind(k) for k in group] for group in kinds])
        with np.errstate(all="ignore"):
            return fn(*zs)

    def at(self, spts) -> list:
        """The fields' values at seeded points, one per group."""
        return self([s.flat() for s in spts], (spts[0].p, spts[0].n))

    def over(self, dims) -> tuple:
        """The sorted flat indices of the coordinates that the fields and
        their guards read at points of dims (p, n), from their ASTs; of a
        field that is not an :class:`ExprField`, every coordinate of its
        dependency groups."""
        got = self._over.get(dims)
        if got is None:
            read = set()
            for f in self.fields:
                if isinstance(f, ExprField):
                    asts = [f.ast] + ([f.guard[1].ast] if f.guard else [])
                    read.update(_flat_index(c, dims) for a in asts for c in _coords(a))
                else:
                    read.update(coord_index(*dims, c) for c in _dep_coords(f, *dims))
            got = self._over[dims] = tuple(sorted(read))
        return got

    def row_bytes(self, dims, order) -> int:
        """The bytes of one point's row of :meth:`compact` at ``order``."""
        M = len(self.over(dims))
        return 8 * len(self.fields) * sum(M ** k for k in range(order + 1))

    def compact(self, pts, order) -> Jet:
        """The fields at a sequence of B points as one jet of ``order`` over
        the M coordinates of :meth:`over`, of component shape (B, F), which
        stacks the F fields in order (a field that reads no seeded jet is a
        constant jet).  One point is seeded alone; two or more are seeded
        as one batch and evaluated by one call in a
        :func:`~jetlag.diff_engine.point_batch`.  Raises what the call
        raises, and :class:`~jetlag.diff_engine.BatchDiverged` where the
        points of a batch branch apart or a batch meets a field that is not
        an :class:`ExprField`.
        """
        one = len(pts) == 1
        if not (one or self.batchable):
            raise BatchDiverged
        over = self.over(pts[0].dims)
        seeds = [seed_point(pts[0] if one else pts, order, deps, over)
                 for deps in self.groups]
        if one:
            vals = self.at(seeds)
        else:
            with point_batch():
                vals = self.at(seeds)
        M = len(over)
        jets = [v if isinstance(v, Jet) else Jet.constant(float(v), M, order)
                for v in vals]
        K = min(j.order for j in jets)
        B = len(pts)
        return Jet(M, K, [np.stack([j.coeffs[k] if j.shape else
                                    np.broadcast_to(j.coeffs[k], (B,) + j.coeffs[k].shape)
                                    for j in jets], axis=1)
                          for k in range(K + 1)])

    def expand(self, jet, dims) -> Jet:
        """A jet of :meth:`compact` at points of dims (p, n) as the jet over
        all N coordinates: each derivative slot scattered to the flat index
        it stands for, every other entry zero."""
        N = coord_count(*dims)
        over = self.over(dims)
        if len(over) == N:
            return jet
        out = [jet.coeffs[0]]
        for k, c in enumerate(jet.coeffs[1:], 1):
            lead = c.shape[:c.ndim - k]
            full = np.zeros((math.prod(lead), N ** k))
            full[:, _slots(over, N, k)] = c.reshape(len(full), len(over) ** k)
            out.append(full.reshape(lead + (N,) * k))
        return Jet(N, jet.order, out)

    def stacked(self, pts, order) -> Jet:
        """:meth:`compact` of ``pts``, expanded over all N coordinates
        (:meth:`expand`): the fields' jets as seeding every coordinate of
        their groups gives them, but for the sign of a zero in a slot that
        no field reads."""
        return self.expand(self.compact(pts, order), pts[0].dims)

    def rows(self, zs, dims) -> np.ndarray:
        """The fields' float values at each row of ``zs``, an (R, N) array
        of the flat coordinates (:meth:`~jetlag.diff_engine.SeededPoint.flat`)
        of R points of dims (p, n): an (F, R) array, by one call with each
        coordinate one array over the rows.  No jet is built, so the call
        needs no :func:`~jetlag.diff_engine.point_batch`.  Arithmetic runs
        elementwise, and each power and function call runs the float path's
        own operation once per distinct bit pattern of its arguments, in the
        order of their first rows, and scatters the values back
        (:func:`_each`), so each row gets bit for bit the values the grid
        gives at its point with float coordinates, and each power or call
        raises the float path's error at its first row outside the domain.
        Raises what the call raises, and :class:`~jetlag.diff_engine.BatchDiverged`
        where a row fails a guard or the grid holds a field that is not an
        :class:`ExprField`."""
        if not self.batchable:
            raise BatchDiverged
        cols = list(np.ascontiguousarray(np.transpose(zs), dtype=float))
        vals = self([cols] * len(self.groups), dims)
        return np.stack([np.broadcast_to(v, len(zs)) for v in vals])


@lru_cache(maxsize=None)
def _slots(over: tuple, N: int, k: int) -> np.ndarray:
    """The flat indices, in (N,)*k, of the derivative slots of order k over
    the coordinates ``over``, in the order of their compact (M,)*k slots."""
    slots = np.ravel_multi_index(np.ix_(*[over] * k), (N,) * k).ravel()
    slots.flags.writeable = False
    return slots


def eval_field(ast, spt):
    """Evaluate an AST at a seeded point (coordinates floats or scalar jets).

    Derivatives propagate exactly when coordinates are jets.  Any domain
    violation or non-finite intermediate raises
    :class:`~jetlag.errors.EvalDomainError` located at the offending node.
    The AST is compiled as a one-field :class:`FieldGrid` for this call.
    """
    return ExprField(ast, (spt.p, spt.n))(spt)


def validate_field(ast, declared_deps):
    """List coordinate references outside the declared dependency groups.

    Returns a list of (kind, offset) pairs, empty when the AST is clean.
    """
    deps = frozenset(declared_deps)
    bad = deps - {"t", "x", "xs"}
    if bad:
        raise ValueError(f"unknown dependency groups {sorted(bad)}")
    return [(c.kind, c.pos) for c in _coords(ast) if c.kind not in deps]


def _coords(node):
    """Every coordinate reference of an AST, depth-first, left to right."""
    if isinstance(node, Coord):
        yield node
    elif isinstance(node, Binary):
        yield from _coords(node.left)
        yield from _coords(node.right)
    elif isinstance(node, Neg):
        yield from _coords(node.child)
    elif isinstance(node, Call):
        yield from _coords(node.arg)


def _varying_power(node) -> bool:
    """Whether an AST holds a power whose exponent reads a coordinate."""
    if isinstance(node, Binary):
        if node.op == "^" and next(_coords(node.right), None) is not None:
            return True
        return _varying_power(node.left) or _varying_power(node.right)
    if isinstance(node, Neg):
        return _varying_power(node.child)
    return isinstance(node, Call) and _varying_power(node.arg)


def _flat_index(node: Coord, dims) -> int:
    """The flat index (:func:`~jetlag.diff_engine.coord_index`) of a
    coordinate reference at points of dims (p, n)."""
    cid = (node.kind, node.i, node.a) if node.kind == "xs" else (node.kind, node.i)
    return coord_index(*dims, cid)


# --------------------------------------------------------------------------
# rendering and structural equality
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 9


def render(ast) -> str:
    """Canonical text form; reparsing yields a structurally equal AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Coord):
        if ast.kind == "t":
            return f"t[{ast.i + 1}]"
        if ast.kind == "x":
            return f"x[{ast.i + 1}]"
        return f"xs[{ast.i + 1}][{ast.a + 1}]"
    if isinstance(ast, Neg):
        body = render(ast.child)
        if _prec(ast.child) < _PREC["neg"]:
            body = f"({body})"
        return f"-{body}"
    if isinstance(ast, Binary):
        lp, rp = _prec(ast.left), _prec(ast.right)
        me = _PREC[ast.op]
        left = render(ast.left)
        right = render(ast.right)
        if ast.op == "^":
            if lp <= me:  # right-assoc: base binds tighter or gets parens
                left = f"({left})"
            if rp < me:
                right = f"({right})"
        else:
            if lp < me:
                left = f"({left})"
            if rp <= me:
                right = f"({right})"
        return f"{left}{ast.op}{right}"
    if isinstance(ast, Call):
        return f"{ast.fn}({render(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def ast_equal(a, b) -> bool:
    """Structural equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, Coord):
        return (a.kind, a.i, a.a) == (b.kind, b.i, b.a)
    if isinstance(a, Neg):
        return ast_equal(a.child, b.child)
    if isinstance(a, Binary):
        return a.op == b.op and ast_equal(a.left, b.left) and ast_equal(a.right, b.right)
    if isinstance(a, Call):
        return a.fn == b.fn and ast_equal(a.arg, b.arg)
    return False


# --------------------------------------------------------------------------
# field wrapper
# --------------------------------------------------------------------------

class ExprField(ScalarField):
    """A scalar field defined by expression text (or a pre-parsed AST).

    Validates the declared dependency groups on construction and raises
    :class:`~jetlag.errors.FieldValidationError` listing every out-of-group
    coordinate reference.  ``guard``, a pair (label, field), asks that the
    field's value be at least 1 wherever this one is evaluated; below 1,
    evaluation raises :class:`~jetlag.errors.FieldDomainError` naming the
    label, the value and this field.  A call evaluates the field alone,
    through its one-field :class:`FieldGrid` (:meth:`FieldGrid.of`).
    """

    def __init__(self, src, dims, deps=("t", "x", "xs"), name=None, guard=None):
        if isinstance(src, str):
            self.ast = parse_field(src, dims)
            self.src = src
        else:
            self.ast = src
            self.src = render(src)
        self.dims = tuple(dims)
        self.deps = frozenset(deps)
        self._name = name or self.src
        self.guard = guard
        violations = validate_field(self.ast, self.deps)
        if violations:
            locs = ", ".join(f"{kind} at offset {pos}" for kind, pos in violations)
            raise FieldValidationError(
                f"field {self._name!r} references coordinates outside its "
                f"declared dependencies {sorted(self.deps)}: {locs}",
                violations=tuple(violations),
            )

    def __call__(self, spt):
        return FieldGrid.of([self]).at([spt])[0]

    def __repr__(self):
        return f"ExprField({self.src!r}, dims={self.dims}, deps={sorted(self.deps)})"
