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
their source positions, across all fields of the process, and a number is
keyed by its exact bits, so ``0.0`` and ``-0.0`` stay apart.  Keys are
hash-consed once, when an :class:`ExprField` is built.  :func:`eval_field`
memoises each non-leaf node's value on the :class:`SeededPoint` under that
key, so a subexpression shared by several fields evaluated at one seeded
point (the refraction index in every optic metric entry, say) is computed
once.  The memo lives as long as the seeded point, and a frame seeds fresh
points for every grid it evaluates.  A node that raises stores nothing, so
each field re-raises with its own offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diff_engine import Jet, ScalarField, jexp, jlog, jsin, jcos, jsqrt, jtanh, jabs
from .errors import (
    DerivativeDomainError,
    EvalDomainError,
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
                float(text)
            except ValueError:
                raise _perr(src, i, "a numeric literal")
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
# evaluation
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


def _finite(v) -> bool:
    if isinstance(v, Jet):
        return all(np.isfinite(c).all() for c in v.coeffs)
    return math.isfinite(v)


def eval_field(ast, spt):
    """Evaluate an AST at a seeded point (coordinates floats or scalar jets).

    Derivatives propagate exactly when coordinates are jets.  Any domain
    violation or non-finite intermediate raises
    :class:`~jetlag.errors.EvalDomainError` located at the offending node.

    Each non-leaf node is computed once per seeded point: its value is kept
    in ``spt.memo`` under the node's structural key (see the module
    docstring), and any field evaluated later on the same ``spt`` reads it
    from there.  Leaves (numbers, coordinates) are not memoised, and a node
    that raises is never stored.
    """
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Coord):
        if ast.kind == "t":
            return spt.t[ast.i]
        if ast.kind == "x":
            return spt.x[ast.i]
        return spt.xs[ast.i][ast.a]
    key = _intern(ast)
    out = spt.memo.get(key)
    if out is not None:
        return out
    if isinstance(ast, Neg):
        out = -eval_field(ast.child, spt)
    elif isinstance(ast, Binary):
        lhs = eval_field(ast.left, spt)
        rhs = eval_field(ast.right, spt)
        try:
            if ast.op == "+":
                out = lhs + rhs
            elif ast.op == "-":
                out = lhs - rhs
            elif ast.op == "*":
                out = lhs * rhs
            elif ast.op == "/":
                out = lhs / rhs
            else:
                if not isinstance(lhs, Jet) and not isinstance(rhs, Jet):
                    out = _float_pow(lhs, rhs, ast.pos)
                else:
                    out = lhs ** rhs
        except ZeroDivisionError:
            raise EvalDomainError("division by zero", offset=ast.pos)
        except DerivativeDomainError as e:
            raise EvalDomainError(str(e), offset=ast.pos)
        except OverflowError:  # float ** float
            raise EvalDomainError("non-finite result", offset=ast.pos)
        if not _finite(out):
            raise EvalDomainError("non-finite result", offset=ast.pos)
    elif isinstance(ast, Call):
        arg = eval_field(ast.arg, spt)
        try:
            out = _FUNCTIONS[ast.fn](arg)
        except DerivativeDomainError as e:
            raise EvalDomainError(str(e), offset=ast.pos)
        except ValueError as e:
            raise EvalDomainError(str(e), offset=ast.pos)
        except OverflowError:  # math.exp of a float
            raise EvalDomainError("non-finite result", offset=ast.pos)
        if not _finite(out):
            raise EvalDomainError("non-finite result", offset=ast.pos)
    else:
        raise TypeError(f"not an AST node: {ast!r}")
    spt.memo[key] = out
    return out


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


def validate_field(ast, declared_deps):
    """List coordinate references outside the declared dependency groups.

    Returns a list of (kind, offset) pairs, empty when the AST is clean.
    """
    deps = frozenset(declared_deps)
    bad = deps - {"t", "x", "xs"}
    if bad:
        raise ValueError(f"unknown dependency groups {sorted(bad)}")
    out = []

    def walk(node):
        if isinstance(node, Coord):
            if node.kind not in deps:
                out.append((node.kind, node.pos))
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Neg):
            walk(node.child)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(ast)
    return out


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
    coordinate reference.
    """

    def __init__(self, src, dims, deps=("t", "x", "xs"), name=None):
        if isinstance(src, str):
            self.ast = parse_field(src, dims)
            self.src = src
        else:
            self.ast = src
            self.src = render(src)
        _intern(self.ast)
        self.dims = tuple(dims)
        self.deps = frozenset(deps)
        self._name = name or self.src
        violations = validate_field(self.ast, self.deps)
        if violations:
            locs = ", ".join(f"{kind} at offset {pos}" for kind, pos in violations)
            raise FieldValidationError(
                f"field {self._name!r} references coordinates outside its "
                f"declared dependencies {sorted(self.deps)}: {locs}",
                violations=tuple(violations),
            )

    def __call__(self, spt):
        return eval_field(self.ast, spt)

    def __repr__(self):
        return f"ExprField({self.src!r}, dims={self.dims}, deps={sorted(self.deps)})"
