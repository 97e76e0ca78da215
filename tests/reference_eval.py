"""Reference interpreter for field expressions.

A plain recursive walk of the AST, kept independent of the package's
compiled grids the way oracles.py is kept independent of its Taylor
arithmetic: it shares only the AST classes and the jet arithmetic (``Jet``
and the elementary functions), and evaluates each node afresh, with no
sharing between nodes or fields.  The differential tests hold the compiled
grids to it bit for bit, errors included.
"""
import math

import numpy as np

from jetlag.diff_engine import Jet, jabs, jcos, jexp, jlog, jsin, jsqrt, jtanh
from jetlag.errors import DerivativeDomainError, EvalDomainError
from jetlag.field_expr import Binary, Call, Coord, Neg, Num

FUNCTIONS = {"exp": jexp, "log": jlog, "sin": jsin, "cos": jcos,
             "sqrt": jsqrt, "tanh": jtanh, "abs": jabs}


def _finite(v) -> bool:
    if isinstance(v, Jet):
        return all(np.isfinite(c).all() for c in v.coeffs)
    return math.isfinite(v)


def _float_pow(base, expo, pos):
    if float(expo).is_integer():
        if base == 0.0 and expo < 0:
            raise EvalDomainError("zero raised to a negative power", offset=pos)
        return float(base) ** float(expo)
    if base <= 0.0:
        raise EvalDomainError("non-integer power of a non-positive base",
                              offset=pos)
    return float(base) ** float(expo)


def reference_eval(ast, spt):
    """The value of ``ast`` at the seeded point ``spt``."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Coord):
        if ast.kind == "t":
            return spt.t[ast.i]
        if ast.kind == "x":
            return spt.x[ast.i]
        return spt.xs[ast.i][ast.a]
    if isinstance(ast, Neg):
        return -reference_eval(ast.child, spt)
    if isinstance(ast, Binary):
        lhs = reference_eval(ast.left, spt)
        rhs = reference_eval(ast.right, spt)
        try:
            if ast.op == "+":
                out = lhs + rhs
            elif ast.op == "-":
                out = lhs - rhs
            elif ast.op == "*":
                out = lhs * rhs
            elif ast.op == "/":
                out = lhs / rhs
            elif not isinstance(lhs, Jet) and not isinstance(rhs, Jet):
                out = _float_pow(lhs, rhs, ast.pos)
            else:
                out = lhs ** rhs
        except ZeroDivisionError:
            raise EvalDomainError("division by zero", offset=ast.pos)
        except DerivativeDomainError as e:
            raise EvalDomainError(str(e), offset=ast.pos)
        except OverflowError:
            raise EvalDomainError("non-finite result", offset=ast.pos)
    elif isinstance(ast, Call):
        arg = reference_eval(ast.arg, spt)
        try:
            out = FUNCTIONS[ast.fn](arg)
        except (DerivativeDomainError, ValueError) as e:
            raise EvalDomainError(str(e), offset=ast.pos)
        except OverflowError:
            raise EvalDomainError("non-finite result", offset=ast.pos)
    else:
        raise TypeError(f"not an AST node: {ast!r}")
    if not _finite(out):
        raise EvalDomainError("non-finite result", offset=ast.pos)
    return out
