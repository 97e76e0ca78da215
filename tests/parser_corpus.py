"""Grammar corpus shared by the parser suite and the acceptance gate.

EVAL_CASES are (source, value at CORPUS_POINT); every case must also survive
a parse-print-parse fixpoint.  ERROR_CASES must raise ParseError, and
DOMAIN_CASES must raise EvalDomainError when evaluated at CORPUS_POINT.
"""
import math

from jetlag.diff_engine import JetPoint

CORPUS_DIMS = (2, 2)
CORPUS_POINT = JetPoint.of(
    [2.0, 0.5], [3.0, -1.0], [[5.0, 1.0], [0.25, -2.0]]
)

EVAL_CASES = [
    # literals, whitespace, scientific notation
    ("1 + 2*3", 7.0),
    ("1.5e2 + .5", 150.5),
    ("1E2/4", 25.0),
    ("5e-1+5E-1", 1.0),
    ("((((1))))", 1.0),
    # precedence and associativity
    ("2+3*4^2", 50.0),
    ("(2+3)*4", 20.0),
    ("10-2^3", 2.0),
    ("6/3/2", 1.0),
    ("6/(3/2)", 4.0),
    ("1-2-3", -4.0),
    ("2^3^2", 512.0),
    ("2^2^3", 256.0),
    ("2^0.5^2", 2.0 ** 0.25),
    ("(1+2)^(1+1)", 9.0),
    # unary minus binds below ^ and above */
    ("-2^2", -4.0),
    ("2^-3", 0.125),
    ("(-2)^2", 4.0),
    ("2^(0-3)", 0.125),
    ("-2*3", -6.0),
    ("2*-3", -6.0),
    ("--2", 2.0),
    ("1 - -2", 3.0),
    ("-(2+3)", -5.0),
    # coordinates (1-based, bounds from dims)
    ("x[1]^2", 9.0),
    ("-x[2]", 1.0),
    ("-x[2]^2", -1.0),
    ("t[1]*xs[1][1]", 10.0),
    ("xs[2][2]*xs[2][1]", -0.5),
    ("1/xs[2][1]", 4.0),
    ("x[1]*x[2]+xs[1][2]", -2.0),
    ("2*x[1]-3/t[2]", 0.0),
    ("t[1]^t[2]", 2.0 ** 0.5),
    # functions
    ("exp(0)*cos(0)+sqrt(4)", 3.0),
    ("sin(0)", 0.0),
    ("tanh(0)", 0.0),
    ("tanh(0.75)", math.tanh(0.75)),
    ("log(1)", 0.0),
    ("log(exp(2))", 2.0),
    ("exp(log(5))", 5.0),
    ("sqrt(x[1]^2)", 3.0),
    ("abs(-3.5)", 3.5),
    ("abs(0-xs[1][1])", 5.0),
    ("sin(t[1])^2+cos(t[1])^2", 1.0),
]

ERROR_CASES = [
    "xs[1][3]",  # temporal slot out of range
    "x[5]",  # spatial index out of range
    "t[0]",  # indices are 1-based
    "t[1.5]",  # non-integer index
    "xs[1]",  # fibre coordinate needs both indices
    "1 +",  # dangling operator
    "*3",  # operator cannot open an expression
    "foo(2)",  # unknown function
    "2 ** 3",  # ^ is the only power spelling
    "(1+2",  # unbalanced parenthesis
    "",  # empty source
    "1 2",  # trailing token
    "1e999",  # overflows to inf
    "2*1e999",  # an overflowing literal inside an expression
]

DOMAIN_CASES = [
    "log(0-1)",
    "1/ (x[1]-3)",
    "sqrt(0-2)",
    "(0-2)^0.5",
]
