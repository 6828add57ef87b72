"""Small arithmetic expression language for metric components and scalar fields.

Grammar (loosest binding first):
    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' int)*            # integer exponents only
    atom   := NUMBER | COORD | FUNC '(' expr ')' | '(' expr ')'

Coordinates are spelled x0, x1, ...; functions are exp, ln, sin, cos, sqrt.
`parse` and `to_string` round-trip: printing a tree and reparsing yields a
structurally identical tree.

Evaluation compiles trees once into a `Program`: a flat list of jet-array
operations over numbered slots.  Trees are frozen, so structurally equal
subtrees (within one tree or across all the trees of a program, such as the
components of a metric) share one slot and are evaluated once.  Every
maximal polynomial subtree is one column of a single `PolynomialEvaluator`
product; every other node is one `JetAlgebra` call (mul, div, powi, exp,
log, sqrt, sin, cos) on the arrays of its inputs.  A program takes points
with leading axes, `(..., n) -> (..., roots, NC)`, on the same code path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jets
from .jets import JetDomainError

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class ExprEvalError(ExprError):
    """Domain violation during evaluation, tagged with the offending subexpression."""


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


# -- parsing -----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, offset=None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected input {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek() == "^":
            self.pos += 1
            node = Pow(node, self.int_literal())
        return node

    def int_literal(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected integer exponent", start)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("exponent must be an integer", start)
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}")

    def number(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else
        try:
            return Const(float(text[start:self.pos]))
        except ValueError:
            self.error(f"invalid number {text[start:self.pos]!r}", start)

    def identifier(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            if self.peek() == ",":
                raise ExprSyntaxError(f"{name} takes exactly one argument", self.pos)
            self.expect(")")
            return Call(name, arg)
        if name.startswith("x") and name[1:].isdigit():
            return Coord(int(name[1:]))
        raise UnknownIdentifierError(f"unknown identifier {name!r}", start)


def parse(text: str):
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# -- printing ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_const(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_string(node, _ctx=0) -> str:
    if isinstance(node, Const):
        # negative literals never come out of the parser; print via Neg form
        s = _fmt_const(abs(node.value))
        if node.value < 0:
            return f"(-{s})" if _ctx > _PREC["neg"] else f"-{s}"
        return s
    if isinstance(node, Coord):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.name}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.operand, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if _ctx > _PREC["neg"] else s
    if isinstance(node, Pow):
        base = to_string(node.base, _PREC["pow"])
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = to_string(node.left, p)
        right = to_string(node.right, p + 1)
        s = f"{left} {node.op} {right}"
        return f"({s})" if _ctx > p else s
    raise TypeError(f"not an expression node: {node!r}")


# -- compiled programs ---------------------------------------------------------

_MAX_TERMS = 4096  # a polynomial with more terms is evaluated by jet products
_JET_FUNCTIONS = {"exp": "exp", "ln": "log", "sin": "sin", "cos": "cos", "sqrt": "sqrt"}


def _parts(node):
    """(label, children) of a node; equal subtrees have equal labels and children."""
    if isinstance(node, Const):
        return node.value, ()
    if isinstance(node, Coord):
        return node.index, ()
    if isinstance(node, BinOp):
        return node.op, (node.left, node.right)
    if isinstance(node, Pow):
        return node.exponent, (node.base,)
    if isinstance(node, Neg):
        return None, (node.operand,)
    if isinstance(node, Call):
        return node.name, (node.arg,)
    raise TypeError(f"not an expression node: {node!r}")


def _constant(poly):
    """Value of a polynomial that does not depend on the point, else None."""
    if poly is None or any(v != 0.0 and any(k) for k, v in poly.items()):
        return None
    return sum(v for k, v in poly.items() if not any(k))


def _poly_mul(a, b):
    if len(a) * len(b) > 16 * _MAX_TERMS:
        return None
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(operator.add, ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return out if len(out) <= _MAX_TERMS else None


def _polynomial(node, kids, n):
    """Coefficient dict {multi-index: c} of a node from those of its children,
    or None if the node is not polynomial."""
    zero = (0,) * n
    if isinstance(node, Const):
        return {zero: node.value}
    if isinstance(node, Coord):
        if not 0 <= node.index < n:
            raise ExprError(f"coordinate x{node.index} out of range for dimension {n}")
        return {tuple(int(i == node.index) for i in range(n)): 1.0}
    if isinstance(node, Call) or any(k is None for k in kids):
        return None
    if isinstance(node, Neg):
        return {k: -v for k, v in kids[0].items()}
    if isinstance(node, Pow):
        if node.exponent < 0:
            return None
        out = {zero: 1.0} if node.exponent == 0 else kids[0]
        for _ in range(node.exponent - 1):
            out = _poly_mul(out, kids[0])
            if out is None:
                return None
        return out
    left, right = kids
    if node.op == "*":
        return _poly_mul(left, right)
    if node.op == "/":
        c = _constant(right)
        return {k: v / c for k, v in left.items()} if c else None
    out = dict(left)
    sign = 1.0 if node.op == "+" else -1.0
    for k, v in right.items():
        out[k] = out.get(k, 0.0) + sign * v
    return out


def _instruction(node, kids, polys):
    """(op(alg, *inputs), input ids) of a subtree that is not polynomial."""
    if isinstance(node, Neg):
        return (lambda alg, a: -a), kids
    if isinstance(node, Pow):
        k = node.exponent
        return (lambda alg, a: alg.powi(a, k)), kids
    if isinstance(node, Call):
        name = _JET_FUNCTIONS[node.name]
        return (lambda alg, a: getattr(alg, name)(a)), kids
    (left, right), (cl, cr) = kids, (_constant(polys[k]) for k in kids)
    if node.op == "*" and cl is not None:
        return (lambda alg, a: cl * a), (right,)
    if node.op == "*" and cr is not None:
        return (lambda alg, a: a * cr), (left,)
    if node.op == "/" and cr:
        return (lambda alg, a: a / cr), (left,)
    if node.op == "/" and cl is not None:
        return (lambda alg, b: cl * alg.reciprocal(b)), (right,)
    return _BINARY[node.op], kids


_BINARY = {
    "+": lambda alg, a, b: a + b,
    "-": lambda alg, a, b: a - b,
    "*": lambda alg, a, b: alg.mul(a, b),
    "/": lambda alg, a, b: alg.div(a, b),
}


class Program:
    """Expression trees in dimension n, compiled once into a flat jet program.

    One bottom-up pass gives every distinct subtree an id, so subtrees that
    occur several times (in one tree or across the roots) are evaluated once,
    and finds each subtree's polynomial.  The maximal polynomial subtrees are
    evaluated together by one `PolynomialEvaluator`; every other subtree is
    one `JetAlgebra` array operation on the ids of its inputs.
    """

    def __init__(self, roots, n):
        self.n = n
        ids, keys = {}, {}  # object id -> subtree id; (type, label, child ids) -> subtree id
        nodes, kids, polys = [], [], []

        def visit(nd):
            i = ids.get(id(nd))
            if i is None:
                label, children = _parts(nd)
                ch = tuple(map(visit, children))
                key = (type(nd), label, ch)
                i = keys.get(key)
                if i is None:
                    i = keys[key] = len(nodes)
                    nodes.append(nd)
                    kids.append(ch)
                    polys.append(_polynomial(nd, [polys[c] for c in ch], n))
                ids[id(nd)] = i
            return i

        self._roots = [visit(r) for r in roots]
        code, seen, stack = {}, set(), list(self._roots)
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if polys[i] is None:
                code[i] = _instruction(nodes[i], kids[i], polys)
                stack.extend(code[i][1])
        self._poly_ids = sorted(i for i in seen if polys[i] is not None)
        self._poly = (PolynomialEvaluator([polys[i] for i in self._poly_ids], n)
                      if self._poly_ids else None)
        self._code = [(op, i, args, nodes[i]) for i, (op, args) in sorted(code.items())]
        self._nslots = len(nodes)

    def __call__(self, points, order):
        """Jets of the roots at `points` (..., n): array (..., roots, NC)."""
        x = np.asarray(points, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ExprError(f"points of shape {x.shape} for an expression in dimension {self.n}")
        alg = jets.algebra(self.n, order)
        vals = [None] * self._nslots
        if self._poly is not None:
            coeffs = self._poly.coeffs_at(x, alg)
            for k, i in enumerate(self._poly_ids):
                vals[i] = coeffs[..., k, :]
        try:
            for op, i, args, node in self._code:
                vals[i] = op(alg, *[vals[a] for a in args])
        except JetDomainError as exc:
            at = tuple(float(v) for v in x[exc.index])
            raise ExprEvalError(f"{exc} in subexpression {to_string(node)!r} at {at}") from exc
        out = np.empty(x.shape[:-1] + (len(self._roots), alg.ncoef))
        for r, i in enumerate(self._roots):
            out[..., r, :] = vals[i]
        return out


class PolynomialEvaluator:
    """Jet coefficients of fixed polynomials in n variables by one Taylor-shift product.

    Expanded about the point x, a polynomial sum_alpha c_alpha y^alpha has the
    coefficients
        c'_beta(x) = sum_gamma c_{beta+gamma} prod_i C(beta_i+gamma_i, beta_i) x^gamma,
    so those of all the polynomials are the monomials x^gamma times a weight
    matrix W[gamma, (polynomial, beta)].  Where W has its entries depends only
    on the support (which exponents each polynomial has), n and the order; that
    structure is built once per process (`_shift_structure`) and shared by all
    evaluators with the same support, and each evaluator scatters its own
    coefficients into W once per order.
    """

    def __init__(self, polys, n):
        terms = [(p, alpha, c) for p, poly in enumerate(polys)
                 for alpha, c in sorted(poly.items()) if c != 0.0]
        self.n = n
        self.npoly = len(polys)
        self.which = np.array([p for p, _, _ in terms], dtype=np.intp)
        self.alphas = np.array([a for _, a, _ in terms], dtype=np.intp).reshape(len(terms), n)
        self.c = np.array([c for _, _, c in terms])
        self.degree = int(self.alphas.sum(axis=1).max(initial=0))
        self._support = (self.alphas.tobytes(), self.which.tobytes(), self.npoly, n)
        self._cols = np.arange(n)
        self._tables = {}

    def _table(self, alg):
        """(gammas, W): the monomial exponents (G, n) and the weights (G, npoly * NC)."""
        table = self._tables.get(alg.order)
        if table is None:
            gammas, rows, cols, t, factor = _shift_structure(*self._support, alg.order)
            weights = np.zeros((len(gammas), self.npoly * alg.ncoef))
            weights[rows, cols] = self.c[t] * factor
            table = self._tables[alg.order] = (gammas, weights)
        return table

    def coeffs_at(self, points, alg):
        """Coefficients at `points` (..., n): array (..., npoly, NC)."""
        if alg.n != self.n:
            raise ExprError(f"polynomials in dimension {self.n} evaluated in dimension {alg.n}")
        gammas, weights = self._table(alg)
        x = np.asarray(points, dtype=float)
        powers = x[..., None] ** np.arange(self.degree + 1)
        monomials = powers[..., self._cols, gammas].prod(axis=-1)
        return (monomials @ weights).reshape(x.shape[:-1] + (self.npoly, alg.ncoef))


@lru_cache(maxsize=128)
def _shift_structure(alphas, which, npoly, n, order):
    """Where the Taylor-shift weights of a support go, shared by every evaluator with it.

    `alphas` and `which` are the bytes of the term exponents (T, n) and of the
    polynomial of each term (T,).  Returns the monomial exponents gammas (G, n)
    and, for each (term t, beta) with beta <= alpha_t, the row and column of
    its weight, t, and its factor prod_i C(alpha_ti, beta_i); the weight is
    c_t times that factor.  The arrays are read-only.
    """
    alphas = np.frombuffer(alphas, dtype=np.intp).reshape(-1, n)
    which = np.frombuffer(which, dtype=np.intp)
    alg = jets.algebra(n, order)
    betas = np.array(alg.indices, dtype=np.intp)
    t, b = np.nonzero(np.all(alphas[:, None, :] >= betas[None, :, :], axis=-1))
    gammas, row = np.unique(alphas[t] - betas[b], axis=0, return_inverse=True)
    degree = int(alphas.sum(axis=1).max(initial=0))
    comb = np.array([[math.comb(a, k) for k in range(order + 1)] for a in range(degree + 1)],
                    dtype=float)
    out = (gammas, row.reshape(-1), which[t] * alg.ncoef + b, t,
           comb[alphas[t], betas[b]].prod(axis=1))
    for a in out:
        a.flags.writeable = False
    return out


# -- helpers used by the metric catalog --------------------------------------


def const(value):
    """Parser-canonical constant: negatives are wrapped as Neg(Const(+v))."""
    value = float(value)
    if value < 0:
        return Neg(Const(-value))
    return Const(value)


def coord(i) -> Coord:
    return Coord(i)


def add(*nodes):
    out = nodes[0]
    for nd in nodes[1:]:
        out = BinOp("+", out, nd)
    return out


def mul(*nodes):
    out = nodes[0]
    for nd in nodes[1:]:
        out = BinOp("*", out, nd)
    return out
