"""Command-line surface: expression language, trace words, verification registry.

Grammar (LL(1), whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed-integer)?
    atom   := integer | 'Z' '(' ints ')' | 'B' '[' ints ']' | 'G' '(' int ')'
            | 'EulerPow' '(' signed-integer ')' | 'D' '(' expr ')'
            | 'sum' '(' string ')' | '(' expr ')'

Rational literals are integer quotients (7/2 parses as division, which is
exact); no decimals.
"""
import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .ring import QSeries, euler_pow, series_to_json
from .zeta import bracket, eisenstein, eval_named, z_series
from .fock import DecoratedOp, SurfaceModel, trace_product, _symmetry_factorial
from .qmforms import NotInSpan, basis_monomials, decompose, monomial_name
from .pipeline import CHECKS, run_checks

DEFAULT_ORDER = 30
DEFAULT_WEIGHT = 6


# -- tokens -------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected or []
        suffix = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{message} at column {position + 1}{suffix}")


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"]*")
  | (?P<op>[-+*/^()\[\],])
""", re.VERBOSE)


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# -- AST ----------------------------------------------------------------------


class _Node:
    """An immutable AST node whose positional fields are named in `__slots__`.

    Nodes are equal and hash alike by (type, fields), so GGen(4) != EulerPowGen(4),
    and print as Name(field=value, ...).
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, _Node) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Lit(_Node):
    __slots__ = ("value",)


class ZGen(_Node):
    __slots__ = ("indices",)


class BGen(_Node):
    __slots__ = ("indices",)


class GGen(_Node):
    __slots__ = ("weight",)


class EulerPowGen(_Node):
    __slots__ = ("exponent",)


class SumRef(_Node):
    __slots__ = ("name",)


class DOp(_Node):
    __slots__ = ("arg",)


class Neg(_Node):
    __slots__ = ("arg",)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")  # op is one of + - * / ^


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(f"got {text or 'end of input'!r}", pos, [repr(value)])
        return self.next()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            node = BinOp("^", node, Lit(self.signed_int()))
        return node

    def signed_int(self):
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, text, pos = self.next()
        if kind != "int":
            raise ParseError(f"got {text or 'end of input'!r}", pos, ["integer"])
        return sign * int(text)

    def int_list(self, close):
        out = [self.signed_int()]
        while self.peek()[1] == ",":
            self.next()
            out.append(self.signed_int())
        self.expect(close)
        return tuple(out)

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "int":
            self.next()
            return Lit(int(text))
        if text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            self.next()
            if text == "Z":
                self.expect("(")
                idx = self.int_list(")")
                if any(s < 2 for s in idx):
                    raise ParseError("Z index must be >= 2", pos)
                return ZGen(idx)
            if text == "B":
                self.expect("[")
                idx = self.int_list("]")
                if any(s < 1 for s in idx):
                    raise ParseError("bracket index must be >= 1", pos)
                return BGen(idx)
            if text == "G":
                self.expect("(")
                w = self.signed_int()
                self.expect(")")
                if w < 2 or w % 2:
                    raise ParseError("G weight must be a positive even integer", pos)
                return GGen(w)
            if text == "EulerPow":
                self.expect("(")
                c = self.signed_int()
                self.expect(")")
                return EulerPowGen(c)
            if text == "D":
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return DOp(node)
            if text == "sum":
                self.expect("(")
                kind2, text2, pos2 = self.next()
                if kind2 != "string":
                    raise ParseError("sum() takes a quoted name", pos2)
                self.expect(")")
                return SumRef(text2[1:-1])
            raise ParseError(f"unknown name {text!r}", pos,
                             ["Z", "B", "G", "EulerPow", "D", "sum"])
        raise ParseError(f"got {text or 'end of input'!r}", pos,
                         ["integer", "generator", "("])


def parse(text):
    """Parse an expression; raises ParseError with position diagnostics."""
    return Parser(text).parse()


def _print_node(node, parent_prec=0, right_side=False):
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, ZGen):
        return f"Z({','.join(map(str, node.indices))})"
    if isinstance(node, BGen):
        return f"B[{','.join(map(str, node.indices))}]"
    if isinstance(node, GGen):
        return f"G({node.weight})"
    if isinstance(node, EulerPowGen):
        return f"EulerPow({node.exponent})"
    if isinstance(node, SumRef):
        return f'sum("{node.name}")'
    if isinstance(node, DOp):
        return f"D({_print_node(node.arg)})"
    if isinstance(node, Neg):
        inner = _print_node(node.arg, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 3 or right_side else text
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # exponentiation is non-associative: parenthesize a power base
            text = f"{_print_node(node.left, prec + 1)}^{node.right.value}"
            return f"({text})" if parent_prec > prec else text
        left = _print_node(node.left, prec)
        right = _print_node(node.right, prec + 1, right_side=True)
        text = f"{left} {node.op} {right}"
        if prec < parent_prec or (right_side and prec == parent_prec):
            return f"({text})"
        return text
    raise TypeError(f"not an AST node: {node!r}")


def print_expr(node):
    """Deterministic text form; parse(print_expr(e)) reproduces e."""
    return _print_node(node)


def evaluate(node, order):
    """Evaluate an AST to a rational-coefficient series at the given order."""
    if isinstance(node, Lit):
        return QSeries.one(order).scale(node.value)
    if isinstance(node, ZGen):
        return z_series(node.indices, order)
    if isinstance(node, BGen):
        return bracket(node.indices, order)
    if isinstance(node, GGen):
        return eisenstein(node.weight, order)
    if isinstance(node, EulerPowGen):
        return euler_pow(node.exponent, order)
    if isinstance(node, SumRef):
        return eval_named(node.name, order)
    if isinstance(node, DOp):
        return evaluate(node.arg, order).q_derivative()
    if isinstance(node, Neg):
        return -evaluate(node.arg, order)
    if isinstance(node, BinOp):
        left = evaluate(node.left, order)
        if node.op == "^":
            n = node.right.value
            if n >= 0:
                return left ** n
            return (left ** (-n)).inverse()
        right = evaluate(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
    raise TypeError(f"not an AST node: {node!r}")


def eval_text(text, order):
    return evaluate(parse(text), order)


# -- trace word mini-syntax ------------------------------------------------------


_FACTOR_RE = re.compile(
    r"\s*a\[(?P<parts>-?\d+(?:\s*,\s*-?\d+)*)\]\((?P<klass>[A-Za-z0-9]+)\)"
    r"(?P<norm>/!)?\s*$")


def parse_trace_word(text, surface):
    """Parse `a[parts](class) * ...`; `/!` divides a factor by its symmetry factorial."""
    ops = []
    scale = Fraction(1)
    for chunk in text.split("*"):
        m = _FACTOR_RE.match(chunk)
        if m is None:
            raise ParseError(f"bad trace factor {chunk.strip()!r}", 0,
                             ["a[parts](class)"])
        parts = tuple(int(p) for p in m.group("parts").split(","))
        klass = surface.class_by_name(m.group("klass"))
        ops.append(DecoratedOp(parts, klass))
        if m.group("norm"):
            scale /= _symmetry_factorial(sorted(parts))
    return ops, scale


# -- output helpers ---------------------------------------------------------------


def _emit_json(data, out):
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same
    out.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_series(s, as_json, out):
    if as_json:
        _emit_json(series_to_json(s), out)
        return
    for n, c in enumerate(s.coeffs):
        text = repr(c) if s.ring is not None else str(c)
        out.write(f"{n}\t{text}\n")


def _index_order(order):
    """order, unless a series of order + 1 coefficients cannot be indexed."""
    if order is not None and order >= sys.maxsize:
        raise ValueError(f"order {order} is too large")
    return order


def _order_default():
    env = os.environ.get("QZETA_DEFAULT_ORDER")
    if env is not None:
        try:
            return _index_order(int(env))
        except ValueError as exc:
            raise ValueError(f"bad QZETA_DEFAULT_ORDER: {env!r}") from exc
    return DEFAULT_ORDER


# -- commands ---------------------------------------------------------------------


def cmd_expand(args, out):
    series = eval_text(args.expr, args.order)
    _emit_series(series, args.json, out)
    return 0


def _load_series_argument(text, order):
    """An expression, a path to an expression file, or a path to series JSON."""
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                content = fh.read().strip()
        except OSError as exc:
            raise ValueError(f"cannot read {text}: {exc.strerror or exc}") from None
        try:
            data = json.loads(content)
        except json.JSONDecodeError:
            return eval_text(content, order)
        if isinstance(data, (int, float)):  # a bare number is an expression too
            return eval_text(content, order)
        from .ring import series_from_json
        series = series_from_json(data)
        if series.order < order:
            raise ValueError(
                f"series file has order {series.order}, below --order {order}")
        return series.truncate(order)
    return eval_text(text, order)


def cmd_decompose(args, out):
    series = _load_series_argument(args.expr, args.order)
    result = decompose(series, args.weight, args.order)
    monomials = basis_monomials(args.weight)
    names = [monomial_name(m) for m in monomials]
    if isinstance(result, NotInSpan):
        if args.json:
            _emit_json({"basis": names, "coeffs": None,
                        "not_in_span_at_degree": result.first_failing_degree,
                        "verified_to": args.order}, out)
        else:
            out.write(f"not in span: weight <= {args.weight}, first failing "
                      f"degree {result.first_failing_degree}\n")
        return 0
    coeffs = [result.coeffs.get(m, Fraction(0)) for m in monomials]
    if args.json:
        _emit_json({"basis": names,
                    "coeffs": [[str(c.numerator), str(c.denominator)] for c in coeffs],
                    "verified_to": args.order}, out)
    else:
        for name, c in zip(names, coeffs):
            if c:
                out.write(f"{name}\t{c}\n")
        out.write(f"weight\t{result.weight}\nverified_to\t{args.order}\n")
    return 0


def cmd_trace(args, out):
    chi = None
    if args.chi != "sym":
        try:
            chi = int(args.chi)
        except ValueError:
            raise ValueError(f"bad --chi {args.chi!r}: expected 'sym' or an integer") from None
    surface = SurfaceModel(chi=chi, K_trivial=args.K_trivial)
    ops, scale = parse_trace_word(args.word, surface)
    series = trace_product(ops, surface, args.order).scale(scale)
    _emit_series(series, args.json, out)
    return 0


def cmd_verify(args, out):
    names = "all" if args.check in (None, "all") else args.check.split(",")
    results = run_checks(names, order=args.order)
    if args.json:
        _emit_json([r.to_json_dict() for r in results], out)
    else:
        for r in results:
            out.write(f"{r.tag}\t{r.name}\t"
                      f"order={r.order}"
                      + (f"\t{r.detail}" if r.detail else "") + "\n")
    if any(r.error for r in results):
        return 3
    return 0 if all(r.passed for r in results) else 1


def build_arg_parser():
    top = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact q-series toolkit: expansion, quasi-modular "
                    "decomposition, Heisenberg traces, verification registry.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument("--order", type=int, default=None,
                       help=f"truncation order (default {DEFAULT_ORDER}; "
                            "env QZETA_DEFAULT_ORDER overrides)")

    p = sub.add_parser("expand", help="evaluate an expression to a q-series")
    p.add_argument("expr")
    add_order(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("decompose",
                       help="decompose an expression in the quasi-modular basis")
    p.add_argument("expr", help="expression text, or a path to a file holding "
                                "an expression or series JSON")
    p.add_argument("--weight", type=int, default=DEFAULT_WEIGHT)
    add_order(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("trace", help="trace a word of grouped Heisenberg operators")
    p.add_argument("word", help='e.g. "a[-2,1,1](1X) * a[-1,1](K)"')
    add_order(p)
    p.add_argument("--chi", default="sym",
                   help="'sym' for a symbolic Euler characteristic, or an integer")
    p.add_argument("--K-trivial", action="store_true", dest="K_trivial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument("--check", default="all",
                   help="comma-separated check names or 'all'; known: "
                        + ", ".join(CHECKS))
    add_order(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return top


@lru_cache(maxsize=None)
def _arg_parser():
    """The argument parser, built once per process and reused by every call."""
    return build_arg_parser()


def main(argv=None):
    top = _arg_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return exc.code if exc.code is not None else 0
    try:
        # verify keeps order=None so each check uses its registered default
        if args.order is None and args.fn is not cmd_verify:
            args.order = _order_default()
        _index_order(args.order)
        return args.fn(args, sys.stdout)
    except (ParseError, KeyError, ValueError, ZeroDivisionError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        # verify never gets here: run_checks reports a raising check as "error"
        print(f"error: order {args.order} is too large to allocate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
