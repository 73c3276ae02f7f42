"""Tiny arithmetic-expression compiler for model files.

Custom models carry metric entries and field components as strings like
``"y1*y2/4"``. We parse with :mod:`ast` and admit only numeric literals (no
``True`` or ``False``), chart variable names, unary minus, and the four
arithmetic operators plus ``**`` with a numeric literal exponent, optionally
signed (``y1**2``, ``z**-0.5``). No calls, no attributes, no subscripts: a
model file is data, not code.

A part of literals only is folded into one float when compiled; one that
fails, or is not a finite real number, is rejected, and so is an expression
nested too deeply for the parser or the compiler.
"""

from __future__ import annotations

import ast
import math

from .errors import RejectedInputError

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def _signed_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def compile_expression(text: str, chart: list[str]):
    """Compile ``text`` into ``f(vars) -> jet|float`` over the chart names."""
    if not isinstance(text, str):
        raise RejectedInputError(f"expression must be a string, got {type(text).__name__}")
    index = {name: i for i, name in enumerate(chart)}
    variable = set()  # the compiled parts that read a chart variable

    def compiled(f, *parts):
        # f of its compiled parts; unless a part reads a chart variable, f is
        # evaluated here, once, by the float operations of every evaluation
        if not variable.isdisjoint(parts):
            variable.add(f)
            return f
        try:
            val = f(())
        except ArithmeticError as exc:
            raise RejectedInputError(f"constant part of {text!r} fails: {exc}") from exc
        if not isinstance(val, float) or not math.isfinite(val):
            raise RejectedInputError(
                f"constant part of {text!r} is not a finite real number: {val!r}"
            )
        return lambda vs: val

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise RejectedInputError(f"non-numeric literal in {text!r}")
            return compiled(lambda vs: float(node.value))
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise RejectedInputError(f"unknown variable {node.id!r} in {text!r}")
            i = index[node.id]
            read = lambda vs: vs[i]  # noqa: E731
            variable.add(read)
            return read
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return compiled(lambda vs: -inner(vs), inner)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return build(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left = build(node.left)
            right = build(node.right)
            # a jet is raised only to a number, never used as an exponent
            if isinstance(node.op, ast.Pow) and not _signed_number(node.right):
                raise RejectedInputError(
                    f"exponent must be a numeric literal in {text!r}"
                )
            return compiled(lambda vs: op(left(vs), right(vs)), left, right)
        raise RejectedInputError(
            f"disallowed syntax {type(node).__name__} in expression {text!r}"
        )

    try:
        return build(ast.parse(text, mode="eval"))
    except SyntaxError as exc:
        raise RejectedInputError(f"unparsable expression {text!r}: {exc}") from exc
    except RecursionError as exc:  # from the parser or from build
        raise RejectedInputError(
            f"expression nested too deeply to compile: {text[:40]!r}... ({len(text)} characters)"
        ) from exc


def _canonical(node) -> str:
    """The tree of ``node`` written out, with the two operands of each
    ``+`` and ``*`` in a fixed order."""
    if isinstance(node, ast.BinOp):
        left, right = _canonical(node.left), _canonical(node.right)
        if isinstance(node.op, (ast.Add, ast.Mult)) and right < left:
            left, right = right, left
        return f"{type(node.op).__name__}({left}, {right})"
    if isinstance(node, ast.UnaryOp):
        return f"{type(node.op).__name__}({_canonical(node.operand)})"
    return ast.dump(node)


def same_expression(a: str, b: str) -> bool:
    """Whether two expressions parse to the same tree up to the order of the
    two operands of each ``+`` and ``*``. Swapping the operands of one IEEE
    sum or product gives the same float; longer chains are not reassociated,
    as that can change the rounding. False where either does not parse, or
    is nested too deeply to compare."""
    try:
        trees = [ast.parse(text, mode="eval").body for text in (a, b)]
        return _canonical(trees[0]) == _canonical(trees[1])
    except (SyntaxError, RecursionError):
        return False


def block(value, label: str, length=None) -> list:
    """A chart, matrix, field or vector block of a model document: a JSON
    list, of ``length`` entries when given."""
    if not isinstance(value, list):
        raise RejectedInputError(f"{label} must be a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise RejectedInputError(f"{label} must have {length} entries")
    return value


def compile_vector(entries, variables, label: str, memo: dict, length=None) -> tuple:
    """A vector of expressions. ``memo``, a dict kept for one model
    document, compiles each distinct entry once per chart."""
    out = []
    for text in block(entries, label, length):
        key = (str(text), tuple(variables))
        if key not in memo:
            memo[key] = compile_expression(*key)
        out.append(memo[key])
    return tuple(out)


def compile_matrix(rows, variables, label: str, memo: dict) -> tuple:
    """A square matrix of expressions, one row per chart variable."""
    d = len(variables)
    return tuple(
        compile_vector(row, variables, f"{label} row {i}", memo, d)
        for i, row in enumerate(block(rows, label, d))
    )

