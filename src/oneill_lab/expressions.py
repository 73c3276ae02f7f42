"""Tiny arithmetic-expression compiler for model files.

Custom models carry metric entries and field components as strings like
``"y1*y2/4"``. We parse with :mod:`ast` and admit only literals, chart
variable names, unary minus, and the four arithmetic operators plus ``**``
with a numeric literal exponent, optionally signed (``y1**2``, ``z**-0.5``).
No calls, no attributes, no subscripts: a model file is data, not code.
"""

from __future__ import annotations

import ast

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
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise RejectedInputError(f"unparsable expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise RejectedInputError(f"non-numeric literal in {text!r}")
            val = float(node.value)
            return lambda vs: val
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise RejectedInputError(f"unknown variable {node.id!r} in {text!r}")
            i = index[node.id]
            return lambda vs: vs[i]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return lambda vs: -inner(vs)
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
            return lambda vs: op(left(vs), right(vs))
        raise RejectedInputError(
            f"disallowed syntax {type(node).__name__} in expression {text!r}"
        )

    return build(tree)
