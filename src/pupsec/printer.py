"""Pretty-printer for the manifest subset.

Emits source text that reparses to a structurally equal AST.  Also used
to derive a stable textual form for non-literal resource titles.
"""

from __future__ import annotations

from .nodes import (
    AccessExpr,
    ArrayLiteral,
    Assignment,
    AttributeNode,
    BinaryOp,
    BoolLiteral,
    CaseStatement,
    ClassDef,
    DefinedTypeDef,
    Expr,
    ExprStatement,
    FunctionCall,
    HashLiteral,
    IfStatement,
    InterpolatedString,
    Manifest,
    NumberLiteral,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    ResourceRef,
    SelectorExpr,
    Statement,
    StrLiteral,
    UnaryOp,
    UndefLiteral,
    VarRef,
)


def _escape_sq(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'")


def _escape_dq_fragment(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"').replace("$", "\\$")
    return out.replace("\n", "\\n").replace("\t", "\\t")


def expr_text(expr: Expr) -> str:
    if isinstance(expr, StrLiteral):
        return f"'{_escape_sq(expr.value)}'"
    if isinstance(expr, InterpolatedString):
        pieces = []
        for part in expr.parts:
            if isinstance(part, str):
                pieces.append(_escape_dq_fragment(part))
            elif isinstance(part, VarRef):
                pieces.append("${" + part.name + "}")
            else:
                pieces.append("${" + expr_text(part) + "}")
        return '"' + "".join(pieces) + '"'
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({', '.join(expr_text(a) for a in expr.args)})"
    if isinstance(expr, ArrayLiteral):
        return "[" + ", ".join(expr_text(i) for i in expr.items) + "]"
    if isinstance(expr, HashLiteral):
        entries = ", ".join(f"{expr_text(k)} => {expr_text(v)}" for k, v in expr.entries)
        return "{ " + entries + " }" if entries else "{}"
    if isinstance(expr, UndefLiteral):
        return "undef"
    if isinstance(expr, BoolLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, NumberLiteral):
        return repr(expr.value)
    if isinstance(expr, ResourceRef):
        return f"{expr.type_name}[{expr_text(expr.title)}]"
    if isinstance(expr, (BinaryOp, AccessExpr, SelectorExpr)):
        # A left-nested chain such as 'a' + 'b' + 'c', $h[1][2] or
        # $x ? { ... } ? { ... } is walked in a loop, so its length is not
        # bounded by the recursion limit.
        opens = 0
        tails = []
        while True:
            if isinstance(expr, BinaryOp):
                opens += 1
                tails.append(f" {expr.op} {expr_text(expr.right)})")
                expr = expr.left
            elif isinstance(expr, AccessExpr):
                tails.append(f"[{expr_text(expr.key)}]")
                expr = expr.base
            elif isinstance(expr, SelectorExpr):
                arms = ", ".join(
                    f"{'default' if a.is_default else expr_text(a.match)} => {expr_text(a.value)}"
                    for a in expr.arms
                )
                tails.append(f" ? {{ {arms} }}")
                expr = expr.scrutinee
            else:
                break
        return "(" * opens + expr_text(expr) + "".join(reversed(tails))
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{expr_text(expr.operand)}"
    raise TypeError(f"unknown expression node: {expr!r}")


def _param_text(param: Parameter) -> str:
    if param.default is None:
        return f"${param.name}"
    return f"${param.name} = {expr_text(param.default)}"


def _attr_lines(attrs: tuple[AttributeNode, ...], indent: str) -> list[str]:
    return [f"{indent}{a.name} => {expr_text(a.value)}," for a in attrs]


def statement_lines(stmt: Statement, depth: int = 0) -> list[str]:
    ind = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(stmt, Assignment):
        return [f"{ind}${stmt.var_name} = {expr_text(stmt.value)}"]
    if isinstance(stmt, ResourceDecl):
        lines = [f"{ind}{stmt.type_name} {{ {expr_text(stmt.title)}:"]
        lines += _attr_lines(stmt.attributes, inner)
        lines.append(f"{ind}}}")
        return lines
    if isinstance(stmt, ResourceOverride):
        lines = [f"{ind}{stmt.type_name}[{expr_text(stmt.title)}] {{"]
        lines += _attr_lines(stmt.attributes, inner)
        lines.append(f"{ind}}}")
        return lines
    if isinstance(stmt, (ClassDef, DefinedTypeDef)):
        kw = "class" if isinstance(stmt, ClassDef) else "define"
        params = ""
        if stmt.parameters:
            params = " (" + ", ".join(_param_text(p) for p in stmt.parameters) + ")"
        lines = [f"{ind}{kw} {stmt.name}{params} {{"]
        for s in stmt.body:
            lines += statement_lines(s, depth + 1)
        lines.append(f"{ind}}}")
        return lines
    if isinstance(stmt, IfStatement):
        lines = [f"{ind}if {expr_text(stmt.condition)} {{"]
        for s in stmt.then_body:
            lines += statement_lines(s, depth + 1)
        if stmt.else_body:
            lines.append(f"{ind}}} else {{")
            for s in stmt.else_body:
                lines += statement_lines(s, depth + 1)
        lines.append(f"{ind}}}")
        return lines
    if isinstance(stmt, CaseStatement):
        lines = [f"{ind}case {expr_text(stmt.scrutinee)} {{"]
        for arm in stmt.arms:
            labels = [expr_text(m) for m in arm.matches]
            if arm.is_default:
                labels.append("default")
            lines.append(f"{inner}{', '.join(labels)}: {{")
            for s in arm.body:
                lines += statement_lines(s, depth + 2)
            lines.append(f"{inner}}}")
        lines.append(f"{ind}}}")
        return lines
    if isinstance(stmt, ExprStatement):
        return [f"{ind}{expr_text(stmt.expr)}"]
    raise TypeError(f"unknown statement node: {stmt!r}")


def manifest_source(manifest: Manifest) -> str:
    lines: list[str] = []
    for stmt in manifest.statements:
        lines += statement_lines(stmt)
        lines.append("")
    return "\n".join(lines)
