"""Syntax tree for vl source files.

Nodes keep their spans so the formatter can weave the file's comments back
in at declaration granularity; modules, params and ports also keep the doc
comments `vl doc` reads.  `structure()` strips positions for the structural
comparisons the formatter tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

from .tokens import Comment, DocComment, Span

CLOCK_KINDS = frozenset({"clock", "clock_posedge", "clock_negedge"})
RESET_KINDS = frozenset({"reset", "reset_async_high", "reset_async_low", "reset_sync_high", "reset_sync_low"})


# --- types ---------------------------------------------------------------


@dataclass
class TypeSpec:
    kind: str  # clock*, reset*, logic, bit, u32, u64
    packed_dims: list["Expr"] = field(default_factory=list)
    unpacked_dims: list["Expr"] = field(default_factory=list)
    span: Span | None = None


# --- expressions ----------------------------------------------------------


@dataclass
class PathExpr:
    segments: list[str]
    span: Span

    @property
    def text(self) -> str:
        return "::".join(self.segments)


@dataclass
class SizedLiteral:
    text: str  # verbatim lexeme, e.g. 8'hff
    span: Span


@dataclass
class DecLiteral:
    text: str
    span: Span

    @property
    def value(self) -> int:
        return int(self.text.replace("_", ""))


@dataclass
class UnaryExpr:
    op: str
    operand: "Expr"
    span: Span


@dataclass
class BinaryExpr:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span


@dataclass
class IndexExpr:
    base: "Expr"
    index: "Expr"
    span: Span


@dataclass
class RangeExpr:
    base: "Expr"
    hi: "Expr"
    lo: "Expr"
    span: Span


@dataclass
class CallExpr:
    path: PathExpr
    args: list["Expr"]
    span: Span


@dataclass
class ParenExpr:
    inner: "Expr"
    span: Span


Expr = PathExpr | SizedLiteral | DecLiteral | UnaryExpr | BinaryExpr | IndexExpr | RangeExpr | CallExpr | ParenExpr


# --- statements -----------------------------------------------------------


@dataclass
class Block:
    stmts: list["Stmt"]
    span: Span


@dataclass
class AssignStmt:
    lvalue: Expr
    op: str  # =, +=, -=, *=, &=, |=, ^=, <<=, >>=
    rhs: Expr
    span: Span


@dataclass
class IfStmt:
    cond: Expr
    then: Block
    orelse: "Block | IfStmt | None"
    span: Span


@dataclass
class IfResetStmt:
    then: Block
    orelse: "Block | IfStmt | None"
    span: Span


@dataclass
class ReturnStmt:
    value: Expr
    span: Span


@dataclass
class UnsafeCdcStmt:
    body: Block
    span: Span


Stmt = AssignStmt | IfStmt | IfResetStmt | ReturnStmt | UnsafeCdcStmt | Block


# --- declarations ---------------------------------------------------------


@dataclass
class ParamDecl:
    name: str
    name_span: Span
    ty: TypeSpec
    default: Expr
    span: Span
    doc: DocComment | None = None


@dataclass
class PortDecl:
    name: str
    name_span: Span
    direction: str  # input | output
    domain: str | None
    ty: TypeSpec
    span: Span
    doc: DocComment | None = None


@dataclass
class VarDecl:
    name: str
    name_span: Span
    domain: str | None
    ty: TypeSpec
    span: Span


@dataclass
class ConstDecl:
    name: str
    name_span: Span
    ty: TypeSpec
    value: Expr
    span: Span


@dataclass
class Connection:
    name: str
    name_span: Span
    expr: Expr


@dataclass
class InstDecl:
    name: str
    name_span: Span
    target: PathExpr
    generic_args: list[PathExpr]
    param_conns: list[Connection]
    port_conns: list[Connection]
    span: Span


@dataclass
class AssignItem:
    lvalue: Expr
    rhs: Expr
    span: Span


@dataclass
class AlwaysFf:
    clock_name: str | None
    clock_span: Span | None
    reset_name: str | None
    reset_span: Span | None
    body: Block
    span: Span


@dataclass
class AlwaysComb:
    body: Block
    span: Span


@dataclass
class ArgDecl:
    name: str
    name_span: Span
    ty: TypeSpec


@dataclass
class FunctionDecl:
    name: str
    name_span: Span
    args: list[ArgDecl]
    ret: TypeSpec
    body: Block
    span: Span


@dataclass
class UnsafeCdcItem:
    items: list["ModuleItem"]
    span: Span


ModuleItem = VarDecl | ConstDecl | InstDecl | AssignItem | AlwaysFf | AlwaysComb | FunctionDecl | UnsafeCdcItem


@dataclass
class ModuleDecl:
    name: str
    name_span: Span
    generic_params: list[str]
    params: list[ParamDecl]
    ports: list[PortDecl]
    body: list[ModuleItem]
    recovered: bool  # parse recovery dropped an item of `body`
    span: Span
    is_pub: bool = False
    doc: DocComment | None = None
    # The param list and the port list, `(` to `)`, when present: the
    # formatter keeps the comments on the opener's line and before the `)`
    # inside their list.
    params_span: Span | None = None
    ports_span: Span | None = None


@dataclass
class PackageDecl:
    name: str
    name_span: Span
    items: list[ConstDecl | FunctionDecl]
    span: Span
    is_pub: bool = False


Item = ModuleDecl | PackageDecl


@dataclass
class SourceFile:
    file_id: str
    text: str
    items: list[Item]
    # Every `//` and `///` comment, in source order; the formatter prints
    # each where it stands.
    comments: list[Comment | DocComment] = field(default_factory=list)


# --- structural comparison -------------------------------------------------

_SKIP_FIELDS = frozenset({"span", "name_span", "clock_span", "reset_span", "text", "comments"})


def structure(node):
    """Positions-stripped nested-tuple form of a node, for structural equality.

    Doc comments participate (their text is content); spans and regular
    comments do not.  `SourceFile.text` is excluded; literal lexemes keep
    their `text` via the literal node types' explicit handling below.
    """
    if isinstance(node, (SizedLiteral, DecLiteral)):
        return (type(node).__name__, node.text)
    if isinstance(node, DocComment):
        return ("doc", node.text, node.own_line)
    if isinstance(node, Span) or node is None:
        return None
    if isinstance(node, (str, int, bool)):
        return node
    if isinstance(node, Enum):
        return node.name
    if isinstance(node, list):
        return tuple(structure(x) for x in node)
    if is_dataclass(node):
        parts = [type(node).__name__]
        for f in fields(node):
            if f.name in _SKIP_FIELDS:
                continue
            parts.append(structure(getattr(node, f.name)))
        return tuple(parts)
    raise TypeError(f"unexpected node {node!r}")


# --- canonical expression text ---------------------------------------------


def expr_text(e: Expr) -> str:
    """Canonical source text of an expression (valid vl and SystemVerilog)."""
    if isinstance(e, PathExpr):
        return e.text
    if isinstance(e, (SizedLiteral, DecLiteral)):
        return e.text
    if isinstance(e, UnaryExpr):
        # Nested operators stay apart: `- -i` must not become `--i`,
        # SystemVerilog's decrement.
        sep = " " if isinstance(e.operand, UnaryExpr) else ""
        return e.op + sep + expr_text(e.operand)
    if isinstance(e, BinaryExpr):
        # Walk the left spine in a loop: a long `a + b + ...` chain nests
        # to the left and would otherwise recurse once per term.
        tail = []
        while isinstance(e, BinaryExpr):
            tail.append(f" {e.op} {expr_text(e.rhs)}")
            e = e.lhs
        return expr_text(e) + "".join(reversed(tail))
    if isinstance(e, IndexExpr):
        return f"{expr_text(e.base)}[{expr_text(e.index)}]"
    if isinstance(e, RangeExpr):
        return f"{expr_text(e.base)}[{expr_text(e.hi)}:{expr_text(e.lo)}]"
    if isinstance(e, CallExpr):
        return f"{e.path.text}({', '.join(expr_text(a) for a in e.args)})"
    if isinstance(e, ParenExpr):
        return f"({expr_text(e.inner)})"
    raise TypeError(f"unexpected expression {e!r}")


def type_text(ty: TypeSpec) -> str:
    """Canonical vl source text of a type."""
    out = ty.kind
    if ty.packed_dims:
        out += "<" + ", ".join(expr_text(d) for d in ty.packed_dims) + ">"
    if ty.unpacked_dims:
        out += "[" + ", ".join(expr_text(d) for d in ty.unpacked_dims) + "]"
    return out


def walk_exprs(e: Expr):
    """Yield `e` and every sub-expression, in pre-order (children left to right)."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, UnaryExpr):
            stack.append(e.operand)
        elif isinstance(e, BinaryExpr):
            stack += (e.rhs, e.lhs)
        elif isinstance(e, IndexExpr):
            stack += (e.index, e.base)
        elif isinstance(e, RangeExpr):
            stack += (e.lo, e.hi, e.base)
        elif isinstance(e, CallExpr):
            stack += reversed(e.args)
        elif isinstance(e, ParenExpr):
            stack.append(e.inner)


def lvalue_base(e: Expr) -> PathExpr | None:
    """The driven path of an lvalue-shaped expression, or None."""
    while isinstance(e, (IndexExpr, RangeExpr)):
        e = e.base
    return e if isinstance(e, PathExpr) else None


def iter_module_items(body: list[ModuleItem], unsafe: bool = False):
    """Yield (item, inside_unsafe_cdc) with unsafe(cdc) wrappers flattened."""
    for it in body:
        if isinstance(it, UnsafeCdcItem):
            yield from iter_module_items(it.items, True)
        else:
            yield it, unsafe


def if_arms(s: IfStmt | IfResetStmt) -> tuple[list[tuple[Expr | None, Block]], Block | None]:
    """The (condition, block) arms of an `if`/`else if`/`if_reset` chain in
    source order, and its final `else` block.  Only an `if_reset` head has no
    condition."""
    arms = [(s.cond if isinstance(s, IfStmt) else None, s.then)]
    node = s.orelse
    while isinstance(node, IfStmt):
        arms.append((node.cond, node.then))
        node = node.orelse
    return arms, node


def iter_stmts(stmts: list[Stmt], unsafe: bool = False):
    """Yield (stmt, inside_unsafe_cdc) in pre-order, with blocks and unsafe(cdc)
    wrappers flattened; a chain is yielded once, by its head, followed by the
    statements of its arms in source order."""
    for s in stmts:
        if isinstance(s, Block):
            yield from iter_stmts(s.stmts, unsafe)
        elif isinstance(s, UnsafeCdcStmt):
            yield from iter_stmts(s.body.stmts, True)
        else:
            yield s, unsafe
            if isinstance(s, (IfStmt, IfResetStmt)):
                arms, orelse = if_arms(s)
                for _, block in arms:
                    yield from iter_stmts(block.stmts, unsafe)
                if orelse is not None:
                    yield from iter_stmts(orelse.stmts, unsafe)
