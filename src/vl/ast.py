"""Syntax tree for vl source files.

Nodes keep their spans so the formatter can weave the file's comments back
in at declaration granularity; modules, params and ports also keep the doc
comments `vl doc` reads.
"""

from __future__ import annotations

from .record import field, record
from .tokens import CLOCK_TYPES, RESET_TYPES, Comment, DocComment, Span


# --- types ---------------------------------------------------------------


@record
class TypeSpec:
    kind: str  # one of `tokens.TYPE_KEYWORDS`
    packed_dims: list["Expr"] = field(default_factory=list)
    unpacked_dims: list["Expr"] = field(default_factory=list)
    span: Span | None = None


_CLOCK_OR_RESET = CLOCK_TYPES | RESET_TYPES


def clock_or_reset(ty: TypeSpec | None) -> bool:
    """Whether `ty` is a clock or reset type; such a signal feeds only
    sensitivity lists and clock/reset ports."""
    return ty is not None and ty.kind in _CLOCK_OR_RESET


# --- expressions ----------------------------------------------------------


@record
class PathExpr:
    segments: list[str]
    span: Span

    @property
    def text(self) -> str:
        return "::".join(self.segments)


@record
class SizedLiteral:
    text: str  # verbatim lexeme, e.g. 8'hff
    span: Span


@record
class DecLiteral:
    text: str
    span: Span

    @property
    def value(self) -> int:
        return int(self.text.replace("_", ""))


@record
class UnaryExpr:
    op: str
    operand: "Expr"
    span: Span


@record
class BinaryExpr:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span


@record
class IndexExpr:
    base: "Expr"
    index: "Expr"
    span: Span


@record
class RangeExpr:
    base: "Expr"
    hi: "Expr"
    lo: "Expr"
    span: Span


@record
class CallExpr:
    path: PathExpr
    args: list["Expr"]
    span: Span


@record
class ParenExpr:
    inner: "Expr"
    span: Span


Expr = PathExpr | SizedLiteral | DecLiteral | UnaryExpr | BinaryExpr | IndexExpr | RangeExpr | CallExpr | ParenExpr


# --- statements -----------------------------------------------------------


@record
class Block:
    stmts: list["Stmt"]
    span: Span


@record
class AssignStmt:
    lvalue: Expr
    op: str  # =, +=, -=, *=, &=, |=, ^=, <<=, >>=
    rhs: Expr
    span: Span


@record
class IfStmt:
    """An `if`/`else if` or `if_reset`/`else if` chain: its (condition,
    block) arms in source order, then its final `else` block.  Only the head
    arm of an `if_reset` chain has no condition."""

    arms: list[tuple[Expr | None, Block]]
    orelse: Block | None
    span: Span


@record
class ReturnStmt:
    value: Expr
    span: Span


@record
class UnsafeCdcStmt:
    body: Block
    span: Span


Stmt = AssignStmt | IfStmt | ReturnStmt | UnsafeCdcStmt | Block


# --- declarations ---------------------------------------------------------


@record
class ParamDecl:
    name: str
    name_span: Span
    ty: TypeSpec
    default: Expr
    span: Span
    doc: DocComment | None = None


@record
class PortDecl:
    name: str
    name_span: Span
    direction: str  # input | output
    domain: str | None
    ty: TypeSpec
    span: Span
    doc: DocComment | None = None


@record
class VarDecl:
    name: str
    name_span: Span
    domain: str | None
    ty: TypeSpec
    span: Span


@record
class ConstDecl:
    name: str
    name_span: Span
    ty: TypeSpec
    value: Expr
    span: Span


@record
class Connection:
    name: str
    name_span: Span
    expr: Expr


@record
class InstDecl:
    name: str
    name_span: Span
    target: PathExpr
    generic_args: list[PathExpr]
    param_conns: list[Connection]
    port_conns: list[Connection]
    span: Span
    generics_span: Span | None = None  # `<` to `>` of the generic argument list
    params_span: Span | None = None  # `#` to the `)` of the param list


@record
class AssignItem:
    lvalue: Expr
    rhs: Expr
    span: Span


@record
class AlwaysFf:
    clock_name: str | None
    clock_span: Span | None
    reset_name: str | None
    reset_span: Span | None
    body: Block
    span: Span


@record
class AlwaysComb:
    body: Block
    span: Span


@record
class ArgDecl:
    name: str
    name_span: Span
    ty: TypeSpec


@record
class FunctionDecl:
    name: str
    name_span: Span
    args: list[ArgDecl]
    ret: TypeSpec
    body: Block
    span: Span


@record
class UnsafeCdcItem:
    items: list["ModuleItem"]
    span: Span


ModuleItem = VarDecl | ConstDecl | InstDecl | AssignItem | AlwaysFf | AlwaysComb | FunctionDecl | UnsafeCdcItem


@record
class ModuleDecl:
    name: str
    name_span: Span
    generic_params: list[PathExpr]  # one-segment paths, each at its name
    params: list[ParamDecl]
    ports: list[PortDecl]
    body: list[ModuleItem]
    recovered: bool  # parse recovery dropped an item of `body`
    span: Span
    is_pub: bool = False
    doc: DocComment | None = None
    # The generic param list, `<` to `>`, and the param and port lists, `(`
    # to `)`, when present: the formatter keeps the comments on the opener's
    # line and before the closer inside their list.
    generics_span: Span | None = None
    params_span: Span | None = None
    ports_span: Span | None = None


@record
class PackageDecl:
    name: str
    name_span: Span
    items: list[ConstDecl | FunctionDecl]
    span: Span
    is_pub: bool = False


Item = ModuleDecl | PackageDecl


@record
class SourceFile:
    file_id: str
    text: str
    items: list[Item]
    # Every `//` and `///` comment, in source order; the formatter prints
    # each where it stands.
    comments: list[Comment | DocComment] = field(default_factory=list)


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
