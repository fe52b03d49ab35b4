"""SystemVerilog emission, instantiating clock edges and reset polarity from
the build configuration.  Output style is fixed: 2-space indent, begin/end on
every branch, one statement per line."""

from __future__ import annotations

from pathlib import Path

from . import ast
from .analyzer import FfBinding
from .ast import clock_or_reset, expr_text
from .diagnostics import Diagnostic, write_outputs
from .record import record
from .tokens import SCALAR_TYPES


@record(frozen=True)
class EmitConfig:
    clock_type: str = "posedge"
    reset_type: str = "async_low"


def _bound(e: ast.Expr, suffix: str) -> str:
    """A dimension bound, emitted textually (params are not pre-evaluated)."""
    text = expr_text(e)
    if not isinstance(e, (ast.PathExpr, ast.DecLiteral, ast.SizedLiteral, ast.ParenExpr)):
        text = f"({text})"
    return suffix.format(text)


def lower_type(ty: ast.TypeSpec) -> str:
    """SystemVerilog core type text (packed dims included, unpacked excluded)."""
    if clock_or_reset(ty):
        return "logic"
    out = SCALAR_TYPES[ty.kind]
    for d in ty.packed_dims:
        out += ("" if out.endswith("]") else " ") + "[" + _bound(d, "{}-1:0") + "]"
    return out


def unpacked_suffix(ty: ast.TypeSpec) -> str:
    """Unpacked array dimensions, placed after the declared name."""
    out = ""
    for d in ty.unpacked_dims:
        out += " [" + _bound(d, "0:{}-1") + "]"
    return out


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str) -> None:
        self.lines.append("  " * self.depth + text if text else "")

    def comma_list(self, head: str, items: list[str]) -> None:
        """`head`, then `items` one level deeper, one a line, comma-separated."""
        self.put(head)
        self.depth += 1
        for i, item in enumerate(items):
            self.put(item + ("," if i + 1 < len(items) else ""))
        self.depth -= 1


def _kind(type_kind: str, configured: str) -> str:
    """The edge or reset kind after the `_` of a type like `clock_negedge` or
    `reset_sync_high`; for a plain `clock` or `reset`, the `configured` one."""
    return type_kind.partition("_")[2] or configured


def lower_always_ff(ff: ast.AlwaysFf, binding: FfBinding, cfg: EmitConfig, w: _Writer) -> None:
    """One SystemVerilog always_ff per source always_ff.  Emit runs only without
    errors, where the clock is bound, and so is the reset of an `if_reset`."""
    sens = f"{_kind(binding.clock_kind, cfg.clock_type)} {binding.clock}"
    reset_test = None
    if binding.reset:
        reset_kind = _kind(binding.reset_kind, cfg.reset_type)
        reset_test = _reset_condition(binding, reset_kind)
        if binding.uses_if_reset and reset_kind.startswith("async"):
            reset_edge = "posedge" if reset_kind.endswith("high") else "negedge"
            sens += f" or {reset_edge} {binding.reset}"
    w.put(f"always_ff @ ({sens}) begin")
    _lower_block(ff.body, w, True, reset_test)
    w.put("end")


def _reset_condition(binding: FfBinding, reset_kind: str) -> str:
    """The test of an `if_reset` arm."""
    return binding.reset if reset_kind.endswith("high") else f"!{binding.reset}"


def _lower_block(block: ast.Block, w: _Writer, nb: bool, reset_test: str | None = None) -> None:
    """`block`'s statements one level deeper: nonblocking assignments if `nb`,
    and `reset_test` as the test of an `if_reset` arm."""
    w.depth += 1
    for s in block.stmts:
        _lower_stmt(s, w, nb, reset_test)
    w.depth -= 1


def _lower_stmt(s: ast.Stmt, w: _Writer, nb: bool, reset_test: str | None) -> None:
    asgn = "<=" if nb else "="
    if isinstance(s, ast.AssignStmt):
        lhs = expr_text(s.lvalue)
        if s.op == "=":
            w.put(f"{lhs} {asgn} {expr_text(s.rhs)};")
        else:
            w.put(f"{lhs} {asgn} {lhs} {s.op[:-1]} ({expr_text(s.rhs)});")
    elif isinstance(s, ast.IfStmt):
        head = "if"
        for cond, block in s.arms:
            w.put(f"{head} ({reset_test if cond is None else expr_text(cond)}) begin")
            _lower_block(block, w, nb, reset_test)
            head = "end else if"
        if s.orelse is not None:
            w.put("end else begin")
            _lower_block(s.orelse, w, nb, reset_test)
        w.put("end")
    elif isinstance(s, ast.ReturnStmt):
        w.put(f"return {expr_text(s.value)};")
    elif isinstance(s, ast.UnsafeCdcStmt):
        for sub in s.body.stmts:
            _lower_stmt(sub, w, nb, reset_test)
    elif isinstance(s, ast.Block):
        w.put("begin")
        _lower_block(s, w, nb, reset_test)
        w.put("end")
    else:
        raise TypeError(f"unexpected statement {s!r}")


def emit_module(m: ast.ModuleDecl, cfg: EmitConfig, resolved: dict) -> str:
    """Lower one analyzed, monomorphized module to SystemVerilog text.

    `resolved` is the second result of `analyze_unit`, which holds the
    binding of each `always_ff` keyed by the node's id; generic instances
    share those nodes with their template.
    """
    w = _Writer()
    head = f"module {m.name}"
    if m.params:
        w.comma_list(head + " #(", [f"parameter {lower_type(p.ty)} {p.name} = {expr_text(p.default)}" for p in m.params])
        head = ")"
    if m.ports:
        w.comma_list(head + " (", [f"{p.direction} {lower_type(p.ty)} {p.name}{unpacked_suffix(p.ty)}" for p in m.ports])
        head = ")"
    w.put(head + ";")
    return _emit_body(w, (it for it, _ in ast.iter_module_items(m.body)), resolved, cfg, "endmodule")


def emit_package(pkg: ast.PackageDecl, cfg: EmitConfig) -> str:
    w = _Writer()
    w.put(f"package {pkg.name};")
    return _emit_body(w, pkg.items, {}, cfg, "endpackage")


def _emit_body(w: _Writer, items, resolved: dict, cfg: EmitConfig, end: str) -> str:
    """The text of `w` after `items` one level deeper, then `end`."""
    w.depth += 1
    for it in items:
        _emit_module_item(it, w, resolved, cfg)
    w.depth -= 1
    w.put(end)
    return "\n".join(w.lines) + "\n"


def _emit_module_item(it, w: _Writer, bindings, cfg: EmitConfig) -> None:
    if isinstance(it, ast.VarDecl):
        w.put(f"{lower_type(it.ty)} {it.name}{unpacked_suffix(it.ty)};")
    elif isinstance(it, ast.ConstDecl):
        w.put(f"localparam {lower_type(it.ty)} {it.name} = {expr_text(it.value)};")
    elif isinstance(it, ast.AssignItem):
        w.put(f"assign {expr_text(it.lvalue)} = {expr_text(it.rhs)};")
    elif isinstance(it, ast.AlwaysFf):
        lower_always_ff(it, bindings[id(it)], cfg, w)
    elif isinstance(it, ast.AlwaysComb):
        w.put("always_comb begin")
        _lower_block(it.body, w, False)
        w.put("end")
    elif isinstance(it, ast.InstDecl):
        _emit_inst(it, w)
    elif isinstance(it, ast.FunctionDecl):
        args = ", ".join(f"input {lower_type(a.ty)} {a.name}" for a in it.args)
        w.put(f"function automatic {lower_type(it.ret)} {it.name}({args});")
        _lower_block(it.body, w, False)
        w.put("endfunction")
    else:
        raise TypeError(f"unexpected module item {it!r}")


def _emit_inst(it: ast.InstDecl, w: _Writer) -> None:
    head = it.target.segments[-1]
    if it.param_conns:
        w.comma_list(f"{head} #(", [f".{c.name} ({expr_text(c.expr)})" for c in it.param_conns])
        head = ")"
    if it.port_conns:
        w.comma_list(f"{head} {it.name} (", [f".{c.name} ({expr_text(c.expr)})" for c in it.port_conns])
        w.put(");")
    else:
        w.put(f"{head} {it.name} ();")


def emit_items(items: list[ast.Item], cfg: EmitConfig, resolved: dict) -> str:
    """One source file's worth of SystemVerilog, modules in order."""
    parts = []
    for item in items:
        if isinstance(item, ast.ModuleDecl):
            parts.append(emit_module(item, cfg, resolved))
        else:
            parts.append(emit_package(item, cfg))
    return "\n".join(parts)


def emit_project(
    files: list[tuple[str, list[ast.Item]]],
    cfg: EmitConfig,
    resolved: dict,
    out_dir: Path,
) -> tuple[list[Path], list[Diagnostic]]:
    """Write one `.sv` per source file (same stem); byte-stable across runs."""
    return write_outputs((out_dir / f"{stem}.sv", emit_items(items, cfg, resolved)) for stem, items in files)
