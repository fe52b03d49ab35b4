"""SystemVerilog emission, instantiating clock edges and reset polarity from
the build configuration.  Output style is fixed: 2-space indent, begin/end on
every branch, one statement per line."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import ast
from .analyzer import FfBinding
from .ast import expr_text
from .diagnostics import Diagnostic
from .resolver import clock_or_reset
from .tokens import Span

_SCALARS = {"logic": "logic", "bit": "bit", "u32": "int unsigned", "u64": "longint unsigned"}


@dataclass(frozen=True)
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
    out = _SCALARS[ty.kind]
    for d in ty.packed_dims:
        out += ("" if out.endswith("]") else " ") + "[" + _bound(d, "{}-1:0") + "]"
    return out


def unpacked_suffix(ty: ast.TypeSpec) -> str:
    """Unpacked array dimensions, placed after the declared name."""
    out = ""
    for d in ty.unpacked_dims:
        out += " [" + _bound(d, "0:{}-1") + "]"
    return out


def effective_reset(kind: str | None, cfg: EmitConfig) -> str:
    """async_low/async_high/sync_low/sync_high after applying the config."""
    if kind is None or kind == "reset":
        return cfg.reset_type
    return kind.removeprefix("reset_")


def effective_clock_edge(kind: str | None, cfg: EmitConfig) -> str:
    if kind == "clock_posedge":
        return "posedge"
    if kind == "clock_negedge":
        return "negedge"
    return cfg.clock_type


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str) -> None:
        self.lines.append("  " * self.depth + text if text else "")


def lower_always_ff(ff: ast.AlwaysFf, binding: FfBinding, cfg: EmitConfig, w: _Writer) -> None:
    """One SystemVerilog always_ff per source always_ff, edges from config."""
    edge = effective_clock_edge(binding.clock_kind, cfg)
    sens = f"{edge} {binding.clock}"
    reset_kind = effective_reset(binding.reset_kind, cfg) if binding.reset else None
    if binding.reset and binding.uses_if_reset and reset_kind.startswith("async"):
        reset_edge = "posedge" if reset_kind.endswith("high") else "negedge"
        sens += f" or {reset_edge} {binding.reset}"
    w.put(f"always_ff @ ({sens}) begin")
    _lower_block(ff.body, w, True, binding, reset_kind)
    w.put("end")


def _reset_condition(binding: FfBinding, reset_kind: str | None) -> str:
    if binding.reset is None:
        return "1'b0"  # unreachable on analyzed input (E0313)
    active_high = reset_kind is not None and reset_kind.endswith("high")
    return binding.reset if active_high else f"!{binding.reset}"


def _lower_block(block: ast.Block, w: _Writer, nb: bool, binding: FfBinding | None = None, reset_kind: str | None = None) -> None:
    w.depth += 1
    for s in block.stmts:
        _lower_stmt(s, w, nb, binding, reset_kind)
    w.depth -= 1


def _lower_stmt(s: ast.Stmt, w: _Writer, nb: bool, binding: FfBinding | None, reset_kind: str | None) -> None:
    asgn = "<=" if nb else "="
    if isinstance(s, ast.AssignStmt):
        lhs = expr_text(s.lvalue)
        if s.op == "=":
            w.put(f"{lhs} {asgn} {expr_text(s.rhs)};")
        else:
            w.put(f"{lhs} {asgn} {lhs} {s.op[:-1]} ({expr_text(s.rhs)});")
    elif isinstance(s, (ast.IfStmt, ast.IfResetStmt)):
        arms, orelse = ast.if_arms(s)
        head = "if"
        for cond, block in arms:
            test = _reset_condition(binding, reset_kind) if cond is None else expr_text(cond)
            w.put(f"{head} ({test}) begin")
            _lower_block(block, w, nb, binding, reset_kind)
            head = "end else if"
        if orelse is not None:
            w.put("end else begin")
            _lower_block(orelse, w, nb, binding, reset_kind)
        w.put("end")
    elif isinstance(s, ast.ReturnStmt):
        w.put(f"return {expr_text(s.value)};")
    elif isinstance(s, ast.UnsafeCdcStmt):
        for sub in s.body.stmts:
            _lower_stmt(sub, w, nb, binding, reset_kind)
    elif isinstance(s, ast.Block):
        w.put("begin")
        _lower_block(s, w, nb, binding, reset_kind)
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
    param_lines = [f"parameter {lower_type(p.ty)} {p.name} = {expr_text(p.default)}" for p in m.params]
    port_lines = [f"{p.direction} {lower_type(p.ty)} {p.name}{unpacked_suffix(p.ty)}" for p in m.ports]

    head = f"module {m.name}"
    if param_lines:
        w.put(head + " #(")
        for i, line in enumerate(param_lines):
            w.put("  " + line + ("," if i + 1 < len(param_lines) else ""))
        head = ")"
    if port_lines:
        w.put(head + " (")
        for i, line in enumerate(port_lines):
            w.put("  " + line + ("," if i + 1 < len(port_lines) else ""))
        w.put(");")
    elif param_lines:
        w.put(");")
    else:
        w.put(head + ";")

    w.depth += 1
    for it, _ in ast.iter_module_items(m.body):
        _emit_module_item(it, w, resolved, cfg)
    w.depth -= 1
    w.put("endmodule")
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
        w.put(f"{head} #(")
        w.depth += 1
        for i, c in enumerate(it.param_conns):
            w.put(f".{c.name} ({expr_text(c.expr)})" + ("," if i + 1 < len(it.param_conns) else ""))
        w.depth -= 1
        head = ")"
    if not it.port_conns:
        w.put(f"{head} {it.name} ();")
        return
    w.put(f"{head} {it.name} (")
    w.depth += 1
    for i, c in enumerate(it.port_conns):
        w.put(f".{c.name} ({expr_text(c.expr)})" + ("," if i + 1 < len(it.port_conns) else ""))
    w.depth -= 1
    w.put(");")


def emit_package(pkg: ast.PackageDecl, cfg: EmitConfig) -> str:
    w = _Writer()
    w.put(f"package {pkg.name};")
    w.depth += 1
    for it in pkg.items:
        _emit_module_item(it, w, {}, cfg)
    w.depth -= 1
    w.put("endpackage")
    return "\n".join(w.lines) + "\n"


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
    written: list[Path] = []
    diags: list[Diagnostic] = []
    if not files:
        return written, diags
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        diags.append(Diagnostic("EIO01", f"cannot create output directory: {err}", _io_span(out_dir)))
        return written, diags
    for stem, items in files:
        text = emit_items(items, cfg, resolved)
        path = out_dir / f"{stem}.sv"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as err:
            diags.append(Diagnostic("EIO01", f"cannot write {path}: {err}", _io_span(out_dir)))
            return written, diags
        written.append(path)
    return written, diags


def _io_span(path: Path) -> Span:
    return Span(str(path), 0, 0, 1, 1)
