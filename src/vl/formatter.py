"""Canonical source formatter: deterministic 4-space layout, idempotent.

Comments, `//` and `///` alike, are woven back in at declaration/statement
granularity: own-line comments stay on their own line, trailing comments stay
on their line.  Doc comments get their `/// ` marker back on every line.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from . import ast
from .ast import expr_text, type_text
from .tokens import DocComment


def format_source(sf: ast.SourceFile) -> str:
    return _Fmt(sf).run()


class _Fmt:
    def __init__(self, sf: ast.SourceFile):
        self.sf = sf
        self.out: list[str] = []
        self.indent = 0
        self.comments = sf.comments
        self.used = [False] * len(self.comments)
        # Every comment before the furthest `leading` query is used, so a
        # cursor that only moves forward finds the rest.
        self.next_comment = 0
        # A comment runs to the end of its line: at most one per line.
        self.trailing_at = {c.span.line: i for i, c in enumerate(self.comments) if not c.own_line}
        self.doc_end = -1  # length of `out` after the latest `///` block put on its own lines
        self.newlines = [m.start() for m in re.finditer("\n", sf.text)]

    def line_of(self, byte: int) -> int:
        return bisect_right(self.newlines, byte - 1) + 1

    def put(self, text: str) -> None:
        self.out.append("    " * self.indent + text if text else "")

    # -- comment weaving --

    def leading(self, byte: int) -> None:
        while self.next_comment < len(self.comments):
            i = self.next_comment
            c = self.comments[i]
            if c.span.byte_start >= byte:
                break
            if not self.used[i]:
                self.used[i] = True
                if isinstance(c, DocComment):
                    # Two adjacent blocks would read back as one: keep the
                    # blank line the parser puts between them.
                    if self.doc_end == len(self.out):
                        self.put("///")
                    for line in _lines(c):
                        self.put(line)
                    self.doc_end = len(self.out)
                else:
                    self.put(c.text)
            self.next_comment += 1

    def trailing(self, span) -> None:
        if span is not None and span.byte_end:
            self.trailing_on(self.line_of(span.byte_end - 1))

    def trailing_on(self, line: int) -> None:
        """Append the comment at the end of source `line` to the last output line."""
        i = self.trailing_at.get(line)
        if i is not None and not self.used[i]:
            self.used[i] = True
            if self.out:
                self.out[-1] += " " + _lines(self.comments[i])[0]

    # -- top level --

    def run(self) -> str:
        for i, item in enumerate(self.sf.items):
            if i:
                self.put("")
            self.emit_item(item)
        self.leading(len(self.sf.text))
        return "\n".join(self.out) + "\n" if self.out else ""

    def emit_item(self, item) -> None:
        self.leading(item.span.byte_start)
        if isinstance(item, ast.ModuleDecl):
            self.emit_module(item)
        else:
            self.emit_package(item)
        self.trailing(item.span)

    def emit_module(self, m: ast.ModuleDecl) -> None:
        head = "pub module " if m.is_pub else "module "
        head += m.name
        if m.generic_params:
            head += "::<" + ", ".join(m.generic_params) + ">"
        if m.params:
            self.open_list(head + " #(", m.params_span, m.params[0])
            self.indent += 1
            for p in m.params:
                self.emit_param(p)
            self.comments_before_close(m.params_span)
            self.indent -= 1
            head = ")"
        if m.ports:
            self.open_list(head + " (", m.ports_span, m.ports[0])
            self.indent += 1
            for p in m.ports:
                self.emit_port(p)
            self.comments_before_close(m.ports_span)
            self.indent -= 1
            self.put(") {")
        else:
            self.put(head + " () {")
        self.indent += 1
        for it in m.body:
            self.emit_module_item(it)
        self.comments_before_close(m.span)
        self.indent -= 1
        self.put("}")

    def open_list(self, text: str, span, first) -> None:
        """Put `text`, the opener of the param or port list at `span`.  A
        comment on the opener's line stays there, unless the list's `first`
        entry starts on that line too and takes it."""
        self.put(text)
        if first.span.line != span.line:
            self.trailing_on(span.line)

    def emit_param(self, p: ast.ParamDecl) -> None:
        self.leading(p.span.byte_start)
        self.put(f"param {p.name}: {type_text(p.ty)} = {expr_text(p.default)},")
        self.trailing(p.span)

    def emit_port(self, p: ast.PortDecl) -> None:
        self.leading(p.span.byte_start)
        dom = f"`{p.domain} " if p.domain else ""
        self.put(f"{p.name}: {p.direction} {dom}{type_text(p.ty)},")
        self.trailing(p.span)

    def emit_package(self, pkg: ast.PackageDecl) -> None:
        head = "pub package " if pkg.is_pub else "package "
        self.put(head + pkg.name + " {")
        self.indent += 1
        for it in pkg.items:
            self.emit_module_item(it)
        self.comments_before_close(pkg.span)
        self.indent -= 1
        self.put("}")

    # -- module items --

    def emit_module_item(self, it) -> None:
        self.leading(it.span.byte_start)
        if isinstance(it, ast.VarDecl):
            dom = f"`{it.domain} " if it.domain else ""
            self.put(f"var {it.name}: {dom}{type_text(it.ty)};")
        elif isinstance(it, ast.ConstDecl):
            self.put(f"const {it.name}: {type_text(it.ty)} = {expr_text(it.value)};")
        elif isinstance(it, ast.InstDecl):
            self.emit_inst(it)
        elif isinstance(it, ast.AssignItem):
            self.put(f"assign {expr_text(it.lvalue)} = {expr_text(it.rhs)};")
        elif isinstance(it, ast.AlwaysFf):
            head = "always_ff"
            if it.clock_name:
                names = it.clock_name + (f", {it.reset_name}" if it.reset_name else "")
                head += f" ({names})"
            self.put(head + " {")
            self.emit_block(it.body)
            self.put("}")
        elif isinstance(it, ast.AlwaysComb):
            self.put("always_comb {")
            self.emit_block(it.body)
            self.put("}")
        elif isinstance(it, ast.FunctionDecl):
            args = ", ".join(f"{a.name}: {type_text(a.ty)}" for a in it.args)
            self.put(f"function {it.name} ({args}) -> {type_text(it.ret)} {{")
            self.emit_block(it.body)
            self.put("}")
        elif isinstance(it, ast.UnsafeCdcItem):
            self.put("unsafe (cdc) {")
            self.indent += 1
            for sub in it.items:
                self.emit_module_item(sub)
            self.comments_before_close(it.span)
            self.indent -= 1
            self.put("}")
        else:
            raise TypeError(f"unexpected module item {it!r}")
        self.trailing(it.span)

    def emit_inst(self, it: ast.InstDecl) -> None:
        head = f"inst {it.name}: {it.target.text}"
        if it.generic_args:
            head += "::<" + ", ".join(g.text for g in it.generic_args) + ">"
        if not it.param_conns and not it.port_conns:
            self.put(head + ";")
            return
        # Comments inside the lists are rare: place them per connection only
        # when the next unplaced comment starts inside this instance.
        i = self.next_comment
        commented = i < len(self.comments) and self.comments[i].span.byte_start < it.span.byte_end
        last_line = self.line_of(it.span.byte_end - 1)
        closing = it.port_conns or it.param_conns
        for conns, opener in ((it.param_conns, " #("), (it.port_conns, " (")):
            if not conns:
                continue
            self.put(head + opener)
            self.indent += 1
            for c in conns:
                if commented:
                    self.leading(c.name_span.byte_start)
                self.put(f"{c.name}: {expr_text(c.expr)},")
                if commented and self.line_of(c.expr.span.byte_end - 1) != last_line:  # a comment there follows `);`
                    self.trailing(c.expr.span)
            if conns is closing:
                self.comments_before_close(it.span)
            self.indent -= 1
            head = ")"
        self.put(");")

    # -- statements --

    def emit_block(self, block: ast.Block) -> None:
        self.indent += 1
        for s in block.stmts:
            self.emit_stmt(s)
        self.comments_before_close(block.span)
        self.indent -= 1

    def comments_before_close(self, span) -> None:
        """Keep comments before a closing `}` or `)` inside the block or list they are in."""
        self.leading(span.byte_end - 1)

    def emit_stmt(self, s) -> None:
        self.leading(s.span.byte_start)
        if isinstance(s, ast.AssignStmt):
            self.put(f"{expr_text(s.lvalue)} {s.op} {expr_text(s.rhs)};")
        elif isinstance(s, (ast.IfStmt, ast.IfResetStmt)):
            arms, orelse = ast.if_arms(s)
            head = ""
            for cond, block in arms:
                self.put(head + ("if_reset {" if cond is None else f"if {expr_text(cond)} {{"))
                self.emit_block(block)
                head = "} else "
            if orelse is not None:
                self.put("} else {")
                self.emit_block(orelse)
            self.put("}")
        elif isinstance(s, ast.ReturnStmt):
            self.put(f"return {expr_text(s.value)};")
        elif isinstance(s, ast.UnsafeCdcStmt):
            self.put("unsafe (cdc) {")
            self.emit_block(s.body)
            self.put("}")
        elif isinstance(s, ast.Block):
            self.put("{")
            self.emit_block(s)
            self.put("}")
        else:
            raise TypeError(f"unexpected statement {s!r}")
        self.trailing(s.span)


def _lines(c) -> list[str]:
    """The output lines of a comment: a `//` one verbatim, a doc comment with
    its `///` marker back on every line."""
    if isinstance(c, DocComment):
        return [f"/// {line}" if line else "///" for line in c.text.split("\n")]
    return [c.text]
