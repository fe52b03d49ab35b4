"""Canonical source formatter: deterministic 4-space layout, idempotent.

Comments, `//` and `///` alike, are woven back in at declaration/statement
granularity: own-line comments stay on their own line, trailing comments stay
on their line.  Doc comments get their `/// ` marker back on every line.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right

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
        self.comment_starts = [c.span.byte_start for c in self.comments]
        self.doc_end = -1  # length of `out` after the latest `///` block put on its own lines
        self.tailed = 0  # length of `out` when its last line got a trailing comment
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
        """Append the comment at the end of source `line` to the last output
        line, unless that line has one already: two would read back as one,
        so the second is left to `leading`, which puts it on its own line."""
        i = self.trailing_at.get(line)
        if i is not None and not self.used[i] and self.tailed != len(self.out):
            self.used[i] = True
            self.tailed = len(self.out)
            self.out[-1] += " " + _lines(self.comments[i])[0]

    def trailing_lines(self, first: int, end: int) -> None:
        """Append the comments at the ends of source lines `first` to `end - 1`
        to the last output line, while every comment before them is placed."""
        for line in range(first, end):
            i = self.trailing_at.get(line)
            if i is not None and not all(self.used[self.next_comment : i]):
                return
            self.trailing_on(line)

    def commented(self, span) -> bool:
        """Whether a comment starts inside `span`."""
        if span is None:
            return False
        i = bisect_left(self.comment_starts, span.byte_start)
        return i < len(self.comment_starts) and self.comment_starts[i] < span.byte_end

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
        line = m.name_span.line  # the first source line the next opener stands for
        # A list is written out, one entry per line, when it has entries or comments.
        if m.params or self.commented(m.params_span):
            self.emit_list(head + " #(", line, m.params, m.params_span, self.emit_param)
            head, line = ")", self.line_of(m.params_span.byte_end - 1)
        if m.ports or self.commented(m.ports_span):
            self.emit_list(head + " (", line, m.ports, m.ports_span, self.emit_port)
            head, line = ")", self.line_of(m.ports_span.byte_end - 1)
        else:
            head += " ()"
        self.emit_list(head + " {", line, m.body, m.span, self.emit_module_item)
        self.put("}")

    def emit_list(self, text: str, line: int, entries: list, span, emit) -> None:
        """Put `text`, the opener of a list or body that ends with `span`,
        then `emit` each of its `entries` one level in, then the comments
        before its closer.  The comments at the ends of the source lines
        from `line` up to the first entry's stay on the opener's line: one
        after the opener, or inside a `::<…>` list before it."""
        self.put(text)
        self.trailing_lines(line, entries[0].span.line if entries else self.line_of(span.byte_end - 1))
        self.indent += 1
        for e in entries:
            emit(e)
        self.comments_before_close(span)
        self.indent -= 1

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
        self.emit_list(head + pkg.name + " {", pkg.name_span.line, pkg.items, pkg.span, self.emit_module_item)
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
            self.emit_block(head + " {", it.body)
            self.put("}")
        elif isinstance(it, ast.AlwaysComb):
            self.emit_block("always_comb {", it.body)
            self.put("}")
        elif isinstance(it, ast.FunctionDecl):
            args = ", ".join(f"{a.name}: {type_text(a.ty)}" for a in it.args)
            self.emit_block(f"function {it.name} ({args}) -> {type_text(it.ret)} {{", it.body)
            self.put("}")
        elif isinstance(it, ast.UnsafeCdcItem):
            self.emit_list("unsafe (cdc) {", it.span.line, it.items, it.span, self.emit_module_item)
            self.put("}")
        else:
            raise TypeError(f"unexpected module item {it!r}")
        self.trailing(it.span)

    def emit_inst(self, it: ast.InstDecl) -> None:
        head = f"inst {it.name}: {it.target.text}"
        if it.generic_args:
            head += "::<" + ", ".join(g.text for g in it.generic_args) + ">"
        if not it.param_conns and not it.port_conns:
            self.put(head + ";")  # the comment on the last line is the item's trailing one
            self.trailing_lines(it.span.line, self.line_of(it.span.byte_end - 1))
            return
        # Comments inside the lists are rare: place them per connection only
        # when the next unplaced comment starts inside this instance.
        i = self.next_comment
        commented = i < len(self.comments) and self.comments[i].span.byte_start < it.span.byte_end
        last_line = self.line_of(it.span.byte_end - 1)
        closing = it.port_conns or it.param_conns
        line = it.span.line
        for conns, opener in ((it.param_conns, " #("), (it.port_conns, " (")):
            if not conns:
                continue
            self.put(head + opener)
            self.trailing_lines(line, conns[0].name_span.line)
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
            head, line = ")", self.line_of(conns[-1].expr.span.byte_end - 1)
        self.put(");")

    # -- statements --

    def emit_block(self, text: str, block: ast.Block) -> None:
        """Put `text`, the line that opens `block`, and its statements."""
        self.emit_list(text, block.span.line, block.stmts, block.span, self.emit_stmt)

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
                self.emit_block(head + ("if_reset {" if cond is None else f"if {expr_text(cond)} {{"), block)
                head = "} else "
            if orelse is not None:
                self.emit_block("} else {", orelse)
            self.put("}")
        elif isinstance(s, ast.ReturnStmt):
            self.put(f"return {expr_text(s.value)};")
        elif isinstance(s, ast.UnsafeCdcStmt):
            self.emit_block("unsafe (cdc) {", s.body)
            self.put("}")
        elif isinstance(s, ast.Block):
            self.emit_block("{", s)
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
