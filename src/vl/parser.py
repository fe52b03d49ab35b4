"""Recursive-descent parser producing SourceFile trees with error recovery."""

from __future__ import annotations

from .ast import (
    AlwaysComb,
    AlwaysFf,
    ArgDecl,
    AssignItem,
    AssignStmt,
    BinaryExpr,
    Block,
    CallExpr,
    Connection,
    ConstDecl,
    DecLiteral,
    Expr,
    FunctionDecl,
    IfResetStmt,
    IfStmt,
    IndexExpr,
    InstDecl,
    ModuleDecl,
    PackageDecl,
    ParamDecl,
    ParenExpr,
    PathExpr,
    PortDecl,
    RangeExpr,
    ReturnStmt,
    SizedLiteral,
    SourceFile,
    TypeSpec,
    UnaryExpr,
    UnsafeCdcItem,
    UnsafeCdcStmt,
    VarDecl,
)
from .diagnostics import Diagnostic
from .lexer import scan
from .tokens import DocComment, Span, Token, TokenKind

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>="})

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_ANGLE_UNSAFE = frozenset({"<", "<=", ">", ">=", "<<", ">>"})

_TYPE_KEYWORDS = frozenset(
    {"clock", "clock_posedge", "clock_negedge",
     "reset", "reset_async_high", "reset_async_low", "reset_sync_high", "reset_sync_low",
     "logic", "bit", "u32", "u64"}
)


class _ParseError(Exception):
    """Internal unwind to the nearest recovery point; diagnostic already recorded."""


def parse(tokens: list[Token], doc_comments: list[DocComment], file_id: str, text: str = "") -> tuple[SourceFile, list[Diagnostic]]:
    p = _Parser(tokens, doc_comments, file_id, text)
    return p.parse_source(), p.diags


def parse_source(text: str, file_id: str) -> tuple[SourceFile, list[Diagnostic]]:
    """Lex and parse one file; returns the tree plus all lex/parse diagnostics."""
    r = scan(text, file_id)
    sf, diags = parse(r.tokens, r.doc_comments, file_id, text)
    sf.comments = r.comments
    return sf, r.diagnostics + diags


def parse_expression(text: str) -> Expr:
    """Parse a single free-standing expression; raises ValueError on failure."""
    r = scan(text, "<expr>")
    p = _Parser(r.tokens, [], "<expr>", text)
    try:
        e = p.parse_expr()
    except _ParseError:
        e = None
    if e is None or p.diags or r.diagnostics or p.pos != len(p.toks):
        raise ValueError("E0101: malformed expression: " + text)
    return e


class _Parser:
    def __init__(self, tokens: list[Token], docs: list[DocComment], file_id: str, text: str):
        self.toks = list(tokens)
        docs = sorted(docs, key=lambda d: d.span.byte_start)
        # A leading-doc query takes every doc that ends before it, so the docs
        # not yet taken are always a suffix: a cursor that only moves forward.
        self.lead_docs = [d for d in docs if not d.trailing]
        self.lead_next = 0
        # A trailing `///` runs to the end of its line: at most one per line.
        self.trail_docs = {d.span.line: d for d in docs if d.trailing}
        self.file_id = file_id
        self.text = text
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.ff_depth = 0
        end = tokens[-1].span.byte_end if tokens else 0
        endline = tokens[-1].span.line if tokens else 1
        self.eof = Token(TokenKind.EOF, "", Span(file_id, end, end, endline, 1))

    # -- token access --

    def cur(self) -> Token:
        return self.toks[self.pos] if self.pos < len(self.toks) else self.eof

    def next_tok(self) -> Token:
        return self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else self.eof

    def bump(self) -> Token:
        t = self.cur()
        if self.pos < len(self.toks):
            self.pos += 1
        return t

    def at_punct(self, text: str) -> bool:
        t = self.cur()
        return t.kind == TokenKind.PUNCT and t.text == text

    def at_kw(self, word: str) -> bool:
        t = self.cur()
        return t.kind == TokenKind.KEYWORD and t.text == word

    def eat_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.bump()
            return True
        return False

    def error(self, code: str, message: str, span: Span) -> Diagnostic:
        d = Diagnostic(code, message, span)
        self.diags.append(d)
        return d

    def unexpected(self, expected: str) -> _ParseError:
        t = self.cur()
        shown = f"`{t.text}`" if t.kind != TokenKind.EOF else "end of file"
        self.error("E0101", f"unexpected {shown}, expected {expected}", t.span)
        return _ParseError()

    def expect_punct(self, text: str, context: str = "") -> Token:
        if self.at_punct(text):
            return self.bump()
        what = f"`{text}`" + (f" {context}" if context else "")
        raise self.unexpected(what)

    def expect_close(self, text: str, open_span: Span) -> Token:
        if self.at_punct(text):
            return self.bump()
        if self.cur().kind == TokenKind.EOF:
            self.error("E0103", f"unclosed delimiter, expected `{text}`", open_span)
            raise _ParseError()
        raise self.unexpected(f"`{text}`")

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.cur()
        if t.kind == TokenKind.IDENT:
            return self.bump()
        raise self.unexpected(what)

    def expect_angle_close(self, open_span: Span) -> None:
        """Consume one `>` worth of the current token, splitting >>, >= etc."""
        t = self.cur()
        if t.kind == TokenKind.PUNCT and t.text.startswith(">"):
            if len(t.text) == 1:
                self.bump()
            else:
                rest = t.text[1:]
                s = t.span
                self.toks[self.pos] = Token(
                    TokenKind.PUNCT, rest, Span(s.file_id, s.byte_start + 1, s.byte_end, s.line, s.column + 1)
                )
            return
        if t.kind == TokenKind.EOF:
            self.error("E0103", "unclosed delimiter, expected `>`", open_span)
            raise _ParseError()
        raise self.unexpected("`>`")

    # -- doc comments --

    def take_leading_docs(self, before: int) -> DocComment | None:
        got: list[DocComment] = []
        while self.lead_next < len(self.lead_docs) and self.lead_docs[self.lead_next].span.byte_end <= before:
            got.append(self.lead_docs[self.lead_next])
            self.lead_next += 1
        if not got:
            return None
        if len(got) == 1:
            return got[0]
        merged = DocComment("\n\n".join(d.text for d in got), got[0].span)
        return merged

    def take_trailing_doc(self, line: int) -> DocComment | None:
        return self.trail_docs.pop(line, None)

    # -- recovery --

    def recover(self, stop_close: str = "}") -> None:
        """Skip to just past the next `;`, or up to a closing brace / EOF."""
        start = self.pos
        while self.pos < len(self.toks):
            t = self.cur()
            if t.kind == TokenKind.PUNCT:
                if t.text == ";":
                    self.bump()
                    break
                if t.text == stop_close:
                    break
            self.bump()
        if self.pos == start and self.pos < len(self.toks):
            self.bump()

    # -- entry --

    def parse_source(self) -> SourceFile:
        items = []
        while self.cur().kind != TokenKind.EOF:
            try:
                items.append(self.parse_item())
            except _ParseError:
                self.recover()
        orphans = sorted(self.lead_docs[self.lead_next :] + list(self.trail_docs.values()), key=lambda d: d.span.byte_start)
        return SourceFile(self.file_id, self.text, items, orphan_docs=orphans)

    def parse_item(self):
        start = self.cur()
        doc = self.take_leading_docs(start.span.byte_start)
        is_pub = False
        if self.at_kw("pub"):
            self.bump()
            is_pub = True
        if self.at_kw("module"):
            return self.parse_module(is_pub, doc, start.span)
        if self.at_kw("package"):
            return self.parse_package(is_pub, doc, start.span)
        raise self.unexpected("`module` or `package`")

    # -- items --

    def parse_module(self, is_pub: bool, doc, start_span: Span) -> ModuleDecl:
        self.bump()  # module
        name = self.expect_ident("module name")
        generic_params: list[str] = []
        if self.at_punct("::"):
            self.bump()
            open_span = self.expect_punct("<").span
            while not self.at_punct(">"):
                generic_params.append(self.expect_ident("generic parameter").text)
                if not self.eat_punct(","):
                    break
            self.expect_angle_close(open_span)
        params: list[ParamDecl] = []
        if self.at_punct("#"):
            self.bump()
            open_span = self.expect_punct("(").span
            while not self.at_punct(")"):
                if self.cur().kind == TokenKind.EOF:
                    self.expect_close(")", open_span)
                params.append(self.parse_param())
                if not self.eat_punct(","):
                    break
            self.expect_close(")", open_span)
        ports: list[PortDecl] = []
        if self.at_punct("("):
            open_span = self.bump().span
            while not self.at_punct(")"):
                if self.cur().kind == TokenKind.EOF:
                    self.expect_close(")", open_span)
                ports.append(self.parse_port())
                if not self.eat_punct(","):
                    break
            close = self.expect_close(")", open_span)
            if ports:
                d = self.take_trailing_doc(close.span.line)
                if d is not None and ports[-1].doc is None:
                    ports[-1].doc = d
                    d.attached_to = ports[-1].name_span
        body = self.parse_module_body()
        span = Span(self.file_id, start_span.byte_start, self.prev_end(), start_span.line, start_span.column)
        m = ModuleDecl(name.text, name.span, generic_params, params, ports, body, span, is_pub, doc)
        if doc is not None:
            doc.attached_to = name.span
        return m

    def prev_end(self) -> int:
        return self.toks[self.pos - 1].span.byte_end if self.pos > 0 else 0

    def parse_param(self) -> ParamDecl:
        doc = self.take_leading_docs(self.cur().span.byte_start)
        if not self.at_kw("param"):
            raise self.unexpected("`param`")
        self.bump()
        name = self.expect_ident("parameter name")
        self.expect_punct(":")
        ty = self.parse_type()
        self.expect_punct("=")
        default = self.parse_expr()
        p = ParamDecl(name.text, name.span, ty, default, doc)
        if doc is not None:
            doc.attached_to = name.span
        # A trailing /// sits after the comma; peek at the comma's line.
        line = self.cur().span.line if self.at_punct(",") else name.span.line
        t = self.take_trailing_doc(line)
        if t is not None and p.doc is None:
            p.doc = t
            t.attached_to = name.span
        return p

    def parse_port(self) -> PortDecl:
        doc = self.take_leading_docs(self.cur().span.byte_start)
        name = self.expect_ident("port name")
        self.expect_punct(":")
        if self.at_kw("input") or self.at_kw("output"):
            direction = self.bump().text
        else:
            raise self.unexpected("`input` or `output`")
        domain = None
        if self.cur().kind == TokenKind.DOMAIN_TICK:
            domain = self.bump().text[1:]
        ty = self.parse_type()
        port = PortDecl(name.text, name.span, direction, domain, ty, doc)
        if doc is not None:
            doc.attached_to = name.span
        line = self.cur().span.line if self.at_punct(",") else name.span.line
        t = self.take_trailing_doc(line)
        if t is not None and port.doc is None:
            port.doc = t
            t.attached_to = name.span
        return port

    def parse_module_body(self):
        open_span = self.expect_punct("{").span
        items = []
        while not self.at_punct("}"):
            if self.cur().kind == TokenKind.EOF:
                self.expect_close("}", open_span)
            try:
                items.append(self.parse_module_item())
            except _ParseError:
                self.recover()
        self.bump()
        return items

    def parse_module_item(self):
        t = self.cur()
        doc = self.take_leading_docs(t.span.byte_start)
        if self.at_kw("var"):
            return self.finish_decl_doc(self.parse_var(), doc)
        if self.at_kw("const"):
            return self.finish_decl_doc(self.parse_const(), doc)
        if self.at_kw("inst"):
            return self.finish_decl_doc(self.parse_inst(), doc)
        if self.at_kw("assign"):
            return self.parse_assign_item()
        if self.at_kw("always_ff"):
            return self.parse_always_ff()
        if self.at_kw("always_comb"):
            start = self.bump().span
            body = self.parse_block()
            return AlwaysComb(body, self.span_to_prev(start))
        if self.at_kw("function"):
            return self.finish_decl_doc(self.parse_function(), doc)
        if self.at_kw("unsafe"):
            start = self.bump().span
            self.expect_punct("(")
            if not self.at_kw("cdc"):
                raise self.unexpected("`cdc`")
            self.bump()
            self.expect_punct(")")
            open_span = self.expect_punct("{").span
            items = []
            while not self.at_punct("}"):
                if self.cur().kind == TokenKind.EOF:
                    self.expect_close("}", open_span)
                try:
                    items.append(self.parse_module_item())
                except _ParseError:
                    self.recover()
            self.bump()
            return UnsafeCdcItem(items, self.span_to_prev(start))
        raise self.unexpected("a module item (var, const, inst, assign, always_ff, always_comb, function, unsafe)")

    def finish_decl_doc(self, decl, doc):
        if doc is not None and decl.doc is None:
            decl.doc = doc
            doc.attached_to = decl.name_span
        t = self.take_trailing_doc(self.toks[self.pos - 1].span.line)
        if t is not None and decl.doc is None:
            decl.doc = t
            t.attached_to = decl.name_span
        return decl

    def span_to_prev(self, start: Span) -> Span:
        return Span(self.file_id, start.byte_start, self.prev_end(), start.line, start.column)

    def parse_var(self) -> VarDecl:
        start = self.bump().span
        name = self.expect_ident("variable name")
        self.expect_punct(":")
        domain = None
        if self.cur().kind == TokenKind.DOMAIN_TICK:
            domain = self.bump().text[1:]
        ty = self.parse_type()
        self.expect_punct(";")
        return VarDecl(name.text, name.span, domain, ty, self.span_to_prev(start))

    def parse_const(self) -> ConstDecl:
        start = self.bump().span
        name = self.expect_ident("constant name")
        self.expect_punct(":")
        ty = self.parse_type()
        self.expect_punct("=")
        value = self.parse_expr()
        self.expect_punct(";")
        return ConstDecl(name.text, name.span, ty, value, self.span_to_prev(start))

    def parse_inst(self) -> InstDecl:
        start = self.bump().span
        name = self.expect_ident("instance name")
        self.expect_punct(":")
        target = self.parse_path()
        generic_args: list[PathExpr] = []
        if self.at_punct("::"):
            self.bump()
            open_span = self.expect_punct("<").span
            while not self.at_punct(">"):
                generic_args.append(self.parse_path())
                if not self.eat_punct(","):
                    break
            self.expect_angle_close(open_span)
        param_conns: list[Connection] = []
        port_conns: list[Connection] = []
        if self.at_punct("#"):
            self.bump()
            param_conns = self.parse_connections()
        if self.at_punct("("):
            port_conns = self.parse_connections()
        self.expect_punct(";")
        return InstDecl(name.text, name.span, target, generic_args, param_conns, port_conns, self.span_to_prev(start))

    def parse_connections(self) -> list[Connection]:
        open_span = self.expect_punct("(").span
        conns: list[Connection] = []
        while not self.at_punct(")"):
            if self.cur().kind == TokenKind.EOF:
                self.expect_close(")", open_span)
            name = self.expect_ident("connection name")
            self.expect_punct(":")
            conns.append(Connection(name.text, name.span, self.parse_expr()))
            if not self.eat_punct(","):
                break
        self.expect_close(")", open_span)
        return conns

    def parse_assign_item(self) -> AssignItem:
        start = self.bump().span
        lvalue = self.parse_lvalue()
        self.expect_punct("=")
        rhs = self.parse_expr()
        self.expect_punct(";")
        return AssignItem(lvalue, rhs, self.span_to_prev(start))

    def parse_always_ff(self) -> AlwaysFf:
        start = self.bump().span
        clock = reset = None
        if self.at_punct("("):
            self.bump()
            clock = self.expect_ident("clock name")
            if self.eat_punct(","):
                if not self.at_punct(")"):
                    reset = self.expect_ident("reset name")
                    self.eat_punct(",")
            self.expect_punct(")")
        self.ff_depth += 1
        try:
            body = self.parse_block()
        finally:
            self.ff_depth -= 1
        return AlwaysFf(
            clock.text if clock else None,
            clock.span if clock else None,
            reset.text if reset else None,
            reset.span if reset else None,
            body,
            self.span_to_prev(start),
        )

    def parse_function(self) -> FunctionDecl:
        start = self.bump().span
        name = self.expect_ident("function name")
        open_span = self.expect_punct("(").span
        args: list[ArgDecl] = []
        while not self.at_punct(")"):
            if self.cur().kind == TokenKind.EOF:
                self.expect_close(")", open_span)
            an = self.expect_ident("argument name")
            self.expect_punct(":")
            args.append(ArgDecl(an.text, an.span, self.parse_type()))
            if not self.eat_punct(","):
                break
        self.expect_close(")", open_span)
        self.expect_punct("->")
        ret = self.parse_type()
        body = self.parse_block()
        return FunctionDecl(name.text, name.span, args, ret, body, self.span_to_prev(start))

    # -- package --

    def parse_package(self, is_pub: bool, doc, start_span: Span) -> PackageDecl:
        self.bump()
        name = self.expect_ident("package name")
        open_span = self.expect_punct("{").span
        items = []
        while not self.at_punct("}"):
            if self.cur().kind == TokenKind.EOF:
                self.expect_close("}", open_span)
            try:
                idoc = self.take_leading_docs(self.cur().span.byte_start)
                if self.at_kw("const"):
                    items.append(self.finish_decl_doc(self.parse_const(), idoc))
                elif self.at_kw("function"):
                    items.append(self.finish_decl_doc(self.parse_function(), idoc))
                else:
                    raise self.unexpected("`const` or `function`")
            except _ParseError:
                self.recover()
        self.bump()
        span = Span(self.file_id, start_span.byte_start, self.prev_end(), start_span.line, start_span.column)
        pkg = PackageDecl(name.text, name.span, items, span, is_pub, doc)
        if doc is not None:
            doc.attached_to = name.span
        return pkg

    # -- types --

    def parse_type(self) -> TypeSpec:
        t = self.cur()
        if t.kind != TokenKind.KEYWORD or t.text not in _TYPE_KEYWORDS:
            raise self.unexpected("a type")
        self.bump()
        ty = TypeSpec(t.text, span=t.span)
        if t.text in ("logic", "bit"):
            if self.at_punct("<"):
                open_span = self.bump().span
                while not self.at_punct(">"):
                    ty.packed_dims.append(self.parse_expr(no_angle=True))
                    if not self.eat_punct(","):
                        break
                self.expect_angle_close(open_span)
            if self.at_punct("["):
                open_span = self.bump().span
                while not self.at_punct("]"):
                    ty.unpacked_dims.append(self.parse_expr())
                    if not self.eat_punct(","):
                        break
                self.expect_close("]", open_span)
        return ty

    # -- statements --

    def parse_block(self) -> Block:
        open_tok = self.expect_punct("{")
        stmts = []
        while not self.at_punct("}"):
            if self.cur().kind == TokenKind.EOF:
                self.expect_close("}", open_tok.span)
            try:
                stmts.append(self.parse_stmt())
            except _ParseError:
                self.recover()
        close = self.bump()
        return Block(stmts, Span(self.file_id, open_tok.span.byte_start, close.span.byte_end, open_tok.span.line, open_tok.span.column))

    def parse_stmt(self):
        t = self.cur()
        if self.at_kw("if"):
            return self.parse_if()
        if self.at_kw("if_reset"):
            if self.ff_depth == 0:
                self.error("E0102", "`if_reset` is only allowed inside `always_ff`", t.span)
            start = self.bump().span
            then = self.parse_block()
            orelse = self.parse_else()
            return IfResetStmt(then, orelse, self.span_to_prev(start))
        if self.at_kw("return"):
            start = self.bump().span
            value = self.parse_expr()
            self.expect_punct(";")
            return ReturnStmt(value, self.span_to_prev(start))
        if self.at_kw("unsafe"):
            start = self.bump().span
            self.expect_punct("(")
            if not self.at_kw("cdc"):
                raise self.unexpected("`cdc`")
            self.bump()
            self.expect_punct(")")
            body = self.parse_block()
            return UnsafeCdcStmt(body, self.span_to_prev(start))
        if self.at_punct("{"):
            return self.parse_block()
        lvalue = self.parse_lvalue()
        op = self.cur()
        if op.kind == TokenKind.PUNCT and op.text in ASSIGN_OPS:
            self.bump()
        else:
            raise self.unexpected("an assignment operator")
        rhs = self.parse_expr()
        self.expect_punct(";")
        return AssignStmt(lvalue, op.text, rhs, Span(self.file_id, lvalue.span.byte_start, self.prev_end(), lvalue.span.line, lvalue.span.column))

    def parse_if(self) -> IfStmt:
        start = self.bump().span
        cond = self.parse_expr()
        then = self.parse_block()
        orelse = self.parse_else()
        return IfStmt(cond, then, orelse, self.span_to_prev(start))

    def parse_else(self):
        if not self.at_kw("else"):
            return None
        self.bump()
        if self.at_kw("if"):
            return self.parse_if()
        return self.parse_block()

    def parse_lvalue(self) -> Expr:
        t = self.cur()
        if t.kind != TokenKind.IDENT:
            raise self.unexpected("an lvalue")
        e: Expr = self.parse_path()
        e = self.parse_selects(e)
        return e

    # -- expressions --

    def parse_path(self) -> PathExpr:
        first = self.expect_ident()
        segments = [first.text]
        end = first.span.byte_end
        while self.at_punct("::") and self.next_tok().kind == TokenKind.IDENT:
            self.bump()
            seg = self.bump()
            segments.append(seg.text)
            end = seg.span.byte_end
        return PathExpr(segments, Span(self.file_id, first.span.byte_start, end, first.span.line, first.span.column))

    def parse_expr(self, min_prec: int = 1, no_angle: bool = False) -> Expr:
        lhs = self.parse_unary(no_angle)
        while True:
            t = self.cur()
            if t.kind != TokenKind.PUNCT:
                break
            prec = _PRECEDENCE.get(t.text)
            if prec is None or prec < min_prec:
                break
            if no_angle and t.text in _ANGLE_UNSAFE:
                break
            self.bump()
            rhs = self.parse_expr(prec + 1, no_angle)
            lhs = BinaryExpr(t.text, lhs, rhs, _join(lhs, rhs))
        return lhs

    def parse_unary(self, no_angle: bool) -> Expr:
        t = self.cur()
        if t.kind == TokenKind.PUNCT and t.text in ("!", "~", "-"):
            self.bump()
            operand = self.parse_unary(no_angle)
            return UnaryExpr(t.text, operand, Span(t.span.file_id, t.span.byte_start, operand.span.byte_end, t.span.line, t.span.column))
        return self.parse_postfix(no_angle)

    def parse_postfix(self, no_angle: bool) -> Expr:
        e = self.parse_primary(no_angle)
        if isinstance(e, PathExpr) and self.at_punct("("):
            open_span = self.bump().span
            args = []
            while not self.at_punct(")"):
                if self.cur().kind == TokenKind.EOF:
                    self.expect_close(")", open_span)
                args.append(self.parse_expr())
                if not self.eat_punct(","):
                    break
            close = self.expect_close(")", open_span)
            e = CallExpr(e, args, Span(self.file_id, e.span.byte_start, close.span.byte_end, e.span.line, e.span.column))
        return self.parse_selects(e)

    def parse_selects(self, e: Expr) -> Expr:
        while self.at_punct("["):
            open_span = self.bump().span
            first = self.parse_expr()
            if self.eat_punct(":"):
                lo = self.parse_expr()
                close = self.expect_close("]", open_span)
                e = RangeExpr(e, first, lo, Span(self.file_id, e.span.byte_start, close.span.byte_end, e.span.line, e.span.column))
            else:
                close = self.expect_close("]", open_span)
                e = IndexExpr(e, first, Span(self.file_id, e.span.byte_start, close.span.byte_end, e.span.line, e.span.column))
        return e

    def parse_primary(self, no_angle: bool) -> Expr:
        t = self.cur()
        if t.kind == TokenKind.IDENT:
            return self.parse_path()
        if t.kind == TokenKind.SIZED_LITERAL:
            self.bump()
            return SizedLiteral(t.text, t.span)
        if t.kind == TokenKind.DEC_LITERAL:
            self.bump()
            return DecLiteral(t.text, t.span)
        if self.at_punct("("):
            open_tok = self.bump()
            inner = self.parse_expr()
            close = self.expect_close(")", open_tok.span)
            return ParenExpr(inner, Span(self.file_id, open_tok.span.byte_start, close.span.byte_end, open_tok.span.line, open_tok.span.column))
        raise self.unexpected("an expression")


def _join(lhs: Expr, rhs: Expr) -> Span:
    return Span(lhs.span.file_id, lhs.span.byte_start, rhs.span.byte_end, lhs.span.line, lhs.span.column)
