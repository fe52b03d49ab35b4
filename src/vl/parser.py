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

# Levels of `{…}` bodies, parenthesised, bracketed and call-argument
# sub-expressions and unary operators, counted together; one more is E0104.
MAX_NESTING = 128

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
    sf.comments = sorted(r.comments + r.doc_comments, key=lambda c: c.span.byte_start)
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
        # `docs` are in source order and leading-doc queries come in source
        # order too, so the docs not yet passed are a suffix: a cursor that
        # only moves forward.
        self.lead_docs = [d for d in docs if d.own_line]
        self.lead_next = 0
        # A trailing `///` runs to the end of its line: at most one per line.
        self.trail_docs = {d.span.line: d for d in docs if not d.own_line}
        self.file_id = file_id
        self.text = text
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.ff_depth = 0
        self.depth = 0  # nesting levels open, see MAX_NESTING
        self.recovered = False  # `braced` dropped an item since the current module began
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

    def span_to_prev(self, start: Span) -> Span:
        """From `start` to the end of the last token read."""
        return Span(self.file_id, start.byte_start, self.toks[self.pos - 1].span.byte_end, start.line, start.column)

    def error(self, code: str, message: str, span: Span) -> Diagnostic:
        d = Diagnostic(code, message, span)
        self.diags.append(d)
        return d

    def unexpected(self, expected: str) -> _ParseError:
        t = self.cur()
        shown = f"`{t.text}`" if t.kind != TokenKind.EOF else "end of file"
        self.error("E0101", f"unexpected {shown}, expected {expected}", t.span)
        return _ParseError()

    def too_deep(self, span: Span) -> _ParseError:
        self.error("E0104", f"nesting deeper than {MAX_NESTING} levels", span)
        return _ParseError()

    def expect_punct(self, text: str, context: str = "") -> Token:
        if self.at_punct(text):
            return self.bump()
        what = f"`{text}`" + (f" {context}" if context else "")
        raise self.unexpected(what)

    def expect_close(self, text: str, open_span: Span) -> None:
        """Read the closer of the delimiter opened at `open_span`.  A closing
        `>` may be the first character of `>>`, `>=` or `>>=`: the rest stays."""
        t = self.cur()
        if t.kind == TokenKind.PUNCT and t.text.startswith(text):
            if t.text == text:
                self.bump()
            else:
                s = t.span
                self.toks[self.pos] = Token(
                    TokenKind.PUNCT, t.text[1:], Span(s.file_id, s.byte_start + 1, s.byte_end, s.line, s.column + 1)
                )
            return
        if t.kind == TokenKind.EOF:
            self.error("E0103", f"unclosed delimiter, expected `{text}`", open_span)
            raise _ParseError()
        raise self.unexpected(f"`{text}`")

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.cur()
        if t.kind == TokenKind.IDENT:
            return self.bump()
        raise self.unexpected(what)

    def expect_name(self, what: str) -> Token:
        """`IDENT :`, returning the identifier."""
        name = self.expect_ident(what)
        self.expect_punct(":")
        return name

    # -- shapes --

    def delimited(self, close: str, open_span: Span, item) -> list:
        """Comma-separated `item()`s, trailing comma allowed, up to and including
        `close`; the opener at `open_span` is already read."""
        items = []
        while not self.at_punct(close) and self.cur().kind != TokenKind.EOF:
            items.append(item())
            if not self.eat_punct(","):
                break
        self.expect_close(close, open_span)
        return items

    def braced(self, item) -> list:
        """`{ item()* }`; after an error, recover at the next `;` and go on.
        A body past MAX_NESTING is E0104 and skipped whole, so its closers
        are not left to the levels above.  Either loss sets `recovered`."""
        open_span = self.expect_punct("{").span
        if self.depth == MAX_NESTING:
            self.too_deep(open_span)
            self.recovered = True
            level = 1
            while level and self.cur().kind != TokenKind.EOF:
                t = self.bump()
                if t.kind == TokenKind.PUNCT:
                    level += (t.text == "{") - (t.text == "}")
            return []
        self.depth += 1
        try:
            items = []
            while not self.at_punct("}") and self.cur().kind != TokenKind.EOF:
                try:
                    items.append(item())
                except _ParseError:
                    self.recovered = True
                    self.recover()
            self.expect_close("}", open_span)
            return items
        finally:
            self.depth -= 1

    def nested(self, span: Span, parse, *args):
        """`parse(*args)` one nesting level down; past MAX_NESTING, E0104 at `span`."""
        if self.depth == MAX_NESTING:
            raise self.too_deep(span)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def unsafe_cdc(self) -> Span:
        """Read `unsafe (cdc)`; returns the span of `unsafe`."""
        start = self.bump().span
        self.expect_punct("(")
        if not self.at_kw("cdc"):
            raise self.unexpected("`cdc`")
        self.bump()
        self.expect_punct(")")
        return start

    # -- doc comments --

    def leading_doc(self) -> DocComment | None:
        """The `///` blocks between the last token read and the current one,
        as one doc with a blank line between blocks.  Docs before the last
        token document nothing."""
        after = self.toks[self.pos - 1].span.byte_end if self.pos else 0
        before = self.cur().span.byte_start
        got: list[DocComment] = []
        while self.lead_next < len(self.lead_docs) and self.lead_docs[self.lead_next].span.byte_start < before:
            d = self.lead_docs[self.lead_next]
            if d.span.byte_start >= after:
                got.append(d)
            self.lead_next += 1
        if len(got) < 2:
            return got[0] if got else None
        return DocComment("\n\n".join(d.text for d in got), got[0].span, True)

    def documented(self, parse):
        """A param or port with its doc: its leading doc, or else the `///`
        on the line where it ends.  That one is taken either way."""
        doc = self.leading_doc()
        decl = parse()
        trailing = self.trail_docs.pop(self.toks[self.pos - 1].span.line, None)
        decl.doc = doc or trailing
        return decl

    # -- recovery --

    def recover(self) -> None:
        """Skip to just past the next `;`, or up to a closing brace / EOF."""
        start = self.pos
        while self.pos < len(self.toks):
            t = self.cur()
            if t.kind == TokenKind.PUNCT:
                if t.text == ";":
                    self.bump()
                    break
                if t.text == "}":
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
        return SourceFile(self.file_id, self.text, items)

    def parse_item(self):
        start = self.cur().span
        doc = self.leading_doc()
        is_pub = self.at_kw("pub")
        if is_pub:
            self.bump()
        if self.at_kw("module"):
            return self.parse_module(is_pub, doc, start)
        if self.at_kw("package"):
            return self.parse_package(is_pub, start)
        raise self.unexpected("`module` or `package`")

    # -- items --

    def parse_module(self, is_pub: bool, doc, start: Span) -> ModuleDecl:
        self.bump()  # module
        name = self.expect_ident("module name")
        generic_params: list[str] = []
        if self.at_punct("::"):
            self.bump()
            generic_params = self.delimited(">", self.expect_punct("<").span, lambda: self.expect_ident("generic parameter").text)
        params: list[ParamDecl] = []
        params_span = ports_span = None
        if self.at_punct("#"):
            self.bump()
            opener = self.expect_punct("(").span
            params = self.delimited(")", opener, lambda: self.documented(self.parse_param))
            params_span = self.span_to_prev(opener)
        ports: list[PortDecl] = []
        if self.at_punct("("):
            opener = self.bump().span
            ports = self.delimited(")", opener, lambda: self.documented(self.parse_port))
            ports_span = self.span_to_prev(opener)
        self.recovered = False
        body = self.braced(self.parse_module_item)
        span = self.span_to_prev(start)
        return ModuleDecl(
            name.text, name.span, generic_params, params, ports, body, self.recovered, span, is_pub, doc, params_span, ports_span
        )

    def parse_param(self) -> ParamDecl:
        if not self.at_kw("param"):
            raise self.unexpected("`param`")
        start = self.bump().span
        name = self.expect_name("parameter name")
        ty = self.parse_type()
        self.expect_punct("=")
        default = self.parse_expr()
        return ParamDecl(name.text, name.span, ty, default, self.span_to_prev(start))

    def parse_port(self) -> PortDecl:
        name = self.expect_name("port name")
        if self.at_kw("input") or self.at_kw("output"):
            direction = self.bump().text
        else:
            raise self.unexpected("`input` or `output`")
        domain = None
        if self.cur().kind == TokenKind.DOMAIN_TICK:
            domain = self.bump().text[1:]
        ty = self.parse_type()
        return PortDecl(name.text, name.span, direction, domain, ty, self.span_to_prev(name.span))

    def parse_module_item(self):
        return self.keyword_item(_Parser._MODULE_ITEMS, "a module item (var, const, inst, assign, always_ff, always_comb, function, unsafe)")

    def keyword_item(self, parsers: dict, expected: str):
        """The item that `parsers` maps the current keyword to."""
        t = self.cur()
        if t.kind != TokenKind.KEYWORD or t.text not in parsers:
            raise self.unexpected(expected)
        return parsers[t.text](self)

    def parse_var(self) -> VarDecl:
        start = self.bump().span
        name = self.expect_name("variable name")
        domain = None
        if self.cur().kind == TokenKind.DOMAIN_TICK:
            domain = self.bump().text[1:]
        ty = self.parse_type()
        self.expect_punct(";")
        return VarDecl(name.text, name.span, domain, ty, self.span_to_prev(start))

    def parse_const(self) -> ConstDecl:
        start = self.bump().span
        name = self.expect_name("constant name")
        ty = self.parse_type()
        self.expect_punct("=")
        value = self.parse_expr()
        self.expect_punct(";")
        return ConstDecl(name.text, name.span, ty, value, self.span_to_prev(start))

    def parse_inst(self) -> InstDecl:
        start = self.bump().span
        name = self.expect_name("instance name")
        target = self.parse_path()
        generic_args: list[PathExpr] = []
        if self.at_punct("::"):
            self.bump()
            generic_args = self.delimited(">", self.expect_punct("<").span, self.parse_path)
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
        return self.delimited(")", self.expect_punct("(").span, self.parse_connection)

    def parse_connection(self) -> Connection:
        name = self.expect_name("connection name")
        return Connection(name.text, name.span, self.parse_expr())

    def parse_assign_item(self) -> AssignItem:
        start = self.bump().span
        lvalue = self.parse_lvalue()
        self.expect_punct("=")
        rhs = self.parse_expr()
        self.expect_punct(";")
        return AssignItem(lvalue, rhs, self.span_to_prev(start))

    def parse_always_comb(self) -> AlwaysComb:
        start = self.bump().span
        body = self.parse_block()
        return AlwaysComb(body, self.span_to_prev(start))

    def parse_unsafe_item(self) -> UnsafeCdcItem:
        start = self.unsafe_cdc()
        items = self.braced(self.parse_module_item)
        return UnsafeCdcItem(items, self.span_to_prev(start))

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
        args = self.delimited(")", self.expect_punct("(").span, self.parse_arg)
        self.expect_punct("->")
        ret = self.parse_type()
        body = self.parse_block()
        return FunctionDecl(name.text, name.span, args, ret, body, self.span_to_prev(start))

    def parse_arg(self) -> ArgDecl:
        name = self.expect_name("argument name")
        return ArgDecl(name.text, name.span, self.parse_type())

    _MODULE_ITEMS = {
        "var": parse_var,
        "const": parse_const,
        "inst": parse_inst,
        "function": parse_function,
        "assign": parse_assign_item,
        "always_ff": parse_always_ff,
        "always_comb": parse_always_comb,
        "unsafe": parse_unsafe_item,
    }
    _PACKAGE_ITEMS = {"const": parse_const, "function": parse_function}

    # -- package --

    def parse_package(self, is_pub: bool, start: Span) -> PackageDecl:
        self.bump()
        name = self.expect_ident("package name")
        items = self.braced(self.parse_package_item)
        return PackageDecl(name.text, name.span, items, self.span_to_prev(start), is_pub)

    def parse_package_item(self):
        return self.keyword_item(_Parser._PACKAGE_ITEMS, "`const` or `function`")

    # -- types --

    def parse_type(self) -> TypeSpec:
        t = self.cur()
        if t.kind != TokenKind.KEYWORD or t.text not in _TYPE_KEYWORDS:
            raise self.unexpected("a type")
        self.bump()
        ty = TypeSpec(t.text, span=t.span)
        if t.text in ("logic", "bit"):
            if self.at_punct("<"):
                ty.packed_dims = self.delimited(">", self.bump().span, lambda: self.parse_expr(no_angle=True))
            if self.at_punct("["):
                ty.unpacked_dims = self.delimited("]", self.bump().span, self.parse_expr)
        return ty

    # -- statements --

    def parse_block(self) -> Block:
        start = self.cur().span
        stmts = self.braced(self.parse_stmt)
        return Block(stmts, self.span_to_prev(start))

    def parse_stmt(self):
        t = self.cur()
        if self.at_kw("if_reset") and self.ff_depth == 0:
            self.error("E0102", "`if_reset` is only allowed inside `always_ff`", t.span)
        if self.at_kw("if") or self.at_kw("if_reset"):
            return self.parse_if()
        if self.at_kw("return"):
            start = self.bump().span
            value = self.parse_expr()
            self.expect_punct(";")
            return ReturnStmt(value, self.span_to_prev(start))
        if self.at_kw("unsafe"):
            start = self.unsafe_cdc()
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
        return AssignStmt(lvalue, op.text, rhs, self.span_to_prev(lvalue.span))

    def parse_if(self) -> IfStmt | IfResetStmt:
        """An `if` or `if_reset` head, its `else if` arms and final `else`,
        read in a loop, then nested through `orelse`; every node of the chain
        spans from its own `if` to the end of the chain."""
        arms = []
        orelse = None
        while True:
            head = self.bump()
            cond = self.parse_expr() if head.text == "if" else None
            arms.append((head.span, cond, self.parse_block()))
            if not self.at_kw("else"):
                break
            self.bump()
            if not self.at_kw("if"):
                orelse = self.parse_block()
                break
        for start, cond, then in reversed(arms):
            span = self.span_to_prev(start)
            orelse = IfResetStmt(then, orelse, span) if cond is None else IfStmt(cond, then, orelse, span)
        return orelse

    def parse_lvalue(self) -> Expr:
        t = self.cur()
        if t.kind != TokenKind.IDENT:
            raise self.unexpected("an lvalue")
        return self.parse_selects(self.parse_path())

    # -- expressions --

    def parse_path(self) -> PathExpr:
        first = self.expect_ident()
        segments = [first.text]
        while self.at_punct("::") and self.next_tok().kind == TokenKind.IDENT:
            self.bump()
            segments.append(self.bump().text)
        return PathExpr(segments, self.span_to_prev(first.span))

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
            lhs = BinaryExpr(t.text, lhs, rhs, self.span_to_prev(lhs.span))
        return lhs

    def parse_unary(self, no_angle: bool) -> Expr:
        t = self.cur()
        if t.kind == TokenKind.PUNCT and t.text in ("!", "~", "-"):
            self.bump()
            operand = self.nested(t.span, self.parse_unary, no_angle)
            return UnaryExpr(t.text, operand, self.span_to_prev(t.span))
        return self.parse_postfix(no_angle)

    def parse_postfix(self, no_angle: bool) -> Expr:
        e = self.parse_primary(no_angle)
        if isinstance(e, PathExpr) and self.at_punct("("):
            open_span = self.bump().span
            args = self.nested(open_span, self.delimited, ")", open_span, self.parse_expr)
            e = CallExpr(e, args, self.span_to_prev(e.span))
        return self.parse_selects(e)

    def parse_selects(self, e: Expr) -> Expr:
        while self.at_punct("["):
            open_span = self.bump().span
            first = self.nested(open_span, self.parse_expr)
            if self.eat_punct(":"):
                lo = self.nested(open_span, self.parse_expr)
                self.expect_close("]", open_span)
                e = RangeExpr(e, first, lo, self.span_to_prev(e.span))
            else:
                self.expect_close("]", open_span)
                e = IndexExpr(e, first, self.span_to_prev(e.span))
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
            self.bump()
            inner = self.nested(t.span, self.parse_expr)
            self.expect_close(")", t.span)
            return ParenExpr(inner, self.span_to_prev(t.span))
        raise self.unexpected("an expression")
