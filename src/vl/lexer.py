"""Lexer: UTF-8 source text to tokens, doc comments, and recoverable diagnostics."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .tokens import Comment, DocComment, Span, Token, TokenKind

KEYWORDS = frozenset(
    """
    module package param const var inst input output always_ff always_comb
    assign if else if_reset unsafe cdc function return pub
    clock clock_posedge clock_negedge
    reset reset_async_high reset_async_low reset_sync_high reset_sync_low
    logic bit u32 u64
    """.split()
)

# Longest match first.
_PUNCTS = sorted(
    [
        "<<=", ">>=",
        "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "&=", "|=", "^=", "->",
        ":", ";", ",", "#", "(", ")", "{", "}", "<", ">", "[", "]",
        "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    ],
    key=len,
    reverse=True,
)

_RADIX = {"b": 2, "d": 10, "h": 16}

# One match per lexeme: skip whitespace, then the first alternative that
# matches (the tokenizer recipe of the `re` docs).  Letter and digit classes
# are ASCII, so any other character, `²` included, is one `bad` match (E0001).
# The empty `\Z` alternative matches only after trailing whitespace, so that
# whitespace run is never given back to `bad`.
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]*)(?:"
    r"(?P<comment>//[^\n]*)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sized>[0-9][0-9_]*'(?:b[01_]*|d[0-9_]*|h[0-9a-fA-F_]*))"
    r"|(?P<nobase>[0-9][0-9_]*')"
    r"|(?P<dec>[0-9][0-9_]*)"
    r"|(?P<tick>`[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTS)) + r")"
    r"|(?P<bad>.)"
    r"|\Z"
    r")",
    re.DOTALL,
)


@dataclass(slots=True)
class LexResult:
    tokens: list[Token]
    doc_comments: list[DocComment]
    comments: list[Comment]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def decode_source(data: bytes, file_id: str) -> tuple[str, list[Diagnostic]]:
    """Decode a source file's bytes as UTF-8.

    Invalid UTF-8 is E0003 at the first bad byte; the text returned then has
    U+FFFD for each bad sequence, for excerpts only: the caller skips the file.
    """
    try:
        return data.decode("utf-8"), []
    except UnicodeDecodeError as err:
        good = data[: err.start].decode("utf-8")
        at = len(good)
        span = Span(file_id, at, at + 1, good.count("\n") + 1, at - good.rfind("\n"))
        message = f"invalid UTF-8 (byte 0x{data[err.start]:02x}); the file is skipped"
        return data.decode("utf-8", "replace"), [Diagnostic("E0003", message, span)]


def tokenize(source: str, file_id: str) -> tuple[list[Token], list[DocComment], list[Diagnostic]]:
    """Lex `source`, separating `///` doc comments from regular trivia."""
    r = scan(source, file_id)
    return r.tokens, r.doc_comments, r.diagnostics


def scan(source: str, file_id: str) -> LexResult:
    """Like `tokenize` but also returns regular comments (formatter input)."""
    r = LexResult([], [], [])
    tokens, diags = r.tokens, r.diagnostics
    line, line_start, end = 1, 0, 0
    code_line = 0  # line of the latest token: a comment after it is not own-line
    run: list[tuple[str, Span]] = []  # open run of consecutive own-line `///` lines
    for m in _TOKEN_RE.finditer(source):
        ws, comment, word, sized, nobase, dec, tick, punct, bad = m.groups()
        start = end + len(ws)
        if "\n" in ws:
            line += ws.count("\n")
            line_start = end + ws.rfind("\n") + 1
        text = punct or word or dec or comment or sized or nobase or tick or bad
        if not text:
            break  # only whitespace was left
        end = start + len(text)
        span = Span(file_id, start, end, line, start - line_start + 1)
        if comment:
            if not text.startswith("///") or text.startswith("////"):
                r.comments.append(Comment(text, span, code_line != line))
                continue
            body = text[4:] if text.startswith("/// ") else text[3:]
            if code_line == line:
                _flush_docs(run, r.doc_comments)
                r.doc_comments.append(DocComment(body, span, False))
            else:
                if run and line != run[-1][1].line + 1:
                    _flush_docs(run, r.doc_comments)
                run.append((body, span))
            continue
        if bad:
            if bad == "`":
                diags.append(Diagnostic("E0001", "invalid character `` ` `` (domain annotations are `` `name ``)", span))
            else:
                diags.append(Diagnostic("E0001", f"invalid character `{bad}`", span))
            continue
        if punct:
            kind = TokenKind.PUNCT
        elif word:
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        elif dec:
            kind = TokenKind.DEC_LITERAL
        elif tick:
            kind = TokenKind.DOMAIN_TICK
        else:
            kind = TokenKind.SIZED_LITERAL
            if nobase:
                diags.append(Diagnostic("E0002", f"sized literal `{text}` is missing its base (b, d, or h)", span))
            elif text[-2] == "'":
                diags.append(Diagnostic("E0002", f"sized literal `{text}` has no digits", span))
        tokens.append(Token(kind, text, span))
        code_line = line
    _flush_docs(run, r.doc_comments)
    return r


def _flush_docs(run: list[tuple[str, Span]], docs: list[DocComment]) -> None:
    """Close an open run of own-line `///` lines as one doc comment."""
    if not run:
        return
    first, last = run[0][1], run[-1][1]
    span = Span(first.file_id, first.byte_start, last.byte_end, first.line, first.column)
    docs.append(DocComment("\n".join(body for body, _ in run), span, True))
    run.clear()


def sized_literal_parts(text: str) -> tuple[int, str, str] | None:
    """Split a sized-literal lexeme into (width, base, digits); None if malformed."""
    quote = text.find("'")
    if quote < 0 or quote + 1 >= len(text):
        return None
    base = text[quote + 1]
    digits = text[quote + 2 :]
    if base not in _RADIX or not digits:
        return None
    width = int(text[:quote].replace("_", ""))
    return width, base, digits


def sized_literal_value(base: str, digits: str) -> int:
    """Exact value of the digit string (underscores ignored), as a big integer."""
    radix = _RADIX[base]
    value = 0
    for ch in digits:
        if ch == "_":
            continue
        value = value * radix + int(ch, 16)
    return value
