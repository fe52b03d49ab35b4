"""Lexer: UTF-8 source text to tokens, doc comments, and recoverable diagnostics."""

from __future__ import annotations

import re

from .diagnostics import Diagnostic
from .record import field, record
from .tokens import KEYWORDS, Comment, DocComment, Span, Token, TokenKind

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


@record
class LexResult:
    tokens: list[Token]
    doc_comments: list[DocComment]
    comments: list[Comment]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def scan(source: str, file_id: str) -> LexResult:
    """Lex `source` into tokens, `///` doc comments, regular comments (the
    formatter's input) and diagnostics.  A token is a tuple of str and int:
    no `Span` is built for it here."""
    r = LexResult([], [], [])
    tokens, diags = r.tokens, r.diagnostics
    new = tuple.__new__
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
        column = start - line_start + 1
        if punct:
            kind = TokenKind.PUNCT
        elif word:
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        elif comment:
            span = Span(file_id, start, end, line, column)
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
        elif bad:
            # A non-printable character is named by code point, never written raw.
            shown = f"`{bad}`" if bad.isprintable() else f"U+{ord(bad):04X}"
            message = "invalid character `` ` `` (domain annotations are `` `name ``)" if bad == "`" else f"invalid character {shown}"
            diags.append(Diagnostic("E0001", message, Span(file_id, start, end, line, column)))
            continue
        elif dec:
            kind = TokenKind.DEC_LITERAL
        elif tick:
            kind = TokenKind.DOMAIN_TICK
        else:
            kind = TokenKind.SIZED_LITERAL
            if nobase or text[-2] == "'":
                problem = "is missing its base (b, d, or h)" if nobase else "has no digits"
                diags.append(Diagnostic("E0002", f"sized literal `{text}` {problem}", Span(file_id, start, end, line, column)))
        tokens.append(new(Token, (kind, text, start, end, line, column, file_id)))
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
    """Split a sized-literal lexeme into (width, base, digits); None when it
    has no base or no digits (E0002)."""
    width, _, rest = text.partition("'")
    if len(rest) < 2:
        return None
    return int(width.replace("_", "")), rest[0], rest[1:]


def sized_literal_value(base: str, digits: str) -> int:
    """Exact value of the digit string (underscores ignored), as a big integer."""
    radix = _RADIX[base]
    value = 0
    for ch in digits:
        if ch == "_":
            continue
        value = value * radix + int(ch, 16)
    return value
