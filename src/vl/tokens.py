"""Token types and source-position primitives shared by the whole toolchain."""

from __future__ import annotations

from typing import NamedTuple

from .record import record


class TokenKind:
    """Token kinds, as plain strings: a token is a tuple of str and int only."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SIZED_LITERAL = "sized_literal"  # 8'hff, 4'b1010, 32'd10
    DEC_LITERAL = "dec_literal"  # plain decimal, underscores allowed
    PUNCT = "punct"
    DOMAIN_TICK = "domain_tick"  # `a  (clock-domain annotation)
    EOF = "eof"  # synthetic, never produced by the lexer


@record(slots=True, unsafe_hash=True)
class Span:
    """Half-open byte range in one source file.

    `line`/`column` locate the start and are 1-based; byte offsets are 0-based.
    Spans are values: equal fields compare and hash equal.
    """

    file_id: str
    byte_start: int
    byte_end: int
    line: int
    column: int


class Token(NamedTuple):
    """One lexeme and where it starts; its `Span` is built only when asked for."""

    kind: str
    text: str
    byte_start: int
    byte_end: int
    line: int
    column: int
    file_id: str

    @property
    def span(self) -> Span:
        return Span(self.file_id, self.byte_start, self.byte_end, self.line, self.column)


@record(slots=True)
class DocComment:
    """One block of consecutive own-line `///` lines, or a single `///` after
    code on its line.

    `text` has the `///` marker (and one following space, if present)
    stripped from every line.
    """

    text: str
    span: Span
    own_line: bool


@record(slots=True)
class Comment:
    """Regular `//` comment, kept verbatim (marker included) for the formatter."""

    text: str
    span: Span
    own_line: bool
