"""Token types and source-position primitives shared by the whole toolchain."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    SIZED_LITERAL = auto()  # 8'hff, 4'b1010, 32'd10
    DEC_LITERAL = auto()  # plain decimal, underscores allowed
    PUNCT = auto()
    DOMAIN_TICK = auto()  # `a  (clock-domain annotation)
    EOF = auto()  # synthetic, never produced by the lexer


@dataclass(frozen=True, slots=True)
class Span:
    """Half-open byte range in one source file.

    `line`/`column` locate the start and are 1-based; byte offsets are 0-based.
    """

    file_id: str
    byte_start: int
    byte_end: int
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    span: Span


@dataclass(slots=True)
class DocComment:
    """One block of consecutive own-line `///` lines, or a single `///` after
    code on its line.

    `text` has the `///` marker (and one following space, if present)
    stripped from every line.
    """

    text: str
    span: Span
    own_line: bool


@dataclass(frozen=True, slots=True)
class Comment:
    """Regular `//` comment, kept verbatim (marker included) for the formatter."""

    text: str
    span: Span
    own_line: bool
