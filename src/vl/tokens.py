"""Token types, the table of built-in types, and source-position primitives
shared by the whole toolchain."""

from __future__ import annotations

import re
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


# The built-in types.  A clock or reset type names its edge or style after
# the `_`; a bare `clock` or `reset` takes the project's `[build]` one, and
# the edges and styles are the values `clock_type` and `reset_type` accept.
CLOCK_EDGES = ("posedge", "negedge")
RESET_STYLES = ("async_low", "async_high", "sync_low", "sync_high")
CLOCK_TYPES = frozenset(["clock", *(f"clock_{edge}" for edge in CLOCK_EDGES)])
RESET_TYPES = frozenset(["reset", *(f"reset_{style}" for style in RESET_STYLES)])
# Each scalar type with its SystemVerilog spelling, and those that take
# packed and unpacked dimensions.
SCALAR_TYPES = {"logic": "logic", "bit": "bit", "u32": "int unsigned", "u64": "longint unsigned"}
VECTOR_TYPES = frozenset({"logic", "bit"})
TYPE_KEYWORDS = CLOCK_TYPES | RESET_TYPES | frozenset(SCALAR_TYPES)

KEYWORDS = TYPE_KEYWORDS | frozenset(
    """
    module package param const var inst input output always_ff always_comb
    assign if else if_reset unsafe cdc function return pub
    """.split()
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_identifier(text: str) -> bool:
    """Whether `text` can name a project: an identifier that is not a keyword."""
    return _IDENT_RE.fullmatch(text) is not None and text not in KEYWORDS


@record(unsafe_hash=True)
class Span:
    """Half-open range of one source file's decoded text.

    `byte_start`/`byte_end` are 0-based code-point offsets into the text, not
    offsets into its UTF-8 bytes; `line`/`column` locate the start and are
    1-based.  Spans are values: equal fields compare and hash equal.
    """

    file_id: str
    byte_start: int
    byte_end: int
    line: int
    column: int


class Token(NamedTuple):
    """One lexeme and where it starts, in code points as in `Span`; its `Span`
    is built only when asked for."""

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


@record
class DocComment:
    """One block of consecutive own-line `///` lines, or a single `///` after
    code on its line.

    `text` has the `///` marker (and one following space, if present)
    stripped from every line.
    """

    text: str
    span: Span
    own_line: bool


@record
class Comment:
    """Regular `//` comment, kept verbatim (marker included) for the formatter."""

    text: str
    span: Span
    own_line: bool
