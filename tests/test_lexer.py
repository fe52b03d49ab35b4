from bisect import bisect_right

from hypothesis import given, settings, strategies as st

from vl.lexer import scan, sized_literal_parts, sized_literal_value
from vl.tokens import Span, TokenKind

import test_cli_fuzz as fuzz


def kinds_and_texts(src):
    return [(t.kind, t.text) for t in scan(src, "t.vl").tokens]


def test_fig1_var_decl():
    got = kinds_and_texts("var r_cnt: logic<WIDTH>;")
    assert got == [
        (TokenKind.KEYWORD, "var"),
        (TokenKind.IDENT, "r_cnt"),
        (TokenKind.PUNCT, ":"),
        (TokenKind.KEYWORD, "logic"),
        (TokenKind.PUNCT, "<"),
        (TokenKind.IDENT, "WIDTH"),
        (TokenKind.PUNCT, ">"),
        (TokenKind.PUNCT, ";"),
    ]


def test_domain_tick_is_one_token():
    got = kinds_and_texts("`a clock")
    assert got[0] == (TokenKind.DOMAIN_TICK, "`a")
    assert got[1] == (TokenKind.KEYWORD, "clock")


def test_empty_input():
    r = scan("", "t.vl")
    assert r.tokens == [] and r.doc_comments == [] and r.comments == [] and r.diagnostics == []


def test_sized_literals():
    for text in ["8'hff", "4'b10_10", "32'd10", "8'hDE"]:
        r = scan(text, "t.vl")
        (tok,) = r.tokens
        assert r.diagnostics == []
        assert tok.kind == TokenKind.SIZED_LITERAL and tok.text == text


def test_sized_literal_without_digits_is_e0002():
    r = scan("8'hzz", "t.vl")
    assert [d.code for d in r.diagnostics] == ["E0002"]
    assert r.diagnostics[0].span.byte_start == 0
    # Lexing continues: the zz tail becomes an identifier.
    assert [t.text for t in r.tokens] == ["8'h", "zz"]


def test_xz_digits_rejected_per_base():
    # Base-digit membership: x/z are in no alphabet, so a literal starting with
    # one has zero digits (E0002), and one mid-literal ends the lexeme early.
    for src in ["10'dz9", "8'hxz", "4'bx0"]:
        assert [d.code for d in scan(src, "t.vl").diagnostics] == ["E0002"]
    r = scan("4'b1x", "t.vl")
    assert r.diagnostics == []
    assert [t.text for t in r.tokens] == ["4'b1", "x"]


def test_invalid_character_recovers():
    r = scan("var @ x", "t.vl")
    assert [d.code for d in r.diagnostics] == ["E0001"]
    assert [t.text for t in r.tokens] == ["var", "x"]


def test_doc_comment_block_and_trailing():
    src = "/// Counter\n/// second line\nmodule M () {}\nvar x: logic; /// Trailing\n"
    r = scan(src, "t.vl")
    assert len(r.doc_comments) == 2
    block, trail = r.doc_comments
    assert block.text == "Counter\nsecond line"
    assert block.own_line
    assert trail.text == "Trailing"
    assert not trail.own_line


def test_doc_blocks_split_on_gap():
    src = "/// a\n\n/// b\nmodule M () {}\n"
    r = scan(src, "t.vl")
    assert [d.text for d in r.doc_comments] == ["a", "b"]


def test_regular_comment_is_trivia_not_doc():
    r = scan("// plain\nvar x: logic; // tail\n", "t.vl")
    assert r.doc_comments == []
    assert [(c.text, c.own_line) for c in r.comments] == [("// plain", True), ("// tail", False)]


def test_spans_are_increasing_and_exact():
    src = "module M () {\n    var r: logic<8>;\n}\n"
    r = scan(src, "t.vl")
    assert r.diagnostics == []
    prev_end = 0
    for t in r.tokens:
        assert t.byte_start >= prev_end
        assert src[t.byte_start : t.byte_end] == t.text
        prev_end = t.byte_end


def test_offsets_count_code_points_not_utf8_bytes():
    # `é` is two bytes in UTF-8 but one code point of the decoded text.
    src = "var é_x"
    x = next(t for t in scan(src, "f").tokens if t.text == "_x")
    assert (x.byte_start, x.byte_end) == (5, 7)
    assert src[x.byte_start : x.byte_end] == "_x"


def test_line_and_column_positions():
    src = "var a: logic;\n  inst b: M;\n"
    inst = next(t for t in scan(src, "t.vl").tokens if t.text == "inst")
    assert (inst.line, inst.column, inst.file_id) == (2, 3, "t.vl")


def test_three_char_operators():
    got = kinds_and_texts("a <<= 1; b >>= 2;")
    texts = [t for _, t in got]
    assert "<<=" in texts and ">>=" in texts


def _covered(lexeme, regions):
    """`lexeme` is a token or a span."""
    regions.append((lexeme.byte_start, lexeme.byte_end))


def assert_round_trip(src):
    r = scan(src, "t.vl")
    regions = []
    for t in r.tokens:
        assert src[t.byte_start : t.byte_end] == t.text
        _covered(t, regions)
    for c in r.comments:
        _covered(c.span, regions)
    for d in r.doc_comments:
        _covered(d.span, regions)
    for d in r.diagnostics:
        _covered(d.span, regions)
    regions.sort()
    pos = 0
    for start, end in regions:
        assert start >= pos, "overlapping lexemes"
        assert src[pos:start].strip() == "", f"lost characters: {src[pos:start]!r}"
        pos = max(pos, end)
    assert src[pos:].strip() == ""


def test_round_trip_on_realistic_source():
    assert_round_trip(
        "/// Counter\n"
        "module Counter #(\n"
        "    param WIDTH: u32 = 1,\n"
        ") (\n"
        "    i_clk: input clock, /// Clock\n"
        "    i_rst: input reset,\n"
        "    o_cnt: output logic<WIDTH>,\n"
        ") {\n"
        "    var r_cnt: logic<WIDTH>; // state\n"
        "    always_ff {\n"
        "        if_reset {\n"
        "            r_cnt = 0;\n"
        "        } else {\n"
        "            r_cnt += 1;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )


_atoms = st.sampled_from(
    ["module", "var", "logic", "x", "y0", "_z", "8'hff", "4'b1010", "42", "1_000",
     "::", "<<=", "<=", "+", ";", ",", "{", "}", "(", ")", "<", ">", "`a", "`dom",
     "// note", "/// doc", "@", "$"]
)


@given(st.lists(_atoms, max_size=40), st.randoms(use_true_random=False))
def test_round_trip_property(parts, rng):
    seps = [" ", "\n", "\t", "  ", "\n\n"]
    src = "".join(p + rng.choice(seps) for p in parts)
    assert_round_trip(src)


_soup = st.lists(
    st.sampled_from(["x", "8'h", "4'b1", "7'", "1_0", "`a", "`", "//", "///", " /// d", "<<=", "->",
                     "²", "٣", "é", "\x0b", "\r", "\n", " ", "\t"]),
    max_size=40,
).map("".join)


@given(st.one_of(st.text(), _soup))
def test_scan_spans_property(src):
    # Any text, non-ASCII included: scan ends, every lexeme is exact and
    # located, and every non-whitespace character is accounted for.
    r = scan(src, "t.vl")
    newlines = [i for i, ch in enumerate(src) if ch == "\n"]

    def check_position(span):
        line = bisect_right(newlines, span.byte_start - 1) + 1
        line_start = newlines[line - 2] + 1 if line > 1 else 0
        assert (span.line, span.column) == (line, span.byte_start - line_start + 1)

    for t in r.tokens:
        assert src[t.byte_start : t.byte_end] == t.text
    for c in r.comments:
        assert src[c.span.byte_start : c.span.byte_end] == c.text
    lexemes = list(r.tokens) + [c.span for c in r.comments] + [d.span for d in r.doc_comments]
    for kind in (r.tokens, [c.span for c in r.comments]):
        assert all(a.byte_end <= b.byte_start for a, b in zip(kind, kind[1:]))
    lexemes.sort(key=lambda s: s.byte_start)
    assert all(a.byte_end <= b.byte_start for a, b in zip(lexemes, lexemes[1:]))
    assert all(s.byte_start < s.byte_end for s in lexemes)
    covered = [False] * len(src)
    for span in lexemes + [d.span for d in r.diagnostics]:
        check_position(span)
        covered[span.byte_start : span.byte_end] = [True] * (span.byte_end - span.byte_start)
    assert {d.code for d in r.diagnostics} <= {"E0001", "E0002"}
    for i, ch in enumerate(src):
        assert covered[i] or ch in " \t\r\n", (i, ch)


def _recount(source, at):
    """(line, column) of byte `at`, counted afresh from the text."""
    return source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)


@settings(max_examples=60, deadline=None)
@given(st.one_of(fuzz._soup(fuzz._TOKENS), fuzz._stress(), st.binary(max_size=120).map(lambda b: b.decode("utf-8", "replace"))))
def test_every_lexeme_is_where_its_position_says(src):
    # The fuzz sources: a token is its text at its offsets, with the line
    # and column of its start, and its span is built from those fields.
    r = scan(src, "t.vl")
    for t in r.tokens:
        assert src[t.byte_start : t.byte_end] == t.text
        assert (t.line, t.column) == _recount(src, t.byte_start)
        assert t.span == Span("t.vl", t.byte_start, t.byte_end, t.line, t.column)
    for c in r.comments:
        assert src[c.span.byte_start : c.span.byte_end] == c.text
        assert (c.span.line, c.span.column) == _recount(src, c.span.byte_start)
    for d in r.doc_comments:
        s = d.span
        assert src[s.byte_start : s.byte_end].startswith("///") and src[s.byte_end : s.byte_end + 1] in ("", "\n")
        assert (s.line, s.column) == _recount(src, s.byte_start)


def test_sized_literal_helpers():
    assert sized_literal_parts("8'hff") == (8, "h", "ff")
    assert sized_literal_parts("3_2'd1_0") == (32, "d", "1_0")
    assert sized_literal_parts("8'h") is None
    assert sized_literal_value("h", "ff") == 255
    assert sized_literal_value("b", "10_10") == 10
    assert sized_literal_value("d", "4_2") == 42
