from bisect import bisect_right

from hypothesis import given, strategies as st

from vl.lexer import scan, sized_literal_parts, sized_literal_value, tokenize
from vl.tokens import TokenKind


def kinds_and_texts(src):
    tokens, _, _ = tokenize(src, "t.vl")
    return [(t.kind, t.text) for t in tokens]


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
    tokens, docs, diags = tokenize("", "t.vl")
    assert tokens == [] and docs == [] and diags == []


def test_sized_literals():
    for text in ["8'hff", "4'b10_10", "32'd10", "8'hDE"]:
        (tok,), _, diags = (lambda r: (r[0], r[1], r[2]))(tokenize(text, "t.vl"))
        assert diags == []
        assert tok.kind == TokenKind.SIZED_LITERAL and tok.text == text


def test_sized_literal_without_digits_is_e0002():
    tokens, _, diags = tokenize("8'hzz", "t.vl")
    assert [d.code for d in diags] == ["E0002"]
    assert diags[0].span.byte_start == 0
    # Lexing continues: the zz tail becomes an identifier.
    assert [t.text for t in tokens] == ["8'h", "zz"]


def test_xz_digits_rejected_per_base():
    # Base-digit membership: x/z are in no alphabet, so a literal starting with
    # one has zero digits (E0002), and one mid-literal ends the lexeme early.
    for src in ["10'dz9", "8'hxz", "4'bx0"]:
        _, _, diags = tokenize(src, "t.vl")
        assert [d.code for d in diags] == ["E0002"]
    tokens, _, diags = tokenize("4'b1x", "t.vl")
    assert diags == []
    assert [t.text for t in tokens] == ["4'b1", "x"]


def test_invalid_character_recovers():
    tokens, _, diags = tokenize("var @ x", "t.vl")
    assert [d.code for d in diags] == ["E0001"]
    assert [t.text for t in tokens] == ["var", "x"]


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
    tokens, _, diags = tokenize(src, "t.vl")
    assert diags == []
    prev_end = 0
    for t in tokens:
        assert t.span.byte_start >= prev_end
        assert src[t.span.byte_start : t.span.byte_end] == t.text
        prev_end = t.span.byte_end


def test_line_and_column_positions():
    src = "var a: logic;\n  inst b: M;\n"
    tokens, _, _ = tokenize(src, "t.vl")
    inst = next(t for t in tokens if t.text == "inst")
    assert (inst.span.line, inst.span.column) == (2, 3)


def test_three_char_operators():
    got = kinds_and_texts("a <<= 1; b >>= 2;")
    texts = [t for _, t in got]
    assert "<<=" in texts and ">>=" in texts


def _covered(span, regions):
    regions.append((span.byte_start, span.byte_end))


def assert_round_trip(src):
    r = scan(src, "t.vl")
    regions = []
    for t in r.tokens:
        assert src[t.span.byte_start : t.span.byte_end] == t.text
        _covered(t.span, regions)
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
        assert src[t.span.byte_start : t.span.byte_end] == t.text
    for c in r.comments:
        assert src[c.span.byte_start : c.span.byte_end] == c.text
    lexemes = [t.span for t in r.tokens] + [c.span for c in r.comments] + [d.span for d in r.doc_comments]
    for kind in ([t.span for t in r.tokens], [c.span for c in r.comments]):
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


def test_sized_literal_helpers():
    assert sized_literal_parts("8'hff") == (8, "h", "ff")
    assert sized_literal_parts("3_2'd1_0") == (32, "d", "1_0")
    assert sized_literal_parts("8'h") is None
    assert sized_literal_value("h", "ff") == 255
    assert sized_literal_value("b", "10_10") == 10
    assert sized_literal_value("d", "4_2") == 42
