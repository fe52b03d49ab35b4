from hypothesis import given, strategies as st

from vl.docgen import extract_docs
from vl.formatter import format_source
from vl.lexer import scan
from vl.parser import parse_source
from vl.tokens import Comment

from helpers import structure
from test_parser import FIG1, parse_ok


def roundtrip(src):
    sf = parse_ok(src)
    return format_source(sf)


def assert_stable(src):
    once = roundtrip(src)
    sf1, diags = parse_source(once, "t.vl")
    assert diags == [], (diags, once)
    twice = format_source(sf1)
    assert once == twice, f"not idempotent:\n--- once ---\n{once}\n--- twice ---\n{twice}"
    # Reparse stability: formatted text parses to the same structure.
    assert structure(sf1) == structure(parse_ok(src))


def test_minimal_module_golden():
    assert roundtrip("module M(){}") == "module M () {\n}\n"


def test_counter_canonical_golden():
    assert roundtrip(FIG1) == FIG1


def test_ports_one_per_line_with_trailing_commas():
    out = roundtrip("module M (a: input logic, b: output logic) {}")
    assert "    a: input logic,\n    b: output logic,\n" in out


def test_idempotent_on_corpus():
    corpus = [
        "module M(){}",
        FIG1,
        "module A (i: input `a clock,) { always_ff (i) { x = 1; } }",
        "pub module S #(param W: u32 = 8) (d: input logic<W>[2],) { assign q = d[0]; }",
        "package P { const C: u32 = 1 + 2 * 3; function f (a: u32) -> u32 { return a; } }",
        "module G::<T,U> { inst u: T; inst v: Pkg::Mod::<A, B> #(W: 1) (p: q); }",
        "module C (c: input clock) { always_ff { if_reset { x = 0; } else if en { x += 1; } else { x = y; } } }",
        "module U (c: input clock) { unsafe (cdc) { var x: logic; } always_ff (c) { unsafe (cdc) { x = y; } } }",
    ]
    for src in corpus:
        assert_stable(src)


def test_doc_comments_preserved_verbatim():
    src = (
        "/// This is a sample module.\n"
        "///\n"
        "/// ```wavedrom\n"
        "/// {signal: []}\n"
        "/// ```\n"
        "pub module Sample #(\n"
        "    /// Data Width\n"
        "    param WIDTH: u32 = 1,\n"
        ") (\n"
        "    i_clk: input clock, /// Clock\n"
        ") {\n"
        "}\n"
    )
    out = roundtrip(src)
    assert out == src
    assert_stable(src)


def test_doc_on_every_module_item_stays_in_place():
    head = "module M (\n    clk: input clock,\n    o: output logic,\n) {\n"
    bodies = [
        "    /// drives o\n    assign o = 0;\n",
        "    assign o = 0; /// drives o\n    var x: logic;\n",
        "    /// the register\n    always_ff (clk) {\n        o = 1;\n    }\n",
        "    always_ff (clk) {\n        o = 1;\n    } /// the register\n",
        "    /// comb\n    always_comb {\n        o = 1;\n    }\n",
        "    /// crossing\n    unsafe (cdc) {\n        /// inner\n        assign o = 0;\n    }\n",
        "    unsafe (cdc) {\n        assign o = 0; /// inner\n    } /// crossing\n",
        "    inst u: N (\n        a: o,\n    ); /// the inst\n",
        "    function f () -> u32 {\n        return 1;\n    } /// f\n",
    ]
    for body in bodies:
        src = head + body + "}\n"
        assert roundtrip(src) == src
        assert_stable(src)


def test_regular_comments_survive():
    src = (
        "// file header\n"
        "module M () {\n"
        "    var x: logic; // state\n"
        "    // about the process\n"
        "    always_comb {\n"
        "        x = 1; // tail\n"
        "    }\n"
        "}\n"
    )
    out = roundtrip(src)
    for needle in ["// file header", "// state", "// about the process", "// tail"]:
        assert needle in out
    assert_stable(src)


def test_normalizes_whitespace_mess():
    src = "module   M(a:input logic,b:output logic<8>){assign b=a;always_comb{  }}"
    out = roundtrip(src)
    assert out == (
        "module M (\n"
        "    a: input logic,\n"
        "    b: output logic<8>,\n"
        ") {\n"
        "    assign b = a;\n"
        "    always_comb {\n"
        "    }\n"
        "}\n"
    )
    assert_stable(src)


def test_closing_angle_bracket_is_split_from_an_equals_sign():
    src = "module M #(param Q: logic<8>= 1) () {}"
    assert roundtrip(src) == "module M #(\n    param Q: logic<8> = 1,\n) () {\n}\n"
    assert_stable(src)


def test_adjacent_doc_blocks_keep_the_line_between_them():
    src = "/// a\n\n/// b\nmodule M () {\n}\n"
    out = roundtrip(src)
    assert out == "/// a\n///\n/// b\nmodule M () {\n}\n"
    assert parse_ok(out).items[0].doc.text == parse_ok(src).items[0].doc.text == "a\n\nb"
    assert_stable(src)


def test_two_items_separated_by_blank_line():
    out = roundtrip("module A(){} module B(){}")
    assert out == "module A () {\n}\n\nmodule B () {\n}\n"


def test_comments_before_a_closing_brace_stay_in_their_block():
    src = (
        "module M () {\n"
        "    always_comb {\n"
        "        x = 1;\n"
        "        // end of comb\n"
        "    }\n"
        "    // end of module\n"
        "} // after\n"
    )
    assert roundtrip(src) == src


def test_every_comment_stays_where_it_stands():
    """Each probe is already in canonical form, so fmt must give it back
    byte for byte: no comment moves, none is dropped, and the stray doc at
    the end of `A` does not become `B`'s description."""
    probes = [
        # a trailing doc on a param that also has a leading doc
        "module M #(\n    /// lead\n    param A: u32 = 1, /// trail\n) () {\n}\n",
        # a doc before a statement
        "module M (\n    o: output logic,\n) {\n    always_comb {\n        /// why\n        o = 1'b0;\n    }\n"
        "    var v: logic;\n}\n",
        # a trailing doc on a statement
        "module M (\n    o: output logic,\n) {\n    always_comb {\n        o = 1'b0; /// why\n    }\n"
        "    var v: logic;\n}\n",
        # a `//` line between a doc and its declaration
        "module M () {\n    /// d\n    // note\n    var v: logic;\n    var w: logic;\n}\n",
        # a doc before a module's closing brace
        "pub module A () {\n    var v: logic;\n    /// stray\n}\n\npub module B () {\n}\n",
        # a comment before the `)` of a port list
        "module M (\n    a: input logic,\n    // spare ports\n) {\n    var v: logic;\n}\n",
        # comments on the line of a list's opener
        "pub module M ( /// t\n    a: input logic,\n) {\n    var v: logic;\n}\n",
        "module M #( // c\n    param A: u32 = 1,\n) ( // d\n    a: input logic,\n) {\n}\n",
        # comments after a body's or block's `{`
        "module M () { // c\n    var v: logic;\n}\n",
        "module M (\n    a: input logic,\n) { // c\n}\n",
        "package p { // c\n    const C: u32 = 1;\n}\n",
        "module M (\n    o: output logic,\n) {\n    always_comb { // c\n        if o { // d\n            o = 1'b0;\n"
        "        } else { // e\n            o = 1'b1;\n        }\n    }\n}\n",
        # comments inside an empty list
        "module M ( // c\n) {\n}\n",
        "module M #( // c\n) () {\n}\n",
        "module M #(\n    // c\n) (\n    // d\n) {\n}\n",
        # a comment after the `(` of an instance's connections
        "module M () {\n    inst u: L ( // c\n        a: b,\n    );\n}\n",
        # a comment before the `)` of an instance's param list, ports after it
        "module M () {\n    inst u: L #(\n        W: 8,\n        // own\n    ) (\n        a: b,\n    );\n}\n",
        # own-line comments inside a `::<…>` list, which is then written one entry per line
        "module M::<\n    T,\n    // c\n    U, // t\n    // before the closer\n> () {\n}\n",
        "pub module M::< // c\n    T,\n    /// stray\n    U,\n> (\n    p0: input logic,\n) {\n}\n",
        "module M () {\n    inst u: G::<\n        A,\n        // c\n        B,\n    >;\n}\n",
        "module M () {\n    inst u: G::<\n        // c\n        A,\n    > #(\n        W: 8,\n    ) (\n        a: b,\n    );\n}\n",
    ]
    for src in probes:
        assert roundtrip(src) == src
        assert_stable(src)
    # A `::<…>` list with no own-line comment is written on one line: a
    # comment inside it ends that line.  One with an own-line comment is
    # written out, one entry per line.
    moved = [
        (
            "pub module M::<T,\n/// d\nU> (\n    p0: input logic,\n) {\n}\n",
            "pub module M::<\n    T,\n    /// d\n    U,\n> (\n    p0: input logic,\n) {\n}\n",
        ),
        (
            "module M () {\n    inst u: G::<A,\n    // c\n    B>; // t\n}\n",
            "module M () {\n    inst u: G::<\n        A,\n        // c\n        B, // t\n    >;\n}\n",
        ),
        ("module M::<T, // c\n    U> () {\n}\n", "module M::<T, U> () { // c\n}\n"),
        ("module M::< // c\n    T> #(\n    param A: u32 = 1,\n) () {\n}\n", "module M::<T> #( // c\n    param A: u32 = 1,\n) () {\n}\n"),
        ("module M () {\n    inst u: G::<A, // c\n        B>;\n}\n", "module M () {\n    inst u: G::<A, B>; // c\n}\n"),
        (
            "module M () {\n    inst u: G::<A, // c\n        B> (\n        a: b,\n    );\n}\n",
            "module M () {\n    inst u: G::<A, B> ( // c\n        a: b,\n    );\n}\n",
        ),
        # An own-line comment before a list's `(` keeps the comment after
        # the `(` from passing it: both go before the first entry, in order.
        (
            "module M #\n// own\n( // t\n    param A: u32 = 1,\n) () {\n}\n",
            "module M #(\n    // own\n    // t\n    param A: u32 = 1,\n) () {\n}\n",
        ),
    ]
    for src, canonical in moved:
        assert roundtrip(src) == canonical
        assert roundtrip(canonical) == canonical
        assert_stable(src)
    models, _ = extract_docs([parse_ok(probes[4])])
    assert [(m.name, m.doc) for m in models] == [("A", None), ("B", None)]
    (model,), _ = extract_docs([parse_ok(probes[6])])
    assert [(r.name, r.doc) for r in model.ports] == [("a", "")]
    # a `///` inside a `::<…>` list documents nothing, before fmt and after
    for src in (probes[-3], moved[0][0]):
        (model,), _ = extract_docs([parse_ok(src)])
        assert [(r.name, r.doc) for r in model.ports] == [("p0", "")]


_ITEMS = [
    ["var v: logic;"],
    ["assign v = a;"],
    ["inst u: Leaf;"],
    ["always_comb {", "}"],
    ["always_comb {", "    v = a;", "}"],
    ["always_comb {", "    if a {", "        v = 1;", "    } else {", "        v = 0;", "    }", "}"],
    ["inst u: Leaf #(", "    W: 8,", "    D: 2,", ") (", "    a: b,", "    c: d,", ");"],
    ["inst g: G::<A,", "    B>;"],
    ["inst g: G::<A,", "    B> (", "    a: b,", ");"],
]


@st.composite
def commented_module(draw):
    """A pub module, perhaps generic, one param, port, declaration or
    statement per line, with `//` comments and `///` blocks on their own
    lines (a blank line before some) and at line ends (`///` only after `,`,
    `;` and `}`), at random places.  A `::<…>` list that gets an own-line
    comment ends in a comma, as fmt writes it then."""
    nparams = draw(st.integers(0, 3))
    nports = draw(st.integers(0, 3))
    *lines, name = ["pub module M::<T,", "    U>"] if draw(st.booleans()) else ["pub module M"]
    if nparams:
        lines += [name + " #(", *(f"    param P{i}: u32 = {i}," for i in range(nparams))]
    close = ") " if nparams else name + " "
    if nports:
        lines += [close + "(", *(f"    p{i}: input logic," for i in range(nports)), ") {"]
    else:
        lines.append(close + "() {")
    for item in draw(st.lists(st.sampled_from(_ITEMS), max_size=5)):
        lines += ["    " + line for line in item]
    lines.append("}")
    out: list[str] = []
    for line in lines + [""]:
        kind = draw(st.integers(0, 5))
        if kind == 0:
            out.append(f"// own {len(out)}")
        elif kind == 1:
            if draw(st.booleans()):
                out.append("")
            out += [f"/// doc {len(out)}", *(["/// more"] if draw(st.booleans()) else [])]
        if kind in (0, 1) and line.strip()[:2] in ("U>", "B>"):
            line = line.replace(">", ",>", 1)
        kind = draw(st.integers(0, 5))
        if line and kind == 0:
            line += f" // trailing {len(out)}"
        elif line and kind == 1 and line[-1] in ",;}":
            line += f" /// trailing {len(out)}"
        out.append(line)
    return "\n".join(out)


def comment_texts(src):
    """Every `//` comment and every non-empty `///` line of `src`, in order."""
    r = scan(src, "t.vl")
    texts = []
    for c in sorted(r.comments + r.doc_comments, key=lambda c: c.span.byte_start):
        texts += [c.text] if isinstance(c, Comment) else [line for line in c.text.split("\n") if line]
    return texts


def code_tokens(src):
    """The (kind, text) of every token of `src` that is not a comment."""
    return [(t.kind, t.text) for t in scan(src, "t.vl").tokens]


@given(commented_module())
def test_every_comment_kept_once_in_order_property(src):
    once = roundtrip(src)
    assert comment_texts(once) == comment_texts(src)
    assert code_tokens(once) == code_tokens(src)
    assert roundtrip(once) == once
    assert extract_docs([parse_ok(once)])[0] == extract_docs([parse_ok(src)])[0]
