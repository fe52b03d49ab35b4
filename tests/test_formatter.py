from hypothesis import given, strategies as st

from vl.ast import structure
from vl.formatter import format_source
from vl.lexer import scan
from vl.parser import parse_source

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


_ITEMS = [
    ["var v: logic;"],
    ["assign v = a;"],
    ["inst u: Leaf;"],
    ["always_comb {", "}"],
    ["always_comb {", "    v = a;", "}"],
    ["always_comb {", "    if a {", "        v = 1;", "    } else {", "        v = 0;", "    }", "}"],
    ["inst u: Leaf #(", "    W: 8,", "    D: 2,", ") (", "    a: b,", "    c: d,", ");"],
]


@st.composite
def commented_module(draw):
    """A module, one declaration or statement per line, with `//` comments on
    their own lines and at line ends at random places."""
    nports = draw(st.integers(0, 3))
    lines = ["module M (", *(f"    p{i}: input logic," for i in range(nports)), ") {"] if nports else ["module M () {"]
    for item in draw(st.lists(st.sampled_from(_ITEMS), max_size=5)):
        lines += ["    " + line for line in item]
    lines.append("}")
    out: list[str] = []
    for line in lines + [""]:
        if draw(st.integers(0, 3)) == 0:
            out.append(f"// own {len(out)}")
        if line and draw(st.integers(0, 3)) == 0:
            line += f" // trailing {len(out)}"
        out.append(line)
    return "\n".join(out)


@given(commented_module())
def test_every_comment_kept_once_in_order_property(src):
    once = roundtrip(src)
    assert [c.text for c in scan(once, "t.vl").comments] == [c.text for c in scan(src, "t.vl").comments]
    assert roundtrip(once) == once
