import pytest
from hypothesis import given, strategies as st

from vl import ast
from vl.parser import parse_expression, parse_source

FIG1 = """\
/// Counter
module Counter #(
    param WIDTH: u32 = 1,
) (
    i_clk: input clock,
    i_rst: input reset,
    o_cnt: output logic<WIDTH>,
) {
    var r_cnt: logic<WIDTH>;
    always_ff {
        if_reset {
            r_cnt = 0;
        } else {
            r_cnt += 1;
        }
    }
    always_comb {
        o_cnt = r_cnt;
    }
}
"""


def parse_ok(src):
    sf, diags = parse_source(src, "t.vl")
    assert diags == [], diags
    return sf


def test_fig1_counter_shape():
    sf = parse_ok(FIG1)
    assert len(sf.items) == 1
    m = sf.items[0]
    assert isinstance(m, ast.ModuleDecl)
    assert m.name == "Counter"
    assert m.doc is not None and m.doc.text == "Counter"
    assert [(p.name, p.ty.kind) for p in m.params] == [("WIDTH", "u32")]
    assert ast.expr_text(m.params[0].default) == "1"
    assert [(p.name, p.direction, p.ty.kind) for p in m.ports] == [
        ("i_clk", "input", "clock"),
        ("i_rst", "input", "reset"),
        ("o_cnt", "output", "logic"),
    ]
    assert [ast.expr_text(d) for d in m.ports[2].ty.packed_dims] == ["WIDTH"]
    kinds = [type(i).__name__ for i in m.body]
    assert kinds == ["VarDecl", "AlwaysFf", "AlwaysComb"]
    ff = m.body[1]
    assert ff.clock_name is None and ff.reset_name is None
    assert isinstance(ff.body.stmts[0], ast.IfResetStmt)


def test_minimal_module():
    sf = parse_ok("module M () {}")
    m = sf.items[0]
    assert m.name == "M" and m.params == [] and m.ports == [] and m.body == []


def test_trailing_comma_is_structural_noop():
    with_comma = parse_ok("module M (o_c: output logic<W>,) {}")
    without = parse_ok("module M (o_c: output logic<W>) {}")
    assert ast.structure(with_comma) == ast.structure(without)


def test_if_reset_outside_always_ff():
    _, diags = parse_source("module M () { always_comb { if_reset {} } }", "t.vl")
    assert [d.code for d in diags] == ["E0102"]


def test_unexpected_token_recovers_and_continues():
    src = "module M () { var 5: logic; var ok: logic; }"
    sf, diags = parse_source(src, "t.vl")
    assert any(d.code == "E0101" for d in diags)
    m = sf.items[0]
    assert [v.name for v in m.body] == ["ok"]


def test_unclosed_brace_is_e0103():
    # End of file inside any comma list is E0103 too, as it is inside a body.
    for src in (
        "module M () { var x: logic;",
        "module P::<T,",
        "module M () { var x: logic<",
        "module M () { inst u: P::<",
        "module M () { var x: logic[",
    ):
        _, diags = parse_source(src, "t.vl")
        assert "E0103" in [d.code for d in diags], src


def test_explicit_always_ff_binding():
    sf = parse_ok("module M (c: input clock, r: input reset) { always_ff (c, r) { if_reset {} } }")
    ff = sf.items[0].body[0]
    assert (ff.clock_name, ff.reset_name) == ("c", "r")


def test_domain_annotations():
    sf = parse_ok("module M (i_clk_a: input `a clock, i_d: input `a logic) { var x: `a logic; }")
    m = sf.items[0]
    assert [p.domain for p in m.ports] == ["a", "a"]
    assert m.body[0].domain == "a"


def test_generic_module_and_inst():
    sf = parse_ok(
        "module SramQueue::<T> { inst u_sram: T; }\n"
        "module Test { inst u0_queue: SramQueue::<SramVendorA>(); }\n"
    )
    q, t = sf.items
    assert q.generic_params == ["T"]
    inst = t.body[0]
    assert inst.target.segments == ["SramQueue"]
    assert [g.text for g in inst.generic_args] == ["SramVendorA"]
    assert inst.port_conns == []


def test_inst_with_params_and_ports():
    sf = parse_ok("module M { inst u: Child #(W: 8,) (i_x: a, o_y: b,); }")
    inst = sf.items[0].body[0]
    assert [(c.name, ast.expr_text(c.expr)) for c in inst.param_conns] == [("W", "8")]
    assert [c.name for c in inst.port_conns] == ["i_x", "o_y"]


def test_package_and_function():
    sf = parse_ok(
        "pub package math {\n"
        "    const ONE: u32 = 1;\n"
        "    function add (a: u32, b: u32) -> u32 {\n"
        "        return a + b;\n"
        "    }\n"
        "}\n"
    )
    pkg = sf.items[0]
    assert isinstance(pkg, ast.PackageDecl) and pkg.is_pub
    const, fn = pkg.items
    assert const.name == "ONE"
    assert fn.name == "add" and [a.name for a in fn.args] == ["a", "b"]
    assert fn.ret.kind == "u32"


def test_unsafe_cdc_stmt_and_item():
    sf = parse_ok(
        "module M (c: input clock) {\n"
        "    unsafe (cdc) { var x: logic; }\n"
        "    always_ff (c) { unsafe (cdc) { y = z; } }\n"
        "}\n"
    )
    item, ff = sf.items[0].body
    assert isinstance(item, ast.UnsafeCdcItem)
    assert isinstance(ff.body.stmts[0], ast.UnsafeCdcStmt)


def test_trailing_doc_attaches_to_port():
    sf = parse_ok(
        "module M (\n"
        "    i_clk: input clock, /// Clock\n"
        "    i_dat: input logic, /// Input Data\n"
        ") {}\n"
    )
    ports = sf.items[0].ports
    assert [p.doc.text for p in ports] == ["Clock", "Input Data"]
    assert not any(p.doc.own_line for p in ports)


def test_leading_doc_attaches_to_param():
    sf = parse_ok("module M #(\n    /// Data Width\n    param WIDTH: u32 = 1,\n) {}\n")
    assert sf.items[0].params[0].doc.text == "Data Width"


# -- free expression parsing -------------------------------------------------


def test_free_expr_fig1_bound():
    e = parse_expression("WIDTH-1")
    assert isinstance(e, ast.BinaryExpr) and e.op == "-"
    assert e.lhs.text == "WIDTH" and e.rhs.text == "1"


def test_free_expr_paren():
    e = parse_expression("(a)")
    assert isinstance(e, ast.ParenExpr) and isinstance(e.inner, ast.PathExpr)


def test_precedence_mul_over_add():
    e = parse_expression("1 + 2 * 3")
    assert isinstance(e, ast.BinaryExpr) and e.op == "+"
    assert isinstance(e.rhs, ast.BinaryExpr) and e.rhs.op == "*"


def test_precedence_shift_below_add():
    e = parse_expression("a + b << c")
    assert e.op == "<<"
    assert isinstance(e.lhs, ast.BinaryExpr) and e.lhs.op == "+"


@pytest.mark.parametrize(
    "src,top",
    [
        ("a | b ^ c", "|"),
        ("a ^ b & c", "^"),
        ("a & b == c", "&"),
        ("a == b < c", "=="),
        ("a < b >> c", "<"),
        ("a && b || c", "||"),
        ("!a && b", "&&"),
    ],
)
def test_precedence_table(src, top):
    e = parse_expression(src)
    assert e.op == top


def test_malformed_expression_raises():
    with pytest.raises(ValueError):
        parse_expression("1 +")
    with pytest.raises(ValueError):
        parse_expression("a b")


def test_selects_and_calls():
    e = parse_expression("f(a, b)[3:0]")
    assert isinstance(e, ast.RangeExpr)
    assert isinstance(e.base, ast.CallExpr)
    assert ast.expr_text(e) == "f(a, b)[3:0]"


def test_packed_dims_with_shift_needs_parens():
    sf, diags = parse_source("module M { var x: logic<(1 << 3)>; }", "t.vl")
    assert diags == []
    dims = sf.items[0].body[0].ty.packed_dims
    assert ast.expr_text(dims[0]) == "(1 << 3)"


_soup = st.text(
    alphabet="moduleparvinst(){}<>[]:;,=+-#`/ \n\t0123456789'bdh_xyzABC",
    max_size=200,
)


@given(_soup)
def test_recovery_always_terminates_with_valid_spans(src):
    # Error recovery must strictly advance; any input parses to completion
    # and every diagnostic points inside the file.
    sf, diags = parse_source(src, "fuzz.vl")
    for d in diags:
        assert 0 <= d.span.byte_start <= d.span.byte_end <= len(src)
        assert d.span.line >= 1 and d.span.column >= 1
