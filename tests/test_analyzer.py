import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vl.analyzer import ConstError, analyze_unit, check_literal_widths
from vl.parser import MAX_NESTING, parse_source
from vl.resolver import build_symbols

from helpers import check_strings, eval_const, parse_expression
from test_docgen import FIG6
from test_emitter import FIG2
from test_growth import MAX_GROWTH, _line_events
from test_parser import FIG1
from test_resolver import FIG3, FIG3_FF

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "diag"


def check(src, file_id="main.vl"):
    sf, pdiags = parse_source(src, file_id)
    assert pdiags == [], pdiags
    table, rdiags = build_symbols([sf], {})
    diags, bindings = analyze_unit([sf], table)
    return rdiags + diags, sf, table, bindings


def codes(src):
    diags, *_ = check(src)
    return [d.code for d in diags]


# -- eval_const ----------------------------------------------------------------


def eval_in_module(expr_src, module_src="module M #(param WIDTH: u32 = 1) () {}"):
    sf, _ = parse_source(module_src, "m.vl")
    table, _ = build_symbols([sf], {})
    scope = table.module_scopes[id(sf.items[0])]
    return eval_const(parse_expression(expr_src), scope)


def test_eval_const_fig1_bound():
    assert eval_in_module("WIDTH-1") == 0


def test_eval_const_zero():
    assert eval_in_module("0") == 0


def test_eval_const_division_by_zero():
    with pytest.raises(ConstError) as e:
        eval_in_module("1/0")
    assert e.value.diagnostic.code == "E0301"


def test_eval_const_wrap_is_error():
    with pytest.raises(ConstError) as e:
        eval_in_module("0 - 1")
    assert e.value.diagnostic.code == "E0301"
    with pytest.raises(ConstError):
        eval_in_module("(1 << 63) * 2")


def test_eval_const_unknown_name_propagates_e0202():
    with pytest.raises(ConstError) as e:
        eval_in_module("NOPE + 1")
    assert e.value.diagnostic.code == "E0202"


def test_eval_const_operators():
    assert eval_in_module("1 + 2 * 3") == 7
    assert eval_in_module("(8 >> 2) | 1") == 3
    assert eval_in_module("7 % 4") == 3
    assert eval_in_module("~0 >> 60") == 15
    assert eval_in_module("!0 + (2 < 3)") == 2


def test_eval_const_cycle_detection():
    src = "package p { const A: u32 = p::B; const B: u32 = p::A; }\nmodule M () {}\n"
    sf, _ = parse_source(src, "m.vl")
    table, _ = build_symbols([sf], {})
    scope = table.module_scopes[id(sf.items[1])]
    with pytest.raises(ConstError) as e:
        eval_const(parse_expression("p::A"), scope)
    assert e.value.diagnostic.code == "E0301"


def const_chain(n, reverse=False, cycle=False):
    """A package of `n` constants, each the next one plus 1; the last is 0,
    or `C0 + 1` for a cycle.  `reverse` writes them last to first."""
    links = [f"    const C{k}: u32 = C{k + 1} + 1;\n" for k in range(n - 1)]
    links.append(f"    const C{n - 1}: u32 = {'C0 + 1' if cycle else '0'};\n")
    if reverse:
        links.reverse()
    return "package K {\n" + "".join(links) + "}\nmodule M (o: output u32) {\n    assign o = K::C0;\n}\n"


@pytest.mark.parametrize("reverse", [False, True])
def test_3000_link_constant_chain_checks_clean(reverse):
    # Each link is a reference to the next constant: evaluation keeps no
    # Python frame per link, in either order.
    src = const_chain(3000, reverse)
    assert codes(src) == []
    sf, _ = parse_source(src, "m.vl")
    table, _ = build_symbols([sf], {})
    assert eval_const(parse_expression("K::C0"), table.module_scopes[id(sf.items[1])]) == 2999


@pytest.mark.parametrize("reverse", [False, True])
def test_3000_link_constant_cycle_is_one_e0301(reverse):
    # The first constant declared is evaluated first; the reference back to it closes the cycle.
    first = "C2999" if reverse else "C0"
    diags, *_ = check(const_chain(3000, reverse, cycle=True))
    assert [(d.code, d.message) for d in diags] == [("E0301", f"constant `{first}` is defined in terms of itself")]


def test_dependency_constant_is_evaluated_in_its_own_package():
    # `P::A` in the dependency's `B` names the dependency's `P`, not a root one.
    dep, _ = parse_source("pub package P {\n    const A: u32 = 2;\n    const B: u32 = P::A;\n}\n", "dep.vl")
    dep_table, dep_diags = build_symbols([dep], {}, "dep")
    root, _ = parse_source("module M (o: output logic<dep::P::B>) {\n    assign o = 0;\n}\n", "main.vl")
    table, diags = build_symbols([root], {"dep": dep_table})
    diags += dep_diags + analyze_unit([root], table)[0]
    assert diags == []


def test_const_context_diagnosed_in_module():
    assert codes("module M () { const C: u32 = 1/0; }") == ["E0301"]


# -- drivers -------------------------------------------------------------------


def test_fig1_counter_is_clean():
    assert codes(FIG1) == []


def test_two_drivers_is_e0302():
    src = (
        "module M (i_clk: input clock, o_x: output logic) {\n"
        "    var r_x: logic;\n"
        "    always_ff { r_x = 1; }\n"
        "    assign r_x = 0;\n"
        "    assign o_x = r_x;\n"
        "}\n"
    )
    diags, *_ = check(src)
    assert [d.code for d in diags] == ["E0302"]
    assert len(diags[0].related) == 1


def test_output_never_driven_is_e0303():
    assert codes("module M (o_x: output logic) {}") == ["E0303"]


def test_var_read_but_never_driven_is_e0303():
    assert codes("module M (o: output logic) { var x: logic; assign o = x; }") == ["E0303"]


def test_untouched_var_is_w0304():
    assert codes("module M () { var x: logic; }") == ["W0304"]


def test_driven_but_unread_var_is_w0304():
    src = "module M (i: input logic) { var x: logic; always_comb { x = i; } }"
    assert codes(src) == ["W0304"]


def test_function_argument_is_not_the_module_signal():
    # Driving an argument named like a var is not a second driver of the var,
    # and reading it is not a read of the var.
    drives_arg = (
        "module M (i: input logic, o: output logic) {\n"
        "    var v: logic;\n"
        "    assign v = i;\n"
        "    assign o = f(v);\n"
        "    function f (v: logic) -> logic { v = 1'b0; return v; }\n"
        "}\n"
    )
    assert codes(drives_arg) == []
    reads_arg = "module M () {\n    var w: logic;\n    function f (w: logic) -> logic { return w; }\n}\n"
    diags, *_ = check(reads_arg)
    assert [(d.code, d.message, d.span.line) for d in diags] == [("W0304", "variable `w` is never read", 2)]


def test_lvalue_index_and_range_are_reads():
    src = (
        "module M (i_s: input logic<2>, i_d: input logic<4>, o: output logic<4>) {\n"
        "    var s: logic<2>;\n"
        "    var t: logic<2>;\n"
        "    var r: logic<4>;\n"
        "    assign s = i_s;\n"
        "    assign t = ~i_s;\n"
        "    always_comb { r = i_d; r[s] = 1'b0; r[s:t] = 1'b1; }\n"
        "    assign o = r;\n"
        "}\n"
    )
    # the part-select's bounds are reads, and not constants
    assert [(d.code, d.message) for d in check(src)[0]] == [
        ("E0301", "`s` is a var, not a constant"),
        ("E0301", "`t` is a var, not a constant"),
    ]
    # without the reads in the selects, `s` and `t` are never read
    assert codes(src.replace("r[s] = 1'b0; r[s:t] = 1'b1; ", "")) == ["W0304", "W0304"]


def test_lvalue_part_select_bounds_are_constants():
    src = (
        "module Leaf (o: output logic<4>) {\n"
        "    assign o = 4'd0;\n"
        "}\n"
        "module M (o: output logic<4>) {\n"
        "    var s: logic<2>;\n"
        "    var a: logic<4>;\n"
        "    var b: logic<4>;\n"
        "    var c: logic<4>;\n"
        "    assign s = 2'd1;\n"
        "    always_comb { a[s:0] = 1'b1; }\n"
        "    assign b[s:0] = 1'b1;\n"
        "    inst u: Leaf (o: c[s:0]);\n"
        "    assign o = a | b | c[s:0];\n"
        "}\n"
    )
    diags, *_ = check(src)
    assert [(d.code, d.span.line, d.span.column) for d in diags] == [
        ("E0301", 10, 21),  # always_comb lvalue
        ("E0301", 11, 14),  # assign lvalue
        ("E0301", 12, 24),  # output port connection
        ("E0301", 13, 26),  # the rvalue, as before
    ]
    assert {d.message for d in diags} == {"`s` is a var, not a constant"}


def test_undefined_name_in_a_part_select_bound_is_one_e0202():
    src = (
        "module M (o: output logic<4>) {\n"
        "    var r: logic<4>;\n"
        "    assign r[x:0] = 1'b1;\n"
        "    assign o = r[y:0];\n"
        "}\n"
    )
    diags, *_ = check(src)
    assert [(d.code, d.message) for d in diags] == [
        ("E0202", "undefined identifier `x`"),
        ("E0202", "undefined identifier `y`"),
    ]


# -- latches -------------------------------------------------------------------


def test_partial_assign_is_w0305():
    src = (
        "module M (en: input logic, a: input logic, o_y: output logic) {\n"
        "    var y: logic;\n"
        "    always_comb {\n"
        "        if en { y = a; }\n"
        "    }\n"
        "    assign o_y = y;\n"
        "}\n"
    )
    assert codes(src) == ["W0305"]


def test_partial_assign_to_an_input_is_e0306_alone():
    src = (
        "module M (en: input logic, a: input logic) {\n"
        "    always_comb {\n"
        "        if en { a = 1; }\n"
        "    }\n"
        "}\n"
    )
    assert codes(src) == ["E0306"]


def test_full_if_else_is_clean():
    src = (
        "module M (en: input logic, a: input logic, b: input logic, o_y: output logic) {\n"
        "    always_comb {\n"
        "        if en { o_y = a; } else { o_y = b; }\n"
        "    }\n"
        "}\n"
    )
    assert codes(src) == []


def test_assignment_before_branch_counts_for_all_paths():
    src = (
        "module M (en: input logic, a: input logic, o_y: output logic) {\n"
        "    always_comb {\n"
        "        o_y = 0;\n"
        "        if en { o_y = a; }\n"
        "    }\n"
        "}\n"
    )
    assert codes(src) == []


def test_else_if_chain_missing_final_else_latches():
    src = (
        "module M (a: input logic, b: input logic, x: input logic, o_y: output logic) {\n"
        "    always_comb {\n"
        "        if a { o_y = x; } else if b { o_y = x; }\n"
        "    }\n"
        "}\n"
    )
    assert codes(src) == ["W0305"]


# -- direction -----------------------------------------------------------------


def test_assigning_input_is_e0306():
    src = "module M (i_x: input logic, o_y: output logic) { always_comb { i_x = 1; } assign o_y = i_x; }"
    assert codes(src) == ["E0306"]


def test_child_output_to_non_lvalue_is_e0306():
    src = (
        "module Child (o_b: output logic) { assign o_b = 1; }\n"
        "module P (a: input logic, b: input logic) {\n"
        "    inst u: Child (o_b: a + b);\n"
        "}\n"
    )
    assert "E0306" in codes(src)


# -- connectivity --------------------------------------------------------------

CHILD = "module Child (i_a: input logic, o_b: output logic) { assign o_b = i_a; }\n"


def test_unknown_port_is_e0307():
    src = CHILD + (
        "module P (i_x: input logic, o_y: output logic) {\n"
        "    inst u: Child (i_a: i_x, o_b: o_y, bogus: i_x);\n"
        "}\n"
    )
    assert codes(src) == ["E0307"]


def test_missing_port_is_e0308():
    src = CHILD + (
        "module P (i_x: input logic, o_y: output logic) {\n"
        "    inst u: Child (i_a: i_x);\n"
        "    assign o_y = i_x;\n"
        "}\n"
    )
    assert codes(src) == ["E0308"]


def test_duplicate_connection_is_e0309():
    src = CHILD + (
        "module P (i_x: input logic, o_y: output logic) {\n"
        "    inst u: Child (i_a: i_x, i_a: i_x, o_b: o_y);\n"
        "}\n"
    )
    assert codes(src) == ["E0309"]


def test_call_arity_is_e0310():
    src = (
        "module M (a: input logic, b: input logic, o: output logic) {\n"
        "    function f (x: u32) -> u32 { return x; }\n"
        "    always_comb { o = f(a, b); }\n"
        "}\n"
    )
    assert codes(src) == ["E0310"]


def test_instantiating_package_is_e0203():
    src = "package p { const C: u32 = 1; }\nmodule M () { inst u: p; }\n"
    assert codes(src) == ["E0203"]


@pytest.mark.parametrize(
    "probe, code",
    [
        ("function f (a: logic) -> logic { return g(a, a); }", "E0310"),
        ("function f (a: logic) -> logic { return g; }", "E0203"),
        ("function f (a: logic<4>) -> logic { return a[1 - 2:0]; }", "E0301"),
        ("function f (a: logic<4>) -> logic<4> { K = a; return a; }", "E0306"),
        ("const N: logic<1 - 2> = 0;", "E0301"),
        ("const L: logic<4> = 4'h1f;", "E0311"),
    ],
)
def test_module_and_package_items_get_the_same_checks(probe, code):
    items = f"    const K: logic<4> = 1;\n    function g (x: logic) -> logic {{ return x; }}\n    {probe}\n"
    assert codes(f"module M () {{\n{items}}}\n") == [code]
    assert codes(f"package P {{\n{items}}}\n") == [code]


# A generic wrapper that only passes its ports through to its argument module.
PASS_THROUGH = (
    "module Leaf (i_a: input logic, o: output logic) {\n    assign o = i_a;\n}\n"
    "module Wrap::<T> (i_a: input logic, o: output logic) {\n"
    "    var w: logic;\n    assign w = i_a;\n    inst u: T (i_a: w, o: o);\n}\n"
    "module Top (i_a: input logic, o: output logic) {\n    inst t: Wrap::<Leaf> (i_a: i_a, o: o);\n}\n"
)

@pytest.mark.parametrize(
    "src, expected",
    [
        # A parameter default is resolved once.
        ("module M #(param A: u32 = NOPE) () {}", [("E0202", 1, 27)]),
        # The connection rules run on a generic parameter's instance after substitution.
        (
            "module Leaf (o: output logic, i_clk: input clock) {\n    assign o = 1'b0;\n}\n"
            "module Wrap::<T> (i_a: input logic) {\n    inst u: T (o: 1'b1, i_clk: i_a);\n}\n"
            "module Top (i_a: input logic) {\n    inst w: Wrap::<Leaf> (i_a: i_a);\n}\n",
            [("E0306", 5, 19), ("E0315", 5, 32)],
        ),
        # A module that lost an item to parse recovery gets no absence-based finding.
        (
            "module M (o: output logic, i: input logic) { var v: logic; assign v = i +; assign o = v; }",
            [("E0101", 1, 74)],
        ),
        # 3,000 levels with the module body, one E0104 at the 129th.
        (f"module M (o: output u32) {{\n    assign o = {'(' * 2999}1{')' * 2999};\n}}\n", [("E0104", 2, 143)]),
        ("module M (en: input logic, a: input logic, o: output logic) { always_comb { if en { o = a; } } assign o = ; }",
         [("E0101", 1, 107)]),
        (
            "module M (i: input logic, o: output logic) {\n    always_comb {\n"
            + "if i {\n" * (MAX_NESTING + 10) + "o = i;\n" + "}\n" * (MAX_NESTING + 10) + "    }\n}\n",
            [("E0104", MAX_NESTING + 1, 6)],
        ),
        # A generic parameter's connections are reads, and their bases may be driven.
        (PASS_THROUGH, []),
        (PASS_THROUGH.replace("(i_a: w,", "(i_a: nope,"), [("W0304", 5, 9), ("E0202", 7, 21)]),
    ],
    ids=["param_default", "generic_connection_rules", "e0101", "e0104", "e0101_latch", "e0104_body", "pass_through", "pass_through_undefined"],
)
def test_findings_are_reported_once_and_only_where_they_can_be_known(src, expected):
    result = check_strings([("main.vl", src)])
    assert [(d.code, d.span.line, d.span.column) for d in result.diagnostics] == expected


# One row per rule, with its message: several E0301 rules share their code.
@pytest.mark.parametrize(
    "src, expected",
    [
        (
            "module M #(param A: u64 = 18_446_744_073_709_551_616) () {}",
            [("E0301", 1, 27, "literal `18_446_744_073_709_551_616` exceeds 64 bits")],
        ),
        (
            "module M #(param A: u64 = 65'h1_0000_0000_0000_0000) () {}",
            [("E0301", 1, 27, "literal `65'h1_0000_0000_0000_0000` exceeds 64 bits")],
        ),
        ("module M #(param A: u32 = f(1)) () {}", [("E0301", 1, 27, "expression is not constant")]),
        ("module M #(param A: u32 = -0, param B: u32 = -1) () {}", [("E0301", 1, 46, "negation of an unsigned value wraps")]),
        ("module M #(param A: u64 = 1 << 70) () {}", [("E0301", 1, 27, "shift overflows 64 bits")]),
        # The lexer's E0002 alone: neither the constant nor what reads it adds a finding.
        (
            "module M #(\n    param P: u32 = 4'b,\n    param Q: u32 = P + 1,\n) (o: output logic<P>) {\n    assign o = 0;\n}\n",
            [("E0002", 2, 20, "sized literal `4'b` has no digits")],
        ),
        (
            "module M (o: output logic<4>) {\n    assign o = 4'b | 4';\n}\n",
            [("E0002", 2, 16, "sized literal `4'b` has no digits"), ("E0002", 2, 22, "sized literal `4'` is missing its base (b, d, or h)")],
        ),
        (
            "module M (c: input clock, i: input logic, o: output logic) {\n    always_ff (nope) { o = i; }\n}\n",
            [("E0202", 2, 16, "undefined identifier `nope`")],
        ),
        ("module L () {}\nmodule M (o: output logic) {\n    assign o = L;\n}\n", [("E0203", 3, 16, "`L` is a module, not a value")]),
        (
            "module M (o: output logic) {\n    const K: logic = 1;\n    assign o = K(1) | nope(1);\n}\n",
            [("E0203", 3, 16, "`K` is a const, not a function"), ("E0202", 3, 23, "undefined identifier `nope`")],
        ),
        ("module M () {\n    assign nope = 1'b0;\n}\n", [("E0202", 2, 12, "undefined identifier `nope`")]),
        (
            "module M () {\n    var c: clock;\n    assign c = 1'b0;\n}\n",
            [("E0315", 3, 12, "clock/reset-typed signal `c` cannot be used in ordinary dataflow")],
        ),
        # Mono leaves an instance of an undefined module as it is.
        ("module M () {\n    inst u: Nope;\n}\n", [("E0202", 2, 13, "undefined identifier `Nope`")]),
        # A path of more than one segment is no signal of the latch check.
        (
            "package P {\n    const C: logic = 1;\n}\nmodule M () {\n    always_comb { P::C = 1'b0; }\n}\n",
            [("E0306", 5, 19, "cannot assign to `P::C` (const)")],
        ),
        (
            "module M (c: input clock, i: input `a logic, o: output logic) {\n    always_ff (c) { o = i; }\n}\n",
            [("E0316", 2, 25, "clock domain crossing: `i` belongs to clock domain `a` but is read under an unannotated clock")],
        ),
        (
            "package P {\n    const C: logic = 1;\n}\nmodule M (o: output logic) {\n    assign o = P::NOPE;\n}\n",
            [("E0202", 5, 16, "package `P` has no item `NOPE`")],
        ),
        (
            "module L (c: input clock) {}\nmodule M () {\n    inst u: L (c: 1'b0);\n}\n",
            [("E0315", 3, 19, "port `c` needs a clock/reset-typed signal")],
        ),
        # `i` is read only as an index.
        ("module M (a: input logic<4>, o: output logic) {\n    var i: logic<2>;\n    assign i = 2'd1;\n    assign o = a[i];\n}\n", []),
    ],
    ids=[
        "decimal_over_64_bits", "sized_over_64_bits", "call_not_constant", "negation_wraps", "shift_overflows",
        "malformed_literal_in_constant", "malformed_literal", "undefined_clock", "module_as_value", "call_non_function",
        "assign_undefined", "assign_clock", "inst_undefined", "comb_assign_to_package_const", "cdc_unannotated_clock",
        "package_has_no_item", "clock_port_literal", "index_read",
    ],
)
def test_each_rule_reports_its_own_message(src, expected):
    result = check_strings([("main.vl", src)])
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == expected


# A failing constant read by later parameters, ports or modules, and a
# connection error in a template body that two instances repeat.
ONCE_PROBES = [
    "module M #(param A: u32 = NOPE, param B: u32 = A) (o: output logic<B>) {\n    assign o = 0;\n}\n",
    "module M #(param A: u32 = NOPE, param B: logic<A> = 1) () {\n"
    "    function f (a: logic<A>) -> logic<A> {\n        return a;\n    }\n}\n",
    "package P {\n    const A: u32 = NOPE;\n}\n"
    "module M1 (o: output logic<P::A>) {\n    assign o = 0;\n}\n"
    "module M2 (o: output logic<P::A>) {\n    assign o = 0;\n}\n",
    "module LeafA (o: output logic) {\n    assign o = 0;\n}\n"
    "module LeafB (o: output logic) {\n    assign o = 0;\n}\n"
    "module Wrap::<T> () {\n    inst u: T (o: 1'b1);\n}\n"
    "module Top () {\n    inst a: Wrap::<LeafA> ();\n    inst b: Wrap::<LeafB> ();\n}\n",
]


def test_no_finding_is_reported_twice_on_the_fixtures_and_figures():
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.vl"))] + [FIG1, FIG2, FIG3, FIG3_FF, FIG6, CDC_BAD]
    for src in sources + ONCE_PROBES:
        found = [(d.code, d.span.byte_start, d.span.byte_end, d.message) for d in check_strings([("main.vl", src)]).diagnostics]
        assert len(found) == len(set(found)), found
        assert found or src not in ONCE_PROBES


# -- literal widths --------------------------------------------------------------


def test_literal_width_examples():
    assert [d.code for d in check_literal_widths(parse_expression("4'd16"))] == ["E0311"]
    assert check_literal_widths(parse_expression("4'd15")) == []
    assert check_literal_widths(parse_expression("1'b0")) == []
    assert [d.code for d in check_literal_widths(parse_expression("0'd1"))] == ["E0311"]


def test_literal_width_in_module():
    src = "module M (o: output logic) { assign o = 4'd16; }"
    assert codes(src) == ["E0311"]


@pytest.mark.parametrize(
    "src, expected",
    [
        ("module M (o: output logic<8'hfff>) {\n    assign o = 0;\n}\n", [("E0311", 1, 27)]),
        ("module M () {\n    var v: logic[4'd16];\n    const C: bit<2'd7> = 0;\n}\n", [("W0304", 2, 9), ("E0311", 2, 18), ("E0311", 3, 18)]),
        ("module M #(param W: logic<Q> = 1) () {}", [("E0202", 1, 27)]),
        ("module M #(param W: logic<2'd4> = 1) () {}", [("E0311", 1, 27)]),
        (
            "module M (o: output logic) {\n    function f (a: logic<X>) -> logic<Y> {\n        return a;\n    }\n"
            "    assign o = f(1);\n}\n",
            [("E0202", 2, 26), ("E0202", 2, 39)],
        ),
        (
            "package P {\n    const K: u32 = 4;\n    function f (a: logic<K>, b: bit<1'd2>) -> logic<K + Z> {\n"
            "        return a;\n    }\n}\n",
            [("E0311", 3, 37), ("E0202", 3, 57)],
        ),
    ],
    ids=["port", "var_const", "param_type", "param_type_literal", "function_types", "package_function"],
)
def test_every_type_gets_literal_widths_and_constant_dims(src, expected):
    result = check_strings([("main.vl", src)])
    assert [(d.code, d.span.line, d.span.column) for d in result.diagnostics] == expected


def test_literal_width_oracle_1_to_16():
    for w in range(1, 17):
        for value in (2**w - 1, 2**w):
            for base, radix in (("b", 2), ("d", 10), ("h", 16)):
                digits = _to_base(value, radix)
                diags = check_literal_widths(parse_expression(f"{w}'{base}{digits}"))
                # Oracle: exact big-integer comparison against 2**w.
                assert int(digits, radix) == value
                expected = ["E0311"] if value >= 2**w else []
                assert [d.code for d in diags] == expected, f"{w}'{base}{digits}"


def _to_base(value, radix):
    digits = "0123456789abcdef"
    if value == 0:
        return "0"
    out = []
    while value:
        out.append(digits[value % radix])
        value //= radix
    return "".join(reversed(out))


# -- clock and reset --------------------------------------------------------------


def test_fig1_abbreviated_binding():
    diags, _, _, bindings = check(FIG1)
    assert diags == []
    (b,) = bindings.values()
    assert (b.clock, b.reset, b.uses_if_reset) == ("i_clk", "i_rst", True)


def test_two_clocks_abbreviated_is_e0312():
    src = (
        "module M (c1: input clock, c2: input clock, i: input logic, o: output logic) {\n"
        "    always_ff { o = i; }\n"
        "}\n"
    )
    assert codes(src) == ["E0312"]


def test_abbreviated_bindings_cost_linear_line_events():
    # Every abbreviated always_ff binds the same clock and reset, so a module
    # looks its clock- and reset-typed signals up once, not once per block.
    def module(n):
        regs = "".join(f"    var r{i}: logic;\n    always_ff {{ if_reset {{ r{i} = 0; }} else {{ r{i} = i; }} }}\n" for i in range(n))
        reads = " | ".join(f"r{i}" for i in range(n))
        return f"module M (c: input clock, r: input reset, i: input logic, o: output logic) {{\n{regs}    assign o = {reads};\n}}\n"

    events = []
    for n in (20, 80):
        sf, _ = parse_source(module(n), "m.vl")
        table, _ = build_symbols([sf], {})
        assert analyze_unit([sf], table)[0] == []
        events.append(sum(_line_events(lambda: analyze_unit([sf], table)).values()))
    assert events[1] <= MAX_GROWTH * events[0], events


def test_if_reset_without_reset_is_e0313():
    src = (
        "module M (c: input clock, i: input logic, o: output logic) {\n"
        "    always_ff (c) { if_reset { o = 0; } else { o = i; } }\n"
        "}\n"
    )
    assert codes(src) == ["E0313"]


def test_explicit_binding_fig2_style():
    src = (
        "module ModuleA (\n"
        "    i_clk_a: input `a clock,\n"
        "    i_rst_a: input `a reset,\n"
        ") {\n"
        "    always_ff (i_clk_a, i_rst_a) { if_reset {} }\n"
        "}\n"
    )
    assert codes(src) == []


def test_non_clock_in_sensitivity_is_e0314():
    src = "module M (x: input logic, i: input logic, o: output logic) { always_ff (x) { o = i; } }"
    assert codes(src) == ["E0314"]


def test_clock_in_dataflow_is_e0315():
    src = "module M (c: input clock, o: output logic) { assign o = c; }"
    assert codes(src) == ["E0315"]


def test_clock_passthrough_to_child_clock_port_is_fine():
    src = (
        "module Child (c: input clock, i: input logic, o: output logic) { always_ff (c) { o = i; } }\n"
        "module P (c: input clock, i: input logic, o: output logic) {\n"
        "    inst u: Child (c: c, i: i, o: o);\n"
        "}\n"
    )
    assert codes(src) == []


def test_clock_into_logic_port_is_e0315():
    src = (
        "module Child (i: input logic, o: output logic) { assign o = i; }\n"
        "module P (c: input clock, o: output logic) {\n"
        "    inst u: Child (i: c, o: o);\n"
        "}\n"
    )
    assert "E0315" in codes(src)


# -- CDC ---------------------------------------------------------------------------

CDC_BAD = (
    "module Cdc (\n"
    "    i_clk_a: input `a clock,\n"
    "    i_clk_b: input `b clock,\n"
    "    i_dat: input `a logic,\n"
    "    o_dat: output `b logic,\n"
    ") {\n"
    "    var r_a: logic;\n"
    "    var r_b: logic;\n"
    "    always_ff (i_clk_a) { r_a = i_dat; }\n"
    "    always_ff (i_clk_b) { r_b = r_a; }\n"
    "    always_comb { o_dat = r_b; }\n"
    "}\n"
)

CDC_OK = CDC_BAD.replace("always_ff (i_clk_b) { r_b = r_a; }", "always_ff (i_clk_b) { unsafe (cdc) { r_b = r_a; } }")


def test_cross_domain_read_is_e0316():
    assert codes(CDC_BAD) == ["E0316"]


def test_unsafe_cdc_suppresses_and_adds_nothing():
    assert codes(CDC_OK) == []


def test_single_domain_module_has_no_cdc():
    assert codes(FIG1) == []


def test_unsafe_item_wrapping_always_ff_also_suppresses():
    src = CDC_BAD.replace(
        "always_ff (i_clk_b) { r_b = r_a; }",
        "unsafe (cdc) { always_ff (i_clk_b) { r_b = r_a; } }",
    )
    assert codes(src) == []


def test_cross_domain_index_in_lvalue_is_e0316():
    src = CDC_BAD.replace("r_b = r_a;", "r_b[r_a] = 1'b1;").replace("var r_b: logic;", "var r_b: logic<2>;")
    diags, *_ = check(src)
    assert [d.code for d in diags] == ["E0316"]
    span = diags[0].span
    assert (span.line, src[span.byte_start : span.byte_end]) == (10, "r_a")  # the index in `r_b[r_a] = …`


def test_mixed_domain_comb_conflicts_everywhere():
    src = (
        "module M (\n"
        "    i_clk_a: input `a clock,\n"
        "    i_da: input `a logic,\n"
        "    i_db: input `b logic,\n"
        "    o: output logic,\n"
        ") {\n"
        "    var w: logic;\n"
        "    var r: logic;\n"
        "    always_comb { w = i_da & i_db; }\n"
        "    always_ff (i_clk_a) { r = w; }\n"
        "    assign o = r;\n"
        "}\n"
    )
    assert codes(src) == ["E0316"]


def _domains(clock, assigns):
    """A module whose always_ff, under clock domain `clock`, reads `x`,
    which `assigns` drive through vars `x`, `y` and `z`."""
    body = "".join(f"    var {v}: logic;\n" for v in "xyz") + "".join(f"    assign {a};\n" for a in assigns)
    return (
        f"module M (c: input `{clock} clock, i_a: input `a logic, i_b: input `b logic, o: output `{clock} logic) {{\n"
        f"{body}    always_ff (c) {{ o = x; }}\n}}\n"
    )


@pytest.mark.parametrize(
    "clock, assigns, detail",
    [
        ("b", ["z = i_a", "y = z", "x = y"], "`x` belongs to clock domain `a`"),
        ("a", ["x = y | i_a", "y = x"], None),
        ("b", ["x = y | i_a", "y = x"], "`x` belongs to clock domain `a`"),
        ("a", ["x = y | i_a", "y = x | i_b"], "`x` mixes several clock domains"),
        ("a", ["x = y", "y = x"], None),
    ],
    ids=["chain_of_three", "loop_fed_by_a_read_under_a", "loop_fed_by_a_read_under_b", "loop_fed_by_a_and_b", "loop_fed_by_nothing"],
)
def test_a_domain_reaches_through_assigns_and_loops(clock, assigns, detail):
    diags, *_ = check(_domains(clock, assigns))
    expected = [f"clock domain crossing: {detail} but is read under clock domain `{clock}`"] if detail else []
    assert [d.message for d in diags if d.code == "E0316"] == expected


_CLOCKS = {"c_a": "a", "c_b": "b", "c_n": None}
_INPUTS = {"i_a": "a", "i_b": "b", "i_n": None}


@st.composite
def domain_modules(draw):
    """The declared domain of each signal, and the sites of a module over
    them: (clock, or None for an assign; the var it drives; what it reads)."""
    domain = dict(_INPUTS)
    names = [f"w{k}" for k in range(draw(st.integers(1, 4)))]
    for name in names:
        domain[name] = draw(st.sampled_from([None, None, "a", "b"]))
    # Mostly assigns reading vars, so that loops are common.
    reads = st.lists(st.one_of(st.sampled_from(names), st.sampled_from(sorted(_INPUTS))), max_size=3)
    site = st.tuples(st.sampled_from([None, None, None, *_CLOCKS]), st.sampled_from(names), reads)
    # Then one always_ff per clock reads every var, into a var of its own.
    probes = [(clock, f"p_{clock}", names) for clock in _CLOCKS]
    domain.update((target, None) for _, target, _ in probes)
    return domain, draw(st.lists(site, min_size=1, max_size=8)) + probes


def _annotation(domain):
    return f"`{domain} " if domain else ""


def _reaching(signal, domain, sites) -> set:
    """Brute force: the labels reachable from `signal` back through the
    assigns that drive it; an always_ff gives its clock's domain, an assign
    that reads nothing "default", and a signal nothing drives, or an
    annotated one, its declared domain."""
    found, seen, todo = set(), set(), [signal]
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        drivers = [(clock, reads) for clock, target, reads in sites if target == s]
        if domain[s] or not drivers:
            found.add(domain[s] or "default")
            continue
        for clock, reads in drivers:
            if clock:
                found.add(_CLOCKS[clock] or "default")
            elif not reads:
                found.add("default")
            else:
                todo += reads
    return found


@settings(max_examples=300, deadline=None)
@given(domain_modules())
def test_e0316_matches_a_brute_force_join_over_reachable_labels(module):
    domain, sites = module
    ports = [f"{c}: input {_annotation(d)}clock" for c, d in _CLOCKS.items()]
    ports += [f"{i}: input {_annotation(d)}logic" for i, d in _INPUTS.items()]
    lines = [f"module M ({', '.join(ports)}) {{"]
    lines += [f"    var {w}: {_annotation(d)}logic;" for w, d in domain.items() if w not in _INPUTS]
    expected = []
    for clock, target, reads in sites:
        rhs = " | ".join(reads) or "1'b0"
        assign = f"{target} = {rhs};"
        lines.append(f"    always_ff ({clock}) {{ {assign} }}" if clock else f"    assign {assign}")
        for r in reads if clock else ():
            labels, under = _reaching(r, domain, sites), _CLOCKS[clock] or "default"
            d1 = labels.pop() if len(labels) == 1 else "mixed" if labels else "default"
            if d1 in ("default", under):
                continue
            detail = f"`{r}` mixes several clock domains" if d1 == "mixed" else f"`{r}` belongs to clock domain `{d1}`"
            where = "an unannotated clock" if under == "default" else f"clock domain `{under}`"
            expected.append((len(lines), f"clock domain crossing: {detail} but is read under {where}"))
    diags, *_ = check("\n".join(lines) + "\n}\n")
    assert sorted((d.span.line, d.message) for d in diags if d.code == "E0316") == sorted(expected)


def test_clock_domains_cost_linear_line_events():
    # Each link reads the one after it, so an analysis that takes signals in
    # name order moves a domain one link per pass over the module.
    def module(n):
        names = [f"w{k:05}" for k in range(n + 1)]
        body = "".join(f"    var {w}: logic;\n" for w in names)
        body += "".join(f"    assign {names[k]} = {names[k + 1]};\n" for k in range(n))
        return (
            f"module M (c: input `a clock, i: input `a logic, o: output `a logic) {{\n{body}"
            f"    always_ff (c) {{ {names[n]} = i; }}\n    always_ff (c) {{ o = {names[0]}; }}\n}}\n"
        )

    events = []
    for n in (50, 200):
        sf, _ = parse_source(module(n), "m.vl")
        table, _ = build_symbols([sf], {})
        assert analyze_unit([sf], table)[0] == []
        events.append(sum(_line_events(lambda: analyze_unit([sf], table)).values()))
    assert events[1] <= MAX_GROWTH * events[0], events


def test_diagnostics_sorted_deterministically():
    src = "module M (o1: output logic, o2: output logic) {}"
    d1, *_ = check(src)
    d2, *_ = check(src)
    assert [(d.code, d.span.byte_start) for d in d1] == [(d.code, d.span.byte_start) for d in d2]
