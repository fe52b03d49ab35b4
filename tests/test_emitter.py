import re

from vl import ast
from vl.analyzer import analyze_unit
from vl.emitter import EmitConfig, emit_items, emit_module, emit_project, lower_type, unpacked_suffix
from vl.resolver import build_symbols
import svread
from test_formatter import assert_stable, roundtrip
from test_parser import FIG1, parse_ok

FIG2 = """\
module ModuleA (
    i_clk_a: input `a clock,
    i_clk_b: input `b clock_negedge,
    i_rst_a: input `a reset,
    i_rst_b: input `b reset_async_high,
) {
    always_ff (i_clk_a, i_rst_a) {
        if_reset {
        }
    }
    always_ff (i_clk_b, i_rst_b) {
        if_reset {
        }
    }
}
"""

ALL_CONFIGS = [EmitConfig(c, r) for c in ("posedge", "negedge") for r in ("async_low", "async_high", "sync_low", "sync_high")]


def module_of(src, name=None):
    sf = parse_ok(src)
    if name is None:
        return sf.items[0]
    return next(i for i in sf.items if i.name == name)


def ff_bindings(*items):
    """The analyzer's always_ff bindings for `items`, checked as one file."""
    sf = ast.SourceFile("main.vl", "", list(items))
    return analyze_unit([sf], build_symbols([sf])[0])[1]


def emit_one(m, cfg):
    return emit_module(m, cfg, ff_bindings(m))


def ty_of(src):
    return module_of(f"module M () {{ var x: {src}; }}").body[0].ty


def test_lower_type_examples():
    assert lower_type(ty_of("logic<WIDTH>")) == "logic [WIDTH-1:0]"
    assert lower_type(ty_of("logic")) == "logic"
    assert lower_type(ty_of("logic<W, X>")) == "logic [W-1:0][X-1:0]"


def test_lower_type_scalars_and_special():
    assert lower_type(ty_of("u32")) == "int unsigned"
    assert lower_type(ty_of("u64")) == "longint unsigned"
    assert lower_type(ty_of("clock")) == "logic"
    assert lower_type(ty_of("reset_async_low")) == "logic"
    assert lower_type(ty_of("bit<4>")) == "bit [4-1:0]"


def test_unpacked_dims_after_name():
    assert unpacked_suffix(ty_of("logic<8>[4]")) == " [0:4-1]"


def test_compound_bound_is_parenthesized():
    assert lower_type(ty_of("logic<W+1>")) == "logic [(W + 1)-1:0]"


def test_empty_module():
    assert emit_one(module_of("module M () {}"), EmitConfig()) == "module M;\nendmodule\n"


def test_fig1_emission_structure():
    text = emit_one(module_of(FIG1), EmitConfig("posedge", "async_low"))
    (sv,) = svread.parse_sv(text)
    assert sv.name == "Counter"
    assert sv.params == [("WIDTH", ("1",))]
    assert [(d, n) for d, _, n, _ in sv.ports] == [("input", "i_clk"), ("input", "i_rst"), ("output", "o_cnt")]
    ff, comb = sv.processes
    assert ff.sensitivity == [("posedge", "i_clk"), ("negedge", "i_rst")]
    cond, then, orelse = ff.stmts[0][1:]
    assert cond == ("!", "i_rst")
    assert then == [("assign", ("r_cnt",), "<=", ("0",))]
    assert orelse == [("assign", ("r_cnt",), "<=", ("r_cnt", "+", "1"))]
    assert comb.stmts == [("assign", ("o_cnt",), "=", ("r_cnt",))]


def test_compound_assign_lowering():
    text = emit_one(module_of(FIG1), EmitConfig())
    assert "r_cnt <= r_cnt + (1);" in text


def test_fig2_posedge_async_low():
    text = emit_one(module_of(FIG2), EmitConfig("posedge", "async_low"))
    assert "always_ff @ (posedge i_clk_a or negedge i_rst_a) begin" in text
    assert "if (!i_rst_a) begin" in text
    assert "always_ff @ (negedge i_clk_b or posedge i_rst_b) begin" in text
    assert "if (i_rst_b) begin" in text


def test_fig2_negedge_sync_high():
    text = emit_one(module_of(FIG2), EmitConfig("negedge", "sync_high"))
    assert "always_ff @ (negedge i_clk_a) begin" in text
    assert "if (i_rst_a) begin" in text
    # The sync reset must not appear in any sensitivity list.
    for line in text.splitlines():
        if "always_ff" in line:
            assert "i_rst_a" not in line
    assert "always_ff @ (negedge i_clk_b or posedge i_rst_b) begin" in text


def test_fig2_b_process_immune_to_config():
    def b_lines(cfg):
        text = emit_one(module_of(FIG2), cfg)
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines) if "i_clk_b" in l)
        return lines[start : start + 4]

    reference = b_lines(ALL_CONFIGS[0])
    for cfg in ALL_CONFIGS[1:]:
        assert b_lines(cfg) == reference


def test_fig2_config_orthogonality():
    texts = {cfg: emit_one(module_of(FIG2), cfg) for cfg in ALL_CONFIGS}
    reference = texts[ALL_CONFIGS[0]].splitlines()
    for cfg, text in texts.items():
        lines = text.splitlines()
        assert len(lines) == len(reference)
        for a, b in zip(reference, lines):
            if a != b:
                assert "always_ff @" in a or "if (" in a, (a, b)


def test_explicit_variant_module_immune_to_all_configs():
    src = (
        "module Fixed (\n"
        "    c: input clock_negedge,\n"
        "    r: input reset_async_high,\n"
        "    i: input logic,\n"
        "    o: output logic,\n"
        ") {\n"
        "    always_ff (c, r) {\n"
        "        if_reset { o = 0; } else { o = i; }\n"
        "    }\n"
        "}\n"
    )
    texts = {emit_one(module_of(src), cfg) for cfg in ALL_CONFIGS}
    assert len(texts) == 1  # byte-identical under every clock/reset config


def test_posedge_clock_type_ignores_a_negedge_config():
    src = (
        "module Fixed (c: input clock_posedge, r: input reset_sync_low, i: input logic, o: output logic) {\n"
        "    always_ff (c, r) {\n"
        "        if_reset { o = 0; } else { o = i; }\n"
        "    }\n"
        "}\n"
    )
    for cfg in ALL_CONFIGS:
        lines = [line.strip() for line in emit_one(module_of(src), cfg).splitlines()]
        assert "always_ff @ (posedge c) begin" in lines and "if (!r) begin" in lines


def test_name_preservation():
    text = emit_one(module_of(FIG1), EmitConfig())
    for name in ["Counter", "WIDTH", "i_clk", "i_rst", "o_cnt", "r_cnt"]:
        assert re.search(rf"\b{name}\b", text)


def test_process_correspondence():
    text = emit_one(module_of(FIG2), EmitConfig())
    assert text.count("always_ff") == FIG2.count("always_ff")


def test_emission_deterministic():
    a = emit_one(module_of(FIG1), EmitConfig())
    b = emit_one(module_of(FIG1), EmitConfig())
    assert a == b


def test_inst_emission():
    src = (
        "module Child (i_a: input logic, o_b: output logic) { assign o_b = i_a; }\n"
        "module P (x: input logic, y: output logic) {\n"
        "    inst u: Child (i_a: x, o_b: y);\n"
        "}\n"
    )
    sf = parse_ok(src)
    text = emit_items(sf.items, EmitConfig(), {})
    (child, parent) = svread.parse_sv(text)
    (inst,) = parent.insts
    assert inst.type == "Child" and inst.name == "u"
    assert inst.port_conns == {"i_a": ("x",), "o_b": ("y",)}


def test_inst_with_params_and_empty_conns():
    src = (
        "module K #(param W: u32 = 1) () {}\n"
        "module P () { inst a: K #(W: 8); inst b: K; }\n"
    )
    sf = parse_ok(src)
    text = emit_items(sf.items, EmitConfig(), {})
    assert ".W (8)" in text
    assert "K b ();" in text


def test_package_and_function_emission():
    src = (
        "package math {\n"
        "    const ONE: u32 = 1;\n"
        "    function inc (a: u32) -> u32 { return a + math::ONE; }\n"
        "}\n"
    )
    sf = parse_ok(src)
    text = emit_items(sf.items, EmitConfig(), {})
    (pkg,) = svread.parse_sv(text)
    assert pkg.name == "math"
    assert pkg.localparams == [("ONE", ("1",))]
    assert pkg.functions == ["inc"]
    assert "math::ONE" in text


def test_emit_project_writes_files(tmp_path):
    sf = parse_ok(FIG1)
    paths, diags = emit_project([("counter", sf.items)], EmitConfig(), ff_bindings(*sf.items), tmp_path / "sv")
    assert diags == []
    assert [p.name for p in paths] == ["counter.sv"]
    text = paths[0].read_text()
    assert text.endswith("\n") and "\r" not in text


def test_emit_project_empty_is_noop(tmp_path):
    paths, diags = emit_project([], EmitConfig(), {}, tmp_path / "sv")
    assert paths == [] and diags == []
    assert not (tmp_path / "sv").exists()


def test_emit_project_unwritable_dir(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    items = parse_ok(FIG1).items
    _, diags = emit_project([("x", items)], EmitConfig(), ff_bindings(*items), target / "sub")
    assert [d.code for d in diags] == ["EIO01"]


def test_bare_block_and_unsafe_statement():
    # A bare `{ }` lowers to `begin`/`end`; an `unsafe (cdc) { }` statement
    # to its body alone.
    src = (
        "module B (\n"
        "    i_clk: input clock,\n"
        "    i_rst: input reset,\n"
        "    i: input logic,\n"
        "    o: output logic,\n"
        ") {\n"
        "    var r: logic;\n"
        "    always_ff {\n"
        "        if_reset {\n"
        "            r = 0;\n"
        "        } else {\n"
        "            {\n"
        "                r = i;\n"
        "            }\n"
        "        }\n"
        "    }\n"
        "    always_comb {\n"
        "        unsafe (cdc) {\n"
        "            o = r;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    (sv,) = svread.parse_sv(emit_one(module_of(src), EmitConfig()))
    ff, comb = sv.processes
    assert ff.stmts[0][3] == [("block", [("assign", ("r",), "<=", ("i",))])]
    assert comb.stmts == [("assign", ("o",), "=", ("r",))]
    assert roundtrip(src) == src
    assert_stable(src)


def test_nested_unary_operators_are_not_fused():
    # `--i` would be SystemVerilog's decrement operator.
    src = (
        "module U (i: input logic<4>, o: output logic<4>, p: output logic<4>, q: output logic<4>) {\n"
        "    assign o = - -i;\n"
        "    assign p = ~ -i;\n"
        "    assign q = -(~i);\n"
        "}\n"
    )
    text = emit_one(module_of(src), EmitConfig())
    assert "assign o = - -i;" in text
    assert "assign p = ~ -i;" in text
    assert "assign q = -(~i);" in text
