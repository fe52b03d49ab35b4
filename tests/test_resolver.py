from types import SimpleNamespace

from vl import ast
from vl.analyzer import analyze_unit
from vl.parser import parse_source
from vl.resolver import (
    SymbolKind,
    build_symbols,
    mangle,
    monomorphize,
    resolve,
)

from helpers import check_strings, structure
from test_parser import FIG1


def parsed(src, file_id="main.vl"):
    sf, diags = parse_source(src, file_id)
    assert diags == [], diags
    return sf


def symbols(src, deps=None, unit="local"):
    sf = parsed(src)
    table, diags = build_symbols([sf], deps or {}, unit)
    return sf, table, diags


def unit_view(src, name="local", deps=None, file_id="main.vl"):
    """A checked unit as mono reads it; the analyzer's findings are not asserted."""
    sf = parsed(src, file_id)
    table, diags = build_symbols([sf], deps or {}, name)
    assert diags == []
    return SimpleNamespace(name=name, files=[sf], table=table, resolved=analyze_unit([sf], table)[1])


def test_fig1_entries():
    sf, table, diags = symbols(FIG1)
    assert diags == []
    assert set(table.project.entries) == {"Counter"}
    m = sf.items[0]
    scope = table.module_scopes[id(m)]
    assert set(scope.entries) == {"WIDTH", "i_clk", "i_rst", "o_cnt", "r_cnt"}


def test_empty_project():
    table, diags = build_symbols([], {})
    assert diags == [] and table.project.entries == {}


def test_duplicate_modules_is_e0201_with_both_spans():
    _, _, diags = symbols("module Counter () {}\nmodule Counter () {}\n")
    assert [d.code for d in diags] == ["E0201"]
    d = diags[0]
    assert d.span.line == 2
    assert d.related[0].span.line == 1


def test_duplicate_inside_module_scope():
    _, _, diags = symbols("module M (x: input logic) { var x: logic; }")
    assert [d.code for d in diags] == ["E0201"]


def test_duplicate_generic_param_is_e0201_at_each_name():
    _, _, diags = symbols("module M::<T, U, T> (T: input logic) {}")
    spans = [(d.span.column, [r.span.column for r in d.related]) for d in diags]
    assert [d.code for d in diags] == ["E0201", "E0201"]
    assert spans == [(18, [12]), (22, [12])]


def test_shadowing_across_scopes_is_allowed():
    # A module-scope name may shadow an item name.
    _, _, diags = symbols("module M () { var Other: logic; }\nmodule Other () {}\n")
    assert diags == []


def test_order_independence_of_resolution():
    a = parsed("module A () { inst u: B; }", "a.vl")
    b = parsed("module B () {}", "b.vl")
    t1, d1 = build_symbols([a, b], {})
    t2, d2 = build_symbols([b, a], {})
    assert d1 == [] and d2 == []
    for table in (t1, t2):
        m = next(i for i in (a.items + b.items) if i.name == "A")
        scope = table.module_scopes[id(m)]
        diags = []
        sym = resolve(ast.PathExpr(["B"], m.name_span), scope, diags)
        assert diags == [] and sym.kind == SymbolKind.MODULE


def test_resolve_local_var():
    sf, table, _ = symbols(FIG1)
    m = sf.items[0]
    scope = table.module_scopes[id(m)]
    diags = []
    sym = resolve(ast.PathExpr(["r_cnt"], m.name_span), scope, diags)
    assert diags == [] and sym.kind == SymbolKind.VAR


def test_resolve_undefined_is_e0202():
    sf, table, _ = symbols("module M () {}")
    m = sf.items[0]
    diags = []
    sym = resolve(ast.PathExpr(["nonexistent"], m.name_span), table.module_scopes[id(m)], diags)
    assert sym is None and [d.code for d in diags] == ["E0202"]


def test_resolve_dependency_path():
    dep = unit_view("pub module Sample () {}\nmodule Hidden () {}\n", name="sample")
    sf, table, diags = symbols("module M () { inst u: sample::Sample; }", deps={"sample": dep.table})
    assert diags == []
    m = sf.items[0]
    scope = table.module_scopes[id(m)]
    out = []
    sym = resolve(ast.PathExpr(["sample", "Sample"], m.name_span), scope, out)
    assert out == [] and sym.unit == "sample"
    assert sym.kind == SymbolKind.MODULE
    # Non-pub items are not visible through the namespace.
    out = []
    assert resolve(ast.PathExpr(["sample", "Hidden"], m.name_span), scope, out) is None
    assert [d.code for d in out] == ["E0202"]


def test_resolve_package_const():
    src = "package p { const C: u32 = 1; }\nmodule M () {}\n"
    sf, table, _ = symbols(src)
    m = sf.items[1]
    out = []
    sym = resolve(ast.PathExpr(["p", "C"], m.name_span), table.module_scopes[id(m)], out)
    assert out == [] and sym.kind == SymbolKind.CONST


def test_package_items_declare_like_module_items():
    src = (
        "package p {\n    const C: u32 = 1;\n    function f (a: logic, a: logic) -> logic { return a; }\n"
        "    const C: u32 = 2;\n}\n"
    )
    sf, table, diags = symbols(src)
    pkg = sf.items[0]
    scope = table.package_scopes[id(pkg)]
    assert [(s.name, s.kind) for s in scope.entries.values()] == [("C", SymbolKind.CONST), ("f", SymbolKind.FUNCTION)]
    f = pkg.items[1]
    fscope = table.function_scopes[id(f)]
    assert fscope.parent is scope and [(s.name, s.kind) for s in fscope.entries.values()] == [("a", SymbolKind.VAR)]
    # the duplicate arg, then the duplicate const: source order
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("E0201", 3, "duplicate identifier `a`"),
        ("E0201", 4, "duplicate identifier `C`"),
    ]


def test_member_of_non_container_is_e0203():
    sf, table, _ = symbols(FIG1)
    m = sf.items[0]
    out = []
    resolve(ast.PathExpr(["Counter", "x"], m.name_span), table.module_scopes[id(m)], out)
    assert [d.code for d in out] == ["E0203"]


# -- monomorphization ---------------------------------------------------------

FIG3 = """\
module SramVendorA () {}
module SramVendorB () {}

module SramQueue::<T> () {
    inst u_sram: T;
}

module Test () {
    inst u0_queue: SramQueue::<SramVendorA>();
    inst u1_queue: SramQueue::<SramVendorB>();
}
"""


def test_fig3_two_concrete_queues():
    res = monomorphize([unit_view(FIG3)])
    assert res.diagnostics == []
    names = [i.mangled_name for i in res.instances]
    assert names == ["SramQueue__SramVendorA", "SramQueue__SramVendorB"]
    items = res.items[("local", "main.vl")]
    emitted = [m.name for m in items]
    assert emitted == ["SramVendorA", "SramVendorB", "SramQueue__SramVendorA", "SramQueue__SramVendorB", "Test"]
    qa = next(m for m in items if m.name == "SramQueue__SramVendorA")
    assert qa.body[0].target.text == "SramVendorA"
    test = next(m for m in items if m.name == "Test")
    assert [i.target.text for i in test.body] == ["SramQueue__SramVendorA", "SramQueue__SramVendorB"]


def test_dead_template_not_emitted():
    res = monomorphize([unit_view("module Dead::<T> () { inst u: T; }\nmodule Live () {}\n")])
    assert res.diagnostics == []
    assert res.instances == []
    assert [m.name for m in res.items[("local", "main.vl")]] == ["Live"]


def test_same_pair_in_two_parents_is_one_definition():
    src = (
        "module V () {}\n"
        "module Q::<T> () { inst u: T; }\n"
        "module P1 () { inst a: Q::<V>; }\n"
        "module P2 () { inst b: Q::<V>; }\n"
    )
    res = monomorphize([unit_view(src)])
    assert res.diagnostics == []
    assert [i.mangled_name for i in res.instances] == ["Q__V"]
    names = [m.name for m in res.items[("local", "main.vl")]]
    assert names.count("Q__V") == 1


def test_nested_generic_instantiation():
    src = (
        "module V () {}\n"
        "module Inner::<T> () { inst u: T; }\n"
        "module Outer::<T> () { inst q: Inner::<T>; }\n"
        "module Top () { inst o: Outer::<V>; }\n"
    )
    res = monomorphize([unit_view(src)])
    assert res.diagnostics == []
    assert sorted(i.mangled_name for i in res.instances) == ["Inner__V", "Outer__V"]
    outer = next(m for m in res.items[("local", "main.vl")] if m.name == "Outer__V")
    assert outer.body[0].target.text == "Inner__V"


def test_generic_arity_mismatch_is_e0204():
    src = "module A () {}\nmodule G::<T, U> () {}\nmodule P () { inst u: G::<A>; }\n"
    res = check_strings([("main.vl", src)])
    assert [d.code for d in res.diagnostics] == ["E0204"]


def test_generic_arg_not_module_is_e0205():
    src = "package pkg { const C: u32 = 1; }\nmodule G::<T> () { inst u: T; }\nmodule P () { inst u: G::<pkg>; }\n"
    res = check_strings([("main.vl", src)])
    assert [d.code for d in res.diagnostics] == ["E0205"]


def test_undefined_generic_argument_is_e0202():
    src = "module Leaf () {}\nmodule Wrap::<T> () { inst u: T; }\nmodule Top () { inst w: Wrap::<Nope>; }\n"
    res = check_strings([("main.vl", src)])
    assert [(d.code, d.message) for d in res.diagnostics] == [("E0202", "undefined identifier `Nope`")]
    assert res.mono.instances == []


def test_generic_argument_findings_in_a_template_body_are_reported_once():
    # once with two instantiations of `G`, and once in `Dead`, never instantiated
    src = (
        "module A () {}\n"
        "module B () {}\n"
        "package pkg { const C: u32 = 1; }\n"
        "module H::<T> () { inst z: T; }\n"
        "module G::<T> () {\n"
        "    inst x: A::<B>;\n"
        "    inst y: H::<pkg>;\n"
        "    inst w: H::<A, B>;\n"
        "}\n"
        "module Dead::<T> () {\n"
        "    inst x: A::<B>;\n"
        "    inst y: H::<pkg>;\n"
        "    inst v: H::<A::B>;\n"
        "}\n"
        "module Top () { inst a: G::<A>; inst b: G::<B>; }\n"
    )
    res = check_strings([("main.vl", src)])
    assert [(d.code, d.span.line) for d in res.diagnostics] == [
        ("E0204", 6),
        ("E0205", 7),
        ("E0204", 8),
        ("E0204", 11),
        ("E0205", 12),
        ("E0203", 13),
    ]
    assert [i.mangled_name for i in res.mono.instances] == ["G__A", "G__B"]


def test_generic_parameter_target_arity_is_checked_after_substitution_once():
    src = (
        "module A () {}\n"
        "module B () {}\n"
        "module Wrap::<T, U> () { inst u: T::<U>; }\n"
        "module Top () { inst a: Wrap::<A, A>; inst b: Wrap::<A, B>; }\n"
    )
    res = check_strings([("main.vl", src)])
    assert [(d.code, d.span.line, d.message) for d in res.diagnostics] == [
        ("E0204", 3, "`A` is not generic but got 1 generic argument(s)")
    ]


def test_recursive_instantiation_is_e0206():
    src = "module A () {}\nmodule G::<T> () { inst u: G::<T>; }\nmodule P () { inst u: G::<A>; }\n"
    res = monomorphize([unit_view(src)])
    assert "E0206" in [d.code for d in res.diagnostics]


def test_cross_project_generic_arg_keeps_namespace():
    dep = unit_view("pub module Sample () {}", name="sample", file_id="sample.vl")
    local = unit_view(
        "module Q::<T> () { inst u: T; }\nmodule Top () { inst q: Q::<sample::Sample>; }\n",
        deps={"sample": dep.table},
    )
    res = monomorphize([dep, local])
    assert res.diagnostics == []
    assert [i.mangled_name for i in res.instances] == ["Q__sample_Sample"]
    q = next(m for m in res.items[("local", "main.vl")] if m.name.startswith("Q__"))
    assert q.body[0].target.segments[-1] == "Sample"


def test_mangled_name_collision_is_e0201():
    src = (
        "module V () {}\n"
        "module Q__V () {}\n"
        "module Q::<T> () { inst u: T; }\n"
        "module P () { inst a: Q::<V>; }\n"
    )
    res = monomorphize([unit_view(src)])
    assert "E0201" in [d.code for d in res.diagnostics]


def test_mangle_scheme():
    assert mangle("SramQueue", ("SramVendorA",)) == "SramQueue__SramVendorA"
    assert mangle("Q", ("sample::Sample", "B")) == "Q__sample_Sample__B"


FIG3_FF = """\
module SramVendorA () {}
module SramVendorB () {}

module SramQueue::<T> (i_clk: input clock, i_rst: input reset, o_full: output logic) {
    var r_full: logic;
    inst u_sram: T;
    always_ff {
        if_reset { r_full = 0; } else { r_full = ~r_full; }
    }
    unsafe (cdc) {
        inst u_spare: T;
        assign o_full = r_full;
    }
}

package cfg { const DEPTH: u32 = 4; }

module Test (i_clk: input clock, i_rst: input reset, o_full: output logic) {
    var w_a: logic;
    var w_b: logic;
    inst u0_queue: SramQueue::<SramVendorA> (i_clk: i_clk, i_rst: i_rst, o_full: w_a);
    inst u1_queue: SramQueue::<SramVendorB> (i_clk: i_clk, i_rst: i_rst, o_full: w_b);
    assign o_full = w_a | w_b;
}
"""


def test_mono_shares_unchanged_subtrees_and_mutates_nothing():
    view = unit_view(FIG3_FF)
    (sf,) = view.files
    before = structure(sf)
    res = monomorphize([view])
    assert res.diagnostics == []
    assert structure(sf) == before
    src = {item.name: item for item in sf.items}
    out = {item.name: item for item in res.items[("local", "main.vl")]}
    # A module with no generic inst, and a package, pass through as themselves.
    assert out["SramVendorA"] is src["SramVendorA"]
    assert out["cfg"] is src["cfg"]
    template_items = [it for it, _ in ast.iter_module_items(src["SramQueue"].body)]
    assert any(isinstance(it, ast.AlwaysFf) for it in template_items)
    for name, vendor in (("SramQueue__SramVendorA", "SramVendorA"), ("SramQueue__SramVendorB", "SramVendorB")):
        made = [it for it, _ in ast.iter_module_items(out[name].body)]
        assert len(made) == len(template_items)
        for a, b in zip(made, template_items):
            if isinstance(b, ast.InstDecl):
                assert a is not b and a.target.text == vendor
            else:
                assert a is b  # the template's own var, always_ff and assign
    test_items = zip(out["Test"].body, src["Test"].body)
    assert all(a is b for a, b in test_items if not isinstance(a, ast.InstDecl))
    assert out["Test"] is not src["Test"]
