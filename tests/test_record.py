"""The record contract: what vl's records must keep of the standard dataclass
behaviour they replace."""

import importlib
import pkgutil
from pathlib import Path

import pytest
from helpers import fields, structure
from test_parser import FIG1, parse_ok

import vl
from vl import ast
from vl.analyzer import FfBinding
from vl.diagnostics import Diagnostic, Related
from vl.emitter import EmitConfig
from vl.lexer import LexResult
from vl.project import LockEntry
from vl.record import replace
from vl.resolver import Scope, Symbol, SymbolKind
from vl.tokens import Comment, DocComment, Span


def test_span_compares_and_hashes_by_value():
    a, b = Span("a.vl", 3, 5, 1, 4), Span("a.vl", 3, 5, 1, 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != Span("a.vl", 3, 6, 1, 4) and a != ("a.vl", 3, 5, 1, 4)
    # The resolver reports each template-body finding once by this key.
    assert len({("E0204", a, "m"), ("E0204", b, "m")}) == 1


def test_default_factories_give_each_instance_a_fresh_list():
    span = Span("a.vl", 0, 1, 1, 1)
    d1, d2 = Diagnostic("E0001", "m", span), Diagnostic("E0001", "m", span)
    assert d1.related == [] and d1.related is not d2.related
    assert ast.SourceFile("a.vl", "", []).comments is not ast.SourceFile("a.vl", "", []).comments
    assert ast.TypeSpec("logic").packed_dims is not ast.TypeSpec("logic").packed_dims


def test_compare_false_fields_are_left_out_of_eq_and_repr():
    span = Span("a.vl", 0, 1, 1, 1)
    a = Symbol("x", SymbolKind.VAR, span, "local", scope=Scope())
    b = Symbol("x", SymbolKind.VAR, span, "local", members=Scope())
    assert a == b and a.scope is not b.scope
    assert "scope" not in repr(a) and "members" not in repr(a)
    assert a != Symbol("y", SymbolKind.VAR, span, "local")


def test_fields_follow_declaration_order_and_structure_is_unchanged():
    assert fields(Span) == ("file_id", "byte_start", "byte_end", "line", "column")
    assert fields(ast.PortDecl) == ("name", "name_span", "direction", "domain", "ty", "span", "doc")
    assert fields(Span("a.vl", 0, 1, 1, 1)) == fields(Span) and fields(object()) == ()
    # Taken with the standard dataclass decorator, before records replaced it.
    fig1 = (
        "SourceFile",
        "t.vl",
        (
            (
                "ModuleDecl",
                "Counter",
                (),
                (("ParamDecl", "WIDTH", ("TypeSpec", "u32", (), ()), ("DecLiteral", "1"), None),),
                (
                    ("PortDecl", "i_clk", "input", None, ("TypeSpec", "clock", (), ()), None),
                    ("PortDecl", "i_rst", "input", None, ("TypeSpec", "reset", (), ()), None),
                    ("PortDecl", "o_cnt", "output", None, ("TypeSpec", "logic", (("PathExpr", ("WIDTH",)),), ()), None),
                ),
                (
                    ("VarDecl", "r_cnt", None, ("TypeSpec", "logic", (("PathExpr", ("WIDTH",)),), ())),
                    (
                        "AlwaysFf",
                        None,
                        None,
                        (
                            "Block",
                            (
                                (
                                    "IfStmt",
                                    ((None, ("Block", (("AssignStmt", ("PathExpr", ("r_cnt",)), "=", ("DecLiteral", "0")),))),),
                                    ("Block", (("AssignStmt", ("PathExpr", ("r_cnt",)), "+=", ("DecLiteral", "1")),)),
                                ),
                            ),
                        ),
                    ),
                    ("AlwaysComb", ("Block", (("AssignStmt", ("PathExpr", ("o_cnt",)), "=", ("PathExpr", ("r_cnt",))),))),
                ),
                False,
                False,
                ("doc", "Counter", True),
                None,
                None,
                None,
            ),
        ),
    )
    assert structure(parse_ok(FIG1)) == fig1


def test_replace_shares_every_unchanged_field():
    m = parse_ok(FIG1).items[0]
    copy = replace(m, name="Counter__X", body=[])
    assert copy is not m and type(copy) is ast.ModuleDecl
    assert (copy.name, copy.body, m.name) == ("Counter__X", [], "Counter")
    for name in fields(m):
        if name not in ("name", "body"):
            assert getattr(copy, name) is getattr(m, name), name
    with pytest.raises(TypeError):
        replace(m, nope=1)


@pytest.mark.parametrize(
    "rec",
    [
        FfBinding("clk", "clock", "rst", "reset", True),
        EmitConfig("negedge", "sync_high"),
        LockEntry("file:///dep", "0.1.0", "abc123", "dep"),
    ],
)
def test_frozen_records_are_read_only_and_hash_by_value(rec):
    name = fields(rec)[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, "x")
    with pytest.raises(AttributeError):
        delattr(rec, name)
    same = type(rec)(*(getattr(rec, n) for n in fields(rec)))
    assert same == rec and hash(same) == hash(rec) and len({same, rec}) == 1


def test_mutable_records_are_unhashable_unless_asked():
    span = Span("a.vl", 0, 1, 1, 1)
    with pytest.raises(TypeError):
        hash(ast.Block([], span))
    with pytest.raises(TypeError):
        hash(Diagnostic("E0001", "m", span))


def test_slots_records_have_no_instance_dict():
    modules = [importlib.import_module(f"vl.{info.name}") for info in pkgutil.iter_modules(vl.__path__)]
    classes = [c for m in modules for c in vars(m).values() if hasattr(c, "__record_fields__") and c.__module__ == m.__name__]
    # Every `@record` in the package's source is found.
    assert len(classes) == sum(Path(m.__file__).read_text(encoding="utf-8").count("\n@record") for m in modules)
    for cls in classes:
        assert cls.__dictoffset__ == 0, cls.__qualname__
    span = Span("a.vl", 0, 1, 1, 1)
    d = Diagnostic("E0001", "m", span)
    for rec in (span, DocComment("d", span, True), Comment("// c", span, True), d, Related("r", span), LexResult([], [], [])):
        assert not hasattr(rec, "__dict__"), type(rec).__name__
    with pytest.raises(AttributeError):
        d.severity_level = 1


def test_repr_names_the_class_and_its_fields():
    assert repr(Span("a.vl", 0, 1, 2, 3)) == "Span(file_id='a.vl', byte_start=0, byte_end=1, line=2, column=3)"
    assert repr(EmitConfig()) == "EmitConfig(clock_type='posedge', reset_type='async_low')"
    assert repr(ast.PathExpr(["A", "B"], None)) == "PathExpr(segments=['A', 'B'], span=None)"
