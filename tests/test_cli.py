import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svread
import vl
from vl import driver
from vl.cli import main
from vl.parser import MAX_NESTING

from test_analyzer import PASS_THROUGH
from test_parser import FIG1
from test_project import make_repo
from test_resolver import FIG3_FF


def make_project(tmp_path, source=FIG1, name="counter", stem="counter"):
    root = tmp_path / name
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text(f'[project]\nname = "{name}"\nversion = "0.1.0"\n')
    (root / "src" / f"{stem}.vl").write_text(source)
    return root


def test_new_scaffolds_and_builds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["new", "blinky"]) == 0
    toml = (tmp_path / "blinky" / "vl.toml").read_text()
    assert 'name = "blinky"' in toml
    assert (tmp_path / "blinky" / "src" / "main.vl").is_file()
    assert main(["build", "--manifest", "blinky/vl.toml"]) == 0
    assert (tmp_path / "blinky" / "target" / "sv" / "main.sv").is_file()


def test_new_twice_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["new", "x"]) == 0
    assert main(["new", "x"]) == 2
    assert "already exists" in capsys.readouterr().err


def test_new_bad_name_is_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["new", "not-an-ident"]) == 2


def test_build_fig1_project(tmp_path):
    root = make_project(tmp_path)
    assert main(["build", "--manifest", str(root / "vl.toml")]) == 0
    sv = (root / "target" / "sv" / "counter.sv").read_text()
    assert "module Counter" in sv
    assert (root / "target" / "name_map.json").read_text() == "{}\n"


def test_check_reports_e0311_with_exit_1(tmp_path, capsys):
    src = "module M (\n    o_x: output logic,\n) {\n    assign o_x = 4'd16;\n}\n"
    root = make_project(tmp_path, src, name="lit", stem="main")
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 1
    err = capsys.readouterr().err
    assert "error[E0311]" in err
    assert "src/main.vl:4:18" in err
    assert "^^^^^" in err  # caret spans all five characters of 4'd16


def test_check_json_mode(tmp_path, capsys):
    src = "module M (\n    o_x: output logic,\n) {\n    assign o_x = 4'd16;\n}\n"
    root = make_project(tmp_path, src, name="lit", stem="main")
    assert main(["check", "--format", "json", "--manifest", str(root / "vl.toml")]) == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    d = data[0]
    assert d["code"] == "E0311" and d["severity"] == "error"
    assert d["file"] == "src/main.vl" and (d["line"], d["column"]) == (4, 18)


def test_check_json_empty_array_on_clean(tmp_path, capsys):
    root = make_project(tmp_path)
    assert main(["check", "--format", "json", "--manifest", str(root / "vl.toml")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_warning_only_exits_0(tmp_path, capsys):
    root = make_project(tmp_path, "module M () {\n    var x: logic;\n}\n", name="warn", stem="main")
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 0
    assert "warning[W0304]" in capsys.readouterr().err


def test_fmt_rewrites_then_check_passes(tmp_path):
    messy = "module   M(a:input logic,b:output logic){assign b=a;}"
    root = make_project(tmp_path, messy, name="fmt", stem="main")
    assert main(["fmt", "--manifest", str(root / "vl.toml")]) == 0
    text = (root / "src" / "main.vl").read_text()
    assert text.startswith("module M (\n")
    assert main(["fmt", "--check", "--manifest", str(root / "vl.toml")]) == 0


def test_fmt_check_dry_run_writes_nothing(tmp_path, capsys):
    messy = "module   M(){}"
    root = make_project(tmp_path, messy, name="fmt2", stem="main")
    assert main(["fmt", "--check", "--manifest", str(root / "vl.toml")]) == 1
    assert (root / "src" / "main.vl").read_text() == messy
    assert "main.vl" in capsys.readouterr().out


def test_exit_code_contract_on_diag_corpus(tmp_path, capsys):
    import pathlib

    fixtures = sorted((pathlib.Path(__file__).parent / "fixtures" / "diag").glob("*.vl"))
    assert fixtures
    for fx in fixtures:
        root = make_project(tmp_path, fx.read_text(), name=f"p_{fx.stem}", stem="main")
        rc = main(["check", "--format", "json", "--manifest", str(root / "vl.toml")])
        data = json.loads(capsys.readouterr().out)
        severities = {d["severity"] for d in data}
        expected = 1 if "error" in severities else 0
        assert rc == expected, fx.name


def test_missing_manifest_is_exit_2(tmp_path, capsys):
    assert main(["check", "--manifest", str(tmp_path / "nope.toml")]) == 2
    assert "manifest not found" in capsys.readouterr().err


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_update_writes_lockfile(tmp_path):
    root = make_project(tmp_path)
    assert main(["update", "--manifest", str(root / "vl.toml")]) == 0
    assert (root / "vl.lock").read_text() == ""


def test_doc_command(tmp_path):
    fig6 = (
        "/// Sample docs.\n"
        "pub module Sample (\n"
        "    i_clk: input clock, /// Clock\n"
        ") {\n"
        "}\n"
    )
    root = make_project(tmp_path, fig6, name="docs", stem="sample")
    assert main(["doc", "--manifest", str(root / "vl.toml")]) == 0
    md = (root / "target" / "doc" / "Sample.md").read_text()
    assert "# Sample" in md and "| i_clk | input | logic | Clock |" in md
    assert (root / "target" / "doc" / "index.html").is_file()


def test_build_with_errors_emits_nothing(tmp_path):
    root = make_project(tmp_path, "module M (o: output logic) {}", name="bad", stem="main")
    assert main(["build", "--manifest", str(root / "vl.toml")]) == 1
    assert not (root / "target").exists()


def test_related_spans_render_in_order(tmp_path, capsys):
    src = "module Counter () {}\nmodule Counter () {}\n"
    root = make_project(tmp_path, src, name="dup", stem="main")
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 1
    err = capsys.readouterr().err
    assert err.index("error[E0201]") < err.index("first declared here")
    # Two source excerpts: the duplicate and the original.
    assert err.count("src/main.vl:") == 2


def test_generic_instances_build_with_the_templates_clock_binding(tmp_path):
    root = make_project(tmp_path, FIG3_FF, name="queues", stem="queues")
    assert main(["build", "--manifest", str(root / "vl.toml")]) == 0
    modules = {m.name: m for m in svread.parse_sv((root / "target" / "sv" / "queues.sv").read_text())}
    for name in ("SramQueue__SramVendorA", "SramQueue__SramVendorB"):
        ff = modules[name].processes[0]
        assert ff.sensitivity == [("posedge", "i_clk"), ("negedge", "i_rst")]


def test_1000_term_chain_checks_builds_and_formats(tmp_path):
    chain = " + ".join(["1"] * 1000)
    root = make_project(tmp_path, f"module Chain (o: output u32) {{\n    assign o = {chain};\n}}\n", "chain", "chain")
    manifest = str(root / "vl.toml")
    assert main(["check", "--manifest", manifest]) == 0
    assert main(["build", "--manifest", manifest]) == 0
    (chain_sv,) = svread.parse_sv((root / "target" / "sv" / "chain.sv").read_text())
    assert chain_sv.name == "Chain"
    assert chain_sv.assigns == [(("o",), tuple(chain.split()))]
    assert main(["fmt", "--manifest", manifest]) == 0
    assert main(["fmt", "--check", "--manifest", manifest]) == 0
    # A 3,000-arm `else if` chain: the parser reads the arms in a loop.
    arms = "".join(f" else if i == {k} {{\n            o = {k};\n        }}" for k in range(1, 3000))
    src = (
        "module Arms (i: input u32, o: output u32) {\n    always_comb {\n"
        f"        if i == 0 {{\n            o = 0;\n        }}{arms} else {{\n            o = 0;\n        }}\n    }}\n}}\n"
    )
    root = make_project(tmp_path, src, "arms", "arms")
    manifest = str(root / "vl.toml")
    assert main(["check", "--manifest", manifest]) == 0
    assert main(["build", "--manifest", manifest]) == 0
    assert (root / "target" / "sv" / "arms.sv").read_text().count("else if (i == ") == 2999
    assert main(["fmt", "--manifest", manifest]) == 0
    assert main(["fmt", "--check", "--manifest", manifest]) == 0


def _nested(kind, levels):
    """A module nested `levels` deep in all, its own body being the first level."""
    if kind == "parens":
        n = levels - 1
        return f"module M (o: output u32) {{\n    assign o = {'(' * n}1{')' * n};\n}}\n"
    if kind == "unary":
        return f"module M (i: input u32, o: output u32) {{\n    assign o = {'~' * (levels - 1)}i;\n}}\n"
    n = levels - 2  # the always_comb block is the second level
    return (
        "module M (i: input logic, o: output logic) {\n    always_comb {\n        o = 0;\n"
        + "if i {\n" * n + "o = i;\n" + "}\n" * n + "    }\n}\n"
    )


@pytest.mark.parametrize("kind, probe", [("parens", 3000), ("unary", 5000), ("ifs", 1500)])
def test_nesting_passes_at_the_limit_and_is_one_e0104_past_it(tmp_path, capsys, kind, probe):
    root = make_project(tmp_path, _nested(kind, MAX_NESTING), f"{kind}_at", "m")
    manifest = str(root / "vl.toml")
    for cmd in (["check"], ["build"], ["fmt"], ["fmt", "--check"]):
        assert main([*cmd, "--manifest", manifest]) == 0, cmd
    for levels in (MAX_NESTING + 1, probe):
        root = make_project(tmp_path, _nested(kind, levels), f"{kind}_{levels}", "m")
        manifest = str(root / "vl.toml")
        capsys.readouterr()
        assert main(["check", "--format", "json", "--manifest", manifest]) == 1
        assert [d["code"] for d in json.loads(capsys.readouterr().out)].count("E0104") == 1
        assert main(["build", "--manifest", manifest]) == 1
        assert main(["fmt", "--manifest", manifest]) == 1
        assert "internal error" not in capsys.readouterr().err


def test_unicode_digit_is_e0001_not_a_hang(tmp_path):
    # `²` is a digit to str.isdigit; the lexer takes ASCII digits only.
    root = make_project(tmp_path, "module M (x: output u32) {\n    assign x = ²;\n}\n", "digit", "digit")
    env = dict(os.environ, PYTHONPATH=str(Path(vl.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "vl.cli", "check", "--format", "json", "--manifest", str(root / "vl.toml")],
        capture_output=True, text=True, env=env, timeout=60,
        # A lexer that stops advancing also grows its token list without end.
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 1, proc.stderr
    (bad,) = [d for d in json.loads(proc.stdout) if d["code"] == "E0001"]
    assert (bad["line"], bad["column"]) == (2, 16)
    assert "Traceback" not in proc.stderr


def test_invalid_utf8_is_e0003_in_check(tmp_path, capsys):
    root = make_project(tmp_path)
    (root / "src" / "bad.vl").write_bytes(b"module B () {\n}\n// \xff\xfe\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", "src/bad.vl", 3, 4)


def test_invalid_utf8_is_e0003_in_fmt_check(tmp_path, capsys):
    root = make_project(tmp_path)
    (root / "src" / "bad.vl").write_bytes(b"\xff\xfe")
    assert main(["fmt", "--check", "--manifest", str(root / "vl.toml")]) == 1
    err = capsys.readouterr().err
    assert "error[E0003]" in err and "src/bad.vl:1:1" in err
    assert (root / "src" / "bad.vl").read_bytes() == b"\xff\xfe"


def test_internal_error_is_exit_2_without_traceback(tmp_path, monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(driver, "analyze_unit", boom)
    root = make_project(tmp_path)
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 2
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


def test_malformed_lockfile_line_is_e0407(tmp_path, capsys):
    root = make_project(tmp_path)
    (root / "vl.lock").write_text("file:///dep\t0.1.0\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert diag["code"] == "E0407" and diag["line"] == 1
    assert diag["file"] == str(root / "vl.lock")
    assert "line 1" in diag["message"]


def test_generic_parameter_instance_connections_are_checked(tmp_path, capsys):
    src = (
        "module Leaf () {}\n"
        "module Wrap::<T> (i_a: input logic) {\n"
        "    inst u: T (no_such_port: i_a);\n"
        "}\n"
        "module Top (i_a: input logic) {\n"
        "    inst w: Wrap::<Leaf> (i_a: i_a);\n"
        "}\n"
    )
    root = make_project(tmp_path, src, name="wrap", stem="wrap")
    assert main(["build", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["line"], diag["column"]) == ("E0307", 3, 16)
    assert "`Leaf` has no port named `no_such_port`" in diag["message"]
    assert not list(root.rglob("*.sv"))


def test_generic_pass_through_builds(tmp_path):
    root = make_project(tmp_path, PASS_THROUGH, name="wrap", stem="wrap")
    assert main(["build", "--manifest", str(root / "vl.toml")]) == 0
    modules = {m.name: m for m in svread.parse_sv((root / "target" / "sv" / "wrap.sv").read_text())}
    (inst,) = modules["Wrap__Leaf"].insts
    assert (inst.type, inst.name) == ("Leaf", "u")
    assert inst.port_conns == {"i_a": ("w",), "o": ("o",)}


def test_undefined_generic_argument_fails_the_build(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    url = make_repo(tmp_path, "sample")
    src = (
        "module Leaf (o: output logic) {\n    assign o = 1'b0;\n}\n"
        "module Wrap::<T> (o: output logic) {\n    inst u: T (o: o);\n}\n"
        "module Top (o: output logic, p: output logic) {\n"
        "    inst w: Wrap::<Nope> (o: o);\n"
        "    inst v: Wrap::<sample::Nope> (o: p);\n"
        "}\n"
    )
    root = make_project(tmp_path, src, name="top", stem="top")
    with open(root / "vl.toml", "a") as f:
        f.write(f'\n[dependencies]\n"{url}" = "0.1.0"\n')
    assert main(["build", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    diags = json.loads(capsys.readouterr().out)
    assert [(d["code"], d["line"], d["message"]) for d in diags] == [
        ("E0202", 8, "undefined identifier `Nope`"),
        ("E0202", 9, "dependency `sample` has no public item `Nope`"),
    ]
    assert not list(root.rglob("*.sv"))


def test_duplicate_template_is_only_e0201_whichever_file_is_read_first(tmp_path, capsys):
    # `src/a/b.vl` is read first, but `src/a-b.vl` comes first in file-id order
    root = make_project(tmp_path, "module Leaf () {}\nmodule Top () {\n    inst w: Wrap::<Leaf>;\n}\n", name="dup", stem="top")
    (root / "src" / "a-b.vl").write_text("module Wrap::<T> () {\n    inst u: T;\n}\n")
    (root / "src" / "a").mkdir()
    (root / "src" / "a" / "b.vl").write_text("module Wrap::<T, U> () {\n    inst u: T;\n}\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    diags = json.loads(capsys.readouterr().out)
    assert [(d["code"], d["file"], d["line"]) for d in diags] == [("E0201", "src/a/b.vl", 1)]


_BAD_ARGS = ["Nope", "pkg", "pkg::C", "L0::x"]


@st.composite
def generic_project(draw):
    """Two leaves, up to three templates and a top module, whose insts take
    generic arguments of every kind (leaves, templates, the template's own
    parameters, undefined names, a package and a constant) in any count,
    though most often the target's."""
    templates = {f"G{i}": draw(st.integers(1, 2)) for i in range(draw(st.integers(1, 3)))}
    modules = ["L0", "L1", *templates]

    def inst(k, params):
        target = draw(st.sampled_from([*templates] * 2 + modules + params))
        arity = templates.get(target, 0)
        count = draw(st.sampled_from([arity] * 4 + [0, 1, 2]))
        args = [draw(st.sampled_from(["L0", "L1"] * 4 + modules + params * 4 + _BAD_ARGS)) for _ in range(count)]
        return f"    inst u{k}: {target}" + (f"::<{', '.join(args)}>" if args else "") + ";"

    lines = ["package pkg { const C: u32 = 1; }", "module L0 () {}", "module L1 () {}"]
    for name, arity in templates.items():
        params = [f"T{j}" for j in range(arity)]
        lines += [f"module {name}::<{', '.join(params)}> () {{", *(inst(k, params) for k in range(draw(st.integers(0, 2)))), "}"]
    lines += ["module Top () {", *(inst(k, []) for k in range(draw(st.integers(1, 3)))), "}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(generic_project())
def test_every_emitted_instance_names_an_emitted_module(src):
    with tempfile.TemporaryDirectory() as tmp:
        root = make_project(Path(tmp), src, name="gen", stem="gen")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["build", "--manifest", str(root / "vl.toml")])
        assert rc in (0, 1) and "internal error:" not in err.getvalue()
        if rc == 0:
            modules = [m for m in svread.parse_sv((root / "target" / "sv" / "gen.sv").read_text()) if isinstance(m, svread.SvModule)]
            names = {m.name for m in modules}
            assert {i.type for m in modules for i in m.insts} <= names


def test_invalid_utf8_in_manifest_is_e0003(tmp_path, capsys):
    root = make_project(tmp_path)
    (root / "vl.toml").write_bytes(b'[project]\nname = "counter"\nversion = "0.1.0"\n# \xff\n')
    manifest = str(root / "vl.toml")
    assert main(["check", "--manifest", manifest, "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", manifest, 4, 3)
    assert main(["build", "--manifest", manifest]) == 1
    assert "internal error" not in capsys.readouterr().err
    assert not (root / "target").exists()


def test_invalid_utf8_in_lockfile_is_e0003_and_the_lockfile_is_ignored(tmp_path, capsys):
    root = make_project(tmp_path)
    (root / "vl.lock").write_bytes(b"\xff\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", str(root / "vl.lock"), 1, 1)
