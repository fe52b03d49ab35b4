import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svread
import vl
from vl import cache, driver, parser
from vl.cli import main
from vl.diagnostics import read_sources
from vl.parser import MAX_NESTING

from helpers import make_project
from test_analyzer import PASS_THROUGH
from test_parser import FIG1
from test_project import make_cycle, make_repo
from test_resolver import FIG3_FF


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


def test_new_bad_name_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # A keyword cannot start a path; a control character in the name is shown
    # as U+FFFD, so the message stays one printable line.
    for name in ("not-an-ident", "module", "logic", "x\n", "a\x1b[31mb", "x\u2028y\x00"):
        assert main(["new", name]) == 2
        err = capsys.readouterr().err
        assert err.endswith("is not a valid project name\n") and err[:-1].isprintable()
    assert list(tmp_path.iterdir()) == []


def test_new_name_too_long_for_the_file_system_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["new", "a" * 300]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_build_fig1_project(tmp_path):
    root = make_project(tmp_path, FIG1, "counter", "counter")
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


@pytest.mark.parametrize("process", ["always_ff", "always_comb"])
def test_return_outside_a_function_is_e0102_and_builds_nothing(tmp_path, capsys, process):
    # IEEE 1800-2017 §12.8 allows `return` only in a task or function.
    src = f"module M (c: input clock, r: output logic) {{\n    {process} {{ return 1'b0; r = 1'b1; }}\n}}\n"
    root = make_project(tmp_path, src, "ret", "main")
    assert main(["build", "--format", "json", "--manifest", str(root / "vl.toml")]) == 1
    diags = json.loads(capsys.readouterr().out)
    column = len(f"    {process} {{ ") + 1
    assert [(d["code"], d["line"], d["column"], d["message"]) for d in diags] == [
        ("E0102", 2, column, "`return` is only allowed inside a function")
    ]
    assert not list(root.rglob("*.sv"))


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


def test_every_pass_takes_files_in_file_id_order(tmp_path, capsys):
    # `read_sources` walks paths, so `src/a/b.vl` comes before `src/a.vl`; the
    # passes take files sorted by file id, so `src/a.vl` declares `A` first.
    root = make_project(tmp_path, "pub module A () {}\n", "order", "a")
    (root / "src" / "a").mkdir()
    (root / "src" / "a" / "b.vl").write_text("pub module A () {}\n")
    assert [file_id for _, file_id, *_ in read_sources(root)] == ["src/a/b.vl", "src/a.vl"]
    assert main(["check", "--format", "json", "--manifest", str(root / "vl.toml")]) == 1
    (d,) = json.loads(capsys.readouterr().out)
    assert (d["code"], d["file"], [r["file"] for r in d["related"]]) == ("E0201", "src/a/b.vl", ["src/a.vl"])


def test_check_json_empty_array_on_clean(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
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


def fmt_mix(tmp_path):
    """A project of one canonical file, one drifted, one that does not parse
    (E0103) and one that is not UTF-8 (E0003)."""
    root = make_project(tmp_path, FIG1, name="mix", stem="canonical")
    (root / "src" / "drift.vl").write_text("module   D(){}")
    (root / "src" / "broken.vl").write_text("module B (\n")
    (root / "src" / "bad.vl").write_bytes(b"module X () {\n}\n// \xff\n")
    return root


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", ["human", "json"])
def test_fmt_markers_change_no_output(tmp_path, monkeypatch, capsys, mode):
    root = fmt_mix(tmp_path)
    (tmp_path / "file").write_text("a file, not a directory")
    results = []
    for cache in ("cache", "cache", "file"):  # cold, warm, and a cache root that cannot hold markers
        monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / cache))
        rc = main(["fmt", "--check", "--manifest", str(root / "vl.toml"), "--format", mode])
        results.append((rc, *capsys.readouterr()))
    assert results == [results[0]] * 3
    rc, out, err = results[0]
    assert rc == 1 and out.endswith(f"{root / 'src' / 'drift.vl'}\n")
    assert "E0003" in out + err and "E0103" in out + err and "internal error" not in err
    (marks,) = (tmp_path / "cache" / "fmt").iterdir()
    assert {p.name for p in marks.iterdir()} == {sha256(FIG1), sha256("module   D(){}") + ".drift"}


def test_fmt_parses_only_texts_not_marked_canonical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    root = fmt_mix(tmp_path)
    src = root / "src"
    parsed = []
    real_parse = parser.parse_source
    monkeypatch.setattr(parser, "parse_source", lambda text, file_id: parsed.append(file_id) or real_parse(text, file_id))

    def run(*args):
        """(exit code, files parsed, stdout) of one `vl fmt`."""
        parsed.clear()
        rc = main(["fmt", *args, "--manifest", str(root / "vl.toml")])
        return rc, sorted(parsed), capsys.readouterr().out

    every = ["src/broken.vl", "src/canonical.vl", "src/drift.vl"]
    assert run("--check")[:2] == (1, every)
    # Both verdicts are kept: only the text with diagnostics is parsed again.
    rc, files, out = run("--check")
    assert (rc, files) == (1, ["src/broken.vl"]) and out.endswith(f"{src / 'drift.vl'}\n")
    # Another vl (here a changed fingerprint) trusts no entry of this one.
    real_dir = cache.entry_dir
    with monkeypatch.context() as mp:
        mp.setattr(cache, "entry_dir", lambda kind: real_dir(kind).with_name("0" * 64))
        assert run("--check")[:2] == (1, every)
    # A marked file edited into drift is parsed and reported again.
    (src / "canonical.vl").write_text("  " + FIG1)
    rc, files, out = run("--check")
    assert (rc, files) == (1, ["src/broken.vl", "src/canonical.vl"]) and f"{src / 'canonical.vl'}\n" in out
    # `vl fmt` parses drift-marked texts, for it needs their formatted bytes;
    # the next `fmt --check` verifies and marks the rewritten texts
    # (canonical.vl's is FIG1 again, which is marked already).
    (src / "broken.vl").unlink()
    (src / "bad.vl").unlink()
    assert run()[:2] == (0, ["src/canonical.vl", "src/drift.vl"])
    assert (src / "canonical.vl").read_text() == FIG1
    assert run("--check")[:2] == (0, ["src/drift.vl"])
    marked = {sha256((src / name).read_text()) for name in ("canonical.vl", "drift.vl")}
    drifted = {sha256(text) + ".drift" for text in ("  " + FIG1, "module   D(){}")}
    assert {p.name for p in cache.entry_dir("fmt").iterdir()} == marked | drifted
    assert run("--check")[:2] == (0, [])


@pytest.mark.parametrize("mode", ["human", "json"])
def test_fmt_check_lists_marked_and_parsed_drift_in_path_order(tmp_path, monkeypatch, capsys, mode):
    root = make_project(tmp_path, "module   B(){}", name="two", stem="b")
    parsed = []
    real_parse = parser.parse_source
    monkeypatch.setattr(parser, "parse_source", lambda text, file_id: parsed.append(file_id) or real_parse(text, file_id))

    def run(cache):
        monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / cache))
        parsed.clear()
        rc = main(["fmt", "--check", "--manifest", str(root / "vl.toml"), "--format", mode])
        return rc, *capsys.readouterr()

    run("warm")  # marks b.vl's text as drifted
    (root / "src" / "a.vl").write_text("module   A(){}")
    warm = run("warm")
    assert parsed == ["src/a.vl"]
    listing = f"{root / 'src' / 'a.vl'}\n{root / 'src' / 'b.vl'}\n"
    assert warm == run("cold") == (1, listing if mode == "human" else "[]\n" + listing, "")


def test_fmt_rewrites_a_drift_marked_file_as_a_cold_run_does(tmp_path, monkeypatch):
    messy = "module   M(a:input logic,b:output logic){assign b=a;}"
    written = []
    for cache, checks in (("cold", 0), ("warm", 2)):
        monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / cache))
        root = make_project(tmp_path, messy, name=cache, stem="main")
        for _ in range(checks):  # the second finds the drift entry
            assert main(["fmt", "--check", "--manifest", str(root / "vl.toml")]) == 1
        assert main(["fmt", "--manifest", str(root / "vl.toml")]) == 0
        written.append((root / "src" / "main.vl").read_text())
    assert written[0] == written[1] != messy


def test_no_marker_directory_without_a_home_or_readable_sources(monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.delenv("VL_CACHE_DIR")
    monkeypatch.setattr(Path, "home", no_home)
    assert cache.entry_dir("fmt") is None
    monkeypatch.setenv("VL_CACHE_DIR", "cache")
    monkeypatch.setattr(os, "listdir", unreadable)
    assert cache.entry_dir("fmt") is None


def test_first_marker_of_a_fingerprint_prunes_stale_fingerprints(tmp_path, monkeypatch, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    runs = []
    for cache_dir in ("clean", "used"):
        monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / cache_dir))
        if cache_dir == "used":
            days = cache.STALE_DAYS
            for name, age in (("stale1", days + 1), ("stale2", 10 * days), ("fresh", days - 1)):
                (tmp_path / cache_dir / "fmt" / name).mkdir(parents=True)
                (tmp_path / cache_dir / "fmt" / name / "marker").touch()
                then = time.time() - age * 24 * 60 * 60
                os.utime(tmp_path / cache_dir / "fmt" / name, (then, then))
        runs.append((main(["fmt", "--check", "--manifest", str(root / "vl.toml")]), *capsys.readouterr()))
    assert runs == [(0, "", "")] * 2
    left = {p.name: [m.name for m in p.iterdir()] for p in (tmp_path / "used" / "fmt").iterdir()}
    assert left == {"fresh": ["marker"], cache.entry_dir("fmt").name: [sha256(FIG1)]}


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
    root = make_project(tmp_path, FIG1, "counter", "counter")
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


@pytest.mark.parametrize(
    "src",
    [
        "module M (o: output logic<8'hfff>) {\n    assign o = 0;\n}\n",
        "module M #(param W: logic<Q> = 1) (o: output logic) {\n    assign o = W;\n}\n",
        "module M (o: output logic) {\n    function f (a: logic<X>) -> logic<Y> {\n        return a;\n    }\n"
        "    assign o = f(1);\n}\n",
    ],
    ids=["port_width_literal", "param_type", "function_types"],
)
def test_a_type_that_does_not_check_is_not_built(tmp_path, src):
    root = make_project(tmp_path, src, name="bad", stem="main")
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 1
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
    # The same chain as a constant, in a param default, a width and a
    # part-select bound: constant evaluation folds it in a loop.
    consts = {
        "param": f"module P #(\n    param W: u32 = {chain},\n) (o: output u32) {{\n    assign o = W;\n}}\n",
        "width": f"module Wd (o: output logic<{chain}>) {{\n    assign o = 0;\n}}\n",
        "bound": f"module B (i: input logic<2000>, o: output logic<1000>) {{\n    assign o = i[{chain} - 1:0];\n}}\n",
    }
    for stem, src in consts.items():
        manifest = str(make_project(tmp_path, src, f"const_{stem}", stem) / "vl.toml")
        for cmd in (["check"], ["build"], ["doc"]):
            assert main([*cmd, "--manifest", manifest]) == 0, (stem, cmd)
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


# The modules behind `check`, `build` and `doc`, which `fmt` and `new` never run.
_PIPELINE_MODULES = {"vl.driver", "vl.analyzer", "vl.resolver", "vl.emitter", "vl.docgen", "vl.project"}


# The compiler behind `check`, `build`, `fmt` and `doc`, which `update` and `new` never run.
_COMPILER_MODULES = {
    "vl.driver", "vl.analyzer", "vl.resolver", "vl.parser", "vl.lexer", "vl.ast", "vl.emitter", "vl.docgen", "vl.formatter"
}


def modules_after(tmp_path, command: list[str], dependency: bool = False, warm: bool = False, source: str = FIG1, rc: int = 0) -> set[str]:
    """The modules one command loads in a fresh interpreter, run in `tmp_path`
    on a project `counter` of one file `source`, without dependencies or with
    one `file://` git dependency: those in `sys.modules` after it and not
    before `vl.cli` was imported (a site hook may load others).  The command
    must exit `rc`.  With `warm`, it runs once before, in another
    interpreter, and its second run is measured."""
    root = make_project(tmp_path, source, "counter", "counter")
    if dependency:
        url = make_repo(tmp_path, "sample")
        with (root / "vl.toml").open("a") as f:
            f.write(f'\n[dependencies]\n"{url}" = "0.1.0"\n')
    env = dict(os.environ, PYTHONPATH=str(Path(vl.__file__).parent.parent), VL_CACHE_DIR=str(tmp_path / "cache"))
    code = "import sys; pre = set(sys.modules); from vl.cli import main; rc = main(sys.argv[1:]); print(rc, *sorted(set(sys.modules) - pre))"
    for _ in range(1 + warm):
        proc = subprocess.run([sys.executable, "-c", code, *command], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    got, *modules = proc.stdout.splitlines()[-1].split()  # after any listing of `fmt --check`
    assert got == str(rc), proc.stderr
    assert "vl.cli" in modules
    return set(modules)


@pytest.mark.parametrize("command", [["fmt", "--check", "--manifest", "counter/vl.toml"], ["new", "blinky"]])
def test_fmt_and_new_import_no_pipeline_module(tmp_path, command):
    assert not _PIPELINE_MODULES & modules_after(tmp_path, command)


# A second `fmt --check` on unchanged sources, canonical or drifted, finds an
# entry for each text, so it loads none of the modules that format one.
def test_warm_fmt_check_loads_no_formatting_module(tmp_path):
    for name, source, rc in (("canonical", FIG1, 0), ("drifted", "module   D(){}", 1)):
        (tmp_path / name).mkdir()
        modules = modules_after(tmp_path / name, ["fmt", "--check", "--manifest", "counter/vl.toml"], warm=True, source=source, rc=rc)
        assert not (_PIPELINE_MODULES | {"vl.lexer", "vl.parser", "vl.ast", "vl.formatter"}) & modules


# `update` runs only the package layer, and `new` only the identifier check:
# neither loads the compiler, nor `json` outside `--format json`.  Git
# (`subprocess`) loads only to fetch.
@pytest.mark.parametrize(
    "command, dependency",
    [(["update", "--manifest", "counter/vl.toml"], False), (["update", "--manifest", "counter/vl.toml"], True), (["new", "blinky"], False)],
)
def test_update_and_new_load_no_compiler_module(tmp_path, command, dependency):
    modules = modules_after(tmp_path, command, dependency)
    assert not (_COMPILER_MODULES | {"json"}) & modules
    assert {"subprocess"} & modules == ({"subprocess"} if dependency else set())
    if command[0] == "update":
        assert "vl.project" in modules
        assert len((tmp_path / "counter" / "vl.lock").read_text().splitlines()) == int(dependency)


# `json` loads only for `--format json` and for `build`'s name map: a cold
# `check` in human mode loads none.
def test_cold_human_check_loads_no_json(tmp_path):
    assert "json" not in modules_after(tmp_path, ["check", "--manifest", "counter/vl.toml"])


# Records replace `dataclasses` (and the `inspect` it loads) in every command;
# git (`subprocess`) loads only for a project with dependencies.
@pytest.mark.parametrize("command", [["check"], ["build"], ["doc"], ["fmt", "--check"]])
def test_commands_load_no_dataclasses_and_no_git_without_dependencies(tmp_path, command):
    modules = modules_after(tmp_path, [*command, "--manifest", "counter/vl.toml"])
    assert not {"dataclasses", "inspect", "subprocess", "hashlib"} & modules


# The dependency cache's URL hash is CPython's built-in sha256, as `vl fmt`'s
# markers' is: no command loads `hashlib` and the OpenSSL behind it.
@pytest.mark.parametrize("command", [["check"], ["build"], ["doc"], ["update"]])
def test_commands_on_a_dependency_load_no_hashlib(tmp_path, command):
    modules = modules_after(tmp_path, [*command, "--manifest", "counter/vl.toml"], dependency=True)
    assert "subprocess" in modules and not {"hashlib", "_hashlib"} & modules


def test_doc_above_a_dependency_cycle_writes_no_page(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    a_url = make_cycle(tmp_path)
    root = make_project(tmp_path, FIG1, "counter", "counter")
    with (root / "vl.toml").open("a") as f:
        f.write(f'\n[dependencies]\n"{a_url}" = "0.1.0"\n')
    assert main(["doc", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    assert [d["code"] for d in json.loads(capsys.readouterr().out)] == ["E0405"]
    assert not (root / "target").exists()


def test_invalid_utf8_is_e0003_in_check(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "src" / "bad.vl").write_bytes(b"module B () {\n}\n// \xff\xfe\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", "src/bad.vl", 3, 4)


def test_invalid_utf8_is_e0003_in_fmt_check(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "src" / "bad.vl").write_bytes(b"\xff\xfe")
    assert main(["fmt", "--check", "--manifest", str(root / "vl.toml")]) == 1
    err = capsys.readouterr().err
    assert "error[E0003]" in err and "src/bad.vl:1:1" in err
    assert (root / "src" / "bad.vl").read_bytes() == b"\xff\xfe"


def test_internal_error_is_exit_2_without_traceback(tmp_path, monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(driver, "analyze_unit", boom)
    root = make_project(tmp_path, FIG1, "counter", "counter")
    assert main(["check", "--manifest", str(root / "vl.toml")]) == 2
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


def test_malformed_lockfile_line_is_e0407(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
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
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "vl.toml").write_bytes(b'[project]\nname = "counter"\nversion = "0.1.0"\n# \xff\n')
    manifest = str(root / "vl.toml")
    assert main(["check", "--manifest", manifest, "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", manifest, 4, 3)
    assert main(["build", "--manifest", manifest]) == 1
    assert "internal error" not in capsys.readouterr().err
    assert not (root / "target").exists()


def test_invalid_utf8_in_lockfile_is_e0003_and_the_lockfile_is_ignored(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "vl.lock").write_bytes(b"\xff\n")
    assert main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"]) == 1
    (diag,) = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["file"], diag["line"], diag["column"]) == ("E0003", str(root / "vl.lock"), 1, 1)


def one_eio01(capsys, rc: int, path) -> None:
    """The output-failure contract: exit 2 and one coded EIO01 at `path` in
    one JSON array, never an uncoded OS error."""
    out, err = capsys.readouterr()
    assert rc == 2
    (diag,) = json.loads(out)
    assert (diag["code"], diag["file"]) == ("EIO01", str(path))
    assert "error: [Errno" not in err


@pytest.mark.parametrize("command", ["build", "doc"])
def test_out_that_is_a_file_is_one_eio01(tmp_path, capsys, command):
    root = make_project(tmp_path, FIG1.replace("module Counter", "pub module Counter"), "counter", "counter")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main([command, "--manifest", str(root / "vl.toml"), "--out", str(blocker), "--format", "json"])
    first = blocker / ("sv/counter.sv" if command == "build" else "doc/Counter.md")
    one_eio01(capsys, rc, first)
    assert blocker.read_text() == "a file, not a directory"


def test_name_map_that_is_a_directory_is_one_eio01(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "target" / "name_map.json").mkdir(parents=True)
    rc = main(["build", "--manifest", str(root / "vl.toml"), "--format", "json"])
    one_eio01(capsys, rc, root / "target" / "name_map.json")
    assert (root / "target" / "sv" / "counter.sv").is_file()


def test_lockfile_that_is_a_directory_is_one_eio01(tmp_path, capsys):
    root = make_project(tmp_path, FIG1, "counter", "counter")
    (root / "vl.lock").mkdir()
    rc = main(["update", "--manifest", str(root / "vl.toml"), "--format", "json"])
    one_eio01(capsys, rc, root / "vl.lock")


def test_failed_fmt_rewrite_is_one_eio01(tmp_path, monkeypatch, capsys):
    root = make_project(tmp_path, "module   M(){}", name="fmt3", stem="main")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", denied)
    rc = main(["fmt", "--manifest", str(root / "vl.toml"), "--format", "json"])
    one_eio01(capsys, rc, root / "src" / "main.vl")
    assert (root / "src" / "main.vl").read_bytes() == b"module   M(){}"


def test_a_directory_named_vl_is_not_a_source_file(tmp_path, capsys):
    root = make_project(tmp_path, "pub module M () {\n}\n", name="dirs", stem="main")
    (root / "src" / "x.vl").mkdir()
    manifest = str(root / "vl.toml")
    for command in (["check"], ["build"], ["doc"]):
        assert main([*command, "--manifest", manifest, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
    assert main(["fmt", "--check", "--manifest", manifest]) == 0
    assert capsys.readouterr() == ("", "")
    assert sorted(p.name for p in (root / "target" / "sv").iterdir()) == ["main.sv"]


def test_dependency_cache_that_is_a_file_is_eio01_at_the_request(tmp_path, monkeypatch, capsys):
    url = make_repo(tmp_path, "sample")
    cache = tmp_path / "cache"
    cache.write_text("a file, not a directory")
    monkeypatch.setenv("VL_CACHE_DIR", str(cache))
    root = make_project(tmp_path, FIG1, "counter", "counter")
    with open(root / "vl.toml", "a") as f:
        f.write(f'\n[dependencies]\n"{url}" = "0.1.0"\n')
    rc = main(["check", "--manifest", str(root / "vl.toml"), "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 2 and "error: [Errno" not in err
    (diag,) = json.loads(out)
    assert (diag["code"], diag["file"], diag["line"]) == ("EIO01", str(root / "vl.toml"), 6)
    assert "dependency cache" in diag["message"]
