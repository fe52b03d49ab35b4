"""Acceptance suite: one test per contract criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each test prints `ACCEPTANCE <n> PASS` after its assertions.
"""

import itertools
import json
import pathlib
import random
import shutil
import subprocess
import time

import pytest

import svread
import vl.project as project_mod
from vl.cli import main
from vl.driver import check_strings
from vl.emitter import EmitConfig, emit_items, emit_module
from vl.formatter import format_source
from vl.ast import structure
from vl.parser import parse_source

from test_docgen import FIG6
from test_emitter import ALL_CONFIGS, FIG2, ff_bindings
from test_parser import FIG1, parse_ok
from test_resolver import FIG3

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "diag"


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def make_project(tmp_path, source, name, stem="main"):
    root = tmp_path / name
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text(f'[project]\nname = "{name}"\nversion = "0.1.0"\n')
    (root / "src" / f"{stem}.vl").write_text(source)
    return root


# -- 1: Figure-1 round trip ------------------------------------------------------

FIG1_LEFT_SV = """\
module Counter #(parameter WIDTH = 1)(input logic i_clk, input logic i_rst_n,
                                      output logic [WIDTH-1:0] o_cnt);
logic [WIDTH-1:0] r_cnt;
always_ff @ (posedge i_clk or negedge i_rst_n) begin
    if (!i_rst_n) begin r_cnt <= 0; end else begin r_cnt <= r_cnt + 1; end
end
always_comb begin o_cnt = r_cnt; end
endmodule
"""


def test_criterion_1_fig1_round_trip():
    start = time.monotonic()
    module = parse_ok(FIG1).items[0]
    emitted = emit_module(module, EmitConfig("posedge", "async_low"), ff_bindings(module))
    (mine,) = svread.parse_sv(emitted)
    # Reference transcription, with the reset port renamed per the criterion.
    (ref,) = svread.parse_sv(FIG1_LEFT_SV.replace("i_rst_n", "i_rst"))
    assert mine.name == ref.name == "Counter"
    assert mine.params == ref.params == [("WIDTH", ("1",))]
    assert mine.ports == ref.ports
    assert mine.decls == ref.decls
    ff_mine, comb_mine = mine.processes
    ff_ref, comb_ref = ref.processes
    assert ff_mine.sensitivity == ff_ref.sensitivity == [("posedge", "i_clk"), ("negedge", "i_rst")]
    assert ff_mine.stmts == ff_ref.stmts  # if (!i_rst) / r_cnt <= 0 / r_cnt <= r_cnt + (1)
    assert ff_ref.stmts[0][1] == ("!", "i_rst")
    assert comb_mine.stmts == comb_ref.stmts == [("assign", ("o_cnt",), "=", ("r_cnt",))]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"Fig. 1 transpile matches the reference module structurally ({elapsed:.3f}s)")


# -- 2: Figure-2 matrix ----------------------------------------------------------


def test_criterion_2_fig2_matrix():
    module = parse_ok(FIG2).items[0]
    bindings = ff_bindings(module)
    upper = emit_module(module, EmitConfig("posedge", "async_low"), bindings)
    assert "always_ff @ (posedge i_clk_a or negedge i_rst_a) begin" in upper
    assert "if (!i_rst_a) begin" in upper
    assert "always_ff @ (negedge i_clk_b or posedge i_rst_b) begin" in upper
    assert "if (i_rst_b) begin" in upper

    lower = emit_module(module, EmitConfig("negedge", "sync_high"), bindings)
    assert "always_ff @ (negedge i_clk_a) begin" in lower
    assert "if (i_rst_a) begin" in lower
    for line in lower.splitlines():
        if "always_ff" in line:
            assert "i_rst_a" not in line  # sync reset stays out of the sensitivity list

    def b_process(text):
        lines = text.splitlines()
        i = next(k for k, l in enumerate(lines) if "i_clk_b" in l)
        return "\n".join(lines[i : i + 4])

    texts = [emit_module(module, cfg, bindings) for cfg in ALL_CONFIGS]
    assert len(texts) == 8
    assert len({b_process(t) for t in texts}) == 1  # `b` process byte-identical
    reference = texts[0].splitlines()
    for t in texts:
        for a, b in zip(reference, t.splitlines()):
            if a != b:
                assert "i_clk_a" in a or "i_rst_a" in a or "if (" in a
    ok(2, "Fig. 2 matrix reproduces both listings; only `a`-process lines vary across 8 configs")


# -- 3: Figure-3 generics --------------------------------------------------------


def test_criterion_3_fig3_generics():
    result = check_strings([("main.vl", FIG3)])
    assert result.ok, result.diagnostics
    items = result.mono.items[("local", "main.vl")]
    text = emit_items(items, EmitConfig(), result.units[0].resolved)
    modules = {m.name: m for m in svread.parse_sv(text)}
    assert "SramQueue__SramVendorA" in modules and "SramQueue__SramVendorB" in modules
    assert "SramQueue" not in modules  # the template itself is not emitted
    test_mod = modules["Test"]
    assert {(i.type, i.name) for i in test_mod.insts} == {
        ("SramQueue__SramVendorA", "u0_queue"),
        ("SramQueue__SramVendorB", "u1_queue"),
    }
    assert modules["SramQueue__SramVendorA"].insts[0].type == "SramVendorA"
    assert modules["SramQueue__SramVendorB"].insts[0].type == "SramVendorB"

    # Instantiating the same (template, args) pair twice yields one definition.
    twice = FIG3 + "\nmodule Again () {\n    inst q: SramQueue::<SramVendorA>();\n}\n"
    r2 = check_strings([("main.vl", twice)])
    assert r2.ok
    emitted = emit_items(r2.mono.items[("local", "main.vl")], EmitConfig(), r2.units[0].resolved)
    count = sum(1 for m in svread.parse_sv(emitted) if m.name == "SramQueue__SramVendorA")
    assert count == 1
    ok(3, "Fig. 3 yields exactly two monomorphized queues; duplicate pairs share one definition")


# -- 4: diagnostics corpus -------------------------------------------------------

EXPECTED_DIAGS = [
    ("e0201.vl", "E0201", 2, 8),
    ("e0202.vl", "E0202", 4, 18),
    ("e0204.vl", "E0204", 9, 13),
    ("e0302.vl", "E0302", 9, 5),
    ("e0303.vl", "E0303", 2, 5),
    ("w0304.vl", "W0304", 2, 9),
    ("w0305.vl", "W0305", 9, 13),
    ("e0306.vl", "E0306", 6, 9),
    ("e0307.vl", "E0307", 15, 9),
    ("e0308.vl", "E0308", 12, 10),
    ("e0311.vl", "E0311", 4, 18),
    ("e0312.vl", "E0312", 7, 5),
    ("e0313.vl", "E0313", 6, 5),
    ("e0316.vl", "E0316", 13, 15),
]


def test_criterion_4_diagnostics_corpus():
    start = time.monotonic()
    assert len(EXPECTED_DIAGS) >= 14
    for name, code, line, column in EXPECTED_DIAGS:
        text = (FIXTURES / name).read_text()
        result = check_strings([("main.vl", text)])
        got = [(d.code, d.span.line, d.span.column) for d in result.diagnostics]
        assert got == [(code, line, column)], f"{name}: {got}"
    unsafe = check_strings([("main.vl", (FIXTURES / "unsafe_cdc.vl").read_text())])
    assert unsafe.diagnostics == []
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(4, f"all {len(EXPECTED_DIAGS)} fixtures produce exactly the expected code at the expected position ({elapsed:.2f}s)")


# -- 5: latch-check oracle -------------------------------------------------------


def _gen_stmts(rng, conds, targets, depth):
    stmts = []
    for _ in range(rng.randint(1, 3)):
        choice = rng.random()
        if choice < 0.4 or depth >= 3:
            stmts.append(("assign", rng.choice(targets)))
        elif choice < 0.5:
            stmts.append(("block", _gen_stmts(rng, conds, targets, depth + 1)))
        elif choice < 0.6:
            stmts.append(("unsafe", _gen_stmts(rng, conds, targets, depth + 1)))
        elif conds:
            # an `if` with zero to two `else if` arms
            arms = [(conds.pop(), _gen_stmts(rng, conds, targets, depth + 1))]
            while conds and rng.random() < 0.6:
                arms.append((conds.pop(), _gen_stmts(rng, conds, targets, depth + 1)))
            orelse = _gen_stmts(rng, conds, targets, depth + 1) if rng.random() < 0.5 else None
            stmts.append(("if", arms, orelse))
        else:
            stmts.append(("assign", rng.choice(targets)))
    return stmts


def _stmts_to_source(stmts, indent):
    pad = "    " * indent
    out = []
    for s in stmts:
        if s[0] == "assign":
            out.append(f"{pad}{s[1]} = 1;")
        elif s[0] in ("block", "unsafe"):
            out.append(pad + ("{" if s[0] == "block" else "unsafe (cdc) {"))
            out += _stmts_to_source(s[1], indent + 1)
            out.append(f"{pad}}}")
        else:
            _, arms, orelse = s
            for i, (cond, then) in enumerate(arms):
                out.append(f"{pad}{'} else ' if i else ''}if {cond} {{")
                out += _stmts_to_source(then, indent + 1)
            if orelse is not None:
                out.append(f"{pad}}} else {{")
                out += _stmts_to_source(orelse, indent + 1)
            out.append(f"{pad}}}")
    return out


def _oracle_assigned(stmts, env):
    assigned = set()
    for s in stmts:
        if s[0] == "assign":
            assigned.add(s[1])
        elif s[0] in ("block", "unsafe"):
            assigned |= _oracle_assigned(s[1], env)
        else:
            _, arms, orelse = s
            taken = next((then for cond, then in arms if env[cond]), orelse)
            if taken is not None:
                assigned |= _oracle_assigned(taken, env)
    return assigned


def test_criterion_5_latch_oracle():
    rng = random.Random(20250810)
    checked = 0
    for _ in range(60):
        n_conds = rng.randint(1, 4)
        conds = [f"c{i}" for i in range(n_conds)]
        targets = [t for t in ("x", "y", "z")[: rng.randint(1, 3)]]
        stmts = _gen_stmts(rng, list(conds), targets, 0)
        body = "\n".join(_stmts_to_source(stmts, 2))
        ports = ", ".join(f"{c}: input logic" for c in conds)
        decls = "\n".join(f"    var {t}: logic;" for t in targets)
        src = f"module T ({ports}) {{\n{decls}\n    always_comb {{\n{body}\n    }}\n}}\n"
        result = check_strings([("main.vl", src)])
        flagged = {
            d.message.split("`")[1]
            for d in result.diagnostics
            if d.code == "W0305"
        }
        # Brute force: every assignment of the condition inputs.
        per_path = [
            _oracle_assigned(stmts, dict(zip(conds, values)))
            for values in itertools.product([False, True], repeat=n_conds)
        ]
        somewhere = set().union(*per_path)
        everywhere = set(per_path[0]).intersection(*per_path[1:])
        assert flagged == somewhere - everywhere, src
        checked += 1
    assert checked >= 50
    ok(5, f"must-assign analysis equals brute-force enumeration on {checked} random comb blocks")


# -- 6: literal-width oracle -------------------------------------------------------


def _digits(value, radix):
    alphabet = "0123456789abcdef"
    out = ""
    while value:
        out = alphabet[value % radix] + out
        value //= radix
    return out or "0"


def test_criterion_6_literal_width_oracle():
    from vl.analyzer import check_literal_widths
    from vl.parser import parse_expression

    cases = 0
    for width in range(1, 17):
        for value in (2**width - 1, 2**width):
            for base, radix in (("b", 2), ("d", 10), ("h", 16)):
                digits = _digits(value, radix)
                assert int(digits, radix) == value  # oracle: exact big-int value
                diags = check_literal_widths(parse_expression(f"{width}'{base}{digits}"))
                expected = ["E0311"] if value >= 2**width else []
                assert [d.code for d in diags] == expected, f"{width}'{base}{digits}"
                cases += 1
    assert cases == 16 * 2 * 3
    ok(6, f"E0311 fires iff value >= 2^width across {cases} literals in all three bases")


# -- 7: formatter idempotency and reparse stability --------------------------------


def test_criterion_7_formatter_corpus():
    corpus = [FIG1, FIG2, FIG3, FIG6] + [p.read_text() for p in sorted(FIXTURES.glob("*.vl"))]
    for src in corpus:
        sf, diags = parse_source(src, "corpus.vl")
        assert diags == []
        once = format_source(sf)
        sf2, diags2 = parse_source(once, "corpus.vl")
        assert diags2 == []
        assert format_source(sf2) == once  # idempotent, byte-compared
        assert structure(sf2) == structure(sf)  # reparse-stable
    ok(7, f"format is idempotent and reparse-stable on {len(corpus)} corpus files")


# -- 8: determinism -----------------------------------------------------------------


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_build_determinism(tmp_path, capsys):
    for name, src in (("fig1", FIG1), ("fig2", FIG2), ("fig3", FIG3)):
        root = make_project(tmp_path, src, name)
        manifest = str(root / "vl.toml")
        assert main(["build", "--manifest", manifest]) == 0
        assert main(["doc", "--manifest", manifest]) == 0
        first = _tree_bytes(root / "target")
        shutil.rmtree(root / "target")
        assert main(["build", "--manifest", manifest]) == 0
        assert main(["doc", "--manifest", manifest]) == 0
        assert _tree_bytes(root / "target") == first
        assert main(["check", "--format", "json", "--manifest", manifest]) == 0
        run1 = capsys.readouterr().out
        assert main(["check", "--format", "json", "--manifest", manifest]) == 0
        assert capsys.readouterr().out == run1
    ok(8, "two consecutive builds produce byte-identical .sv, name_map.json, and doc outputs")


# -- 9: dependencies -----------------------------------------------------------------


def _git(*args, cwd):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


SAMPLE_DEP = """\
pub module Sample #(
    param WIDTH: u32 = 1,
) (
    i_clk: input clock,
    i_dat: input logic<WIDTH>,
    o_dat: output logic<WIDTH>,
) {
    var r_dat: logic<WIDTH>;
    always_ff {
        r_dat = i_dat;
    }
    always_comb {
        o_dat = r_dat;
    }
}
"""

TOP_USING_SAMPLE = """\
module Top (
    i_clk: input clock,
    i_dat: input logic,
    o_dat: output logic,
) {
    inst u: sample::Sample #(
        WIDTH: 1,
    ) (
        i_clk: i_clk,
        i_dat: i_dat,
        o_dat: o_dat,
    );
}
"""


def _make_repo(root, name, manifest, source):
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text(manifest)
    (root / "src" / "main.vl").write_text(source)
    _git("init", "-q", cwd=root)
    _git("add", "-A", cwd=root)
    _git("commit", "-q", "-m", "init", cwd=root)
    _git("tag", "v0.1.0", cwd=root)


def test_criterion_9_dependencies(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    repo = tmp_path / "sample_repo"
    _make_repo(repo, "sample", '[project]\nname = "sample"\nversion = "0.1.0"\n', SAMPLE_DEP)

    root = tmp_path / "app"
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text(
        f'[project]\nname = "app"\nversion = "0.1.0"\n\n[dependencies]\n"file://{repo}" = "0.1.0"\n'
    )
    (root / "src" / "main.vl").write_text(TOP_USING_SAMPLE)
    manifest = str(root / "vl.toml")

    assert main(["update", "--manifest", manifest]) == 0
    lock = (root / "vl.lock").read_text()
    assert "\tsample\n" in lock and len(lock.split("\t")[2]) == 40

    # Warm cache + lockfile: the offline build performs zero git operations.
    calls = []
    real_git = project_mod._git
    monkeypatch.setattr(project_mod, "_git", lambda *a, **k: calls.append(a) or real_git(*a, **k))
    assert main(["build", "--offline", "--manifest", manifest]) == 0
    assert calls == []
    top_sv = (root / "target" / "sv" / "main.sv").read_text()
    (top,) = svread.parse_sv(top_sv)
    (inst,) = top.insts  # namespace `sample` resolved to the dep module
    assert (inst.type, inst.name) == ("Sample", "u")
    dep_sv = (root / "target" / "sv" / "sample" / "main.sv").read_text()
    assert svread.parse_sv(dep_sv)[0].name == "Sample"

    # Two-fixture cycle -> E0405.
    a_dir, b_dir = tmp_path / "cyc_a", tmp_path / "cyc_b"
    for d, name, other in ((a_dir, "cyc_a", b_dir), (b_dir, "cyc_b", a_dir)):
        _make_repo(
            d,
            name,
            f'[project]\nname = "{name}"\nversion = "0.1.0"\n\n[dependencies]\n"file://{other}" = "0.1.0"\n',
            "pub module M () {}\n",
        )
    cyc = tmp_path / "cyc_app"
    (cyc / "src").mkdir(parents=True)
    (cyc / "vl.toml").write_text(
        f'[project]\nname = "cycapp"\nversion = "0.1.0"\n\n[dependencies]\n"file://{a_dir}" = "0.1.0"\n'
    )
    (cyc / "src" / "main.vl").write_text("module M () {}\n")
    assert main(["check", "--format", "json", "--manifest", str(cyc / "vl.toml")]) == 1
    data = json.loads(capsys.readouterr().out)
    assert "E0405" in [d["code"] for d in data]
    ok(9, "Fig. 5 fixture resolves+locks as namespace `sample`; offline warm build fetches nothing; cycles are E0405")


# -- 10: docgen ------------------------------------------------------------------------


def test_criterion_10_docgen_fig6():
    from vl.docgen import extract_docs, render_html, render_markdown

    models, diags = extract_docs([parse_ok(FIG6)])
    assert diags == []
    (model,) = models
    md = render_markdown(model)
    wave = model.wave_blocks[0]
    assert f"```wavedrom\n{wave}\n```" in md  # fence reproduced verbatim
    assert "| WIDTH | u32 | 1 | Data Width |" in md
    assert "| i_clk | input | logic | Clock |" in md
    assert "| i_dat | input | logic [WIDTH-1:0] | Input Data |" in md
    assert "| o_dat | output | logic [WIDTH-1:0] | Output Data |" in md
    page = render_html(model)
    script = page.split('<script type="WaveDrom">', 1)[1].split("</script>", 1)[0]
    assert "{name: 'i_clk', wave: 'p.....'}" in script
    ok(10, "Fig. 6 markdown has the verbatim fence and all rows; HTML embeds the wave JSON")
