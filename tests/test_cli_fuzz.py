"""The CLI contract under adversarial input, run in process: every command
exits 0, 1 or 2, never with an internal error or an uncoded OS error, and
`--format json` prints exactly one JSON array (except `fmt --check`, which
lists drifted paths on stdout after it)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vl.cli import main

from test_parser import FIG1

_TOKENS = [
    "pub", "module", "M", "L", "::<", "T", ">", "#(", "(", ")", "{", "}", "[", "]", ",", ";", ":", "=",
    "param", "W", "u32", "input", "output", "logic", "clock", "reset", "var", "v", "inst", "u", "assign",
    "always_ff", "always_comb", "if_reset", "if", "else", "1'b0", "8'hff", "4'd16", "3", "+", "package",
    "const", "`a", "// c", "/// d", "\n", "é", "\t",
]
_MANIFEST_LINES = [
    "[project]", 'name = "p"', 'version = "0.1.0"', 'name = "not-an-ident"', 'version = "1"', "[build]",
    'clock_type = "negedge"', 'reset_type = "bogus"', 'target_dir = "out"', 'wavedrom_url = "w.js"',
    "[dependencies]", '"file:///nonexistent/vl-dep" = "0.1.0"', '"x" = "1.0"', "[other]", "garbage", "= =", "[",
]
_LOCK_LINES = ["file:///nonexistent/vl-dep\t0.1.0\tdeadbeef\tdep", "a\tb", "", "x\ty\tz\tw\tv"]
# Output layouts that cannot be written, as `vl` finds them in the project root.
_LAYOUTS = ["none", "out_is_a_file", "target_is_a_file", "doc_is_a_file", "name_map_is_a_dir", "lock_is_a_dir", "source_is_a_dir"]
_COMMANDS = [["check"], ["build"], ["doc"], ["fmt", "--check"], ["update"], ["fmt"]]
_VALID = '[project]\nname = "p"\nversion = "0.1.0"\n'


def _soup(items):
    return st.lists(st.sampled_from(items), max_size=30).map(lambda xs: " ".join(xs))


# A deep constant in each constant context: a param default, a width, a part-select bound.
_CONST_SITES = {
    "param": "pub module P #(param W: u32 = {}) (o: output u32) {{\n    assign o = W;\n}}\n",
    "width": "pub module P (o: output logic<{}>) {{\n    assign o = 0;\n}}\n",
    "bound": "pub module P (i: input logic<2000>, o: output logic<4>) {{\n    assign o = i[{} - 1:0];\n}}\n",
}
_STRESS_KINDS = [*_CONST_SITES, "const_chain", "if_chain", "generics"]


@st.composite
def _stress(draw, kind=None):
    """A deep input of `kind`, or of any kind: a 600-1,500-term constant
    chain, 300-3,000 constants each defined by the next one (in either
    order), a long `if_reset`/`else if` chain, or `::<…>` lists holding
    comments."""
    kind = kind or draw(st.sampled_from(_STRESS_KINDS))
    if kind in _CONST_SITES:
        return _CONST_SITES[kind].format(" + ".join(["1"] * draw(st.integers(600, 1500))))
    if kind == "const_chain":
        n = draw(st.integers(300, 3000))
        links = [f"    const C{k}: u32 = C{k + 1} + 1;\n" for k in range(n)] + [f"    const C{n}: u32 = 0;\n"]
        if draw(st.booleans()):
            links.reverse()
        return "pub package K {\n" + "".join(links) + "}\npub module P (o: output u32) {\n    assign o = K::C0;\n}\n"
    if kind == "if_chain":
        arms = "".join(f" else if i == {k} {{ r = {k}; }}" for k in range(1, draw(st.integers(100, 1000))))
        return (
            "pub module R (i_clk: input clock, i_rst: input reset, i: input u32, o: output u32) {\n"
            f"    var r: u32;\n    always_ff {{\n        if_reset {{ r = 0; }}{arms} else {{ r = i; }}\n    }}\n"
            "    assign o = r;\n}\n"
        )
    # Before each entry and the closer: an own-line comment, one at the end of the line before, or none.
    comments = st.lists(st.sampled_from(["", "\n// c\n", "\n/// d\n", " // t\n", " /// t\n"]), min_size=3, max_size=3)
    head, inst = (",".join(c + name for c, name in zip(draw(comments), names)) for names in (("T", "U", ">"), ("A", "A", ">")))
    return (
        "pub module A (o: output logic) {\n    assign o = 0;\n}\n"
        f"pub module G::<{head} (o: output logic) {{\n    inst u: T (o: o);\n}}\n"
        f"pub module Top (o: output logic) {{\n    inst g: G::<{inst} (o: o);\n}}\n"
    )


@st.composite
def fuzz_project(draw):
    source = draw(
        st.one_of(
            st.binary(max_size=120),
            _soup(_TOKENS).map(str.encode),
            _stress().map(str.encode),
            st.just(FIG1.replace("module Counter", "pub module Counter").encode()),
        )
    )
    manifest = draw(
        st.one_of(
            st.just(_VALID.encode()),
            st.binary(max_size=80),
            st.lists(st.sampled_from(_MANIFEST_LINES), max_size=8).map(lambda xs: "\n".join(xs).encode()),
        )
    )
    lock = draw(
        st.one_of(
            st.none(),
            st.binary(max_size=40),
            st.lists(st.sampled_from(_LOCK_LINES), max_size=3).map(lambda xs: "\n".join(xs).encode()),
        )
    )
    return source, manifest, lock, draw(st.sampled_from(_LAYOUTS)), draw(st.sampled_from(["human", "json"]))


def _lay_out(root: Path, source: bytes, manifest: bytes, lock: bytes | None, layout: str) -> list[str]:
    """Write the project; returns the extra arguments of `build` and `doc`."""
    (root / "src").mkdir(parents=True)
    (root / "src" / "main.vl").write_bytes(source)
    (root / "vl.toml").write_bytes(manifest)
    if lock is not None and layout != "lock_is_a_dir":
        (root / "vl.lock").write_bytes(lock)
    if layout == "out_is_a_file":
        (root / "blocker").write_text("")
        return ["--out", str(root / "blocker")]
    if layout == "target_is_a_file":
        (root / "target").write_text("")
    elif layout == "doc_is_a_file":
        (root / "target").mkdir()
        (root / "target" / "doc").write_text("")
    elif layout == "name_map_is_a_dir":
        (root / "target" / "name_map.json").mkdir(parents=True)
    elif layout == "lock_is_a_dir":
        (root / "vl.lock").mkdir()
    elif layout == "source_is_a_dir":
        (root / "src" / "x.vl").mkdir()
    return []


def _run_every_command(source: bytes, manifest: bytes, lock: bytes | None, layout: str, mode: str) -> list[int]:
    """Run each command on the project; returns their exit codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp) / "p"
        out_args = _lay_out(root, source, manifest, lock, layout)
        mp.setenv("VL_CACHE_DIR", str(Path(tmp) / "cache"))
        for command in _COMMANDS:
            extra = out_args if command[0] in ("build", "doc") else []
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([*command, "--manifest", str(root / "vl.toml"), "--offline", "--format", mode, *extra])
            what = f"{command} on layout {layout}: {stderr.getvalue()}"
            assert rc in (0, 1, 2), what
            assert "internal error:" not in stderr.getvalue(), what
            assert "error: [Errno" not in stderr.getvalue(), what
            if mode == "json" and command != ["fmt", "--check"]:
                assert isinstance(json.loads(stdout.getvalue()), list), what
            codes.append(rc)
    return codes


@settings(max_examples=40, deadline=None)
@given(fuzz_project())
def test_every_command_keeps_the_cli_contract(project):
    _run_every_command(*project)


@pytest.mark.parametrize("kind", _STRESS_KINDS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_deep_inputs_check_build_and_format(kind, data):
    """Every stress input is a valid project: each command but `fmt --check`
    (which may find drift) exits 0."""
    source = data.draw(_stress(kind))
    codes = _run_every_command(source.encode(), _VALID.encode(), None, "none", data.draw(st.sampled_from(["human", "json"])))
    assert [rc for command, rc in zip(_COMMANDS, codes) if command != ["fmt", "--check"]] == [0] * 5
