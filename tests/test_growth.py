"""Linear cost, counted without noise: the whole in-process pipeline (load,
check, mono, emit, fmt and doc) runs under a line tracer on a generated
project at two sizes, n and 4n, and no function of `src/vl` may run more than
4.4 times as many lines at 4n as at n once it runs 200 or more.

The larger project has twice the files and twice the modules per file, so a
cost quadratic in a file's length grows 8 times, and one quadratic in the
project's size 16 times.  Every name is unique, so no duplicate-name paths
run.  Both sizes are above the smallest, so a function with a constant head
(work per file, say) reads as the linear function it is.  Line events cannot
see work done in C, such as `str.find` over a whole text or `in` on a list.
"""

import sys
from collections import Counter
from pathlib import Path

import vl
from vl.driver import check_program, doc_program, emit_program, load_program
from vl.formatter import format_source

PACKAGE = str(Path(vl.__file__).resolve().parent)
MAX_GROWTH = 4.4
MIN_EVENTS = 200


def _copy(n: str) -> str:
    """One copy of every construct the pipeline reads, with names made unique by `n`."""
    return f"""\
/// Counter `{n}`, one register bank.
///
/// Counts while `i_en` is set.
pub module {n} #(
    /// Counter width
    param WIDTH: u32 = 8,
) (
    i_clk: input clock, /// Clock
    i_rst: input reset, /// Reset
    i_en: input logic, /// Enable
    o_cnt: output logic<WIDTH>, /// Count
) {{
    // the count register and its next value
    var r_cnt: logic<WIDTH>;
    var w_next: logic<WIDTH>;
    always_comb {{
        w_next = r_cnt + 1; // wraps
    }}
    always_ff {{
        if_reset {{
            r_cnt = 0;
        }} else if i_en {{
            r_cnt = w_next;
        }}
    }}
    assign o_cnt = r_cnt;
}}

module {n}Leaf () {{
}}

module {n}Wrap::<T> () {{
    inst u_leaf: T;
}}

/// Top of `{n}`.
pub module {n}Top (
    i_clk: input clock,
    i_rst: input reset,
    i_en: input logic,
    o_cnt: output logic<8>,
) {{
    inst u_cnt: {n} #(
        WIDTH: 8,
    ) (
        i_clk: i_clk,
        i_rst: i_rst,
        i_en: i_en,
        o_cnt: o_cnt,
    );
    inst u_wrap: {n}Wrap::<{n}Leaf>;
}}

package {n}Pkg {{
    const DEPTH: u32 = 4;
    function inc (x: u32) -> u32 {{
        return x + 1;
    }}
}}
"""


def _project(root: Path, files: int, copies: int) -> Path:
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text('[project]\nname = "growth"\nversion = "0.1.0"\n')
    for f in range(files):
        (root / "src" / f"f{f}.vl").write_text("\n".join(_copy(f"F{f}M{m}") for m in range(copies)))
    return root / "vl.toml"


def _pipeline(manifest: Path, out: Path) -> None:
    result = check_program(load_program(manifest))
    assert result.diagnostics == [], result.diagnostics[:3]
    _, diags = emit_program(result, out)
    assert diags == []
    for sf in result.root.files:
        assert format_source(sf) == sf.text, sf.file_id
    _, models, diags = doc_program(result, out)
    assert models and diags == []


def _line_events(run) -> Counter:
    """Line events of each function of `src/vl` while `run()` runs, keyed by
    (module, qualified name, first line)."""
    counts: Counter = Counter()
    keys: dict = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in keys:
            inside = code.co_filename.startswith(PACKAGE)
            keys[code] = (Path(code.co_filename).name, getattr(code, "co_qualname", code.co_name), code.co_firstlineno) if inside else None
        key = keys[code]
        if key is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                counts[key] += 1
            return line

        return line

    outer = sys.gettrace()  # a coverage run's tracer, put back after
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(outer)
    return counts


def test_no_function_grows_faster_than_its_input(tmp_path):
    small = _project(tmp_path / "small", files=2, copies=3)
    large = _project(tmp_path / "large", files=4, copies=6)
    _pipeline(small, tmp_path / "small_out")  # imports and first-call work, outside the count
    at_n = _line_events(lambda: _pipeline(small, tmp_path / "small_out"))
    at_4n = _line_events(lambda: _pipeline(large, tmp_path / "large_out"))
    assert sum(at_4n.values()) > 3.5 * sum(at_n.values())
    grew = {key: (at_n[key], events) for key, events in at_4n.items() if events >= MIN_EVENTS and events > MAX_GROWTH * at_n[key]}
    assert grew == {}, "line events at n and 4n: " + repr(grew)
