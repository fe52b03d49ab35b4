import json
import re
from pathlib import Path

import vl
from vl.diagnostics import Diagnostic, Related, render_human, sorted_diagnostics, to_json
from vl.tokens import Span


SRC = "module M (\n    o_x: output logic,\n) {\n    assign o_x = 4'd16;\n}\n"


def span(start, end, line, col):
    return Span("src/main.vl", start, end, line, col)


def test_caret_underlines_whole_lexeme():
    lit_start = SRC.index("4'd16")
    d = Diagnostic("E0311", "literal value 16 does not fit in 4 bits", span(lit_start, lit_start + 5, 4, 18))
    out = render_human(d, {"src/main.vl": SRC})
    lines = out.splitlines()
    assert lines[0] == "error[E0311]: literal value 16 does not fit in 4 bits"
    assert lines[1] == "  --> src/main.vl:4:18"
    assert "    assign o_x = 4'd16;" in lines[3]
    assert lines[4].endswith("^^^^^")


def test_warning_prefix():
    d = Diagnostic("W0304", "variable `x` is never read", span(0, 6, 1, 1))
    assert render_human(d, {"src/main.vl": SRC}).startswith("warning[W0304]")


def test_two_related_spans_give_three_excerpts():
    d = Diagnostic(
        "E0302",
        "`x` has 2 driving sites",
        span(0, 6, 1, 1),
        [Related("also driven here", span(11, 14, 2, 5)), Related("declared here", span(15, 18, 2, 10))],
    )
    out = render_human(d, {"src/main.vl": SRC})
    assert out.count("--> src/main.vl:") == 3
    first = out.index(":1:1")
    second = out.index(":2:5")
    third = out.index(":2:10")
    assert first < second < third


def test_missing_source_falls_back_to_location():
    d = Diagnostic("E0403", "cannot clone", Span("vl.toml", 0, 4, 1, 1))
    out = render_human(d, {})
    assert "--> vl.toml:1:1" in out
    assert "^" not in out


def test_json_is_one_array_with_stable_fields():
    diags = [
        Diagnostic("W0304", "b", span(10, 12, 2, 3)),
        Diagnostic("E0311", "a", span(0, 5, 1, 1), [Related("note", span(3, 4, 1, 4))]),
    ]
    data = json.loads(to_json(diags))
    assert [d["code"] for d in data] == ["E0311", "W0304"]  # sorted by position
    assert set(data[0]) == {"code", "severity", "message", "file", "line", "column", "related"}
    assert data[0]["related"][0]["line"] == 1
    assert json.loads(to_json([])) == []


def test_sort_is_by_file_position_code():
    mk = lambda f, start, code: Diagnostic(code, "m", Span(f, start, start + 1, 1, start + 1))
    diags = [mk("b.vl", 0, "E0202"), mk("a.vl", 5, "E0311"), mk("a.vl", 5, "E0301"), mk("a.vl", 1, "W0304")]
    ordered = sorted_diagnostics(diags)
    assert [(d.span.file_id, d.span.byte_start, d.code) for d in ordered] == [
        ("a.vl", 1, "W0304"),
        ("a.vl", 5, "E0301"),
        ("a.vl", 5, "E0311"),
        ("b.vl", 0, "E0202"),
    ]


def test_every_code_in_the_source_is_documented_and_no_other():
    code = re.compile(r"\b(?:[EW]\d{4}|EIO\d{2})\b")
    used = {c for p in Path(vl.__file__).parent.glob("*.py") for c in code.findall(p.read_text())}
    docs = Path(__file__).parent.parent / "docs" / "diagnostics.md"
    documented = {row.split("|")[1].strip() for row in docs.read_text().splitlines() if code.match(row[2:])}
    assert used == documented
