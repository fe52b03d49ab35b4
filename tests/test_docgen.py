import re

from vl.docgen import (
    extract_docs,
    markdown_to_html,
    render_html,
    render_index_markdown,
    render_markdown,
    write_docs,
)
from test_parser import parse_ok

FIG6 = """\
/// This is a sample module.
///
/// ```wavedrom
/// {signal: [
///   {name: 'i_clk', wave: 'p.....'},
///   {name: 'i_dat', wave: 'x.=x..', data: ['data']},
///   {name: 'o_dat', wave: 'x...=x.', data: ['data']},
/// ]}
/// ```
pub module Sample #(
    /// Data Width
    param WIDTH: u32 = 1,
) (
    i_clk: input clock, /// Clock
    i_dat: input logic<WIDTH>, /// Input Data
    o_dat: output logic<WIDTH>, /// Output Data
) {}
"""


def fig6_model():
    models, diags = extract_docs([parse_ok(FIG6)])
    assert diags == []
    (model,) = models
    return model


def test_fig6_extraction():
    model = fig6_model()
    assert model.name == "Sample"
    assert model.body_doc.startswith("This is a sample module.")
    assert len(model.wave_blocks) == 1
    assert "{name: 'i_clk', wave: 'p.....'}" in model.wave_blocks[0]
    assert [(r.name, r.type_text, r.extra, r.doc) for r in model.params] == [
        ("WIDTH", "u32", "1", "Data Width")
    ]
    assert [(r.name, r.extra, r.type_text, r.doc) for r in model.ports] == [
        ("i_clk", "input", "logic", "Clock"),
        ("i_dat", "input", "logic [WIDTH-1:0]", "Input Data"),
        ("o_dat", "output", "logic [WIDTH-1:0]", "Output Data"),
    ]


def test_pub_module_without_docs():
    (model,), diags = extract_docs([parse_ok("pub module Bare (x: input logic) { var y: logic; }")])
    assert diags == []
    assert model.body_doc == "" and model.wave_blocks == []
    assert model.ports[0].doc == ""


def test_non_pub_module_absent():
    models, _ = extract_docs([parse_ok("module Hidden () {}\npub module Shown () {}\n")])
    assert [m.name for m in models] == ["Shown"]


def test_unparseable_wavedrom_is_w0501():
    src = "/// ```wavedrom\n/// {signal: [\n/// ```\npub module M () {}\n"
    models, diags = extract_docs([parse_ok(src)])
    assert [d.code for d in diags] == ["W0501"]
    # Kept verbatim regardless.
    assert models[0].wave_blocks == ["{signal: ["]


def test_relaxed_wavedrom_json_accepted():
    # Fig. 6 style is a JS object literal, not strict JSON: no warning.
    _, diags = extract_docs([parse_ok(FIG6)])
    assert diags == []


def test_markdown_page():
    md = render_markdown(fig6_model())
    assert md.startswith("# Sample\n")
    assert "```wavedrom\n{signal: [\n" in md
    assert "| WIDTH | u32 | 1 | Data Width |" in md
    assert "| o_dat | output | logic [WIDTH-1:0] | Output Data |" in md
    # The fence is reproduced verbatim from the source comment.
    fence = "```wavedrom\n" + fig6_model().wave_blocks[0] + "\n```"
    assert fence in md


def test_markdown_empty_model():
    (model,), _ = extract_docs([parse_ok("pub module Empty () {}")])
    md = render_markdown(model)
    assert "# Empty" in md and "## Parameters" in md and "## Ports" in md
    separators = [l for l in md.splitlines() if l == "| --- | --- | --- | --- |"]
    assert len(separators) == 2  # header-only tables, no data rows


def test_index_alphabetical():
    models, _ = extract_docs([parse_ok("pub module Zeta () {}\npub module Alpha () {}\n")])
    idx = render_index_markdown(models)
    assert idx.index("Alpha") < idx.index("Zeta")
    assert "- [Alpha](Alpha.md)" in idx


def test_html_page_embeds_wavedrom():
    page = render_html(fig6_model())
    assert '<script type="WaveDrom">' in page
    assert "{name: 'i_clk', wave: 'p.....'}" in page
    assert '<script src="wavedrom.min.js"></script>' in page
    assert "WaveDrom.ProcessAll()" in page


def test_html_without_waves_has_no_wavedrom_script():
    (model,), _ = extract_docs([parse_ok("pub module Plain () {}")])
    page = render_html(model)
    assert "WaveDrom" not in page


def test_configurable_renderer_url():
    page = render_html(fig6_model(), wavedrom_url="https://cdn.example/wavedrom.js")
    assert '<script src="https://cdn.example/wavedrom.js"></script>' in page


def test_markdown_to_html_subset():
    assert markdown_to_html("**bold**") == "<p><strong>bold</strong></p>"
    assert markdown_to_html("# Title") == "<h1>Title</h1>"
    assert "<li>one</li>" in markdown_to_html("- one\n- two")
    assert "<ol>" in markdown_to_html("1. a\n2. b")
    assert "<code>x</code>" in markdown_to_html("`x`")
    assert '<a href="u">t</a>' in markdown_to_html("[t](u)")
    assert "<pre><code>code()" in markdown_to_html("```\ncode()\n```")
    assert "&lt;b&gt;" in markdown_to_html("a <b> c")


def test_html_and_markdown_tables_agree():
    model = fig6_model()
    md = render_markdown(model)
    page = render_html(model)
    md_cells = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in md.splitlines()
        if line.startswith("|") and "---" not in line
    ]
    html_cells = [
        re.findall(r"<td>(.*?)</td>", line)
        for line in page.splitlines()
        if "<td>" in line
    ]
    md_rows = [r for r in md_cells if r not in (["Name", "Type", "Default", "Description"], ["Name", "Direction", "Type", "Description"])]
    assert md_rows == html_cells


def test_rendering_is_pure():
    a, b = render_markdown(fig6_model()), render_markdown(fig6_model())
    assert a == b
    assert render_html(fig6_model()) == render_html(fig6_model())


def test_write_docs_tree(tmp_path):
    models, _ = extract_docs([parse_ok(FIG6)])
    written, diags = write_docs(models, tmp_path / "doc")
    assert diags == []
    names = sorted(p.name for p in written)
    assert names == ["Sample.html", "Sample.md", "index.html", "index.md"]
    assert "Sample" in (tmp_path / "doc" / "index.md").read_text()
