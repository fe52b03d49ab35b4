import re
from html.parser import HTMLParser

from hypothesis import given, settings
from hypothesis import strategies as st

from vl.docgen import (
    extract_docs,
    markdown_to_html,
    render_index_markdown,
    render_markdown,
    write_docs,
)
from helpers import render_html
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
    assert model.doc.startswith("This is a sample module.")
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
    assert model.doc is None and model.wave_blocks == []
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
    assert markdown_to_html("*a **b** c*") == "<p><em>a <strong>b</strong> c</em></p>"
    assert markdown_to_html("*a**b**") == "<p>*a<strong>b</strong></p>"  # no `*` of a strong span closes emphasis
    assert markdown_to_html("# Title") == "<h1>Title</h1>"
    assert "<li>one</li>" in markdown_to_html("- one\n- two")
    assert "<ol>" in markdown_to_html("1. a\n2. b")
    assert markdown_to_html("- a\ntext") == "<ul>\n<li>a</li>\n</ul>\n<p>text</p>"  # no <p> inside the <ul>
    assert "<code>x</code>" in markdown_to_html("`x`")
    assert '<a href="u">t</a>' in markdown_to_html("[t](u)")
    assert "<pre><code>code()" in markdown_to_html("```\ncode()\n```")
    assert "&lt;b&gt;" in markdown_to_html("a <b> c")
    assert markdown_to_html("| a | b |\n| --- | :-: |\n| 1 | `x` \\| y |\n\n| not | a table |") == (
        "<table>\n<tr><th>a</th><th>b</th></tr>\n<tr><td>1</td><td><code>x</code> | y</td></tr>\n</table>\n"
        "<p>| not | a table |</p>"
    )


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


# -- one renderer: the HTML page is the Markdown page, converted ------------------------


def _body(page):
    return re.search(r"<body[^>]*>\n(.*)\n</body>", page, re.S)[1]


def test_html_page_is_converted_markdown_page():
    model = fig6_model()
    assert _body(render_html(model)) == markdown_to_html(render_markdown(model))


def test_multiline_param_and_port_docs_are_one_table_row():
    src = (
        "pub module M #(\n    /// first\n    /// second\n    param A: u32 = 1,\n) (\n"
        "    /// in one\n    /// in two\n    i: input logic,\n) {}\n"
    )
    (model,), _ = extract_docs([parse_ok(src)])
    md = render_markdown(model)
    assert "| A | u32 | 1 | first second |\n" in md
    assert "| i | input | logic | in one in two |\n" in md
    assert "<td>in one in two</td>" in render_html(model)


def test_inline_markup_in_a_cell():
    src = "pub module M #(\n    param P: u32 = 2 * 3 * 4,\n) (\n    i: input logic, /// `code` and **bold** a|b\n) {}\n"
    (model,), _ = extract_docs([parse_ok(src)])
    assert "| i | input | logic | `code` and **bold** a\\|b |" in render_markdown(model)
    page = render_html(model)
    assert "<td><code>code</code> and <strong>bold</strong> a|b</td>" in page
    assert "<td>2 * 3 * 4</td>" in page  # not emphasis: a `*` before a space opens none


def test_fence_left_open_ends_with_the_doc():
    src = "/// Intro.\n///\n/// ```\n/// code <x>\npub module M (\n    i: input logic, /// In\n) {}\n"
    (model,), diags = extract_docs([parse_ok(src)])
    assert diags == []
    md = render_markdown(model)
    assert "```\ncode <x>\n```\n\n## Parameters\n" in md
    page = render_html(model)
    assert "<pre><code>code &lt;x&gt;</code></pre>\n<h2>Parameters</h2>" in page
    assert page.count("<table>") == 2 and "<td>In</td>" in page


def test_only_a_fence_line_opens_or_closes_a_fence():
    # A line with backticks after its info string is a paragraph with a code
    # span, and a ```` fence is not closed by ```.
    src = "/// ```x``` is inline code\n///\n/// ````sv\n/// ```\npub module M (\n    i: input logic, /// In\n) {}\n"
    (model,), _ = extract_docs([parse_ok(src)])
    md = render_markdown(model)
    assert "```x``` is inline code\n\n````sv\n```\n````\n\n## Parameters\n" in md
    page = render_html(model)
    assert "<pre><code>```</code></pre>\n<h2>Parameters</h2>" in page
    assert page.count("<table>") == 2 and "<td>In</td>" in page


def test_wavedrom_fence_left_open_is_a_wave_block():
    (model,), diags = extract_docs([parse_ok("/// ```wavedrom\n/// {signal: [\npub module M () {}\n")])
    assert [d.code for d in diags] == ["W0501"]
    assert model.wave_blocks == ["{signal: ["]
    assert "```wavedrom\n{signal: [\n```\n\n## Parameters" in render_markdown(model)
    page = render_html(model)
    assert '<script type="WaveDrom">\n{signal: [\n</script>' in page and "WaveDrom.ProcessAll()" in page


def test_crlf_wavedrom_fence_is_found():
    (model,), diags = extract_docs([parse_ok("/// ```wavedrom \r\n/// {}\r\n/// ```\r\npub module M () {}\r\n")])
    assert diags == [] and model.wave_blocks == ["{}\r"]
    assert render_html(model).count('<script type="WaveDrom">') == 1


def test_index_pages_come_from_one_renderer(tmp_path):
    models, _ = extract_docs([parse_ok("pub module Zeta () {}\npub module Alpha () {}\n")])
    write_docs(models, tmp_path)
    assert (tmp_path / "index.md").read_text() == "# Modules\n\n- [Alpha](Alpha.md)\n- [Zeta](Zeta.md)\n"
    page = (tmp_path / "index.html").read_text()
    assert _body(page) == markdown_to_html(render_index_markdown(models, "html"))
    assert '<li><a href="Alpha.html">Alpha</a></li>' in page and ".md" not in page


def test_index_without_modules_has_no_list(tmp_path):
    write_docs([], tmp_path)
    assert _body((tmp_path / "index.html").read_text()) == "<h1>Modules</h1>"


def test_link_target_cannot_leave_its_attribute():
    got = markdown_to_html('[x](a" onmouseover="alert(1))')
    assert got == '<p><a href="a&quot; onmouseover=&quot;alert(1">x</a>)</p>'
    # The target is literal; the link text, and emphasis around it, may hold markup.
    assert markdown_to_html("[x](http://a/*b*/c)") == '<p><a href="http://a/*b*/c">x</a></p>'
    assert markdown_to_html("*see [**x**](u)*") == '<p><em>see <a href="u"><strong>x</strong></a></em></p>'


def test_wavedrom_body_cannot_end_its_script():
    src = "/// ```wavedrom\n/// {signal: []}\n/// </script><script>alert(1)</script>\n/// ```\npub module M () {}\n"
    (model,), _ = extract_docs([parse_ok(src)])
    page = render_html(model)
    assert "<\\/script><script>alert(1)<\\/script>" in page
    assert page.count("</script>") == 2  # the loader's and the diagram's own


def test_code_spans_bind_first():
    # CommonMark 0.31 §6.1: a code span takes precedence over emphasis and
    # links, and it closes only at a backtick run of its opener's length.
    assert markdown_to_html("`a*b*c`") == "<p><code>a*b*c</code></p>"
    assert markdown_to_html("*foo`*`") == "<p>*foo<code>*</code></p>"
    assert markdown_to_html("``a ` b``") == "<p><code>a ` b</code></p>"
    assert markdown_to_html("[not a `link](/foo`)") == "<p>[not a <code>link](/foo</code>)</p>"
    assert markdown_to_html("*a `b` c*") == "<p><em>a <code>b</code> c</em></p>"
    assert markdown_to_html("``` `a` ``") == "<p>``` <code>a</code> ``</p>"  # unclosed runs are text
    src = "pub module M (\n    i: input logic, /// `a*b*c` or `[x](u)`\n) {}\n"
    (model,), _ = extract_docs([parse_ok(src)])
    assert "<td><code>a*b*c</code> or <code>[x](u)</code></td>" in render_html(model)


def test_emphasis_spans_the_lines_of_a_paragraph():
    (model,), _ = extract_docs([parse_ok("/// *one\n/// two* and `a\n/// b`\npub module M () {}\n")])
    assert "<p><em>one two</em> and <code>a b</code></p>" in render_html(model)


# Doc lines of every kind the converter knows, but no delimiter row such as
# `| --- |`: after a `|` line that makes a table of the doc's own, by design.
_DOC_LINES = st.sampled_from(
    [
        "", "Plain words.", "more words", "- item", "* star item", "1. first", "# Heading", "## Ports",
        "| a | b |", "a | b", "|", "x \\| y", "`code`", "``", "**bold** and *em*", '"quoted"', "'single'",
        "<b>&amp;", "[link](u)",
        "`*a*` `[x](u)`", "*foo`*`", "``a ` b``", "[x](a*b*c)", "[x](`u`)", "[not a `link](/foo`)", "*a", "b*",
        "```", "```wavedrom", " ```wavedrom ", "```sv", "  ```  ", "````", "````wavedrom", "```x```", "{signal: [", "{name: 'a', wave: 'p.'}",
        "]}", "</script>",
    ]
)
_DOCS = st.lists(_DOC_LINES, max_size=8)


def _open_fence(markdown: str) -> str:
    """The opener of the fence a Markdown reader is still in at the end of
    `markdown` (CommonMark §4.5), or "" when it is in none."""
    opener = ""
    for line in markdown.split("\n"):
        text = line.strip()
        ticks = len(text) - len(text.lstrip("`"))
        if opener and ticks >= len(opener) and text == "`" * ticks:
            opener = ""
        elif not opener and ticks >= 3 and "`" not in text[ticks:]:
            opener = text[:ticks]
    return opener


class _Tags(HTMLParser):
    """Fails on a tag that closes out of order or opens inside `<code>`."""

    def __init__(self, body: str):
        super().__init__()
        self.open: list[str] = []
        self.feed(body)
        self.close()
        assert self.open == []

    def handle_starttag(self, tag, attrs):
        assert "code" not in self.open, f"<{tag}> inside <code>"
        self.open.append(tag)

    def handle_endtag(self, tag):
        assert self.open.pop() == tag


@settings(max_examples=150, deadline=None)
@given(module_doc=st.one_of(st.none(), _DOCS), params=st.lists(_DOCS, max_size=3), ports=st.lists(_DOCS, max_size=3))
def test_pages_from_random_docs(module_doc, params, ports):
    """A Markdown reader sees the page's signature tables outside any fence.
    The HTML body is the converted Markdown page; its tags nest, none opens
    inside `<code>`, and no link target holds a tag.  It has the two signature
    tables, a row per param or port, and a WaveDrom script per wave block."""
    src = [f"/// {l}" for l in module_doc or []] + ["pub module M"]
    if params:
        src[-1] += " #("
        for i, doc in enumerate(params):
            src += [f"    /// {l}" for l in doc] + [f"    param P{i}: u32 = {i},"]
        src.append(")")
    src[-1] += " ("
    for i, doc in enumerate(ports):
        src += [f"    /// {l}" for l in doc] + [f"    p{i}: input logic,"]
    src.append(") {}")
    (model,), _ = extract_docs([parse_ok("\n".join(src) + "\n")])
    # No line of the signature tables opens or closes a fence, so a page that
    # ends outside any fence has its tables outside any fence.
    assert _open_fence(render_markdown(model)) == ""
    page = render_html(model)
    body = _body(page)
    assert body == markdown_to_html(render_markdown(model))
    _Tags(body)
    assert not any("<" in target for target in re.findall(r'href="([^"]*)"', body))
    tables = re.findall(r"<table>\n(.*?)\n</table>", body, re.S)
    assert [len(t.split("\n")) for t in tables] == [1 + len(params), 1 + len(ports)]
    assert body.count('<script type="WaveDrom">') == len(model.wave_blocks)
    assert ("WaveDrom.ProcessAll()" in page) == bool(model.wave_blocks)
