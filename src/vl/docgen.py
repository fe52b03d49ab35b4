"""Documentation generation: per-module Markdown and HTML pages built from
doc comments, with WaveDrom timing diagrams passed through to the browser.

Each page is written once, in Markdown; its HTML page is that Markdown
converted by `markdown_to_html`."""

from __future__ import annotations

import html
import re
from pathlib import Path

from . import ast
from .ast import expr_text, type_text
from .diagnostics import Diagnostic, write_outputs
from .emitter import lower_type, unpacked_suffix
from .record import field, record

# A fence: its opening line of three or more backticks and an info string
# without one, then every line up to a line of at least as many backticks
# and nothing else, and that line unless the text ends first (an open fence
# ends with its container, CommonMark 0.31 §4.5).  Fence lines are compared
# after stripping, so a CRLF `\r` still matches.  Groups: the opening
# backticks, info, the body lines each after its "\n", the closing line.
_FENCE = re.compile(r"^[^\S\n]*(```+)([^`\n]*)$((?:\n(?![^\S\n]*\1`*[^\S\n]*$).*)*)(\n[^\S\n]*\1`*[^\S\n]*$)?", re.M)


@record
class DocRow:
    name: str
    type_text: str
    extra: str  # default value for params, direction for ports
    doc: str


@record
class DocModel:
    name: str
    doc: str | None = None  # the module's doc comment, as written
    params: list[DocRow] = field(default_factory=list)
    ports: list[DocRow] = field(default_factory=list)

    @property
    def wave_blocks(self) -> list[str]:
        """The bodies of the doc's ```wavedrom fences, an open one included."""
        return [m[3][1:] for m in _FENCE.finditer(self.doc or "") if m[2].strip() == "wavedrom"]


def extract_docs(files: list[ast.SourceFile]) -> tuple[list[DocModel], list[Diagnostic]]:
    """One DocModel per pub module, in declaration order; `files` come in
    file-id order, as `driver.check_program` sorts them."""
    models: list[DocModel] = []
    diags: list[Diagnostic] = []
    for sf in files:
        for item in sf.items:
            if not isinstance(item, ast.ModuleDecl) or not item.is_pub:
                continue
            model = DocModel(item.name, None if item.doc is None else item.doc.text)
            for wave in model.wave_blocks:
                if not _wave_json_ok(wave):
                    diags.append(
                        Diagnostic(
                            "W0501",
                            f"wavedrom block in `{item.name}` docs is not parseable JSON (kept verbatim)",
                            item.doc.span,
                        )
                    )
            for p in item.params:
                model.params.append(
                    DocRow(p.name, type_text(p.ty), expr_text(p.default), _doc_text(p.doc))
                )
            for p in item.ports:
                sv_type = lower_type(p.ty) + unpacked_suffix(p.ty)
                model.ports.append(DocRow(p.name, sv_type, p.direction, _doc_text(p.doc)))
            models.append(model)
    return models, diags


def _doc_text(doc) -> str:
    return doc.text.strip() if doc is not None else ""


def _wave_json_ok(text: str) -> bool:
    """Accept strict JSON or WaveDrom's relaxed JS-object-literal style."""
    import json

    relaxed = text.replace("'", '"')
    relaxed = re.sub(r"([{\[,]\s*)([A-Za-z_]\w*)\s*:", r'\1"\2":', relaxed)
    relaxed = re.sub(r",(\s*[}\]])", r"\1", relaxed)
    for candidate in (text, relaxed):
        try:
            json.loads(candidate)
            return True
        except ValueError:
            pass
    return False


# -- Markdown ------------------------------------------------------------------


def _cell(text: str) -> str:
    """A GFM table cell is one line: join the text's lines, escape `|`."""
    return " ".join(map(str.strip, text.splitlines())).replace("|", "\\|")


def render_markdown(model: DocModel) -> str:
    out = [f"# {model.name}", ""]
    if model.doc is not None:
        out.append(model.doc)
        for m in _FENCE.finditer(model.doc):
            if m[4] is None:
                out.append(m[1])  # close the fence the doc leaves open, before the tables
        out.append("")
    out += ["## Parameters", "", "| Name | Type | Default | Description |", "| --- | --- | --- | --- |"]
    for r in model.params:
        out.append(f"| {_cell(r.name)} | {_cell(r.type_text)} | {_cell(r.extra)} | {_cell(r.doc)} |")
    out += ["", "## Ports", "", "| Name | Direction | Type | Description |", "| --- | --- | --- | --- |"]
    for r in model.ports:
        out.append(f"| {_cell(r.name)} | {_cell(r.extra)} | {_cell(r.type_text)} | {_cell(r.doc)} |")
    return "\n".join(out) + "\n"


def render_index_markdown(models: list[DocModel], ext: str = "md") -> str:
    """The module list, linking each module's `.md` page (or `.html` page)."""
    out = ["# Modules", ""]
    for m in sorted(models, key=lambda m: m.name):
        out.append(f"- [{m.name}]({m.name}.{ext})")
    return "\n".join(out) + "\n"


# -- HTML ----------------------------------------------------------------------


# Inline markup.  Code spans bind first (CommonMark 0.31 §6.1): a whole backtick
# run up to the next run of exactly its length.  Escaped text holds no `<`, so
# `<>` stands for each code span in one `_MARKUP` pass over the rest, whose
# alternatives all start with `[` or `*` for `re` to skip to: a link with a
# literal target, strong, and emphasis, which may hold strong and closes on no
# `*` that opens strong.  A `*` next to a space is text, so `A * B * C` stays.
_CODE_SPAN = re.compile(r"(`(?<!``)`*)(?!`)(.+?)(?<!`)\1(?!`)")
_STRONG = r"\*\*(?!\s)[^*]+(?<!\s)\*\*"
_MARKUP = re.compile(rf"\[([^\]]+)\]\(([^)<]+)\)|\*(?:\*((?!\s)[^*]+(?<!\s))\*|(?!\s)((?:[^*]|{_STRONG})+)(?<!\s)(?!{_STRONG}))\*")
_HEADING = re.compile(r"(#{1,6})\s+(.*)")
_LIST_ITEM = re.compile(r"(?:([-*])|\d+\.)\s+(.*)")
_DELIMITER_ROW = re.compile(r"\|(?:[ \t]*:?-+:?[ \t]*\|)+")
_CELL_BAR = re.compile(r"(?<!\\)\|")


def _inline(text: str) -> str:
    pieces = _CODE_SPAN.split(html.escape(text, quote=False))  # text, run, code, text, ...
    out = _MARKUP.sub(_markup, "<>".join(pieces[::3]))
    for code in pieces[2::3]:
        out = out.replace("<>", f"<code>{code}</code>", 1)
    return out


def _markup(m: re.Match) -> str:
    text, target, strong, em = m.groups()
    if target:  # it sits in an attribute, which a `"` would end
        return '<a href="{}">{}</a>'.format(target.replace('"', "&quot;"), _MARKUP.sub(_markup, text))
    tag, inner = ("strong", strong) if strong else ("em", em)
    return f"<{tag}>{_MARKUP.sub(_markup, inner)}</{tag}>"


def _row(tag: str, line: str) -> str:
    cells = (c.strip().replace("\\|", "|") for c in _CELL_BAR.split(line.strip("|")))
    return "<tr>" + "".join(f"<{tag}>{_inline(c)}</{tag}>" for c in cells) + "</tr>"


def markdown_to_html(text: str) -> str:
    """Block/inline subset: headings, paragraphs, lists, `|` tables, fences
    (a ```wavedrom one becomes a WaveDrom script), emphasis, code, links."""
    out: list[str] = []
    start = 0
    for m in _FENCE.finditer(text):
        _blocks(text[start : m.start()], out)
        body = m[3][1:]
        if m[2].strip() == "wavedrom":
            # `</` would end the script early; `<\/` means the same in JavaScript.
            out += ['<script type="WaveDrom">', body.replace("</", "<\\/"), "</script>"]
        else:
            out.append("<pre><code>" + html.escape(body) + "</code></pre>")
        start = m.end()
    _blocks(text[start:], out)
    return "\n".join(out)


def _blocks(text: str, out: list[str]) -> None:
    """Convert text without fences, block by block, onto `out`."""
    paragraph: list[str] = []  # never open inside a block
    block: str | None = None  # the open "ul", "ol" or "table"

    def close():
        nonlocal block
        if paragraph:
            out.append("<p>" + _inline(" ".join(paragraph)) + "</p>")
            paragraph.clear()
        if block:
            out.append(f"</{block}>")
            block = None

    for line in text.split("\n"):
        stripped = line.strip()
        if block == "table" and stripped.startswith("|"):
            out.append(_row("td", stripped))
        elif m := _HEADING.fullmatch(stripped):
            close()
            out.append(f"<h{len(m[1])}>{_inline(m[2])}</h{len(m[1])}>")
        elif m := _LIST_ITEM.fullmatch(stripped):
            tag = "ul" if m[1] else "ol"
            if block != tag:
                close()
                out.append(f"<{tag}>")
                block = tag
            out.append(f"<li>{_inline(m[2])}</li>")
        elif paragraph and paragraph[-1].startswith("|") and _DELIMITER_ROW.fullmatch(stripped):
            # A GFM table: the `|` line before the delimiter row is its header.
            header = paragraph.pop()
            close()
            out += ["<table>", _row("th", header)]
            block = "table"
        elif not stripped:
            close()
        else:
            if block:
                close()  # a paragraph line ends a list or a table
            paragraph.append(stripped)
    close()


def _page(title: str, markdown: str, wavedrom_url: str) -> str:
    """The HTML page of `markdown`; it loads the WaveDrom renderer when it has a diagram."""
    body = markdown_to_html(markdown)
    head = [
        "<!DOCTYPE html>",
        "<html>",
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
    ]
    body_tag = "<body>"
    if '<script type="WaveDrom">' in body:
        head.append(f'<script src="{html.escape(wavedrom_url)}"></script>')
        body_tag = '<body onload="WaveDrom.ProcessAll()">'
    return "\n".join(head + ["</head>", body_tag, body, "</body>", "</html>"]) + "\n"


def write_docs(models: list[DocModel], out_dir: Path, wavedrom_url: str = "wavedrom.min.js") -> tuple[list[Path], list[Diagnostic]]:
    """Write <module>.md/.html plus index pages under `out_dir`."""

    def pages():
        for m in models:
            markdown = render_markdown(m)
            yield out_dir / f"{m.name}.md", markdown
            yield out_dir / f"{m.name}.html", _page(m.name, markdown, wavedrom_url)
        yield out_dir / "index.md", render_index_markdown(models)
        yield out_dir / "index.html", _page("Modules", render_index_markdown(models, "html"), wavedrom_url)

    return write_outputs(pages())
