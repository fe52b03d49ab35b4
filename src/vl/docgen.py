"""Documentation generation: per-module Markdown and HTML pages built from
doc comments, with WaveDrom timing diagrams passed through to the browser."""

from __future__ import annotations

import html
import json
import re
from pathlib import Path

from . import ast
from .ast import expr_text, type_text
from .diagnostics import Diagnostic, write_outputs
from .emitter import lower_type, unpacked_suffix
from .record import field, record


@record
class DocRow:
    name: str
    type_text: str
    extra: str  # default value for params, direction for ports
    doc: str


@record
class DocModel:
    name: str
    visibility: str = "pub"
    # Body in order: ("text", markdown) and ("wave", raw wavedrom json) segments.
    segments: list[tuple[str, str]] = field(default_factory=list)
    params: list[DocRow] = field(default_factory=list)
    ports: list[DocRow] = field(default_factory=list)

    @property
    def body_doc(self) -> str:
        return "\n".join(c for k, c in self.segments if k == "text")

    @property
    def wave_blocks(self) -> list[str]:
        return [c for k, c in self.segments if k == "wave"]


def extract_docs(files: list[ast.SourceFile]) -> tuple[list[DocModel], list[Diagnostic]]:
    """One DocModel per pub module, in declaration order."""
    models: list[DocModel] = []
    diags: list[Diagnostic] = []
    for sf in sorted(files, key=lambda f: f.file_id):
        for item in sf.items:
            if not isinstance(item, ast.ModuleDecl) or not item.is_pub:
                continue
            model = DocModel(item.name)
            if item.doc is not None:
                model.segments = _split_waves(item.doc.text)
                for kind, content in model.segments:
                    if kind == "wave" and not _wave_json_ok(content):
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


def _split_waves(text: str) -> list[tuple[str, str]]:
    segments: list[tuple[str, str]] = []
    text_lines: list[str] = []
    wave_lines: list[str] | None = None

    def flush_text():
        if text_lines:
            segments.append(("text", "\n".join(text_lines)))
            text_lines.clear()

    for line in text.split("\n"):
        if wave_lines is None and line.strip() == "```wavedrom":
            flush_text()
            wave_lines = []
        elif wave_lines is not None and line.strip() == "```":
            segments.append(("wave", "\n".join(wave_lines)))
            wave_lines = None
        elif wave_lines is not None:
            wave_lines.append(line)
        else:
            text_lines.append(line)
    if wave_lines is not None:  # unterminated fence: keep as text
        text_lines.extend(["```wavedrom", *wave_lines])
    flush_text()
    return segments


def _wave_json_ok(text: str) -> bool:
    """Accept strict JSON or WaveDrom's relaxed JS-object-literal style."""
    try:
        json.loads(text)
        return True
    except ValueError:
        pass
    relaxed = text.replace("'", '"')
    relaxed = re.sub(r"([{\[,]\s*)([A-Za-z_]\w*)\s*:", r'\1"\2":', relaxed)
    relaxed = re.sub(r",(\s*[}\]])", r"\1", relaxed)
    try:
        json.loads(relaxed)
        return True
    except ValueError:
        return False


# -- Markdown ------------------------------------------------------------------


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def render_markdown(model: DocModel) -> str:
    out = [f"# {model.name}", ""]
    for kind, content in model.segments:
        if kind == "text":
            out.append(content)
        else:
            out += ["```wavedrom", content, "```"]
    if model.segments:
        out.append("")
    out += ["## Parameters", "", "| Name | Type | Default | Description |", "| --- | --- | --- | --- |"]
    for r in model.params:
        out.append(f"| {_cell(r.name)} | {_cell(r.type_text)} | {_cell(r.extra)} | {_cell(r.doc)} |")
    out += ["", "## Ports", "", "| Name | Direction | Type | Description |", "| --- | --- | --- | --- |"]
    for r in model.ports:
        out.append(f"| {_cell(r.name)} | {_cell(r.extra)} | {_cell(r.type_text)} | {_cell(r.doc)} |")
    return "\n".join(out) + "\n"


def render_index_markdown(models: list[DocModel]) -> str:
    out = ["# Modules", ""]
    for m in sorted(models, key=lambda m: m.name):
        out.append(f"- [{m.name}]({m.name}.md)")
    return "\n".join(out) + "\n"


# -- HTML ----------------------------------------------------------------------


_INLINE_RULES = [
    (re.compile(r"\*\*([^*]+)\*\*"), r"<strong>\1</strong>"),
    (re.compile(r"\*([^*]+)\*"), r"<em>\1</em>"),
    (re.compile(r"`([^`]+)`"), r"<code>\1</code>"),
    (re.compile(r"\[([^\]]+)\]\(([^)]+)\)"), r'<a href="\2">\1</a>'),
]


def _inline(text: str) -> str:
    out = html.escape(text, quote=False)
    for rx, repl in _INLINE_RULES:
        out = rx.sub(repl, out)
    return out


def markdown_to_html(text: str) -> str:
    """Block/inline subset: headings, paragraphs, fences, lists, emphasis, links."""
    out: list[str] = []
    paragraph: list[str] = []
    in_list: str | None = None
    fence: list[str] | None = None

    def close_paragraph():
        if paragraph:
            out.append("<p>" + " ".join(_inline(l) for l in paragraph) + "</p>")
            paragraph.clear()

    def close_list():
        nonlocal in_list
        if in_list:
            out.append(f"</{in_list}>")
            in_list = None

    for line in text.split("\n"):
        stripped = line.strip()
        if fence is not None:
            if stripped.startswith("```"):
                out.append("<pre><code>" + html.escape("\n".join(fence)) + "</code></pre>")
                fence = None
            else:
                fence.append(line)
            continue
        if stripped.startswith("```"):
            close_paragraph()
            close_list()
            fence = []
            continue
        m = re.match(r"(#{1,6})\s+(.*)$", stripped)
        if m:
            close_paragraph()
            close_list()
            out.append(f"<h{len(m.group(1))}>{_inline(m.group(2))}</h{len(m.group(1))}>")
            continue
        m = re.match(r"[-*]\s+(.*)$", stripped)
        if m:
            close_paragraph()
            if in_list != "ul":
                close_list()
                out.append("<ul>")
                in_list = "ul"
            out.append(f"<li>{_inline(m.group(1))}</li>")
            continue
        m = re.match(r"\d+\.\s+(.*)$", stripped)
        if m:
            close_paragraph()
            if in_list != "ol":
                close_list()
                out.append("<ol>")
                in_list = "ol"
            out.append(f"<li>{_inline(m.group(1))}</li>")
            continue
        if not stripped:
            close_paragraph()
            close_list()
            continue
        paragraph.append(stripped)
    if fence is not None:
        out.append("<pre><code>" + html.escape("\n".join(fence)) + "</code></pre>")
    close_paragraph()
    close_list()
    return "\n".join(out)


def _html_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>" for h in headers) + "</tr>"]
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{html.escape(c, quote=False)}</td>" for c in row) + "</tr>")
    out.append("</table>")
    return out


def _page(title: str, body: list[str], wavedrom_url: str, with_wavedrom: bool) -> str:
    head = [
        "<!DOCTYPE html>",
        "<html>",
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
    ]
    if with_wavedrom:
        head.append(f'<script src="{html.escape(wavedrom_url)}"></script>')
        head.append('</head>')
        head.append('<body onload="WaveDrom.ProcessAll()">')
    else:
        head.append("</head>")
        head.append("<body>")
    return "\n".join(head + body + ["</body>", "</html>"]) + "\n"


def render_html(model: DocModel, wavedrom_url: str = "wavedrom.min.js") -> str:
    body = [f"<h1>{html.escape(model.name)}</h1>"]
    for kind, content in model.segments:
        if kind == "text":
            converted = markdown_to_html(content)
            if converted:
                body.append(converted)
        else:
            body.append('<script type="WaveDrom">')
            body.append(content)
            body.append("</script>")
    body.append("<h2>Parameters</h2>")
    body += _html_table(
        ["Name", "Type", "Default", "Description"],
        [[r.name, r.type_text, r.extra, r.doc] for r in model.params],
    )
    body.append("<h2>Ports</h2>")
    body += _html_table(
        ["Name", "Direction", "Type", "Description"],
        [[r.name, r.extra, r.type_text, r.doc] for r in model.ports],
    )
    return _page(model.name, body, wavedrom_url, with_wavedrom=bool(model.wave_blocks))


def render_index_html(models: list[DocModel], wavedrom_url: str = "wavedrom.min.js") -> str:
    body = ["<h1>Modules</h1>", "<ul>"]
    for m in sorted(models, key=lambda m: m.name):
        body.append(f'<li><a href="{m.name}.html">{html.escape(m.name)}</a></li>')
    body.append("</ul>")
    return _page("Modules", body, wavedrom_url, with_wavedrom=False)


def write_docs(models: list[DocModel], out_dir: Path, wavedrom_url: str = "wavedrom.min.js") -> tuple[list[Path], list[Diagnostic]]:
    """Write <module>.md/.html plus index pages under `out_dir`."""

    def pages():
        for m in models:
            yield out_dir / f"{m.name}.md", render_markdown(m)
            yield out_dir / f"{m.name}.html", render_html(m, wavedrom_url)
        yield out_dir / "index.md", render_index_markdown(models)
        yield out_dir / "index.html", render_index_html(models, wavedrom_url)

    return write_outputs(pages())
