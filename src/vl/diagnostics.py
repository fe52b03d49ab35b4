"""Coded findings (errors and warnings), their human/JSON renderers, the
UTF-8 decoding and the output writer that every input and output file goes
through, and the root of vl's cache with the sha256 that names its entries."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path

from .record import field, record
from .tokens import Span


@record
class Related:
    message: str
    span: Span


@record
class Diagnostic:
    code: str  # Eddnn / Wddnn
    message: str
    span: Span
    related: list[Related] = field(default_factory=list)

    @property
    def severity(self) -> str:
        return "error" if self.code.startswith("E") else "warning"


def decode_source(data: bytes, file_id: str) -> tuple[str, list[Diagnostic]]:
    """Decode a source file's bytes as UTF-8.

    Invalid UTF-8 is E0003 at the first bad byte; the text returned then has
    U+FFFD for each bad sequence, for excerpts only: the caller skips the file.
    """
    try:
        return data.decode("utf-8"), []
    except UnicodeDecodeError as err:
        good = data[: err.start].decode("utf-8")
        at = len(good)
        span = Span(file_id, at, at + 1, good.count("\n") + 1, at - good.rfind("\n"))
        message = f"invalid UTF-8 (byte 0x{data[err.start]:02x}); the file is skipped"
        return data.decode("utf-8", "replace"), [Diagnostic("E0003", message, span)]


def read_sources(root: Path, is_root: bool = True):
    """(path, file_id, output stem, text, decode diagnostics) of each regular
    .vl file under `root`/src, recursive, in path order.  The root project's
    file ids are relative to its root; a dependency's are its cache paths."""
    src = root / "src"
    for path in sorted(p for p in src.rglob("*.vl") if p.is_file()) if src.is_dir() else []:
        rel = path.relative_to(root)
        file_id = str(rel) if is_root else str(path)
        yield path, file_id, str(rel.relative_to("src").with_suffix("")), *decode_source(path.read_bytes(), file_id)


def cache_root() -> Path:
    """The root of vl's cache: fetched dependencies and `vl fmt`'s markers."""
    env = os.environ.get("VL_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "vl"


# CPython's built-in sha256 where there is one (`_sha2` from 3.12, `_sha256`
# before): `hashlib` also loads OpenSSL, which costs 3.6 MB and 2 ms.
try:
    from _sha2 import sha256 as _new
except ImportError:
    try:
        from _sha256 import sha256 as _new
    except ImportError:
        from hashlib import sha256 as _new


def sha256(data: bytes) -> str:
    """Hex sha256 of `data`: the names of dependency cache entries and of
    `vl fmt`'s markers."""
    return _new(data).hexdigest()


# While a list, `write_outputs` appends each (path, text) it writes to it:
# what a cold `vl build` or `vl doc` stores (see `cli.cmd_compile`).
recorded: list[tuple[Path, str]] | None = None


def write_outputs(outputs: Iterable[tuple[Path, str]]) -> tuple[list[Path], list[Diagnostic]]:
    """The one writer of every output file: write each (path, text) as UTF-8,
    making its directory first.  Stops at the first failure, which is one
    EIO01 at that path; returns the paths written before it."""
    written: list[Path] = []
    for path, text in outputs:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as err:
            return written, [Diagnostic("EIO01", f"cannot write {path}: {err}", Span(str(path), 0, 0, 1, 1))]
        written.append(path)
        if recorded is not None:
            recorded.append((path, text))
    return written, []


def sort_key(d: Diagnostic):
    return (d.span.file_id, d.span.byte_start, d.code)


def sorted_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)


def to_json(diags: list[Diagnostic]) -> str:
    """Encode diagnostics as one JSON array with stable field names."""
    import json

    out = []
    for d in sorted_diagnostics(diags):
        out.append(
            {
                "code": d.code,
                "severity": d.severity,
                "message": d.message,
                "file": d.span.file_id,
                "line": d.span.line,
                "column": d.span.column,
                "related": [
                    {
                        "message": r.message,
                        "file": r.span.file_id,
                        "line": r.span.line,
                        "column": r.span.column,
                    }
                    for r in d.related
                ],
            }
        )
    return json.dumps(out, indent=2) + "\n"


def _excerpt(span: Span, sources: dict[str, str]) -> list[str]:
    src = sources.get(span.file_id)
    if src is None:
        return [f"  --> {span.file_id}:{span.line}:{span.column}"]
    line_start = src.rfind("\n", 0, span.byte_start) + 1
    line_end = src.find("\n", span.byte_start)
    if line_end < 0:
        line_end = len(src)
    text = src[line_start:line_end].removesuffix("\r")
    width = max(1, min(span.byte_end, line_end) - span.byte_start)
    gutter = str(span.line)
    pad = " " * len(gutter)
    caret = " " * (span.byte_start - line_start) + "^" * width
    return [
        f"  --> {span.file_id}:{span.line}:{span.column}",
        f"{pad} |",
        f"{gutter} | {text}",
        f"{pad} | {caret}",
    ]


def _visible(line: str) -> str:
    """`line` with each control, format or line-separator character (Unicode
    Cc/Cf/Zl/Zp) but a tab shown as one U+FFFD: no raw ESC, NUL, line break or
    invisible character reaches the terminal, and the carets under an excerpt
    stay aligned."""
    if line.isprintable():
        return line
    from unicodedata import category

    return "".join("\ufffd" if c != "\t" and category(c) in ("Cc", "Cf", "Zl", "Zp") else c for c in line)


def render_human(d: Diagnostic, sources: dict[str, str]) -> str:
    """One block per finding: severity[code], location, source line, carets."""
    lines = [f"{d.severity}[{d.code}]: {d.message}"]
    lines += _excerpt(d.span, sources)
    for r in d.related:
        lines.append(f"note: {r.message}")
        lines += _excerpt(r.span, sources)
    return "\n".join(map(_visible, lines)) + "\n"
