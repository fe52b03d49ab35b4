"""Command-line entry point: `vl new|check|build|fmt|doc|update`.

Human-readable diagnostics go to stderr; `--format json` prints one JSON
array to stdout.  Exit codes: 0 no errors, 1 error diagnostics, 2 usage or
IO/config failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import Diagnostic, has_errors, render_human, sorted_diagnostics, to_json
from .driver import check_program, doc_program, emit_program, load_program, read_sources
from .formatter import format_source
from .parser import parse_source
from .project import _IDENT_RE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "new" and not args.manifest.is_file():
            print(f"error: manifest not found: {args.manifest}", file=sys.stderr)
            return 2
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # last resort: exit 2 with one line, never a traceback
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vl", description="vl hardware description language toolchain")
    sub = p.add_subparsers(dest="command", required=True)

    new = sub.add_parser("new", help="scaffold a new project")
    new.add_argument("name")
    new.set_defaults(func=cmd_new)

    def common(cmd, out=False):
        cmd.add_argument("--manifest", type=Path, default=Path("vl.toml"))
        cmd.add_argument("--offline", action="store_true")
        cmd.add_argument("--format", choices=("human", "json"), default="human")
        if out:
            cmd.add_argument("--out", type=Path, default=None)

    check = sub.add_parser("check", help="run all semantic checks")
    common(check)
    check.set_defaults(func=cmd_check)

    build = sub.add_parser("build", help="check and transpile to SystemVerilog")
    common(build, out=True)
    build.set_defaults(func=cmd_build)

    fmt = sub.add_parser("fmt", help="rewrite sources to canonical form")
    common(fmt)
    fmt.add_argument("--check", action="store_true", help="exit nonzero if formatting would change files")
    fmt.set_defaults(func=cmd_fmt)

    doc = sub.add_parser("doc", help="generate module documentation")
    common(doc, out=True)
    doc.set_defaults(func=cmd_doc)

    update = sub.add_parser("update", help="resolve dependencies and write vl.lock")
    common(update)
    update.set_defaults(func=cmd_update)
    return p


def report(diags: list[Diagnostic], sources: dict[str, str], mode: str) -> int:
    diags = sorted_diagnostics(diags)
    if mode == "json":
        sys.stdout.write(to_json(diags))
    else:
        for d in diags:
            sys.stderr.write(render_human(d, _with_files(sources, d)) + "\n")
    return 1 if has_errors(diags) else 0


def _with_files(sources: dict[str, str], d: Diagnostic) -> dict[str, str]:
    """Lazily pull in on-disk files (manifests, cached deps) for excerpts."""
    for span in [d.span] + [r.span for r in d.related]:
        if span.file_id not in sources:
            path = Path(span.file_id)
            if path.is_file():
                sources[span.file_id] = path.read_bytes().decode("utf-8", "replace")
    return sources


def _pipeline(args):
    loaded = load_program(args.manifest, offline=args.offline)
    return loaded, check_program(loaded)


def _out_root(args, loaded) -> Path:
    if args.out is not None:
        return args.out
    manifest = loaded.manifest
    return manifest.root_dir / manifest.target_dir


def cmd_check(args) -> int:
    _, result = _pipeline(args)
    return report(result.diagnostics, result.source_texts, args.format)


def cmd_build(args) -> int:
    loaded, result = _pipeline(args)
    rc = report(result.diagnostics, result.source_texts, args.format)
    if rc != 0 or loaded.manifest is None:
        return rc
    _, ediags = emit_program(result, _out_root(args, loaded))
    if ediags:
        report(ediags, result.source_texts, args.format)
        return 2
    return 0


def cmd_doc(args) -> int:
    loaded, result = _pipeline(args)
    diags = list(result.diagnostics)
    if loaded.manifest is not None:
        # Docs need only parse+resolution; they are written even when the
        # analyzer reports errors (the exit code still reflects them).
        _, _, ddiags = doc_program(result, _out_root(args, loaded))
        diags += ddiags
    return report(diags, result.source_texts, args.format)


def cmd_update(args) -> int:
    loaded = load_program(args.manifest, offline=args.offline)
    rc = report(loaded.diagnostics, {}, args.format)
    if loaded.manifest is None:
        return 2
    lock_path = loaded.manifest.root_dir / "vl.lock"
    lock_path.write_text(loaded.lock.dump(), encoding="utf-8")
    return rc


def cmd_fmt(args) -> int:
    diags: list[Diagnostic] = []
    sources: dict[str, str] = {}
    changed: list[Path] = []
    for path, file_id, _, text, ddiags in read_sources(args.manifest.parent):
        sources[file_id] = text
        if ddiags:
            diags += ddiags
            continue
        sf, pdiags = parse_source(text, file_id)
        if pdiags:
            diags += pdiags
            continue
        formatted = format_source(sf)
        if formatted != text:
            changed.append(path)
            if not args.check:
                path.write_text(formatted, encoding="utf-8")
    rc = report(diags, sources, args.format)
    if args.check and changed:
        for path in changed:
            print(path)
        return 1
    return rc


def cmd_new(args) -> int:
    name = args.name
    if not _IDENT_RE.match(name):
        print(f"error: `{name}` is not a valid project name", file=sys.stderr)
        return 2
    target = Path(name)
    if target.exists():
        print(f"error: `{target}` already exists", file=sys.stderr)
        return 2
    (target / "src").mkdir(parents=True)
    (target / "vl.toml").write_text(
        f'[project]\nname = "{name}"\nversion = "0.1.0"\n\n'
        '[build]\nclock_type = "posedge"\nreset_type = "async_low"\n',
        encoding="utf-8",
    )
    (target / "src" / "main.vl").write_text("pub module Main () {\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
