"""Command-line entry point: `vl new|check|build|fmt|doc|update`.

Each command reports its diagnostics once, at its end: human-readable to
stderr, or with `--format json` one JSON array to stdout.  Exit codes: 0 no
errors, 1 error diagnostics, 2 usage, config or output (EIO01) failure.

Each command imports only the modules it runs: `update` needs only the
package layer (`project`) and never loads the compiler; `fmt` needs the lexer,
parser and formatter, and never loads the driver and the layers under it.

All but `update` and `new` keep what they found under the cache root (see
`cache`).  `fmt` skips the texts it has already found canonical, and
`fmt --check` also those it has already found to drift: when every file has
an entry, it loads neither the lexer, the parser nor the formatter.
`check`, `build` and `doc` replay their last result on a project when none
of its inputs changed: the output files, stdout, stderr and exit code.  Then
they load only the package layer, diagnostics and `cache`, and none of the
driver, the compiler under it or `json`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic, _visible, has_errors, read_sources, render_human, sha256, sorted_diagnostics, to_json, write_outputs


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
    check.set_defaults(func=cmd_compile, out=None)

    build = sub.add_parser("build", help="check and transpile to SystemVerilog")
    common(build, out=True)
    build.set_defaults(func=cmd_compile)

    fmt = sub.add_parser("fmt", help="rewrite sources to canonical form")
    common(fmt)
    fmt.add_argument("--check", action="store_true", help="exit nonzero if formatting would change files")
    fmt.set_defaults(func=cmd_fmt)

    doc = sub.add_parser("doc", help="generate module documentation")
    common(doc, out=True)
    doc.set_defaults(func=cmd_compile)

    update = sub.add_parser("update", help="resolve dependencies and write vl.lock")
    common(update)
    update.set_defaults(func=cmd_update)
    return p


def report(diags: list[Diagnostic], sources: dict[str, str], mode: str) -> int:
    out, err, rc = render(diags, sources, mode)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return rc


def render(diags: list[Diagnostic], sources: dict[str, str], mode: str) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of a command that found `diags`."""
    if mode == "json":
        out, err = to_json(diags), ""  # which sorts them
    else:
        out, err = "", "".join(render_human(d, _with_files(sources, d)) + "\n" for d in sorted_diagnostics(diags))
    if any(d.code == "EIO01" for d in diags):
        return out, err, 2
    return out, err, 1 if has_errors(diags) else 0


def _with_files(sources: dict[str, str], d: Diagnostic) -> dict[str, str]:
    """Lazily pull in on-disk files (manifests, cached deps) for excerpts."""
    for span in [d.span] + [r.span for r in d.related]:
        if span.file_id not in sources:
            path = Path(span.file_id)
            if path.is_file():
                sources[span.file_id] = path.read_bytes().decode("utf-8", "replace")
    return sources


def cmd_compile(args) -> int:
    """`check`, `build` and `doc`.  A run replays its command's last result
    on the project when no input changed (see `cache`): it writes the stored
    outputs under this run's out root, then the stored stdout and stderr."""
    from . import cache
    from .project import load_program

    loaded = load_program(args.manifest, offline=args.offline)
    sources = [list(read_sources(pu.root, pu.is_root)) for pu in loaded.plan]
    # Only a run without a load or decoding diagnostic has an entry.
    cacheable = not loaded.diagnostics and not any(ddiags for unit in sources for *_, ddiags in unit)
    entry = cacheable and cache.run_entry(args.command, loaded.manifest.root_dir, args.format)
    key = entry and _check_key(loaded, sources)
    hit = key and cache.replay(entry, key)
    out_root = args.out or loaded.manifest and loaded.manifest.root_dir / loaded.manifest.target_dir
    # A replay that cannot write its outputs runs cold, which reports the EIO01 with the rest.
    if hit and not write_outputs((out_root / name, text) for name, text in hit[3])[1]:
        out, err, rc, _ = hit
    else:
        from . import diagnostics
        from .driver import check_program

        result = check_program(loaded, sources)
        diags = result.diagnostics
        diagnostics.recorded = written = []
        try:
            if args.command == "build" and result.ok:  # a manifest that did not load is an error
                from .driver import emit_program

                diags = diags + emit_program(result, out_root)[1]
            elif args.command == "doc" and loaded.manifest is not None:
                from .driver import doc_program

                # Docs need only parse+resolution; they are written even when the
                # analyzer reports errors (the exit code still reflects them).
                diags = diags + doc_program(result, out_root)[2]
        finally:
            diagnostics.recorded = None
        texts = result.source_texts
        # An excerpt of a file the key does not cover comes from disk: no entry.
        covered = all(s.file_id in texts for d in diags for s in [d.span, *(r.span for r in d.related)])
        out, err, rc = render(diags, texts, args.format)
        if key and covered:
            cache.store(entry, key, out, err, rc, [(str(path.relative_to(out_root)), text) for path, text in written])
    sys.stdout.write(out)
    sys.stderr.write(err)
    return rc


def _check_key(loaded, sources) -> str:
    """The sha256 of what a check, build or doc without load or decoding
    diagnostics reads, beyond vl itself, the command and the format that name
    the entry: the compile plan, each unit with its manifest as parsed
    (clock and reset type, target directory, WaveDrom URL) and its root (a
    dependency's names its revision), and each source's file id and text."""
    texts = [[(file_id, sha256(text.encode("utf-8"))) for _, file_id, _, text, _ in unit] for unit in sources]
    return sha256(repr((loaded.plan, texts)).encode("utf-8"))


def cmd_update(args) -> int:
    from .project import load_program

    loaded = load_program(args.manifest, offline=args.offline)
    diags = loaded.diagnostics
    if loaded.manifest is not None:
        diags = diags + write_outputs([(loaded.manifest.root_dir / "vl.lock", loaded.lock.dump())])[1]
    rc = report(diags, {}, args.format)
    return 2 if loaded.manifest is None else rc


def cmd_fmt(args) -> int:
    from . import cache

    diags: list[Diagnostic] = []
    sources: dict[str, str] = {}
    changed: list[Path] = []
    marks = cache.entry_dir("fmt")
    # (path, file_id, text, marker) of each file not known to be canonical, in
    # `read_sources` order; text None: `--check` knows it drifts
    todo = []
    for path, file_id, _, text, ddiags in read_sources(args.manifest.parent):
        sources[file_id] = text
        if ddiags:
            diags += ddiags
            continue
        marker = marks and marks / sha256(text.encode("utf-8"))
        if not (marker and os.path.exists(marker)):
            drifts = args.check and marker and os.path.exists(cache.drift(marker))
            todo.append((path, file_id, None if drifts else text, marker))
    if any(text is not None for _, _, text, _ in todo):
        from .formatter import format_source
        from .parser import parse_source
    for path, file_id, text, marker in todo:
        if text is None:
            changed.append(path)
            continue
        sf, pdiags = parse_source(text, file_id)
        if pdiags:
            diags += pdiags
            continue
        formatted = format_source(sf)
        if formatted != text:
            changed.append(path)
            if marker:
                cache.mark(cache.drift(marker))
            if not args.check:
                diags += write_outputs([(path, formatted)])[1]
        elif marker:
            cache.mark(marker)
    rc = report(diags, sources, args.format)
    if args.check and changed:
        for path in changed:
            print(path)
        return 1
    return rc


def cmd_new(args) -> int:
    from .tokens import is_identifier

    name = args.name
    if not is_identifier(name):
        print(_visible(f"error: `{name}` is not a valid project name"), file=sys.stderr)
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
