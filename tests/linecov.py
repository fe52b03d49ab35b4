"""Line coverage of `src/vl` under the in-process test suite, with the
standard library only.

    python tests/linecov.py [pytest arguments]

runs pytest in this interpreter under `sys.settrace` (and
`threading.settrace`), then compares the lines of `src/vl` that ran with the
lines that have bytecode.  It exits 0 when every such line ran or is named in
`ALLOWED`; 1 when a line that is not allowed never ran, or an `ALLOWED` entry
matches no line (the code it excused is gone); and with pytest's own code
when the suite fails.

`ALLOWED` is keyed by module, enclosing function and stripped line text, not
by line number, so an edit above a line does not move its entry.  It names
safety code only: lines that no input reaches in this suite's process on a
working interpreter and file system.  Tests that run vl in a subprocess are
not traced.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vl"

ALLOWED = {
    ("ast.py", "expr_text", 'raise TypeError(f"unexpected expression {e!r}")'): "an unknown expression node",
    ("emitter.py", "_lower_stmt", 'raise TypeError(f"unexpected statement {s!r}")'): "an unknown statement node",
    ("emitter.py", "_emit_module_item", 'raise TypeError(f"unexpected module item {it!r}")'): "an unknown module item",
    ("formatter.py", "emit_module_item", 'raise TypeError(f"unexpected module item {it!r}")'): "an unknown module item",
    ("formatter.py", "emit_stmt", 'raise TypeError(f"unexpected statement {s!r}")'): "an unknown statement node",
    ("diagnostics.py", "<module>", "except ImportError:"): "a CPython without `_sha2` (before 3.12) or `_sha256`",
    ("diagnostics.py", "<module>", "from _sha256 import sha256 as _new"): "a CPython with `_sha2` (3.12 and later)",
    ("diagnostics.py", "<module>", "from hashlib import sha256 as _new"): "a CPython without a built-in sha256 module",
    ("cache.py", "entry_dir", "return None"): "an installed vl without its `.py` sources: no fingerprint, no cache",
    ("project.py", "_resolve_version", "except ValueError:"): "a `git ls-remote` output line without a tab",
    ("project.py", "_resolve_version", "continue"): "a `git ls-remote` output line without a tab",
    ("project.py", "_ensure_cached", "shutil.rmtree(tmp)"): "a temp directory left by an earlier process of the same pid",
    ("project.py", "_ensure_cached", "except OSError:"): "a concurrent fetch renamed its copy into place first",
    ("project.py", "_ensure_cached", "shutil.rmtree(tmp, ignore_errors=True)"): "a concurrent fetch renamed its copy into place first",
    ("cli.py", "<module>", "sys.exit(main())"): "`python -m vl.cli`, run only by subprocess tests",
}


def executable_lines(path: Path) -> dict[int, str]:
    """The lines of `path` that have bytecode, each with the name of the
    innermost function (or `<module>`) it belongs to."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:  # a code object is read before the ones nested in it
        code = stack.pop()
        lines.update((line, code.co_name) for _, _, line in code.co_lines() if line)
        stack += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def line_keys(path: Path) -> dict[int, tuple[str, str, str]]:
    """The `ALLOWED`-style key (module, function, stripped text) of each
    line of `path` that has bytecode."""
    text = path.read_text(encoding="utf-8").splitlines()
    return {n: (path.name, name, text[n - 1].strip()) for n, name in executable_lines(path).items()}


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on `args`, and the lines of each `src/vl` module
    that ran, by module file name."""
    import pytest

    package = os.path.realpath(PACKAGE)
    hits: dict[str, set[int]] = {}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its module's hits, None outside the package

    def lines_of(filename: str) -> set[int] | None:
        if filename not in owner:
            real = os.path.realpath(filename)
            owner[filename] = hits.setdefault(os.path.basename(real), set()) if os.path.dirname(real) == package else None
        return owner[filename]

    def trace(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        rc = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("vl")
    if loaded is None or os.path.dirname(os.path.realpath(loaded.__file__)) != package:
        raise SystemExit(f"linecov: the suite did not import vl from {PACKAGE}")
    return int(rc), hits


def main(argv: list[str]) -> int:
    rc, hits = run_traced([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv])
    if rc != 0:
        print(f"linecov: the suite failed (pytest exit code {rc}); no coverage verdict")
        return rc
    missed, allowed, present = [], 0, set()
    total = ran = 0
    for path in sorted(PACKAGE.glob("*.py")):
        keys = line_keys(path)
        present.update(keys.values())
        done = hits.get(path.name, set())
        total += len(keys)
        ran += len(keys.keys() & done)
        for n in sorted(keys.keys() - done):
            if keys[n] in ALLOWED:
                allowed += 1
            else:
                missed.append(f"src/vl/{path.name}:{n} ({keys[n][1]}): {keys[n][2]}")
    stale = [f"{module} ({name}): {line}" for module, name, line in ALLOWED if (module, name, line) not in present]
    print(f"linecov: {ran} of {total} lines of src/vl ran; {allowed} allowed, {len(missed)} missed")
    for m in missed:
        print(f"  never ran: {m}")
    for s in stale:
        print(f"  allow-list entry matches no line: {s}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
