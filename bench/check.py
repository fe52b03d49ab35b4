"""Output checks against the generator's answers, and output digests.

Emitted SystemVerilog is read back with the repository's independent reader
(`tests/svread.py`), which shares no code with the emitter.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from gen import SvModule, Workload

_HUMAN_HEAD = re.compile(r"^(?:error|warning)\[(\w+)\]: ", re.M)


def digest_tree(root: Path) -> str:
    """sha256 over (relative path, bytes) of every file under `root`."""
    h = hashlib.sha256()
    if root.is_dir():
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sv_shapes(text: str, svread) -> dict[str, SvModule]:
    shapes = {}
    for m in svread.parse_sv(text):
        ff = [p for p in m.processes if p.kind == "ff"]
        shapes[m.name] = SvModule(
            tuple((d, name) for d, _, name, _ in m.ports),
            tuple(tuple(p.sensitivity) for p in ff),
            tuple(sorted(i.type for i in m.insts)),
        )
    return shapes


def check_build(wl: Workload, rc: int, out: Path, svread) -> list[str]:
    """`vl build`: exit code, every emitted module's shape, and name_map.json."""
    want_rc = 1 if wl.has_errors else 0
    if rc != want_rc:
        return [f"build exited {rc}, expected {want_rc}"]
    if want_rc:
        return ["build wrote SystemVerilog despite errors"] if (out / "sv").exists() else []
    problems = []
    got = {str(p.relative_to(out)): p for p in (out / "sv").rglob("*.sv")}
    if sorted(got) != sorted(wl.sv):
        problems.append(f"emitted files {sorted(set(got) ^ set(wl.sv))} differ from the expected set")
    for rel, want in wl.sv.items():
        if rel in got:
            try:
                shapes = sv_shapes(got[rel].read_text(encoding="utf-8"), svread)
            except (AssertionError, IndexError) as err:  # svread rejects the text
                problems.append(f"{rel}: unreadable SystemVerilog ({err})")
                continue
            if shapes != want:
                bad = sorted(n for n in set(shapes) | set(want) if shapes.get(n) != want.get(n))
                problems.append(f"{rel}: modules {bad[:3]} differ from the model")
    path = out / "name_map.json"
    name_map = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
    if name_map != wl.name_map:
        problems.append(f"name_map.json differs from the {len(wl.name_map)} expected (template, argument) pairs")
    return problems


def check_diags(wl: Workload, rc: int, stdout: str) -> list[str]:
    """`vl check --format json`: exit code and the (file, line, code) set."""
    want_rc = 1 if wl.has_errors else 0
    problems = [] if rc == want_rc else [f"check exited {rc}, expected {want_rc}"]
    try:
        got = sorted((d["file"], d["line"], d["code"]) for d in json.loads(stdout))
    except (ValueError, TypeError, KeyError):
        return problems + ["check printed no JSON array of diagnostics"]
    if got != wl.diags:
        problems.append(f"diagnostics {sorted(set(got) ^ set(wl.diags))[:4]} differ from the seeded set")
    return problems


def check_human(wl: Workload, stderr: str) -> list[str]:
    """Human-rendered diagnostics: one header per expected finding."""
    got = sorted(_HUMAN_HEAD.findall(stderr))
    want = sorted(code for _, _, code in wl.diags)
    return [] if got == want else [f"human diagnostics {got[:4]}... differ from the seeded codes"]


def check_fmt(wl: Workload, rc: int, stdout: str) -> list[str]:
    """`vl fmt --check`: exit 1 listing exactly the drifted files, else exit 0."""
    want_rc = 1 if wl.unformatted else 0
    listed = sorted(stdout.split())
    problems = [] if rc == want_rc else [f"fmt --check exited {rc}, expected {want_rc}"]
    if listed != sorted(wl.unformatted):
        problems.append(f"fmt --check listed {listed}, expected {sorted(wl.unformatted)}")
    return problems


def check_doc(wl: Workload, rc: int, doc_dir: Path) -> list[str]:
    """`vl doc`: exit code follows the errors; pages are written regardless."""
    want_rc = 1 if wl.has_errors else 0
    problems = [] if rc == want_rc else [f"doc exited {rc}, expected {want_rc}"]
    pages = {p.name for p in doc_dir.iterdir()} if doc_dir.is_dir() else set()
    if pages != wl.doc_pages:
        problems.append(f"doc pages {sorted(pages ^ wl.doc_pages)[:4]} differ from the pub modules")
    return problems
