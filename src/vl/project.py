"""Project definition files, dependency fetching into a cache, lockfiles, and
build planning.

The manifest `vl.toml` is a TOML subset: `[project]`, `[build]`, and
`[dependencies]` tables with string values only.  Dependencies name a git URL
and an exact version; version `X.Y.Z` resolves to tag `vX.Y.Z` (fallback
`X.Y.Z`).  Fetching shells out to the system `git`.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic
from .lexer import decode_source
from .tokens import Span

CLOCK_TYPES = ("posedge", "negedge")
RESET_TYPES = ("async_low", "async_high", "sync_low", "sync_high")

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_VERSION_RE = re.compile(r"^\d+\.\d+\.\d+$")
_TABLE_RE = re.compile(r"^\[([^\]]+)\]\s*(?:#.*)?$")
_PAIR_RE = re.compile(r'^(?:"([^"]*)"|([A-Za-z0-9_-]+))\s*=\s*"([^"]*)"\s*(?:#.*)?$')


@dataclass
class DepRequest:
    url: str
    version: str
    span: Span


@dataclass
class Manifest:
    name: str
    version: str
    clock_type: str = "posedge"
    reset_type: str = "async_low"
    target_dir: str = "target"
    wavedrom_url: str = "wavedrom.min.js"
    dependencies: list[DepRequest] = field(default_factory=list)
    path: Path | None = None

    @property
    def root_dir(self) -> Path:
        return self.path.parent if self.path is not None else Path(".")


@dataclass(frozen=True)
class LockEntry:
    url: str
    version: str
    revision: str
    name: str


@dataclass
class Lockfile:
    entries: list[LockEntry] = field(default_factory=list)

    def by_url(self) -> dict[str, LockEntry]:
        return {e.url: e for e in self.entries}

    def dump(self) -> str:
        lines = [f"{e.url}\t{e.version}\t{e.revision}\t{e.name}" for e in sorted(self.entries, key=lambda e: e.url)]
        return "\n".join(lines) + "\n" if lines else ""

    @classmethod
    def parse(cls, text: str, file_id: str) -> tuple["Lockfile", list[Diagnostic]]:
        """Entries of a lockfile; a line without four tab-separated fields is E0407 and skipped."""
        entries = []
        diags = []
        offset = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            span = Span(file_id, offset, offset + len(line), lineno, 1)
            offset += len(line) + 1
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                msg = f"malformed lockfile line {lineno}: expected 4 tab-separated fields, got {len(fields)}"
                diags.append(Diagnostic("E0407", msg, span))
                continue
            entries.append(LockEntry(*fields))
        return cls(entries), diags


def load_manifest(path: Path) -> tuple[Manifest | None, list[Diagnostic]]:
    """Parse a vl.toml; unknown keys warn (W0401), structural problems are E0401,
    invalid UTF-8 is E0003."""
    file_id = str(path)
    text, diags = decode_source(path.read_bytes(), file_id)
    if diags:
        return None, diags
    tables: dict[str, dict[str, tuple[str, Span]]] = {}
    table_spans: dict[str, Span] = {}
    current: str | None = None
    offset = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        span = Span(file_id, offset, offset + len(raw), lineno, 1)
        offset += len(raw) + 1
        if not line or line.startswith("#"):
            continue
        m = _TABLE_RE.match(line)
        if m:
            current = m.group(1)
            tables.setdefault(current, {})
            table_spans[current] = span
            continue
        m = _PAIR_RE.match(line)
        if m:
            key = m.group(1) if m.group(1) is not None else m.group(2)
            if current is None:
                diags.append(Diagnostic("E0401", "key outside any table", span))
                continue
            tables[current][key] = (m.group(3), span)
            continue
        diags.append(Diagnostic("E0401", f"malformed manifest line: {line}", span))

    whole = Span(file_id, 0, len(text), 1, 1)
    for name in tables:
        if name not in ("project", "build", "dependencies"):
            diags.append(Diagnostic("W0401", f"unknown table `[{name}]`", table_spans[name]))

    project = tables.get("project")
    if project is None:
        diags.append(Diagnostic("E0401", "missing [project] table", whole))
        return None, diags
    missing = [k for k in ("name", "version") if k not in project]
    if missing:
        diags.append(Diagnostic("E0401", f"[project] is missing required key(s): {', '.join(missing)}", whole))
        return None, diags
    name, name_span = project["name"]
    if not _IDENT_RE.match(name):
        diags.append(Diagnostic("E0401", f"project name `{name}` is not a valid identifier", name_span))
        return None, diags
    version, version_span = project["version"]
    if not _VERSION_RE.match(version):
        diags.append(Diagnostic("E0401", f"project version `{version}` is not of the form X.Y.Z", version_span))
        return None, diags
    for key, (_, span) in project.items():
        if key not in ("name", "version"):
            diags.append(Diagnostic("W0401", f"unknown key `{key}` in [project]", span))

    manifest = Manifest(name, version, path=path)
    build = tables.get("build", {})
    for key, (value, span) in build.items():
        if key == "clock_type":
            if value not in CLOCK_TYPES:
                diags.append(Diagnostic("E0402", f"clock_type must be one of {'/'.join(CLOCK_TYPES)}, got `{value}`", span))
            else:
                manifest.clock_type = value
        elif key == "reset_type":
            if value not in RESET_TYPES:
                diags.append(Diagnostic("E0402", f"reset_type must be one of {'/'.join(RESET_TYPES)}, got `{value}`", span))
            else:
                manifest.reset_type = value
        elif key == "target_dir":
            manifest.target_dir = value
        elif key == "wavedrom_url":
            manifest.wavedrom_url = value
        else:
            diags.append(Diagnostic("W0401", f"unknown key `{key}` in [build]", span))

    for url, (version, span) in tables.get("dependencies", {}).items():
        if not _VERSION_RE.match(version):
            diags.append(Diagnostic("E0401", f"dependency version `{version}` is not of the form X.Y.Z", span))
            continue
        manifest.dependencies.append(DepRequest(url, version, span))
    return manifest, diags


# -- cache and git -------------------------------------------------------------


def cache_root() -> Path:
    env = os.environ.get("VL_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "vl"


def _git(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """All git invocations funnel through here (tests count and stub it)."""
    return subprocess.run(
        ["git", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        check=False,
    )


def _resolve_version(dep: DepRequest) -> tuple[str | None, Diagnostic | None]:
    """Resolve version X.Y.Z to a commit via tag vX.Y.Z, falling back to X.Y.Z."""
    proc = _git(["ls-remote", "--tags", dep.url])
    if proc.returncode != 0:
        return None, Diagnostic("E0403", f"cannot list tags of {dep.url}: {proc.stderr.strip()}", dep.span)
    refs: dict[str, str] = {}
    for line in proc.stdout.splitlines():
        try:
            sha, ref = line.split("\t")
        except ValueError:
            continue
        refs[ref] = sha
    for tag in (f"v{dep.version}", dep.version):
        for ref in (f"refs/tags/{tag}^{{}}", f"refs/tags/{tag}"):
            if ref in refs:
                return refs[ref], None
    return None, Diagnostic("E0403", f"{dep.url} has no tag v{dep.version} or {dep.version}", dep.span)


def _ensure_cached(dep: DepRequest, revision: str, offline: bool) -> tuple[Path | None, Diagnostic | None]:
    """Fetch (url, revision) into the immutable cache; atomic write-then-rename."""
    url_hash = hashlib.sha256(dep.url.encode()).hexdigest()[:16]
    dest = cache_root() / url_hash / revision
    if dest.is_dir():
        return dest, None
    if offline:
        return None, Diagnostic("E0404", f"offline mode: {dep.url}@{revision} is not in the cache", dep.span)
    tmp = cache_root() / f".tmp-{os.getpid()}-{url_hash}-{revision[:12]}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    proc = _git(["clone", "--quiet", dep.url, str(tmp)])
    if proc.returncode != 0:
        return None, Diagnostic("E0403", f"cannot clone {dep.url}: {proc.stderr.strip()}", dep.span)
    proc = _git(["checkout", "--quiet", revision], cwd=tmp)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None, Diagnostic("E0403", f"cannot check out {revision} of {dep.url}", dep.span)
    shutil.rmtree(tmp / ".git", ignore_errors=True)
    dest.parent.mkdir(parents=True, exist_ok=True)
    try:
        os.replace(tmp, dest)
    except OSError:
        # A concurrent build won the rename; the cache entry is equivalent.
        shutil.rmtree(tmp, ignore_errors=True)
    return dest, None


@dataclass
class DependencySource:
    name: str
    url: str
    version: str
    revision: str
    cache_path: Path
    manifest: Manifest


def resolve_dependencies(
    manifest: Manifest,
    lock: Lockfile | None = None,
    offline: bool = False,
) -> tuple[list[DependencySource], Lockfile, list[Diagnostic]]:
    """Resolve the transitive dependency graph and produce the new lockfile."""
    diags: list[Diagnostic] = []
    locked = lock.by_url() if lock else {}
    sources: dict[str, DependencySource] = {}
    claimed: dict[str, str] = {manifest.name: "the root project"}
    stack: list[str] = []

    def visit(dep: DepRequest) -> None:
        if dep.url in stack:
            diags.append(Diagnostic("E0405", f"dependency cycle through {dep.url}", dep.span))
            return
        if dep.url in sources:
            return
        entry = locked.get(dep.url)
        if entry is not None and entry.version == dep.version:
            revision = entry.revision
        else:
            revision, err = _resolve_version(dep)
            if err is not None:
                diags.append(err)
                return
        path, err = _ensure_cached(dep, revision, offline)
        if err is not None:
            diags.append(err)
            return
        manifest_path = path / "vl.toml"
        if not manifest_path.is_file():
            diags.append(Diagnostic("E0401", f"dependency {dep.url} has no vl.toml", dep.span))
            return
        dep_manifest, mdiags = load_manifest(manifest_path)
        diags.extend(mdiags)
        if dep_manifest is None:
            return
        if dep_manifest.name in claimed:
            diags.append(
                Diagnostic(
                    "E0406",
                    f"project name `{dep_manifest.name}` of {dep.url} is already used by {claimed[dep_manifest.name]}",
                    dep.span,
                )
            )
            return
        claimed[dep_manifest.name] = dep.url
        sources[dep.url] = DependencySource(dep_manifest.name, dep.url, dep.version, revision, path, dep_manifest)
        stack.append(dep.url)
        for sub in dep_manifest.dependencies:
            visit(sub)
        stack.pop()

    for dep in manifest.dependencies:
        visit(dep)

    new_lock = Lockfile(
        sorted(
            (LockEntry(s.url, s.version, s.revision, s.name) for s in sources.values()),
            key=lambda e: e.url,
        )
    )
    return list(sources.values()), new_lock, diags


# -- build planning --------------------------------------------------------------


@dataclass
class PlanUnit:
    name: str
    root: Path
    manifest: Manifest
    is_root: bool = False


def build_plan(manifest: Manifest, sources: list[DependencySource]) -> tuple[list[PlanUnit], list[Diagnostic]]:
    """Topological compile order: dependencies first, name as the tie-break."""
    diags: list[Diagnostic] = []
    by_url = {s.url: s for s in sources}
    units = {s.name: PlanUnit(s.name, s.cache_path, s.manifest) for s in sources}
    units[manifest.name] = PlanUnit(manifest.name, manifest.root_dir, manifest, is_root=True)

    def dep_names(m: Manifest) -> list[str]:
        names = []
        for d in m.dependencies:
            src = by_url.get(d.url)
            if src is not None:
                names.append(src.name)
        return names

    edges = {name: set(dep_names(u.manifest)) & set(units) for name, u in units.items()}
    placed: list[PlanUnit] = []
    done: set[str] = set()
    while len(done) < len(units):
        ready = sorted(n for n in units if n not in done and edges[n] <= done)
        if not ready:
            span = manifest.dependencies[0].span if manifest.dependencies else Span(str(manifest.path), 0, 0, 1, 1)
            diags.append(Diagnostic("E0405", "dependency cycle prevents a build order", span))
            break
        for name in ready:
            placed.append(units[name])
            done.add(name)
    return placed, diags
