"""Project definition files, dependency fetching into a cache, lockfiles, and
the compile plan.

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
class PlanUnit:
    name: str
    root: Path
    manifest: Manifest
    deps: list[str] = field(default_factory=list)  # names of its planned dependencies
    is_root: bool = False


def resolve_dependencies(
    manifest: Manifest,
    lock: Lockfile | None = None,
    offline: bool = False,
) -> tuple[list[PlanUnit], Lockfile, list[Diagnostic]]:
    """One depth-first walk over the dependency graph.  Returns the compile plan
    (each unit after its dependencies, in request order, the root last) and the
    new lockfile.  A cycle is E0405 at the request that closes it; the units on
    or above it stay out of the plan.  A (url, version) that failed is not retried."""
    diags: list[Diagnostic] = []
    locked = lock.by_url() if lock else {}
    plan: list[PlanUnit] = []
    new_lock = Lockfile()
    units: dict[str, PlanUnit | None] = {}  # url -> planned unit, None when on or above a cycle
    walking: set[str] = set()
    blocked: set[str] = set()  # urls on or above a cycle
    failed: set[tuple[str, str]] = set()
    claimed: dict[str, str] = {manifest.name: "the root project"}

    def visit(dep: DepRequest) -> PlanUnit | None:
        if dep.url in walking:
            diags.append(Diagnostic("E0405", f"dependency cycle through {dep.url}", dep.span))
            blocked.add(dep.url)
            return None
        if dep.url in units:
            return units[dep.url]
        if (dep.url, dep.version) in failed:
            return None
        fetched = fetch(dep)
        if fetched is None:
            failed.add((dep.url, dep.version))
            return None
        revision, path, dep_manifest = fetched
        new_lock.entries.append(LockEntry(dep.url, dep.version, revision, dep_manifest.name))
        walking.add(dep.url)
        units[dep.url] = place(dep_manifest, path, dep.url)
        walking.discard(dep.url)
        return units[dep.url]

    def fetch(dep: DepRequest) -> tuple[str, Path, Manifest] | None:
        """(revision, cache path, manifest) of a requested dependency; None after reporting why not."""
        entry = locked.get(dep.url)
        if entry is not None and entry.version == dep.version:
            revision = entry.revision
        else:
            revision, err = _resolve_version(dep)
            if err is not None:
                diags.append(err)
                return None
        path, err = _ensure_cached(dep, revision, offline)
        if err is not None:
            diags.append(err)
            return None
        manifest_path = path / "vl.toml"
        if not manifest_path.is_file():
            diags.append(Diagnostic("E0401", f"dependency {dep.url} has no vl.toml", dep.span))
            return None
        dep_manifest, mdiags = load_manifest(manifest_path)
        diags.extend(mdiags)
        if dep_manifest is None:
            return None
        if dep_manifest.name in claimed:
            msg = f"project name `{dep_manifest.name}` of {dep.url} is already used by {claimed[dep_manifest.name]}"
            diags.append(Diagnostic("E0406", msg, dep.span))
            return None
        claimed[dep_manifest.name] = dep.url
        return revision, path, dep_manifest

    def place(m: Manifest, root: Path, url: str | None) -> PlanUnit | None:
        """Visit `m`'s dependencies, then append its unit to the plan unless one of them is blocked."""
        deps = [u.name for d in m.dependencies if (u := visit(d)) is not None]
        if any(d.url in blocked for d in m.dependencies):
            blocked.add(url)
            return None
        plan.append(PlanUnit(m.name, root, m, deps, is_root=url is None))
        return plan[-1]

    place(manifest, manifest.root_dir, None)
    return plan, new_lock, diags
