"""Pipeline orchestration shared by the CLI and the test suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import ast
from .analyzer import FfBinding, analyze_unit
from .diagnostics import Diagnostic, has_errors, sorted_diagnostics
from .docgen import DocModel, extract_docs, write_docs
from .emitter import EmitConfig, emit_project
from .lexer import decode_source
from .parser import parse_source
from .project import Lockfile, Manifest, PlanUnit, load_manifest, resolve_dependencies
from .resolver import MonoResult, Symbol, SymbolTable, build_symbols, monomorphize


@dataclass
class LoadedProgram:
    manifest: Manifest | None
    plan: list[PlanUnit] = field(default_factory=list)
    lock: Lockfile = field(default_factory=Lockfile)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def load_program(manifest_path: Path, offline: bool = False) -> LoadedProgram:
    """Manifest + lockfile + dependency resolution + compile order."""
    manifest, diags = load_manifest(manifest_path)
    if manifest is None:
        return LoadedProgram(None, diagnostics=diags)
    lock_path = manifest.root_dir / "vl.lock"
    lock = None
    if lock_path.is_file():
        text, ldiags = decode_source(lock_path.read_bytes(), str(lock_path))
        if not ldiags:  # a lockfile that is not UTF-8 counts as absent
            lock, ldiags = Lockfile.parse(text, str(lock_path))
        diags += ldiags
    plan, new_lock, ddiags = resolve_dependencies(manifest, lock, offline)
    return LoadedProgram(manifest, plan, new_lock, diags + ddiags)


def read_sources(root: Path, is_root: bool = True):
    """(path, file_id, output stem, text, decode diagnostics) of each .vl file
    under `root`/src, recursive, in path order.  The root project's file ids are
    relative to its root; a dependency's are its cache paths."""
    src = root / "src"
    for path in sorted(src.rglob("*.vl")) if src.is_dir() else []:
        rel = path.relative_to(root)
        file_id = str(rel) if is_root else str(path)
        yield path, file_id, str(rel.relative_to("src").with_suffix("")), *decode_source(path.read_bytes(), file_id)


@dataclass
class UnitResult:
    plan: PlanUnit
    files: list[ast.SourceFile] = field(default_factory=list)
    stems: dict[str, str] = field(default_factory=dict)  # file_id -> output stem
    table: SymbolTable | None = None
    # analyze_unit's record: always_ff bindings, and inst target and generic
    # argument modules, keyed by node id
    resolved: dict[int, FfBinding | Symbol] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.plan.name


@dataclass
class ProgramResult:
    units: list[UnitResult] = field(default_factory=list)
    mono: MonoResult | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    source_texts: dict[str, str] = field(default_factory=dict)

    @property
    def root(self) -> UnitResult | None:
        for u in self.units:
            if u.plan.is_root:
                return u
        return None

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


def check_program(loaded: LoadedProgram) -> ProgramResult:
    """Parse, resolve, and analyze every unit in dependency order."""
    result = ProgramResult(diagnostics=list(loaded.diagnostics))
    tables: dict[str, SymbolTable] = {}
    for pu in loaded.plan:
        unit = UnitResult(pu)
        _check_unit(result, unit, read_sources(pu.root, pu.is_root), {name: tables[name] for name in pu.deps})
        tables[pu.name] = unit.table
    return _monomorphize(result)


def check_strings(named_sources: list[tuple[str, str]], name: str = "local") -> ProgramResult:
    """Single-unit pipeline over in-memory sources (test convenience)."""
    result = ProgramResult()
    unit = UnitResult(PlanUnit(name, Path("."), Manifest(name, "0.0.0"), is_root=True))
    sources = [(Path(file_id), file_id, Path(file_id).stem, text, []) for file_id, text in named_sources]
    _check_unit(result, unit, sources, {})
    return _monomorphize(result)


def _check_unit(result: ProgramResult, unit: UnitResult, sources, deps: dict[str, SymbolTable]) -> None:
    """Parse `unit`'s sources (as `read_sources` yields them), index and analyze
    them, and add it to `result`.  A file that did not decode is skipped."""
    for _, file_id, stem, text, ddiags in sources:
        result.source_texts[file_id] = text
        if ddiags:
            result.diagnostics += ddiags
            continue
        sf, pdiags = parse_source(text, file_id)
        result.diagnostics += pdiags
        unit.files.append(sf)
        unit.stems[file_id] = stem
    unit.table, rdiags = build_symbols(unit.files, deps, unit.name)
    result.diagnostics += rdiags
    adiags, unit.resolved = analyze_unit(unit.files, unit.table)
    result.diagnostics += adiags
    result.units.append(unit)


def _monomorphize(result: ProgramResult) -> ProgramResult:
    """Monomorphize the checked units and put all diagnostics in report order."""
    result.mono = monomorphize(result.units)
    result.diagnostics = sorted_diagnostics(result.diagnostics + result.mono.diagnostics)
    return result


def emit_program(result: ProgramResult, out_root: Path) -> tuple[list[Path], list[Diagnostic]]:
    """Write all .sv files plus the name_map.json sidecar under `out_root`."""
    written: list[Path] = []
    diags: list[Diagnostic] = []
    for unit in result.units:
        out_dir = out_root / "sv" if unit.plan.is_root else out_root / "sv" / unit.name
        files = []
        for sf in unit.files:
            items = result.mono.items.get((unit.name, sf.file_id), [])
            files.append((unit.stems[sf.file_id], items))
        config = EmitConfig(unit.plan.manifest.clock_type, unit.plan.manifest.reset_type)
        paths, ediags = emit_project(files, config, unit.resolved, out_dir)
        written += paths
        diags += ediags
        if ediags:
            return written, diags
    out_root.mkdir(parents=True, exist_ok=True)
    name_map_path = out_root / "name_map.json"
    name_map_path.write_text(json.dumps(result.mono.name_map, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(name_map_path)
    return written, diags


def doc_program(result: ProgramResult, out_root: Path) -> tuple[list[Path], list[DocModel], list[Diagnostic]]:
    """Generate documentation pages for the root project's pub modules."""
    root = result.root
    if root is None:
        return [], [], []
    models, diags = extract_docs(root.files)
    written = write_docs(models, out_root / "doc", root.plan.manifest.wavedrom_url)
    return written, models, diags
