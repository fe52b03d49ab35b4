"""Pipeline orchestration shared by the CLI and the test suite."""

from __future__ import annotations

from pathlib import Path

from . import ast
from .analyzer import FfBinding, analyze_unit
from .diagnostics import Diagnostic, has_errors, read_sources, sorted_diagnostics, write_outputs
from .docgen import DocModel, extract_docs, write_docs
from .emitter import EmitConfig, emit_project
from .parser import parse_source
from .project import LoadedProgram, PlanUnit, load_program  # the pipeline's first step, also reached from here
from .record import field, record
from .resolver import MonoResult, Symbol, SymbolTable, build_symbols, monomorphize


@record
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


@record
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


def check_program(loaded: LoadedProgram, sources: list[list] | None = None) -> ProgramResult:
    """Parse, index and analyze every unit in dependency order, then
    monomorphize them and put all diagnostics in report order.  `sources`
    holds each planned unit's `read_sources` tuples, when the caller has read
    them; otherwise they are read here.  A file that did not decode is
    skipped; every later step takes a unit's files in file-id order."""
    result = ProgramResult(diagnostics=list(loaded.diagnostics))
    tables: dict[str, SymbolTable] = {}
    if sources is None:
        sources = [read_sources(pu.root, pu.is_root) for pu in loaded.plan]
    for pu, unit_sources in zip(loaded.plan, sources):
        unit = UnitResult(pu)
        for _, file_id, stem, text, ddiags in unit_sources:
            result.source_texts[file_id] = text
            if ddiags:
                result.diagnostics += ddiags
                continue
            sf, pdiags = parse_source(text, file_id)
            result.diagnostics += pdiags
            unit.files.append(sf)
            unit.stems[file_id] = stem
        unit.files.sort(key=lambda f: f.file_id)
        unit.table, rdiags = build_symbols(unit.files, {name: tables[name] for name in pu.deps}, pu.name)
        tables[pu.name] = unit.table
        adiags, unit.resolved = analyze_unit(unit.files, unit.table)
        result.diagnostics += rdiags + adiags
        result.units.append(unit)
    result.mono = monomorphize(result.units)
    result.diagnostics = sorted_diagnostics(result.diagnostics + result.mono.diagnostics)
    return result


def emit_program(result: ProgramResult, out_root: Path) -> tuple[list[Path], list[Diagnostic]]:
    """Write all .sv files plus the name_map.json sidecar under `out_root`,
    up to the first file that cannot be written."""
    import json

    written: list[Path] = []
    for unit in result.units:
        out_dir = out_root / "sv" if unit.plan.is_root else out_root / "sv" / unit.name
        files = []
        for sf in unit.files:
            items = result.mono.items.get((unit.name, sf.file_id), [])
            files.append((unit.stems[sf.file_id], items))
        config = EmitConfig(unit.plan.manifest.clock_type, unit.plan.manifest.reset_type)
        paths, diags = emit_project(files, config, unit.resolved, out_dir)
        written += paths
        if diags:
            return written, diags
    name_map = {inst.mangled_name: {"template": inst.template.name, "args": list(inst.args)} for inst in result.mono.instances}
    paths, diags = write_outputs([(out_root / "name_map.json", json.dumps(name_map, sort_keys=True, indent=2) + "\n")])
    return written + paths, diags


def doc_program(result: ProgramResult, out_root: Path) -> tuple[list[Path], list[DocModel], list[Diagnostic]]:
    """Generate documentation pages for the root project's pub modules."""
    root = result.root
    if root is None:
        return [], [], []
    models, diags = extract_docs(root.files)
    written, wdiags = write_docs(models, out_root / "doc", root.plan.manifest.wavedrom_url)
    return written, models, diags + wdiags
