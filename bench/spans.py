"""Traced in-process run: per-layer time and work, measured from outside.

One pass calls the program's own pipeline once, in the order `vl.cli`
uses it: `driver.load_program`, `driver.check_program`, the diagnostics
renderers, `driver.emit_program` (when there are no errors),
`formatter.format_source` on the root files and `driver.doc_program`.
For a traced pass, each layer function is replaced, under the name the
program looks it up by, with a wrapper that records a span (name, start,
end, parent, run id) around the call; the originals are put back after the
pass.  Spans stay in memory and are written out once, at the end of the run.

Passes alternate with tracing off and on; the difference of their medians is
the tracing overhead.  The same passes on the workload generated at one
eighth of the per-file size give the `*.growth` ratios.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
from gen import Workload

# Traced layer functions: (module, attribute the program calls it by, span
# name, work counters taken from its result after the span has ended).
PATCHES = (
    ("vl.parser", "scan", "lexer.scan", lambda r: {"lexer.tokens": len(r.tokens), "parser.doc_comments": len(r.doc_comments)}),
    ("vl.parser", "parse", "parser.parse", None),
    ("vl.driver", "parse_source", "parser.parse_source", None),
    ("vl.driver", "build_symbols", "resolver.symbols", None),
    ("vl.driver", "analyze_unit", "analyzer.analyze", lambda r: {"analyzer.diagnostics": len(r[0])}),
    ("vl.driver", "monomorphize", "resolver.mono", None),
    ("vl.driver", "emit_project", "emitter.emit", None),
    ("vl.driver", "extract_docs", "docgen.extract", None),
    ("vl.driver", "write_docs", "docgen.write", None),
)
# Per-layer time metrics: metric name -> the span names it sums.
TIMES = {
    "project.load_s": ("project.load",),
    "lexer.scan_s": ("lexer.scan",),
    "parser.parse_s": ("parser.parse",),
    "resolver.symbols_s": ("resolver.symbols",),
    "analyzer.analyze_s": ("analyzer.analyze",),
    "resolver.mono_s": ("resolver.mono",),
    "diagnostics.render_s": ("diagnostics.to_json", "diagnostics.render_human"),
    "emitter.emit_s": ("emitter.emit",),
    "formatter.format_s": ("formatter.format",),
    "docgen.extract_s": ("docgen.extract",),
    "docgen.write_s": ("docgen.write",),
}
LAYERS = ("cli", "project", "lexer", "parser", "resolver", "analyzer", "diagnostics", "emitter", "formatter", "docgen")
# ns/byte metrics: (layer, time metric, input-bytes counter)
PER_BYTE = (("lexer", "lexer.scan_s", "bytes"), ("parser", "parser.parse_s", "bytes"), ("formatter", "formatter.format_s", "fmt_bytes"))
COUNTS = (
    ("lexer.tokens", "count"),
    ("parser.doc_comments", "count"),
    ("resolver.symbols", "count"),
    ("resolver.mono_instances", "count"),
    ("resolver.mono_items_out", "count"),
    ("resolver.mono_shared_frac", "ratio"),
    ("analyzer.diagnostics", "count"),
    ("emitter.bytes_out", "B"),
    ("emitter.modules_out", "count"),
    ("docgen.pages", "count"),
    ("diagnostics.count", "count"),
    ("project.units", "count"),
    ("project.git_calls", "count"),
)
SMALL_SCALE = 8
SMALL_PASSES = 5


class Tracer:
    """Spans as (name, start ns, end ns, parent index, run id); off = plain calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else None, self.run_id])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def patched(self):
        """While enabled, route the program's calls of each `PATCHES` function through `call`."""
        saved = []
        try:
            for module_name, attr, span, counter in PATCHES if self.enabled else ():
                module = importlib.import_module(module_name)
                real = getattr(module, attr)
                saved.append((module, attr, real))
                setattr(module, attr, self._wrap(span, real, counter))
            yield
        finally:
            for module, attr, real in saved:
                setattr(module, attr, real)

    def _wrap(self, span: str, real, counter):
        @functools.wraps(real)
        def traced(*args, **kwargs):
            result = self.call(span, real, *args, **kwargs)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def self_times(self, run_id: int) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        own = {}
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id:
                own[i] = [name.split(".")[0], end - start]
        for i, (_, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id and parent is not None:
                own[parent][1] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, ns in own.values():
            out[layer] += ns / 1e9
        return out


def _shared_items(mono, units) -> tuple[int, int]:
    """(module items out, of which the same object as in the source module)."""
    from vl import ast

    sources = {(u.name, m.name): m for u in units for sf in u.files for m in sf.items if isinstance(m, ast.ModuleDecl)}
    sources.update({(i.unit, i.mangled_name): i.template for i in mono.instances})
    total = shared = 0
    for (unit, _), items in mono.items.items():
        for m in items:
            if isinstance(m, ast.ModuleDecl):
                src = {id(it) for it, _ in ast.iter_module_items(sources[unit, m.name].body)}
                for it, _ in ast.iter_module_items(m.body):
                    total += 1
                    shared += id(it) in src
    return total, shared


class CountingGit:
    """Stands in for `vl.project._git`, the seam all git calls go through."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.real(*args, **kwargs)


def run_pass(root: Path, out: Path, t: Tracer) -> dict:
    """One pass of the program's pipeline, writing build and doc output under `out`."""
    from vl import diagnostics, driver, formatter

    loaded = t.call("project.load", driver.load_program, root / "vl.toml", True)
    result = t.call("cli.check", driver.check_program, loaded)
    diags, texts = result.diagnostics, result.source_texts
    got = {
        "loaded": loaded,
        "result": result,
        "json": t.call("diagnostics.to_json", diagnostics.to_json, diags),
        "human": t.call("diagnostics.render_human", lambda: "".join(diagnostics.render_human(d, texts) + "\n" for d in diags)),
        "written": [],
        "emit_diags": [],
    }
    if result.ok:
        got["written"], got["emit_diags"] = t.call("cli.emit", driver.emit_program, result, out)
    got["formatted"] = [t.call("formatter.format", formatter.format_source, sf) for sf in result.root.files]
    got["pages"], _, got["doc_diags"] = t.call("cli.doc", driver.doc_program, result, out)
    return got


def work_counts(got: dict) -> dict:
    """Work counters of one pass, read from its outputs after the pass."""
    from vl import ast

    loaded, result = got["loaded"], got["result"]
    units, mono = result.units, result.mono
    c = {"bytes": sum(len(text) for text in result.source_texts.values())}
    c["fmt_bytes"] = sum(len(sf.text) for sf in result.root.files)
    c["project.units"] = len(loaded.plan)
    c["diagnostics.count"] = len(result.diagnostics)
    c["resolver.symbols"] = sum(
        len(s.entries)
        for u in units
        for s in [u.table.project, *u.table.module_scopes.values(), *u.table.package_scopes.values(), *u.table.function_scopes.values()]
    )
    c["resolver.mono_instances"] = len(mono.instances)
    c["resolver.mono_items_out"], shared = _shared_items(mono, units)
    c["resolver.mono_shared_frac"] = shared / max(1, c["resolver.mono_items_out"])
    c["emitter.bytes_out"] = sum(p.stat().st_size for p in got["written"] if p.suffix == ".sv")
    c["emitter.modules_out"] = sum(isinstance(m, ast.ModuleDecl) for items in mono.items.values() for m in items)
    c["docgen.pages"] = len(got["pages"])
    return c


def verify(wl: Workload, out: Path, got: dict, svread) -> tuple[list[str], dict[str, str]]:
    """Check one pass's outputs against the generator; returns (problems, digests)."""
    from vl.diagnostics import has_errors

    errors = int(not got["result"].ok)
    build_rc = 2 if got["emit_diags"] else errors  # the exit codes `vl build` would give
    drifted = [sf.file_id for sf, text in zip(got["result"].root.files, got["formatted"]) if text != sf.text]
    problems = check.check_diags(wl, errors, got["json"]) + check.check_human(wl, got["human"])
    problems += check.check_build(wl, build_rc, out, svread)
    problems += check.check_fmt(wl, int(bool(drifted)), "\n".join(drifted))
    problems += check.check_doc(wl, int(errors or has_errors(got["doc_diags"])), out / "doc")
    name_map = out / "name_map.json"
    digests = {
        "sv": check.digest_tree(out / "sv"),
        "name_map": check.digest_text(name_map.read_text(encoding="utf-8")) if name_map.is_file() else "",
        "fmt": check.digest_text("".join(got["formatted"])),
        "diagnostics": check.digest_text(got["json"]),
    }
    return problems, digests


def _import_seconds(env: dict, pairs: int = 5) -> float:
    """`import vl.cli` in a fresh interpreter, minus a bare interpreter start."""
    walls = {"import vl.cli": [], "pass": []}
    for _ in range(pairs):
        for code in walls:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls[code].append(time.perf_counter() - t0)
    return statistics.median(walls["import vl.cli"]) - statistics.median(walls["pass"])


def run_traced(name: str, seed: int, seconds: float, svread, out_dir: Path) -> tuple[dict, int, int]:
    import run
    from vl import project

    attempted = failed = 0
    digests: dict[str, str] = {}

    def one_pass(wl, root, tracer, label) -> dict:
        nonlocal attempted, failed
        out = root.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        tracer.run_id += 1
        tracer.counts.clear()
        git_before = git.calls
        with tracer.patched():
            t0 = time.perf_counter_ns()
            got = tracer.call("cli.pass", run_pass, root, out, tracer)
            counters = {"wall_s": (time.perf_counter_ns() - t0) / 1e9}
        if tracer.enabled:
            counters.update(work_counts(got) | tracer.counts | _span_sums(tracer, tracer.run_id))
            counters["project.git_calls"] = git.calls - git_before
            counters.update({f"{layer}.self_s": s for layer, s in tracer.self_times(tracer.run_id).items()})
        problems, dig = verify(wl, out, got, svread)
        for key, value in dig.items():
            if digests.setdefault(f"{label}.{key}", value) != value:
                problems.append(f"{key} digest changed between passes")
        attempted += 1
        if problems:
            failed += 1
            print(f"FAILED pass {label}: " + "; ".join(problems))
        return counters

    work = run.WORK / name
    wl, root, env = run.setup(name, seed, work / "full")
    small_wl, small_root, small_env = run.setup(name, seed, work / "small", SMALL_SCALE)
    print(f"workload {name}: {wl.source_bytes} source bytes; small variant {small_wl.source_bytes}")
    start = time.perf_counter()
    import_s = _import_seconds(env)
    git = CountingGit(project._git)
    project._git = git
    tracer, quiet = Tracer(True), Tracer(False)
    # The in-process passes read the warm cache of the project they run on.
    os.environ["VL_CACHE_DIR"] = small_env["VL_CACHE_DIR"]
    small = [one_pass(small_wl, small_root, tracer, "small") for _ in range(SMALL_PASSES)]
    os.environ["VL_CACHE_DIR"] = env["VL_CACHE_DIR"]
    plain, traced = [], []
    pair_s = 0.0  # duration of the last untraced + traced pair, checks included
    while not traced or time.perf_counter() - start + pair_s < seconds:
        t0 = time.perf_counter()
        plain.append(one_pass(wl, root, quiet, "full")["wall_s"])
        traced.append(one_pass(wl, root, tracer, "full"))
        pair_s = time.perf_counter() - t0
    project._git = git.real

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    metrics = {m: (med(traced, m), "s") for m in TIMES}
    for layer, time_metric, byte_key in PER_BYTE:
        full = med(traced, time_metric) * 1e9 / max(1, traced[0][byte_key])
        tiny = med(small, time_metric) * 1e9 / max(1, small[0][byte_key])
        metrics[f"{layer}.ns_per_byte"] = (full, "ns/B")
        metrics[f"{layer}.growth"] = (full / tiny if tiny else 0.0, "ratio")
    for key, unit in COUNTS:
        metrics[key] = (traced[0][key], unit)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(traced, f"{layer}.self_s"), "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (med(traced, "wall_s") - statistics.median(plain), "s")

    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"spans-{name}-{seed}.json"
    fields = ("name", "start_ns", "end_ns", "parent", "run_id")
    dump.write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]) + "\n", encoding="utf-8")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, {len(small)} small; spans in {dump.relative_to(run.REPO)}")
    for key, (value, unit) in metrics.items():
        print(f"{key:28} {value:.6g} {unit}")
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print("self-time shares: " + "  ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / total:.0%}" for layer in LAYERS))
    print("digests      " + " ".join(f"{k}={d[:16]}" for k, d in digests.items() if d))
    return metrics, attempted, failed


def _span_sums(tracer: Tracer, run_id: int) -> dict[str, float]:
    totals = dict.fromkeys(TIMES, 0.0)
    names = {n: m for m, ns in TIMES.items() for n in ns}
    for name, start, end, _, rid in tracer.spans:
        if rid == run_id and name in names:
            totals[names[name]] += (end - start) / 1e9
    return totals
