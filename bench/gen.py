"""Seeded synthetic vl projects, each generated together with the answers its
outputs must match.

A seed changes names, operators and literal values and where the seeded
findings sit; it never changes the shape (file, module, register and comment
counts), so every seed of a workload costs about the same.  Sources are
written in `vl fmt`'s canonical layout, except for files listed in
`Workload.unformatted`, which carry one deliberate layout drift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ROOT_RESET = "async_low"  # the root manifest's default configuration


@dataclass(frozen=True)
class SvModule:
    """Expected shape of one emitted SystemVerilog module."""

    ports: tuple  # ((direction, name), ...)
    sens: tuple  # one sensitivity list ((edge, signal), ...) per always_ff, in order
    insts: tuple  # sorted instance type names


@dataclass
class Unit:
    """One vl project: the root, or a dependency that becomes a git repo."""

    name: str
    reset_type: str
    files: dict[str, str] = field(default_factory=dict)  # "src/<stem>.vl" -> text

    def manifest(self, deps: list[str] = ()) -> str:
        text = f'[project]\nname = "{self.name}"\nversion = "0.1.0"\n\n[build]\nreset_type = "{self.reset_type}"\n'
        if deps:
            text += "\n[dependencies]\n" + "".join(f'"{url}" = "0.1.0"\n' for url in deps)
        return text


@dataclass
class Workload:
    name: str
    root: Unit
    deps: list[Unit] = field(default_factory=list)
    sv: dict[str, dict[str, SvModule]] = field(default_factory=dict)  # "sv/<dep>/<stem>.sv" -> name -> shape
    name_map: dict = field(default_factory=dict)
    diags: list = field(default_factory=list)  # sorted (file, line, code)
    unformatted: list = field(default_factory=list)  # "src/<stem>.vl" that `fmt --check` lists
    doc_pages: set = field(default_factory=set)  # file names under target/doc

    @property
    def has_errors(self) -> bool:
        return any(code.startswith("E") for _, _, code in self.diags)

    @property
    def source_bytes(self) -> int:
        return sum(len(t.encode()) for u in [self.root, *self.deps] for t in u.files.values())


class _Src:
    """Line buffer that knows the number of the next line it will write."""

    def __init__(self):
        self.lines: list[str] = []

    def __call__(self, *lines: str) -> None:
        self.lines.extend(lines)

    @property
    def next_line(self) -> int:
        return len(self.lines) + 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sens(reset_type: str) -> tuple:
    """Sensitivity list of a bus module's always_ff, which uses `if_reset`."""
    if reset_type.startswith("async"):
        return (("posedge", "i_clk"), ("posedge" if reset_type.endswith("high") else "negedge", "i_rst"))
    return (("posedge", "i_clk"),)


def _pub_pages(names) -> set:
    return {f"{n}.{ext}" for n in names for ext in ("md", "html")} | {"index.md", "index.html"}


def _tag(rng: random.Random) -> str:
    return f"{rng.randrange(16**4):04x}"


_OPS = ("^", "+", "-", "&", "|")
_BUS_PORTS = (("input", "i_clk"), ("input", "i_rst"), ("input", "i_en"), ("input", "i_d"), ("output", "o_q"))


def _bus_header(w: _Src, head: str, extra_ports: tuple[str, ...] = ()) -> None:
    w(
        head + " (",
        "    i_clk: input clock,",
        "    i_rst: input reset,",
        "    i_en: input logic,",
        *extra_ports,
        "    i_d: input logic<8>,",
        "    o_q: output logic<8>,",
        ") {",
    )


def _bus_conns(w: _Src, out: str) -> None:
    w(
        "        i_clk: i_clk,",
        "        i_rst: i_rst,",
        "        i_en: i_en,",
        "        i_d: i_d,",
        f"        o_q: {out},",
        "    );",
    )


def _register_bank(w: _Src, rng: random.Random, regs: int, extra_reads: tuple[str, ...] = ()) -> None:
    """`regs` registers under one if_reset / else-if chain, xor-reduced to o_q."""
    names = [f"r_{i:02}" for i in range(regs)]
    for n in names:
        w(f"    var {n}: logic<8>;")
    w("    // next-state logic", "    always_ff {", "        if_reset {")
    for n in names:
        w(f"            {n} = 0;")
    w("        } else if i_en {")
    for i, n in enumerate(names):
        w(f"            {n} = {names[i - 1] if i else 'i_d'} {rng.choice(_OPS)} {rng.randrange(10, 100)};")
    w("        } else if i_d == 8'd0 {")
    for n in names[:2]:
        w(f"            {n} = i_d;")
    w("        }", "    }", "    always_comb {", "        o_q = " + " ^ ".join(names + list(extra_reads)) + ";", "    }")


# -- flat_rtl ---------------------------------------------------------------------


_DEP_SPECS = (("lib_sync", "sync_high"), ("lib_async", "async_high"))


def _dep_unit(name: str, reset_type: str, rng: random.Random) -> tuple[Unit, dict[str, dict[str, SvModule]], list[str]]:
    unit = Unit(name, reset_type)
    sv: dict[str, dict[str, SvModule]] = {}
    mods = []
    for f in range(2):
        w = _Src()
        stem = f"cell_{f}"
        out: dict[str, SvModule] = {}
        for k in range(2):
            mod = f"Cell{f}{k}"
            if k:
                w("")
            w(f"/// Pipelined cell {mod} of {name}.")
            _bus_header(w, f"pub module {mod}")
            _register_bank(w, rng, 4)
            w("}")
            out[mod] = SvModule(_BUS_PORTS, (_sens(reset_type),), ())
            mods.append(mod)
        unit.files[f"src/{stem}.vl"] = w.text()
        sv[f"sv/{name}/{stem}.sv"] = out
    return unit, sv, mods


def flat_rtl(seed: int, scale: int = 1) -> Workload:
    """About 95 KB over 20 files of 2-3 plain register-bank modules, two git deps.

    `scale` > 1 divides the per-file size by about that factor.
    """
    rng = random.Random(f"flat_rtl/{seed}")
    wl = Workload("flat_rtl", Unit("flat", ROOT_RESET))
    dep_mods = []
    for name, reset_type in _DEP_SPECS:
        unit, sv, mods = _dep_unit(name, reset_type, rng)
        wl.deps.append(unit)
        wl.sv.update(sv)
        dep_mods.append((name, mods))
    regs = max(2, 18 // scale)
    pubs = []
    for f in range(20):
        stem = f"bank_{f:02}_{_tag(rng)}"
        w = _Src()
        out: dict[str, SvModule] = {}
        w(f"// Register banks, file {f}.")
        per_file = (2, 2, 2, 3)[f % 4] if scale == 1 else 1
        for k in range(per_file):
            mod = f"Bank{f:02}{k}_{_tag(rng)}"
            if k:
                w("")
            w(f"/// Register bank {mod}.", "///", f"/// Holds {regs} registers behind one `if_reset` chain.")
            _bus_header(w, f"pub module {mod}", ("    i_sel: input logic<2>,",))
            insts = ()
            extra: tuple[str, ...] = ()
            if k == 0 and scale == 1:
                lib, mods = dep_mods[f % 2]
                target = rng.choice(mods)
                w("    var w_dep: logic<8>;", f"    inst u_dep: {lib}::{target} (")
                _bus_conns(w, "w_dep")
                insts, extra = (target,), ("w_dep",)
            _register_bank(w, rng, regs, extra + ("i_sel",))
            w("}")
            ports = _BUS_PORTS[:3] + (("input", "i_sel"),) + _BUS_PORTS[3:]
            out[mod] = SvModule(ports, (_sens(ROOT_RESET),), insts)
            pubs.append(mod)
        wl.root.files[f"src/{stem}.vl"] = w.text()
        wl.sv[f"sv/{stem}.sv"] = out
    wl.doc_pages = _pub_pages(pubs)
    return wl


# -- generic_fanout ------------------------------------------------------------------


def generic_fanout(seed: int, scale: int = 1) -> Workload:
    """Fig. 3 fan-out: 10 templates x 20 port-less vendor stubs = 200 instances,
    from about 45 KB of source."""
    rng = random.Random(f"generic_fanout/{seed}")
    wl = Workload("generic_fanout", Unit("fanout", ROOT_RESET))
    stubs = [f"Vendor{i:02}_{_tag(rng)}" for i in range(max(3, 20 // scale))]
    w = _Src()
    w("// Port-less memory macros, one per vendor.")
    for i, s in enumerate(stubs):
        if i:
            w("")
        w(f"module {s} () {{", "}")
    wl.root.files["src/vendor.vl"] = w.text()
    wl.sv["sv/vendor.sv"] = {s: SvModule((), (), ()) for s in stubs}
    regs = max(2, 6 // scale)
    tops = []
    for t in range(10):
        tmpl = f"Queue{t}_{_tag(rng)}"
        top = f"Top{t}_{_tag(rng)}"
        w = _Src()
        w(f"/// Queue template {tmpl} around memory macro `T`.")
        _bus_header(w, f"module {tmpl}::<T>")
        w("    inst u_mem: T;")
        _register_bank(w, rng, regs)
        w("}", "", f"/// Fan-out of {tmpl} over every vendor.")
        _bus_header(w, f"pub module {top}")
        made = {}
        order = stubs[t % len(stubs) :] + stubs[: t % len(stubs)]
        for i in range(len(order)):
            w(f"    var w_{i:02}: logic<8>;")
        for i, s in enumerate(order):
            w(f"    inst u_{i:02}: {tmpl}::<{s}> (")
            _bus_conns(w, f"w_{i:02}")
            mangled = f"{tmpl}__{s}"
            made[mangled] = SvModule(_BUS_PORTS, (_sens(ROOT_RESET),), (s,))
            wl.name_map[mangled] = {"template": tmpl, "args": [s]}
        w("    always_comb {", "        o_q = " + " ^ ".join(f"w_{i:02}" for i in range(len(order))) + ";", "    }", "}")
        made[top] = SvModule(_BUS_PORTS, (), tuple(sorted(made)))
        stem = f"queue_{t}"
        wl.root.files[f"src/{stem}.vl"] = w.text()
        wl.sv[f"sv/{stem}.sv"] = made
        tops.append(top)
    wl.doc_pages = _pub_pages(tops)
    return wl


# -- doc_lint ---------------------------------------------------------------------------


_WORDS = ("sample", "domain", "crossing", "register", "handshake", "pointer", "stage", "window")
_FINDINGS = ("E0303", "W0304", "W0305", "E0316")


def _prose(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _cdc_module(w: _Src, file_id: str, mod: str, rng: random.Random, finding: str | None, diags: list) -> None:
    """Two clock domains, documented and commented; `finding` seeds one defect."""
    w(
        f"/// # {mod}",
        "///",
        f"/// Moves each {_prose(rng, 6)} from clock domain `a` to clock domain `b`.",
        f"/// The **{rng.choice(_WORDS)}** path is marked `unsafe (cdc)` for review; see [notes](notes.md).",
        "///",
        f"/// - {_prose(rng, 5)}",
        f"/// - {_prose(rng, 5)}",
        "///",
        "/// ```wavedrom",
        "/// {signal: [",
        "///   {name: 'i_clk_a', wave: 'p.......'},",
        f"///   {{name: 'i_dat', wave: 'x.=x....', data: ['{rng.choice(_WORDS)}']}},",
        "///   {name: 'i_clk_b', wave: 'P.......'},",
        f"///   {{name: 'o_dat', wave: 'x....=x.', data: ['{rng.choice(_WORDS)}']}},",
        "/// ]}",
        "/// ```",
        f"pub module {mod} #(",
        "    /// Data width in bits.",
        "    param WIDTH: u32 = 8,",
        ") (",
        "    i_clk_a: input `a clock, /// Source clock",
        "    i_clk_b: input `b clock, /// Destination clock",
        "    i_rst_a: input `a reset, /// Source reset",
        "    i_rst_b: input `b reset, /// Destination reset",
        "    i_dat: input `a logic<WIDTH>, /// Source data",
        "    o_dat: output `b logic<WIDTH>, /// Destination data",
        ") {",
    )
    stages = 6
    for i in range(stages):
        w(f"    /// Source stage {i}: {_prose(rng, 4)}.", f"    var r_a{i}: `a logic<WIDTH>;")
    for i in range(stages):
        w(f"    // Destination stage {i}: {_prose(rng, 4)}.", f"    var r_b{i}: logic<WIDTH>;")
    if finding == "E0303":
        diags.append((file_id, w.next_line, finding))
        w("    var r_hold: logic<WIDTH>; /// Read, never driven")
    if finding == "W0304":
        diags.append((file_id, w.next_line, finding))
        w("    var r_spare: logic<WIDTH>; /// Driven, never read")
    w(
        "    // Source domain: capture, then shift.",
        "    always_ff (i_clk_a, i_rst_a) {",
        "        // Clear every source stage.",
        "        if_reset {",
    )
    for i in range(stages):
        w(f"            r_a{i} = 0; // {_prose(rng, 2)}")
    w("        } else {")
    for i in range(stages):
        w(f"            // {_prose(rng, 5)}", f"            r_a{i} = {f'r_a{i - 1}' if i else 'i_dat'};")
    w(
        "        }",
        "    }",
        "    // Destination domain: the first stage crosses from `a`.",
        "    always_ff (i_clk_b, i_rst_b) {",
        "        if_reset {",
    )
    for i in range(stages):
        w(f"            r_b{i} = 0; // {_prose(rng, 2)}")
    w("        } else {")
    if finding == "E0316":
        w("            // The crossing below is missing its unsafe (cdc) wrapper.")
        diags.append((file_id, w.next_line, finding))
        w(f"            r_b0 = r_a{stages - 1};")
    else:
        w("            // Reviewed crossing point.", "            unsafe (cdc) {", f"                r_b0 = r_a{stages - 1};", "            }")
    for i in range(1, stages):
        w(f"            // {_prose(rng, 5)}", f"            r_b{i} = r_b{i - 1};")
    w("        }", "    }", "    // Output register is read combinationally.", "    always_comb {")
    read = f"r_b{stages - 1}" + (" ^ r_hold" if finding == "E0303" else "")
    if finding == "W0305":
        w(f"        if r_b{stages - 1} == 0 {{")
        diags.append((file_id, w.next_line, finding))
        w(f"            o_dat = {read};", "        }")
    else:
        w(f"        o_dat = {read};")
    if finding == "W0304":
        w("        r_spare = r_b0;")
    w("    }", "}")


def doc_lint(seed: int, scale: int = 1) -> Workload:
    """About 190 KB in three files, docs and comments over 40% of the bytes,
    with four seeded findings per file (fewer if it has fewer modules) at known lines."""
    rng = random.Random(f"doc_lint/{seed}")
    wl = Workload("doc_lint", Unit("doclint", ROOT_RESET))
    per_file = max(1, 16 // scale)
    drifted = rng.randrange(3)
    pubs = []
    for f in range(3):
        file_id = f"src/cdc_{f}.vl"
        findings = (_FINDINGS[f:] + _FINDINGS[:f])[:per_file]
        seeded = dict(zip(rng.sample(range(per_file), len(findings)), findings))
        w = _Src()
        for k in range(per_file):
            if k:
                w("")
            mod = f"Cdc{f}{k:02}_{_tag(rng)}"
            _cdc_module(w, file_id, mod, rng, seeded.get(k), wl.diags)
            pubs.append(mod)
        if f == drifted:
            w.lines[-2] = "  " + w.lines[-2].lstrip()  # one mis-indented line
            wl.unformatted.append(file_id)
        wl.root.files[file_id] = w.text()
    wl.diags.sort()
    wl.doc_pages = _pub_pages(pubs)
    return wl


WORKLOADS = {"flat_rtl": flat_rtl, "generic_fanout": generic_fanout, "doc_lint": doc_lint}
