"""Semantic checks: driver analysis, latch inference, direction/connectivity
consistency, literal widths, clock/reset binding, and CDC detection."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from . import ast
from .diagnostics import Diagnostic, Related
from .lexer import sized_literal_parts, sized_literal_value
from .resolver import Scope, Symbol, SymbolKind, SymbolTable, check_connections, clock_or_reset, resolve
from .tokens import Span

_U64_MASK = (1 << 64) - 1

# Clock-domain labels; an annotated domain `d` is ("named", d).
_DEFAULT = ("default",)
_MIXED = ("mixed",)

_SPECIAL_KINDS = {"clock": ast.CLOCK_KINDS, "reset": ast.RESET_KINDS}

# Constant operators whose 64-bit result is exact, with no check needed.
_EXACT = {
    "&&": lambda a, b: bool(a) and bool(b), "||": lambda a, b: bool(a) or bool(b),
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}


class ConstError(Exception):
    def __init__(self, diagnostic: Diagnostic, repeat: bool = False):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.repeat = repeat  # a memoized failure, raised again


@dataclass(frozen=True)
class FfBinding:
    clock: str | None
    clock_kind: str | None
    reset: str | None
    reset_kind: str | None
    uses_if_reset: bool


@dataclass
class AnalysisInfo:
    """Facts the emitter needs: per-process clock/reset bindings."""

    ff_bindings: dict[int, FfBinding] = field(default_factory=dict)


def module_signal_types(m: ast.ModuleDecl) -> dict[str, ast.TypeSpec]:
    types: dict[str, ast.TypeSpec] = {}
    for p in m.ports:
        types[p.name] = p.ty
    for it, _ in ast.iter_module_items(m.body):
        if isinstance(it, ast.VarDecl):
            types[it.name] = it.ty
    return types


def bind_always_ff(m: ast.ModuleDecl) -> tuple[dict[int, FfBinding], list[Diagnostic]]:
    """Bind each always_ff to its clock (and reset, when needed).

    Abbreviated forms require exactly one clock-typed (and reset-typed) signal
    in the module; explicit names must have clock/reset types.
    """
    diags: list[Diagnostic] = []
    bindings: dict[int, FfBinding] = {}
    types = module_signal_types(m)
    typed = {what: [n for n, t in types.items() if t.kind in kinds] for what, kinds in _SPECIAL_KINDS.items()}

    def bind(what: str, name: str | None, span: Span | None, ff: ast.AlwaysFf) -> str | None:
        """The `what` ("clock" or "reset") of `ff`: `name` as written, or,
        when it is None, the module's only `what`-typed signal."""
        if name is None:
            if len(typed[what]) == 1:
                return typed[what][0]
            diags.append(
                Diagnostic(
                    "E0312",
                    f"cannot infer the {what} for an abbreviated always_ff: {len(typed[what])} {what}-typed signals in scope",
                    ff.span,
                )
            )
        elif name not in types:
            diags.append(Diagnostic("E0202", f"undefined identifier `{name}`", span))
        elif types[name].kind not in _SPECIAL_KINDS[what]:
            diags.append(Diagnostic("E0314", f"`{name}` in a sensitivity list must have a {what} type", span))
        else:
            return name
        return None

    for it, _ in ast.iter_module_items(m.body):
        if not isinstance(it, ast.AlwaysFf):
            continue
        uses_ir = any(isinstance(s, ast.IfResetStmt) for s, _ in ast.iter_stmts(it.body.stmts))
        clock = bind("clock", it.clock_name, it.clock_span, it)
        reset = None
        if uses_ir and it.clock_name is not None and it.reset_name is None:
            diags.append(Diagnostic("E0313", "`if_reset` requires a reset in this always_ff's sensitivity list", it.span))
        elif uses_ir or it.reset_name is not None:
            reset = bind("reset", it.reset_name, it.reset_span, it)
        bindings[id(it)] = FfBinding(
            clock,
            types[clock].kind if clock else None,
            reset,
            types[reset].kind if reset else None,
            uses_ir,
        )
    return bindings, diags


# -- constant evaluation ------------------------------------------------------


def eval_const(expr: ast.Expr, scope: Scope) -> int:
    """Evaluate a params/consts/literals expression to a 64-bit unsigned value.

    Raises ConstError (E0301, or E0202 for unknown names).  Wrap-around and
    division by zero are errors, not silent.
    """
    return _ConstEval().eval(expr, scope)


class _ConstEval:
    """Evaluates constant expressions; each parameter's and constant's value,
    or the diagnostic it failed with, is computed once."""

    def __init__(self):
        self.memo: dict[int, int | Diagnostic] = {}
        self.active: set[int] = set()

    def fail(self, message: str, span: Span, code: str = "E0301"):
        raise ConstError(Diagnostic(code, message, span))

    def eval(self, e: ast.Expr, scope: Scope) -> int:
        if isinstance(e, ast.DecLiteral):
            v = e.value
            if v > _U64_MASK:
                self.fail(f"literal `{e.text}` exceeds 64 bits", e.span)
            return v
        if isinstance(e, ast.SizedLiteral):
            parts = sized_literal_parts(e.text)
            if parts is None:
                self.fail(f"malformed literal `{e.text}`", e.span)
            v = sized_literal_value(parts[1], parts[2])
            if v > _U64_MASK:
                self.fail(f"literal `{e.text}` exceeds 64 bits", e.span)
            return v
        if isinstance(e, ast.ParenExpr):
            return self.eval(e.inner, scope)
        if isinstance(e, ast.UnaryExpr):
            v = self.eval(e.operand, scope)
            if e.op == "!":
                return 0 if v else 1
            if e.op == "~":
                return v ^ _U64_MASK
            if v != 0:
                self.fail("negation of an unsigned value wraps", e.span)
            return 0
        if isinstance(e, ast.BinaryExpr):
            return self.binop(e, scope)
        if isinstance(e, ast.PathExpr):
            return self.path(e, scope)
        self.fail("expression is not constant", e.span)

    def binop(self, e: ast.BinaryExpr, scope: Scope) -> int:
        a = self.eval(e.lhs, scope)
        b = self.eval(e.rhs, scope)
        op = e.op
        if op in _EXACT:
            return int(_EXACT[op](a, b))
        if op == "<<":
            if b >= 64 or (a << b) > _U64_MASK:
                self.fail("shift overflows 64 bits", e.span)
            return a << b
        if op == ">>":
            return a >> b if b < 64 else 0
        if op in ("/", "%"):
            if b == 0:
                self.fail("division by zero in constant expression", e.span)
            return a // b if op == "/" else a % b
        if op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        else:
            v = a * b
        if v < 0 or v > _U64_MASK:
            self.fail(f"constant arithmetic wraps 64 bits (`{ast.expr_text(e)}`)", e.span)
        return v

    def path(self, e: ast.PathExpr, scope: Scope) -> int:
        quiet: list[Diagnostic] = []
        sym = resolve(e, scope, quiet)
        if sym is None:
            raise ConstError(quiet[0])
        if sym.kind not in (SymbolKind.PARAM, SymbolKind.CONST):
            self.fail(f"`{e.text}` is a {sym.kind_name}, not a constant", e.span)
        if id(sym.decl) in self.active:
            self.fail(f"constant `{e.text}` is defined in terms of itself", e.span)
        return self.decl(sym.decl, sym.scope)

    def decl(self, d: ast.ParamDecl | ast.ConstDecl, scope: Scope) -> int:
        """The value of a parameter's default or a constant; raises its failure."""
        key = id(d)
        if key in self.memo:
            v = self.memo[key]
            if isinstance(v, Diagnostic):
                raise ConstError(v, repeat=True)
            return v
        self.active.add(key)
        try:
            v = self.eval(d.default if isinstance(d, ast.ParamDecl) else d.value, scope)
        except ConstError as err:
            self.memo[key] = err.diagnostic
            raise
        finally:
            self.active.discard(key)
        self.memo[key] = v
        return v


# -- per-unit analysis ---------------------------------------------------------


def analyze_unit(files: list[ast.SourceFile], table: SymbolTable) -> tuple[list[Diagnostic], AnalysisInfo]:
    """Run the full check catalog over one project's parsed files."""
    diags: list[Diagnostic] = []
    info = AnalysisInfo()
    ev = _ConstEval()
    for sf in sorted(files, key=lambda f: f.file_id):
        for item in sf.items:
            chk = _ModuleChecker(item, table, ev)
            diags += chk.run()
            info.ff_bindings.update(chk.bindings)
    return diags, info


def check_literal_widths(expr: ast.Expr) -> list[Diagnostic]:
    """E0311 for every sized literal whose value does not fit its width."""
    diags = []
    for e in ast.walk_exprs(expr):
        if not isinstance(e, ast.SizedLiteral):
            continue
        parts = sized_literal_parts(e.text)
        if parts is None:
            continue  # the lexer already reported E0002
        width, base, digits = parts
        value = sized_literal_value(base, digits)
        if width == 0:
            diags.append(Diagnostic("E0311", f"literal `{e.text}` has zero width", e.span))
        elif value >= (1 << width):
            diags.append(
                Diagnostic(
                    "E0311",
                    f"literal value {value} does not fit in {width} bit{'s' if width != 1 else ''}",
                    e.span,
                )
            )
    return diags


@dataclass
class _Signal:
    sym: Symbol
    direction: str | None  # input/output for ports, None for vars
    domain: str | None

    @property
    def special(self) -> bool:
        return clock_or_reset(self.sym.ty)


class _ModuleChecker:
    def __init__(self, m: ast.ModuleDecl | ast.PackageDecl, table: SymbolTable, ev: _ConstEval):
        if isinstance(m, ast.PackageDecl):
            # A package is checked as a module with no params, ports or processes.
            self.scope = table.package_scopes[id(m)]
            m = ast.ModuleDecl(m.name, m.name_span, [], [], [], m.items, False, m.span)
        else:
            self.scope = table.module_scopes[id(m)]
        self.m = m
        self.table = table
        self.diags: list[Diagnostic] = []
        self.bindings: dict[int, FfBinding] = {}
        self.signals: dict[str, _Signal] = {}
        # name -> list of (site kind, site id, span); one entry per driving site
        self.drives: dict[str, list[tuple[str, int, Span]]] = {}
        # names wired to a port of a generic parameter, whose direction is unknown
        self.maybe_driven: set[str] = set()
        self.reads: dict[str, list[Span]] = {}
        # (ff id, signal name, span, amnesty) for CDC
        self.ff_reads: list[tuple[int, str, Span, bool]] = []
        # signal -> list of domain sources per driving site
        self.domain_drivers: dict[str, list[tuple[str, object]]] = {}
        self.ev = ev

    def run(self) -> list[Diagnostic]:
        """Collect the signals, then check every item in one walk, then the
        whole-module rules that need all drives and reads."""
        self.collect_signals()
        self.bindings, self.diags = bind_always_ff(self.m)
        for p in self.m.params:
            self.const_init(p)
        for p in self.m.ports:
            self.dims(p.ty)
        for it, in_unsafe in ast.iter_module_items(self.m.body):
            if isinstance(it, (ast.VarDecl, ast.ConstDecl)):
                self.dims(it.ty)
                if isinstance(it, ast.ConstDecl):
                    self.const_init(it)
            elif isinstance(it, ast.AssignItem):
                self.drive(it.lvalue, "assign", id(it), it.span, self.scope)
                reads = self.expr_read(it.rhs, self.scope)
                reads += self.select_reads(it.lvalue, self.scope, None, False)
                self.note_domain_driver(it.lvalue, ("comb", frozenset(reads)))
            elif isinstance(it, ast.AlwaysFf):
                self.walk_process(it, "always_ff", in_unsafe)
            elif isinstance(it, ast.AlwaysComb):
                self.walk_process(it, "always_comb", in_unsafe)
                self.check_latches(it.body)
            elif isinstance(it, ast.InstDecl):
                self.connect(it)
            elif isinstance(it, ast.FunctionDecl):
                fscope = self.table.function_scopes[id(it)]
                self.walk_stmts(it.body.stmts, None, fscope, "function", id(it), False)
        self.check_drivers()
        self.check_cdc()
        return self.diags

    def collect_signals(self) -> None:
        for p in self.m.ports:
            sym = self.scope.entries.get(p.name)
            if sym is not None and sym.decl is p:
                self.signals[p.name] = _Signal(sym, p.direction, p.domain)
        for it, _ in ast.iter_module_items(self.m.body):
            if isinstance(it, ast.VarDecl):
                sym = self.scope.entries.get(it.name)
                if sym is not None and sym.decl is it:
                    self.signals[it.name] = _Signal(sym, None, it.domain)

    # -- constant contexts --

    def const_value(self, evaluate, arg, scope: Scope) -> None:
        """E0301 (or E0202) unless `evaluate(arg, scope)` gives a constant; a
        failure is reported once however many values it fails."""
        try:
            evaluate(arg, scope)
        except ConstError as err:
            if not err.repeat:
                self.diags.append(err.diagnostic)

    def const_init(self, d: ast.ParamDecl | ast.ConstDecl) -> None:
        """A parameter default or constant value: literal widths, then its value."""
        self.diags += check_literal_widths(d.default if isinstance(d, ast.ParamDecl) else d.value)
        self.const_value(self.ev.decl, d, self.scope)

    def dims(self, ty: ast.TypeSpec) -> None:
        for d in ty.packed_dims + ty.unpacked_dims:
            self.const_value(self.ev.eval, d, self.scope)

    # -- processes --

    def walk_process(self, proc, kind: str, amnesty: bool) -> None:
        ff_id = id(proc) if kind == "always_ff" else None
        assigned, read_names = self.walk_stmts(proc.body.stmts, ff_id, self.scope, kind, id(proc), amnesty)
        source = ("comb", frozenset(read_names)) if kind == "always_comb" else ("ff", id(proc))
        for name in assigned:
            self.domain_drivers.setdefault(name, []).append(source)

    def walk_stmts(self, stmts, ff_id, scope, site_kind, site_id, amnesty) -> tuple[list[str], set[str]]:
        """Record the drives and reads of `stmts`; returns the single-segment
        names assigned, in first-assigned order, and the signal names read."""
        assigned: dict[str, None] = {}
        read_names: set[str] = set()
        for s, unsafe in ast.iter_stmts(stmts, amnesty):
            if isinstance(s, ast.AssignStmt):
                self.drive(s.lvalue, site_kind, site_id, s.span, scope)
                read_names.update(self.expr_read(s.rhs, scope, ff_id=ff_id, amnesty=unsafe))
                read_names.update(self.select_reads(s.lvalue, scope, ff_id, unsafe))
                base = ast.lvalue_base(s.lvalue)
                if base is not None and len(base.segments) == 1:
                    assigned.setdefault(base.segments[0])
            elif isinstance(s, ast.ReturnStmt):
                read_names.update(self.expr_read(s.value, scope, ff_id=ff_id, amnesty=unsafe))
            elif isinstance(s, (ast.IfStmt, ast.IfResetStmt)):
                for cond, _ in ast.if_arms(s)[0]:
                    if cond is not None:
                        read_names.update(self.expr_read(cond, scope, ff_id=ff_id, amnesty=unsafe))
        return list(assigned), read_names

    # -- reads and drives --

    def expr_read(self, e: ast.Expr, scope, ff_id=None, amnesty=False, use="read") -> list[str]:
        """Resolve every path in `e` and check its literal widths, calls and
        range bounds; returns the signal names read.  `use` is what `e` feeds:
        "read", ordinary dataflow, recorded as reads; "param", a parameter
        connection, not recorded; "generic", a port of a generic parameter,
        recorded, with no E0315 until mono knows the port's type."""
        names: list[str] = []
        self.diags += check_literal_widths(e)
        for sub in ast.walk_exprs(e):
            if isinstance(sub, ast.CallExpr):
                self.check_call(sub, scope)
            elif isinstance(sub, ast.RangeExpr):
                self.const_value(self.ev.eval, sub.hi, scope)
                self.const_value(self.ev.eval, sub.lo, scope)
            elif isinstance(sub, ast.PathExpr):
                sym = resolve(sub, scope, self.diags)
                if sym is None:
                    continue
                if sym.kind in (SymbolKind.MODULE, SymbolKind.PACKAGE, SymbolKind.NAMESPACE, SymbolKind.INST):
                    self.diags.append(
                        Diagnostic("E0203", f"`{sub.text}` is a {sym.kind_name}, not a value", sub.span)
                    )
                elif sym.kind == SymbolKind.FUNCTION:
                    self.diags.append(
                        Diagnostic("E0203", f"function `{sub.text}` must be called", sub.span)
                    )
                elif use == "generic" or self.dataflow(sym, sub):
                    name = sub.segments[0]
                    if use != "param" and len(sub.segments) == 1 and name in self.signals:
                        names.append(name)
                        self.reads.setdefault(name, []).append(sub.span)
                        if ff_id is not None:
                            self.ff_reads.append((ff_id, name, sub.span, amnesty))
        return names

    def select_reads(self, lvalue: ast.Expr, scope, ff_id, amnesty) -> list[str]:
        """Index/range expressions inside an lvalue are reads."""
        names: list[str] = []
        e = lvalue
        while isinstance(e, (ast.IndexExpr, ast.RangeExpr)):
            if isinstance(e, ast.IndexExpr):
                names += self.expr_read(e.index, scope, ff_id=ff_id, amnesty=amnesty)
            else:
                names += self.expr_read(e.hi, scope, ff_id=ff_id, amnesty=amnesty)
                names += self.expr_read(e.lo, scope, ff_id=ff_id, amnesty=amnesty)
            e = e.base
        return names

    def dataflow(self, sym: Symbol, path: ast.PathExpr) -> bool:
        """Whether `sym` may carry ordinary data; E0315 if it is a clock or reset."""
        if clock_or_reset(sym.ty):
            self.diags.append(
                Diagnostic(
                    "E0315", f"clock/reset-typed signal `{path.text}` cannot be used in ordinary dataflow", path.span
                )
            )
            return False
        return True

    def drive(self, lvalue: ast.Expr, site_kind: str, site_id: int, span: Span, scope) -> None:
        base = ast.lvalue_base(lvalue)
        if base is None:
            self.diags.append(Diagnostic("E0306", "assignment target is not an lvalue", span))
            return
        sym = resolve(base, scope, self.diags)
        if sym is None:
            return
        if sym.kind not in (SymbolKind.VAR, SymbolKind.PORT):
            self.diags.append(
                Diagnostic("E0306", f"cannot assign to `{base.text}` ({sym.kind_name})", base.span)
            )
            return
        if not self.dataflow(sym, base):
            return
        if sym.kind == SymbolKind.PORT and isinstance(sym.decl, ast.PortDecl) and sym.decl.direction == "input":
            self.diags.append(
                Diagnostic("E0306", f"input port `{base.text}` cannot be assigned", base.span)
            )
            return
        name = base.segments[0]
        if len(base.segments) == 1 and name in self.signals:
            sites = self.drives.setdefault(name, [])
            if not any(k == site_kind and i == site_id for k, i, _ in sites):
                sites.append((site_kind, site_id, span))

    def note_domain_driver(self, lvalue: ast.Expr, source) -> None:
        base = ast.lvalue_base(lvalue)
        if base is not None and len(base.segments) == 1 and base.segments[0] in self.signals:
            self.domain_drivers.setdefault(base.segments[0], []).append(source)

    def connect(self, it: ast.InstDecl) -> None:
        """Record the reads and drives of an instance's connections; the
        connection rules are resolver.check_connections."""
        sym = resolve(it.target, self.scope, self.diags)
        if sym is None:
            return
        if sym.kind == SymbolKind.GENERIC_PARAM:
            ports = None  # known once mono substitutes the argument module
        elif sym.kind != SymbolKind.MODULE:
            self.diags.append(
                Diagnostic("E0203", f"cannot instantiate `{it.target.text}`: it is a {sym.kind_name}", it.target.span)
            )
            return
        else:
            self.diags += check_connections(it, sym.decl, self.scope)
            ports = {p.name: p for p in sym.decl.ports}
        for c in it.param_conns:
            self.expr_read(c.expr, self.scope, use="param")
        for c in it.port_conns:
            if ports is None:
                self.expr_read(c.expr, self.scope, use="generic")
                base = ast.lvalue_base(c.expr)
                if base is not None and len(base.segments) == 1:
                    self.maybe_driven.add(base.segments[0])
                continue
            port = ports.get(c.name)
            if port is not None and clock_or_reset(port.ty):
                if isinstance(c.expr, ast.PathExpr):  # else E0315 from check_connections
                    resolve(c.expr, self.scope, self.diags)
            elif port is not None and port.direction == "output":
                if ast.lvalue_base(c.expr) is not None:  # else E0306 from check_connections
                    self.drive(c.expr, "inst", id(it), c.expr.span, self.scope)
                    self.select_reads(c.expr, self.scope, None, False)
            else:
                self.expr_read(c.expr, self.scope)

    def check_call(self, call: ast.CallExpr, scope) -> None:
        """E0310 when a call's arity disagrees with the function declaration."""
        sym = resolve(call.path, scope, self.diags)
        if sym is None:
            return
        if sym.kind != SymbolKind.FUNCTION:
            self.diags.append(
                Diagnostic("E0203", f"`{call.path.text}` is a {sym.kind_name}, not a function", call.path.span)
            )
            return
        decl: ast.FunctionDecl = sym.decl
        if len(call.args) != len(decl.args):
            self.diags.append(
                Diagnostic(
                    "E0310",
                    f"function `{call.path.text}` expects {len(decl.args)} argument(s), got {len(call.args)}",
                    call.span,
                    [Related("declared here", decl.name_span)],
                )
            )

    # -- whole-module rules --

    def check_drivers(self) -> None:
        """E0302 multiple drivers, E0303 never driven, W0304 never read.  A
        module that lost an item to parse recovery gets only E0302: the lost
        item may have driven or read any signal."""
        for name, sig in self.signals.items():
            if sig.special:
                continue
            sites = sorted(self.drives.get(name, []), key=lambda s: s[2].byte_start)
            if len(sites) > 1:
                self.diags.append(
                    Diagnostic(
                        "E0302",
                        f"`{name}` has {len(sites)} driving sites",
                        sites[1][2],
                        [Related(f"also driven by this {k}", sp) for k, _, sp in sites if sp is not sites[1][2]],
                    )
                )
            if self.m.recovered:
                continue
            driven = sites or name in self.maybe_driven
            if sig.direction == "output":
                if not driven:
                    self.diags.append(
                        Diagnostic("E0303", f"output port `{name}` is never driven", sig.sym.span)
                    )
            elif sig.direction is None:
                if name not in self.reads:
                    self.diags.append(Diagnostic("W0304", f"variable `{name}` is never read", sig.sym.span))
                elif not driven:
                    self.diags.append(Diagnostic("E0303", f"variable `{name}` is never driven", sig.sym.span))

    def check_latches(self, block: ast.Block) -> None:
        """W0305 for signals assigned on some but not all paths of a comb
        block; not in a module that lost an item to parse recovery."""
        if self.m.recovered:
            return
        first_span: dict[str, Span] = {}

        def flow(stmts) -> tuple[set[str], set[str]]:
            must: set[str] = set()
            maybe: set[str] = set()
            for s in stmts:
                if isinstance(s, ast.AssignStmt):
                    base = ast.lvalue_base(s.lvalue)
                    if base is None or len(base.segments) != 1:
                        continue
                    name = base.segments[0]
                    sig = self.signals.get(name)
                    if sig is None or sig.special or sig.direction == "input":
                        continue
                    must.add(name)
                    maybe.add(name)
                    first_span.setdefault(name, base.span)
                elif isinstance(s, (ast.IfStmt, ast.IfResetStmt)):
                    blocks, orelse = ast.if_arms(s)
                    arms = [flow(block.stmts) for _, block in blocks]
                    arms.append(flow(orelse.stmts) if orelse else (set(), set()))  # missing else: empty path
                    must |= set.intersection(*(m for m, _ in arms))
                    maybe |= set.union(*(mb for _, mb in arms))
                elif isinstance(s, (ast.Block, ast.UnsafeCdcStmt)):
                    m, mb = flow((s.body if isinstance(s, ast.UnsafeCdcStmt) else s).stmts)
                    must |= m
                    maybe |= mb
            return must, maybe

        must, maybe = flow(block.stmts)
        latched = sorted(maybe - must, key=lambda n: first_span[n].byte_start)
        for name in latched:
            self.diags.append(
                Diagnostic(
                    "W0305",
                    f"`{name}` is not assigned on every path of this always_comb (latch inferred)",
                    first_span[name],
                    [Related("declared here", self.signals[name].sym.span)] if name in self.signals else [],
                )
            )

    # -- clock domains --

    def declared_domain(self, name: str):
        """The clock-domain label `name` is annotated with, else _DEFAULT."""
        sig = self.signals.get(name)
        return ("named", sig.domain) if sig is not None and sig.domain else _DEFAULT

    def ff_domain(self, ff_id: int):
        b = self.bindings.get(ff_id)
        return self.declared_domain(b.clock) if b is not None and b.clock else _DEFAULT

    def check_cdc(self) -> None:
        """E0316 for cross-domain reads in always_ff outside unsafe(cdc)."""
        domains = {name: self.declared_domain(name) for name in self.signals}
        annotated = {n for n, s in self.signals.items() if s.domain}

        def join(labels) -> object:
            distinct = set(labels)
            if len(distinct) == 1:
                return distinct.pop()
            return _MIXED if distinct else _DEFAULT

        for _ in range(len(self.signals) + 2):
            changed = False
            for name in sorted(self.domain_drivers):
                if name in annotated or name not in self.signals:
                    continue
                contributions = []
                for kind, payload in self.domain_drivers[name]:
                    if kind == "ff":
                        contributions.append(self.ff_domain(payload))
                    else:
                        contributions.append(join(domains[r] for r in payload if r in domains))
                new = join(contributions)
                if domains[name] != new:
                    domains[name] = new
                    changed = True
            if not changed:
                break

        for ff_id, name, span, amnesty in self.ff_reads:
            if amnesty:
                continue
            d1 = domains.get(name, _DEFAULT)
            if d1 == _DEFAULT:
                continue
            d2 = self.ff_domain(ff_id)
            if d1 != d2:
                if d1 == _MIXED:
                    detail = f"`{name}` mixes several clock domains"
                else:
                    detail = f"`{name}` belongs to clock domain `{d1[1]}`"
                if d2 == _DEFAULT:
                    where = "an unannotated clock"
                else:
                    where = f"clock domain `{d2[1]}`"
                self.diags.append(
                    Diagnostic(
                        "E0316",
                        f"clock domain crossing: {detail} but is read under {where}",
                        span,
                        [Related("declared here", self.signals[name].sym.span)],
                    )
                )
