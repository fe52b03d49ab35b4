"""Semantic checks: driver analysis, latch inference, direction/connectivity
consistency, literal widths, clock/reset binding, and CDC detection."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from . import ast
from .diagnostics import Diagnostic, Related
from .lexer import sized_literal_parts, sized_literal_value
from .resolver import Scope, Symbol, SymbolKind, SymbolTable, check_inst, clock_or_reset, resolve
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


def analyze_unit(files: list[ast.SourceFile], table: SymbolTable) -> tuple[list[Diagnostic], dict[int, FfBinding | Symbol]]:
    """Run the full check catalog over one project's parsed files.  Returns the
    diagnostics and what the checks resolved, keyed by node `id()`: the
    clock/reset binding of each always_ff, and the module symbol of each inst
    target and generic argument path that names one."""
    diags: list[Diagnostic] = []
    resolved: dict[int, FfBinding | Symbol] = {}
    ev = _ConstEval()
    for sf in sorted(files, key=lambda f: f.file_id):
        for item in sf.items:
            chk = _ModuleChecker(item, table, ev, resolved)
            diags += chk.run()
    return diags, resolved


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
    """A port or var of the module's own scope."""

    sym: Symbol
    direction: str | None  # input/output for ports, None for vars
    domain: str | None

    @property
    def special(self) -> bool:
        return clock_or_reset(self.sym.ty)


@dataclass
class _Site:
    """What one assign, always_ff, always_comb, inst or function drives and
    reads of the module's own signals."""

    kind: str
    item: ast.ModuleItem
    drive_spans: dict[str, Span] = field(default_factory=dict)  # signal -> its first drive span here
    read_spans: list[tuple[str, Span, bool]] = field(default_factory=list)  # (signal, span, inside unsafe (cdc))


class _ModuleChecker:
    def __init__(self, m: ast.ModuleDecl | ast.PackageDecl, table: SymbolTable, ev: _ConstEval, resolved: dict):
        if isinstance(m, ast.PackageDecl):
            # A package is checked as a module with no params, ports or processes.
            self.scope = table.package_scopes[id(m)]
            m = ast.ModuleDecl(m.name, m.name_span, [], [], [], m.items, False, m.span)
        else:
            self.scope = table.module_scopes[id(m)]
        self.m = m
        self.table = table
        self.diags: list[Diagnostic] = []
        self.resolved = resolved
        self.signals = {
            name: _Signal(sym, sym.decl.direction if sym.kind == SymbolKind.PORT else None, sym.decl.domain)
            for name, sym in self.scope.entries.items()
            if sym.kind in (SymbolKind.PORT, SymbolKind.VAR)
        }
        self.sites: list[_Site] = []
        # names wired to a port of a generic parameter, whose direction is unknown
        self.maybe_driven: set[str] = set()
        self.ev = ev

    def run(self) -> list[Diagnostic]:
        """Check every item in one walk, recording one site per assign,
        process, inst and function; then the whole-module rules, which read
        the sites."""
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
                site = self.site("assign", it)
                self.drive(site, it.lvalue, it.span, self.scope)
                self.expr_read(site, it.rhs, self.scope)
                self.select_reads(site, it.lvalue, self.scope)
            elif isinstance(it, ast.AlwaysFf):
                self.bind_always_ff(it)
                self.walk_stmts(self.site("always_ff", it), it.body.stmts, self.scope, in_unsafe)
            elif isinstance(it, ast.AlwaysComb):
                self.walk_stmts(self.site("always_comb", it), it.body.stmts, self.scope, in_unsafe)
                self.check_latches(it.body)
            elif isinstance(it, ast.InstDecl):
                self.connect(it)
            elif isinstance(it, ast.FunctionDecl):
                self.walk_stmts(self.site("function", it), it.body.stmts, self.table.function_scopes[id(it)], False)
        self.check_drivers()
        self.check_cdc()
        return self.diags

    def site(self, kind: str, item: ast.ModuleItem) -> _Site:
        site = _Site(kind, item)
        self.sites.append(site)
        return site

    def own(self, sym: Symbol) -> bool:
        """Whether `sym` is one of the module's own signals, not a function
        argument or anything else of the same name."""
        sig = self.signals.get(sym.name)
        return sig is not None and sig.sym is sym

    # -- clock and reset --

    def bind_always_ff(self, ff: ast.AlwaysFf) -> None:
        """Bind `ff` to its clock (and reset, when needed).  An abbreviated
        form requires exactly one clock-typed (and reset-typed) signal in the
        module; explicit names must have clock/reset types."""
        uses_ir = any(isinstance(s, ast.IfResetStmt) for s, _ in ast.iter_stmts(ff.body.stmts))
        clock = self.bind("clock", ff.clock_name, ff.clock_span, ff)
        reset = None
        if uses_ir and ff.clock_name is not None and ff.reset_name is None:
            self.diags.append(Diagnostic("E0313", "`if_reset` requires a reset in this always_ff's sensitivity list", ff.span))
        elif uses_ir or ff.reset_name is not None:
            reset = self.bind("reset", ff.reset_name, ff.reset_span, ff)
        self.resolved[id(ff)] = FfBinding(
            clock,
            self.signals[clock].sym.ty.kind if clock else None,
            reset,
            self.signals[reset].sym.ty.kind if reset else None,
            uses_ir,
        )

    def bind(self, what: str, name: str | None, span: Span | None, ff: ast.AlwaysFf) -> str | None:
        """The `what` ("clock" or "reset") of `ff`: `name` as written, or,
        when it is None, the module's only `what`-typed signal."""
        kinds = _SPECIAL_KINDS[what]
        if name is None:
            typed = [n for n, sig in self.signals.items() if sig.sym.ty.kind in kinds]
            if len(typed) == 1:
                return typed[0]
            self.diags.append(
                Diagnostic(
                    "E0312",
                    f"cannot infer the {what} for an abbreviated always_ff: {len(typed)} {what}-typed signals in scope",
                    ff.span,
                )
            )
        elif name not in self.signals:
            self.diags.append(Diagnostic("E0202", f"undefined identifier `{name}`", span))
        elif self.signals[name].sym.ty.kind not in kinds:
            self.diags.append(Diagnostic("E0314", f"`{name}` in a sensitivity list must have a {what} type", span))
        else:
            return name
        return None

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

    # -- reads and drives --

    def walk_stmts(self, site: _Site, stmts, scope, unsafe: bool) -> None:
        """Record the drives and reads of `stmts` into `site`."""
        for s, inner in ast.iter_stmts(stmts, unsafe):
            if isinstance(s, ast.AssignStmt):
                self.drive(site, s.lvalue, s.span, scope)
                self.expr_read(site, s.rhs, scope, inner)
                self.select_reads(site, s.lvalue, scope, inner)
            elif isinstance(s, ast.ReturnStmt):
                self.expr_read(site, s.value, scope, inner)
            elif isinstance(s, (ast.IfStmt, ast.IfResetStmt)):
                for cond, _ in ast.if_arms(s)[0]:
                    if cond is not None:
                        self.expr_read(site, cond, scope, inner)

    def expr_read(self, site: _Site | None, e: ast.Expr, scope, unsafe: bool = False, generic: bool = False) -> None:
        """Resolve every path in `e` and check its literal widths, calls and
        range bounds; record the signals it reads into `site`.  A parameter
        connection has no site: it carries no dataflow.  On a port of a
        generic parameter (`generic`), E0315 waits until mono knows the
        port's type."""
        self.diags += check_literal_widths(e)
        for sub in ast.walk_exprs(e):
            if isinstance(sub, ast.CallExpr):
                self.check_call(sub, scope)
            elif isinstance(sub, ast.RangeExpr):
                self.bounds(sub, scope)
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
                elif (generic or self.dataflow(sym, sub)) and site is not None and self.own(sym):
                    site.read_spans.append((sym.name, sub.span, unsafe))

    def select_reads(self, site: _Site, lvalue: ast.Expr, scope, unsafe: bool = False) -> None:
        """Index/range expressions inside an lvalue are reads, and the bounds
        of a range are constants."""
        e = lvalue
        while isinstance(e, (ast.IndexExpr, ast.RangeExpr)):
            if isinstance(e, ast.IndexExpr):
                self.expr_read(site, e.index, scope, unsafe)
            else:
                self.bounds(e, scope)
                self.expr_read(site, e.hi, scope, unsafe)
                self.expr_read(site, e.lo, scope, unsafe)
            e = e.base

    def bounds(self, r: ast.RangeExpr, scope) -> None:
        """E0301 unless both bounds of a part-select are constants.  A name
        in a bound that does not resolve is left to its read (E0202/E0203)."""
        for bound in (r.hi, r.lo):
            try:
                self.ev.eval(bound, scope)
            except ConstError as err:
                d, b = err.diagnostic, bound.span
                unresolved = d.code in ("E0202", "E0203") and d.span.file_id == b.file_id and b.byte_start <= d.span.byte_start < b.byte_end
                if not err.repeat and not unresolved:
                    self.diags.append(d)

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

    def drive(self, site: _Site, lvalue: ast.Expr, span: Span, scope) -> None:
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
        if self.own(sym):
            site.drive_spans.setdefault(sym.name, span)

    def module(self, path: ast.PathExpr) -> Symbol | None:
        """The symbol an inst target or generic argument names (E0202/E0203
        if none); a module's is recorded for mono."""
        sym = resolve(path, self.scope, self.diags)
        if sym is not None and sym.kind == SymbolKind.MODULE:
            self.resolved[id(path)] = sym
        return sym

    def connect(self, it: ast.InstDecl) -> None:
        """Resolve an instance's target and generic arguments (E0205 for an
        argument that is no module), and record the reads and drives of its
        connections; the rules against the target are resolver.check_inst."""
        for arg in it.generic_args:
            sym = self.module(arg)
            if sym is not None and sym.kind not in (SymbolKind.MODULE, SymbolKind.GENERIC_PARAM):
                self.diags.append(Diagnostic("E0205", f"generic argument `{arg.text}` is a {sym.kind_name}, not a module", arg.span))
        sym = self.module(it.target)
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
            self.diags += check_inst(it, sym.decl, self.scope)
            ports = {p.name: p for p in sym.decl.ports}
        site = self.site("inst", it)
        for c in it.param_conns:
            self.expr_read(None, c.expr, self.scope)
        for c in it.port_conns:
            if ports is None:
                self.expr_read(site, c.expr, self.scope, generic=True)
                base = ast.lvalue_base(c.expr)
                if base is not None and len(base.segments) == 1:
                    self.maybe_driven.add(base.segments[0])
                continue
            port = ports.get(c.name)
            if port is not None and clock_or_reset(port.ty):
                if isinstance(c.expr, ast.PathExpr):  # else E0315 from check_inst
                    resolve(c.expr, self.scope, self.diags)
            elif port is not None and port.direction == "output":
                if ast.lvalue_base(c.expr) is not None:  # else E0306 from check_inst
                    self.drive(site, c.expr, c.expr.span, self.scope)
                    self.select_reads(site, c.expr, self.scope)
            else:
                self.expr_read(site, c.expr, self.scope)

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
        driving: dict[str, list[tuple[str, Span]]] = {}  # signal -> (site kind, span) per driving site
        read: set[str] = set()
        for site in self.sites:
            for name, span in site.drive_spans.items():
                driving.setdefault(name, []).append((site.kind, span))
            read.update(name for name, _, _ in site.read_spans)
        for name, sig in self.signals.items():
            if sig.special:
                continue
            sites = sorted(driving.get(name, []), key=lambda s: s[1].byte_start)
            if len(sites) > 1:
                self.diags.append(
                    Diagnostic(
                        "E0302",
                        f"`{name}` has {len(sites)} driving sites",
                        sites[1][1],
                        [Related(f"also driven by this {k}", sp) for k, sp in sites if sp is not sites[1][1]],
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
                if name not in read:
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
        domain = self.signals[name].domain
        return ("named", domain) if domain else _DEFAULT

    def ff_domain(self, ff: ast.AlwaysFf):
        clock = self.resolved[id(ff)].clock
        return self.declared_domain(clock) if clock else _DEFAULT

    def check_cdc(self) -> None:
        """E0316 for cross-domain reads in always_ff outside unsafe(cdc).  An
        unannotated signal takes the domain of the sites that drive it: an
        always_ff its clock's, an assign or always_comb the join of what it
        reads."""
        domains = {name: self.declared_domain(name) for name in self.signals}
        # signal -> per driving site, a domain label (always_ff) or the signals read (comb)
        sources: dict[str, list] = {}
        for site in self.sites:
            if site.kind == "always_ff":
                source = self.ff_domain(site.item)
            elif site.kind in ("assign", "always_comb"):
                source = frozenset(name for name, _, _ in site.read_spans)
            else:
                continue
            for name in site.drive_spans:
                if not self.signals[name].domain:
                    sources.setdefault(name, []).append(source)

        def join(labels) -> object:
            distinct = set(labels)
            if len(distinct) == 1:
                return distinct.pop()
            return _MIXED if distinct else _DEFAULT

        for _ in range(len(self.signals) + 2):
            changed = False
            for name in sorted(sources):
                new = join(s if isinstance(s, tuple) else join(domains[r] for r in s) for s in sources[name])
                if domains[name] != new:
                    domains[name] = new
                    changed = True
            if not changed:
                break

        for site in self.sites:
            if site.kind != "always_ff":
                continue
            d2 = self.ff_domain(site.item)
            for name, span, unsafe in site.read_spans:
                d1 = domains[name]
                if unsafe or d1 == _DEFAULT or d1 == d2:
                    continue
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
