"""Semantic checks: driver analysis, latch inference, direction/connectivity
consistency, literal widths, clock/reset binding, and CDC detection."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .diagnostics import Diagnostic, Related
from .lexer import sized_literal_parts, sized_literal_value
from .resolver import Scope, Symbol, SymbolKind, SymbolTable, check_connections, resolve
from .tokens import Span

_U64_MASK = (1 << 64) - 1

# Clock-domain labels.
_DEFAULT = ("default",)
_MIXED = ("mixed",)


def _named(d: str):
    return ("named", d)


class ConstError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class FfBinding:
    clock: str | None
    clock_kind: str | None
    reset: str | None
    reset_kind: str | None
    uses_if_reset: bool
    ok: bool


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
    clocks = [n for n, t in types.items() if t.is_clock]
    resets = [n for n, t in types.items() if t.is_reset]

    for it, _ in ast.iter_module_items(m.body):
        if not isinstance(it, ast.AlwaysFf):
            continue
        uses_ir = any(isinstance(s, ast.IfResetStmt) for s, _ in ast.iter_stmts(it.body.stmts))
        clock = reset = None
        ok = True
        if it.clock_name is not None:
            ty = types.get(it.clock_name)
            if ty is None:
                diags.append(Diagnostic("E0202", f"undefined identifier `{it.clock_name}`", it.clock_span))
                ok = False
            elif not ty.is_clock:
                diags.append(
                    Diagnostic("E0314", f"`{it.clock_name}` in a sensitivity list must have a clock type", it.clock_span)
                )
                ok = False
            else:
                clock = it.clock_name
            if it.reset_name is not None:
                rty = types.get(it.reset_name)
                if rty is None:
                    diags.append(Diagnostic("E0202", f"undefined identifier `{it.reset_name}`", it.reset_span))
                    ok = False
                elif not rty.is_reset:
                    diags.append(
                        Diagnostic(
                            "E0314", f"`{it.reset_name}` in a sensitivity list must have a reset type", it.reset_span
                        )
                    )
                    ok = False
                else:
                    reset = it.reset_name
            elif uses_ir:
                diags.append(
                    Diagnostic("E0313", "`if_reset` requires a reset in this always_ff's sensitivity list", it.span)
                )
                ok = False
        else:
            if len(clocks) == 1:
                clock = clocks[0]
            else:
                diags.append(
                    Diagnostic(
                        "E0312",
                        f"cannot infer the clock for an abbreviated always_ff: {len(clocks)} clock-typed signals in scope",
                        it.span,
                    )
                )
                ok = False
            if uses_ir:
                if len(resets) == 1:
                    reset = resets[0]
                else:
                    diags.append(
                        Diagnostic(
                            "E0312",
                            f"cannot infer the reset for an abbreviated always_ff: {len(resets)} reset-typed signals in scope",
                            it.span,
                        )
                    )
                    ok = False
        bindings[id(it)] = FfBinding(
            clock,
            types[clock].kind if clock else None,
            reset,
            types[reset].kind if reset else None,
            uses_ir,
            ok,
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
    def __init__(self):
        self.memo: dict[int, int] = {}
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
        if op in ("&&", "||"):
            return int(bool(a) or bool(b)) if op == "||" else int(bool(a) and bool(b))
        compare = {
            "==": a == b, "!=": a != b,
            "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        }
        if op in compare:
            return int(compare[op])
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
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
        rp = resolve(e, scope, quiet)
        if rp is None:
            raise ConstError(quiet[0])
        sym = rp.target
        if sym.kind not in (SymbolKind.PARAM, SymbolKind.CONST):
            self.fail(f"`{e.text}` is a {sym.kind_name}, not a constant", e.span)
        key = id(sym.decl)
        if key in self.memo:
            return self.memo[key]
        if key in self.active:
            self.fail(f"constant `{e.text}` is defined in terms of itself", e.span)
        self.active.add(key)
        try:
            init = sym.decl.default if isinstance(sym.decl, ast.ParamDecl) else sym.decl.value
            v = self.eval(init, sym.scope)
        finally:
            self.active.discard(key)
        self.memo[key] = v
        return v


# -- per-unit analysis ---------------------------------------------------------


def analyze_unit(files: list[ast.SourceFile], table: SymbolTable) -> tuple[list[Diagnostic], AnalysisInfo]:
    """Run the full check catalog over one project's parsed files."""
    diags: list[Diagnostic] = []
    info = AnalysisInfo()
    for sf in sorted(files, key=lambda f: f.file_id):
        for item in sf.items:
            chk = _ModuleChecker(item, table)
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
        return self.sym.ty is not None and (self.sym.ty.is_clock or self.sym.ty.is_reset)


class _ModuleChecker:
    def __init__(self, m: ast.ModuleDecl | ast.PackageDecl, table: SymbolTable):
        if isinstance(m, ast.PackageDecl):
            # A package is checked as a module with no params, ports or processes.
            self.scope = table.package_scopes[id(m)]
            m = ast.ModuleDecl(m.name, m.name_span, [], [], [], m.items, m.span)
        else:
            self.scope = table.module_scopes[id(m)]
        self.m = m
        self.table = table
        self.diags: list[Diagnostic] = []
        self.bindings: dict[int, FfBinding] = {}
        self.signals: dict[str, _Signal] = {}
        # name -> list of (site kind, site id, span); one entry per driving site
        self.drives: dict[str, list[tuple[str, int, Span]]] = {}
        self.reads: dict[str, list[Span]] = {}
        # (ff id, signal name, span, amnesty) for CDC
        self.ff_reads: list[tuple[int, str, Span, bool]] = []
        # signal -> list of domain sources per driving site
        self.domain_drivers: dict[str, list[tuple[str, object]]] = {}
        self.ev = _ConstEval()

    def run(self) -> list[Diagnostic]:
        self.collect_signals()
        self.bindings, bind_diags = bind_always_ff(self.m)
        self.diags += bind_diags
        self.check_const_contexts()
        self.traverse()
        self.check_drivers()
        for it, _ in ast.iter_module_items(self.m.body):
            if isinstance(it, ast.AlwaysComb):
                self.check_latches(it.body)
        self.check_cdc()
        return self.diags

    # -- signal table --

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

    def check_const_contexts(self) -> None:
        def eval_dim(e: ast.Expr, scope: Scope) -> None:
            try:
                self.ev.eval(e, scope)
            except ConstError as err:
                self.diags.append(err.diagnostic)

        for p in self.m.params:
            eval_dim(p.default, self.scope)
        for p in self.m.ports:
            for d in p.ty.packed_dims + p.ty.unpacked_dims:
                eval_dim(d, self.scope)
        for it, _ in ast.iter_module_items(self.m.body):
            if isinstance(it, (ast.VarDecl, ast.ConstDecl)):
                for d in it.ty.packed_dims + it.ty.unpacked_dims:
                    eval_dim(d, self.scope)
            if isinstance(it, ast.ConstDecl):
                self.diags += check_literal_widths(it.value)
                eval_dim(it.value, self.scope)

    # -- traversal ---------------------------------------------------------

    def traverse(self) -> None:
        for p in self.m.params:
            self.expr_read(p.default, self.scope, collect=False)
        for it, in_unsafe in ast.iter_module_items(self.m.body):
            if isinstance(it, ast.AssignItem):
                self.drive(it.lvalue, "assign", id(it), it.span, self.scope)
                reads = self.expr_read(it.rhs, self.scope)
                reads += self.select_reads(it.lvalue, self.scope, None, False)
                self.note_domain_driver(it.lvalue, ("comb", frozenset(reads)))
            elif isinstance(it, ast.AlwaysFf):
                self.walk_process(it, "always_ff", in_unsafe)
            elif isinstance(it, ast.AlwaysComb):
                self.walk_process(it, "always_comb", in_unsafe)
            elif isinstance(it, ast.InstDecl):
                self.check_connectivity(it)
            elif isinstance(it, ast.FunctionDecl):
                fscope = self.table.function_scopes[id(it)]
                self.walk_stmts(it.body.stmts, None, fscope, "function", id(it), False)

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

    def expr_read(self, e: ast.Expr, scope, ff_id=None, amnesty=False, collect=True) -> list[str]:
        """Resolve every path in `e`; record reads; returns read signal names."""
        names: list[str] = []
        self.diags += check_literal_widths(e)
        for sub in ast.walk_exprs(e):
            if isinstance(sub, ast.CallExpr):
                self.check_call(sub, scope)
            elif isinstance(sub, ast.RangeExpr):
                for bound in (sub.hi, sub.lo):
                    try:
                        self.ev.eval(bound, scope)
                    except ConstError as err:
                        self.diags.append(err.diagnostic)
            elif isinstance(sub, ast.PathExpr):
                rp = resolve(sub, scope, self.diags)
                if rp is None:
                    continue
                sym = rp.target
                if sym.kind in (SymbolKind.MODULE, SymbolKind.PACKAGE, SymbolKind.NAMESPACE, SymbolKind.INST):
                    self.diags.append(
                        Diagnostic("E0203", f"`{sub.text}` is a {sym.kind_name}, not a value", sub.span)
                    )
                    continue
                if sym.kind == SymbolKind.FUNCTION:
                    self.diags.append(
                        Diagnostic("E0203", f"function `{sub.text}` must be called", sub.span)
                    )
                    continue
                if sym.ty is not None and (sym.ty.is_clock or sym.ty.is_reset):
                    self.diags.append(
                        Diagnostic(
                            "E0315",
                            f"clock/reset-typed signal `{sub.text}` cannot be used in ordinary dataflow",
                            sub.span,
                        )
                    )
                    continue
                if collect and len(sub.segments) == 1 and sub.segments[0] in self.signals:
                    name = sub.segments[0]
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

    def drive(self, lvalue: ast.Expr, site_kind: str, site_id: int, span: Span, scope) -> None:
        base = ast.lvalue_base(lvalue)
        if base is None:
            self.diags.append(Diagnostic("E0306", "assignment target is not an lvalue", span))
            return
        rp = resolve(base, scope, self.diags)
        if rp is None:
            return
        sym = rp.target
        if sym.kind not in (SymbolKind.VAR, SymbolKind.PORT):
            self.diags.append(
                Diagnostic("E0306", f"cannot assign to `{base.text}` ({sym.kind_name})", base.span)
            )
            return
        if sym.ty is not None and (sym.ty.is_clock or sym.ty.is_reset):
            self.diags.append(
                Diagnostic(
                    "E0315",
                    f"clock/reset-typed signal `{base.text}` cannot be used in ordinary dataflow",
                    base.span,
                )
            )
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

    # -- checks --

    def check_drivers(self) -> None:
        """E0302 multiple drivers, E0303 never driven, W0304 never read."""
        for name, sig in self.signals.items():
            if sig.special:
                continue
            sites = sorted(self.drives.get(name, []), key=lambda s: s[2].byte_start)
            nreads = len(self.reads.get(name, []))
            if len(sites) > 1:
                self.diags.append(
                    Diagnostic(
                        "E0302",
                        f"`{name}` has {len(sites)} driving sites",
                        sites[1][2],
                        [Related(f"also driven by this {k}", sp) for k, _, sp in sites if sp is not sites[1][2]],
                    )
                )
            if sig.direction == "output":
                if not sites:
                    self.diags.append(
                        Diagnostic("E0303", f"output port `{name}` is never driven", sig.sym.span)
                    )
            elif sig.direction is None:
                if nreads == 0:
                    self.diags.append(Diagnostic("W0304", f"variable `{name}` is never read", sig.sym.span))
                elif not sites:
                    self.diags.append(Diagnostic("E0303", f"variable `{name}` is never driven", sig.sym.span))

    def check_latches(self, block: ast.Block) -> None:
        """W0305 for signals assigned on some but not all paths of a comb block."""
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
                    arm_must = arms[0][0]
                    for m, _ in arms[1:]:
                        arm_must = arm_must & m
                    must |= arm_must
                    for _, mb in arms:
                        maybe |= mb
                elif isinstance(s, ast.Block):
                    m, mb = flow(s.stmts)
                    must |= m
                    maybe |= mb
                elif isinstance(s, ast.UnsafeCdcStmt):
                    m, mb = flow(s.body.stmts)
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

    def check_call(self, call: ast.CallExpr, scope) -> None:
        """E0310 when a call's arity disagrees with the function declaration."""
        rp = resolve(call.path, scope, self.diags)
        if rp is None:
            return
        if rp.target.kind != SymbolKind.FUNCTION:
            self.diags.append(
                Diagnostic("E0203", f"`{call.path.text}` is a {rp.target.kind_name}, not a function", call.path.span)
            )
            return
        decl: ast.FunctionDecl = rp.target.decl
        if len(call.args) != len(decl.args):
            self.diags.append(
                Diagnostic(
                    "E0310",
                    f"function `{call.path.text}` expects {len(decl.args)} argument(s), got {len(call.args)}",
                    call.span,
                    [Related("declared here", decl.name_span)],
                )
            )

    def check_connectivity(self, it: ast.InstDecl) -> None:
        """E0307/E0308/E0309 for instance connections; E0306 for output targets."""
        rp = resolve(it.target, self.scope, self.diags)
        if rp is None:
            return
        sym = rp.target
        if sym.kind == SymbolKind.GENERIC_PARAM:
            return  # checked after monomorphization against the argument module
        if sym.kind != SymbolKind.MODULE:
            self.diags.append(
                Diagnostic("E0203", f"cannot instantiate `{it.target.text}`: it is a {sym.kind_name}", it.target.span)
            )
            return
        target: ast.ModuleDecl = sym.decl
        self.diags += check_connections(it, target)
        ports = {p.name: p for p in target.ports}
        # Connection expressions: reads for inputs, drives for outputs.
        for c in it.param_conns:
            self.expr_read(c.expr, self.scope, collect=False)
        for c in it.port_conns:
            port = ports.get(c.name)
            if port is not None and (port.ty.is_clock or port.ty.is_reset):
                self._check_special_conn(c, port)
                continue
            if port is not None and port.direction == "output":
                if ast.lvalue_base(c.expr) is None:
                    self.diags.append(
                        Diagnostic(
                            "E0306",
                            f"output port `{c.name}` must be connected to an assignable signal",
                            c.expr.span,
                        )
                    )
                    continue
                self.drive(c.expr, "inst", id(it), c.expr.span, self.scope)
                self.select_reads(c.expr, self.scope, None, False)
            else:
                self.expr_read(c.expr, self.scope)

    def _check_special_conn(self, c: ast.Connection, port: ast.PortDecl) -> None:
        """A clock/reset-typed child port accepts exactly a clock/reset signal."""
        base = ast.lvalue_base(c.expr)
        if base is None or not isinstance(c.expr, ast.PathExpr):
            self.diags.append(
                Diagnostic("E0315", f"port `{c.name}` needs a clock/reset-typed signal", c.expr.span)
            )
            return
        rp = resolve(base, self.scope, self.diags)
        if rp is None:
            return
        ty = rp.target.ty
        if ty is None or not (ty.is_clock or ty.is_reset):
            self.diags.append(
                Diagnostic(
                    "E0315",
                    f"port `{c.name}` needs a clock/reset-typed signal, `{base.text}` is not one",
                    c.expr.span,
                )
            )

    # -- clock domains --

    def signal_domain_label(self, name: str):
        sig = self.signals.get(name)
        if sig is None:
            return _DEFAULT
        return _named(sig.domain) if sig.domain else None

    def ff_domain(self, ff_id: int):
        b = self.bindings.get(ff_id)
        if b is None or b.clock is None:
            return _DEFAULT
        fixed = self.signal_domain_label(b.clock)
        return fixed if fixed is not None else _DEFAULT

    def check_cdc(self) -> None:
        """E0316 for cross-domain reads in always_ff outside unsafe(cdc)."""
        domains: dict[str, object] = {}
        for name, sig in self.signals.items():
            fixed = _named(sig.domain) if sig.domain else None
            domains[name] = fixed if fixed is not None else _DEFAULT
        annotated = {n for n, s in self.signals.items() if s.domain}

        def join(labels) -> object:
            labels = [d for d in labels]
            if not labels:
                return _DEFAULT
            if any(d == _MIXED for d in labels):
                return _MIXED
            distinct = set(labels)
            if len(distinct) == 1:
                return distinct.pop()
            return _MIXED

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
                        sources = [domains[r] for r in sorted(payload) if r in domains]
                        contributions.append(join(sources))
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
