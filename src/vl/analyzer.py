"""Semantic checks: driver analysis, latch inference, direction/connectivity
consistency, literal widths, clock/reset binding, and CDC detection."""

from __future__ import annotations

import operator

from . import ast
from .diagnostics import Diagnostic, Related
from .lexer import sized_literal_parts, sized_literal_value
from .record import field, record
from .resolver import Scope, Symbol, SymbolKind, SymbolTable, check_inst, resolve
from .tokens import CLOCK_TYPES, RESET_TYPES, Span

_U64_MASK = (1 << 64) - 1

# Clock-domain labels; an annotated domain `d` is ("named", d).
_DEFAULT = ("default",)
_MIXED = ("mixed",)

_SPECIAL_KINDS = {"clock": CLOCK_TYPES, "reset": RESET_TYPES}

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
        self.repeat = repeat  # reported already: a memoized failure, or the lexer's E0002


@record(frozen=True)
class FfBinding:
    clock: str | None
    clock_kind: str | None
    reset: str | None
    reset_kind: str | None
    uses_if_reset: bool


# -- constant evaluation ------------------------------------------------------


# Steps of `_ConstEval.run`'s work stack.
_EXPR, _DECL, _DONE, _UNARY, _BINARY = range(5)


class _ConstEval:
    """Evaluates constant expressions; each parameter's and constant's value,
    or the diagnostic it failed with, is computed once.

    A work stack stands in for recursion, so neither a long operator chain
    nor a constant defined through thousands of others nests Python frames.
    It walks in a recursive walk's order (left operand, right operand,
    operator; a name's declaration where the name stands), so the first
    failure, and the reference that closes a cycle, are that walk's."""

    def __init__(self):
        self.memo: dict[int, int | Diagnostic] = {}

    def fail(self, message: str, span: Span):
        raise ConstError(Diagnostic("E0301", message, span))

    def eval(self, e: ast.Expr, scope: Scope) -> int:
        return self.run(_EXPR, e, scope)

    def decl(self, d: ast.ParamDecl | ast.ConstDecl, scope: Scope) -> int:
        """The value of a parameter's default or a constant; raises its failure."""
        return self.run(_DECL, d, scope)

    def run(self, step: int, node, scope: Scope) -> int:
        """The value of `node`, an expression (`_EXPR`) or a declaration
        (`_DECL`).  A failure is memoized for each declaration it interrupts."""
        work = [(step, node, scope)]
        values: list[int] = []
        pending: dict[int, None] = {}  # declarations under evaluation, innermost last
        try:
            while work:
                step, x, scope = work.pop()
                if step == _EXPR:
                    if isinstance(x, ast.BinaryExpr):
                        work += ((_BINARY, x, scope), (_EXPR, x.rhs, scope), (_EXPR, x.lhs, scope))
                    elif isinstance(x, ast.PathExpr):
                        sym = self.constant(x, scope)
                        if id(sym.decl) in pending:
                            self.fail(f"constant `{x.text}` is defined in terms of itself", x.span)
                        work.append((_DECL, sym.decl, sym.scope))
                    elif isinstance(x, ast.UnaryExpr):
                        work += ((_UNARY, x, scope), (_EXPR, x.operand, scope))
                    elif isinstance(x, ast.ParenExpr):
                        work.append((_EXPR, x.inner, scope))
                    else:
                        values.append(self.literal(x))
                elif step == _DECL:
                    v = self.memo.get(id(x))
                    if isinstance(v, Diagnostic):
                        raise ConstError(v, repeat=True)
                    if v is not None:
                        values.append(v)
                        continue
                    pending[id(x)] = None
                    work += ((_DONE, x, scope), (_EXPR, x.default if isinstance(x, ast.ParamDecl) else x.value, scope))
                elif step == _DONE:
                    self.memo[pending.popitem()[0]] = values[-1]
                elif step == _UNARY:
                    values.append(self.unop(x, values.pop()))
                else:
                    b = values.pop()
                    values.append(self.binop(x, values.pop(), b))
        except ConstError as err:
            for key in pending:
                self.memo[key] = err.diagnostic
            raise
        return values.pop()

    def literal(self, e: ast.Expr) -> int:
        """A literal's value; any other expression left here is not constant."""
        if isinstance(e, ast.DecLiteral):
            v = e.value
            if v > _U64_MASK:
                self.fail(f"literal `{e.text}` exceeds 64 bits", e.span)
            return v
        if isinstance(e, ast.SizedLiteral):
            parts = sized_literal_parts(e.text)
            if parts is None:  # the lexer reported E0002 here
                raise ConstError(Diagnostic("E0002", f"sized literal `{e.text}`", e.span), repeat=True)
            v = sized_literal_value(parts[1], parts[2])
            if v > _U64_MASK:
                self.fail(f"literal `{e.text}` exceeds 64 bits", e.span)
            return v
        self.fail("expression is not constant", e.span)

    def constant(self, e: ast.PathExpr, scope: Scope) -> Symbol:
        """The parameter or constant `e` names."""
        quiet: list[Diagnostic] = []
        sym = resolve(e, scope, quiet)
        if sym is None:
            raise ConstError(quiet[0])
        if sym.kind not in (SymbolKind.PARAM, SymbolKind.CONST):
            self.fail(f"`{e.text}` is a {sym.kind_name}, not a constant", e.span)
        return sym

    def unop(self, e: ast.UnaryExpr, v: int) -> int:
        """`e`'s operator on its operand's value `v`."""
        if e.op == "!":
            return 0 if v else 1
        if e.op == "~":
            return v ^ _U64_MASK
        if v != 0:
            self.fail("negation of an unsigned value wraps", e.span)
        return 0

    def binop(self, e: ast.BinaryExpr, a: int, b: int) -> int:
        """`e`'s operator on its operands' values `a` and `b`."""
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


# -- per-unit analysis ---------------------------------------------------------


def analyze_unit(files: list[ast.SourceFile], table: SymbolTable) -> tuple[list[Diagnostic], dict[int, FfBinding | Symbol]]:
    """Run the full check catalog over one project's parsed files, taken in
    file-id order, as `driver.check_program` sorts them.  Returns the
    diagnostics and what the checks resolved, keyed by node `id()`: the
    clock/reset binding of each always_ff, and the module symbol of each inst
    target and generic argument path that names one."""
    diags: list[Diagnostic] = []
    resolved: dict[int, FfBinding | Symbol] = {}
    ev = _ConstEval()
    for sf in files:
        for item in sf.items:
            chk = _ModuleChecker(item, table, ev, resolved)
            diags += chk.run()
    return diags, resolved


def check_literal_widths(expr: ast.Expr) -> list[Diagnostic]:
    """E0311 for every sized literal whose value does not fit its width."""
    return [d for e in ast.walk_exprs(expr) if isinstance(e, ast.SizedLiteral) and (d := _literal_width(e)) is not None]


def _literal_width(e: ast.SizedLiteral) -> Diagnostic | None:
    """E0311 if the value of `e` does not fit its width."""
    parts = sized_literal_parts(e.text)
    if parts is None:
        return None  # the lexer already reported E0002
    width, base, digits = parts
    if width == 0:
        return Diagnostic("E0311", f"literal `{e.text}` has zero width", e.span)
    value = sized_literal_value(base, digits)
    if value >= (1 << width):
        return Diagnostic("E0311", f"literal value {value} does not fit in {width} bit{'s' if width != 1 else ''}", e.span)
    return None


@record
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
        # the port and var symbols of the module's own scope
        self.signals = {
            name: sym for name, sym in self.scope.entries.items() if sym.kind in (SymbolKind.PORT, SymbolKind.VAR)
        }
        self.sites: list[_Site] = []
        # names wired to a port of a generic parameter, whose direction is unknown
        self.maybe_driven: set[str] = set()
        # "clock"/"reset" -> the signals of that type, once an abbreviated always_ff asks
        self.typed: dict[str, list[str]] = {}
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
            if isinstance(it, ast.VarDecl):
                self.dims(it.ty)
            elif isinstance(it, ast.ConstDecl):
                self.const_init(it)
            elif isinstance(it, ast.AssignItem):
                site = self.site("assign", it)
                self.drive(site, it.lvalue, it.span, self.scope)
                self.expr_read(site, it.rhs, self.scope)
                self.select_reads(site, it.lvalue, self.scope)
            elif isinstance(it, ast.AlwaysFf):
                self.bind_always_ff(it, self.walk_stmts(self.site("always_ff", it), it.body.stmts, self.scope, in_unsafe, {})[1])
            elif isinstance(it, ast.AlwaysComb):
                assigned: dict[str, Span] = {}
                must, _ = self.walk_stmts(self.site("always_comb", it), it.body.stmts, self.scope, in_unsafe, assigned)
                self.check_latches(assigned, must)
            elif isinstance(it, ast.InstDecl):
                self.connect(it)
            elif isinstance(it, ast.FunctionDecl):
                for a in it.args:
                    self.dims(a.ty)
                self.dims(it.ret)
                self.walk_stmts(self.site("function", it), it.body.stmts, self.table.function_scopes[id(it)], False, {})
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
        return self.signals.get(sym.name) is sym

    # -- clock and reset --

    def bind_always_ff(self, ff: ast.AlwaysFf, uses_ir: bool) -> None:
        """Bind `ff`, whose body holds an `if_reset` arm when `uses_ir`, to
        its clock (and reset, when needed).  An abbreviated form requires
        exactly one clock-typed (and reset-typed) signal in the module;
        explicit names must have clock/reset types."""
        clock = self.bind("clock", ff.clock_name, ff.clock_span, ff)
        reset = None
        if uses_ir and ff.clock_name is not None and ff.reset_name is None:
            self.diags.append(Diagnostic("E0313", "`if_reset` requires a reset in this always_ff's sensitivity list", ff.span))
        elif uses_ir or ff.reset_name is not None:
            reset = self.bind("reset", ff.reset_name, ff.reset_span, ff)
        self.resolved[id(ff)] = FfBinding(
            clock,
            self.signals[clock].ty.kind if clock else None,
            reset,
            self.signals[reset].ty.kind if reset else None,
            uses_ir,
        )

    def bind(self, what: str, name: str | None, span: Span | None, ff: ast.AlwaysFf) -> str | None:
        """The `what` ("clock" or "reset") of `ff`: `name` as written, or,
        when it is None, the module's only `what`-typed signal."""
        kinds = _SPECIAL_KINDS[what]
        if name is None:
            if what not in self.typed:
                self.typed[what] = [n for n, sym in self.signals.items() if sym.ty.kind in kinds]
            typed = self.typed[what]
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
        elif self.signals[name].ty.kind not in kinds:
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
        """A parameter or constant: its type, then its default or value's
        literal widths, then that value."""
        self.dims(d.ty)
        self.diags += check_literal_widths(d.default if isinstance(d, ast.ParamDecl) else d.value)
        self.const_value(self.ev.decl, d, self.scope)

    def dims(self, ty: ast.TypeSpec) -> None:
        """Every width and array size of a type: literal widths, then its
        value, a constant of the module's or package's own scope."""
        for d in ty.packed_dims + ty.unpacked_dims:
            self.diags += check_literal_widths(d)
            self.const_value(self.ev.eval, d, self.scope)

    # -- reads and drives --

    def walk_stmts(self, site: _Site, stmts, scope, unsafe: bool, assigned: dict[str, Span]) -> tuple[set[str], bool]:
        """Record the drives and reads of `stmts` into `site`, and into
        `assigned` each module signal they assign, at the base path of its
        first assignment.  Returns the module signals assigned on every path,
        and whether `stmts` hold an `if_reset` arm.  An `if` chain's
        conditions are read before its arms.  Each body nests one call, so
        the parser's MAX_NESTING bounds the recursion."""
        must: set[str] = set()
        uses_ir = False
        for s in stmts:
            if isinstance(s, ast.AssignStmt):
                base = self.drive(site, s.lvalue, s.span, scope)
                if base is not None:
                    must.add(base.text)
                    assigned.setdefault(base.text, base.span)
                self.expr_read(site, s.rhs, scope, unsafe)
                self.select_reads(site, s.lvalue, scope, unsafe)
            elif isinstance(s, ast.ReturnStmt):
                self.expr_read(site, s.value, scope, unsafe)
            elif isinstance(s, ast.IfStmt):
                for cond, _ in s.arms:
                    if cond is None:
                        uses_ir = True
                    else:
                        self.expr_read(site, cond, scope, unsafe)
                bodies = [block.stmts for _, block in s.arms] + [s.orelse.stmts if s.orelse else []]  # no else: an empty path
                paths = [self.walk_stmts(site, body, scope, unsafe, assigned) for body in bodies]
                must |= set.intersection(*(m for m, _ in paths))
                uses_ir = uses_ir or any(ir for _, ir in paths)
            else:  # a block, or unsafe (cdc) around one
                inner = isinstance(s, ast.UnsafeCdcStmt)
                m, ir = self.walk_stmts(site, (s.body if inner else s).stmts, scope, unsafe or inner, assigned)
                must |= m
                uses_ir = uses_ir or ir
        return must, uses_ir

    def expr_read(self, site: _Site | None, e: ast.Expr, scope, unsafe: bool = False, generic: bool = False) -> None:
        """Resolve every path in `e` and check its literal widths, calls and
        range bounds; record the signals it reads into `site`.  A parameter
        connection has no site: it carries no dataflow.  On a port of a
        generic parameter (`generic`), E0315 waits until mono knows the
        port's type."""
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
            elif isinstance(sub, ast.SizedLiteral) and (d := _literal_width(sub)) is not None:
                self.diags.append(d)

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
        if ast.clock_or_reset(sym.ty):
            self.diags.append(
                Diagnostic(
                    "E0315", f"clock/reset-typed signal `{path.text}` cannot be used in ordinary dataflow", path.span
                )
            )
            return False
        return True

    def drive(self, site: _Site, lvalue: ast.Expr, span: Span, scope) -> ast.PathExpr | None:
        """Record a drive of `lvalue`, at `span`, into `site`; its base path
        when that names one of the module's own signals."""
        base = ast.lvalue_base(lvalue)  # a path: `parse_lvalue` reads one, `connect` checks one
        sym = resolve(base, scope, self.diags)
        if sym is None:
            return None
        if sym.kind not in (SymbolKind.VAR, SymbolKind.PORT):
            self.diags.append(
                Diagnostic("E0306", f"cannot assign to `{base.text}` ({sym.kind_name})", base.span)
            )
            return None
        if not self.dataflow(sym, base):
            return None
        if sym.kind == SymbolKind.PORT and sym.decl.direction == "input":
            self.diags.append(
                Diagnostic("E0306", f"input port `{base.text}` cannot be assigned", base.span)
            )
            return None
        if not self.own(sym):
            return None
        site.drive_spans.setdefault(sym.name, span)
        return base

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
            if port is not None and ast.clock_or_reset(port.ty):
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
        for name, sym in self.signals.items():
            if ast.clock_or_reset(sym.ty):
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
            if sym.kind == SymbolKind.VAR:
                if name not in read:
                    self.diags.append(Diagnostic("W0304", f"variable `{name}` is never read", sym.span))
                elif not driven:
                    self.diags.append(Diagnostic("E0303", f"variable `{name}` is never driven", sym.span))
            elif sym.decl.direction == "output" and not driven:
                self.diags.append(Diagnostic("E0303", f"output port `{name}` is never driven", sym.span))

    def check_latches(self, assigned: dict[str, Span], must: set[str]) -> None:
        """W0305 for each module signal an always_comb assigns, first at
        `assigned[name]`, on some but not all paths; not in a module that
        lost an item to parse recovery."""
        if self.m.recovered:
            return
        for name, span in assigned.items():
            if name not in must:
                self.diags.append(
                    Diagnostic(
                        "W0305",
                        f"`{name}` is not assigned on every path of this always_comb (latch inferred)",
                        span,
                        [Related("declared here", self.signals[name].span)],
                    )
                )

    # -- clock domains --

    def declared_domain(self, name: str):
        """The clock-domain label `name` is annotated with, else _DEFAULT."""
        domain = self.signals[name].decl.domain
        return ("named", domain) if domain else _DEFAULT

    def check_cdc(self) -> None:
        """E0316 for cross-domain reads in always_ff outside unsafe(cdc).

        An unannotated signal that an always_ff, assign or always_comb drives
        takes the join of the labels that reach it: the clock domain of each
        always_ff that drives it, and, through each assign or always_comb
        that drives it, the labels of every signal that site reads
        (_DEFAULT when it reads nothing).  Every other signal has its
        declared label.  A label set only grows, and two labels are _MIXED
        whatever joins them later, so a set stops growing at two: each node
        changes at most twice, and the work list is linear in the sites'
        reads and drives."""
        # Nodes are signal names, and the indices of always_ff, assign and always_comb sites.
        reach: dict[str | int, set] = {}  # node -> the labels that reach it
        into: dict[str | int, list] = {}  # node -> the nodes its labels flow into
        for i, site in enumerate(self.sites):
            if site.kind == "always_ff":
                clock = self.resolved[id(site.item)].clock
                reach[i] = {self.declared_domain(clock) if clock else _DEFAULT}
            elif site.kind in ("assign", "always_comb"):
                reach[i] = set() if site.read_spans else {_DEFAULT}
                for name, _, _ in site.read_spans:
                    into.setdefault(name, []).append(i)
            else:
                continue
            into[i] = [name for name in site.drive_spans if not self.signals[name].decl.domain]
            for name in into[i]:
                reach[name] = set()
        for name in self.signals:
            reach.setdefault(name, {self.declared_domain(name)})
        work = [node for node, labels in reach.items() if labels]
        while work:
            labels = reach[node := work.pop()]
            for dest in into.get(node, ()):
                have = reach[dest]
                if len(have) < 2 and not labels <= have:
                    have |= labels
                    work.append(dest)

        for i, site in enumerate(self.sites):
            if site.kind != "always_ff":
                continue
            (d2,) = reach[i]  # its clock's domain: nothing flows into an always_ff
            for name, span, unsafe in site.read_spans:
                labels = reach[name]
                d1 = next(iter(labels)) if len(labels) == 1 else _MIXED if labels else _DEFAULT
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
                        [Related("declared here", self.signals[name].span)],
                    )
                )
