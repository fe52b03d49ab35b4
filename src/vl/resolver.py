"""Symbol tables across project and dependency namespaces, path resolution,
and monomorphization of generic modules."""

from __future__ import annotations

from enum import Enum, auto

from . import ast
from .diagnostics import Diagnostic, Related
from .record import field, record, replace
from .tokens import Span


class SymbolKind(Enum):
    MODULE = auto()
    PACKAGE = auto()
    PARAM = auto()
    CONST = auto()
    PORT = auto()
    VAR = auto()
    INST = auto()
    FUNCTION = auto()
    GENERIC_PARAM = auto()
    NAMESPACE = auto()


@record
class Symbol:
    name: str
    kind: SymbolKind
    span: Span
    unit: str
    decl: object = None
    ty: ast.TypeSpec | None = None
    is_pub: bool = True
    scope: "Scope | None" = field(default=None, compare=False)  # set by Scope.declare
    # What `Sym::member` looks up: a package's items, a dependency's project scope.
    members: "Scope | None" = field(default=None, compare=False)

    @property
    def kind_name(self) -> str:
        return self.kind.name.lower().replace("_", " ")


class Scope:
    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self.entries: dict[str, Symbol] = {}

    def declare(self, sym: Symbol) -> Symbol | None:
        """Add `sym`; returns the previous symbol if the name is taken."""
        existing = self.entries.get(sym.name)
        if existing is None:
            self.entries[sym.name] = sym
            sym.scope = self
        return existing

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            sym = scope.entries.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None


@record
class SymbolTable:
    unit: str
    project: Scope
    module_scopes: dict[int, Scope] = field(default_factory=dict)
    package_scopes: dict[int, Scope] = field(default_factory=dict)
    function_scopes: dict[int, Scope] = field(default_factory=dict)


def build_symbols(
    files: list[ast.SourceFile],
    dependency_namespaces: dict[str, SymbolTable] | None = None,
    unit: str = "local",
) -> tuple[SymbolTable, list[Diagnostic]]:
    """Index every declaration of `files`, taken in file-id order as
    `driver.check_program` sorts them; duplicates in one scope are E0201
    (first wins)."""
    diags: list[Diagnostic] = []
    project = Scope()
    table = SymbolTable(unit, project)
    for dep_name in sorted(dependency_namespaces or {}):
        project.declare(Symbol(dep_name, SymbolKind.NAMESPACE, Span(dep_name, 0, 0, 1, 1), dep_name, members=dependency_namespaces[dep_name].project))

    def declare(scope: Scope, sym: Symbol) -> None:
        existing = scope.declare(sym)
        if existing is not None:
            diags.append(
                Diagnostic(
                    "E0201",
                    f"duplicate identifier `{sym.name}`",
                    sym.span,
                    [Related("first declared here", existing.span)],
                )
            )

    for sf in files:
        for item in sf.items:
            if isinstance(item, ast.ModuleDecl):
                declare(project, Symbol(item.name, SymbolKind.MODULE, item.name_span, unit, decl=item, is_pub=item.is_pub))
            else:
                members = table.package_scopes[id(item)] = Scope(project)
                declare(project, Symbol(item.name, SymbolKind.PACKAGE, item.name_span, unit, decl=item, is_pub=item.is_pub, members=members))

    for sf in files:
        for item in sf.items:
            if isinstance(item, ast.ModuleDecl):
                _index_module(table, project, item, unit, declare)
            else:
                _index_items(table, table.package_scopes[id(item)], item.items, unit, declare)
    return table, diags


def _index_module(table, project, m: ast.ModuleDecl, unit, declare) -> None:
    scope = Scope(project)
    table.module_scopes[id(m)] = scope
    for gp in m.generic_params:
        declare(scope, Symbol(gp.text, SymbolKind.GENERIC_PARAM, gp.span, unit))
    for p in m.params:
        declare(scope, Symbol(p.name, SymbolKind.PARAM, p.name_span, unit, decl=p, ty=p.ty))
    for p in m.ports:
        declare(scope, Symbol(p.name, SymbolKind.PORT, p.name_span, unit, decl=p, ty=p.ty))
    _index_items(table, scope, (it for it, _ in ast.iter_module_items(m.body)), unit, declare)


def _index_items(table, scope: Scope, items, unit, declare) -> None:
    """Declare a module's or a package's items in `scope`, each function's args in its own scope."""
    for it in items:
        if isinstance(it, ast.VarDecl):
            declare(scope, Symbol(it.name, SymbolKind.VAR, it.name_span, unit, decl=it, ty=it.ty))
        elif isinstance(it, ast.ConstDecl):
            declare(scope, Symbol(it.name, SymbolKind.CONST, it.name_span, unit, decl=it, ty=it.ty))
        elif isinstance(it, ast.InstDecl):
            declare(scope, Symbol(it.name, SymbolKind.INST, it.name_span, unit, decl=it))
        elif isinstance(it, ast.FunctionDecl):
            declare(scope, Symbol(it.name, SymbolKind.FUNCTION, it.name_span, unit, decl=it))
            fscope = Scope(scope)
            table.function_scopes[id(it)] = fscope
            for a in it.args:
                declare(fscope, Symbol(a.name, SymbolKind.VAR, a.name_span, unit, decl=a, ty=a.ty))


def resolve(path: ast.PathExpr, scope: Scope, diags: list[Diagnostic]) -> Symbol | None:
    """The symbol `path` names, by innermost-scope-first lookup; the first
    segment may name a dependency, and each later one is looked up in the
    members of the symbol before it."""
    sym = scope.lookup(path.segments[0])
    if sym is None:
        diags.append(Diagnostic("E0202", f"undefined identifier `{path.segments[0]}`", path.span))
        return None
    for seg in path.segments[1:]:
        if sym.members is None:
            diags.append(
                Diagnostic("E0203", f"`{sym.name}` is a {sym.kind_name} and has no member `{seg}`", path.span)
            )
            return None
        member = sym.members.entries.get(seg)
        if sym.kind == SymbolKind.NAMESPACE:
            if member is None or not member.is_pub:
                diags.append(Diagnostic("E0202", f"dependency `{sym.name}` has no public item `{seg}`", path.span))
                return None
        elif member is None:
            diags.append(Diagnostic("E0202", f"package `{sym.name}` has no item `{seg}`", path.span))
            return None
        sym = member
    return sym


def check_inst(it: ast.InstDecl, target: ast.ModuleDecl, scope: Scope) -> list[Diagnostic]:
    """The rules of `it` against its target module, with the connection
    expressions resolved in `scope`: E0204 for a generic-argument count that
    does not match the target's, E0307/E0308/E0309 for connection names,
    E0306 for an output wired to a non-lvalue, E0315 for a clock/reset port
    wired to anything but a clock/reset-typed signal.  Run by the analyzer,
    and by mono on generic-parameter targets once they are substituted.  A
    name that does not resolve is left to the analyzer's E0202."""
    diags: list[Diagnostic] = []
    if len(it.generic_args) != len(target.generic_params):
        if target.generic_params:
            detail = f"expects {len(target.generic_params)} generic argument(s), got {len(it.generic_args)}"
        else:
            detail = f"is not generic but got {len(it.generic_args)} generic argument(s)"
        diags.append(Diagnostic("E0204", f"`{target.name}` {detail}", it.target.span))
    for conns, decls, what in ((it.param_conns, target.params, "parameter"), (it.port_conns, target.ports, "port")):
        names = {d.name for d in decls}
        seen: dict[str, Span] = {}
        for c in conns:
            if c.name in seen:
                diags.append(
                    Diagnostic(
                        "E0309",
                        f"{what} `{c.name}` connected twice",
                        c.name_span,
                        [Related("first connection here", seen[c.name])],
                    )
                )
                continue
            seen[c.name] = c.name_span
            if c.name not in names:
                diags.append(
                    Diagnostic(
                        "E0307",
                        f"`{target.name}` has no {what} named `{c.name}`",
                        c.name_span,
                        [Related("target declared here", target.name_span)],
                    )
                )
    ports = {p.name: p for p in target.ports}
    for c in it.port_conns:
        port = ports.get(c.name)
        if port is None:
            continue
        if ast.clock_or_reset(port.ty):
            if not isinstance(c.expr, ast.PathExpr):
                diags.append(Diagnostic("E0315", f"port `{c.name}` needs a clock/reset-typed signal", c.expr.span))
                continue
            sym = resolve(c.expr, scope, [])
            if sym is not None and not ast.clock_or_reset(sym.ty):
                diags.append(
                    Diagnostic(
                        "E0315",
                        f"port `{c.name}` needs a clock/reset-typed signal, `{c.expr.text}` is not one",
                        c.expr.span,
                    )
                )
        elif port.direction == "output" and ast.lvalue_base(c.expr) is None:
            diags.append(
                Diagnostic("E0306", f"output port `{c.name}` must be connected to an assignable signal", c.expr.span)
            )
    connected = {c.name for c in it.port_conns}
    for p in target.ports:
        if p.name not in connected:
            diags.append(
                Diagnostic(
                    "E0308",
                    f"missing connection for port `{p.name}` of `{target.name}`",
                    it.name_span,
                    [Related("port declared here", p.name_span)],
                )
            )
    return diags


# -- monomorphization --------------------------------------------------------


@record
class GenericInstance:
    template: ast.ModuleDecl
    args: tuple[str, ...]  # display paths of the argument modules
    mangled_name: str
    unit: str


@record
class MonoResult:
    # Emission-ready items per (unit, file): concrete modules and packages in
    # source order, with monomorphized instances in place of their templates.
    items: dict[tuple[str, str], list[ast.Item]]
    instances: list[GenericInstance]
    diagnostics: list[Diagnostic]


def mangle(template_name: str, args: tuple[str, ...]) -> str:
    return template_name + "__" + "__".join(a.replace("::", "_") for a in args)


def monomorphize(units: list) -> MonoResult:
    """Monomorphize the driver's checked units; each has `name`, `files`,
    `table` and `resolved`, the analyzer's record of the module symbol each
    inst target and generic argument names, keyed by the id of its path."""
    return _Mono(units).run()


class _Mono:
    """Monomorphization over an immutable AST: output modules share every
    subtree that does not change.  New nodes are made only for rewritten inst
    declarations, the `unsafe(cdc)` items and modules that hold them, and each
    generic instance; everything else, packages included, is the source object.
    """

    def __init__(self, units: list):
        self.units = {u.name: u for u in units}
        self.diags: list[Diagnostic] = []
        # (code, span, message) of each inst finding in a template body,
        # reported once however many instances repeat it
        self.findings: set[tuple] = set()
        # (template key, arg keys) -> instance, in the order they are completed
        self.instances: dict[tuple, GenericInstance] = {}
        # id(template) -> its concrete modules
        self.made: dict[int, list[ast.ModuleDecl]] = {}
        self.stack: list[tuple] = []

    def run(self) -> MonoResult:
        rewritten = {
            id(item): self.instantiate(item, u, {}, item.name)
            for u in self.units.values()
            for sf in u.files
            for item in sf.items
            if isinstance(item, ast.ModuleDecl) and not item.generic_params
        }
        # Place items: templates are replaced by their instances, in mangled-name
        # order; everything else keeps its source position.
        out: dict[tuple[str, str], list[ast.Item]] = {}
        for u in self.units.values():
            for sf in u.files:
                items: list[ast.Item] = []
                for item in sf.items:
                    if not isinstance(item, ast.ModuleDecl):
                        items.append(item)
                    elif item.generic_params:
                        items.extend(sorted(self.made.get(id(item), []), key=lambda m: m.name))
                    else:
                        items.append(rewritten[id(item)])
                out[(u.name, sf.file_id)] = items
        instances = list(self.instances.values())
        self.check_collisions(instances)
        return MonoResult(out, instances, self.diags)

    def instantiate(self, m: ast.ModuleDecl, unit, env: dict[str, Symbol], name: str) -> ast.ModuleDecl:
        """`m`, a module of `unit`, with generic inst targets rewritten to
        mangled concrete names; `env` maps generic parameter names to the
        symbols of their argument modules."""
        body = self.rewrite_body(m.body, unit, unit.table.module_scopes[id(m)], env)
        if body is m.body and name == m.name:
            return m
        return replace(m, name=name, generic_params=[], body=body)

    def rewrite_body(self, body: list[ast.ModuleItem], unit, scope: Scope, env: dict[str, Symbol]) -> list[ast.ModuleItem]:
        """`body` itself when no item changes, else a new list sharing the unchanged items."""
        out = []
        for it in body:
            if isinstance(it, ast.InstDecl):
                it = self.rewrite_inst(it, unit, scope, env)
            elif isinstance(it, ast.UnsafeCdcItem):
                items = self.rewrite_body(it.items, unit, scope, env)
                if items is not it.items:
                    it = replace(it, items=items)
            out.append(it)
        return body if all(a is b for a, b in zip(out, body)) else out

    def rewrite_inst(self, it: ast.InstDecl, unit, scope: Scope, env: dict[str, Symbol]) -> ast.InstDecl:
        target = self.module(it.target, unit, env)
        if target is None:
            return it  # not a module: the analyzer reported it
        decl: ast.ModuleDecl = target.decl
        if it.target.text in env:
            for d in check_inst(it, decl, scope):
                if (d.code, d.span, d.message) not in self.findings:
                    self.findings.add((d.code, d.span, d.message))
                    self.diags.append(d)
        if len(it.generic_args) != len(decl.generic_params):
            return it  # E0204
        if not decl.generic_params:
            if it.target.text in env:
                return replace(it, target=ast.PathExpr(self.display(target, unit.name), it.target.span))
            return it
        args = [self.module(arg, unit, env) for arg in it.generic_args]
        if any(arg is None for arg in args):
            return it  # the analyzer's E0202/E0203/E0205
        mangled = self.expand(target, args, it.target.span)
        return replace(it, target=ast.PathExpr([mangled], it.target.span), generic_args=[])

    def module(self, path: ast.PathExpr, unit, env: dict[str, Symbol]) -> Symbol | None:
        """The module an inst target or generic argument of `unit` names: a
        generic parameter's from `env`, any other path's from the analyzer."""
        if path.text in env:
            return env[path.text]
        return unit.resolved.get(id(path))

    def expand(self, template: Symbol, args: list[Symbol], use_span: Span) -> str:
        decl: ast.ModuleDecl = template.decl
        args_display = tuple("::".join(self.display(a, template.unit)) for a in args)
        mangled = mangle(decl.name, args_display)
        key = ((template.unit, template.name), tuple((a.unit, a.name) for a in args))
        if key in self.instances:
            return mangled
        if key in self.stack:
            self.diags.append(
                Diagnostic(
                    "E0206",
                    f"recursive generic instantiation of `{decl.name}`",
                    use_span,
                )
            )
            return mangled
        self.stack.append(key)
        made = self.instantiate(decl, self.units[template.unit], {gp.text: arg for gp, arg in zip(decl.generic_params, args)}, mangled)
        self.stack.pop()
        self.made.setdefault(id(decl), []).append(made)
        self.instances[key] = GenericInstance(decl, args_display, mangled, template.unit)
        return mangled

    def display(self, module: Symbol, from_unit: str) -> list[str]:
        """Path for an argument module as seen from `from_unit`.

        Cross-project arguments keep their namespace so mangled names stay
        injective; the emitter only uses the last segment.
        """
        return [module.name] if module.unit == from_unit else [module.unit, module.name]

    def check_collisions(self, instances: list[GenericInstance]) -> None:
        user_names = {
            sym.name: sym.decl
            for u in self.units.values()
            for sym in u.table.project.entries.values()
            if sym.kind == SymbolKind.MODULE
        }
        for inst in instances:
            if inst.mangled_name in user_names:
                self.diags.append(
                    Diagnostic(
                        "E0201",
                        f"monomorphized name `{inst.mangled_name}` collides with an existing module",
                        user_names[inst.mangled_name].name_span,
                        [Related("template declared here", inst.template.name_span)],
                    )
                )
