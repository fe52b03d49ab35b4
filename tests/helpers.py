"""Entry points that only the tests use, built on the vl modules' own functions."""

import tempfile
from enum import Enum
from pathlib import Path

from vl import analyzer, ast, docgen, driver, parser
from vl.lexer import scan
from vl.project import load_program
from vl.tokens import DocComment, Span


def check_strings(named_sources: list[tuple[str, str]]) -> driver.ProgramResult:
    """The CLI's check pipeline on a root project `local` whose `src/` holds
    the (file name, text) sources; their file ids are `src/<file name>`."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "vl.toml").write_text('[project]\nname = "local"\nversion = "0.0.0"\n')
        for file_name, text in named_sources:
            path = root / "src" / file_name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
        return driver.check_program(load_program(root / "vl.toml"))


def make_project(tmp_path: Path, source: str, name: str, stem: str) -> Path:
    """A root project `name` under `tmp_path` whose one source `src/<stem>.vl` holds `source`."""
    root = tmp_path / name
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text(f'[project]\nname = "{name}"\nversion = "0.1.0"\n')
    (root / "src" / f"{stem}.vl").write_text(source)
    return root


def parse_expression(text: str) -> ast.Expr:
    """Parse a single free-standing expression; raises ValueError on failure."""
    r = scan(text, "<expr>")
    p = parser._Parser(r.tokens, [], "<expr>", text)
    try:
        e = p.parse_expr()
    except parser._ParseError:
        e = None
    if e is None or p.diags or r.diagnostics or p.pos != p.end:
        raise ValueError("E0101: malformed expression: " + text)
    return e


def eval_const(expr: ast.Expr, scope) -> int:
    """The 64-bit unsigned value of a constant expression; raises ConstError."""
    return analyzer._ConstEval().eval(expr, scope)


def render_html(model: docgen.DocModel, wavedrom_url: str = "wavedrom.min.js") -> str:
    """The HTML page `vl doc` writes for `model`."""
    return docgen._page(model.name, docgen.render_markdown(model), wavedrom_url)


def fields(obj) -> tuple[str, ...]:
    """Field names of a record class or instance, in declaration order; () for anything else."""
    return getattr(obj, "__record_fields__", ())


_SKIP_FIELDS = frozenset({"span", "name_span", "clock_span", "reset_span", "text", "comments"})


def structure(node):
    """Positions-stripped nested-tuple form of a node, for structural equality.

    Doc comments participate (their text is content); spans and regular
    comments do not.  `SourceFile.text` is excluded; literal lexemes keep
    their `text` via the literal node types' explicit handling below.
    """
    if isinstance(node, (ast.SizedLiteral, ast.DecLiteral)):
        return (type(node).__name__, node.text)
    if isinstance(node, DocComment):
        return ("doc", node.text, node.own_line)
    if isinstance(node, Span) or node is None:
        return None
    if isinstance(node, (str, int, bool)):
        return node
    if isinstance(node, Enum):
        return node.name
    if isinstance(node, (list, tuple)):
        return tuple(structure(x) for x in node)
    names = fields(node)
    if names:
        parts = [type(node).__name__]
        for name in names:
            if name in _SKIP_FIELDS:
                continue
            parts.append(structure(getattr(node, name)))
        return tuple(parts)
    raise TypeError(f"unexpected node {node!r}")
