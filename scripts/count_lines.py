"""Line and settable-value counts of the Python files under a directory
(default ``src``).

Prints the physical line count (what ``find DIR -name '*.py' | xargs cat |
wc -l`` gives) and the code-only count: lines that hold a token other than a
comment, a docstring or blank space.  A docstring is any statement that is
a bare string literal.  It also prints the number of settable values, read
off the syntax tree: parameters with a default, fields with a default in
classes decorated as dataclasses, and ``click.option`` calls.

Last it lists the functions, classes and properties defined under DIR that
no Python file outside a ``tests`` directory references, the files under
DIR included; DIR's parent is searched.  A reference is a name, an
attribute, an imported name or a string that names a dotted path, matched
by name alone; a package's ``__init__.py`` re-exports and is not read.  So
a definition that only docstrings, exports or tests mention is listed.
Dunders and decorated functions other than properties are skipped.

    python scripts/count_lines.py [DIR]
"""

import ast
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of lines of one file that carry code."""
    lines = set()
    statement = []  # the tokens of the current logical line
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def _callee(node: ast.expr) -> str:
    """Source text of a decorator or call target: ``dataclass`` for both
    ``@dataclass`` and ``@dataclass(frozen=True)``."""
    return ast.unparse(node.func if isinstance(node, ast.Call) else node)


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's right-hand side gives it a default:
    any value but ``field(...)`` without ``default`` or ``default_factory``."""
    if value is None:
        return False
    if (isinstance(value, ast.Call)
            and _callee(value) in ("field", "dataclasses.field")):
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return True


def settable_values(path: Path) -> int:
    """Number of values of one file that a caller can set."""
    count = 0
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.arguments):
            count += len(node.defaults)
            count += sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                _callee(d) in ("dataclass", "dataclasses.dataclass")
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and _has_default(s.value)
                         for s in node.body)
        elif isinstance(node, ast.Call) and _callee(node) == "click.option":
            count += 1
    return count


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _docstrings(tree: ast.AST) -> set:
    """The ids of the string constants that are docstrings."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def referenced_names(path: Path) -> set:
    """Every name one file refers to (see the module docstring)."""
    tree = ast.parse(path.read_bytes())
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def _is_property(node: ast.AST) -> bool:
    return [ast.unparse(d) for d in node.decorator_list] == ["property"]


def definitions(path: Path):
    """(qualified name, name) of every function, class and property of one
    file, dunders and other decorated functions left out."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield prefix + node.name, node.name
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not node.decorator_list or _is_property(node):
                    yield prefix + node.name, node.name
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(ast.parse(path.read_bytes()).body, "")


def unreferenced(root: Path) -> list:
    """``file:qualname`` of every definition under root that no file
    outside a ``tests`` directory under root's parent references, an
    ``__init__.py`` left out."""
    base = root.resolve().parent
    names = set()
    for f in sorted(base.rglob("*.py")):
        parts = f.relative_to(base).parts
        if f.name != "__init__.py" and not any(
                p == "tests" or p.startswith(".") for p in parts):
            names |= referenced_names(f)
    return [f"{f.relative_to(root)}:{qualname}"
            for f in sorted(root.rglob("*.py"))
            for qualname, name in definitions(f) if name not in names]


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    physical = sum(len(f.read_bytes().splitlines()) for f in files)
    print(f"{root}/ lines: {physical}")
    print(f"{root}/ code-only lines: {sum(code_lines(f) for f in files)}")
    print(f"{root}/ settable values: {sum(settable_values(f) for f in files)}")
    names = unreferenced(root)
    print(f"{root}/ definitions no file outside tests references: {len(names)}")
    for name in names:
        print(f"  {name}")


if __name__ == "__main__":
    main()
