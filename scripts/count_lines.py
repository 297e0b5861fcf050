"""Line and settable-value counts of the Python files under a directory
(default ``src``).

Prints the physical line count (what ``find DIR -name '*.py' | xargs cat |
wc -l`` gives) and the code-only count: lines that hold a token other than a
comment, a docstring or blank space.  A docstring is any statement that is
a bare string literal.  It also prints the number of settable values, read
off the syntax tree: parameters with a default, fields with a default in
classes decorated as dataclasses, and ``click.option`` calls.

    python scripts/count_lines.py [DIR]
"""

import ast
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


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    physical = sum(len(f.read_bytes().splitlines()) for f in files)
    print(f"{root}/ lines: {physical}")
    print(f"{root}/ code-only lines: {sum(code_lines(f) for f in files)}")
    print(f"{root}/ settable values: {sum(settable_values(f) for f in files)}")


if __name__ == "__main__":
    main()
