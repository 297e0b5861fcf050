"""Line counts of the Python files under a directory (default ``src``).

Prints the physical line count (what ``find DIR -name '*.py' | xargs cat |
wc -l`` gives) and the code-only count: lines that hold a token other than a
comment, a docstring or blank space.  A docstring is any statement that is
a bare string literal.

    python scripts/count_lines.py [DIR]
"""

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


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    physical = sum(len(f.read_bytes().splitlines()) for f in files)
    print(f"{root}/ lines: {physical}")
    print(f"{root}/ code-only lines: {sum(code_lines(f) for f in files)}")


if __name__ == "__main__":
    main()
