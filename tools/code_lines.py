"""Count the code lines of the Python modules in a directory.

A code line is a line holding at least one token that is not a comment, and
that is not part of a docstring (the leading string of a module, class or
function, found with `ast`). Blank lines, comment lines and docstring lines
are not counted. Prints one line per module and the total:

    python3 tools/code_lines.py src/hypermil

A path that is not a directory is refused with one line on stderr and exit
status 2, as is a wrong number of arguments.

Standard library only; not imported by the package.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file at `path`."""
    source = Path(path).read_text(encoding="utf-8")
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    directory = Path(argv[0])
    if not directory.is_dir():
        print(f"code_lines.py: {directory} is not a directory", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12} {count:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
