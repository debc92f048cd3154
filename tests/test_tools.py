"""Checks of the repository tools under `tools/`."""

import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 8 code lines: the import, the def, the three lines of the string, the
# return, the class and its attribute; the docstrings, comments and blank
# lines are not counted
MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """A function docstring."""
    text = """a string
over three
lines"""
    return x + len(text)


class C:
    \'\'\'A class docstring.\'\'\'

    y = 1
'''

# 3 code lines: one statement on a line, one over two lines
SHORT = "x = 1\n\n\n# c\ny = (1,\n     2)\n"


def test_code_lines_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "big.py").write_text(MODULE)
    (tmp_path / "short.py").write_text(SHORT)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("big               8\n"
                           "short             3\n"
                           "total            11\n")


def test_code_lines_refuses_a_path_that_is_not_a_directory(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(SHORT)
    for path in (tmp_path / "missing", module):
        proc = subprocess.run([sys.executable, str(CODE_LINES), str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"code_lines.py: {path} is not a directory\n"
