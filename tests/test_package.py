"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hypermil
from hypermil import errors


def test_every_exported_name_resolves():
    missing = [name for name in hypermil.__all__ if not hasattr(hypermil, name)]
    assert missing == []
    assert len(set(hypermil.__all__)) == len(hypermil.__all__)


def test_import_loads_no_process_pool_modules():
    # the fold runner imports these only when it starts a pool
    package_dir = os.path.dirname(os.path.dirname(hypermil.__file__))
    code = ("import sys, hypermil; print(' '.join(m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_dir, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == ""


# the raises of a class other than a package error that the package keeps:
# fileio re-raises an OSError naming the target, and `read_json` raises the
# error class its caller passes in
_FOREIGN_RAISES = {("fileio", "OSError"), ("fileio", "error")}


def test_every_raise_in_the_package_is_a_package_error():
    package_dir = Path(hypermil.__file__).parent
    foreign = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what it caught
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            kind = getattr(errors, name, None)
            if (path.stem, name) in _FOREIGN_RAISES or (
                    isinstance(kind, type) and issubclass(kind, errors.HypermilError)):
                continue
            foreign.append(f"{path.name}:{node.lineno} raises {name}")
    assert foreign == []
