"""The package's public surface."""

import os
import subprocess
import sys

import hypermil


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
