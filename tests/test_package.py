"""The public surface of the polarjiou package: what `__all__` lists and
what importing the package pulls in."""

import os
import subprocess
import sys
import types
from pathlib import Path

import polarjiou

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in polarjiou.__all__ if not hasattr(polarjiou, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    """A name the package still binds but no longer means to export (a
    removed class left in an import list) shows up here."""
    public = {name for name, value in vars(polarjiou).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(polarjiou.__all__)) == []


def test_import_loads_only_numpy_beyond_the_standard_library():
    """The runtime is numpy-only: in a fresh interpreter, importing the
    package loads no other third-party top-level package.  Modules the
    interpreter loaded at startup (site hooks) are not counted."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import polarjiou\n"
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print('\\n'.join(sorted(roots - set(sys.stdlib_module_names))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert set(proc.stdout.split()) - {"polarjiou", "numpy"} == set()
