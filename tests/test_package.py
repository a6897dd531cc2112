"""The public surface of the polarjiou package: what `__all__` lists,
what importing the package pulls in, and what each module imports."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import polarjiou

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_every_exported_name_resolves():
    missing = [name for name in polarjiou.__all__ if not hasattr(polarjiou, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    """A name the package still binds but no longer means to export (a
    removed class left in an import list) shows up here."""
    public = {name for name, value in vars(polarjiou).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(polarjiou.__all__)) == []


def test_center_cell_holders_are_gone():
    """A center cell and a peak are plain tuples; neither holder class is
    left in the package or the modules that defined them."""
    left = [(module.__name__, name)
            for module in (polarjiou, polarjiou.boxes, polarjiou.codec)
            for name in ("CenterOffset", "Peak") if hasattr(module, name)]
    assert left == []


def test_no_module_imports_a_name_it_never_uses():
    """An import left behind by a removal shows up here.  `__init__.py`
    re-exports its imports, so it is not checked."""
    unused = []
    for path in sorted((SRC / "polarjiou").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_only_errors_decides_what_is_finite():
    """errors.finite is the one finiteness test for scalars and
    errors.finite_array the one for arrays: no other module names
    math.isfinite or np.isfinite (under any import form) or compares with
    sys.float_info, so the rule for a NaN, an infinity or an int past the
    float range, and the error text that names it, cannot split again."""
    rule = re.compile(r"\bisfinite\b|\bfloat_info\b")
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted((SRC / "polarjiou").glob("*.py")) if path.name != "errors.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if rule.search(line)]
    assert found == []


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


def test_sources_parse_as_python_3_10():
    """pyproject.toml allows Python 3.10, so no file under src/ may use
    newer syntax; ast.parse checks each against that version's grammar."""
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_ci_numpy_floor_follows_pyproject():
    """The tier-1 matrix entry that installs the oldest numpy pins the
    version that pyproject.toml names as the floor; both files are read as
    text."""
    floor = re.findall(r'"numpy>=(\d+\.\d+)"', (ROOT / "pyproject.toml").read_text())
    pinned = re.findall(r'numpy: "numpy==(\d+\.\d+)\.\*"',
                        (ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert len(floor) == 1 and pinned == floor
