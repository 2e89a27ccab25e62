"""Every name a realspectra module imports at module level is read there.

Each `src/realspectra/*.py` is parsed with `ast`; a module-level import
binds names, and each must occur as a loaded name somewhere in the module.
`from __future__` imports are exempt, and so are the names in `KEPT`.
"""

import ast
from pathlib import Path

import pytest

import realspectra

PACKAGE = Path(realspectra.__file__).parent

# (module, name): why the module keeps an import it never reads
KEPT = {
    ("blocks", "closed_form_state"):
        "perfbench/selftest.py checks that tracing rebinds it here",
    ("duality", "closed_form_state"):
        "perfbench/selftest.py checks that tracing rebinds it here",
    ("localcoh", "mat_mul"):
        "perfbench/selftest.py checks that tracing rebinds it here",
    ("commands", "StabilizationFailure"):
        "cli.main reads it as commands.StabilizationFailure",
}
KEPT.update({("__init__", name): "re-exported in __all__"
             for name in realspectra.__all__})


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports -> line of the import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [f"{path.name}:{line} imports {name}"
            for name, line in sorted(_imported(tree).items())
            if name not in read and (path.stem, name) not in KEPT]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_module_level_import_is_read(path):
    assert _unused(path) == []


def test_every_kept_import_is_still_unread():
    # an entry whose name the module now reads (or no longer imports)
    # is stale and goes
    for (stem, name), why in KEPT.items():
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        assert name in _imported(tree), (stem, name, why)
        assert name not in _read(tree), (stem, name, why)


def test_the_check_sees_an_unread_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path\nfrom re import compile as c, sub\n"
                     "print(sub)\n")
    assert _unused(probe) == ["probe.py:3 imports c", "probe.py:2 imports os"]
