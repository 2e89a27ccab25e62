"""Every name a realspectra module imports at module level is read there,
and every definition, down to a class's methods, is reached from a
command.

Each `src/realspectra/*.py` is parsed with `ast`; a module-level import
binds names, and each must occur as a loaded name somewhere in the module.
`from __future__` imports are exempt, and so are the names in `KEPT`.

The package holds what a `realspectra` command runs.  Starting from
`cli.main`, every `commands.cmd_*` and the package's `__all__`, a
definition reaches each top-level definition whose name it loads, in its
own module or through a relative import, lazy ones inside functions
included, and `mod.name` where `mod` is an imported module.  A reached
class reaches what its body loads outside its methods; a method or
property of it is read once reached code loads an attribute of that
name, and only then does its body count.  Dunders and namedtuple's
`_make` are read by Python itself and need no load.  Every other
definition and member fails the check unless `KEPT_UNREACHED` says why it
stays.  Certificates and references that no command runs live in
`tests/oracles.py`.
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


# (module, name): why a definition no command reaches stays in the package;
# a method or property is named Class.member
KEPT_UNREACHED = {
    ("blocks", "action_matrix"):
        "the block action; the block check of the Koszul oracle and the "
        "ER(1) colimit (ROADMAP items 2 and 5) read it",
    ("grading", "Window.square"):
        "perfbench/workloads.py builds its windows with it",
}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assigned names -> their node;
    dunder names such as `__all__` are module protocol, not definitions."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update((t.id, node) for t in targets
                       if isinstance(t, ast.Name))
    return {name: node for name, node in out.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _members(cls: ast.ClassDef) -> dict[str, ast.stmt]:
    """The methods of a class body, properties included, and the names it
    binds to `property(...)` -> their node."""
    out = {}
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                getattr(node.value.func, "id", None) == "property":
            out.update((t.id, node) for t in node.targets
                       if isinstance(t, ast.Name))
    return out


def _protocol(member: str) -> bool:
    """Whether Python or namedtuple reads the member without its name
    appearing: a dunder, or `_make`, through which `_replace` builds."""
    return member == "_make" or (member.startswith("__")
                                 and member.endswith("__"))


def _relative_imports(tree: ast.Module, stems) -> dict[str, tuple]:
    """Names bound by `from .mod import name` and `from . import mod`,
    anywhere in the module -> (module, name), or (module, None) for a
    module."""
    bound = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if node.module:
                target = (node.module, alias.name)
            elif alias.name in stems:
                target = (alias.name, None)
            else:
                target = ("__init__", alias.name)
            bound[alias.asname or alias.name] = target
    return bound


def _loads(key, defs: dict, imports: dict, loaded: set,
           members: list) -> list[tuple]:
    """What the definition or member at key reaches: (module, name) for
    each top-level definition it loads.  Adds the attribute names it loads
    to loaded and, for a class, its members to members; a member's body
    counts only once the member is read."""
    node = defs[key[1]]
    if len(key) == 3:
        nodes = [_members(node)[key[2]]]
    elif isinstance(node, ast.ClassDef):
        own = _members(node)
        members.extend((*key, member) for member in own)
        nodes = node.bases + node.keywords + node.decorator_list + \
            [item for item in node.body if item not in own.values()]
    else:
        nodes = [node]
    out = []
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in defs:
                out.append((key[0], sub.id))
            target = imports.get(sub.id)
            if target is not None and target[1] is not None:
                out.append(target)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            loaded.add(sub.attr)
            target = isinstance(sub.value, ast.Name) and \
                imports.get(sub.value.id)
            if target and target[1] is None:
                out.append((target[0], sub.attr))
    return out


def _unreached(package: Path) -> list[str]:
    """module.name of each top-level definition no root reaches, and
    module.Class.member of each member of a reached class that nothing
    reached reads."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in package.glob("*.py")}
    defs = {stem: _definitions(tree) for stem, tree in trees.items()}
    imports = {stem: _relative_imports(tree, trees)
               for stem, tree in trees.items()}
    todo = [("cli", "main")]
    todo += [("commands", name) for name in defs.get("commands", ())
             if name.startswith("cmd_")]
    if "__init__" in trees:
        exported = next((node.value for node in trees["__init__"].body
                         if isinstance(node, ast.Assign)
                         and node.targets[0].id == "__all__"), None)
        if exported is not None:
            todo += [imports["__init__"].get(name, ("__init__", name))
                     for name in ast.literal_eval(exported)]
    seen = set()
    loaded = set()   # the attribute names that reached code loads
    members = []     # (module, class, member) of each reached class
    while todo:
        while todo:
            key = todo.pop()
            stem, name = key[:2]
            if key in seen or name not in defs.get(stem, {}):
                continue
            seen.add(key)
            todo += _loads(key, defs[stem], imports[stem], loaded, members)
        # a member is read once reached code loads its name
        todo = [key for key in members if key not in seen
                and (_protocol(key[2]) or key[2] in loaded)]
    out = [f"{stem}.{name}" for stem, names in defs.items()
           for name in names if (stem, name) not in seen]
    out += [".".join(key) for key in members if key not in seen]
    return sorted(out)


def test_every_definition_is_reached_from_a_command():
    kept = {f"{stem}.{name}" for stem, name in KEPT_UNREACHED}
    assert [name for name in _unreached(PACKAGE) if name not in kept] == []


def test_every_kept_definition_is_still_unreached():
    # an entry that a command now reaches (or that is gone) is stale and goes
    unreached = _unreached(PACKAGE)
    for (stem, name), why in KEPT_UNREACHED.items():
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        top, _, member = name.partition(".")
        node = _definitions(tree).get(top)
        assert node is not None, (stem, name, why)
        assert not member or member in _members(node), (stem, name, why)
        assert f"{stem}.{name}" in unreached, (stem, name, why)


def test_the_check_sees_an_unreached_definition(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .lib import exported\n__all__ = ['exported']\n")
    (tmp_path / "cli.py").write_text(
        "from . import lib\n\ndef main():\n    return lib.direct()\n\n"
        "def unused():\n    pass\n")
    (tmp_path / "commands.py").write_text(
        "LIMIT = 3\n\ndef cmd_run():\n    from .lib import Lazy\n"
        "    return Lazy().go(LIMIT)\n")
    (tmp_path / "lib.py").write_text(
        "def direct():\n    pass\n\ndef exported():\n    pass\n\n"
        "def helper():\n    pass\n\nclass Lazy:\n"
        "    def go(self, n):\n        return helper()\n\n"
        "def planted():\n    return direct()\n")
    assert _unreached(tmp_path) == ["cli.unused", "lib.planted"]


def test_the_check_sees_an_unread_method(tmp_path):
    # a member is read by an attribute load in reached code: `size` only by
    # the unread `area`, and `helper` only by the unread `planted`, which
    # counts for nothing; dunders and `_make` need no load
    (tmp_path / "cli.py").write_text(
        "from .lib import Box\n\ndef main():\n    return Box(2).shown\n")
    (tmp_path / "lib.py").write_text(
        "def helper():\n    pass\n\n"
        "class Box(tuple):\n"
        "    def __new__(cls, x):\n        return tuple.__new__(cls, (x,))\n\n"
        "    @classmethod\n    def _make(cls, fields):\n"
        "        return cls(*fields)\n\n"
        "    @property\n    def shown(self):\n        return self.text()\n\n"
        "    def text(self):\n        return str(self)\n\n"
        "    size = property(len)\n\n"
        "    def area(self):\n        return self.size * self.size\n\n"
        "    def planted(self):\n        return helper()\n")
    assert _unreached(tmp_path) == ["lib.Box.area", "lib.Box.planted",
                                    "lib.Box.size", "lib.helper"]
