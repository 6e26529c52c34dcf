import ast
import importlib
import re
from pathlib import Path

import opfam

SRC = Path(opfam.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that nothing in it reads.

    A name counts as read when it is loaded anywhere, used as the base of
    an attribute, or listed in __all__; `from __future__` imports bind
    nothing.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {n})" for name, n in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # The package __init__ imports to re-export: its imports are the API.
    unused = {}
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "np.zeros(b)\n"
    )
    assert _unused_imports(tree) == ["os (line 2)"]


def test_every_module_of_the_readme_table_is_an_attribute_of_the_package():
    # A package-level name must not shadow a module: `import opfam.bracket
    # as m` binds getattr(opfam, "bracket").
    readme = Path(__file__).parent.parent / "README.md"
    names = re.findall(r"^\| `opfam\.(\w+)` \|", readme.read_text(encoding="utf-8"), re.M)
    assert "bracket" in names
    for name in names:
        module = importlib.import_module(f"opfam.{name}")
        assert getattr(opfam, name) is module, name
