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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_x` functions, classes and constants (dunders excluded)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of `sources` reads.

    A name counts as read when it is loaded anywhere or read as an
    attribute (`module._x`) in any of the modules.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_every_private_name_is_read_by_some_module():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_private_name_check_sees_a_dead_helper():
    sources = {
        "a.py": "_LIMIT = 3\n__version__ = '1'\ndef _dead():\n    pass\n"
        "class _Used:\n    pass\ndef _by_b():\n    return _Used()\n",
        "b.py": "from . import a\nprint(a._by_b(), a._LIMIT)\n",
    }
    assert _unread_private_names(sources) == ["a.py: _dead (line 3)"]


def _grid_evaluations(tree: ast.Module) -> list[str]:
    """Calls of a method named eval_stack or tail_samples, with their lines."""
    return [
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eval_stack", "tail_samples")
    ]


def test_only_the_family_layer_evaluates_families_on_the_grid():
    # `families._tail_eval` is the one evaluation of a family over the
    # h-grid tail; every other module reads it, so no family is evaluated
    # twice on one grid.
    calls = {}
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "families.py"}):
        found = _grid_evaluations(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            calls[path.name] = found
    assert calls == {}


def test_the_evaluation_check_sees_a_second_path():
    tree = ast.parse("ys = fam.eval_stack(grid.tail_samples())\nf = fam.eval_stack\n")
    assert _grid_evaluations(tree) == ["eval_stack (line 1)", "tail_samples (line 1)"]


def _readers(name: str, sources: dict[str, str]) -> list[str]:
    """The module-level functions, classes and imports that read name.

    A function or class reads it when its body loads the name or reads it
    as an attribute; an import reads it when it imports the name.
    """
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            reads = any(
                (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
                or (isinstance(n, ast.Attribute) and n.attr == name)
                or (isinstance(n, ast.alias) and n.name == name)
                for n in ast.walk(node)
            )
            if reads:
                found.append(f"{module}: {getattr(node, 'name', f'line {node.lineno}')}")
    return found


def test_only_the_marking_step_reads_the_dip_mask():
    # Both grid scans mark their dips in one step, `spectra._mark_dips`,
    # so a change to how cells are marked has one place to go.
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _readers("_dip_mask", sources) == ["spectra.py: _mark_dips"]


def test_the_dip_mask_check_sees_a_second_reader():
    sources = {
        "spectra.py": "def _dip_mask(s):\n    return s\n"
        "def _mark_dips(s):\n    return _dip_mask(s)\n",
        "local.py": "from .spectra import _dip_mask\nfrom . import spectra\n"
        "def scan(s):\n    return spectra._dip_mask(s)\n",
    }
    assert _readers("_dip_mask", sources) == [
        "spectra.py: _mark_dips",
        "local.py: line 1",
        "local.py: scan",
    ]


def _process_starters(tree: ast.Module) -> list[str]:
    """Calls of fork, imports of multiprocessing and uses of ProcessPoolExecutor."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "fork":
                found.append((node.lineno, "fork"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            if any((m or "").split(".")[0] == "multiprocessing" for m in modules):
                found.append((node.lineno, "multiprocessing"))
        names = (getattr(node, attr, None) for attr in ("id", "attr", "name"))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "ProcessPoolExecutor" in names:
            found.append((node.lineno, "ProcessPoolExecutor"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_only_verify_starts_processes():
    # `verify.run_suite` forks the one pool of the package: its workers run
    # checks beside the caller, and nothing else starts a process.
    found = {}
    for path in sorted(SRC.glob("*.py")):
        starters = _process_starters(ast.parse(path.read_text(encoding="utf-8")))
        if starters:
            found[path.name] = starters
    assert list(found) == ["verify.py"]
    assert not [s for s in found["verify.py"] if s.startswith("ProcessPoolExecutor")]


def test_the_process_check_sees_a_second_forker():
    tree = ast.parse(
        "import os, multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pid = os.fork()\n"
        "from multiprocessing import Pipe\n"
        "pool = ProcessPoolExecutor(2)\n"
        "fork = os.getpid()\n"
    )
    assert _process_starters(tree) == [
        "multiprocessing (line 1)",
        "ProcessPoolExecutor (line 2)",
        "fork (line 3)",
        "multiprocessing (line 4)",
        "ProcessPoolExecutor (line 5)",
    ]


def test_every_module_of_the_readme_table_is_an_attribute_of_the_package():
    # A package-level name must not shadow a module: `import opfam.bracket
    # as m` binds getattr(opfam, "bracket").
    readme = Path(__file__).parent.parent / "README.md"
    names = re.findall(r"^\| `opfam\.(\w+)` \|", readme.read_text(encoding="utf-8"), re.M)
    assert "bracket" in names
    for name in names:
        module = importlib.import_module(f"opfam.{name}")
        assert getattr(opfam, name) is module, name
