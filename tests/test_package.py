"""The package surface: public names resolve, modules import nothing unused,
and every name a module defines is used somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import coxabs


def test_every_public_name_resolves():
    # `from coxabs import *` reads __all__; a plain import does not
    assert [name for name in coxabs.__all__ if not hasattr(coxabs, name)] == []


def test_modules_use_every_name_they_import():
    unused = {}
    for path in Path(coxabs.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        # a quoted annotation names its type in a string
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= {n.value for n in nodes if isinstance(n, ast.Constant)}
        if path.name != "__init__.py" and imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, and the
    non-dunder methods of module-level classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return names


def test_every_name_the_package_defines_is_used_somewhere():
    # a whole word anywhere in src/, tests/ or bench/ past its definitions;
    # a re-export in __init__.py is no use
    package = Path(coxabs.__file__).parent
    root = package.parent.parent
    words = Counter(
        word
        for folder in ("src", "tests", "bench")
        for path in (root / folder).rglob("*.py")
        if path != package / "__init__.py"
        for word in re.findall(r"\w+", path.read_text())
    )
    defined = Counter(
        name
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for name in _defined_names(ast.parse(path.read_text()))
    )
    assert sorted(name for name, n in defined.items() if words[name] <= n) == []
