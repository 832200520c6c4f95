"""The package surface: public names resolve, modules import nothing unused."""

import ast
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
