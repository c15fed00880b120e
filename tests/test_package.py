import ast
import pathlib
import sys

import simembed


def test_every_export_resolves():
    missing = [name for name in simembed.__all__
               if not hasattr(simembed, name)]
    assert missing == []


def test_imports_only_the_standard_library_and_numpy():
    imported = set()
    for path in pathlib.Path(simembed.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    top = {name.split(".")[0] for name in imported}
    assert top - sys.stdlib_module_names - {"numpy", "simembed"} == set()
