import ast
import pathlib
import re
import subprocess
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


def test_src_stats_parts_sum_to_the_total():
    root = pathlib.Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "src_stats.py"),
         str(pathlib.Path(simembed.__file__).parent)],
        capture_output=True, text=True, check=True).stdout
    last = out.splitlines()[-1]
    match = re.fullmatch(r"settable values (\d+) = defaulted parameters "
                         r"(\d+) \+ dataclass fields (\d+) \+ add_argument "
                         r"calls (\d+)", last)
    assert match, last
    total, *parts = map(int, match.groups())
    assert total == sum(parts)
    lines = [int(line.split()[0]) for line in out.splitlines()[1:-2]]
    assert out.splitlines()[-2].split() == [str(sum(lines)), "total"]
