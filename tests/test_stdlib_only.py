"""The engine imports nothing outside the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rspin"


def test_engine_imports_only_the_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # both cost every process start time and memory; the value types are
    # NamedTuples and plain classes.  resource is imported only under -v,
    # to report the peak RSS
    probe = "import sys, rspin.cli; print(sorted({'dataclasses', 'inspect', 'resource'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
