"""The engine imports nothing outside the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def _loaded_after(argv: list[str]) -> set[str]:
    """The modules of interest that main(argv) leaves in sys.modules of a
    fresh interpreter."""
    probe = (
        "import contextlib, io, sys; from rspin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        "print(code, *sorted({'rspin.verify', 'rspin.walgebra', 'csv'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    env.pop("RSPIN_CACHE_DIR", None)  # a warm default cache would skip the raise
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    code, *loaded = out.stdout.split()
    assert code == "0"
    return set(loaded)


def test_compute_loads_walgebra_only_to_raise(tmp_path):
    # a warm solve is served from the cache and needs neither the W-algebra
    # nor the checks; without a bytecode cache each spawn compiles only
    # what it loads
    argv = ["compute", "--r", "3", "--degree", "3", "--cache-dir", str(tmp_path / "cache")]
    assert _loaded_after(argv) == {"rspin.walgebra"}  # cold: every piece raised
    assert _loaded_after(argv) == set()  # warm: every piece cached


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["correlators", "--format", "json"], {"rspin.walgebra"}),
        (["correlators", "--format", "csv"], {"rspin.walgebra", "csv"}),
        (["verify"], {"rspin.verify", "rspin.walgebra"}),
        (["commutator"], {"rspin.verify", "rspin.walgebra"}),
    ],
    ids=["correlators-json", "correlators-csv", "verify", "commutator"],
)
def test_each_command_loads_only_what_it_runs(argv, loaded):
    assert _loaded_after([*argv, "--r", "3", "--degree", "2"]) == loaded
