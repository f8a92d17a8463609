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


# the modules a command may load or skip: the ones only some commands run,
# and the fraction-valued forms (scalar) with the standard library's
# fractions, which imports decimal
WATCHED = "{'rspin.verify', 'rspin.walgebra', 'rspin.correlator', 'rspin.scalar', 'csv', 'fractions', 'decimal'}"
RATIONALS = {"fractions", "decimal"}


def _loaded_after(argv: list[str]) -> set[str]:
    """The modules of interest that main(argv) leaves in sys.modules of a
    fresh interpreter."""
    probe = (
        "import contextlib, io, sys; from rspin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        f"print(code, *sorted({WATCHED} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    env.pop("RSPIN_CACHE_DIR", None)  # a warm default cache would skip the raise
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    code, *loaded = out.stdout.split()
    assert code == "0"
    return set(loaded)


def test_compute_loads_walgebra_only_to_raise(tmp_path):
    # a warm solve is served from the cache and needs neither the W-algebra
    # nor the checks, and it reads and writes packed integers: no fraction
    # is built, so neither scalar nor fractions is loaded; without a
    # bytecode cache each spawn compiles only what it loads.  A cold solve
    # builds the W-modes, whose coefficients are rational
    argv = ["compute", "--r", "3", "--degree", "3", "--cache-dir", str(tmp_path / "cache")]
    assert _loaded_after(argv) == {"rspin.walgebra", *RATIONALS}  # cold: every piece raised
    assert _loaded_after(argv) == set()  # warm: every piece cached


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["correlators", "--format", "json"], {"rspin.correlator", "rspin.walgebra", *RATIONALS}),
        (["correlators", "--format", "csv"], {"rspin.correlator", "rspin.walgebra", "csv", *RATIONALS}),
        (["verify"], {"rspin.correlator", "rspin.verify", "rspin.walgebra", *RATIONALS}),
        (["commutator"], {"rspin.correlator", "rspin.verify", "rspin.walgebra", *RATIONALS}),
    ],
    ids=["correlators-json", "correlators-csv", "verify", "commutator"],
)
def test_each_command_loads_only_what_it_runs(argv, loaded):
    assert _loaded_after([*argv, "--r", "3", "--degree", "2"]) == loaded


def _probe(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_neither_correlator_nor_fractions():
    # the start-up every command pays: the extraction and the fraction-valued
    # forms are loaded by the commands that run them, the extraction on first
    # use of the name the CLI binds
    assert _probe(f"import sys, rspin.cli; print(*sorted({WATCHED} & set(sys.modules)))").split() == []
    probe = (
        "import sys, rspin.cli\n"
        "bound = rspin.cli.extract_correlators\n"
        "print(bound is sys.modules['rspin.correlator'].extract_correlators)"
    )
    assert _probe(probe).split() == ["True"]


def test_the_polynomial_view_and_the_document_reader_load_scalar():
    # a solve and its document load no scalar; reading the pieces view or
    # parsing a document does
    solve = (
        "import sys\n"
        "from rspin.serialize import parse_tau, serialize_tau\n"
        "from rspin.solver import compute_tau\n"
        "tau = compute_tau(3, 2); data = serialize_tau(tau)\n"
        "print('rspin.scalar' in sys.modules)\n"
    )
    for read in ("tau.pieces", "parse_tau(data)"):
        assert _probe(f"{solve}{read}\nprint('rspin.scalar' in sys.modules)").split() == ["False", "True"], read
