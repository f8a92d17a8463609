"""Every name a module exports exists, so `from rspin import *` works, and
the package surface imports each name's home module only on first use."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import rspin

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh(probe: str) -> str:
    """stdout of probe run in a fresh interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(SOURCE)}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout


def test_every_exported_name_resolves():
    modules = [rspin] + [
        importlib.import_module(f"rspin.{info.name}")
        for info in pkgutil.iter_modules(rspin.__path__)
        if info.name != "__main__"
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 2
    stale = [
        f"{module.__name__}.{name}" for module in exporting for name in module.__all__ if not hasattr(module, name)
    ]
    assert stale == []


def test_each_export_is_its_home_modules_object():
    assert len(rspin.__all__) == 31
    for name in rspin.__all__:
        assert getattr(rspin, name) is getattr(importlib.import_module(f"rspin.{rspin._HOMES[name]}"), name), name
    assert rspin.compute_tau is rspin.solver.compute_tau
    assert rspin.run_checks is rspin.verify.run_checks and rspin.mode_bound is rspin.walgebra.mode_bound


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rspin.no_such_name


def test_package_import_loads_no_submodule():
    probe = "import sys, rspin; print(sorted(m for m in sys.modules if m.startswith('rspin.')))"
    assert _fresh(probe).strip() == "[]"


def test_star_import_binds_every_exported_name():
    probe = "from rspin import *; import rspin; print(sorted(n for n in rspin.__all__ if n not in globals()))"
    assert _fresh(probe).strip() == "[]"
