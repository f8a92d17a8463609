"""Tests of the benchmark itself, on its smoke mode (tiny degrees).

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Replaces the CLI entry point in a copy of the package: run the real CLI,
# then change one byte of the file it wrote.
CORRUPTING_MAIN = """\
import sys

from rspin.cli import main

rc = main()
out = sys.argv[sys.argv.index("--out") + 1]
with open(out, "rb") as handle:
    data = handle.read()
with open(out, "wb") as handle:
    handle.write(data.replace(b"1", b"2", 1))
sys.exit(rc)
"""


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seed", "5", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def test_smoke_emits_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--smoke", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"], (workload["name"], metric["name"])
            assert isinstance(got["value"], (int, float))
        assert f"{workload['name']:10} error_rate   0.0000" in proc.stdout


def test_corrupted_output_raises_error_rate(tmp_path):
    copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "rspin", tmp_path / "src" / "rspin", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "rspin" / "__main__.py").write_text(CORRUPTING_MAIN)
    proc = run_bench(tmp_path, "--smoke", "--workload", "tables-r3", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "tables-r3  error_rate   0.0000" not in proc.stdout
    assert "digest" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(tmp_path, "--workload", "reload-r4", "--seconds", "1")
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
