"""Benchmark of the rspin command-line tool.  Standard library only.

    python3 bench/run.py --workload raise-r4 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  With ``--trace 0`` each repetition of the workload runs as fresh
``python -m rspin`` processes, one at a time in a closed loop, until the
timed repetitions add up to ``--seconds``; the times are calibrated against
the fixed ``bench/calibrate.py`` job (see ``Runner.timed``).  With ``--trace 1`` the workload
runs once untraced, once under the span tracer (``bench/tracing.py``) and once
under tracemalloc, and the per-layer metrics are printed.  ``--workload all``
runs every workload; ``--smoke`` runs the chosen workloads at tiny degrees,
both untraced and traced, in a few seconds.

Every output is checked (see ``Gate``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(invocations), and ``metrics``.  The exit code is 0 when every check passed,
1 when one failed, and 2 when the program could not be set up at all (no
result is printed then).  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
PY = sys.executable
SETUP_GROUP = 3  # setup samples taken at the start, middle and end of a timed run
# Calibrated times are seconds on a machine where bench/calibrate.py takes
# REFERENCE_S: each time is multiplied by REFERENCE_S over the calibration
# job's time measured next to it (see Runner.timed).
REFERENCE_S = 0.4
CALIBRATE_EVERY = 3.0  # seconds of timed repetitions between calibration runs

# sha256 of output bytes taken at the seed commit; check reports are hashed
# with their "timing_ms" fields removed (see normalized_output).
PINNED = {
    ("correlators", 3, 7): "573f19c99888039f65a776522425d2ad673dec5b2be5945c063349fddffde902",
    ("verify", 3, 6): "b257b0416009eeee89d158d5cc9e64d64e7c5836a935efdc8fbaba38c7dbcda9",
    ("commutator", 3, 6): "870c276ff2c003b7caa8650609aaf24dab7f32f40349c73a1cc02dac89fd3996",
    ("correlators", 3, 3): "8850c79dcdc0859dfaee5fc3dd9f34d19dd0c4f0bdfa84daedcf2598214d4994",
    ("verify", 3, 2): "7261244160397fac3866946f9bb78d8c93a5f97ba0e708e6ae0d7b0b4f1e1659",
    ("commutator", 3, 2): "99f5aa92236471c5b6c2ad5d85d6cdd4f708a523c51f27db6ae42bf758fb6854",
}

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI commands of one repetition."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    r: int
    degree: int
    smoke_degree: int
    cache: str | None = None  # "fresh": new empty cache per repetition; "warm": filled before timing

    def argvs(self, smoke: bool) -> list[list[str]]:
        degree = self.smoke_degree if smoke else self.degree
        return [[cmd[0], "--r", str(self.r), "--degree", str(degree), *cmd[1:]] for cmd in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        # Cache writes and the solver: W-mode application, polynomial and
        # Q(s) arithmetic.  No correlator work.
        Workload("raise-r4", (("compute",),), r=4, degree=6, smoke_degree=3, cache="fresh"),
        # The graded log and extraction dominate; r=3 output is fully verified.
        Workload("tables-r3", (("correlators", "--format", "json"),), r=3, degree=7, smoke_degree=3),
        # The only path through verify and the commutator diagnostics.
        Workload("check-r3", (("verify",), ("commutator",)), r=3, degree=6, smoke_degree=2),
        # Start-up, cache reads and validation, serialization; no solver work.
        Workload("reload-r4", (("compute",),), r=4, degree=6, smoke_degree=3, cache="warm"),
    )
}


class SetupError(Exception):
    """The program under test cannot be run at all."""


# -- processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("RSPIN_CACHE_DIR", None)  # the workloads choose their caches themselves
    return env


class Launcher:
    """Client of bench/launcher.py, the small process that spawns the timed
    processes and measures their wall time and peak RSS."""

    def __init__(self):
        self.env = child_env()
        self.proc = subprocess.Popen(
            [PY, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def spawn(self, argv: list[str], err_path: Path) -> tuple[float, float, int]:
        """Run one process to completion: (wall seconds, max RSS in MB, exit code)."""
        request = {"argv": argv, "cwd": str(ROOT), "env": self.env, "err": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("bench/launcher.py exited")
        result = json.loads(reply)
        return result["wall"], result["rss_mb"], result["rc"]

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.proc.terminate()  # the launcher stops its child before it exits
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def import_times(launcher: Launcher, work: Path, count: int) -> list[float]:
    """Seconds for fresh interpreters to finish ``import rspin.cli``, from
    spawn to exit."""
    argv = [PY, "-c", "import rspin.cli"]
    err = work / "setup.err"
    times = []
    for _ in range(count):
        wall, _, rc = launcher.spawn(argv, err)
        if rc != 0:
            raise SetupError(f"cannot import rspin.cli from {SRC}: {err.read_text(errors='replace').strip()}")
        times.append(wall)
    return times


# -- correctness gate ----------------------------------------------------------


def normalized_output(command: str, data: bytes) -> bytes:
    """Output bytes as compared.  verify and commutator reports carry a
    run-dependent "timing_ms" field, which is removed and the document
    re-dumped in the CLI's own layout."""
    if command not in ("verify", "commutator"):
        return data
    reports = json.loads(data)
    for report in reports:
        report.pop("timing_ms", None)
    return (json.dumps(reports, indent=1) + "\n").encode("utf-8")


def check_tau_r4(path: Path) -> dict:
    """Run bench/check_tau.py on an r=4 tau document; returns its input
    properties.  Raises ValueError on any mismatch."""
    proc = subprocess.run(
        [PY, str(BENCH / "check_tau.py"), str(path)], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise ValueError(f"check_tau.py: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


def output_properties(command: str, data: bytes) -> dict:
    if command == "correlators":
        records = json.loads(data)
        bits = max((_value_bits(rec["value"]) for rec in records), default=0)
        return {"records": len(records), "value_max_bits": bits}
    if command == "verify":
        details = {rep["check_name"]: rep["details"] for rep in json.loads(data)}
        return {
            "records": details.get("grading", {}).get("records"),
            "equations": details.get("wconstraints", {}).get("equations"),
        }
    if command == "commutator":
        return {"nonzero_residuals": sum(len(rep["residuals"]) for rep in json.loads(data))}
    return {}


def _value_bits(text: str) -> int:
    """Larger bit size of the numerator and denominator of "p/q"."""
    num, _, den = text.partition("/")
    return max(abs(int(num)).bit_length(), int(den or 1).bit_length())


class Gate:
    """Checks every output of one workload run and counts invocations."""

    def __init__(self, workload: Workload, smoke: bool):
        self.workload = workload
        self.degree = workload.smoke_degree if smoke else workload.degree
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, bytes] = {}  # command -> first normalized output
        self.properties: dict[str, dict] = {}

    def check(self, argv: list[str], rc: int, out: Path, err: Path) -> None:
        self.attempted += 1
        command = argv[0]
        problem = None
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}: {err.read_text(errors='replace').strip()[-400:]}")
            data = normalized_output(command, out.read_bytes())
            ref = self.reference.get(command)
            if ref is None:
                pinned = PINNED.get((command, self.workload.r, self.degree))
                if pinned is not None and hashlib.sha256(data).hexdigest() != pinned:
                    raise ValueError(f"output digest {hashlib.sha256(data).hexdigest()} != pinned {pinned}")
                if command == "compute":
                    self.properties[command] = check_tau_r4(out)
                else:
                    self.properties[command] = output_properties(command, data)
                self.reference[command] = data
            elif data != ref:
                raise ValueError("output bytes differ from the first repetition")
        except Exception as exc:  # any failure of the program's output is a counted error, not a crash
            problem = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(problem)
            print(f"FAIL {self.workload.name}: {problem}", file=sys.stderr)


# -- running a workload -------------------------------------------------------


class Runner:
    """Runs the repetitions of one workload in a private work directory."""

    def __init__(self, launcher: Launcher, workload: Workload, rng: random.Random, smoke: bool, work: Path):
        self.launcher = launcher
        self.workload = workload
        self.rng = rng
        self.smoke = smoke
        self.work = work
        self.gate = Gate(workload, smoke)
        self.warm_cache: Path | None = None
        self.calibrations: list[float] = []

    def token(self) -> str:
        return f"{self.rng.getrandbits(32):08x}"

    def prepare(self) -> None:
        """Untimed: fill the cache a "warm" workload reads."""
        if self.workload.cache == "warm":
            self.warm_cache = self.work / f"cache-{self.token()}"
            self.repetition(prefix=[PY, "-m", "rspin"], tag="fill")

    def repetition(self, prefix: list[str], tag: str, wrap=None) -> tuple[float, float]:
        """One repetition: every command of the workload, in a seed-chosen
        order.  Returns (summed wall seconds, max RSS MB)."""
        cache = self.warm_cache
        if self.workload.cache == "fresh":
            cache = self.work / f"cache-{self.token()}"
        argvs = self.workload.argvs(self.smoke)
        self.rng.shuffle(argvs)
        wall = rss = 0.0
        for argv in argvs:
            if cache is not None:
                argv = argv + ["--cache-dir", str(cache)]
            out = self.work / f"{tag}-{argv[0]}.out"
            err = self.work / f"{tag}-{argv[0]}.err"
            argv = argv + ["--out", str(out)]
            full = prefix + (wrap(argv, tag) if wrap else argv)
            w, m, rc = self.launcher.spawn(full, err)
            wall += w
            rss = max(rss, m)
            self.gate.check(argv, rc, out, err)
        if self.workload.cache == "fresh":
            shutil.rmtree(cache, ignore_errors=True)
        return wall, rss

    def calibration(self) -> float:
        """Spawn-to-exit seconds of the fixed calibration job, right now."""
        err = self.work / "calibrate.err"
        wall, _, rc = self.launcher.spawn([PY, str(BENCH / "calibrate.py")], err)
        if rc != 0:
            raise SetupError(f"calibration job failed: {err.read_text(errors='replace').strip()}")
        self.calibrations.append(wall)
        return wall

    def timed(self, seconds: float, group: int) -> tuple[list[float], list[float], list[float], list[float]]:
        """Closed loop until the timed repetitions add up to `seconds`.

        Returns the raw and calibrated wall time of each repetition, its max
        RSS, and the calibrated setup samples.  The calibration job runs
        before the first repetition, after every CALIBRATE_EVERY seconds of
        repetitions, and after the last; a repetition is calibrated by the
        mean of the two runs around it.  The setup samples are taken in
        groups at the start, middle and end of the run, each calibrated by
        the run that follows it."""
        walls, scaled, rsss, setup = [], [], [], []
        pending: list[float] = []  # raw walls since the last calibration

        def checkpoint(setup_group: bool) -> None:
            raw_setup = import_times(self.launcher, self.work, group) if setup_group else []
            before = self.calibrations[-1] if self.calibrations else None
            now = self.calibration()
            setup.extend(t * REFERENCE_S / now for t in raw_setup)
            scaled.extend(w * REFERENCE_S / ((before + now) / 2) for w in pending)
            pending.clear()

        checkpoint(setup_group=True)
        since = 0.0
        while not walls or sum(walls) < seconds:
            if since >= CALIBRATE_EVERY:
                checkpoint(setup_group=len(setup) == group and sum(walls) >= seconds / 2)
                since = 0.0
            wall, rss = self.repetition([PY, "-m", "rspin"], tag="timed")
            since += wall
            walls.append(wall)
            pending.append(wall)
            rsss.append(rss)
        checkpoint(setup_group=True)
        if len(setup) < 3 * group:  # the run was too short to pass its middle at a calibration
            setup.extend(t * REFERENCE_S / self.calibrations[-1] for t in import_times(self.launcher, self.work, group))
        return walls, scaled, rsss, setup

    def traced(self) -> tuple[float, float, list[dict], list[dict]]:
        """Untraced, span-traced and memory-traced repetition of the workload.
        Returns (untraced wall, traced wall, span records, memory records)."""
        untraced, _ = self.repetition([PY, "-m", "rspin"], tag="untraced")
        records: dict[str, list[dict]] = {"spans": [], "memory": []}

        def wrap_for(mode):
            def wrap(argv, tag):
                record = self.work / f"{tag}-{argv[0]}.trace.json"
                records[mode].append(record)
                workload_id = f"{self.workload.name}:{argv[0]}"
                return ["--mode", mode, "--out", str(record), "--workload", workload_id, "--", *argv]

            return wrap

        traced, _ = self.repetition([PY, str(BENCH / "tracing.py")], tag="spans", wrap=wrap_for("spans"))
        self.repetition([PY, str(BENCH / "tracing.py")], tag="memory", wrap=wrap_for("memory"))
        loaded = {mode: [json.loads(p.read_text()) for p in paths if p.exists()] for mode, paths in records.items()}
        return untraced, traced, loaded["spans"], loaded["memory"]


# -- metrics ---------------------------------------------------------------------


def layer_metrics(untraced: float, traced: float, spans: list[dict], memory: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload from its traced invocations."""
    agg: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    hits = misses = entries = records = bits = mixed = 0
    top = tau_time = 0.0
    for rec in spans:
        for name, a in rec["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            acc[0] += a["calls"]
            acc[1] += a["total_s"]
            acc[2] += a["self_s"]
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
        values = rec["values"]
        table = values.get("mode_table", {})
        hits += table.get("hits", 0)
        misses += table.get("misses", 0)
        entries = max(entries, table.get("entries", 0))
        records = max(records, values.get("records", 0))
        bits = max(bits, values.get("coeff_max_bits", 0))
        mixed = max(mixed, values.get("mixed_coeffs", 0))
        # Time the solver spends raising into its top degree.
        solves = {s["id"]: s for s in rec["spans"] if s["name"] == "solver.compute_tau"}
        tau_time += sum(s["end"] - s["start"] for s in solves.values())
        for s in rec["spans"]:
            parent = solves.get(s["parent"])
            if s["name"] == "walgebra.raising_contribution" and parent and s["tag"] == parent["tag"]:
                top += s["end"] - s["start"]
    peaks: dict[str, float] = {}
    for rec in memory:
        for name, mb in rec["values"].get("peak_alloc_mb", {}).items():
            peaks[name] = max(peaks.get(name, 0.0), mb)

    def calls(*names):
        return sum(agg.get(n, [0, 0.0, 0.0])[0] for n in names)

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def layer(prefix):
        return sum(a[2] for name, a in agg.items() if name.split(".")[0] == prefix)

    def ratio(num, den):
        return num / den if den else 0.0

    contributions = calls("walgebra.raising_contribution")
    applied = calls("walgebra.NormalTerm.apply")
    attributed = sum(a[2] for a in agg.values())
    m = {
        "cli.self_s": (layer("cli"), "s"),
        "solver.compute_tau_s": (total("solver.compute_tau"), "s"),
        "solver.contributions": (contributions, "count"),
        "solver.contrib_zero_ratio": (ratio(counts.get("solver.contrib_zero", 0), contributions), "ratio"),
        "solver.top_degree_share": (ratio(top, tau_time), "ratio"),
        "solver.terms_out": (counts.get("solver.terms_out", 0), "count"),
        "solver.self_s": (layer("solver"), "s"),
        "solver.peak_alloc_mb": (peaks.get("solver", 0.0), "MB"),
        "walgebra.apply_w_mode_calls": (calls("walgebra.apply_w_mode"), "count"),
        "walgebra.apply_w_mode_self_s": (self_s("walgebra.apply_w_mode"), "s"),
        "walgebra.w_mode_terms_s": (total("walgebra.w_mode_terms"), "s"),
        "walgebra.mode_table_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "walgebra.mode_table_entries": (entries, "count"),
        "walgebra.normal_terms_applied": (applied, "count"),
        "walgebra.normal_terms_zero_ratio": (ratio(counts.get("walgebra.normal_terms_zero", 0), applied), "ratio"),
        "walgebra.self_s": (layer("walgebra"), "s"),
        "tpoly.mul_calls": (calls("tpoly.mul"), "count"),
        "tpoly.mul_self_s": (self_s("tpoly.mul"), "s"),
        "tpoly.mul_pairs": (counts.get("tpoly.mul_pairs", 0), "count"),
        "tpoly.mul_kept_ratio": (ratio(counts.get("tpoly.mul_kept", 0), counts.get("tpoly.mul_pairs", 0)), "ratio"),
        "tpoly.weight_evals": (counts.get("tpoly.weight_evals", 0), "count"),
        "tpoly.derive_self_s": (self_s("tpoly.derive"), "s"),
        "tpoly.mul_var_self_s": (self_s("tpoly.mul_var"), "s"),
        "tpoly.sum_of_self_s": (self_s("tpoly.sum_of"), "s"),
        "tpoly.scaled_self_s": (self_s("tpoly.scaled"), "s"),
        "tpoly.self_s": (layer("tpoly"), "s"),
        "scalar.mul_calls": (calls("scalar.__mul__", "scalar.__rmul__"), "count"),
        "scalar.add_calls": (calls("scalar.__add__", "scalar.__radd__", "scalar.__sub__", "scalar.__rsub__"), "count"),
        "scalar.self_s": (layer("scalar"), "s"),
        "scalar.coeff_max_bits": (bits, "bits"),
        "scalar.mixed_coeffs": (mixed, "count"),
        "correlator.log_tau_s": (total("correlator.log_tau"), "s"),
        "correlator.extract_self_s": (self_s("correlator.extract_correlators"), "s"),
        "correlator.extract_calls": (calls("correlator.extract_correlators"), "count"),
        "correlator.records": (records, "count"),
        "correlator.self_s": (layer("correlator"), "s"),
        "correlator.peak_alloc_mb": (peaks.get("correlator", 0.0), "MB"),
        "verify.wconstraints_s": (total("verify.check_w_constraints"), "s"),
        "verify.string_dilaton_s": (total("verify.check_string_dilaton"), "s"),
        "verify.grading_s": (total("verify.check_gradings"), "s"),
        "verify.selection_s": (total("verify.check_selection"), "s"),
        "verify.commutators_s": (total("verify.check_commutators"), "s"),
        "verify.exponential_s": (total("verify.check_exponential_agreement"), "s"),
        "verify.equations": (counts.get("verify.equations", 0), "count"),
        "verify.self_s": (layer("verify"), "s"),
        "serialize.cache_load_s": (total("serialize.TauCache.load"), "s"),
        "serialize.cache_hits": (counts.get("serialize.cache_hits", 0), "count"),
        "serialize.cache_store_s": (total("serialize.TauCache.store"), "s"),
        "serialize.cache_misses": (counts.get("serialize.cache_misses", 0), "count"),
        "serialize.serialize_tau_s": (total("serialize.serialize_tau"), "s"),
        "serialize.records_to_json_s": (total("serialize.records_to_json"), "s"),
        "serialize.reports_to_json_s": (total("serialize.reports_to_json"), "s"),
        "serialize.bytes_out": (counts.get("serialize.bytes_out", 0), "count"),
        "serialize.self_s": (layer("serialize"), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.unattributed_s": (traced - attributed, "s"),
    }
    missing = sorted({name for rec in spans + memory for name in rec["missing"]})
    if missing:
        print(f"note: names not found in the package, their metrics read 0: {', '.join(missing)}", file=sys.stderr)
    return m


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values: list[float]) -> str:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p} {ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]:.4f}"
    return "no percentile has 10 samples above it"


def run_workload(launcher: Launcher, workload: Workload, trace: bool, seconds: float, seed: int, smoke: bool) -> tuple[dict, Gate]:
    """Run one workload; prints its report lines and returns (metrics, gate)."""
    rng = random.Random(f"{seed}:{workload.name}")
    work = WORK / f"{workload.name}-{rng.getrandbits(32):08x}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(launcher, workload, rng, smoke, work)
    name = workload.name
    try:
        import_times(launcher, work, 1)  # untimed: writes the bytecode caches an installed package has
        runner.prepare()
        if trace:
            untraced, traced, spans, memory = runner.traced()
            metrics = layer_metrics(untraced, traced, spans, memory)
            span_file = WORK / f"spans-{name}-seed{seed}.json"
            span_file.write_text(json.dumps([s for rec in spans for s in rec["spans"]]))
            for key, (value, unit) in metrics.items():
                print(f"{name:10} {key:34} {value:>14.6g} {unit}")
            print(f"{name:10} spans written to {span_file.relative_to(ROOT)}")
            for rec in spans:
                props = {key: rec["values"][key] for key in ("terms_per_degree", "mode_table") if key in rec["values"]}
                print(f"{name:10} properties of traced {rec['workload']}: {json.dumps(props)}")
        else:
            walls, scaled, rsss, setup = runner.timed(seconds, 1 if smoke else SETUP_GROUP)
            metrics = {
                "wall_s": (statistics.median(scaled), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (max(rsss), "MB"),
            }
            for key, samples in (("wall_s", scaled), ("setup_s", setup)):
                q1, q3 = quartiles(samples)
                print(
                    f"{name:10} {key:12} {metrics[key][0]:.4f} s  calibrated, median of {len(samples)}, "
                    f"q1 {q1:.4f} q3 {q3:.4f}, {tail_percentile(samples)}"
                )
            print(
                f"{name:10} {'raw wall':12} {statistics.median(walls):.4f} s  uncalibrated median; calibration job "
                f"median {statistics.median(runner.calibrations):.4f} s over {len(runner.calibrations)} runs"
            )
            print(f"{name:10} {'peak_rss_mb':12} {metrics['peak_rss_mb'][0]:.1f} MB  max of {len(rsss)} repetitions")
        gate = runner.gate
        print(
            f"{name:10} {'error_rate':12} {len(gate.failures) / max(gate.attempted, 1):.4f}  "
            f"{len(gate.failures)} of {gate.attempted} invocations failed"
        )
        for command, props in gate.properties.items():
            print(f"{name:10} properties of {command}: {json.dumps(props)}")
        return metrics, gate
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so children are stopped
    parser = argparse.ArgumentParser(description="Benchmark of the rspin CLI.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="sets command order and temporary names only")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny degrees, untraced and traced")
    opts = parser.parse_args(argv)

    if not (SRC / "rspin" / "cli.py").is_file():
        print(f"error: no rspin package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    random.Random(opts.seed).shuffle(names)
    passes = (False, True) if opts.smoke else (bool(opts.trace),)
    qualified = len(names) > 1 or opts.smoke
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        with Launcher() as launcher:
            for name in names:
                for trace in passes:
                    result, gate = run_workload(launcher, WORKLOADS[name], trace, opts.seconds, opts.seed, opts.smoke)
                    attempted += gate.attempted
                    failed += len(gate.failures)
                    for key, (value, unit) in result.items():
                        metrics[f"{name}/{key}" if qualified else key] = {"value": value, "unit": unit}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
