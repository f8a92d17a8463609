"""Command-line interface: all four commands, formats, exit codes."""

import argparse
import hashlib
import json
import re

import pytest

from rspin import TauCache, compute_tau, extract_correlators, parse_tau, serialize_tau, verify
from rspin.cli import _warn_unchecked, main
from rspin.cli import ORACLE_CHECKED_DEPTH
from rspin.solver import _layout
from rspin.tpoly import pack_piece

from helpers import add, monomial, qs, tau1_r3


def test_compute_writes_canonical_file(tmp_path):
    out = tmp_path / "tau.json"
    assert main(["compute", "--r", "3", "--degree", "2", "--out", str(out)]) == 0
    tau = parse_tau(out.read_bytes())
    assert tau.pieces[1] == tau1_r3()
    assert out.read_bytes() == serialize_tau(compute_tau(3, 2))


@pytest.mark.parametrize("r, degree", [(2, 8), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_streamed_output_equals_the_bytes_api(tmp_path, capsys, r, degree):
    # the CLI writes compute's and correlators' documents chunk by chunk as
    # they are rendered; to --out or stdout, cold or warm, the bytes are
    # those serialize_tau, records_to_json and records_to_csv return whole
    from rspin.serialize import records_to_csv, records_to_json

    tau = compute_tau(r, degree)
    records = extract_correlators(tau)
    args = ["--r", str(r), "--degree", str(degree)]

    def run(argv, dest):
        if dest == "stdout":
            assert main(argv) == 0
            return capsys.readouterr().out.encode("utf-8")
        out = tmp_path / dest
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    for dest in ("out", "stdout"):
        cache = ["--cache-dir", str(tmp_path / f"cache-{dest}")]
        assert run(["compute", *args, *cache], dest) == serialize_tau(tau)  # cold: every piece computed
        assert run(["compute", *args, *cache], dest) == serialize_tau(tau)  # warm: every piece loaded
        assert run(["correlators", *args], dest) == records_to_json(records)
        assert run(["correlators", *args, "--format", "csv"], dest) == records_to_csv(records)


def test_compute_to_stdout(capsys):
    assert main(["compute", "--r", "3", "--degree", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_degree"] == 0


def test_compute_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["compute", "--r", "3", "--degree", "3", "--out", str(a)])
    main(["compute", "--r", "3", "--degree", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cache_changes_timing_not_bytes(tmp_path):
    # cold, warm and half filled, the document is the one written without a
    # cache; and an entry's bytes are its piece's, whatever solve stored it
    def compute(r, degree, name, cache=None):
        out = tmp_path / f"{name}-{r}-{degree}.json"
        extra = ["--cache-dir", str(tmp_path / cache)] if cache else []
        assert main(["-q", "compute", "--r", str(r), "--degree", str(degree), "--out", str(out), *extra]) == 0
        return out.read_bytes()

    for r, degree in [(3, 2), (2, 8), (3, 8), (4, 6), (5, 4), (6, 4)]:
        plain = compute(r, degree, "plain")
        compute(r, degree // 2, "fill", f"half-{r}")
        for run in ("cold", "warm"):
            assert compute(r, degree, run, f"full-{r}") == plain, (r, degree, run)
        assert compute(r, degree, "half", f"half-{r}") == plain, (r, degree, "half")
    compute(3, 5, "deep", "deep")
    entry = "r3_deg2.json"
    assert (tmp_path / "deep" / entry).read_bytes() == (tmp_path / "full-3" / entry).read_bytes()


def _verbose_entry(doc):
    """doc turned into the entry written before entries held integers: no den,
    and the piece as a tau document holds it, at format_version 1."""
    del doc["den"]
    doc.update(format_version=1, piece=json.loads(serialize_tau(compute_tau(3, 1)))["pieces"][1])


def _noted(doc):
    """doc with an unknown header field after its r: "r": 3, "note": 1."""
    fields = list(doc.items())
    doc.clear()
    for name, value in fields:
        doc[name] = value
        if name == "r":
            doc["note"] = 1


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(b"{broken", id="truncated"),
        pytest.param(b"\xff\xfe{", id="not-utf8"),
        pytest.param(b"null", id="null"),
        pytest.param(b"[]", id="list"),
        pytest.param(b'"x"', id="string"),
        pytest.param(b"3", id="number"),
        pytest.param(b"[" * 100_000, id="nested"),
        # past Python's 4300-digit limit on converting strings to int
        pytest.param(b"[" + b"7" * 5000 + b"]", id="long-int"),
        # JSON true equals 1 in Python, so the degree and index edits match
        # the entry they replace unless booleans are refused as integers
        pytest.param(lambda doc: doc.update(format_version=True), id="bool-version"),
        pytest.param(lambda doc: doc.update(degree=True), id="bool-degree"),
        pytest.param(lambda doc: doc["piece"][0].__setitem__(1, True), id="bool-index"),
        pytest.param(lambda doc: doc.update(den=True), id="bool-den"),
        # T1^3*T2 in degree 1: the term's weight is off the grading
        pytest.param(lambda doc: doc["piece"][0].__setitem__(2, 3), id="lam-off-grade"),
        # a zero numerator, which no stored piece holds
        pytest.param(lambda doc: doc["piece"][0].__setitem__(0, 0), id="coeff-off-grade"),
        # the numerator as a float, and as a string, each of the value it replaces
        pytest.param(lambda doc: doc["piece"][0].__setitem__(0, float(doc["piece"][0][0])), id="exponent-coeff"),
        pytest.param(lambda doc: doc["piece"][0].__setitem__(0, str(doc["piece"][0][0])), id="string-num"),
        # off the index rule, which the one grading pass of the reader checks
        pytest.param(lambda doc: doc["piece"][0].__setitem__(slice(1, None), [2, 1, 1, 2]), id="unsorted-t"),
        pytest.param(lambda doc: doc["piece"][0].__setitem__(slice(1, None), [1, 0, 4, 1]), id="zero-exponent"),
        # the same value over -den, and a den of 0
        pytest.param(lambda doc: [doc.update(den=-doc["den"])] + [t.__setitem__(0, -t[0]) for t in doc["piece"]],
                     id="negative-den"),
        pytest.param(lambda doc: doc.update(den=0), id="zero-den"),
        pytest.param(lambda doc: doc["piece"][0].append(1), id="even-length"),
        pytest.param(lambda doc: doc["piece"].append(list(doc["piece"][0])), id="duplicate"),
        # the same value over 3*den: not reduced
        pytest.param(lambda doc: [doc.update(den=3 * doc["den"])] + [t.__setitem__(0, 3 * t[0]) for t in doc["piece"]],
                     id="not-reduced"),
        pytest.param(lambda doc: doc.update(format_version=3), id="version-3"),
        # an entry as written before entries held integers: a tau document's piece
        pytest.param(lambda doc: _verbose_entry(doc), id="verbose-version-1"),
        # a header field no entry holds
        pytest.param(_noted, id="unknown-field"),
    ],
)
def test_corrupt_cache_exits_2(tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    main(["compute", "--r", "3", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "x.json")])
    path = cache / "r3_deg1.json"
    if callable(entry):
        doc = json.loads(path.read_text())
        assert doc["piece"][0][:3] == [-3, 1, 2] and doc["den"] == 27  # -3/27 * s * lam^-2 * T1^2 * T2
        entry(doc)
        entry = json.dumps(doc).encode()
    path.write_bytes(entry)
    code = main(["compute", "--r", "3", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "y.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert str(path) in err


def test_correlators_json(tmp_path):
    out = tmp_path / "corr.json"
    assert main(["correlators", "--r", "3", "--degree", "1", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert {"genus": 0, "insertions": [[0, 0], [0, 0], [0, 1]], "value": "1"} in records
    assert {"genus": 1, "insertions": [[1, 0]], "value": "1/12"} in records


def test_correlators_degree_four_includes_genus_two_value(tmp_path):
    out = tmp_path / "corr4.json"
    assert main(["correlators", "--r", "3", "--degree", "4", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert {"genus": 2, "insertions": [[2, 1], [2, 1]], "value": "17/4320"} in records


def test_correlators_csv(tmp_path):
    out = tmp_path / "corr.csv"
    assert main(["correlators", "--r", "3", "--degree", "1", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "genus,insertions,value"
    assert any(line.endswith("1/12") for line in lines)


def test_csv_flag_only_exists_for_correlators():
    with pytest.raises(SystemExit) as info:
        main(["compute", "--r", "3", "--degree", "1", "--format", "csv"])
    assert info.value.code == 2


def test_verify_all_checks_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--r", "3", "--degree", "2", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [rep["check_name"] for rep in reports] == [
        "wconstraints",
        "string_dilaton",
        "grading",
        "selection",
    ]
    assert all(rep["status"] == "pass" for rep in reports)
    assert "wconstraints: pass" in capsys.readouterr().err


def test_verify_extracts_correlators_once(tmp_path, monkeypatch):
    calls = []

    def counting(tau):
        calls.append(tau.max_degree)
        return extract_correlators(tau)

    monkeypatch.setattr(verify, "extract_correlators", counting)
    assert main(["verify", "--r", "3", "--degree", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [2]


def _polynomial_calls(monkeypatch) -> list:
    """The (name, degree) of each call of pack_piece or unpacked from then
    on, wherever the package binds them."""
    from rspin import scalar, serialize, solver, tpoly, verify

    calls = []

    def counted(name, fn):
        def run(r, j, *args):
            calls.append((name, j))
            return fn(r, j, *args)

        return run

    for owner in (solver, tpoly, serialize, verify, scalar):  # pieces imports unpacked from scalar as it runs
        for name in ("pack_piece", "unpacked"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def test_correlators_read_the_packed_pieces(tmp_path, monkeypatch):
    # with or without a cache, cold or warm, compute and correlators run on
    # the pieces as the solve or the cache reader packed them: no piece is
    # packed from a TPolynomial or unpacked to one, and the cached runs write
    # the bytes of the run without a cache
    calls = _polynomial_calls(monkeypatch)
    for command in ("correlators", "compute"):
        plain = tmp_path / f"{command}.json"
        assert main(["-q", command, "--r", "3", "--degree", "7", "--out", str(plain)]) == 0
        for run in ("cold", "warm"):
            out = tmp_path / f"{command}-{run}.json"
            cache = str(tmp_path / f"cache-{command}")
            assert main(["-q", command, "--r", "3", "--degree", "7", "--cache-dir", cache, "--out", str(out)]) == 0
            assert out.read_bytes() == plain.read_bytes(), (command, run)
    assert calls == []
    # the bytes the benchmark's tables-r3 workload pins
    digest = "573f19c99888039f65a776522425d2ad673dec5b2be5945c063349fddffde902"
    assert hashlib.sha256((tmp_path / "correlators.json").read_bytes()).hexdigest() == digest


def test_warm_compute_writes_the_loaded_pieces_as_read(tmp_path, monkeypatch):
    # every piece comes from the cache packed: the reader grades each once,
    # nothing grades it again, and the document is rendered from the very
    # Packed objects the reader returned
    from rspin import serialize, solver, tpoly

    cache = tmp_path / "cache"
    assert main(["-q", "compute", "--r", "4", "--degree", "5", "--cache-dir", str(cache)]) == 0
    loaded, load, written, write = [], serialize.TauCache.load, [], serialize._packed_json
    graded, check_piece = [], tpoly.check_piece

    def loading(self, r, degree, layout):
        loaded.append(load(self, r, degree, layout))
        return loaded[-1]

    def writing(r, j, piece, fields, pad):
        written.append(piece)
        return write(r, j, piece, fields, pad)

    def grading(r, j, piece):
        graded.append(j)
        return check_piece(r, j, piece)

    calls = _polynomial_calls(monkeypatch)
    monkeypatch.setattr(serialize.TauCache, "load", loading)
    monkeypatch.setattr(serialize, "_packed_json", writing)
    for module in (tpoly, solver, serialize):  # pack_piece's, the solve's and the reader's
        monkeypatch.setattr(module, "check_piece", grading)
    out = tmp_path / "tau.json"
    assert main(["-q", "compute", "--r", "4", "--degree", "5", "--cache-dir", str(cache), "--out", str(out)]) == 0
    assert calls == [] and graded == [1, 2, 3, 4, 5]
    assert len(loaded) == 5 and all(a is b for a, b in zip(loaded, written[1:]))
    assert out.read_bytes() == serialize_tau(compute_tau(4, 5))


def test_verify_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--r", "3", "--degree", "2", "--out", str(a)]) == 0
    assert main(["verify", "--r", "3", "--degree", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("before", [True, False])
def test_verbosity_flags_before_or_after_subcommand(tmp_path, capsys, before):
    def run(flag):
        argv = ["verify", "--r", "3", "--degree", "1", "--checks", "selection", "--out", str(tmp_path / "r.json")]
        assert main([flag] + argv if before else argv + [flag]) == 0
        return capsys.readouterr().err

    verbose = run("-v").splitlines()
    assert verbose[0].startswith("solve: ") and verbose[0].endswith(" ms")
    assert verbose[1].startswith("selection: pass (") and verbose[1].endswith(" ms)")
    assert run("-q") == ""


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (
            ["compute", "--r", "4", "--degree", "6"],
            [
                "A_1: 182 terms, 278 rows of 351 blocks",
                "A_2: 684 terms, 1067 rows of 210 blocks",
                "A_3: 1394 terms, 1958 rows of 88 blocks",
            ],
        ),
        (
            ["correlators", "--r", "3", "--degree", "7"],
            ["A_1: 122 terms, 187 rows of 275 blocks", "A_2: 298 terms, 387 rows of 126 blocks"],
        ),
    ],
)
def test_verbose_raiser_lines_are_pinned(tmp_path, capsys, monkeypatch, argv, pinned):
    # each raiser's merged terms and the rows and mode blocks it read, from
    # raisers built fresh for this solve, then its build time
    from rspin import walgebra

    monkeypatch.setattr(walgebra, "_RAISERS", {})
    assert main(argv + ["-v", "--out", str(tmp_path / "out")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("A_")]
    assert [line.split(" before merging")[0] for line in lines] == pinned
    assert all(re.fullmatch(r".+ before merging, built in \d+\.\d ms", line) for line in lines)


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["compute"], ["solve", "write"]),
        (["correlators"], ["solve", "extract", "write"]),
        (["correlators", "--format", "csv"], ["solve", "extract", "write"]),
        (["commutator"], ["solve", "commutator", "exponential"]),
        (["verify"], ["solve"]),
    ],
)
def test_verbose_timings_go_to_stderr_only(capsys, argv, labels):
    # -v reports the phase milliseconds, the partitions cache and the
    # raisers A_1, A_2 of the solve, with the mode blocks they enumerated,
    # and last the process's peak RSS, on stderr; the data on stdout keeps its
    # bytes.  commutator reports its nonzero residuals and verify its check
    # lines on stderr whatever the verbosity, and -v adds the timings before
    # them (verify's check lines gain their own milliseconds) and the tables
    # after them
    argv = argv + ["--r", "3", "--degree", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["-v"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain.out and bool(plain.err) == (argv[0] in ("commutator", "verify"))
    lines = verbose.err.splitlines()
    notes = plain.err.splitlines()
    checks = lines[len(labels): len(lines) - 4]
    if argv[0] == "verify":
        assert notes and all(re.fullmatch(r".+ \(\d+\.\d ms\)", line) for line in checks)
        checks = [line.rsplit(" (", 1)[0] for line in checks]
    assert checks == notes
    del lines[len(labels): len(lines) - 4]
    assert [line.split(":")[0] for line in lines] == labels + ["_partitions", "A_1", "A_2", "peak RSS"]
    assert all(line.endswith(" ms") for line in lines[: len(labels)])
    assert re.fullmatch(r"_partitions: \d+ hits, \d+ misses", lines[-4])
    assert all(
        re.fullmatch(r"A_\d: \d+ terms, \d+ rows of \d+ blocks before merging, built in \d+\.\d ms", line)
        for line in lines[-3:-1]
    )
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", lines[-1])


def test_verify_subset_of_checks(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--r", "3", "--degree", "2", "--checks", "wconstraints", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [rep["check_name"] for rep in reports] == ["wconstraints"]


def test_verify_runs_every_check_by_default(tmp_path, capsys):
    # no --checks means all four, in canonical order whatever order a list names them
    default, listed = tmp_path / "default.json", tmp_path / "listed.json"
    assert main(["verify", "--r", "3", "--degree", "2", "--out", str(default)]) == 0
    checks = "selection,grading,string_dilaton,wconstraints"
    assert main(["verify", "--r", "3", "--degree", "2", "--checks", checks, "--out", str(listed)]) == 0
    assert default.read_bytes() == listed.read_bytes()
    # the help names the checks without importing verify at parse time
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"{{{','.join(verify.CHECKS)}}} (default: all)" in " ".join(capsys.readouterr().out.split())


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--r", "3", "--degree", "1", "--checks", "bogus"]) == 2
    assert "unknown checks" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_without_checks_exits_2(tmp_path, capsys, checks):
    # running no check must not read as every gating check passing
    out = tmp_path / "report.json"
    assert main(["verify", "--r", "3", "--degree", "1", "--checks", checks, "--out", str(out)]) == 2
    assert "names no check" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the report below, recorded when coefficients still carried r
# and multiplied in Q(s): the residual sums mix rational and s-parts.
BAD_CACHE_REPORT_DIGEST = "1f2af823801eec797f611a87a50d7531812dafa40ed91f0c69d3c79e66cc1b64"


def _bad_cache(tmp_path) -> str:
    """A cache directory whose degree-1 piece at r = 3 has an extra s*T4: it
    keeps the weight and the grading, so it passes the cache's own checks."""
    cache, layout = TauCache(tmp_path / "cache"), _layout(3, 2)
    piece = add(compute_tau(3, 1).pieces[1], monomial(3, qs(0, 1), 0, {4: 1}))
    cache.store(3, 1, pack_piece(3, 1, piece, layout[0]), layout)
    return str(cache.directory)


def test_verify_failure_exits_1(tmp_path):
    # verify runs on the tampered cached piece and the constraints fail
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--r", "3", "--degree", "2", "--checks", "wconstraints",
         "--cache-dir", _bad_cache(tmp_path), "--out", str(out)]
    )
    assert code == 1
    reports = json.loads(out.read_text())
    assert reports[0]["status"] == "fail"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BAD_CACHE_REPORT_DIGEST


def test_reports_build_no_polynomial(tmp_path, monkeypatch):
    # a failing verify and the commutator diagnostic hold and render every
    # residual packed: no piece is packed from a polynomial or unpacked to one
    cache = _bad_cache(tmp_path)
    calls = _polynomial_calls(monkeypatch)
    argv = ["-q", "verify", "--r", "3", "--degree", "2", "--checks", "wconstraints", "--cache-dir", cache]
    assert main(argv + ["--out", str(tmp_path / "verify.json")]) == 1
    assert main(["-q", "commutator", "--r", "3", "--degree", "6", "--out", str(tmp_path / "commutator.json")]) == 0
    assert json.loads((tmp_path / "commutator.json").read_text())[0]["residuals"]
    assert calls == []


@pytest.mark.parametrize("r, degree", [(4, 4), (5, 3)])
def test_verify_spin_four_and_five_passes(tmp_path, r, degree):
    out = tmp_path / "report.json"
    assert main(["verify", "--r", str(r), "--degree", str(degree), "--out", str(out)]) == 0
    assert all(rep["status"] == "pass" for rep in json.loads(out.read_text()))


# sha256 of the tau documents written before the per-monomial W-mode kernel;
# the benchmark pins only r = 3 outputs, so these guard the spin >= 4 bytes.
SPIN_FOUR_AND_FIVE_DIGESTS = {
    (4, 5): "73dceaf8cfd7b16bc1a7a4decd499d50cba57ce57e6995a57e10bb3f1dff6912",
    (5, 4): "70a5d91807dd2b17d15dfe1324daeddf91ca2a0b36c8a9f960dd95838b411e80",
}


@pytest.mark.parametrize("r, degree", sorted(SPIN_FOUR_AND_FIVE_DIGESTS))
def test_compute_spin_four_and_five_bytes_are_pinned(tmp_path, r, degree):
    out = tmp_path / "tau.json"
    assert main(["compute", "--r", str(r), "--degree", str(degree), "--out", str(out), "-q"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SPIN_FOUR_AND_FIVE_DIGESTS[(r, degree)]


# sha256 of the r = 4, degree-6 tau document, recorded while it was still
# written through json.dumps, and of its cache entries, recorded when
# entries came to hold integers (ENTRY_VERSION 2) and re-recorded when only
# their mode tag changed (twisted-w-gl-r/2); no other test pins the bytes
# of a cache entry.
SPIN_FOUR_DEGREE_SIX_DIGEST = "5593b96ce55d14f0d54b3268a550d832c9a67b4d8e192a2a4949391ee29f3bd6"
SPIN_FOUR_CACHE_DIGESTS = {
    "r4_deg1.json": "2b7353acb7abfa3ee03dbac02253f4474bd9c1ff1565f6722ce2d80670f9b972",
    "r4_deg2.json": "2cd0b0d9d70a8fbc3fe14c8d057d46e7f1d766d0616d6f1c4ff26f8ac06780ae",
    "r4_deg3.json": "dae7b6287334a1c07ef3690ef0b498808cfa3caad359fd1317b4f1d86a447cb9",
    "r4_deg4.json": "de5511ac8570672fb73d43d85c6d420f65e0a5407093783fd86209ba11479ac9",
    "r4_deg5.json": "fd183bad653717a1a047e8c0cfc79178b0c795656ac7fc0669c4c35197877b49",
    "r4_deg6.json": "afdea6542b4741ebbd5dba6c6a97069cf67c18da08461cf359d6fde7fa9f7f53",
}


def test_compute_and_cache_entry_bytes_are_pinned(tmp_path):
    cache, cold, warm = tmp_path / "cache", tmp_path / "cold.json", tmp_path / "warm.json"
    for out in (cold, warm):
        assert main(["compute", "--r", "4", "--degree", "6", "--cache-dir", str(cache), "--out", str(out), "-q"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SPIN_FOUR_DEGREE_SIX_DIGEST
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in cache.iterdir()} == SPIN_FOUR_CACHE_DIGESTS


# sha256 of the commutator reports; the spin-4 raisers reach these through
# check_commutators and compute_tau_exponential as well as the recursion,
# so the projected spin-4 current (which gains d^2 W_2 / 6) changes them
# though tau at r = 4 does not.
COMMUTATOR_DIGESTS = {
    (4, 4): "8b9f0065b948e6c9288c578c695e1dcbcff35ea30f9fbb54ecd475b4a9fb7646",
}


@pytest.mark.parametrize("r, degree", sorted(COMMUTATOR_DIGESTS))
def test_commutator_spin_four_bytes_are_pinned(tmp_path, r, degree):
    out = tmp_path / "comm.json"
    assert main(["commutator", "--r", str(r), "--degree", str(degree), "--out", str(out), "-q"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMMUTATOR_DIGESTS[(r, degree)]


@pytest.mark.parametrize("command", ["compute", "correlators", "verify"])
def test_unchecked_r_warns_without_changing_data(tmp_path, capsys, command):
    argv = [command, "--r", "15", "--degree", "1", "-q"]
    out = tmp_path / "a.out"
    assert main(argv + ["--out", str(out)]) == 0
    assert "WARNING: genus >= 1 values for r=15 are unverified" in capsys.readouterr().err
    if command == "compute":
        assert out.read_bytes() == serialize_tau(compute_tau(15, 1))
    checked = tmp_path / "b.out"
    assert main([command, "--r", "14", "--degree", "1", "--out", str(checked), "-q"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("r", [2, 3, *ORACLE_CHECKED_DEPTH, 15, 20])
def test_warning_follows_the_oracle_depth_of_each_r(capsys, r):
    # warned on stderr past the depth the r-KdV oracle covers for this r,
    # at every degree for r >= 15, never for r = 2, 3 (the published
    # tables)
    checked = ORACLE_CHECKED_DEPTH.get(r, 0 if r > 3 else 10)
    for degree in (checked, checked + 1):
        _warn_unchecked(argparse.Namespace(r=r, degree=degree))
        warned = f"WARNING: genus >= 1 values for r={r} are unverified at degree {degree}"
        assert (warned in capsys.readouterr().err) == (degree > checked and r > 3)


def test_cache_without_mode_tag_exits_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    main(["compute", "--r", "4", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "x.json")])
    entry = cache / "r4_deg1.json"
    doc = json.loads(entry.read_text())
    del doc["modes"]
    entry.write_text(json.dumps(doc))
    code = main(["compute", "--r", "4", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "y.json")])
    assert code == 2
    assert "W-mode construction" in capsys.readouterr().err


def test_cache_of_the_old_mode_construction_exits_2(tmp_path, capsys):
    # an entry built by the integrated-by-parts currents, which are wrong
    # from r = 6, is refused, and the message names both tags
    cache = tmp_path / "cache"
    main(["compute", "--r", "4", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "x.json")])
    entry = cache / "r4_deg1.json"
    entry.write_text(entry.read_text().replace("twisted-w-gl-r/2", "twisted-w-gl-r/1"))
    code = main(["compute", "--r", "4", "--degree", "1", "--cache-dir", str(cache), "--out", str(tmp_path / "y.json")])
    assert code == 2
    assert "W-mode construction 'twisted-w-gl-r/1', not 'twisted-w-gl-r/2'" in capsys.readouterr().err


@pytest.mark.parametrize("r, degree", [(6, 4), (7, 4), (8, 4)])
def test_verify_passes_past_the_spin_six_current(tmp_path, r, degree):
    # the first depths whose raisers use the spin-6 (and higher) currents
    # at a nonzero mode: every check, the spin >= 6 W-constraints among them
    out = tmp_path / "report.json"
    assert main(["verify", "--r", str(r), "--degree", str(degree), "--out", str(out), "-q"]) == 0
    reports = json.loads(out.read_text())
    assert [(rep["check_name"], rep["status"]) for rep in reports] == [
        ("wconstraints", "pass"), ("string_dilaton", "pass"), ("grading", "pass"), ("selection", "pass")
    ]


def test_invalid_r_exits_2(capsys):
    assert main(["compute", "--r", "1", "--degree", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["compute", "--r", "3", "--degree", "0", "--out", str(target)]) == 2
    assert "error:" in capsys.readouterr().err


def test_commutator_command_reports_prominently(tmp_path, capsys):
    out = tmp_path / "comm.json"
    code = main(["commutator", "--r", "3", "--degree", "3", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [rep["check_name"] for rep in reports] == ["commutator", "exponential_agreement"]
    assert all(rep["status"] == "diagnostic" for rep in reports)
    err = capsys.readouterr().err
    assert "WARNING" in err
    assert "[A_1, A_2]" in err


def test_env_var_sets_default_cache(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("RSPIN_CACHE_DIR", str(cache))
    out = tmp_path / "tau.json"
    assert main(["compute", "--r", "3", "--degree", "1", "--out", str(out)]) == 0
    assert (cache / "r3_deg1.json").exists()
