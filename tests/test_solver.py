"""Graded recursion solver: fixtures, determinism, cache, exponential path."""

import json
from fractions import Fraction

import pytest

from rspin import (
    CacheError,
    ContractError,
    RSpinError,
    TauCache,
    TauExpansion,
    TMonomial,
    TPolynomial,
    compute_tau,
    compute_tau_exponential,
    serialize_tau,
)
from rspin import serialize, solver, walgebra
from rspin.serialize import MODE_CONSTRUCTION

from helpers import (
    add,
    const,
    is_homogeneous,
    is_zero,
    monomial,
    one,
    qs,
    raiser1_squared_on_one_r3,
    raiser2_on_one_r3,
    reference_tau,
    scaled,
    shift_lambda,
    sub,
    tau1_r2,
    tau1_r3,
    tau2_r3,
    var,
    with_piece,
)


def test_degree_zero_is_one():
    for r in (2, 3, 4, 5):
        tau = compute_tau(r, 0)
        assert tau.pieces == (one(r),)


def test_r3_degree_one_fixture():
    assert compute_tau(3, 1).pieces[1] == tau1_r3()


def test_r3_degree_two_fixture():
    tau = compute_tau(3, 2)
    assert tau.pieces[1] == tau1_r3()
    assert tau.pieces[2] == tau2_r3()
    # the degree-2 piece equals half of (first raiser squared + second raiser) on 1
    half = scaled(add(raiser1_squared_on_one_r3(), raiser2_on_one_r3()), Fraction(1, 2))
    assert tau.pieces[2] == half


def test_r2_degree_one_fixture():
    assert compute_tau(2, 1).pieces[1] == tau1_r2()


def test_pieces_are_euler_eigenvectors():
    # the Euler operator (1/(r+1)) sum_n n T_n d/dT_n scales a monomial of
    # weight w by w/(r+1), so eigenvalue j means weight j*(r+1)
    for r, D in ((2, 4), (3, 3)):
        tau = compute_tau(r, D)
        for j, piece in enumerate(tau.pieces):
            assert is_homogeneous(piece, j * (r + 1))


def test_validate_accepts_good_and_rejects_bad():
    # validation is construction: a TauExpansion built from the polynomials
    # holds the solve's packed pieces, and each refusal has its exact message
    tau = compute_tau(3, 2)
    assert TauExpansion(3, 2, tau.pieces).held == tau.held
    pieces = tau.pieces
    refused = (
        (lambda: TauExpansion(1, 0, [one(3)]), "r must be >= 2, got 1"),
        (lambda: TauExpansion(3, -1, []), "max_degree must be >= 0, got -1"),
        (lambda: TauExpansion(3, 2, pieces[:2]), "expected 3 pieces, found 2"),
        (lambda: TauExpansion(3, 2, [const(3, 2), *pieces[1:]]), "degree-0 piece must equal 1"),
        (lambda: TauExpansion(3, 2, [one(4), *pieces[1:]]), "piece 0 built over r=4, expected 3"),
        (lambda: TauExpansion(3, 2, [*pieces[:2], one(2)]), "piece 2 built over r=2, expected 3"),
    )
    for build, message in refused:
        with pytest.raises(ContractError) as info:
            build()
        assert str(info.value) == message
    # the grading, one case per rule: the indices, the weight, the lam
    # exponent j - (number of variables), even and >= -2j, and coefficients
    # in Q*s^(j mod 2); the last four edits keep the weight
    graded = (
        (1, TPolynomial._raw(3, {TMonomial(-1, ((1, 1), (3, 1))): qs(0, 1)}),
         "T1*T3*lam^-1 off the grading: T3^1: indices ascend, are positive, not divisible by 3; exponents >= 1"),
        (1, add(pieces[1], one(3)), "1 off the grading: weight 0, expected 4"),
        (1, shift_lambda(pieces[1], 1),
         "T1^2*T2*lam^-1 off the grading: lam exponent -1 on 3 variables, expected -2, even and >= -2"),
        (1, shift_lambda(pieces[1], 2),
         "T1^2*T2 off the grading: lam exponent 0 on 3 variables, expected -2, even and >= -2"),
        (1, add(pieces[1], var(3, 4)), "T4 off the grading: coefficient 1 - 1/27*s outside Q*s^1"),
        (2, add(pieces[2], monomial(3, qs(0, 1), 0, {4: 2})),
         "T4^2 off the grading: coefficient -13/486 + s outside Q*s^0"),
        (2, monomial(3, qs(0, 1), -2, {1: 2, 2: 1, 4: 1}),
         "T1^2*T2*T4*lam^-2 off the grading: coefficient s outside Q*s^0"),
    )
    for j, piece, message in graded:
        with pytest.raises(ContractError) as info:
            with_piece(tau, j, piece)
        assert str(info.value) == f"piece {j} has monomial {message}"


def test_malformed_packed_pieces_are_refused():
    # a caller's piece is a TPolynomial or a packed ({key >= 0: nonzero int},
    # den >= 1) whose keys fit the layout's bits, checked by the types of its
    # values and the keys' lengths alone: anything else is refused, one
    # message per fault, where it once escaped as an AttributeError (a list)
    # or was held as it came (the rest)
    held = compute_tau(3, 2).held
    nums = held[2][0]
    malformed = "packed piece 2 is malformed: "
    refused = (
        ([1, 2], "piece 2 is a list, not a TPolynomial or a packed tuple"),
        (None, "piece 2 is a NoneType, not a TPolynomial or a packed tuple"),
        ((nums,), malformed + "not a ({key: num}, den) pair"),
        ((list(nums.items()), 1), malformed + "not a ({key: num}, den) pair"),
        ((nums, 0), malformed + "den 0 is not an integer >= 1"),
        ((nums, -3), malformed + "den -3 is not an integer >= 1"),
        ((nums, 2.0), malformed + "den 2.0 is not an integer >= 1"),
        ((nums, True), malformed + "den True is not an integer >= 1"),
        (({**nums, -1: 1}, 1), malformed + "key -1 is not an integer >= 0"),
        (({**nums, 1.0: 1}, 1), malformed + "key 1.0 is not an integer >= 0"),
        # T_4 (bit 7 of the 12-bit (3, 2) layout) with a bit past the layout,
        # which unpack_exponents would drop and read as plain T_4
        (({**nums, (1 << 7) | (1 << 12): 1}, 1), malformed + "key 4224 is past the layout's 12 bits"),
        (({**nums, 5: 1.5}, 1), malformed + "numerator 1.5 is not a nonzero integer"),
        (({**nums, 5: Fraction(1, 2)}, 1), malformed + "numerator Fraction(1, 2) is not a nonzero integer"),
        (({**nums, 5: 0}, 1), malformed + "numerator 0 is not a nonzero integer"),
        (({**nums, 5: True}, 1), malformed + "numerator True is not a nonzero integer"),
    )
    for piece, message in refused:
        with pytest.raises(ContractError) as info:
            TauExpansion(3, 2, [*held[:2], piece])
        assert str(info.value) == message
    # the package's own pieces, a zero piece and a piece whose den is not
    # reduced all have the shape
    assert TauExpansion(3, 2, held).held == held
    assert TauExpansion(3, 2, [*held[:2], ({}, 1)]).held[2] == ({}, 1)
    doubled = {key: 2 * c for key, c in nums.items()}
    assert TauExpansion(3, 2, [*held[:2], (doubled, 2 * held[2][1])]).held[2] == (doubled, 2 * held[2][1])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        compute_tau(1, 2)
    with pytest.raises(ValueError):
        compute_tau(3, -1)


REFUSED = {
    "compute_tau r=1": lambda: compute_tau(1, 2),
    "compute_tau degree -1": lambda: compute_tau(3, -1),
    "exponential r=1": lambda: compute_tau_exponential(1, 2),
    "exponential degree -1": lambda: compute_tau_exponential(3, -1),
    "polynomial r=1": lambda: TPolynomial(1),
    "non-canonical monomial": lambda: TPolynomial(3, {TMonomial(0, ((2, 1), (1, 1))): 1}),
    "negative exponent": lambda: TPolynomial(3, {TMonomial(0, ((1, -1),)): 1}),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refusals_are_package_errors(case):
    with pytest.raises(RSpinError):
        REFUSED[case]()


def test_expansion_builds_positionally():
    tau = compute_tau(4, 4)
    low = TauExpansion(4, 3, tau.pieces[:4])
    assert (low.r, low.max_degree, low.pieces) == (4, 3, compute_tau(4, 3).pieces)


def test_determinism_across_runs():
    blobs = [serialize_tau(compute_tau(3, 3)) for _ in range(3)]
    assert all(blob == blobs[0] for blob in blobs)


def test_each_raiser_is_one_kernel_call(monkeypatch):
    # j * tau_j = sum_l A_l tau_{j-l}: one kernel loop per raiser A_l, so
    # sum_j min(r-1, j) = 1 + 2 + 3 + 3 kernel calls at r = 4, depth 4,
    # each on the packed rows (key, exps, num) of one piece
    calls, loop = [], walgebra._operator_loop

    def counting(groups, rows):
        calls.append(max(sum(n * e for n, e in exps) for _, exps, _ in rows))
        return loop(groups, rows)

    monkeypatch.setattr(walgebra, "_operator_loop", counting)
    compute_tau(4, 4)
    assert sorted(calls) == [0, 0, 0, 5, 5, 5, 10, 10, 15]


@pytest.mark.parametrize("r, depth", [(2, 6), (3, 6), (4, 5), (5, 4), (7, 2)])
def test_packed_recursion_matches_reference(r, depth):
    # the solver runs on packed integer pieces in the s^j convention; the
    # reference sums the raisers' TPolynomials and scales by 1/j
    assert compute_tau(r, depth).pieces == tuple(reference_tau(r, depth))


def test_half_filled_cache_matches_a_cold_run(tmp_path, monkeypatch):
    # degrees 1-3 come from the cache, packed by its reader, and degrees
    # 4-6 raise them as read; the document and every entry equal those of a
    # cold run
    from rspin import solver

    cold, half = tmp_path / "cold", tmp_path / "half"
    expected = serialize_tau(compute_tau(4, 6, cache=TauCache(cold)))
    compute_tau(4, 3, cache=TauCache(half))
    assert sorted(p.name for p in half.iterdir()) == [f"r4_deg{j}.json" for j in (1, 2, 3)]
    packed, pack_piece = [], solver.pack_piece

    def counting(r, j, piece, shift):
        packed.append(j)
        return pack_piece(r, j, piece, shift)

    monkeypatch.setattr(solver, "pack_piece", counting)
    assert serialize_tau(compute_tau(4, 6, cache=TauCache(half))) == expected
    assert packed == []  # the cache's reader packs what it reads
    assert sorted(p.name for p in half.iterdir()) == sorted(p.name for p in cold.iterdir())
    for entry in cold.iterdir():
        assert (half / entry.name).read_bytes() == entry.read_bytes()


def test_cache_round_trip(tmp_path):
    cache = TauCache(tmp_path)
    first = serialize_tau(compute_tau(3, 2, cache=cache))
    assert (tmp_path / "r3_deg1.json").exists()
    assert (tmp_path / "r3_deg2.json").exists()
    second = serialize_tau(compute_tau(3, 2, cache=cache))
    assert first == second


def test_every_expansion_holds_its_solves_layout(tmp_path):
    # however an expansion is made, it holds the memoised layout objects of
    # its (r, D), which every reader and writer of its pieces reads
    from rspin import parse_tau

    cache, layout = TauCache(tmp_path), solver._layout(3, 4)
    computed = compute_tau(3, 4, cache=cache)
    made = {
        "computed": computed,
        "parsed": parse_tau(serialize_tau(computed)),
        "cached": compute_tau(3, 4, cache=cache),
        "exponential": compute_tau_exponential(3, 4),
        "from polynomials": TauExpansion(3, 4, computed.pieces),
        "from packed pieces": TauExpansion(3, 4, computed.held),
    }
    for name, tau in made.items():
        assert tau.shift is layout[0] and tau.fields is layout[1], name


def test_filled_cache_checks_each_piece_once(tmp_path, monkeypatch):
    from rspin import serialize, solver

    cache = TauCache(tmp_path)
    compute_tau(3, 3, cache=cache)
    checked, check_piece = [], solver.check_piece

    def counting(r, j, piece):
        checked.append(j)
        return check_piece(r, j, piece)

    monkeypatch.setattr(solver, "check_piece", counting)
    monkeypatch.setattr(serialize, "check_piece", counting)
    # no computed degree reads a cached piece, so none is packed
    monkeypatch.setattr(solver, "pack_piece", lambda r, j, piece, shift: pytest.fail(f"piece {j} packed"))
    compute_tau(3, 3, cache=cache)
    assert sorted(checked) == [1, 2, 3]


def test_bad_piece_never_reaches_the_cache(tmp_path, monkeypatch):
    from rspin import solver

    # the computed degree-1 piece comes out as T1, off the weight
    shift, _ = solver._layout(3, 1)
    monkeypatch.setattr(solver, "raise_step", lambda *args: ({1 << shift[1]: 1}, 1))
    with pytest.raises(ContractError, match="weight 1, expected 4"):
        compute_tau(3, 1, cache=TauCache(tmp_path))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "key, why",
    [
        ({1: 1}, "weight 1, expected 4"),  # T1 in degree 1
        ({2: 2}, "lam exponent -1 on 2 variables"),  # T2^2 keeps the weight, but lam = 1 - 2 is odd
    ],
)
def test_a_computed_piece_off_the_grading_is_refused(monkeypatch, key, why):
    # a computed piece stays packed: its lam exponent j - N and power of s
    # are the form's, and check_piece grades its weight and lam rules as it
    # is made
    from rspin import solver

    shift, _ = solver._layout(3, 1)
    monkeypatch.setattr(solver, "raise_step", lambda *args: ({sum(e << shift[n] for n, e in key.items()): 1}, 1))
    with pytest.raises(ContractError, match=f"piece 1 has monomial .* off the grading: {why}"):
        compute_tau(3, 1)


def _grading_calls(monkeypatch) -> list:
    from rspin import serialize, solver, tpoly

    calls, check_piece = [], tpoly.check_piece

    def counting(r, j, piece):
        calls.append(j)
        return check_piece(r, j, piece)

    for module in (tpoly, solver, serialize):  # pack_piece's, the solve's and the reader's
        monkeypatch.setattr(module, "check_piece", counting)
    return calls


def test_each_piece_is_graded_once(tmp_path, monkeypatch):
    from rspin import verify

    compute_tau(4, 3, cache=TauCache(tmp_path))
    calls = _grading_calls(monkeypatch)
    # degrees 1-3 graded by the cache's load, 4-6 as they are made; the
    # cached ones are packed for degrees 4-6 without a second grading
    compute_tau(4, 6, cache=TauCache(tmp_path))
    assert calls == [1, 2, 3, 4, 5, 6]
    calls.clear()
    tau = compute_tau(3, 6)
    assert calls == [1, 2, 3, 4, 5, 6]  # tau_0 is the packed constant
    calls.clear()
    assert all(report.passed for report in verify.run_checks(tau, verify.CHECKS))
    assert calls == []


def test_computed_pieces_stay_packed():
    # about 70 B per term packed, against about 300 B as TPolynomials: the
    # expansion is measured as the traced memory that deleting it frees
    import tracemalloc

    tracemalloc.start()
    try:
        tau = compute_tau(3, 10)
        terms = sum(len(tau.packed(j)[0]) for j in range(11))
        held = tracemalloc.get_traced_memory()[0]
        del tau
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert terms == 5572
    assert held < 150 * terms


def test_cache_is_shared_across_depths(tmp_path):
    cache = TauCache(tmp_path)
    compute_tau(3, 1, cache=cache)
    deep = compute_tau(3, 2, cache=cache)
    assert deep.pieces[1] == tau1_r3()
    assert deep.pieces[2] == tau2_r3()


def test_corrupt_cache_raises(tmp_path):
    cache = TauCache(tmp_path)
    compute_tau(3, 1, cache=cache)
    path = tmp_path / "r3_deg1.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CacheError):
        compute_tau(3, 1, cache=TauCache(tmp_path))


def test_version_mismatch_raises(tmp_path):
    cache = TauCache(tmp_path)
    compute_tau(3, 1, cache=cache)
    path = tmp_path / "r3_deg1.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CacheError):
        compute_tau(3, 1, cache=TauCache(tmp_path))


@pytest.mark.parametrize("modes", [None, "plain-powers"])
def test_cache_of_another_mode_construction_raises(tmp_path, modes):
    # entries written before the construction tag, or by another
    # construction, would silently reuse pieces the current modes disagree with
    compute_tau(3, 1, cache=TauCache(tmp_path))
    path = tmp_path / "r3_deg1.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["modes"] == MODE_CONSTRUCTION
    if modes is None:
        del doc["modes"]
    else:
        doc["modes"] = modes
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CacheError, match="W-mode construction"):
        compute_tau(3, 1, cache=TauCache(tmp_path))


def test_failed_store_keeps_previous_entry(tmp_path, monkeypatch):
    # the entry is written to a temporary file and renamed into place, so a
    # write that dies halfway leaves the old entry and no partial file
    cache, layout = TauCache(tmp_path), solver._layout(3, 1)
    piece = compute_tau(3, 1, cache=cache).packed(1)
    before = sorted(p.name for p in tmp_path.iterdir())
    entry = cache.path(3, 1).read_bytes()

    def torn_write(head, key, value, written=serialize._document_chunks):
        # the entry's head and the start of its piece reach the file, then the disk fills
        chunks = written(head, key, value)
        yield next(chunks)
        yield next(chunks)
        raise OSError("disk full")

    monkeypatch.setattr(serialize, "_document_chunks", torn_write)
    with pytest.raises(OSError, match="disk full"):
        cache.store(3, 1, ({key: 2 * num for key, num in piece[0].items()}, piece[1]), layout)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert cache.path(3, 1).read_bytes() == entry
    assert TauCache(tmp_path).load(3, 1, layout) == piece


def test_mislabeled_cache_raises(tmp_path):
    cache = TauCache(tmp_path)
    compute_tau(3, 1, cache=cache)
    good = (tmp_path / "r3_deg1.json").read_text(encoding="utf-8")
    doc = json.loads(good)
    doc["degree"] = 2
    (tmp_path / "r3_deg2.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CacheError):
        compute_tau(3, 2, cache=TauCache(tmp_path))


def test_exponential_path_r2_matches_recursion():
    # with a single raiser the exponential formula is the recursion
    for D in (0, 1, 2, 3, 4):
        assert compute_tau_exponential(2, D).pieces == compute_tau(2, D).pieces


def test_exponential_path_r3_low_degrees():
    rec = compute_tau(3, 2)
    exp = compute_tau_exponential(3, 2)
    assert exp.pieces == rec.pieces
    assert compute_tau_exponential(3, 0).pieces == (one(3),)


def test_exponential_path_divergence_is_visible_not_fatal():
    # the raisers do not commute at depth three, so the two paths part ways;
    # both still return well-formed expansions
    rec = compute_tau(3, 3)
    exp = compute_tau_exponential(3, 3)
    assert exp.pieces[:3] == rec.pieces[:3]
    diff = sub(exp.pieces[3], rec.pieces[3])
    assert not is_zero(diff)
    assert is_homogeneous(diff, 12)
