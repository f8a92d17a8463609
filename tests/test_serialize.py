"""Canonical serialization, parsing with validation, and export formats."""

import argparse
import hashlib
import json
import re
import time
from fractions import Fraction

import pytest

from rspin import (
    CacheError,
    CorrelatorRecord,
    FORMAT_VERSION,
    Insertion,
    ParseError,
    TauCache,
    TauExpansion,
    TPolynomial,
    compute_tau,
    extract_correlators,
    parse_tau,
    serialize_tau,
)
from rspin.serialize import records_to_csv, records_to_json, reports_to_json
from rspin.verify import CHECKS, CheckReport, Residual, check_commutators, check_exponential_agreement, run_checks
from rspin.serialize import ENTRY_VERSION, MODE_CONSTRUCTION
from rspin.solver import _layout
from rspin.tpoly import exponent_fields, kernel_rows, packed_key

from helpers import (
    _dump, _entry_dump, add, entry_obj, make_monomial, monomial, one, poly_to_obj, qs, report_to_obj, with_piece, zero,
)


def test_round_trip_identity():
    tau = compute_tau(3, 2)
    data = serialize_tau(tau)
    back = parse_tau(data)
    assert back.r == tau.r
    assert back.max_degree == tau.max_degree
    assert back.pieces == tau.pieces


def test_serialize_is_a_fixpoint():
    tau = compute_tau(2, 3)
    once = serialize_tau(tau)
    assert serialize_tau(parse_tau(once)) == once


def _dumped_tau(tau):
    """The tau document through json.dumps, the bytes serialize_tau must
    write."""
    pieces = [poly_to_obj(p) for p in tau.pieces]
    return _dump(
        {"format_version": FORMAT_VERSION, "r": tau.r, "max_degree": tau.max_degree, "s_legend": "s^2 = -r", "pieces": pieces}
    )


@pytest.mark.parametrize("r, degree", [(2, 0), (3, 1), (4, 6), (5, 4)])
def test_direct_writer_matches_json_dumps(r, degree):
    tau = compute_tau(r, degree)
    data = serialize_tau(tau)
    assert data == _dumped_tau(tau)
    assert serialize_tau(parse_tau(data)) == data


def _hand_built_residual():
    """A residual at r = 3 the checks never give: degree -3, so an odd power
    of s and a unit (-3)^-2, one weight 32 on up to 12 variables, so
    two-digit negative lam exponents, two-digit indices and exponents,
    negative numerators and a long denominator."""
    shift, fields = exponent_fields(3, 32)
    exps = [((1, 10), (11, 2)), ((2, 16),), ((5, 2), (11, 2)), ((32, 1),), ((1, 6), (13, 2))]
    nums = [-7, 123456789 * 10**30, 5, -40, 1]
    return Residual(3, -3, ({packed_key(e, shift): x for e, x in zip(exps, nums)}, 3 * 123456789 * 10**30), fields)


def _graded_hand_built_piece():
    """A tau_5 at r = 3 that the solver never writes, graded: a negative
    lam exponent, two-digit indices and exponents, negative numerators and
    long denominators."""
    return TPolynomial(
        3,
        {
            make_monomial(-6, {1: 10, 10: 1}): qs(0, Fraction(-7, 123456789)),
            make_monomial(4, {20: 1}): qs(0, Fraction(5, 3)),
            make_monomial(2, {5: 2, 10: 1}): qs(0, Fraction(-1, 10**30)),
        },
    )


def test_direct_writer_on_zero_and_hand_built_pieces():
    # pieces the solver never writes serialize as json.dumps would write
    # them: a zero piece is an empty list.  So does a hand-built residual
    # at a negative degree, through the same renderer
    tau = TauExpansion(3, 5, [one(3), *[zero(3)] * 4, _graded_hand_built_piece()])
    assert serialize_tau(tau) == _dumped_tau(tau)
    assert b'"pieces": [\n  [\n   {' in serialize_tau(tau) and b",\n  [],\n" in serialize_tau(tau)
    report = CheckReport("hand-built", "fail", [("hand-built", _hand_built_residual())], {})
    assert reports_to_json([report]) == _dump([report_to_obj(report)])
    assert b'"lambda": -15,' in reports_to_json([report]) and b'"a": "0"' in reports_to_json([report])


def test_cache_entries_match_json_dumps(tmp_path):
    # each entry is json.dumps(indent=1) of its header and den, with each
    # term [num, n1, e1, ...] on one line, as json.dumps writes a list; the
    # terms and den are worked out here from the piece's polynomial
    cache, layout = TauCache(tmp_path), _layout(4, 4)
    tau = compute_tau(4, 4)
    packed = [tau.packed(degree) for degree in range(5)]
    for degree, piece in enumerate(packed):
        cache.store(4, degree, kernel_rows(piece, layout[1]))
        doc = {"format_version": ENTRY_VERSION, "modes": MODE_CONSTRUCTION, "r": 4, "degree": degree}
        text = cache.path(4, degree).read_bytes()
        assert text == _entry_dump({**doc, **entry_obj(tau.pieces[degree], degree)})
        assert json.loads(text)["den"] == piece[1]
    for degree in range(5):
        assert cache.load(4, degree, layout) == packed[degree]


def test_cold_compute_renders_each_piece_once(tmp_path, monkeypatch):
    # a cache entry is written from integers, never through the document's
    # renderer, so cold or warm the document renders each piece once, and
    # every byte is json.dumps' in both runs
    from rspin import serialize
    from rspin.cli import main

    rendered, render = [], serialize._packed_json

    def counting(r, j, piece, fields, pad):
        rendered.append(id(piece))
        return render(r, j, piece, fields, pad)

    monkeypatch.setattr(serialize, "_packed_json", counting)
    expected = _dumped_tau(compute_tau(4, 5))
    for run in ("cold", "warm"):
        rendered.clear()
        out = tmp_path / f"{run}.json"
        assert main(["compute", "--r", "4", "--degree", "5", "--cache-dir", str(tmp_path / "c"), "--out", str(out)]) == 0
        assert len(rendered) == len(set(rendered)) == 6
        assert out.read_bytes() == expected


def test_exponent_pairs_are_shared(tmp_path):
    # a computed, a parsed and a cache-loaded piece hold one tuple per
    # distinct (index, exponent) pair
    cache = TauCache(tmp_path)
    computed = compute_tau(4, 5, cache=cache)
    loaded = compute_tau(4, 5, cache=cache)
    assert all(a is not b for a, b in zip(computed.pieces[1:], loaded.pieces[1:]))
    parsed = parse_tau(serialize_tau(computed))
    pairs = [pair for tau in (computed, loaded, parsed) for p in tau.pieces for mono in p.terms for pair in mono.exps]
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs) // 10


def test_writing_a_tau_document_never_holds_it_whole(tmp_path):
    # the CLI writes the chunks of tau_chunks as they come: writing the
    # (3, 10) document, about 1.6 MB, peaks below half its length.  A
    # whole-document join alone reaches the length, and so nearly does one
    # chunk per piece, the top piece being half the document
    import tracemalloc
    from rspin.cli import _write
    from rspin.serialize import tau_chunks

    tau = compute_tau(3, 10)
    length = len(serialize_tau(tau))
    out = tmp_path / "tau.json"
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _write(argparse.Namespace(out=str(out)), tau_chunks(tau))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == length
    assert peak < length / 2


def _stored(kind, tmp_path):
    """A stored (3, 2) object, the name of its piece list, a reader of its
    text and what the reader must give: a tau document read by parse_tau,
    or the degree-2 cache entry read by TauCache.load."""
    tau, layout = compute_tau(3, 2), _layout(3, 2)
    if kind == "document":
        return json.loads(serialize_tau(tau)), "pieces", parse_tau, tau.pieces
    cache = TauCache(tmp_path)
    cache.store(3, 2, kernel_rows(tau.packed(2), layout[1]))
    path = cache.path(3, 2)

    def load(text):
        path.write_text(text, encoding="utf-8", newline="")
        return cache.load(3, 2, layout)

    return json.loads(path.read_text(encoding="utf-8")), "piece", load, tau.packed(2)


@pytest.mark.parametrize("kind", ["document", "entry"])
@pytest.mark.parametrize(
    "layout",
    [
        lambda doc: json.dumps(doc),
        lambda doc: json.dumps(doc, separators=(",", ":")),
        lambda doc: json.dumps(doc, indent="\t"),
        lambda doc: json.dumps(doc, indent=1).replace("\n", "\r\n") + "\r\n",
        lambda doc: "\n \t" + json.dumps(doc, indent=" \t") + "\t\n",
    ],
    ids=["one-line", "compact", "tabs", "crlf", "padded"],
)
def test_reader_takes_any_json_whitespace(kind, layout, tmp_path):
    doc, _, read, expected = _stored(kind, tmp_path)
    value = read(layout(doc))
    assert (value.pieces if kind == "document" else value) == expected


def _refused(read, text, message):
    with pytest.raises((ParseError, CacheError)) as info:
        read(text)
    assert message in str(info.value)


def test_cache_entry_names_an_unknown_header_field(tmp_path):
    # a header field store never writes is refused by name, as parse_tau
    # refuses one in a tau document
    doc, key, read, _ = _stored("entry", tmp_path)
    head = {name: value for name, value in doc.items() if name != key}
    _refused(read, json.dumps({**head, "note": 1, key: doc[key]}), 'unknown field "note"')


@pytest.mark.parametrize("kind", ["document", "entry"])
def test_reader_refuses_data_after_the_object(kind, tmp_path):
    doc, _, read, _ = _stored(kind, tmp_path)
    text = json.dumps(doc, indent=1)
    for extra in ("x", "{}", "\n}", "\n0", "\n\u00a0"):
        _refused(read, text + extra, "invalid JSON: Extra data")


@pytest.mark.parametrize("kind", ["document", "entry"])
def test_reader_refuses_a_repeated_field(kind, tmp_path):
    doc, key, read, _ = _stored(kind, tmp_path)
    text = json.dumps(doc)
    # a header field, the second time before the piece list
    _refused(read, text.replace('"r": 3', '"r": 3, "r": 3', 1), 'field "r" appears twice (at r)')
    # a second piece list, after the first
    pieces = json.dumps(doc[key])
    _refused(read, text[:-1] + f', "{key}": {pieces}}}', f'"{key}" must be the last field (at {key})')


@pytest.mark.parametrize("kind", ["document", "entry"])
def test_reader_reads_the_header_before_the_piece_list(kind, tmp_path):
    doc, key, read, _ = _stored(kind, tmp_path)
    pieces, head = doc.pop(key), doc
    # first, the header unread: its fields after the list are not read
    expected = FORMAT_VERSION if kind == "document" else ENTRY_VERSION
    _refused(read, json.dumps({key: pieces, **head}), f"unsupported format_version None, expected {expected}")
    # after the format version, before the rest of the header
    version, rest = {"format_version": expected}, {k: v for k, v in head.items() if k != "format_version"}
    missing = "r must be an integer >= 2, got None (at r)" if kind == "document" else "W-mode construction None"
    _refused(read, json.dumps({**version, key: pieces, **rest}), missing)
    # a field after the list, even one the header does not know
    _refused(read, json.dumps({**head, key: pieces, "note": 1}), f'"{key}" must be the last field (at {key})')


def test_reader_refuses_extra_pieces_before_reading_them(monkeypatch):
    # a document of max_degree 1 with three pieces: the third is refused
    # unread, so the syntax error in it is never reached
    from rspin import scalar

    doc = json.loads(serialize_tau(compute_tau(3, 2)))
    doc["max_degree"] = 1
    doc["pieces"][2] = "EXTRA"
    text = json.dumps(doc, indent=1).replace('"EXTRA"', "[{broken")
    read, calls = scalar._read_piece, []
    monkeypatch.setattr(scalar, "_read_piece", lambda *args: calls.append(args[1]) or read(*args))
    with pytest.raises(ParseError, match=r"^pieces must be a list of 2 polynomials \(at pieces\)$"):
        parse_tau(text)
    assert calls == [0, 1]
    # and too few, or none at all
    for pieces in (doc["pieces"][:1], [], {}, None):
        with pytest.raises(ParseError, match=r"^pieces must be a list of 2 polynomials \(at pieces\)$"):
            parse_tau(json.dumps({**doc, "pieces": pieces}))
    del doc["pieces"]
    with pytest.raises(ParseError, match=r"^pieces must be a list of 2 polynomials \(at pieces\)$"):
        parse_tau(json.dumps(doc))


def test_an_entry_gone_before_it_is_opened_is_a_miss(tmp_path, monkeypatch):
    # the entry is removed as load opens it, as by a concurrent clean-up:
    # load opens each entry once and takes its absence for a miss, so
    # compute computes the piece again and stores it
    import pathlib

    cache = TauCache(tmp_path)
    expected = compute_tau(3, 3, cache=cache)
    gone, opened, real_open = cache.path(3, 2), [], pathlib.Path.open

    def removing_open(path, mode="r", *args, **kwargs):
        if path == gone and "r" in mode:
            opened.append(path)
            path.unlink(missing_ok=True)
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", removing_open)
    assert cache.load(3, 2, _layout(3, 3)) is None
    assert opened == [gone] and not gone.exists()
    stored, store = [], cache.store
    monkeypatch.setattr(cache, "store", lambda r, j, rows: stored.append(j) or store(r, j, rows))
    assert compute_tau(3, 3, cache=cache).pieces == expected.pieces
    assert stored == [2] and gone.exists()


def _load_peak(read):
    """The tracemalloc peak of read(), in bytes."""
    import tracemalloc

    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_stored_piece_never_holds_it_parsed_whole(tmp_path):
    # the reader decodes one term at a time: loading the (4, 6) degree-6
    # entry, about 40 KB and 904 terms, peaks near 3.8x its byte size, the
    # text and the finished piece included; the same reader on its piece
    # list decoded whole peaks near 7.7x.  Parsing the (4, 6) document, about
    # 1 KB per term held whole, likewise stays below 3x its length
    cache = TauCache(tmp_path)
    data = serialize_tau(compute_tau(4, 6, cache=cache))
    size = cache.path(4, 6).stat().st_size
    assert _load_peak(lambda: TauCache(tmp_path).load(4, 6, _layout(4, 6))) < 4.5 * size
    assert _load_peak(lambda: parse_tau(data)) < 3 * len(data)


def test_document_shape_for_trivial_run():
    doc = json.loads(serialize_tau(compute_tau(3, 0)))
    assert doc["format_version"] == 1
    assert doc["r"] == 3
    assert doc["max_degree"] == 0
    assert doc["s_legend"] == "s^2 = -r"
    assert doc["pieces"] == [
        [{"monomial": {"lambda": 0, "t": []}, "coeff": {"a": "1", "b": "0"}}]
    ]


def test_parse_rejects_version_mismatch():
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["format_version"] = 2
    with pytest.raises(ParseError):
        parse_tau(json.dumps(doc))


def test_parse_refuses_a_header_it_does_not_write():
    # the header is the one tau_chunks writes, whose s_legend records the
    # relation s^2 = -r: any other legend, a missing one, and any field the
    # writer does not know are refused, each named, while every document the
    # package writes reads back to the same bytes
    for r, degree in ((2, 3), (3, 1), (4, 4), (6, 2)):
        text = serialize_tau(compute_tau(r, degree))
        assert serialize_tau(parse_tau(text)) == text
    doc = json.loads(text)
    head, pieces = {k: v for k, v in doc.items() if k != "pieces"}, {"pieces": doc["pieces"]}
    legend = 's_legend must be "s^2 = -r", got {!r} (at s_legend)'
    refused = (
        ({**head, "s_legend": "s^2 = r", **pieces}, legend.format("s^2 = r")),
        ({**head, "s_legend": " s^2 = -r", **pieces}, legend.format(" s^2 = -r")),
        ({**head, "s_legend": 17, **pieces}, legend.format(17)),
        ({**head, "s_legend": None, **pieces}, legend.format(None)),
        ({k: v for k, v in doc.items() if k != "s_legend"}, legend.format(None)),
        ({**head, "note": "x", **pieces}, 'unknown field "note" (at note)'),
        ({"comment": 1, **head, "note": "x", **pieces}, 'unknown field "comment" (at comment)'),
        ({**head, "s_legend": "s^2 = r", "note": "x", **pieces}, 'unknown field "note" (at note)'),
    )
    for edited, message in refused:
        with pytest.raises(ParseError) as info:
            parse_tau(json.dumps(edited, indent=1))
        assert str(info.value) == message


@pytest.mark.parametrize("r, max_degree, field", [(3, 10**9, "max_degree"), (10**9, 1, "r")])
def test_parse_refuses_a_header_heavier_than_the_document(r, max_degree, field, monkeypatch):
    # the layout of a solve to max_degree costs O(max_degree*(r+1)) time and
    # memory, and every document the package writes is longer than that top
    # weight: a header that passes it is refused before the layout is built
    from rspin import serialize

    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc.update(r=r, max_degree=max_degree)
    text = json.dumps(doc)
    message = f"top weight max_degree*(r+1) = {max_degree * (r + 1)} exceeds the document's {len(text)} characters"
    monkeypatch.setattr(serialize, "_layout", lambda *args: pytest.fail(f"layout {args} built"))
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"^{re.escape(message)} \\(at {field}\\)$"):
        parse_tau(text)
    assert time.perf_counter() - start < 0.1


def test_parse_rejects_invalid_index():
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][1][0]["monomial"]["t"] = [[3, 4]]  # index divisible by r
    message = (
        "piece 1 has monomial T3^4*lam^-2 off the grading: "
        "T3^4: indices ascend, are positive, not divisible by 3; exponents >= 1 (at pieces[1])"
    )
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_tau(json.dumps(doc))


@pytest.mark.parametrize("kind", ["document", "entry"])
def test_reader_refuses_an_index_with_no_field(kind, tmp_path):
    # s*T1*T3/lam is graded as a degree-1 term but for its index: T3 has no
    # field in the layout, and the grading refuses the term before it is packed
    doc, key, read, _ = _stored(kind, tmp_path)
    if kind == "document":
        doc[key][1].append({"monomial": {"lambda": -1, "t": [[1, 1], [3, 1]]}, "coeff": {"a": "0", "b": "1"}})
    else:
        doc[key].append([1, 1, 1, 3, 1])
    with pytest.raises((ParseError, CacheError)) as info:
        read(json.dumps(doc))
    assert "off the grading" in str(info.value) and "indices ascend" in str(info.value)


@pytest.mark.parametrize("t", [[[2, 1], [1, 1]], [[1, 1], [1, 1]], [[1, 0], [2, 1]]], ids=["unsorted", "repeated", "zero"])
def test_parse_rejects_non_canonical_monomial(t):
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][1][0]["monomial"]["t"] = t
    with pytest.raises(ParseError, match=r"off the grading.*indices ascend.*pieces\[1\]"):
        parse_tau(json.dumps(doc))


def test_parse_rejects_inhomogeneous_piece():
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][1].append(
        {"monomial": {"lambda": 0, "t": [[1, 1]]}, "coeff": {"a": "1", "b": "0"}}
    )
    with pytest.raises(ParseError):
        parse_tau(json.dumps(doc))


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_tau(b"{broken")
    with pytest.raises(ParseError):
        parse_tau(json.dumps([1, 2, 3]))
    for data in (b"\xff", b"\xff\xfe{", "null", "3", '"x"', "[" * 100_000):
        with pytest.raises(ParseError):
            parse_tau(data)
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][0][0]["coeff"]["a"] = "1/0"
    with pytest.raises(ParseError):
        parse_tau(json.dumps(doc))
    # an integer past Python's 4300-digit limit on converting strings to int
    text = serialize_tau(compute_tau(3, 1)).decode()
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_tau(text.replace('"lambda": -2', '"lambda": -' + "2" * 5000, 1))
    # only the spelling str(Fraction) writes: each of these equals the value
    # it replaces, or (1e5000, 5001 digits) stays on the grading
    spellings = [(0, "a", text) for text in ("1/1", "2/2", "+1", " 1", "1.0", "1e0")]
    spellings += [(0, "b", "-0"), (0, "b", "0/5"), (1, "b", "1e5000")]
    # "0" itself is read without the regex; every other spelling of zero is not
    spellings += [(0, "b", text) for text in ("00", "0/1", "+0", "-00", "0 ")]
    for piece, part, text in spellings:
        doc = json.loads(serialize_tau(compute_tau(3, 1)))
        doc["pieces"][piece][0]["coeff"][part] = text
        with pytest.raises(ParseError, match="bad fraction"):
            parse_tau(json.dumps(doc))
    # JSON true and false equal 1 and 0 in Python; each edit below matches
    # the value it replaces, so only refusing booleans rejects it
    edits = (
        lambda doc: doc.update(format_version=True),
        lambda doc: doc.update(max_degree=True),
        lambda doc: doc["pieces"][0][0]["monomial"].update({"lambda": False}),
        lambda doc: doc["pieces"][1][1]["monomial"]["t"][0].__setitem__(1, True),
        lambda doc: doc["pieces"][1][0]["monomial"]["t"][0].__setitem__(0, True),
    )
    for edit in edits:
        doc = json.loads(serialize_tau(compute_tau(3, 1)))
        edit(doc)
        with pytest.raises(ParseError):
            parse_tau(json.dumps(doc))
    # off the grading: lam 0 on the three variables of T1^2 T2 in degree 1
    # (even and >= -2, but not 1 - 3), and a rational part in degree 1
    graded = (
        lambda doc: doc["pieces"][1][0]["monomial"].update({"lambda": 0}),
        lambda doc: doc["pieces"][1][0]["coeff"].update(a="1"),
    )
    for edit in graded:
        doc = json.loads(serialize_tau(compute_tau(3, 1)))
        edit(doc)
        with pytest.raises(ParseError, match="variables|outside"):
            parse_tau(json.dumps(doc))
    # graded, but tau_0 is 2: only the structure check refuses it
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][0][0]["coeff"]["a"] = "2"
    with pytest.raises(ParseError, match=r"degree-0 piece must equal 1 \(at pieces\)"):
        parse_tau(json.dumps(doc))


def test_parse_rejects_zero_or_duplicate_terms():
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    piece = doc["pieces"][1]
    piece.append(piece[0])
    with pytest.raises(ParseError):
        parse_tau(json.dumps(doc))
    doc = json.loads(serialize_tau(compute_tau(3, 1)))
    doc["pieces"][1][0]["coeff"] = {"a": "0", "b": "0"}
    with pytest.raises(ParseError):
        parse_tau(json.dumps(doc))


def test_records_json_format():
    records = [
        CorrelatorRecord(2, (Insertion(2, 1), Insertion(2, 1)), Fraction(17, 4320))
    ]
    payload = json.loads(records_to_json(records))
    assert payload == [
        {"genus": 2, "insertions": [[2, 1], [2, 1]], "value": "17/4320"}
    ]


@pytest.mark.parametrize("r, degree", [(3, 0), (3, 7), (4, 4)])
def test_records_writer_matches_json_dumps(r, degree):
    # and hand-built records the extraction never gives: no insertions,
    # two-digit levels and labels, negative and long values
    records = extract_correlators(compute_tau(r, degree)) + [
        CorrelatorRecord(3, (), Fraction(-1, 10**25)),
        CorrelatorRecord(0, (Insertion(12, 10), Insertion(12, 10)), Fraction(-7)),
    ]
    objs = [
        {"genus": rec.genus, "insertions": [[ins.m, ins.a] for ins in rec.insertions], "value": str(rec.value)}
        for rec in records
    ]
    assert records_to_json(records) == _dump(objs)
    assert records_to_json([]) == _dump([])


def test_records_csv_format():
    records = extract_correlators(compute_tau(3, 1))
    text = records_to_csv(records).decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "genus,insertions,value"
    assert "0,0:0;0:0;0:1,1" in lines
    assert "1,1:0,1/12" in lines


def test_reports_json_shape():
    (report,) = run_checks(compute_tau(3, 1), ["wconstraints"])
    payload = json.loads(reports_to_json([report]))
    assert payload[0]["check_name"] == "wconstraints"
    assert payload[0]["status"] == "pass"
    assert payload[0]["residuals"] == []
    assert "timing_ms" not in payload[0]
    assert payload[0]["details"]["vacuous"] >= 0


def test_serialized_residuals_round_trip_through_poly_format():
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 1, add(tau.pieces[1], monomial(3, qs(0, 1), 0, {4: 1})))  # s*T4 keeps the grading
    (report,) = run_checks(tau, ["wconstraints"])
    payload = json.loads(reports_to_json([report]))
    assert payload[0]["status"] == "fail"
    assert payload[0]["residuals"][0]["poly"]


@pytest.mark.parametrize("r, degree", [(3, 2), (3, 6), (4, 4)])
def test_reports_writer_matches_json_dumps(r, degree):
    # passing reports, failing ones (the graded s*lam^-2*T_1^2*T_{r-1} on
    # degree 1 also breaks the extraction: its square leaves genus -1 in the
    # log), the two diagnostics, and a hand-built report with characters to
    # escape and nested details
    tau = compute_tau(r, degree)
    failing = with_piece(tau, 1, add(tau.pieces[1], monomial(r, qs(0, 1), -2, {1: 2, r - 1: 1})))
    reports = [report for t in (tau, failing) for report in run_checks(t, CHECKS)]
    reports += [check_commutators(tau), check_exponential_agreement(tau)]
    reports.append(
        CheckReport(
            'odd "name"\u00e9',
            "fail",
            [("label\n\t\\", Residual(r, 0, ({0: 1}, 1), []))],
            {"nested": {"a": [1, [2]], "b": {}}, "none": None},
        )
    )
    labels = [label for rep in reports for label, _ in rep.residuals]
    assert any(label.startswith("extraction: ") for label in labels)
    assert {rep.status for rep in reports} == {"pass", "fail", "diagnostic"}
    for rep in reports:
        assert reports_to_json([rep]) == _dump([report_to_obj(rep)])
    assert reports_to_json(reports) == _dump([report_to_obj(rep) for rep in reports])
    assert reports_to_json([]) == _dump([])


# sha256 of reports_to_json(run_checks(t, CHECKS)) on the tampered expansions
# of test_report_bytes_are_pinned, taken when each residual was rendered from
# a TPolynomial
TAMPERED_REPORT_DIGESTS = {
    (3, 4): "c4699f73acddb385a6f7d04fd94d38f0d911a1cfca5bde8c0a2e1405a078ae99",
    (4, 3): "65f93125cfdcd9040d13f7b4245bdc4d4e76ad8f5fd83b044451da0213cc0d06",
}


@pytest.mark.parametrize("r, degree", sorted(TAMPERED_REPORT_DIGESTS))
def test_report_bytes_are_pinned(r, degree):
    # at (3, 4), s*lam^-2*T_1^2*T_2 on degree 1 breaks constraint equations
    # down to offset d - k + 1 = -1, the translation and scaling operators
    # and the extraction; at (4, 3), 5/7*T_1*T_9 on degree 2 breaks the
    # string and dilaton equations on the extracted records.  Between them
    # the reports carry every kind of residual
    tau = compute_tau(r, degree)
    if r == 3:
        tau = with_piece(tau, 1, add(tau.pieces[1], monomial(3, qs(0, 1), -2, {1: 2, 2: 1})))
    else:
        tau = with_piece(tau, 2, add(tau.pieces[2], monomial(4, qs(Fraction(5, 7)), 0, {1: 1, 9: 1})))
    reports = list(run_checks(tau, CHECKS))
    labels = [label for rep in reports for label, _ in rep.residuals]
    offsets = [int(d) - int(k) + 1 for k, d in (re.fullmatch(r"k=(\d+) m=-?\d+ degree=(\d+)", x).groups() for x in labels if x[:2] == "k=")]
    kinds = {
        "negative offset": min(offsets) < 0,
        "translation or scaling": any(x.startswith(("translation operator", "scaling operator")) for x in labels),
        "record identity": any(x.startswith(("string g=", "dilaton g=")) for x in labels),
        "extraction": any(x.startswith("extraction: ") for x in labels),
    }
    assert kinds == {
        "negative offset": r == 3, "translation or scaling": True, "record identity": r == 4, "extraction": r == 3,
    }
    data = reports_to_json(reports)
    assert data == _dump([report_to_obj(rep) for rep in reports])
    assert hashlib.sha256(data).hexdigest() == TAMPERED_REPORT_DIGESTS[(r, degree)]
