"""Canonical file formats and the on-disk piece cache.

Every document is JSON with a fixed key order and canonically ordered
terms, so serialization is a pure function of the value: two equal values
always produce byte-identical files.  Scalars are written as reduced
fraction strings with the sign on the numerator, and only that spelling is
read back; the s-legend field in tau documents records the defining
relation of the quadratic generator.

A tau document and a cache entry share one reader, and a stored piece is
read in one pass that checks its JSON and grades it once by the package's
one rule (tpoly.check_piece), dropping each term's parsed JSON as it goes.

Each document has one writer, a generator of str chunks: tau_chunks,
records_json_chunks and records_csv_chunks.  A chunk is whole terms or
records, joined until it reaches _CHUNK (64 Ki) characters, so a caller
that writes each chunk as it comes never holds the document whole.
serialize_tau, records_to_json and records_to_csv are those chunks joined
and encoded, so both ways give the same bytes.  A term is rendered from a
template already moved to its depth, once per run: a cache entry is
written in such chunks, and tau_chunks moves the very chunks the cache
kept one level deeper.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, starmap
from math import gcd

from .correlator import CorrelatorRecord
from .errors import CacheError, ContractError, ParseError
from .scalar import QScalar
from .solver import TauExpansion
from .tpoly import TMonomial, TPolynomial, check_piece, shared_pair
from .verify import CheckReport
from .walgebra import MODE_CONSTRUCTION

FORMAT_VERSION = 1

__all__ = [
    "FORMAT_VERSION",
    "TauCache",
    "parse_tau",
    "poly_to_obj",
    "records_csv_chunks",
    "records_json_chunks",
    "records_to_csv",
    "records_to_json",
    "reports_to_json",
    "serialize_tau",
    "tau_chunks",
]


def _is_int(x) -> bool:
    """A JSON integer: true and false parse to bool, an int subclass."""
    return type(x) is int


# What str(Fraction) writes of a nonzero value: digit strings without a
# leading zero, the sign on the numerator.  The value is built from the two
# ints, so no exponent or decimal form (Fraction() would expand "1e10000000"
# for seconds) is ever read.
_FRACTION = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_ZERO = Fraction(0)


def _frac_parse(text, where: str) -> Fraction:
    """The value of a fraction string as str(Fraction) writes it: reduced,
    the sign on the numerator, no "-0" and no "/1"; any other spelling is
    refused."""
    if text == "0":  # half the components of a graded piece
        return _ZERO
    if not isinstance(text, str):
        raise ParseError(f"expected a fraction string, got {type(text).__name__}", where)
    match = _FRACTION.fullmatch(text)
    if match and match[2] != "1":
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # over 4300 digits
            pass
        else:
            if gcd(num, den) == 1:
                return Fraction(num, den)
    raise ParseError(f"bad fraction {text!r}: not a reduced p or p/q", where)


def poly_to_obj(poly: TPolynomial) -> list:
    return [
        {
            "monomial": {"lambda": mono.lambda_exp, "t": [[n, e] for n, e in mono.exps]},
            "coeff": {"a": str(c.a), "b": str(c.b)},
        }
        for mono, c in poly.canonical_terms()
    ]


def _fields(obj, names: tuple[str, str], where: str) -> tuple:
    """The two values of a JSON object with exactly these fields."""
    if not isinstance(obj, dict) or obj.keys() != set(names):
        raise ParseError(f'expected an object with fields "{names[0]}" and "{names[1]}"', where)
    return obj[names[0]], obj[names[1]]


def _read_piece(r: int, j: int, obj, where: str) -> TPolynomial:
    """The stored tau_j at where, read in one pass: the JSON shape, the
    canonical fraction spelling, no monomial twice and no zero coefficient;
    then check_piece grades it once.  Each item of obj is set to None once
    its term is read, and each exponent pair is the shared_pair.  Any fault
    is a ParseError."""
    if not isinstance(obj, list):
        raise ParseError("polynomial must be a list of terms", where)
    terms = {}
    for idx, item in enumerate(obj):
        obj[idx] = None  # item is the last reference to the term's JSON
        loc = f"{where}[{idx}]"
        mono, coeff = _fields(item, ("monomial", "coeff"), loc)
        lam, pairs = _fields(mono, ("lambda", "t"), loc + ".monomial")
        if not (_is_int(lam) and isinstance(pairs, list)) or not all(
            isinstance(pair, list) and len(pair) == 2 and _is_int(pair[0]) and _is_int(pair[1]) for pair in pairs
        ):
            raise ParseError("lambda must be an integer, t a list of [index, exponent] integers", loc + ".monomial")
        a, b = _fields(coeff, ("a", "b"), loc + ".coeff")
        key = TMonomial(lam, tuple(map(shared_pair, map(tuple, pairs))))
        value = QScalar(_frac_parse(a, loc + ".coeff.a"), _frac_parse(b, loc + ".coeff.b"))
        if key in terms or value.is_zero:
            raise ParseError("duplicate monomial" if key in terms else "stored coefficient must be nonzero", loc)
        terms[key] = value
    piece = TPolynomial._raw(r, terms)
    try:
        check_piece(r, j, piece)
    except ContractError as exc:
        raise ParseError(str(exc), where) from None
    return piece


def _read_document(data: bytes | str) -> dict:
    """The JSON object of a document or cache entry, of this FORMAT_VERSION."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and over-long integers
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"document must be a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    return doc


_CHUNK = 1 << 16  # characters a writer's chunk reaches before it is yielded


def _batched(chunks):
    """The chunks joined into chunks of at least _CHUNK characters, the last
    one maybe shorter."""
    batch, length = [], 0
    for chunk in chunks:
        batch.append(chunk)
        length += len(chunk)
        if length >= _CHUNK:
            yield "".join(batch)
            batch, length = [], 0
    if batch:
        yield "".join(batch)


def _block_chunks(items, pad: str, brackets: str = "[]"):
    """A JSON list, or object of "key": value items, laid out as json.dumps(indent=1)
    does: the items one level deeper, the closing bracket after pad.  Each item is
    an iterable of str chunks, yielded in turn between the separators."""
    lead, sep = f"{brackets[0]}\n{pad} ", f",\n{pad} "
    for item in items:
        yield lead
        yield from item
        lead = sep
    yield f"\n{pad}{brackets[1]}" if lead is sep else brackets


def _json_block(items, pad: str, brackets: str = "[]") -> str:
    """_block_chunks of items each already written as one str, joined."""
    return "".join(_block_chunks(zip(items), pad, brackets))


@lru_cache(maxsize=None)
def _term_template(count: int, pad: str) -> str:
    """The % template of a term moved to pad: lambda, count (index, exponent), a, b."""
    t = _json_block(["[\n     %d,\n     %d\n    ]"] * count, "   ")
    term = '{\n  "monomial": {\n   "lambda": %d,\n   "t": ' + t + '\n  },\n  "coeff": {\n   "a": "%s",\n   "b": "%s"\n  }\n }'
    return term.replace("\n", "\n" + pad)


def _poly_json(poly: TPolynomial, pad: str):
    """_block_chunks of poly_to_obj(poly) at pad, one chunk per term, each from its
    _term_template: ints and fraction strings need no escaping and hold no newline."""
    terms = poly.canonical_terms()
    return _block_chunks(
        ((_term_template(len(m.exps), pad) % (m.lambda_exp, *chain.from_iterable(m.exps), c.a, c.b),) for m, c in terms),
        pad,
    )


def _document_chunks(head: dict, key: str, value):
    """json.dumps(indent=1) of the object of head's fields and then key, plus a
    final newline: head's values given already written, then value's chunks."""
    yield "".join(["{\n", *(f' "{name}": {text},\n' for name, text in head.items()), f' "{key}": '])
    yield from value
    yield "\n}\n"


def tau_chunks(tau: TauExpansion, cache: TauCache | None = None):
    """The canonical tau document as str chunks: json.dumps(indent=1) on the
    document of poly_to_obj pieces, plus a newline.  A piece that is the one
    cache stored last for its degree takes its text out of cache.kept:
    rendered once."""
    kept = cache.kept if cache is not None else {}

    def piece_chunks(j: int, piece: TPolynomial):
        stored = kept.pop((tau.r, j), None)
        if stored and stored[0] is piece:
            return (part.replace("\n", "\n ") for part in stored[1])
        return _poly_json(piece, "  ")

    head = {"format_version": FORMAT_VERSION, "r": tau.r, "max_degree": tau.max_degree, "s_legend": '"s^2 = -r"'}
    pieces = _block_chunks(starmap(piece_chunks, enumerate(tau.pieces)), " ")
    return _batched(_document_chunks(head, "pieces", pieces))


def serialize_tau(tau: TauExpansion, cache: TauCache | None = None) -> bytes:
    """tau_chunks joined: the canonical bytes, a fixpoint of parse-then-serialize."""
    return "".join(tau_chunks(tau, cache)).encode("utf-8")


def parse_tau(data: bytes | str) -> TauExpansion:
    """Parse a tau document, every piece read by _read_piece, and check its
    structure: one piece per degree, tau_0 = 1."""
    doc = _read_document(data)
    r, max_degree = doc.get("r"), doc.get("max_degree")
    if not _is_int(r) or r < 2:
        raise ParseError(f"r must be an integer >= 2, got {r!r}", "r")
    if not _is_int(max_degree) or max_degree < 0:
        raise ParseError(f"max_degree must be a nonnegative integer, got {max_degree!r}", "max_degree")
    pieces_obj = doc.get("pieces")
    if not isinstance(pieces_obj, list) or len(pieces_obj) != max_degree + 1:
        raise ParseError(f"pieces must be a list of {max_degree + 1} polynomials", "pieces")
    tau = TauExpansion(r, max_degree, [_read_piece(r, j, p, f"pieces[{j}]") for j, p in enumerate(pieces_obj)])
    try:
        tau._check_structure()
    except ContractError as exc:
        raise ParseError(str(exc), "pieces") from None
    return tau


# -- correlators ---------------------------------------------------------


def _record_json(rec: CorrelatorRecord) -> str:
    """One record of records_json_chunks, at depth 0."""
    insertions = _json_block([f"[\n    {ins.m},\n    {ins.a}\n   ]" for ins in rec.insertions], "  ")
    return f'{{\n  "genus": {rec.genus},\n  "insertions": {insertions},\n  "value": "{rec.value}"\n }}'


def records_json_chunks(records: list[CorrelatorRecord]):
    """json.dumps(indent=1) of [{"genus", "insertions": [[m, a], ...],
    "value"}, ...] plus a newline, as str chunks, written directly as
    tau_chunks writes its pieces."""
    return _batched(chain(_block_chunks(zip(map(_record_json, records)), ""), ("\n",)))


def records_to_json(records: list[CorrelatorRecord]) -> bytes:
    """records_json_chunks joined."""
    return "".join(records_json_chunks(records)).encode("utf-8")


def records_csv_chunks(records: list[CorrelatorRecord]):
    """The CSV table genus,insertions,value, one row per record with its
    insertions as m:a joined by ";", as str chunks of whole rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["genus", "insertions", "value"])
    for rec in records:
        writer.writerow([rec.genus, ";".join(f"{ins.m}:{ins.a}" for ins in rec.insertions), str(rec.value)])
        if buf.tell() >= _CHUNK:
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()


def records_to_csv(records: list[CorrelatorRecord]) -> bytes:
    """records_csv_chunks joined."""
    return "".join(records_csv_chunks(records)).encode("utf-8")


# -- check reports --------------------------------------------------------


def reports_to_json(reports: list[CheckReport]) -> bytes:
    """json.dumps(indent=1) of [{"check_name", "status", "residuals":
    [{"label", "poly": poly_to_obj}, ...], "details"}, ...] plus a newline,
    written directly as serialize_tau writes its pieces; a details value
    is json.dumps(indent=1) of it, moved to its depth."""
    dumps = json.dumps
    items = []
    for rep in reports:
        residuals = [
            _json_block([f'"label": {dumps(label)}', '"poly": ' + "".join(_poly_json(poly, "    "))], "   ", "{}")
            for label, poly in rep.residuals
        ]
        details = [f"{dumps(key)}: " + dumps(v, indent=1).replace("\n", "\n   ") for key, v in rep.details.items()]
        fields = [
            f'"check_name": {dumps(rep.check_name)}',
            f'"status": {dumps(rep.status)}',
            '"residuals": ' + _json_block(residuals, "  "),
            '"details": ' + _json_block(details, "  ", "{}"),
        ]
        items.append(_json_block(fields, " ", "{}"))
    return (_json_block(items, "") + "\n").encode("utf-8")


# -- piece cache -----------------------------------------------------------


class TauCache:
    """Directory-backed store of finished pieces, one JSON file per
    (r, degree).  Each entry records the W-mode construction that built it
    (walgebra.MODE_CONSTRUCTION).  Corrupt or version-mismatched entries,
    and entries of another or no recorded construction, raise CacheError;
    they are never silently recomputed or reused.  Stored pieces and their
    texts, as the chunks written, wait in kept for tau_chunks."""

    def __init__(self, directory):
        from pathlib import Path

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.kept: dict = {}  # (r, degree) -> (piece, chunks of its text)

    def path(self, r: int, degree: int):
        return self.directory / f"r{r}_deg{degree}.json"

    def load(self, r: int, degree: int) -> TPolynomial | None:
        """The cached tau_degree, read by _read_piece, or None if none."""
        path = self.path(r, degree)
        if not path.exists():
            return None
        try:
            doc = _read_document(path.read_text(encoding="utf-8"))
            modes, label = doc.get("modes"), (doc.get("r"), doc.get("degree"))
            if modes != MODE_CONSTRUCTION:
                raise CacheError(f"cache entry {path}: W-mode construction {modes!r}, not {MODE_CONSTRUCTION!r}")
            if not all(_is_int(x) for x in label) or label != (r, degree):
                raise CacheError(f"cache entry {path} labeled (r={doc.get('r')}, degree={doc.get('degree')})")
            return _read_piece(r, degree, doc.get("piece"), "piece")
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            raise CacheError(f"unusable cache entry {path}: {exc}") from None

    def store(self, r: int, degree: int, piece: TPolynomial) -> None:
        chunks = list(_batched(_poly_json(piece, " ")))
        self.kept[(r, degree)] = (piece, chunks)
        head = {"format_version": FORMAT_VERSION, "modes": json.dumps(MODE_CONSTRUCTION), "r": r, "degree": degree}
        # Write a temporary file beside the entry, then rename it into place,
        # so an interrupted store leaves the previous entry (or none) intact.
        path = self.path(r, degree)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8", newline="") as handle:
                handle.writelines(_document_chunks(head, "piece", chunks))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
