"""Canonical file formats and the on-disk piece cache.

Every document is JSON with a fixed key order and canonically ordered
terms, so serialization is a pure function of the value: two equal values
always produce byte-identical files.  Scalars are written as reduced
fraction strings with the sign on the numerator, and only that spelling is
read back; a tau document's s_legend records the defining relation of the
quadratic generator (S_LEGEND), and parse_tau refuses any other header.

A cache entry (TauCache) is not a tau document: it holds the piece as the
solve packs it (tpoly.Packed), at its own ENTRY_VERSION.  After the header
comes "den", the piece's one denominator, and then "piece", one term
[num, n1, e1, n2, e2, ...] per line in canonical order, each term
num/den * s^j * lam^(j-N) * prod T_n^e_n: integers only, no fraction text.

A tau document and a cache entry share one reader, which decodes the text
one value at a time (JSONDecoder.raw_decode): the header fields, then each
term of the piece list, checked as it is decoded, by scalar._read_piece
(fraction text) for a document and by _read_entry for an entry; each piece
is graded once by the package's one rule (tpoly.check_piece), and packed
over the layout of the solve that reads it (solver._layout) only as it
passes.  So the header comes first, the piece list ("piece" or "pieces")
is the last field, no field appears twice, and only whitespace follows the
object, as both writers write them.

Each document has one writer, a generator of str chunks: tau_chunks,
records_json_chunks and records_csv_chunks.  A chunk is whole terms or
records, joined until it reaches _CHUNK (64 Ki) characters, so a caller
that writes each chunk as it comes never holds the document whole.
serialize_tau, records_to_json and records_to_csv are those chunks joined
and encoded, so both ways give the same bytes.  Every polynomial the
package writes is packed, and _packed_json renders it, on integers, each
term from a template already moved to its depth: a piece a TauExpansion
holds, and a verify.Residual in a check report, whose offset and power of
s may be negative.  A cache entry is written in such chunks too,
each term from its _entry_template; the tau document renders every piece
itself, once, whether the solve computed it or loaded it.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import chain, count, islice, starmap
from math import gcd
from typing import TYPE_CHECKING

from .errors import CacheError, ContractError, ParseError
from .solver import TauExpansion, _layout
from .tpoly import Packed, canonical_rows, check_piece, packed_key, packed_rows, shared_pair

if TYPE_CHECKING:
    from .correlator import CorrelatorRecord
    from .verify import CheckReport

FORMAT_VERSION = 1
S_LEGEND = "s^2 = -r"  # a tau document's record of the defining relation
ENTRY_VERSION = 2  # of a cache entry, which holds integers only

# Tag of the mode construction (walgebra), stored with cached pieces:
# pieces built by another construction are refused rather than reused.
MODE_CONSTRUCTION = "twisted-w-gl-r/2"

__all__ = [
    "FORMAT_VERSION",
    "TauCache",
    "parse_tau",
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


_decode = json.JSONDecoder().raw_decode
_space = json.decoder.WHITESPACE.match


class _Reader:
    """A JSON text decoded one value at a time, each past its whitespace."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text, self.pos = text, _space(text).end()

    def fail(self, msg: str):
        raise ParseError(f"invalid JSON: {json.JSONDecodeError(msg, self.text, self.pos)}")

    def take(self, char: str) -> bool:
        """Whether char comes next; if it does, the reader moves past it."""
        found = self.text.startswith(char, self.pos)
        if found:
            self.pos = _space(self.text, self.pos + 1).end()
        return found

    def value(self):
        try:
            value, end = _decode(self.text, self.pos)
        except (ValueError, RecursionError) as exc:  # also over-long integers
            raise ParseError(f"invalid JSON: {exc}") from None
        self.pos = _space(self.text, end).end()
        return value

    def items(self, close: str = "]"):
        """Past an opening bracket: 0, 1, ... before each item, which the
        caller reads, until close."""
        if not self.take(close):
            for idx in count():
                yield idx
                if not self.take(","):
                    if not self.take(close):
                        self.fail("Expecting ',' delimiter")
                    return

    def end(self, key: str = "") -> None:
        """Past the value of key, which must be the last field, or past the
        whole object: nothing but whitespace is left."""
        if key and not self.take("}"):
            if self.take(","):
                raise ParseError(f'"{key}" must be the last field', key)
            self.fail("Expecting ',' delimiter")
        if self.pos != len(self.text):
            self.fail("Extra data")


def _open(data: bytes | str, key: str, expected: int = FORMAT_VERSION) -> tuple[_Reader, dict]:
    """A reader at the value of key in a document's JSON object, and the
    fields before it, which must hold the expected format_version (a tau
    document's, or ENTRY_VERSION) and no field twice.  Without key, the
    reader is at the end of the text."""
    try:
        reader = _Reader(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not reader.take("{"):
        doc = reader.value()
        reader.end()
        raise ParseError(f"document must be a JSON object, not {type(doc).__name__}")
    head = {}
    for _ in reader.items("}"):
        if not reader.text.startswith('"', reader.pos):
            reader.fail("Expecting property name enclosed in double quotes")
        name = reader.value()
        if not reader.take(":"):
            reader.fail("Expecting ':' delimiter")
        if name == key:
            break
        if name in head:
            raise ParseError(f'field "{name}" appears twice', name)
        head[name] = reader.value()
    else:
        reader.end()
    version = head.get("format_version")
    if not _is_int(version) or version != expected:
        raise ParseError(f"unsupported format_version {version!r}, expected {expected}")
    return reader, head


_INT = {int}


def _read_entry(r: int, j: int, den, reader: _Reader, shift: dict[int, int]) -> Packed:
    """The tau_j of a cache entry over den, its terms next in reader, read
    one at a time: den a positive integer, each term an odd-length list of
    integers [num, n1, e1, ...] with num nonzero.  check_piece grades each
    term as it is read, and only a graded term is packed over the layout
    shift, where a monomial given twice meets its own key.  Last, den must be
    reduced against the numerators.  Any fault is a ParseError."""
    if not _is_int(den) or den < 1:
        raise ParseError(f"den must be a positive integer, got {den!r}", "den")
    if not reader.take("["):
        raise ParseError("piece must be a list of terms", "piece")
    nums = {}

    def monomials():
        # check_piece grades each row before it asks for the next: so a term
        # is packed, on that next request, only once it has been graded
        for idx in reader.items():
            term = reader.value()
            if type(term) is not list or not len(term) % 2 or set(map(type, term)) != _INT:
                raise ParseError("a term must be a list [num, n1, e1, n2, e2, ...] of integers", f"piece[{idx}]")
            if not term[0]:
                raise ParseError("numerator must be nonzero", f"piece[{idx}]")
            exps = tuple([shared_pair(pair) for pair in zip(term[1::2], term[2::2])])
            yield exps
            key = packed_key(exps, shift)
            if key in nums:
                raise ParseError("duplicate monomial", f"piece[{idx}]")
            nums[key] = term[0]

    try:
        check_piece(r, j, packed_rows(monomials()))
    except ContractError as exc:
        raise ParseError(str(exc), "piece") from None
    if gcd(den, *nums.values()) != 1:
        raise ParseError(f"den {den} shares a factor with every numerator: not reduced", "den")
    return nums, den


_CHUNK = 1 << 16  # characters a writer's chunk reaches before it is yielded
_LINES = 64  # terms _joined joins into one chunk


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


def _joined(lines, pad: str):
    """Items for _block_chunks(..., pad) from an iterator of nonempty lines:
    the lines joined _LINES at a time with the block's separator, so that a
    long block does not pass through the chunk writers line by line."""
    sep = f",\n{pad} "
    return zip(iter(lambda: sep.join(islice(lines, _LINES)), ""))


def _json_block(items, pad: str, brackets: str = "[]") -> str:
    """_block_chunks of items each already written as one str, joined."""
    return "".join(_block_chunks(zip(items), pad, brackets))


@lru_cache(maxsize=None)
def _term_template(count: int, pad: str) -> str:
    """The % template of a term moved to pad: lambda, count (index, exponent), a, b."""
    t = _json_block(["[\n     %d,\n     %d\n    ]"] * count, "   ")
    term = '{\n  "monomial": {\n   "lambda": %d,\n   "t": ' + t + '\n  },\n  "coeff": {\n   "a": "%s",\n   "b": "%s"\n  }\n }'
    return term.replace("\n", "\n" + pad)


def _packed_json(r: int, j: int, piece: Packed, fields, pad: str):
    """_block_chunks of the terms {"monomial": {"lambda", "t": [[n, e], ...]},
    "coeff": {"a", "b"}} of a packed piece at offset and power of s j, pad
    deep: its tpoly.canonical_rows, one weight and so canonical order, the
    coefficient num/den * s^j = num/den * (-r)^(j // 2) * s^(j mod 2), that
    unit in integers (for j < 0 its sign on each num, r^-(j // 2) on the den);
    each term is reduced by one gcd and written straight into _term_template
    (no value needs escaping), the terms _joined."""
    (nums, den), half, odd = piece, j // 2, j % 2
    unit, den = ((-r) ** half, den) if half >= 0 else ((-1) ** -half, den * r**-half)

    def term(lam, exps, num):
        num *= unit
        div = gcd(num, den)
        x = f"{num // div}" if div == den else f"{num // div}/{den // div}"
        return _term_template(len(exps), pad) % (lam, *chain.from_iterable(exps), *(("0", x) if odd else (x, "0")))

    return _block_chunks(_joined(starmap(term, canonical_rows(j, nums, fields)), pad), pad)


@lru_cache(maxsize=None)
def _entry_template(count: int) -> str:
    """The % template of a cache entry's term on count variables: num, then count (index, exponent)."""
    return "[" + ", ".join(["%d"] * (2 * count + 1)) + "]"


def _document_chunks(head: dict, key: str, value):
    """json.dumps(indent=1) of the object of head's fields and then key, plus a
    final newline: head's values given already written, then value's chunks."""
    yield "".join(["{\n", *(f' "{name}": {text},\n' for name, text in head.items()), f' "{key}": '])
    yield from value
    yield "\n}\n"


def tau_chunks(tau: TauExpansion):
    """The canonical tau document as str chunks: json.dumps(indent=1) on the
    document of its pieces, plus a newline, each piece rendered once by
    _packed_json."""
    _, fields = _layout(tau.r, tau.max_degree)
    head = {"format_version": FORMAT_VERSION, "r": tau.r, "max_degree": tau.max_degree, "s_legend": f'"{S_LEGEND}"'}
    pieces = _block_chunks((_packed_json(tau.r, j, piece, fields, "  ") for j, piece in enumerate(tau.held)), " ")
    return _batched(_document_chunks(head, "pieces", pieces))


def serialize_tau(tau: TauExpansion) -> bytes:
    """tau_chunks joined: the canonical bytes, a fixpoint of parse-then-serialize."""
    return "".join(tau_chunks(tau)).encode("utf-8")


def parse_tau(data: bytes | str) -> TauExpansion:
    """Parse a tau document, every piece read, graded and packed over
    solver._layout(r, max_degree) by scalar._read_piece as it comes, and check
    its structure: tau_chunks's header fields only, one piece per degree, tau_0
    = 1.  A header whose top weight max_degree*(r+1) exceeds the document's
    length is refused before the layout is built."""
    from .scalar import _read_piece  # the fraction-text reader: compute never loads it

    reader, head = _open(data, "pieces")
    r, max_degree = head.get("r"), head.get("max_degree")
    if not _is_int(r) or r < 2:
        raise ParseError(f"r must be an integer >= 2, got {r!r}", "r")
    if not _is_int(max_degree) or max_degree < 0:
        raise ParseError(f"max_degree must be a nonnegative integer, got {max_degree!r}", "max_degree")
    for name in head:  # in document order, so the first unknown field is named
        if name not in ("format_version", "r", "max_degree", "s_legend"):
            raise ParseError(f'unknown field "{name}"', name)
    if head.get("s_legend") != S_LEGEND:
        raise ParseError(f's_legend must be "{S_LEGEND}", got {head.get("s_legend")!r}', "s_legend")
    # the layout costs O(weight); a written document has >= 146 characters per unit of weight
    weight, length = max_degree * (r + 1), len(reader.text)
    if weight > length:
        field = "r" if r + 1 > length else "max_degree"
        raise ParseError(f"top weight max_degree*(r+1) = {weight} exceeds the document's {length} characters", field)
    wrong = ParseError(f"pieces must be a list of {max_degree + 1} polynomials", "pieces")
    if not reader.take("["):
        raise wrong
    pieces, shift = [], _layout(r, max_degree)[0]
    for j in reader.items():
        if j > max_degree:  # refused before the extra piece is read
            raise wrong
        pieces.append(_read_piece(r, j, reader, f"pieces[{j}]", shift))
    if len(pieces) <= max_degree:
        raise wrong
    reader.end("pieces")
    if pieces[0] != ({0: 1}, 1):
        raise ParseError("degree-0 piece must equal 1", "pieces")
    return TauExpansion(r, max_degree, pieces)


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
    import csv
    import io

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
    [{"label", "poly"}, ...], "details"}, ...] plus a newline, written
    directly as serialize_tau writes its pieces, each residual by
    _packed_json, whose first arguments a verify.Residual holds in order;
    a details value is json.dumps(indent=1) of it, moved to its depth."""
    dumps = json.dumps
    items = []
    for rep in reports:
        residuals = [
            _json_block([f'"label": {dumps(label)}', '"poly": ' + "".join(_packed_json(*res, "    "))], "   ", "{}")
            for label, res in rep.residuals
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
    (r, degree), each the packed piece (see the module docstring) with
    the W-mode construction that built it (MODE_CONSTRUCTION).  An entry's
    bytes are a function of the piece alone, whatever solve stored it.
    Corrupt or version-mismatched entries, entries with a header field
    store does not write, and entries of another or no recorded
    construction, raise CacheError; they are never silently
    recomputed or reused.  An entry whose values were altered but that
    keeps the grading is read as it stands."""

    def __init__(self, directory):
        from pathlib import Path

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, r: int, degree: int):
        return self.directory / f"r{r}_deg{degree}.json"

    def load(self, r: int, degree: int, layout) -> Packed | None:
        """The cached tau_degree, read by _read_entry and packed over layout
        (solver._layout of the solve that reads it), or None if there is no
        entry: the file is opened once, and an entry gone by then is a miss.
        A returned piece has passed the grading: compute_tau grades it no more."""
        path = self.path(r, degree)
        try:
            reader, head = _open(path.read_text(encoding="utf-8"), "piece", ENTRY_VERSION)
            for name in head:  # in document order, so the first unknown field is named
                if name not in ("format_version", "modes", "r", "degree", "den"):
                    raise CacheError(f'cache entry {path}: unknown field "{name}"')
            modes, label = head.get("modes"), (head.get("r"), head.get("degree"))
            if modes != MODE_CONSTRUCTION:
                raise CacheError(f"cache entry {path}: W-mode construction {modes!r}, not {MODE_CONSTRUCTION!r}")
            if not all(_is_int(x) for x in label) or label != (r, degree):
                raise CacheError(f"cache entry {path} labeled (r={label[0]}, degree={label[1]})")
            piece = _read_entry(r, degree, head.get("den"), reader, layout[0])
            reader.end("piece")
            return piece
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            raise CacheError(f"unusable cache entry {path}: {exc}") from None

    def store(self, r: int, degree: int, rows: tuple[int, list]) -> None:
        """Write tau_degree from its (den, [(key, exps, num), ...]), as
        tpoly.kernel_rows unpacks it: den, then each term from its
        _entry_template, in canonical order."""
        den, kernel = rows
        terms = sorted([(degree - sum(e for _, e in exps), exps, num) for _, exps, num in kernel])
        lines = (_entry_template(len(exps)) % (num, *chain.from_iterable(exps)) for _, exps, num in terms)
        head = {
            "format_version": ENTRY_VERSION, "modes": json.dumps(MODE_CONSTRUCTION), "r": r, "degree": degree, "den": den,
        }
        # Write a temporary file beside the entry, then rename it into place,
        # so an interrupted store leaves the previous entry (or none) intact.
        path = self.path(r, degree)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8", newline="") as handle:
                handle.writelines(_document_chunks(head, "piece", _block_chunks(_joined(lines, " "), " ")))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
