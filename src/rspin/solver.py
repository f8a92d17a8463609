"""Graded computation of the tau expansion.

The degree-j piece satisfies j * tau_j = sum_l A_l tau_{j-l} over the
degree raisers l = 1 .. r-1, starting from tau_0 = 1, so the pieces are
computed bottom-up, one kernel call per raiser, each piece packed
(tpoly.Packed) with offset and power of s both j, over one layout of top
weight D*(r+1).  A_l maps x * s^(j-l) to x * r^(-2l) * s^j, so each
degree is one int accumulator.  A finished piece stays packed, graded
once as it is made; it becomes a TPolynomial only when
TauExpansion.pieces is read.  raise_step is the one raise step of the
package: the recursion and verify's commutators and exponential formula
(exponential_pieces) all call it.

An optional cache (serialize.TauCache) stores finished pieces packed,
keyed by (r, degree), and loads them packed over the solve's layout;
entries are graded on load and a corrupt or version-mismatched entry
raises instead of being recomputed silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContractError
from .tpoly import (
    Packed, TPolynomial, check_piece, exponent_fields, kernel_rows, off_grade, pack_piece, packed_rows, summed,
    unpack_exponents, unpacked,
)

if TYPE_CHECKING:
    from .serialize import TauCache

__all__ = [
    "TauExpansion",
    "compute_tau",
    "compute_tau_exponential",
]


class TauExpansion:
    """Graded pieces tau_0 .. tau_D of the partition function for one r.
    held lists each piece by degree: a Packed over _layout(r, D), graded
    where the package made it (a solve, a reader), or a TPolynomial a caller
    handed over, graded once on first use and packed once by packed(j).
    pieces, built on first read by tpoly.unpacked, rules from then on: a
    piece put into it is graded and packed afresh."""

    __slots__ = ("r", "max_degree", "held", "_known")

    def __init__(self, r: int, max_degree: int, pieces: list):
        self.r, self.max_degree, self.held, self._known = r, max_degree, pieces, {}

    @property
    def pieces(self) -> list[TPolynomial]:
        held = self.held
        for j, piece in enumerate(held):
            if type(piece) is tuple:
                held[j] = unpacked(self.r, j, j, piece, _layout(self.r, self.max_degree)[1])
                self._known[j] = [held[j], [], piece]
        return held

    def faults(self, j: int) -> list:
        """off_grade(r, j, piece j), listed once per piece."""
        piece = self.held[j]
        if type(piece) is tuple:
            return []
        known = self._known.get(j)
        if known is None or known[0] is not piece:
            known = self._known[j] = [piece, list(off_grade(self.r, j, piece)), None]
        return known[1]

    def packed(self, j: int) -> Packed:
        """Piece j packed, refused off the grading (check_piece, ContractError)."""
        piece = self.held[j]
        if type(piece) is tuple:
            return piece
        faults, known = self.faults(j), self._known[j]
        if known[2] is None:
            known[2] = pack_piece(self.r, j, piece, _layout(self.r, self.max_degree)[0], faults)
        return known[2]

    def validate(self) -> list[Packed]:
        """Check one piece per degree, tau_0 = 1, and tpoly.check_piece, the one
        grading, on every tau_j (ContractError); the pieces, packed."""
        if self.max_degree < 0:
            raise ContractError("max_degree must be nonnegative")
        if len(self.held) != self.max_degree + 1:
            raise ContractError(f"expected {self.max_degree + 1} pieces, found {len(self.held)}")
        if self.packed(0) != ({0: 1}, 1):
            raise ContractError("degree-0 piece must equal 1")
        return [self.packed(j) for j in range(len(self.held))]


def _layout(r: int, max_degree: int) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """The one packed layout of a solve to max_degree, of top weight
    max_degree*(r+1); refuses (ContractError) r < 2 and max_degree < 0."""
    if r < 2:
        raise ContractError(f"r must be >= 2, got {r}")
    if max_degree < 0:
        raise ContractError(f"max_degree must be >= 0, got {max_degree}")
    return exponent_fields(r, max_degree * (r + 1))


def raise_step(r: int, l: int, j: int, rows: tuple[int, list], shift: dict[int, int]) -> Packed:
    """A_l on the (den, kernel rows) of a degree j - l piece: the degree-j
    piece in the s^j convention, as A_l maps x * s^(j-l) to
    x * r^(-2l) * s^j.  walgebra is imported here, so a solve served
    wholly from the cache never loads it."""
    from .walgebra import raise_packed

    den, kernel = rows
    nums, den_t = raise_packed(r, l, kernel, j, shift)
    return nums, den * den_t * r ** (2 * l)


def compute_tau(r: int, max_degree: int, cache: TauCache | None = None) -> TauExpansion:
    """Compute the graded pieces up to max_degree by the degree recursion.

    Exact, and deterministic (byte-identical canonical serialization)
    regardless of cache hits.  Every piece is packed over _layout(r, D): a
    computed one is graded by check_piece as it is made, and stored as it is;
    a cached one comes from cache.load graded."""
    layout = shift, fields = _layout(r, max_degree)
    pieces: list[Packed] = [({0: 1}, 1)]
    rows: dict[int, tuple[int, list]] = {}  # degree -> kernel_rows of its piece
    for j in range(1, max_degree + 1):
        piece = cache.load(r, j, layout) if cache is not None else None
        if piece is None:
            for i in range(max(0, j - r + 1), j):
                if i not in rows:  # tau_0, or a cached piece
                    rows[i] = kernel_rows(pieces[i], fields)
            piece = summed([raise_step(r, l, j, rows[j - l], shift) for l in range(1, min(r - 1, j) + 1)], j)
            rows.pop(j - r + 1, None)  # raised for the last time
            if j < max_degree:  # no raiser reads the top degree's rows
                rows[j] = kernel_rows(piece, fields)
            exps = (e for _, e, _ in rows[j][1]) if j < max_degree else (unpack_exponents(k, fields) for k in piece[0])
            check_piece(r, j, packed_rows(exps))
            if cache is not None:
                cache.store(r, j, piece, layout)
        pieces.append(piece)
        rows.pop(j - r + 1, None)  # no later raiser reads it
    return TauExpansion(r, max_degree, pieces)


def compute_tau_exponential(r: int, max_degree: int) -> TauExpansion:
    """verify.exponential_pieces as a validated TauExpansion, each piece
    graded by check_piece as compute_tau grades its own."""
    from .verify import exponential_pieces  # the diagnostic, beside the check that reads it

    _, fields = _layout(r, max_degree)
    pieces = exponential_pieces(r, max_degree)
    for j, (nums, _) in enumerate(pieces):
        check_piece(r, j, packed_rows(unpack_exponents(key, fields) for key in nums))
    tau = TauExpansion(r, max_degree, pieces)
    tau.validate()
    return tau
