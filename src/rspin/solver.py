"""Graded computation of the tau expansion.

The degree-j piece satisfies j * tau_j = sum_l A_l tau_{j-l} over the
degree raisers l = 1 .. r-1, starting from tau_0 = 1, so the pieces are
computed bottom-up, one kernel call per raiser, each piece packed
(tpoly.Packed) with offset and power of s both j, over one layout of top
weight D*(r+1).  A_l maps x * s^(j-l) to x * r^(-2l) * s^j, so each
degree is one int accumulator.  A finished piece stays packed, graded
once as it is made.  A TauExpansion holds packed pieces only: a caller's
TPolynomial is graded and packed once when the expansion is built, and
the pieces view builds polynomials afresh on each read.  raise_step is
the one raise step of the package: the recursion and verify's
commutators and exponential formula (exponential_pieces) all call it.

An optional cache (serialize.TauCache) stores finished pieces from the
rows the solve unpacks anyway, keyed by (r, degree), and loads them
packed over the solve's layout;
entries are graded on load and a corrupt or version-mismatched entry
raises instead of being recomputed silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContractError
from .tpoly import (
    Packed, TPolynomial, check_piece, exponent_fields, kernel_rows, pack_piece, packed_rows, summed, unpack_exponents,
    unpacked,
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

    Construction is the one gate: it refuses (ContractError) r < 2, D < 0, a
    piece count other than D + 1 and tau_0 != 1, and it grades and packs
    each TPolynomial piece once (tpoly.pack_piece), over _layout(r, D); a
    Packed piece is taken as it is, graded where the package made it.  held
    is the expansion's own list of Packed pieces, by degree, and never
    changes; pieces is a tuple of their polynomials, built on each read."""

    __slots__ = ("r", "max_degree", "held")

    def __init__(self, r: int, max_degree: int, pieces):
        shift = _layout(r, max_degree)[0]
        held = list(pieces)
        if len(held) != max_degree + 1:
            raise ContractError(f"expected {max_degree + 1} pieces, found {len(held)}")
        for j, piece in enumerate(held):
            if type(piece) is not tuple:
                held[j] = pack_piece(r, j, piece, shift)
        if held[0] != ({0: 1}, 1):
            raise ContractError("degree-0 piece must equal 1")
        self.r, self.max_degree, self.held = r, max_degree, held

    @property
    def pieces(self) -> tuple[TPolynomial, ...]:
        fields = _layout(self.r, self.max_degree)[1]
        return tuple(unpacked(self.r, j, j, piece, fields) for j, piece in enumerate(self.held))

    def packed(self, j: int) -> Packed:
        """Piece j, packed."""
        return self.held[j]


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
    computed one is graded by check_piece as it is made, and stored from its
    kernel_rows, which the grading and the next raises read too; a cached one
    comes from cache.load graded."""
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
            if j < max_degree or cache is not None:  # the next raises read the rows, and so does the cache
                rows[j] = kernel_rows(piece, fields)
                exps = (e for _, e, _ in rows[j][1])
            else:
                exps = (unpack_exponents(k, fields) for k in piece[0])
            check_piece(r, j, packed_rows(exps))
            if cache is not None:
                cache.store(r, j, rows[j])
        pieces.append(piece)
        rows.pop(j - r + 1, None)  # no later raiser reads it
    return TauExpansion(r, max_degree, pieces)


def compute_tau_exponential(r: int, max_degree: int) -> TauExpansion:
    """verify.exponential_pieces as a TauExpansion, each piece graded by
    check_piece as compute_tau grades its own."""
    from .verify import exponential_pieces  # the diagnostic, beside the check that reads it

    _, fields = _layout(r, max_degree)
    pieces = exponential_pieces(r, max_degree)
    for j, (nums, _) in enumerate(pieces):
        check_piece(r, j, packed_rows(unpack_exponents(key, fields) for key in nums))
    return TauExpansion(r, max_degree, pieces)
