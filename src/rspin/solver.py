"""Graded computation of the tau expansion.

The degree-j piece satisfies j * tau_j = sum_l A_l tau_{j-l} over the
degree raisers l = 1 .. r-1, starting from tau_0 = 1, so the pieces are
computed bottom-up, one kernel call per raiser, each piece packed
(tpoly.Packed) with offset and power of s both j, over one layout of top
weight D*(r+1), _layout(r, D), which the TauExpansion holds (shift,
fields) for every reader.  A_l maps x * s^(j-l) to x * r^(-2l) * s^j, so
each degree is one int accumulator.  A finished piece stays packed,
graded once as it is made.  A TauExpansion holds packed pieces only: a
caller's TPolynomial is graded and packed once when the expansion is
built, and the pieces view builds polynomials afresh on each read, the
only polynomials the package builds (scalar.unpacked).  raise_step is
the one raise step of the package: the recursion, the exponential formula
(compute_tau_exponential) and verify's commutators all call it.

An optional cache (serialize.TauCache) stores each finished piece a solve
computes, keyed by (r, degree), and loads pieces packed over the solve's
layout; entries are graded on load and a corrupt or version-mismatched
entry raises instead of being recomputed silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContractError
from .tpoly import Packed, check_piece, exponent_fields, kernel_rows, pack_piece, packed_rows, summed, unpack_exponents

if TYPE_CHECKING:
    from .scalar import TPolynomial
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
    each TPolynomial piece once (tpoly.pack_piece), over _layout(r, D),
    whose shift and fields it keeps; a tuple piece must be shaped as a
    Packed (_check_packed), and is taken as graded, over that layout, where
    the package made it; any other piece is refused.  held is the
    expansion's own list of Packed pieces, by degree, and never changes;
    pieces is a tuple of their polynomials, built on each read."""

    __slots__ = ("r", "max_degree", "held", "shift", "fields")

    def __init__(self, r: int, max_degree: int, pieces):
        shift, fields = _layout(r, max_degree)
        held = list(pieces)
        if len(held) != max_degree + 1:
            raise ContractError(f"expected {max_degree + 1} pieces, found {len(held)}")
        for j, piece in enumerate(held):
            if type(piece) is tuple:
                _check_packed(j, piece, fields)
            else:
                from .scalar import TPolynomial  # only a caller's polynomial loads the view

                if not isinstance(piece, TPolynomial):
                    raise ContractError(f"piece {j} is a {type(piece).__name__}, not a TPolynomial or a packed tuple")
                held[j] = pack_piece(r, j, piece, shift)
        if held[0] != ({0: 1}, 1):
            raise ContractError("degree-0 piece must equal 1")
        self.r, self.max_degree, self.held, self.shift, self.fields = r, max_degree, held, shift, fields

    @property
    def pieces(self) -> tuple[TPolynomial, ...]:
        from .scalar import unpacked  # the view's module, loaded only by its readers

        return tuple(unpacked(self.r, j, piece, self.fields) for j, piece in enumerate(self.held))

    def packed(self, j: int) -> Packed:
        """Piece j, packed."""
        return self.held[j]


def _check_packed(j: int, piece: tuple, fields: list[tuple[int, int, int]]) -> None:
    """Refuse (ContractError) a tuple not ({int key >= 0 in fields: nonzero int}, int den >= 1); no key is decoded."""
    nums, den = piece if len(piece) == 2 else (None, None)
    if type(nums) is not dict:
        why = "not a ({key: num}, den) pair"
    elif type(den) is not int or den < 1:
        why = f"den {den!r} is not an integer >= 1"
    elif not set(map(type, nums)) <= {int} or min(nums, default=0) < 0:
        why = f"key {next(k for k in nums if type(k) is not int or k < 0)!r} is not an integer >= 0"
    elif max(nums, default=0) >> (top := sum(width for _, width, _ in fields)):
        why = f"key {max(nums)} is past the layout's {top} bits"
    elif not set(map(type, nums.values())) <= {int} or 0 in nums.values():
        why = f"numerator {next(c for c in nums.values() if type(c) is not int or not c)!r} is not a nonzero integer"
    else:
        return
    raise ContractError(f"packed piece {j} is malformed: {why}")


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
    computed one is graded by check_piece as it is made, from its
    kernel_rows when the next raises read them, and then stored; a cached
    one comes from cache.load graded."""
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
            if j < max_degree:  # the next raises read the rows
                rows[j] = kernel_rows(piece, fields)
                exps = (e for _, e, _ in rows[j][1])
            else:
                exps = (unpack_exponents(k, fields) for k in piece[0])
            check_piece(r, j, packed_rows(exps))
            if cache is not None:
                cache.store(r, j, piece, layout)
        pieces.append(piece)
        rows.pop(j - r + 1, None)  # no later raiser reads it
    return TauExpansion(r, max_degree, pieces)


def compute_tau_exponential(r: int, max_degree: int) -> TauExpansion:
    """The graded truncation of exp(sum_l A_l / l) applied to 1, each piece
    graded by check_piece as compute_tau grades its own.

    Agrees with compute_tau exactly when the raisers commute; any
    disagreement is evidence against that conjecture, so this path is a
    diagnostic (verify.check_exponential_agreement), never the authority.
    """
    shift, fields = _layout(r, max_degree)
    acc: dict[int, list[Packed]] = {0: [({0: 1}, 1)]}
    power: dict[int, Packed] = {0: ({0: 1}, 1)}
    # power holds B^n/n! . 1 by degree, B = sum_l A_l / l; its lowest degree
    # is n, so n ranges over 1 .. max_degree only.
    for n in range(1, max_degree + 1):
        nxt: dict[int, list[Packed]] = {}
        for d, packed in power.items():
            if d < max_degree:  # the top degree raises no further
                rows = kernel_rows(packed, fields)
                for l in range(1, min(r, max_degree - d + 1)):
                    nums, den = raise_step(r, l, d + l, rows, shift)
                    nxt.setdefault(d + l, []).append((nums, den * l))
        power = {d: summed(parts, n) for d, parts in nxt.items()}
        for d, packed in power.items():
            acc.setdefault(d, []).append(packed)
    pieces = [summed(acc.get(j, [])) for j in range(max_degree + 1)]
    for j, (nums, _) in enumerate(pieces):
        check_piece(r, j, packed_rows(unpack_exponents(key, fields) for key in nums))
    return TauExpansion(r, max_degree, pieces)
