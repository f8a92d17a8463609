"""Graded computation of the tau expansion.

The degree-j piece satisfies j * tau_j = sum_l A_l tau_{j-l} over the
degree raisers l = 1 .. r-1, starting from tau_0 = 1, so the pieces are
computed bottom-up, one kernel call per raiser.  A degree-j piece is
graded and packed by tpoly.pack_piece, with offset and power of s both j,
over one layout of top weight D*(r+1).  A_l maps x * s^(j-l) to
x * r^(-2l) * s^j, so each degree is one int accumulator, and a finished
piece becomes a TPolynomial once.  That map is raise_step, the one raise
step of the package: the recursion, the exponential formula and verify's
commutators all call it.  The exponential formula is summed packed over
the same layout (exponential_pieces), and verify compares it packed.

An optional cache stores finished pieces keyed by (r, degree); cache
entries are validated on load and a corrupt or version-mismatched entry
raises instead of being recomputed silently.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

from .errors import ContractError
from .tpoly import (
    Packed, TPolynomial, check_piece, exponent_fields, graded_terms, kernel_rows, pack_piece, summed, unpack_exponents,
    unpacked,
)

__all__ = [
    "TauExpansion",
    "compute_tau",
    "compute_tau_exponential",
]


class PieceStore(Protocol):
    def load(self, r: int, degree: int) -> TPolynomial | None:
        """The stored tau_degree, or None if there is none.  A returned
        piece has passed check_piece(r, degree, piece); compute_tau grades
        it again only when a computed degree packs it."""
        ...

    def store(self, r: int, degree: int, piece: TPolynomial) -> None: ...


class TauExpansion(NamedTuple):
    """Graded pieces tau_0 .. tau_D of the partition function for one r."""

    r: int
    max_degree: int
    pieces: list[TPolynomial]

    def validate(self) -> None:
        """Check the invariants of a well-formed expansion: one piece per
        degree, tau_0 = 1, and tpoly.check_piece, the one grading, on every
        tau_j (ContractError)."""
        self._check_structure()
        for j, piece in enumerate(self.pieces):
            check_piece(self.r, j, piece)

    def _check_structure(self) -> None:
        """One piece per degree, and tau_0 = 1."""
        if self.max_degree < 0:
            raise ContractError("max_degree must be nonnegative")
        if len(self.pieces) != self.max_degree + 1:
            raise ContractError(
                f"expected {self.max_degree + 1} pieces, found {len(self.pieces)}"
            )
        if self.pieces[0] != TPolynomial.one(self.r):
            raise ContractError("degree-0 piece must equal 1")


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


def compute_tau(r: int, max_degree: int, cache: PieceStore | None = None) -> TauExpansion:
    """Compute the graded pieces up to max_degree by the degree recursion.

    Exact, and deterministic (byte-identical canonical serialization)
    regardless of cache hits.  A computed piece is checked by check_piece
    before it is stored, a cached one by the store's load; a cached piece
    is packed, and so graded again, only when a computed degree reads it.
    """
    shift, fields = _layout(r, max_degree)
    pieces = [TPolynomial.one(r)]
    rows: dict[int, tuple[int, list]] = {}  # degree -> kernel_rows of its piece
    for j in range(1, max_degree + 1):
        piece = cache.load(r, j) if cache is not None else None
        if piece is None:
            for i in range(max(0, j - r + 1), j):
                if i not in rows:  # tau_0, or a cached piece
                    rows[i] = kernel_rows(pack_piece(r, i, pieces[i], shift), fields)
            packed = summed([raise_step(r, l, j, rows[j - l], shift) for l in range(1, min(r - 1, j) + 1)], j)
            rows.pop(j - r + 1, None)  # raised for the last time
            if j == max_degree:  # no raiser reads the top degree's rows
                den, items = packed[1], ((unpack_exponents(key, fields), num) for key, num in packed[0].items())
            else:
                den, kernel = rows[j] = kernel_rows(packed, fields)
                items = ((e, num) for _, e, num in kernel)
            piece = TPolynomial._raw(r, dict(graded_terms(r, j, j, den, items)))
            del packed, items  # not alive through the next degree's raise
            check_piece(r, j, piece)
            if cache is not None:
                cache.store(r, j, piece)
        pieces.append(piece)
        rows.pop(j - r + 1, None)  # no later raiser reads it
    return TauExpansion(r, max_degree, pieces)


def exponential_pieces(r: int, max_degree: int) -> list[Packed]:
    """The graded truncation of exp(sum_l A_l / l) applied to 1, packed:
    degree j as numerators over one den of s^j, over _layout(r, max_degree).

    Agrees with compute_tau exactly when the raisers commute; the solver
    treats any disagreement as evidence against that conjecture, so this
    path is a diagnostic, never the authority.
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
    return [summed(acc.get(j, [])) for j in range(max_degree + 1)]


def compute_tau_exponential(r: int, max_degree: int) -> TauExpansion:
    """exponential_pieces unpacked into a validated TauExpansion."""
    _, fields = _layout(r, max_degree)
    pieces = [unpacked(r, j, j, packed, fields) for j, packed in enumerate(exponential_pieces(r, max_degree))]
    tau = TauExpansion(r, max_degree, pieces)
    tau.validate()
    return tau
