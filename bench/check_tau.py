"""Check an r=4 tau document written by ``rspin compute``.

    python bench/check_tau.py FILE

Parses FILE with the package's own ``parse_tau``, extracts the correlators
of pieces 0..3 and compares three closed-form values that no planned change
to the spin >= 4 modes may move: two genus-0 numbers (related by WDVV) and
``<t_{1,0}>_1 = (r-1)/24``.  On success prints the document's input
properties as one JSON line; on a mismatch prints the reason on standard
error and exits 1.  It runs as its own process so that the benchmark process
never imports the package under test.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

# (genus, insertions as (m, a) pairs) -> value
R4_ANCHORS = {
    (0, ((0, 2),) * 5): Fraction(1, 8),
    (0, ((0, 1), (0, 1), (0, 2), (0, 2))): Fraction(1, 4),
    (1, ((1, 0),)): Fraction(1, 8),
}


def tau_properties(tau) -> dict:
    """Terms per degree, largest numerator or denominator bit size, and the
    number of coefficients with both the rational and the s part nonzero."""
    bits = mixed = 0
    for piece in tau.pieces:
        for coeff in piece.terms.values():
            for part in (coeff.a, coeff.b):
                bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
            mixed += bool(coeff.a) and bool(coeff.b)
    return {"terms_per_degree": [len(p.terms) for p in tau.pieces], "coeff_max_bits": bits, "mixed_coeffs": mixed}


def main(path: str) -> int:
    from rspin.correlator import extract_correlators
    from rspin.serialize import parse_tau
    from rspin.solver import TauExpansion

    with open(path, "rb") as handle:
        tau = parse_tau(handle.read())
    if tau.r != 4 or tau.max_degree < 3:
        print(f"expected r=4 with degree >= 3, got r={tau.r} degree={tau.max_degree}", file=sys.stderr)
        return 1
    low = TauExpansion(4, 3, tau.pieces[:4])
    table = {(rec.genus, tuple((i.m, i.a) for i in rec.insertions)): rec.value for rec in extract_correlators(low)}
    for key, want in R4_ANCHORS.items():
        if table.get(key) != want:
            print(f"anchor genus={key[0]} insertions={key[1]}: expected {want}, got {table.get(key)}", file=sys.stderr)
            return 1
    print(json.dumps(tau_properties(tau)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
