"""A fixed CPU job that measures the speed of the machine, not of rspin.

    python bench/calibrate.py

The benchmark runs it as a fresh process next to the timed CLI processes and
divides their times by its time.  The host this benchmark was written on
runs everything up to 30% slower for a minute or more at a time, because of
other tenants.  A job of the same kind as rspin slows by about the same
share, so the ratio stays steadier than either time: interpreter start,
exact fractions with 40-bit numerators, and a dictionary of tuple keys large
enough (about 35 MB resident) to feel the same cache and memory pressure.
A smaller job that stayed in cache tracked the `raise-r4` repetitions
clearly worse.  The job imports nothing from the repository and must not
change, or calibrated times stop being comparable across commits.
"""

from fractions import Fraction

ENTRIES = 40000


def main() -> None:
    table = {}
    for i in range(ENTRIES):
        table[((i % 997) + 1, (i * 7919) % 4093, i % 5)] = Fraction(2**40 + i, 3**17 + i % 11)
    keys = list(table)
    step = Fraction(-5, 96)
    acc: dict[tuple[int, int, int], Fraction] = {}
    for j in range(len(keys)):
        key = keys[(j * 104729) % len(keys)]
        folded = (key[0], key[2], key[1] % 97)
        acc[folded] = acc.get(folded, 0) + table[key] * step


if __name__ == "__main__":
    main()
