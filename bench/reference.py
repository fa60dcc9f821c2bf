#!/usr/bin/env python3
"""A fixed reference job that measures how fast the host runs right now.

The benchmark runs this script as a fresh process next to every timed
operation: interpreter start-up followed by a fixed amount of interpreted
work of the same kind the package does (tuple-keyed structure constants,
small-integer products, ``Fraction`` sums).  It imports nothing from the
package, so a change to the program cannot change its cost; only the host's
speed does.  ``run.py`` divides each operation's time by the reference times
measured just before and just after it.

It prints one checksum, which ``run.py`` compares with ``CHECKSUM``.
"""

from __future__ import annotations

import random
from fractions import Fraction

RANK = 10
CHECKSUM = 500


def _table() -> dict[tuple[int, int], tuple[int, ...]]:
    rng = random.Random(5)
    return {(i, j): tuple(rng.randint(-3, 3) for _ in range(RANK)) for i in range(RANK) for j in range(RANK)}


def work() -> int:
    """Associativity defects of a random structure-constant table, plus a Fraction sum."""
    table = _table()

    def mul(u, v):
        out = [0] * RANK
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        row = table[(i, j)]
                        for k in range(RANK):
                            out[k] += a * b * row[k]
        return tuple(out)

    basis = [tuple(int(i == j) for j in range(RANK)) for i in range(RANK)]
    defects = 0
    for i in range(RANK):
        for j in range(RANK):
            ij = mul(basis[i], basis[j])
            for k in range(0, RANK, 2):
                defects += mul(ij, basis[k]) != mul(basis[i], mul(basis[j], basis[k]))
    total = sum((Fraction(i % 7 - 3, i) for i in range(1, 400)), Fraction(0))
    return defects + total.denominator % 97


if __name__ == "__main__":
    print(work())
