"""Adversarial input families for the dynamic trie's predecessor query.

Each family is a size-indexed set of strings plus one pattern whose
predecessor, done naively, costs more than the pattern's length allows:
a walk or a scan that grows with the size, or, on `ladder`, a failing
predecessor-structure query at every node of the path.

* `chain(L)`: a, aa, ..., a^L and c at sigma = 4 (a = 1, b = 2, c = 3),
  pattern b.  The answer a^L is the rightmost leaf L levels below the
  root's child a.
* `wide(K)`: [5, c] for the K even codes c from 10 at sigma = 2^16,
  pattern [5, 2K + 9].  The answer [5, 2K + 8] is the last of K children
  of one light node, all in its wexp tree.
* `ladder(m)`: 1^d c for every depth d < m and c = 3..10, and 1^m 3, at
  sigma = 2^16, pattern 1^m 2.  The path passes m nodes of 9 children by
  the smallest one and the pattern sorts below every string, so the ascent
  climbs to the root and finds no child below the path anywhere.
"""

from __future__ import annotations

from typing import NamedTuple


class Family(NamedTuple):
    sigma: int
    strings: list[list[int]]
    pattern: list[int]


def chain(length: int) -> Family:
    return Family(4, [[1] * i for i in range(1, length + 1)] + [[3]], [2])


def wide(kids: int) -> Family:
    return Family(1 << 16, [[5, c] for c in range(10, 10 + 2 * kids, 2)], [5, 2 * kids + 9])


def ladder(depth: int) -> Family:
    strings = [[1] * d + [c] for d in range(depth) for c in range(3, 11)]
    return Family(1 << 16, strings + [[1] * depth + [3]], [1] * depth + [2])
