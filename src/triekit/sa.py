"""Suffix array, LCP array and suffix tree construction for static texts.

The suffix array covers positions 0..n of the sentinel-terminated text
(position n is the lone sentinel).  Construction is SA-IS (linear time);
the contract is the sortedness invariant, not the recipe.  The suffix tree
is the compacted trie of the suffixes in SA order: `text.build_sorted_trie`
builds it from the SA and LCP arrays with the lcp stack that also builds
every string-set trie, setting each node's leaf-rank interval as it goes.
`check_suffix_array` proves in linear time that a given order is the suffix
array, so an index file can store it and load can rebuild the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

from .errors import InvalidInputError
from .text import CompactedTrie, build_sorted_trie, terminated

S_TYPE = 0
L_TYPE = 1


def _sais(codes: list[int], sigma: int) -> list[int]:
    """SA of `codes` where codes[-1] is a unique smallest sentinel."""
    n = len(codes)
    if n == 1:
        return [0]
    types = bytearray(n)  # S_TYPE = 0
    t = S_TYPE
    nxt = codes[-1]
    for i in range(n - 2, -1, -1):
        c = codes[i]
        t = L_TYPE if c > nxt or (c == nxt and t == L_TYPE) else S_TYPE
        types[i] = t
        nxt = c
    # an LMS position is an S position right after an L position
    lms = [i for i in range(1, n) if types[i] < types[i - 1]]
    is_lms = bytearray(n)
    for i in lms:
        is_lms[i] = 1

    bucket_sizes = [0] * sigma
    for c in codes:
        bucket_sizes[c] += 1
    heads = []
    tails = []
    acc = 0
    for size in bucket_sizes:
        heads.append(acc)
        acc += size
        tails.append(acc - 1)

    def seed(order):
        """An SA with the LMS positions of `order` at their bucket tails."""
        sa = [-1] * n
        tail = tails[:]
        for i in reversed(order):
            c = codes[i]
            sa[tail[c]] = i
            tail[c] -= 1
        return sa

    def induce(sa):
        # the iterators read sa as it is written, as an index loop would
        head = heads[:]
        for p in sa:
            j = p - 1
            if j >= 0 and types[j] == L_TYPE:
                c = codes[j]
                sa[head[c]] = j
                head[c] += 1
        tail = tails[:]
        for p in reversed(sa):
            j = p - 1
            if j >= 0 and types[j] == S_TYPE:
                c = codes[j]
                sa[tail[c]] = j
                tail[c] -= 1

    # first pass: approximate order of LMS suffixes
    sa = seed(lms)
    induce(sa)

    # name LMS substrings in their induced order.  Two are equal when they
    # reach the next LMS position together and agree before it: the
    # character there starts the next LMS substring, which compares it.
    # LMS positions lie at least 2 apart, so the sentinel's span of 0 makes
    # its substring unique.
    span = [0] * n
    for a, b in zip(lms, lms[1:]):
        span[a] = b - a
    name_of = [0] * n
    current = 0
    prev = n - 1  # the sentinel, first in SA order, is named 0
    for p in islice(sa, 1, None):
        if is_lms[p]:
            k = span[p]
            if k != span[prev] or codes[p:p + k] != codes[prev:prev + k]:
                current += 1
            name_of[p] = current
            prev = p

    summary = [name_of[p] for p in lms]  # ends with the unique smallest name 0
    if current + 1 == len(lms):
        summary_sa = [0] * len(lms)
        for idx, name in enumerate(summary):
            summary_sa[name] = idx
    else:
        summary_sa = _sais(summary, current + 1)

    # second pass: exact order
    sa = seed([lms[i] for i in summary_sa])
    induce(sa)
    return sa


@dataclass
class SuffixArrayIndex:
    sa: list[int]
    lcp: list[int]


def build_suffix_array(text) -> SuffixArrayIndex:
    """Suffix array + LCP of `text`, a Text or a list that ends in SENTINEL
    (see `text.terminated`), with its sentinel."""
    codes = terminated(text)
    # SA-IS keeps arrays as long as its alphabet: rename each code to the rank
    # of its value among the distinct ones, which keeps the order (the
    # sentinel 0 stays the unique minimum) and bounds the arrays by the text
    rank = {c: r for r, c in enumerate(sorted(set(codes)))}
    codes = list(map(rank.__getitem__, codes))
    sa = _sais(codes, len(rank))
    lcp = _kasai(codes, sa, _ranks(sa))
    return SuffixArrayIndex(sa=sa, lcp=lcp)


def _ranks(sa: list[int]) -> list[int]:
    """The inverse of `sa`, whose entries lie in [0, len(sa)): rank[p] is the
    index of p in `sa`, or -1 where no entry is p."""
    rank = [-1] * len(sa)
    for i, p in enumerate(sa):
        rank[p] = i
    return rank


def _kasai(codes: list[int], sa: list[int], rank: list[int]) -> list[int]:
    """LCP array of the suffix array `sa` with its inverse `rank`."""
    # codes[-1] is a unique smallest sentinel: two distinct suffixes differ
    # at or before it, so every compare stops inside the text
    n = len(codes)
    lcp = [0] * n
    h = 0
    for p in range(n):
        r = rank[p]
        if r == 0:
            h = 0
            continue
        q = sa[r - 1]
        while codes[p + h] == codes[q + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def check_suffix_array(codes: list[int], sa: list[int]) -> list[int]:
    """Check that `sa` is the suffix array of `codes`, whose last entry is a
    unique smallest sentinel, and return its inverse, the rank array
    `_kasai` takes; raise InvalidInputError if it is not.  It is when `sa` is a
    permutation of the positions in which every two adjacent ranks p, q have
    codes[p] < codes[q], or equal codes and rank[p + 1] < rank[q + 1]
    (Burkhardt and Kärkkäinen, CPM 2003); equal codes are not the sentinel,
    so p + 1 and q + 1 are positions.  Linear time."""
    n = len(codes)
    if len(sa) != n or min(sa) < 0 or max(sa) >= n:
        raise InvalidInputError("suffix array entry outside [0, n]")
    rank = _ranks(sa)
    if -1 in rank:  # n entries in range leave a rank unset iff two are equal
        raise InvalidInputError("the suffix array is not a permutation")
    for p, q in zip(sa, islice(sa, 1, None)):
        a = codes[p]
        b = codes[q]
        if a > b or (a == b and rank[p + 1] > rank[q + 1]):
            raise InvalidInputError(f"the suffix array puts suffix {p} before {q}")
    return rank


def build_suffix_tree(sa_index: SuffixArrayIndex, text) -> CompactedTrie:
    """Suffix tree with suffix array intervals: the compacted trie of the
    suffixes in SA order with the Kasai LCP.  `text` is a Text or a list
    that ends in SENTINEL (see `text.terminated`), the tree's one source.

    Leaves appear in SA order left to right; each leaf's payload is its
    suffix start position and its interval is its SA rank.
    """
    sa = sa_index.sa
    return build_sorted_trie([terminated(text)], zip(repeat(0), sa, sa), sa_index.lcp)
