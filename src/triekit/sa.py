"""Suffix array, LCP array and suffix tree construction for static texts.

The suffix array covers positions 0..n of the sentinel-terminated text
(position n is the lone sentinel).  Construction is SA-IS (linear time);
the contract is the sortedness invariant, not the recipe.  The suffix tree
is the compacted trie of the suffixes in SA order: `text.build_sorted_trie`
builds it from the SA and LCP arrays with the lcp stack that also builds
every string-set trie, setting each node's leaf-rank interval as it goes.
An index file stores only the text, so building and loading both reach the
suffix array through `suffix_array` on a checked text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

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
    """Suffix array + LCP of a Text with its sentinel (see `text.terminated`)."""
    return suffix_array(terminated(text))


def suffix_array(codes: list[int]) -> SuffixArrayIndex:
    """SA + LCP of a `text.checked` list."""
    # SA-IS keeps arrays as long as its alphabet; renaming codes to ranks keeps their order
    rank = {c: r for r, c in enumerate(sorted(set(codes)))}
    codes = list(map(rank.__getitem__, codes))
    sa = _sais(codes, len(rank))
    return SuffixArrayIndex(sa=sa, lcp=_kasai(codes, sa))


def _kasai(codes: list[int], sa: list[int]) -> list[int]:
    """LCP array of the suffix array `sa` of `codes`."""
    rank = [0] * len(sa)
    for i, p in enumerate(sa):
        rank[p] = i
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


def build_suffix_tree(sa_index: SuffixArrayIndex, text) -> CompactedTrie:
    """Suffix tree of a Text (see `text.terminated`) from its SA and LCP; leaf
    r lies r-th, with its suffix position as payload and r as interval."""
    sa = sa_index.sa
    return build_sorted_trie([terminated(text)], zip(repeat(0), sa, sa), sa_index.lcp)
