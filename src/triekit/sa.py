"""Suffix array, LCP array and suffix tree construction for static texts.

The suffix array covers positions 0..n of the sentinel-terminated text
(position n is the lone sentinel).  Construction is SA-IS (linear time);
the contract is the sortedness invariant, not the recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .text import SENTINEL, CompactedTrie, Text

S_TYPE = 0
L_TYPE = 1


def _sais(codes: list[int], sigma: int) -> list[int]:
    """SA of `codes` where codes[-1] is a unique smallest sentinel."""
    n = len(codes)
    if n == 1:
        return [0]
    types = bytearray(n)  # S_TYPE = 0
    for i in range(n - 2, -1, -1):
        if codes[i] > codes[i + 1] or (codes[i] == codes[i + 1] and types[i + 1] == L_TYPE):
            types[i] = L_TYPE

    def is_lms(i):
        return i > 0 and types[i] == S_TYPE and types[i - 1] == L_TYPE

    bucket_sizes = [0] * sigma
    for c in codes:
        bucket_sizes[c] += 1

    def bucket_tails():
        tails = []
        acc = 0
        for size in bucket_sizes:
            acc += size
            tails.append(acc - 1)
        return tails

    def induce(sa):
        heads = []
        acc = 0
        for size in bucket_sizes:
            heads.append(acc)
            acc += size
        for i in range(n):
            j = sa[i] - 1
            if j >= 0 and types[j] == L_TYPE:
                c = codes[j]
                sa[heads[c]] = j
                heads[c] += 1
        tails = bucket_tails()
        for i in range(n - 1, -1, -1):
            j = sa[i] - 1
            if j >= 0 and types[j] == S_TYPE:
                c = codes[j]
                sa[tails[c]] = j
                tails[c] -= 1

    def lms_equal(a, b):
        if a == n - 1 or b == n - 1:
            return False  # the sentinel substring is unique
        k = 0
        while True:
            a_end = k > 0 and is_lms(a + k)
            b_end = k > 0 and is_lms(b + k)
            if a_end and b_end:
                return True
            if a_end != b_end or codes[a + k] != codes[b + k]:
                return False
            k += 1

    lms = [i for i in range(1, n) if is_lms(i)]

    # first pass: approximate order of LMS suffixes
    sa = [-1] * n
    tails = bucket_tails()
    for i in reversed(lms):
        c = codes[i]
        sa[tails[c]] = i
        tails[c] -= 1
    induce(sa)

    # name LMS substrings in their induced order
    name_of = {}
    current = 0
    prev = None
    for p in sa:
        if not is_lms(p):
            continue
        if prev is not None and not lms_equal(prev, p):
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
    order = [lms[i] for i in summary_sa]

    # second pass: exact order
    sa = [-1] * n
    tails = bucket_tails()
    for i in reversed(order):
        c = codes[i]
        sa[tails[c]] = i
        tails[c] -= 1
    induce(sa)
    return sa


@dataclass
class SuffixArrayIndex:
    sa: list[int]
    lcp: list[int]


def build_suffix_array(text: Text) -> SuffixArrayIndex:
    """Suffix array + LCP of `text` with its implicit sentinel."""
    # SA-IS keeps arrays as long as its alphabet: rename each code to the rank
    # of its value among the distinct ones, which keeps the order (the
    # sentinel 0 stays the unique minimum) and bounds the arrays by the text
    rank = {c: r for r, c in enumerate(sorted(set(text.codes) | {SENTINEL}))}
    codes = list(map(rank.__getitem__, text.codes))
    codes.append(rank[SENTINEL])
    sa = _sais(codes, len(rank))
    lcp = _kasai(codes, sa)
    return SuffixArrayIndex(sa=sa, lcp=lcp)


def _kasai(codes: list[int], sa: list[int]) -> list[int]:
    n = len(codes)
    rank = [0] * n
    for i, p in enumerate(sa):
        rank[p] = i
    lcp = [0] * n
    h = 0
    for p in range(n):
        r = rank[p]
        if r == 0:
            h = 0
            continue
        q = sa[r - 1]
        while p + h < n and q + h < n and codes[p + h] == codes[q + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def build_suffix_tree(sa_index: SuffixArrayIndex, text: Text) -> CompactedTrie:
    """Suffix tree with suffix array intervals, by lcp-stack insertion.

    Leaves appear in SA order left to right; each leaf's payload is its
    suffix start position and its interval is its SA rank.
    """
    sa, lcp = sa_index.sa, sa_index.lcp
    total = text.n + 1
    trie = CompactedTrie(sources=[text])
    root = trie.ROOT

    def add_leaf(parent, rank, depth):
        pos = sa[rank]
        leaf = trie.new_node(parent, 0, pos + depth, total, leaf_id=pos)
        trie.nodes[leaf].low = trie.nodes[leaf].high = rank
        trie.nodes[parent].children[text.at(pos + depth)] = leaf
        return leaf

    # rightmost path as a stack of (node id, string depth), leaves included
    stack = [(root, 0), (add_leaf(root, 0, 0), total - sa[0])]
    for r in range(1, len(sa)):
        d = lcp[r]
        last_popped = None
        while stack[-1][1] > d:
            last_popped = stack.pop()
        top, top_depth = stack[-1]
        if top_depth == d:
            leaf = add_leaf(top, r, d)
        else:
            # split the edge to last_popped at string depth d
            child, _ = last_popped
            nd = trie.nodes[child]
            first = trie.label_char(child, 0)
            mid = trie.new_node(top, nd.sid, nd.start, nd.start + (d - top_depth))
            trie.nodes[top].children[first] = mid
            nd.parent = mid
            nd.start += d - top_depth
            trie.nodes[mid].children[trie.label_char(child, 0)] = child
            stack.append((mid, d))
            leaf = add_leaf(mid, r, d)
        stack.append((leaf, total - sa[r]))
    trie.compute_intervals()
    return trie
