"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately naive: sorted lists, linear scans and
uncompacted tries.  The real structures are checked against these.
"""

from __future__ import annotations

import bisect

from triekit.suffix_oracle import OnlineSuffixTree, _ONode
from triekit.text import SENTINEL, CompactedTrie


def brute_suffix_array(codes: list[int]) -> list[int]:
    """Sort all suffixes of codes + sentinel by materialising them."""
    full = list(codes) + [SENTINEL]
    return sorted(range(len(full)), key=lambda i: full[i:])


def brute_lcp(codes: list[int], sa: list[int]) -> list[int]:
    full = list(codes) + [SENTINEL]
    lcp = [0] * len(sa)
    for r in range(1, len(sa)):
        a, b = full[sa[r - 1]:], full[sa[r]:]
        h = 0
        while h < len(a) and h < len(b) and a[h] == b[h]:
            h += 1
        lcp[r] = h
    return lcp


class UncompactedTrie:
    """Plain one-character-per-edge trie with path compression on demand."""

    def __init__(self):
        self.children: list[dict] = [{}]
        self.leaf_of: list[int] = [-1]

    def insert(self, codes: list[int], leaf_id: int):
        v = 0
        for c in list(codes) + [SENTINEL]:
            nxt = self.children[v].get(c)
            if nxt is None:
                self.children.append({})
                self.leaf_of.append(-1)
                nxt = len(self.children) - 1
                self.children[v][c] = nxt
            v = nxt
        self.leaf_of[v] = leaf_id

    def compressed_canonical(self, v=0, label=()):
        """expanded_canonical's form of the compacted trie."""
        while len(self.children[v]) == 1 and self.leaf_of[v] < 0 and (v != 0 or label):
            ((c, w),) = self.children[v].items()
            label = label + (c,)
            v = w
        kids = tuple(
            (c, self.compressed_canonical(w, (c,)))
            for c, w in sorted(self.children[v].items())
        )
        return (label, self.leaf_of[v], kids)


def label_codes(trie: CompactedTrie, v: int) -> list[int]:
    """The characters of node v's edge label, sentinel included."""
    nd = trie.nodes[v]
    return trie.sources[nd.sid][nd.start:nd.end]


def expanded_canonical(trie: CompactedTrie):
    """Nested (label codes, leaf id, ((first char, child form), ...)) form
    of a CompactedTrie, children by first char, every label expanded: the
    form compressed_canonical gives.  Iterative, so path-shaped tries fit."""
    done: dict[int, tuple] = {}
    stack = [(trie.ROOT, False)]
    while stack:
        v, expanded = stack.pop()
        nd = trie.nodes[v]
        if not expanded:
            stack.append((v, True))
            stack.extend((ch, False) for _, ch in sorted(nd.children.items()))
        else:
            kids = tuple((c, done[ch]) for c, ch in sorted(nd.children.items()))
            done[v] = (tuple(label_codes(trie, v)), nd.leaf_id, kids)
    return done[trie.ROOT]


def recompute_intervals(trie: CompactedTrie):
    """Set [low, high] of every internal node from the leaf ranks below it,
    bottom-up; an empty root gets (0, -1)."""
    for v in reversed(trie.topo_order()):
        nd = trie.nodes[v]
        if nd.is_leaf:
            continue
        kids = [trie.nodes[ch] for ch in nd.children.values()]
        nd.low = min((c.low for c in kids), default=0)
        nd.high = max((c.high for c in kids), default=-1)


def compress_canonical(strings: list[list[int]]):
    t = UncompactedTrie()
    for sid, s in enumerate(strings):
        t.insert(s, sid)
    return t.compressed_canonical()


class SortedSetOracle:
    """Predecessor oracle over integer keys."""

    def __init__(self):
        self.keys: list[int] = []

    def insert(self, key: int):
        i = bisect.bisect_left(self.keys, key)
        if i == len(self.keys) or self.keys[i] != key:
            self.keys.insert(i, key)

    def pred(self, x: int):
        i = bisect.bisect_right(self.keys, x)
        return self.keys[i - 1] if i else None


class WeightedOracle:
    """Sorted key -> weight map mirroring a wexponential tree."""

    def __init__(self):
        self.keys: list[int] = []
        self.weight: dict[int, int] = {}

    def insert(self, key: int):
        bisect.insort(self.keys, key)
        self.weight[key] = 1

    def increase(self, key: int):
        self.weight[key] += 1

    def pred(self, x: int):
        i = bisect.bisect_right(self.keys, x)
        if not i:
            return None
        k = self.keys[i - 1]
        return (k, self.weight[k])


def occurrences(codes: list[int], pattern: list[int]) -> list[int]:
    """Start positions of pattern in codes + sentinel, naive scan."""
    full = list(codes) + [SENTINEL]
    m = len(pattern)
    out = []
    for i in range(len(full)):
        if full[i:i + m] == pattern:
            out.append(i)
    return out


def longest_matchable_prefix(strings: list[list[int]], pattern: list[int]) -> int:
    """Length of the longest prefix of pattern prefixing any stored string."""
    best = 0
    for s in strings:
        h = 0
        while h < len(pattern) and h < len(s) and s[h] == pattern[h]:
            h += 1
        best = max(best, h)
    return best


def string_predecessor(strings: list[list[int]], pattern: list[int]):
    """Largest stored string <= pattern under sentinel-terminated order.

    Stored strings compare with their sentinel appended; the pattern has
    none, so a stored proper prefix of the pattern sorts below it.
    """
    best = None
    for s in strings:
        key = list(s) + [SENTINEL]
        pat = list(pattern) + [SENTINEL]
        if key <= pat and (best is None or key > best):
            best = key
    return None if best is None else best[:-1]


def subtree_nodes(v) -> list:
    """Every OnlineSuffixTree node below v, v included."""
    out = []
    stack = [v]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(v.children.values())
    return out


class NaiveSuffixTree:
    """Independent oracle: plain compacted trie grown by inserting each new
    suffix with a character-by-character walk from the root."""

    def __init__(self):
        self.buf: list[int] = []
        self.n = 0
        root = _ONode(None, 0, 1, 0)
        root.children[SENTINEL] = _ONode(root, -1, -1, 1, leaf_id=0)
        self.root = root

    def char(self, pos):
        return self.buf[pos] if pos >= 0 else SENTINEL

    def prepend(self, a: int):
        n = self.n
        self.buf.append(a)
        # walk the new suffix (positions n, n-1, ..., -1) from the root
        v = self.root
        pos = n
        while True:
            child = v.children.get(self.char(pos))
            if child is None:
                v.children[self.char(pos)] = _ONode(v, pos, -1, n + 2, leaf_id=n + 1)
                break
            k = 0
            while k < child.label_len and self.char(child.hi - k) == self.char(pos - k):
                k += 1
            if k == child.label_len:
                v = child
                pos -= k
                continue
            # split and attach
            mid = _ONode(v, child.hi, child.hi - k + 1, v.sdepth + k)
            v.children[self.char(child.hi)] = mid
            child.hi -= k
            child.parent = mid
            mid.children[self.char(child.hi)] = child
            mid.children[self.char(pos - k)] = _ONode(mid, pos - k, -1, n + 2, leaf_id=n + 1)
            break
        self.n = n + 1

    canonical = OnlineSuffixTree.canonical
