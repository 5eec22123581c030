"""Static compacted-trie search structures.

Two engines over the same trie + sorted-leaf-array data run
`CompactedTrie.descend`, the walk the dynamic engine's search runs too, and
differ only in the child step they give each heavy node.  A heavy child
continues the walk past its edge label; a light child, whose step is None,
ends it, and the engine switches to binary search of the leaf array inside
its interval, where a miss is one leaf-rank search and a match adds one more
over the ranks after the first, when any remain.

* StaticTrieIndex: heavy/light split at s = Theta(lg^2 lg sigma); the step
  is one lookup in a deterministic dictionary over the node's child
  characters, or, when sigma + 1 <= `ARRAY_CELLS` (the dynamic engine's
  rule too), one read of a size-(sigma + 1) `ChildArray`.  Either is O(1),
  and an array costs at most `ARRAY_CELLS` cells per heavy node.  Only a
  predecessor query whose lookup missed asks the node's static predecessor;
  every other rank is read off where the walk stopped.

* SuffixTrayIndex: threshold sigma; a size-(sigma + 1) child array at
  branching heavy nodes, a heavy pointer and child binary search at the
  rest.  This is the suffix tray's own rule at every sigma; it does not
  read `ARRAY_CELLS`.
"""

from __future__ import annotations

import math
from itertools import repeat

from .errors import CorruptTrieError, InvalidInputError
from .instrument import GLOBAL
from .predkit import DetDictionary, StaticPredecessor
from .sa import suffix_array
from .text import (ARRAY_CELLS, ChildArray, CompactedTrie, MatchResult, build_sorted_trie,
                   check_codes, checked, string_trie)

MODES = ("suffix", "strings")
ENGINES = ("static", "tray")


def heavy_threshold(sigma: int) -> int:
    """s = max(2, ceil((lg lg sigma)^2)), with sigma clamped to >= 4."""
    return max(2, math.ceil(math.log2(math.log2(max(sigma, 4))) ** 2))


def validate_intervals(trie: CompactedTrie, n_leaves: int, sigma: int):
    """Check the topology and the leaf-rank intervals in one walk from the
    root.  Every child key must lie in [0, sigma] and every child id name an
    unvisited node whose parent is the walking node; intervals must be
    contiguous, child-ordered and consistent, and the leaves' ranks a
    permutation of [0, n_leaves)."""
    nodes = trie.nodes
    n_nodes = len(nodes)
    visited = [False] * n_nodes
    seen = [False] * n_leaves
    stack = [trie.ROOT]
    while stack:
        v = stack.pop()
        nd = nodes[v]
        kids = nd.children
        if nd.leaf_id >= 0:
            if kids or nd.low != nd.high or not 0 <= nd.low < n_leaves or seen[nd.low]:
                raise CorruptTrieError(f"bad leaf interval at node {v}")
            seen[nd.low] = True
            continue
        if not kids:
            if v == trie.ROOT and n_leaves == 0:
                continue
            raise CorruptTrieError(f"childless internal node {v}")
        chars = sorted(kids)  # timsort: n - 1 compares when already increasing
        if chars[0] < 0 or chars[-1] > sigma:
            raise CorruptTrieError(f"child key outside [0, {sigma}] under {v}")
        prev_high = None
        for key in chars:
            ch = kids[key]
            if not 0 < ch < n_nodes or visited[ch] or nodes[ch].parent != v:
                raise CorruptTrieError(f"bad child id {ch} under {v}")
            visited[ch] = True
            c = nodes[ch]
            if prev_high is not None and c.low != prev_high + 1:
                raise CorruptTrieError(f"non-contiguous intervals under {v}")
            prev_high = c.high
            stack.append(ch)
        if nd.low != nodes[kids[chars[0]]].low or nd.high != prev_high:
            raise CorruptTrieError(f"interval of {v} not the union of its children")
    if not all(seen):
        raise CorruptTrieError("leaf ranks are not a permutation")


class _IndexBase:
    """Shared machinery: heavy set, the descent, leaf access, light-subtree
    search and locus walk.  An engine fills `child_step`, indexed by node id:
    at each heavy node an object whose `lookup(c)` returns the child on the
    edge starting with character c, or None; light nodes hold None."""

    def __init__(self, trie: CompactedTrie, leaf_order: list[int], sigma: int, mode: str,
                 s: int):
        if mode not in MODES or sigma < 1 or s < 1:
            raise InvalidInputError(f"mode {mode!r}, sigma {sigma} or s {s} out of range")
        self.trie = trie
        self.leaf_order = leaf_order
        self.sigma = sigma
        self.mode = mode  # "suffix": leaf_order holds positions; "strings": string ids
        validate_intervals(trie, len(leaf_order), sigma)
        self.s = s
        self.heavy = [nd.high - nd.low + 1 >= s or v == trie.ROOT
                      for v, nd in enumerate(trie.nodes)]

    def leaf_len(self, r: int) -> int:
        """Length of the stored string at rank r, sentinel excluded."""
        if self.mode == "suffix":
            return len(self.trie.sources[0]) - 1 - self.leaf_order[r]
        return len(self.trie.sources[self.leaf_order[r]]) - 1

    def enumerate(self, interval: tuple[int, int]) -> list[int]:
        """Leaf payloads (positions / string ids) in rank order."""
        lo, hi = interval
        if not (0 <= lo <= hi < len(self.leaf_order)):
            raise InvalidInputError(f"interval {interval} out of range")
        return [self.leaf_order[r] for r in range(lo, hi + 1)]

    def _walk(self, pattern):
        """The descent both engines run, finished in a light child by leaf
        search.  Returns (MatchResult, pos, steps): `pos` is the rank the
        pattern would take among a light child's leaves when the walk ended
        in one (None otherwise), and `steps` the number of child steps."""
        trie = self.trie
        if not self.leaf_order:
            return MatchResult(trie.ROOT, 0, None, 0), None, 0
        v, offset, matched, steps = trie.descend(self.child_step, pattern)
        if matched == len(pattern):
            nd = trie.nodes[v]
            return MatchResult(v, offset, (nd.low, nd.high), matched), None, steps
        if offset or self.child_step[v] is not None:
            return MatchResult(v, offset, None, matched), None, steps
        res, pos = self._light_search(v, pattern, matched + 1)
        return res, pos, steps

    def _first_geq(self, lo, hi, pattern, start, strict):
        """Smallest rank in [lo, hi] whose leaf is >= P (strict: > P and not
        P-prefixed).  Returns (rank or hi+1, best lcp seen).  Each probe
        compares from the shared matched-prefix floor, never re-reading it;
        a stored string's sentinel, below every pattern character, ends the
        compare at its end."""
        order = self.leaf_order
        sources = self.trie.sources
        suffix = self.mode == "suffix"  # suffix: ranks hold positions in one text
        codes = sources[0]
        off = 0
        m = len(pattern)
        best = l_lcp = r_lcp = start
        res = hi + 1
        read = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            if suffix:
                off = order[mid]
            else:
                codes = sources[order[mid]]
            d = d0 = l_lcp if l_lcp < r_lcp else r_lcp
            while d < m and codes[off + d] == pattern[d]:
                d += 1
            if d == m:  # P is a prefix of the leaf
                read += m - d0
                geq = not strict
            else:  # mismatch at d, maybe at the leaf's sentinel
                read += d - d0 + 1
                geq = codes[off + d] > pattern[d]
            if d > best:
                best = d
            if geq:
                res = mid
                hi = mid - 1
                r_lcp = d
            else:
                lo = mid + 1
                l_lcp = d
        GLOBAL.chars_compared += read
        return res, best

    def _light_search(self, w, pattern, start):
        """Resolve the query inside light child w by leaf binary search.

        Returns (MatchResult, insert_pos) where insert_pos is the global
        rank P would occupy (used by predecessor queries).  A miss is one
        search: the longest lcp with P sits at a neighbour of the insertion
        point, and the search probes both.  A match adds one strict search
        over the ranks after the first match, when any remain."""
        nd = self.trie.nodes[w]
        hi = nd.high
        m = len(pattern)
        left, best = self._first_geq(nd.low, hi, pattern, start, strict=False)
        if best < m:
            return MatchResult(w, 0, None, best), left
        right = left + 1
        if left < hi:
            right, _ = self._first_geq(right, hi, pattern, start, strict=True)
        return self._locus_result(w, pattern, (left, right - 1), start), left

    def _locus_result(self, w, pattern, interval, start) -> MatchResult:
        """The trie locus of a match known to span the ranks `interval`,
        reached from light child w by the pattern's own characters: the
        leaf search has compared them all, so no label is read."""
        nodes = self.trie.nodes
        m = len(pattern)
        u = w
        nd = nodes[u]
        # start - 1 is the depth where w's edge begins (its first char was
        # matched as the entry character)
        above = start - 1
        while above + nd.end - nd.start < m:
            above += nd.end - nd.start
            u = nd.children[pattern[above]]
            nd = nodes[u]
        offset = m - above
        return MatchResult(u, 0 if offset == nd.end - nd.start else offset, interval, m)


class StaticTrieIndex(_IndexBase):
    """Heavy/light static index with deterministic dictionaries, or child
    arrays at sigma + 1 <= ARRAY_CELLS."""

    def __init__(self, trie, leaf_order, sigma, mode, s=None):
        super().__init__(trie, leaf_order, sigma, mode,
                         heavy_threshold(sigma) if s is None else s)
        u = sigma + 1  # edge characters live in [0, sigma]
        arrays = u <= ARRAY_CELLS
        self.child_step = [None] * len(trie.nodes)
        self.child_pred: dict[int, StaticPredecessor] = {}
        # a StaticPredecessor is immutable and a function of its keys and u
        # alone, so heavy nodes with equal child characters share one
        shared: dict[tuple, StaticPredecessor] = {}
        for v, nd in enumerate(trie.nodes):
            kids = nd.children
            if self.heavy[v]:
                self.child_step[v] = (ChildArray(u, kids) if arrays
                                      else DetDictionary(kids.items()))
                keys = tuple(sorted(kids))
                pred = shared.get(keys)
                if pred is None:
                    pred = shared[keys] = StaticPredecessor(keys, u)
                self.child_pred[v] = pred

    def prefix_query(self, pattern: list[int]) -> MatchResult:
        check_codes(pattern, self.sigma)
        res, _, steps = self._walk(pattern)
        GLOBAL.dict_probes += steps
        return res

    def predecessor_query(self, pattern: list[int]):
        """Rank of the largest stored string <= pattern, or None.

        Stored strings are sentinel-terminated, so a stored proper prefix of
        the pattern sorts below it; a stored string equal to the pattern is
        returned itself.  The rank is read off where the walk stopped; only
        a miss at a heavy node's child edges queries its predecessor."""
        check_codes(pattern, self.sigma)
        res, pos, steps = self._walk(pattern)
        GLOBAL.dict_probes += steps
        nodes = self.trie.nodes
        if res.matched:
            lo = res.interval[0]
            if self.leaf_len(lo) == len(pattern):
                return lo  # the pattern itself is stored
            rank = lo - 1
        elif pos is not None:  # a miss among a light child's leaves
            rank = pos - 1
        elif res.edge_offset:  # a mismatch inside a heavy child's edge label
            nd = nodes[res.node]
            c = self.trie.sources[nd.sid][nd.start + res.edge_offset]
            rank = nd.low - 1 if pattern[res.matched_len] < c else nd.high
        elif not self.leaf_order:
            return None
        else:
            # no child edge starts with c = pattern[matched_len]: the predecessor
            # is the rightmost leaf below the child with the largest char < c
            pred = self.child_pred[res.node]
            k = pred.query(pattern[res.matched_len])
            nd = nodes[res.node]
            rank = nd.low - 1 if k < 0 else nodes[nd.children[pred.keys[k]]].high
        return rank if rank >= 0 else None


class _ChildSearch:
    """Tray child step at a heavy node without an array: the heavy pointer
    (its one heavy child, if any), then binary search of the sorted
    children, one `tray_bsearch_steps` per probe."""

    __slots__ = ("heavy_kid", "kids")

    def __init__(self, heavy_kid, children):
        self.heavy_kid = heavy_kid
        self.kids = sorted(children.items())

    def lookup(self, c):
        if self.heavy_kid[0] == c:
            return self.heavy_kid[1]
        kids = self.kids
        lo, hi = 0, len(kids) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            GLOBAL.tray_bsearch_steps += 1
            key, child = kids[mid]
            if key == c:
                return child
            if key < c:
                lo = mid + 1
            else:
                hi = mid - 1
        return None


class SuffixTrayIndex(_IndexBase):
    """Suffix-tray engine: threshold sigma, child arrays at branching heavy
    nodes, child binary search elsewhere, leaf-array search below."""

    def __init__(self, trie, leaf_order, sigma, mode):
        super().__init__(trie, leaf_order, sigma, mode, sigma)
        heavy = self.heavy
        self.child_step = [None] * len(trie.nodes)
        for v, nd in enumerate(trie.nodes):
            if not heavy[v]:
                continue
            kids = nd.children
            heavy_kids = [(c, ch) for c, ch in kids.items() if heavy[ch]]
            if len(heavy_kids) >= 2:
                self.child_step[v] = ChildArray(sigma + 1, kids)
            else:
                self.child_step[v] = _ChildSearch(
                    heavy_kids[0] if heavy_kids else (-1, None), kids)

    def tray_query(self, pattern: list[int]) -> MatchResult:
        check_codes(pattern, self.sigma)
        return self._walk(pattern)[0]


def build_index(source, sigma: int, mode: str, engines=("static",)) -> tuple:
    """One engine per name in `engines` ("static", "tray"), all on one trie of
    `source`, a code list ("suffix" mode) or a list of them ("strings"), each
    made a source by `text.checked` once.  An unknown mode or engine, or
    sigma < 1, raises InvalidInputError; a repeated string DuplicateKeyError."""
    if mode not in MODES or sigma < 1 or not set(engines) <= set(ENGINES):
        raise InvalidInputError(f"mode {mode!r}, sigma {sigma} or engines {engines} unknown")
    texts = [source] if mode == "suffix" else source
    return build_engines([checked(t, sigma) for t in texts], sigma, mode, engines)[1:]


def build_engines(sources, sigma, mode, engines, order=None, s=None) -> tuple:
    """(trie, one engine per name) of `checked` sources by one `build_sorted_trie`:
    the suffix tree of the one source from its suffix array (or an index
    file's `order`, proved), or the trie of the sorted strings; `s` is an
    index file's static threshold."""
    if mode == "suffix":
        sa_index = suffix_array(sources[0], order)
        order = sa_index.sa
        trie = build_sorted_trie(sources, zip(repeat(0), order, order), sa_index.lcp)
    else:
        trie, order = string_trie(sources)
    return (trie, *(StaticTrieIndex(trie, order, sigma, mode, s) if name == "static"
                    else SuffixTrayIndex(trie, order, sigma, mode) for name in engines))
