"""Coded texts, the alphabet check and the compacted-trie node arena.

Character codes are ints in [1, sigma]; code 0 is the sentinel, which sorts
below every real code and ends every stored string, so a walk reads a
trie's sources, lists that end in it, with no bounds test.  `check_codes`
is the one alphabet check; `checked` makes a source such a list once, and
the rest of a build takes it as checked.  `Text` is the input of the
sigma-less builders.  Edge labels are (source id, start, end) ranges into
the sources.  `build_sorted_trie` builds every static trie, suffix tree or
string-set trie, and its leaf-rank intervals in one lcp-stack pass over
sorted strings; `CompactedTrie.insert_path` adds one string at a time to
the dynamic trie.  Both split an edge with `CompactedTrie.split`.

`CompactedTrie.descend` is the one walk down a trie.  The query engines
each give it a child step per node and build their result where the walk
stops; insertion and the dynamic predecessor query give it `trie.nodes`
itself, whose `Node.lookup` reads the children map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError
from .instrument import GLOBAL

SENTINEL = 0


def check_codes(codes, sigma: int):
    """The one alphabet check, in one pass: InvalidInputError for a code that
    is not an int (a bool is not), AlphabetOverflowError for one outside [1, sigma]."""
    for c in codes:
        if type(c) is not int or not 1 <= c <= sigma:
            raise (AlphabetOverflowError(f"code {c} outside [1, {sigma}]") if type(c) is int
                   else InvalidInputError(f"code {c!r} is not an int"))


def checked(codes, sigma: int) -> list[int]:
    """`codes`, any iterable, as a trie stores them once `check_codes` passes:
    a new list that ends in SENTINEL, which the rest of a build takes as is."""
    codes = list(codes)
    check_codes(codes, sigma)
    codes.append(SENTINEL)
    return codes


class Text:
    """Integer-coded text as handed to the builders, without its sentinel."""

    __slots__ = ("codes",)

    def __init__(self, codes):
        self.codes = list(codes)


def terminated(text: Text) -> list[int]:
    """`checked` on a Text's codes, unbounded; a code below 1 is InvalidInputError."""
    try:
        return checked(text.codes, math.inf)
    except AlphabetOverflowError:
        raise InvalidInputError("a source code lies below 1") from None


class Outcome(Enum):
    MATCHED_AT_NODE = "MATCHED_AT_NODE"
    MATCHED_ON_EDGE = "MATCHED_ON_EDGE"
    NOT_FOUND = "NOT_FOUND"


@dataclass
class MatchResult:
    """Result of a prefix search.

    `node` is the locus: the node itself when `edge_offset` is 0, otherwise
    the point `edge_offset` characters down the locus node's incoming edge.
    `interval` is the leaf-rank interval of all matches, None on a miss.
    """

    node: int
    edge_offset: int
    interval: tuple[int, int] | None
    matched_len: int

    @property
    def outcome(self) -> Outcome:
        if self.interval is None:
            return Outcome.NOT_FOUND
        return Outcome.MATCHED_ON_EDGE if self.edge_offset else Outcome.MATCHED_AT_NODE

    @property
    def matched(self) -> bool:
        return self.interval is not None

    @property
    def occ(self) -> int:
        return 0 if self.interval is None else self.interval[1] - self.interval[0] + 1


class Node:
    """Arena record for one compacted-trie node, slotted: eight fields and
    no per-node __dict__."""

    __slots__ = ("parent", "sid", "start", "end", "children", "low", "high", "leaf_id")

    def __init__(self, parent, sid, start, end, children=None, low=-1, high=-1, leaf_id=-1):
        self.parent = parent
        self.sid = sid          # source string id of the incoming edge label
        self.start = start      # label = source[start:end); the source ends in the sentinel
        self.end = end
        self.children = {} if children is None else children  # first char -> node id
        self.low = low          # leaf-rank interval [low, high]
        self.high = high
        self.leaf_id = leaf_id  # payload for leaves (suffix position / string id)

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id >= 0

    @property
    def label_len(self) -> int:
        return self.end - self.start

    def lookup(self, c):
        """The child on the edge starting with c, or None: with it the node
        list is a child step of `CompactedTrie.descend`, one that never
        stops at a light node."""
        return self.children.get(c)


# A sigma+1 child array of at most this many cells is O(1) space, so at such
# a sigma every heavy node of the static and dynamic engines keeps one; the
# dynamic root also gets its array once it costs at most this many cells per
# stored string.
ARRAY_CELLS = 64


class ChildArray(list):
    """Size-(sigma + 1) child array, a child step of `CompactedTrie.descend`:
    cell c holds the child on the edge starting with c, or None.  `pred` is
    the owner's predecessor over the child characters, or None."""

    __slots__ = ("pred",)
    lookup = list.__getitem__

    def __init__(self, cells: int, children: dict, pred=None):
        super().__init__([None] * cells)
        for c, ch in children.items():
            self[c] = ch
        self.pred = pred


class CompactedTrie:
    """Arena-backed compacted trie over sentinel-terminated strings.

    `sources` holds the strings that edge labels reference, each an exact
    list (CPython specialises indexing only on those) ending in SENTINEL.
    Every internal node except possibly the root has at least two children.
    """

    ROOT = 0

    def __init__(self, sources: list[list[int]] | None = None):
        self.sources: list[list[int]] = sources if sources is not None else []
        self.nodes: list[Node] = [Node(parent=-1, sid=-1, start=0, end=0)]

    def descend(self, child_step, pattern):
        """Walk `pattern` down from the root, the one descent of every query
        engine and of insertion.  `child_step[v].lookup(c)` gives v's child
        on the edge starting with c, or None; entering a node whose entry is
        None (a light node) ends the walk.  `self.nodes` is the plain step:
        it reads the children maps and has no None entry.  The rest of each
        edge label is compared as read, one chars_compared per character; a
        pattern ends the compare before it could read past a label's last
        character.

        Returns (node, offset, matched, steps): `matched` pattern characters
        lead `offset` characters down node's incoming edge; `steps` counts
        lookups.  matched == len(pattern) is a match; otherwise offset > 0
        is a label mismatch, and offset 0 a miss at node or its light entry."""
        nodes = self.nodes
        m = len(pattern)
        v = i = steps = 0  # v = ROOT
        step = child_step[v]
        while i < m:
            child = step.lookup(pattern[i])
            steps += 1
            if child is None:
                return v, 0, i, steps
            step = child_step[child]
            if step is None:
                return child, 0, i, steps
            nd = nodes[child]
            p = nd.start
            length = nd.end - p
            stop = length if length < m - i else m - i
            j = 1
            if stop > 1:
                codes = self.sources[nd.sid]
                while j < stop and codes[p + j] == pattern[i + j]:
                    j += 1
                GLOBAL.chars_compared += j if j < stop else j - 1
            if j < length:  # a mismatch, or the pattern ends inside the label
                return child, j, i + j, steps
            i += length
            v = child
        return v, 0, m, steps

    def split(self, child: int, k: int) -> int:
        """Split child's incoming edge k characters down.  The new middle
        node takes the first k characters of child's label and child's
        `low`, and becomes the parent's child in child's place and child's
        parent.  Returns the middle node's id."""
        nodes = self.nodes
        nd = nodes[child]
        mid = len(nodes)
        nodes.append(Node(nd.parent, nd.sid, nd.start, nd.start + k, {}, nd.low))
        codes = self.sources[nd.sid]  # the middle node shares child's label
        nodes[nd.parent].children[codes[nd.start]] = mid
        nd.parent = mid
        nd.start += k
        nodes[mid].children[codes[nd.start]] = child
        return mid

    def insert_path(self, sid: int):
        """Insert the sentinel-terminated string `sources[sid]` as a leaf.

        Splits at most one existing edge and adds one leaf edge.  The leaf
        carries `sid` as its payload.  Returns (leaf id, middle node id or
        None, attach node id), the attach node being the one the leaf or
        the middle node hangs under.
        Raises DuplicateKeyError if the string is already stored.
        """
        codes = self.sources[sid]
        total = len(codes)
        # both strings end in the one sentinel, so the walk stops inside a
        # label only at a mismatch, and matches all of codes only at its leaf
        v, offset, depth, _ = self.descend(self.nodes, codes)
        if depth == total:
            raise DuplicateKeyError("string already stored")
        nodes = self.nodes
        attach, mid = v, None
        if offset:  # the leaf hangs off the middle node of v's edge
            attach = nodes[v].parent
            v = mid = self.split(v, offset)
        leaf = len(nodes)
        nodes.append(Node(v, sid, depth, total, leaf_id=sid))
        nodes[v].children[codes[depth]] = leaf
        return leaf, mid, attach

    def topo_order(self) -> list[int]:
        """Node ids, parents before children."""
        order = []
        stack = [self.ROOT]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.nodes[v].children.values())
        return order

    def string_depths(self) -> list[int]:
        depth = [0] * len(self.nodes)
        for v in self.topo_order():
            if v == self.ROOT:
                continue
            nd = self.nodes[v]
            depth[v] = depth[nd.parent] + nd.label_len
        return depth

    def canonical(self) -> list[tuple[int, int, int]]:
        """Preorder (string depth, leaf id or -1, child count), children by
        first character; flat, so comparing two needs no recursion.  Every
        label is a span of the string of a leaf below it, so tries over the
        same sources with equal forms have equal labels; none is read."""
        out = []
        stack = [(self.ROOT, 0)]
        while stack:
            v, depth = stack.pop()
            nd = self.nodes[v]
            depth += nd.label_len
            out.append((depth, nd.leaf_id, len(nd.children)))
            stack.extend((ch, depth) for _, ch in sorted(nd.children.items(), reverse=True))
        return out


def build_sorted_trie(sources: list[list[int]], ranked, lcp: list[int]) -> CompactedTrie:
    """Compacted trie of distinct sentinel-terminated strings in sorted
    order, by lcp-stack insertion; `sources`, lists that end in SENTINEL,
    become the trie's sources.  `ranked` yields each rank's (sid, start,
    leaf id): the string sources[sid][start:], whose leaf carries leaf id;
    lcp[r] is its LCP with rank r - 1.  Leaves lie in rank order, each with
    its rank as interval.  The stack holds the rightmost path, so a node's
    `low` is set when it is made and `high` when the stack pops it, or at
    the end; with no strings the root keeps (0, -1)."""
    trie = CompactedTrie(sources=sources)
    nodes = trie.nodes
    root = nodes[trie.ROOT]
    root.low = 0
    # the rightmost path as (node, node id, string depth), leaves included
    stack = [(root, trie.ROOT, 0)]
    last = -1  # the rank of the latest leaf, where every node popped next ends
    for r, (sid, start, leaf_id) in enumerate(ranked):
        d = lcp[r]
        while stack[-1][2] > d:
            popped = stack.pop()
            popped[0].high = last
        top, top_id, top_depth = stack[-1]
        if top_depth < d:
            # split the edge to the last popped node at string depth d
            top_id = trie.split(popped[1], d - top_depth)
            top = nodes[top_id]
            stack.append((top, top_id, d))
        codes = sources[sid]
        total = len(codes)
        leaf = Node(top_id, sid, start + d, total, {}, r, r, leaf_id)
        top.children[codes[start + d]] = len(nodes)
        stack.append((leaf, len(nodes), total - start))
        nodes.append(leaf)
        last = r
    for nd, _, _ in stack:
        nd.high = last
    return trie


def string_trie(sources: list[list[int]]) -> tuple[CompactedTrie, list[int]]:
    """(trie, string ids by rank) of distinct checked strings, lists that end
    in SENTINEL; DuplicateKeyError if two are equal."""
    order = sorted(range(len(sources)), key=sources.__getitem__)
    lcp = [0] * len(order)
    for r in range(1, len(order)):
        a, b = sources[order[r - 1]], sources[order[r]]
        # two distinct strings differ at or before the shorter one's sentinel
        h = 0
        while a[h] == b[h]:
            h += 1
            if h == len(a):
                raise DuplicateKeyError("string stored twice")
        lcp[r] = h
    return build_sorted_trie(sources, [(sid, 0, sid) for sid in order], lcp), order


def build_string_trie(texts: list) -> tuple[CompactedTrie, list[int]]:
    """`string_trie` of distinct Texts (see `terminated`)."""
    return string_trie([terminated(t) for t in texts])
