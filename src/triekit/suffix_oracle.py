"""Prepend-only suffix tree maintained Weiner-style, plus the fringe
marked-ancestor structure.

The text grows by prepending, so positions are counted from the right end:
after k prepends, position j holds the character j+1 places from the right,
and existing edge labels never shift.  Edge labels are (hi, lo) position
ranges read downward, with position -1 standing for the sentinel.

Each inner node v keeps Weiner's links in one map: letter a is a key iff
a*str(v) occurs in the text, and its value is the node spelling a*str(v)
when that is an inner node (a hard link), else None.  The keys of a node are
the union of its children's (leaf k contributes buf[k] when k < n), so each
letter's key set is closed upward.  A leaf stores no map, and every leaf
shares one read-only empty `children` map.

Checks read no label: `canonical()` is the flat form `CompactedTrie.canonical`
gives a fresh build, and `audit_links()` tests each label and link in O(1);
so each costs O(nodes + links), apart from canonical()'s child sorts.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import InvalidInputError, MarkOrderViolationError
from .instrument import GLOBAL
from .text import SENTINEL, check_codes

_NO_CHILDREN = MappingProxyType({})  # every leaf's: a suffix-tree leaf never gains a child


class _ONode:
    __slots__ = ("parent", "hi", "lo", "sdepth", "children", "links", "leaf_id")

    def __init__(self, parent, hi, lo, sdepth, leaf_id=-1):
        self.parent = parent
        self.hi = hi
        self.lo = lo
        self.sdepth = sdepth
        self.leaf_id = leaf_id
        if leaf_id >= 0:
            self.children = _NO_CHILDREN
            self.links = None
        else:
            self.children = {}
            self.links = {}       # letter -> node (hard link) or None

    @property
    def label_len(self):
        return self.hi - self.lo + 1

    @property
    def is_leaf(self):
        return self.leaf_id >= 0


class OnlineSuffixTree:
    """Suffix tree of the current text; `prepend` adds one letter in front."""

    def __init__(self, sigma: int):
        if sigma < 1:
            raise InvalidInputError(f"sigma {sigma} below 1")
        self.sigma = sigma
        self.buf: list[int] = []
        self.n = 0
        root = _ONode(None, 0, 1, 0)  # empty label
        leaf0 = _ONode(root, -1, -1, 1, leaf_id=0)  # the sentinel suffix
        root.children[SENTINEL] = leaf0
        self.root = root
        self.active = leaf0  # leaf of the longest suffix

    def char(self, pos: int) -> int:
        return self.buf[pos] if pos >= 0 else SENTINEL

    def prepend(self, a: int):
        if type(a) is not int or not 1 <= a <= self.sigma:
            check_codes([a], self.sigma)  # raises the one check's error
        n = self.n
        self.buf.append(a)  # position n now holds the new front letter
        root = self.root
        leaf = self.active

        # lowest ancestor v of the active leaf with a*str(v) in the text;
        # the head, the longest prefix of the new text seen before, is a*str(v)
        chain = []
        v = leaf.parent
        GLOBAL.oracle_steps += 1
        while v is not root and a not in v.links:
            chain.append(v)
            v = v.parent
            GLOBAL.oracle_steps += 1

        if a in v.links:
            # lowest u from v up with a hard a-link; no inner node lies
            # between its target and the head, which is the target itself
            # or inside the edge below it.  With no hard link up to the
            # root, the root, spelling the empty prefix, stands for it.
            head_depth = v.sdepth + 1
            u = v
            attach = u.links[a]
            GLOBAL.oracle_steps += 1
            while attach is None and u is not root:
                u = u.parent
                attach = u.links[a]
                GLOBAL.oracle_steps += 1
            if attach is None:
                attach = root
            if attach.sdepth != head_depth:
                t = attach.children[self.char(n - attach.sdepth)]
                on_active_path = t is leaf or t in chain
                attach = v.links[a] = self._split(t, head_depth)
                if on_active_path:
                    # the middle node is itself an ancestor of the old
                    # active leaf, so a*str(mid) prefixes the new suffix
                    chain.append(attach)
        else:
            chain.append(v)  # the root gets its first key a below
            head_depth = 0
            attach = root

        # hang the new longest suffix below the head
        first = self.char(n - head_depth)
        assert first not in attach.children, "head was not maximal"
        newleaf = _ONode(attach, n - head_depth, -1, n + 2, leaf_id=n + 1)
        attach.children[first] = newleaf

        # every walked ancestor y now has a*str(y) on the new leaf edge
        for y in chain:
            y.links[a] = None
        GLOBAL.oracle_steps += len(chain) + 1

        self.active = newleaf
        self.n = n + 1

    def _split(self, t, depth):
        """Split the edge into t at string depth `depth`; returns the new
        middle node.  It has t's letters, all with None, since no
        b*str(mid) is an inner node."""
        p = t.parent
        offset = depth - p.sdepth
        assert 0 < offset < t.label_len
        mid = _ONode(p, t.hi, t.hi - offset + 1, depth)
        p.children[self.char(t.hi)] = mid
        t.hi -= offset
        t.parent = mid
        mid.children[self.char(t.hi)] = t
        k = t.leaf_id
        if k < 0:
            mid.links = dict.fromkeys(t.links)
        elif k < self.n:
            mid.links[self.buf[k]] = None
        GLOBAL.oracle_steps += len(mid.links)
        return mid

    # ------------------------------------------------------------- inspection

    def canonical(self) -> list[tuple[int, int, int]]:
        """`CompactedTrie.canonical`'s form with leaf start positions; with
        the labels anchored (`audit_links`), it equals a fresh build's form
        iff the trees are equal, label contents included."""
        n = self.n
        out = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            out.append((v.sdepth, n - v.leaf_id if v.is_leaf else -1, len(v.children)))
            stack.extend(ch for _, ch in sorted(v.children.items(), reverse=True))
        return out

    def text_codes(self) -> list[int]:
        return list(reversed(self.buf))

    def audit_links(self):
        """Check labels, child keys and links in O(nodes + links), raising
        AssertionError.  Preorder numbers put the leaves below v in [pre(v),
        end(v)]; leaf q spells the text from position q - 1 down.  A label is
        anchored: its length is the depth step and leaf hi + 1 + sdepth(parent)
        lies below it.  Bottom-up, a node's letters are its children's, leaf k
        giving buf[k] (k < n), and letter b's value is a node iff two children
        have b, for then b*str(v) is followed by two letters.  A hard link
        v -b-> t aims at an inner node one string-depth deeper, and str(t)
        starts with b*str(v) iff, for a leaf q below t, char(q - 1) == b and
        leaf q - 1 lies below v; every inner non-root node has exactly one
        incoming hard link.  Given a canonical form equal to a fresh build's,
        anchored labels read the same letters, so every label and link is
        right."""
        n = self.n
        buf = self.buf
        order = []                 # preorder
        pre = {}                   # id(node) -> preorder number
        leaf_pre = [-1] * (n + 1)  # leaf id -> preorder number
        stack = [self.root]
        while stack:
            v = stack.pop()
            pre[id(v)] = len(order)
            if v.is_leaf == bool(v.children):
                raise AssertionError("a leaf has children or an inner node none")
            if v.is_leaf:
                # a node below two keys or parents reaches some leaf twice
                if not (v.leaf_id <= n and leaf_pre[v.leaf_id] < 0):
                    raise AssertionError("leaf id out of range or taken")
                leaf_pre[v.leaf_id] = len(order)
            order.append(v)
            for ch in v.children.values():
                if ch.parent is not v:
                    raise AssertionError("a child's parent pointer aims elsewhere")
                stack.append(ch)
        if min(leaf_pre) < 0:
            raise AssertionError("a suffix has no leaf")
        end = list(range(len(order)))  # last preorder number below each node, a leaf
        for i in range(len(order) - 1, 0, -1):
            p = pre[id(order[i].parent)]
            end[p] = max(end[p], end[i])

        def below(q, i):
            return 0 <= q <= n and i <= leaf_pre[q] <= end[i]

        targets = set()  # preorder numbers of hard-link targets
        hard = []        # (source, letter, target), nodes by preorder number
        for i in range(len(order) - 1, -1, -1):  # children first
            v = order[i]
            p = v.parent
            if p is not None:
                if not (0 < v.label_len == v.sdepth - p.sdepth):
                    raise AssertionError("label length off the depth step")
                if not below(v.hi + 1 + p.sdepth, i):
                    raise AssertionError("label names no leaf below its node")
                if p.children.get(self.char(v.hi)) is not v:
                    raise AssertionError("child key differs from its label")
            if v.is_leaf:
                continue
            links = v.links
            seen = {}  # letter -> number of children having it
            for w in v.children.values():
                k = w.leaf_id
                for b in w.links if k < 0 else buf[k:k + 1]:
                    seen[b] = seen.get(b, 0) + 1
            if not seen.keys() <= links.keys():
                raise AssertionError("a map misses a letter its children have")
            if not links.keys() <= seen.keys():
                raise AssertionError("a map holds a letter no child has")
            for b, t in links.items():
                if t is None:
                    if seen[b] > 1:
                        raise AssertionError("a None value where b*str(v) is a node")
                    continue
                if seen[b] < 2:
                    raise AssertionError("a hard link where b*str(v) lies inside an edge")
                j = pre.get(id(t))
                if not j or t.is_leaf:
                    raise AssertionError("a hard link aims at the root (numbered 0), "
                                         "a leaf or outside the tree")
                if t.sdepth != v.sdepth + 1:
                    raise AssertionError("a hard link's target is not one string-depth deeper")
                if j in targets:
                    raise AssertionError("an inner node has a second incoming hard link")
                targets.add(j)
                hard.append((i, b, j))
        if len(targets) < len(order) - (n + 1) - 1:  # inner nodes less the root
            raise AssertionError("an inner node has no incoming hard link")
        for i, b, j in hard:
            q = order[end[j]].leaf_id
            if not (q > 0 and self.char(q - 1) == b and below(q - 1, i)):
                raise AssertionError("link contents differ from b*str(source)")


class FmaTree:
    """Fringe marked-ancestor structure: the marked set only grows downward
    from the root, queries return the lowest marked ancestor.

    Realized with per-node shortcut pointers compressed toward the fringe;
    a shortcut is followed only while its target is unmarked, which the
    downward-growth of marks makes safe (a marked node's ancestors are all
    marked, so an unmarked target proves the whole skipped stretch is still
    unmarked)."""

    def __init__(self):
        self.parent = [-1]
        self.marked = [False]
        self.skip: list[int | None] = [None]
        self.ROOT = 0

    def _new(self, parent):
        self.parent.append(parent)
        self.marked.append(False)
        self.skip.append(None)
        return len(self.parent) - 1

    def insert_leaf(self, parent: int) -> int:
        """New unmarked leaf below `parent`."""
        return self._new(parent)

    def insert_middle(self, child: int) -> int:
        """New node in the middle of the edge into `child`; it adopts the
        marked status of its (upper) parent."""
        p = self.parent[child]
        m = self._new(p)
        self.marked[m] = self.marked[p]
        self.parent[child] = m
        return m

    def mark(self, v: int):
        p = self.parent[v]
        if v != self.ROOT and not self.marked[p]:
            raise MarkOrderViolationError(f"parent of {v} is not marked")
        self.marked[v] = True

    def query(self, v: int):
        """Lowest marked ancestor of v (v counts), or None if none exists."""
        cur = v
        visited = []
        while cur != -1 and not self.marked[cur]:
            visited.append(cur)
            s = self.skip[cur]
            if s is not None and not self.marked[s]:
                cur = s
            else:
                cur = self.parent[cur]
        if visited and cur != -1:
            fringe = visited[-1]
            for x in visited:
                if x != fringe:
                    self.skip[x] = fringe
        return None if cur == -1 else cur
