"""Prepend-only suffix tree maintained Weiner-style, plus the fringe
marked-ancestor structure.

The text grows by prepending, so positions are counted from the right end:
after k prepends, position j holds the character j+1 places from the right,
and existing edge labels never shift.  Edge labels are (hi, lo) position
ranges read downward, with position -1 standing for the sentinel.

An a-link W_a(u) points to the locus of a*str(u) when that string occurs.
The link is hard when the locus is a node, soft when it lies inside an edge
(then it points to the edge's lower end); which one follows from the
target's string depth.  A leaf's links are derived, not stored: leaf k
spells the text from position k - 1 down, so for k < n its one link is the
hard link to leaf k + 1 under letter buf[k], read from the tree's `leaves`
list.  An inner node stores its a-links in a per-node map from the letter a
to a node; `links_of` serves both kinds.  Soft links are stored eagerly and
copied to the middle node whenever an edge splits.  Each node keeps the set
of source nodes whose soft links aim at it, which makes the retargeting
explicit; their letter is implied, since it is the first letter of the
target's string.  Containers exist only where used: every leaf shares one
read-only empty `children` map, and `rev_soft` is one shared empty
frozenset until a soft link aims at the node.

Checks read no label: `canonical()` is the flat form `CompactedTrie.canonical`
gives a fresh build, and `audit_links()` tests each label and a-link in O(1);
so each costs O(nodes + links), apart from canonical()'s child sorts.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import AlphabetOverflowError, MarkOrderViolationError
from .instrument import GLOBAL
from .text import SENTINEL

_NO_CHILDREN = MappingProxyType({})  # every leaf's: a suffix-tree leaf never gains a child
_NO_SOFT = frozenset()               # rev_soft until a soft link aims at the node


class _ONode:
    __slots__ = ("parent", "hi", "lo", "sdepth", "children", "links",
                 "rev_soft", "leaf_id")

    def __init__(self, parent, hi, lo, sdepth, leaf_id=-1):
        self.parent = parent
        self.hi = hi
        self.lo = lo
        self.sdepth = sdepth
        self.rev_soft = _NO_SOFT  # source nodes whose soft link aims here
        self.leaf_id = leaf_id
        if leaf_id >= 0:
            self.children = _NO_CHILDREN
            self.links = None     # derived, see OnlineSuffixTree.links_of
        else:
            self.children = {}
            self.links = {}       # letter -> node; hard iff its sdepth is sdepth + 1

    @property
    def label_len(self):
        return self.hi - self.lo + 1

    @property
    def is_leaf(self):
        return self.leaf_id >= 0


class OnlineSuffixTree:
    """Suffix tree of the current text; `prepend` adds one letter in front."""

    def __init__(self, sigma: int):
        self.sigma = sigma
        self.buf: list[int] = []
        self.n = 0
        root = _ONode(None, 0, 1, 0)  # empty label
        leaf0 = _ONode(root, -1, -1, 1, leaf_id=0)  # the sentinel suffix
        root.children[SENTINEL] = leaf0
        self.root = root
        self.leaves = [leaf0]  # leaf id -> leaf
        self.active = leaf0  # leaf of the longest suffix

    def char(self, pos: int) -> int:
        return self.buf[pos] if pos >= 0 else SENTINEL

    def links_of(self, v) -> dict:
        """v's a-links, letter -> node: an inner node's own map, or a new
        map holding a leaf's derived link."""
        if v.links is not None:
            return v.links
        k = v.leaf_id
        return {self.buf[k]: self.leaves[k + 1]} if k < self.n else {}

    def prepend(self, a: int):
        if not 1 <= a <= self.sigma:
            raise AlphabetOverflowError(f"char {a} outside [1, {self.sigma}]")
        n = self.n
        self.buf.append(a)  # position n now holds the new front letter
        root = self.root
        leaf = self.active

        # lowest ancestor of the active leaf with an a-link; the leaf itself
        # has none until the new leaf below makes its derived one
        chain = []
        v = leaf.parent
        GLOBAL.oracle_steps += 1
        while v is not root and a not in v.links:
            chain.append(v)
            v = v.parent
            GLOBAL.oracle_steps += 1
        u = v

        if a in u.links:
            target = u.links[a]
            head_depth = u.sdepth + 1
            if target.sdepth == head_depth:
                attach = target
            else:
                on_active_path = target is leaf or target in chain
                attach = self._split(target, head_depth)
                if on_active_path:
                    # the middle node is itself an ancestor of the old
                    # active leaf, so a*str(mid) prefixes the new suffix
                    chain.append(attach)
        else:
            chain.append(u)  # the root gets its first a-link below
            head_depth = 0
            attach = root

        # hang the new longest suffix below the head
        first = self.char(n - head_depth)
        assert first not in attach.children, "head was not maximal"
        newleaf = _ONode(attach, n - head_depth, -1, n + 2, leaf_id=n + 1)
        attach.children[first] = newleaf
        self.leaves.append(newleaf)
        GLOBAL.oracle_steps += 1

        # every walked ancestor now has a*str(y) on the new leaf edge: the
        # old active leaf by derivation, every inner y by a soft link, since
        # an inner node lies at most n deep
        for y in chain:
            y.links[a] = newleaf
        if chain:
            newleaf.rev_soft = set(chain)
        GLOBAL.oracle_steps += len(chain) + 1

        self.active = newleaf
        self.n = n + 1

    def _split(self, t, depth):
        """Split the edge into t at string depth `depth`; returns the new
        middle node.  Copies every link of t to the middle as a soft link
        and retargets soft links whose locus falls in the upper part."""
        p = t.parent
        offset = depth - p.sdepth
        assert 0 < offset < t.label_len
        b = self.char(t.hi + p.sdepth)  # the letter of every soft link into t
        mid = _ONode(p, t.hi, t.hi - offset + 1, depth)
        p.children[self.char(t.hi)] = mid
        t.hi -= offset
        t.parent = mid
        mid.children[self.char(t.hi)] = t
        for c, tc in self.links_of(t).items():
            mid.links[c] = tc
            if tc.rev_soft:
                tc.rev_soft.add(mid)
            else:
                tc.rev_soft = {mid}
            GLOBAL.oracle_steps += 1
        soft_into_mid = []
        for q in list(t.rev_soft):
            locus = q.sdepth + 1
            if locus > depth:
                continue
            t.rev_soft.discard(q)
            q.links[b] = mid
            if locus < depth:
                soft_into_mid.append(q)
            GLOBAL.oracle_steps += 1
        if not t.rev_soft:
            t.rev_soft = _NO_SOFT
        if soft_into_mid:
            mid.rev_soft = set(soft_into_mid)
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
        """Check labels, child keys and a-links in O(nodes + links), raising
        AssertionError.  Preorder numbers put the leaves below v in [pre(v),
        end(v)]; leaf q spells the text from position q - 1 down.  A label is
        anchored: its length is the depth step and leaf hi + 1 + sdepth(parent)
        lies below it.  For a leaf q below t, str(t) starts with b*str(v), as
        a link v -b-> t says, iff char(q - 1) == b and leaf q - 1 lies below
        v.  Given a canonical form equal to a fresh build's, anchored labels
        read the same letters, so every label and link is right.  A leaf's
        derived link is checked as a stored one, once `leaves` is shown to
        list the tree's leaves by id."""
        n = self.n
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
        leaves = self.leaves
        if len(leaves) != n + 1 or any(order[leaf_pre[k]] is not leaf
                                       for k, leaf in enumerate(leaves)):
            raise AssertionError("leaves[k] is not the tree's leaf k")
        end = list(range(len(order)))  # last preorder number below each node, a leaf
        for i in range(len(order) - 1, 0, -1):
            p = pre[id(order[i].parent)]
            end[p] = max(end[p], end[i])

        def below(q, i):
            return 0 <= q <= n and i <= leaf_pre[q] <= end[i]

        for i, v in enumerate(order):
            links = self.links_of(v)
            p = v.parent
            if p is None:
                if v.rev_soft:
                    raise AssertionError("a soft link aims at the root")
            else:
                if not (0 < v.label_len == v.sdepth - p.sdepth):
                    raise AssertionError("label length off the depth step")
                if not below(v.hi + 1 + p.sdepth, i):
                    raise AssertionError("label names no leaf below its node")
                if p.children.get(self.char(v.hi)) is not v:
                    raise AssertionError("child key differs from its label")
                if not (p is self.root or links.keys() <= p.links.keys()):
                    raise AssertionError("link sets must be monotone upward")
                b = self.char(v.hi + p.sdepth)
                if not all(id(q) in pre and q.sdepth + 1 != v.sdepth
                           and self.links_of(q).get(b) is v for q in v.rev_soft):
                    raise AssertionError("reverse soft set holds a node that is not its soft source")
            for b, t in links.items():
                j = pre.get(id(t))
                if not j:
                    raise AssertionError("an a-link aims at the root (numbered 0) or outside the tree")
                depth = v.sdepth + 1
                if t.sdepth != depth:
                    if not (t.parent.sdepth < depth < t.sdepth):
                        raise AssertionError("soft locus outside edge")
                    if v not in t.rev_soft:
                        raise AssertionError("reverse soft set out of sync")
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
