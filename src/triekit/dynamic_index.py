"""Amortized dynamic compacted-trie search structure.

The trie is split into a heavy top (nodes with more than sigma/2 leaves,
always containing the root) and light small trees hanging off it.  Each node
keeps one child step, the lookup `search` makes at it in the shared walk
`CompactedTrie.descend`.  A heavy node steps by a size-(sigma + 1)
`ChildArray` over all children when sigma + 1 <= A, A being `ARRAY_CELLS`,
the small-alphabet rule the static engine shares (then every heavy node has
one: at most 2n nodes, so at most 2An cells), when it has two or more heavy
children (at most 2n/sigma nodes), and at the root once
A * occ[root] >= sigma + 1, occ[root] being the number of stored strings;
above A cells the arrays hold at most An + 1 + (sigma + 1) * 2n/sigma
cells, so O(n) for every sigma.  Any other heavy node steps by a
`_HeavyPointer`: a heavy-child pointer, then a wexponential-tree predecessor
(`DynamicPredecessor`), as in the paper.  The step's `pred` is the node's
one predecessor slot over its children's first characters: that
`DynamicPredecessor`, or at an array node a tree of 64-bit words
(`BitPredecessor`, at most (sigma + 1)/63 + 6 more cells; a query reads at
most two words on each of its ceil(log_64 (sigma + 1)) levels, at most 6
levels for sigma < 2^32) when sigma + 1 >= 8, and nothing below that, where
no node has 8 children.  Besides the pointer step only `predecessor` asks
it, ascending from where its plain walk down the children maps (the walk
`insert` takes) left the trie, at a node with 8 or more children; it scans
the others.

Light nodes carry the per-small-tree machinery: a level in the capacity
hierarchy, fragments (maximal same-level connected subtrees) weighed by the
leaf count of their roots, and a `_LightStep` holding a deterministic
dictionary over same-level child edges and a wexponential search tree over
lower-level child edges whose stored weights track the true weights within
[ceil(sqrt(w)), w].  The dictionary exists only while a node at level 1 or
above has a same-level child, and the tree only from its first lower-level
child on.  A level-0 node keeps neither: its level window (fewer than
2*f(1) = 4 leaves) leaves it at most 3 children, all same-level, and its
step reads its children map, charging each entry as a cell.  All leaves
share one step.

No state is stored that the rest determines: every weight that promotions
and rebalances read is the leaf count `occ` that match reporting keeps
anyway, a fragment's members are the nodes whose `frag` entry is its
record, and a small tree's root is the root of the topmost fragment above a
node, the one whose parent is heavy.

All rebuild work (small-tree rebalancing at sigma leaves, fragment
promoting at 2*f(level+1)) is eager and atomic: the amortized variant.
"""

from __future__ import annotations

import os
from math import isqrt

from .errors import DuplicateKeyError, InvalidInputError
from .instrument import GLOBAL
from .predkit import BitPredecessor, DetDictionary, DynamicPredecessor
from .text import (ARRAY_CELLS, SENTINEL, ChildArray, CompactedTrie, MatchResult, check_codes,
                   checked)
from .wexp import WexpTree, audit_wexp, capacity


# Below 2*f(2) keys a dynamic predecessor is one linear scan (a wexp base
# container), so `_ascend` scans a heavy node's children itself.
_PRED_MIN_KIDS = 2 * capacity(2)


def _ceil_sqrt(w: int) -> int:
    r = isqrt(w)
    return r if r * r == w else r + 1


def canonical_level(weight: int) -> int:
    """Highest level whose proper threshold 2*f(level) the weight meets."""
    level = 0
    while weight >= 2 * capacity(level + 1):
        level += 1
    return level


class _Fragment:
    """Maximal connected same-level subtree, named by its root; its weight
    is the root's `occ`.  Below a light parent p the root's edge is
    registered in p's wexp tree (`child_step[p].tree`) under `handle`."""

    __slots__ = ("root", "handle")

    def __init__(self, root):
        self.root = root
        self.handle = None


class _HeavyPointer:
    """Child step at a heavy node without an array: the heavy-child pointer
    (c, child), then the DynamicPredecessor, whose hit reads the children."""

    __slots__ = ("heavy_kid", "pred", "kids")

    def __init__(self, heavy_kid, pred, kids):
        self.heavy_kid = heavy_kid
        self.pred = pred
        self.kids = kids

    def lookup(self, c):
        if self.heavy_kid[0] == c:
            return self.heavy_kid[1]
        if self.pred.query(c) == c:
            return self.kids[c]
        return None


class _LightStep:
    """Child step at a light node: the same-level dictionary, then the wexp
    tree, whose hit reads the children.  A node with neither (level 0)
    reads its children map and charges each entry as a cell."""

    __slots__ = ("kids", "same", "tree")

    def __init__(self, kids):
        self.kids = kids
        self.same = None
        self.tree = None

    def lookup(self, c):
        same = self.same
        tree = self.tree
        if same is None and tree is None:
            kids = self.kids  # at most 3, all same-level
            if kids:
                GLOBAL.dict_probes += 1
                GLOBAL.dict_cell_probes += len(kids)
            return kids.get(c)
        if same is not None:
            GLOBAL.dict_probes += 1
            child = same.lookup(c)
            if child is not None or tree is None:
                return child
        hit = tree.pred(c)
        return self.kids[c] if hit is not None and hit[0] == c else None


# A leaf never gains a child, so every light leaf shares one step.
_LEAF_STEP = _LightStep({})


class DynTrieIndex:
    """Dynamic trie over distinct strings with alphabet size sigma."""

    def __init__(self, sigma: int):
        if sigma < 1:
            raise InvalidInputError(f"sigma {sigma} below 1")
        self.sigma = sigma
        self.trie = CompactedTrie(sources=[])
        self.heavy = [True]  # the root is permanently heavy
        self.level = [0]
        self.frag: list[_Fragment | None] = [None]
        # a ChildArray or _HeavyPointer per heavy node, a _LightStep per light one
        self.child_step: list[ChildArray | _HeavyPointer | _LightStep | None] = [None]
        self.occ: list[int] = [0]  # leaves below each node, for match reporting
        self.audit_each = os.environ.get("TRIEKIT_AUDIT") == "1"
        self._make_heavy(self.trie.ROOT)
        self._set_heavy_child_links(self.trie.ROOT)

    # ------------------------------------------------------------- plumbing

    def _grow(self, node_id):
        while len(self.heavy) <= node_id:
            self.heavy.append(False)
            self.level.append(0)
            self.frag.append(None)
            self.child_step.append(None)
            self.occ.append(0)

    def _edge_char(self, v) -> int:
        nd = self.trie.nodes[v]
        return self.trie.sources[nd.sid][nd.start]

    def _rebuild_same_dict(self, v):
        """Dictionary over v's same-level children; a level-0 node keeps none."""
        lv = self.level[v]
        pairs = [(c, ch) for c, ch in self.trie.nodes[v].children.items()
                 if lv and not self.heavy[ch] and self.level[ch] == lv]
        self.child_step[v].same = DetDictionary(pairs) if pairs else None

    def _register_child(self, v, child, weight) -> int:
        """Register lower-level child's fragment root in v's wexp tree with
        stored weight ceil(sqrt(weight)); returns the raises made.  Reuses a
        stale handle when its edge character was registered (no deletions)."""
        c = self._edge_char(child)
        step = self.child_step[v]
        tree = step.tree
        if tree is None:
            tree = step.tree = WexpTree(self.sigma + 1)
        h = tree.handles.get(c)
        if h is None:
            h = tree.insert(c)
        self.frag[child].handle = h
        target = _ceil_sqrt(weight)
        raises = 0
        while h.weight < target:
            tree.increase(h)
            raises += 1
        return raises

    def _make_light(self, v, level, fragment):
        self.heavy[v] = False
        self.level[v] = level
        self.frag[v] = fragment
        kids = self.trie.nodes[v].children
        self.child_step[v] = _LightStep(kids) if kids else _LEAF_STEP

    def _make_heavy(self, v):
        """Mark v heavy; `_set_heavy_child_links` then builds its links."""
        self.heavy[v] = True
        self.frag[v] = None

    def _has_array(self, v, n_heavy_kids) -> bool:
        """Whether heavy node v keeps a sigma+1 array over all its children."""
        cells = self.sigma + 1
        return cells <= ARRAY_CELLS or n_heavy_kids >= 2 or (
            v == self.trie.ROOT and ARRAY_CELLS * self.occ[v] >= cells)

    def _set_heavy_child_links(self, v):
        """Give heavy node v an array (with bit words at sigma + 1 >= 8), or
        a heavy-child pointer and a DynamicPredecessor, as `_has_array`
        rules."""
        children = self.trie.nodes[v].children
        kids = [(c, ch) for c, ch in children.items() if self.heavy[ch]]
        cells = self.sigma + 1
        if self._has_array(v, len(kids)):
            pred = BitPredecessor(cells) if cells >= _PRED_MIN_KIDS else None
            self.child_step[v] = ChildArray(cells, children, pred)
        else:
            pred = DynamicPredecessor(cells)
            self.child_step[v] = _HeavyPointer(kids[0] if kids else (-1, None), pred, children)
        if pred is not None:
            for c in children:
                pred.insert(c)

    def _note_new_heavy_child(self, u, child):
        """Child of heavy node u has just become heavy; update u's links."""
        step = self.child_step[u]
        if type(step) is ChildArray:
            return  # the array already holds every child
        if step.heavy_kid[1] is None:
            step.heavy_kid = (self._edge_char(child), child)
        else:
            self._set_heavy_child_links(u)  # a second heavy child

    # --------------------------------------------------------------- insert

    def insert(self, codes):
        """Insert one string, given as any iterable of codes; it is stored
        as a list that ends in SENTINEL."""
        self.trie.sources.append(checked(codes, self.sigma))
        try:
            leaf, mid, attach = self.trie.insert_path(len(self.trie.sources) - 1)
        except DuplicateKeyError:
            self.trie.sources.pop()  # insert_path raises before touching a node
            raise
        self._grow(max(leaf, mid if mid is not None else 0))
        v = leaf
        while v != -1:
            self.occ[v] += 1
            v = self.trie.nodes[v].parent
        root = self.trie.ROOT
        if type(self.child_step[root]) is not ChildArray and self._has_array(root, 0):
            self._set_heavy_child_links(root)

        if mid is not None:
            self._wire_mid(attach, mid, leaf)
        else:
            self._wire_leaf(attach, leaf)
        self._reweigh_and_trigger(leaf)
        if self.audit_each:
            self.audit()

    def _wire_leaf(self, u, leaf):
        """New leaf directly under existing node u."""
        if self.heavy[u]:
            self._make_light(leaf, 0, _Fragment(leaf))
            c = self._edge_char(leaf)
            step = self.child_step[u]
            if type(step) is ChildArray:
                step[c] = leaf
            if step.pred is not None:
                step.pred.insert(c)
        elif self.level[u] == 0:
            self._make_light(leaf, 0, self.frag[u])
        else:
            self._make_light(leaf, 0, _Fragment(leaf))
            self._register_child(u, leaf, 1)  # stored weight 1: no raise

    def _wire_mid(self, u, mid, leaf):
        """Edge (u, w) was split at new node mid; leaf hangs under mid."""
        trie = self.trie
        w = next(ch for ch in trie.nodes[mid].children.values() if ch != leaf)
        self.occ[mid] += self.occ[w]  # the new leaf, counted already, and w's
        c_mid = self._edge_char(mid)
        step = self.child_step[u]
        if type(step) is ChildArray:
            step[c_mid] = mid
        if self.heavy[w]:
            # mid has all of w's leaves plus one: keep the heavy top connected
            self._make_heavy(mid)
            self._set_heavy_child_links(mid)
            if type(step) is _HeavyPointer and step.heavy_kid[0] == c_mid:
                step.heavy_kid = (c_mid, mid)
            self._wire_leaf(mid, leaf)
            return
        # light w: mid adopts w's level and fragment
        fragment = self.frag[w]
        was_root = fragment.root == w
        self._make_light(mid, self.level[w], fragment)
        if was_root:
            fragment.root = mid
        if self.level[w]:
            # w is mid's one same-level child; level-0 mid and u keep no dict
            self._rebuild_same_dict(mid)
            if not was_root:
                # u is light and same level as w: its entry for c_mid now leads to mid
                step.same.repoint(c_mid, mid)
        self._wire_leaf(mid, leaf)

    def _reweigh_and_trigger(self, leaf):
        """After `occ` counts a new leaf: raise the stored weights of the
        fragments above it into their windows, top-down, then rebalance or
        promote as their leaf counts demand."""
        occ = self.occ
        nodes = self.trie.nodes
        frags = self._fragments_above(leaf)
        for f in reversed(frags):
            h = f.handle
            if h is not None and h.weight < _ceil_sqrt(occ[f.root]):
                self.child_step[nodes[f.root].parent].tree.increase(h)
        if frags and occ[frags[-1].root] >= self.sigma:
            # the topmost fragment's root hangs off the heavy top: it is
            # the root of the small tree
            self._rebalance(frags[-1].root)
            return
        while True:
            for f in self._fragments_above(leaf):
                if occ[f.root] >= 2 * capacity(self.level[f.root] + 1):
                    self._promote(f)
                    break
            else:
                return

    def _fragments_above(self, node):
        """Fragments from node's up to the one whose root has a heavy parent."""
        out = []
        v = node
        while v != -1 and not self.heavy[v]:
            f = self.frag[v]
            out.append(f)
            v = self.trie.nodes[f.root].parent
        return out

    # ------------------------------------------------------------ promoting

    def _promote(self, fragment):
        """Raise the level of the over-weight tail of `fragment` by one."""
        GLOBAL.promotions += 1
        trie = self.trie
        occ = self.occ
        r = fragment.root
        lv = self.level[r]
        threshold = capacity(lv + 1)
        # the tail: maximal descending chain of members heavier than
        # f(lv+1); every other member child of a tail node roots a new
        # fragment at level lv
        tail = []
        new_roots = []
        cur = r
        while cur is not None:
            tail.append(cur)
            self.level[cur] = lv + 1
            nxt = None
            for ch in trie.nodes[cur].children.values():
                GLOBAL.promote_steps += 1
                if self.frag[ch] is not fragment:
                    continue
                if occ[ch] > threshold:
                    assert nxt is None, "two over-weight children cannot coexist"
                    nxt = ch
                else:
                    new_roots.append((cur, ch))
            cur = nxt

        # split the remainder of the old fragment into new fragments; a
        # new root's subtree holds no tail node
        for _, root_ch in new_roots:
            nf = _Fragment(root_ch)
            stack = [root_ch]
            while stack:
                v = stack.pop()
                self.frag[v] = nf
                GLOBAL.promote_steps += 1
                for ch in trie.nodes[v].children.values():
                    if self.frag[ch] is fragment:
                        stack.append(ch)

        # the tail joins its parent's fragment or keeps the old record,
        # whose root and registration are still its own
        p = trie.nodes[r].parent
        if not self.heavy[p] and self.level[p] == lv + 1:
            pf = self.frag[p]
            for x in tail:
                self.frag[x] = pf
            self._rebuild_same_dict(p)  # r's edge moves into the parent's dict

        # per tail node: same-level dict is just the next tail node, so it
        # changes only where former same-level children left (as at every
        # internal node of a tail lifted out of level 0, which had no dict);
        # they register in the wexp tree
        for x in dict.fromkeys(x for x, _ in new_roots):
            self._rebuild_same_dict(x)
        for x, ch in new_roots:
            GLOBAL.promote_steps += self._register_child(x, ch, occ[ch])

    # ----------------------------------------------------------- rebalancing

    def _rebalance(self, root):
        """Small tree at `root` reached sigma leaves: carve out the new
        heavy top and rebuild every remaining light payload from scratch."""
        trie = self.trie
        occ = self.occ
        u = trie.nodes[root].parent
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            GLOBAL.rebalance_steps += 1
            order.append(v)
            stack.extend(trie.nodes[v].children.values())
        half = self.sigma / 2
        new_heavy = [v for v in order if occ[v] > half]
        for v in new_heavy:
            self._make_heavy(v)
        for v in new_heavy:
            self._set_heavy_child_links(v)
        if u != -1:
            self._note_new_heavy_child(u, root)
        # remaining light nodes: fresh levels and fragments
        for v in order:
            if self.heavy[v]:
                continue
            p = trie.nodes[v].parent
            GLOBAL.rebalance_steps += 1
            lv = canonical_level(occ[v])
            if self.heavy[p] or self.level[p] != lv:
                fragment = _Fragment(v)
            else:
                fragment = self.frag[p]
            self._make_light(v, lv, fragment)
        for v in order:
            if self.heavy[v] or not trie.nodes[v].children:
                continue
            self._rebuild_same_dict(v)
            for ch in trie.nodes[v].children.values():
                if self.level[ch] != self.level[v]:
                    GLOBAL.rebalance_steps += self._register_child(v, ch, occ[ch])

    # ---------------------------------------------------------------- search

    def search(self, pattern: list[int]) -> MatchResult:
        """Prefix search; the interval is (0, occ-1): the dynamic structure
        maintains no global leaf ranks, only the matched set.

        At a heavy node with an array the step is one cell read, and an empty
        cell is a miss; only a heavy node without one asks its dynamic
        predecessor, for a character that is not its heavy child's."""
        check_codes(pattern, self.sigma)
        trie = self.trie
        if self.occ[trie.ROOT] == 0:
            return MatchResult(trie.ROOT, 0, None, 0)
        v, offset, matched, _ = trie.descend(self.child_step, pattern)
        if matched < len(pattern):
            return MatchResult(v, offset, None, matched)
        return MatchResult(v, offset, (0, self.occ[v] - 1), matched)

    def enumerate_match(self, res: MatchResult) -> list[int]:
        """String ids under the match locus, in lexicographic order."""
        if not res.matched:
            return []
        trie = self.trie
        out = []
        stack = [res.node]
        while stack:
            v = stack.pop()
            nd = trie.nodes[v]
            if nd.is_leaf:
                out.append(nd.leaf_id)
            else:
                for _, ch in sorted(nd.children.items(), reverse=True):
                    stack.append(ch)
        return out

    # ------------------------------------------------------------ predecessor

    def predecessor(self, pattern: list[int]):
        """String id of the largest stored string <= pattern, or None."""
        check_codes(pattern, self.sigma)
        trie = self.trie
        v, offset, matched, _ = trie.descend(trie.nodes, pattern)
        # x: the next character of the pattern as stored, sentinel-terminated
        x = pattern[matched] if matched < len(pattern) else SENTINEL
        nd = trie.nodes[v]
        if offset:  # the walk stopped inside v's label, at character c
            c = trie.sources[nd.sid][nd.start + offset]
            if x == c:
                return nd.leaf_id  # both sentinels: the pattern is stored
            if x > c:
                return self._rightmost(v)
            return self._ascend(nd.parent, self._edge_char(v))
        leaf = nd.children.get(x)
        if leaf is not None:
            return trie.nodes[leaf].leaf_id  # x is the sentinel: the pattern is stored
        return self._ascend(v, x)

    def _ascend(self, v, below_char):
        """Rightmost leaf preceding the subtrees at or above (v, below_char)."""
        trie = self.trie
        while True:
            kids = trie.nodes[v].children
            if self.heavy[v] and len(kids) >= _PRED_MIN_KIDS:
                c = self.child_step[v].pred.query(below_char - 1) if below_char else None
            else:
                cands = [k for k in kids if k < below_char]
                c = max(cands) if cands else None
            if c is not None:
                return self._rightmost(kids[c])
            if v == trie.ROOT:
                return None
            below_char = self._edge_char(v)
            v = trie.nodes[v].parent

    def _rightmost(self, v):
        trie = self.trie
        while not trie.nodes[v].is_leaf:
            kids = trie.nodes[v].children
            v = kids[max(kids)]
        return trie.nodes[v].leaf_id

    def string_codes(self, sid: int) -> list[int]:
        """The codes of stored string `sid`, without its sentinel."""
        return self.trie.sources[sid][:-1]

    # ----------------------------------------------------------------- audit

    def audit(self):
        """Full structural audit; raises AssertionError on violations."""
        trie = self.trie
        order = trie.topo_order()
        counts = {}
        for v in reversed(order):
            nd = trie.nodes[v]
            counts[v] = 1 if nd.is_leaf else sum(counts[ch] for ch in nd.children.values())
        if not self.heavy[trie.ROOT]:
            raise AssertionError
        for v in order:
            nd = trie.nodes[v]
            if self.occ[v] != counts[v]:
                raise AssertionError("stale leaf-count payload")
            if v != trie.ROOT and not nd.is_leaf:
                if len(nd.children) < 2:
                    raise AssertionError("compactedness violated")
            for c, ch in nd.children.items():
                kid = trie.nodes[ch]
                if trie.sources[kid.sid][kid.start] != c or kid.parent != v:
                    raise AssertionError
            if self.heavy[v]:
                if not (v == trie.ROOT or counts[v] > self.sigma / 2):
                    raise AssertionError("underweight heavy node")
                p = nd.parent
                if not (p == -1 or self.heavy[p]):
                    raise AssertionError("heavy set must be connected")
                heavy_kids = [(c, ch) for c, ch in nd.children.items() if self.heavy[ch]]
                step = self.child_step[v]
                arr = step if type(step) is ChildArray else None
                if arr is None and type(step) is not _HeavyPointer:
                    raise AssertionError("a heavy node steps by an array or a heavy pointer")
                pred = step.pred
                kind = (DynamicPredecessor if arr is None else BitPredecessor
                        if self.sigma + 1 >= _PRED_MIN_KIDS else type(None))
                if type(pred) is not kind:
                    raise AssertionError("a DynamicPredecessor iff no array, bit words "
                                         "iff an array and sigma + 1 >= 8, else none")
                if pred is not None and sorted(nd.children) != pred.keys():
                    raise AssertionError("predecessor keys differ from child chars")
                if kind is BitPredecessor:
                    pred.audit()
                if self._has_array(v, len(heavy_kids)):
                    if not (arr is not None and len(arr) == self.sigma + 1):
                        raise AssertionError("heavy node lacks its array")
                    for c, ch in nd.children.items():
                        if arr[c] != ch:
                            raise AssertionError("array cell differs from the child")
                    if len(arr) - arr.count(None) != len(nd.children):
                        raise AssertionError("array holds a cell for a non-child character")
                else:
                    if arr is not None:
                        raise AssertionError("array at a heavy node the rule gives none")
                    if step.heavy_kid != (heavy_kids[0] if heavy_kids else (-1, None)):
                        raise AssertionError
                    if step.kids is not nd.children:
                        raise AssertionError("heavy pointer reads another children map")
                continue
            # light node checks
            if counts[v] >= self.sigma:
                raise AssertionError("overweight light node")
            lv = self.level[v]
            f = self.frag[v]
            if f is None:
                raise AssertionError("light node without a fragment record")
            p = nd.parent
            if f.root == v:
                if not (self.heavy[p] or self.level[p] > lv):
                    raise AssertionError("fragment not maximal")
                if not self.heavy[p]:
                    h = f.handle
                    ptree = self.child_step[p].tree
                    if h is None or ptree is None or h is not ptree.handles.get(self._edge_char(v)):
                        raise AssertionError("fragment root not registered in its parent's wexp")
                    if not (_ceil_sqrt(counts[v]) <= h.weight <= counts[v]):
                        raise AssertionError("stored weight outside [ceil(sqrt(w)), w]")
            else:
                if not (not self.heavy[p] and self.level[p] == lv and self.frag[p] is f):
                    raise AssertionError
            low = capacity(lv) if lv >= 1 else 1
            if not (low <= counts[v] < 2 * capacity(lv + 1)):
                raise AssertionError("level window violated")
            if not self.heavy[p]:
                if self.level[p] < lv:
                    raise AssertionError("levels must not increase downward")
            # above level 0 a same-level dict iff same-level children, covering
            # them; each lower-level child sits in the wexp tree made on first use
            same = {c for c, ch in nd.children.items()
                    if not self.heavy[ch] and self.level[ch] == lv}
            step = self.child_step[v]
            kids = _LEAF_STEP.kids if nd.is_leaf else nd.children
            if type(step) is not _LightStep or step.kids is not kids:
                raise AssertionError("light step reads another children map")
            sd, tree = step.same, step.tree
            if lv == 0:
                if sd is not None or len(nd.children) > 3:
                    raise AssertionError("a level-0 node keeps no dict and at most 3 children")
            elif (sd is None) != (not same):
                raise AssertionError("same-level dict must exist exactly for same-level kids")
            if not (not nd.is_leaf or tree is None):
                raise AssertionError("leaf holds a wexp tree")
            for c, ch in nd.children.items():
                if c in same:
                    if lv and sd.lookup(c) != ch:
                        raise AssertionError
                else:
                    if not (sd is None or sd.lookup(c) is None):
                        raise AssertionError
                    if self.level[ch] >= lv:
                        raise AssertionError
                    if not (tree is not None and c in tree.handles):
                        raise AssertionError("lower-level child missing from wexp")
            if tree is not None:
                audit_wexp(tree)
