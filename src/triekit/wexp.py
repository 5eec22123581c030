"""Weighted exponential search trees.

A level-L tree keeps total weight below 2*f(L+1) for f(L) = floor(2^(1.5^L)).
Splitter elements sit in a static predecessor structure whose query answers
a splitter's index; the child slots between consecutive splitters hold
nothing or a tree of any lower level.  Trees of level <= 1 are plain sorted
arrays (f(0) = f(1) = 2 makes the recursion degenerate there), and every
tree of level >= 2 holds at least one splitter, so no level is kept empty.
A level-l tree weighs below 2*f(l+1) <= 2*f(L), so it fits any slot of a
level-L node, and a search still visits at most one node per level.
Splits are eager and atomic: the amortized variant.

Supported: weight-1 insert, handle-based weight increase by one, weighted
predecessor search.  No deletions, no weight decreases.

Each tree owns its key->element map `handles`: it answers membership and
handle validity, and nothing else stores the keys a second time.
"""

from __future__ import annotations

from math import isqrt

from .errors import DuplicateKeyError, InvalidHandleError
from .instrument import GLOBAL
from .predkit import StaticPredecessor


def _capacity_table() -> list[int]:
    # f(L) = floor(2^(1.5^L)) = isqrt applied L times to 2^(3^L)
    table = []
    level = 0
    while True:
        v = 1 << (3 ** level)
        for _ in range(level):
            v = isqrt(v)
        table.append(v)
        if v > 1 << 66:
            return table
        level += 1


CAPACITY = _capacity_table()
MAX_LEVEL = len(CAPACITY) - 1


def capacity(level: int) -> int:
    return CAPACITY[min(level, MAX_LEVEL)]


# WEIGHT_LIMIT[level] = 2*f(level+1): a level-`level` tree splits, and a
# dynamic-trie fragment at that level promotes, once its weight reaches it
WEIGHT_LIMIT = [2 * capacity(level + 1) for level in range(MAX_LEVEL + 1)]


class ElementHandle:
    """Record for one stored element; `home` tracks the node (or base
    container) currently holding it and is updated whenever it moves."""

    __slots__ = ("key", "weight", "home")

    def __init__(self, key: int):
        self.key = key
        self.weight = 1
        self.home = None

    def __repr__(self):
        return f"ElementHandle(key={self.key}, weight={self.weight})"


class _Base:
    """Level-<=1 tree: sorted array with linear scan, weight < 2*f(2)."""

    __slots__ = ("items", "weight", "parent")
    level = 1

    def __init__(self, items, parent=None):
        self.items = items
        self.weight = sum(e.weight for e in items)
        self.parent = parent
        for e in items:
            e.home = self


class _Node:
    """Level->=2 tree: at least one splitter, and one child slot between and
    around each; a slot holds None or a tree of any lower level."""

    __slots__ = ("level", "weight", "splitters", "children", "pred", "parent")

    def __init__(self, level, splitters, children, u, parent=None):
        self.level = level
        self.splitters = splitters
        self.children = children
        self.parent = parent
        self.weight = sum(e.weight for e in splitters) + sum(
            c.weight for c in children if c is not None
        )
        for e in splitters:
            e.home = self
        for c in children:
            if c is not None:
                c.parent = self
        self.pred = StaticPredecessor([e.key for e in splitters], u)


class WexpTree:
    """Weighted predecessor structure over integer keys in [0, u)."""

    def __init__(self, u: int):
        self.u = u
        self.root = _Base([])
        self.handles: dict[int, ElementHandle] = {}

    # ------------------------------------------------------------------ ops

    def insert(self, key: int) -> ElementHandle:
        """Insert `key` with weight one; returns its handle."""
        if key in self.handles:
            raise DuplicateKeyError(f"key {key} already present")
        node = self.root
        while isinstance(node, _Node):
            i = node.pred.query(key) + 1
            child = node.children[i]
            if child is None:
                child = node.children[i] = _Base([], node)
            node = child
        elem = ElementHandle(key)
        i = 0
        items = node.items
        while i < len(items) and items[i].key < key:
            i += 1
        items.insert(i, elem)
        elem.home = node
        self.handles[key] = elem
        self._bump(node)
        return elem

    def increase(self, handle: ElementHandle) -> None:
        """Increase the weight of `handle`'s element by one."""
        if self.handles.get(handle.key) is not handle:
            raise InvalidHandleError("handle does not belong to this tree")
        handle.weight += 1
        self._bump(handle.home)

    def pred(self, x: int):
        """(key, weight) of the largest key <= x, or None."""
        node = self.root
        best = None
        while isinstance(node, _Node):
            GLOBAL.wexp_levels_descended += 1
            i = node.pred.query(x)
            if i >= 0:
                e = node.splitters[i]
                if e.key == x:
                    return (e.key, e.weight)
                best = e
            child = node.children[i + 1]
            if child is None:
                break
            node = child
        if isinstance(node, _Base):
            GLOBAL.wexp_levels_descended += 1
            found = None
            for e in node.items:
                if e.key <= x:
                    found = e
                else:
                    break
            if found is not None:
                return (found.key, found.weight)
        return None if best is None else (best.key, best.weight)

    # ------------------------------------------------------------ internals

    def _bump(self, node):
        """Propagate a +1 weight from `node` to the root, splitting any tree
        whose total weight reaches 2*f(level+1)."""
        while node is not None:
            node.weight += 1
            parent = node.parent
            if node.weight >= WEIGHT_LIMIT[node.level]:
                self._split(node)
            node = parent

    def _split(self, node):
        GLOBAL.splits += 1
        level = node.level
        f_hi = capacity(level + 1)
        f_lo = capacity(level)
        need = f_hi - f_lo
        cap = f_hi + f_lo
        if isinstance(node, _Base):
            cands = node.items
            child_w = [0] * (len(cands) + 1)
        else:
            cands = node.splitters
            child_w = [c.weight if c is not None else 0 for c in node.children]
        total = node.weight
        w_pref = child_w[0]  # weight of everything left of candidate i (1-based)
        chosen = -1
        for i in range(1, len(cands) + 1):
            w_e = cands[i - 1].weight
            w_suf = total - w_pref - w_e
            if (w_pref < cap and w_suf < cap
                    and w_pref + w_e >= need and w_e + w_suf >= need):
                chosen = i
                break
            w_pref += w_e + child_w[i]
        if chosen < 0:
            raise AssertionError("no valid splitter found; invariants broken")

        e = cands[chosen - 1]
        if isinstance(node, _Base):
            left = _Base(node.items[: chosen - 1]) if chosen > 1 else None
            right = _Base(node.items[chosen:]) if chosen < len(cands) else None
        else:
            ls, lc = node.splitters[: chosen - 1], node.children[:chosen]
            rs, rc = node.splitters[chosen:], node.children[chosen:]
            left = _Node(level, ls, lc, self.u) if ls else lc[0]
            right = _Node(level, rs, rc, self.u) if rs else rc[0]

        parent = node.parent
        if parent is not None and parent.level == level + 1:
            j = parent.children.index(node)
            parent.children[j : j + 1] = [left, right]
            parent.splitters.insert(j, e)
            e.home = parent
            for side in (left, right):
                if side is not None:
                    side.parent = parent
            parent.pred = StaticPredecessor([x.key for x in parent.splitters], self.u)
        else:
            # the root, or a slot of a higher-level node: the split tree
            # takes the node's place one level up
            top = _Node(level + 1, [e], [left, right], self.u, parent)
            if parent is None:
                self.root = top
            else:
                parent.children[parent.children.index(node)] = top


def splitter_weight_limit(level: int) -> int:
    """The depth bound's weight limit: an element of weight w may live at
    `level` iff w is below it, that is iff lg lg w - 1 <= level, since
    lg lg w - 1 <= level  <=>  lg w < 2^(level+2) (floors throughout, and
    weights below 4 read as 4)."""
    return 1 << (1 << (level + 2))


def audit_wexp(tree: WexpTree) -> None:
    """Full structural audit; raises AssertionError on any violation.

    Checks: weight bound (condition 1) at every level, key ordering
    (condition 3), group weights (condition 4), the splitter-set size bound
    with explicit constant 4, at least one splitter in every inner node, the
    static predecessor holding exactly the splitter keys, levels decreasing
    along every child step (a slot may hold a tree of any lower level),
    recorded weights versus recomputed subtree weights, the weight threshold
    forcing heavy elements up (2*f of the home level), the depth consequence
    of the weight/level relation, handle links, and the key->element map:
    each element the walk visits is its key's entry, and the map holds no
    other key.  The depth check `w < splitter_weight_limit(lv)` is implied
    by condition 1, since 2*f(lv+1) <= 2^(2^(lv+2)) at every level; it stays
    as a cross-check.
    """
    handles = tree.handles
    n_elems = 0
    base_cap = 2 * capacity(2)
    base_depth_limit = splitter_weight_limit(1)
    level_bounds = {}

    def bounds(lv):
        """(f(lv) - f(lv-1), 2*f(lv+1), depth weight limit) for level lv."""
        b = level_bounds.get(lv)
        if b is None:
            b = level_bounds[lv] = (capacity(lv) - capacity(lv - 1),
                                    2 * capacity(lv + 1), splitter_weight_limit(lv))
        return b

    def walk(node, parent, lo, hi):
        """Returns the subtree weight; lo < keys < hi (None = unbounded)."""
        nonlocal n_elems
        if node.parent is not parent:
            raise AssertionError
        if isinstance(node, _Base):
            if node.level != 1:
                raise AssertionError
            n_elems += len(node.items)
            w = 0
            last = lo
            for e in node.items:
                if not (last is None or e.key > last):
                    raise AssertionError
                if not (hi is None or e.key < hi):
                    raise AssertionError
                if not (e.home is node and e.weight >= 1 and handles.get(e.key) is e):
                    raise AssertionError
                if e.weight >= base_cap:
                    raise AssertionError("overweight element in base container")
                if e.weight >= base_depth_limit:
                    raise AssertionError
                last = e.key
                w += e.weight
            if w != node.weight:
                raise AssertionError
            if w >= base_cap:
                raise AssertionError
            return w
        if not isinstance(node, _Node):
            raise AssertionError
        lv = node.level
        if lv < 2:
            raise AssertionError
        if len(node.children) != len(node.splitters) + 1:
            raise AssertionError
        if not node.splitters:
            raise AssertionError("inner node without a splitter")
        n_elems += len(node.splitters)
        group_min, weight_cap, depth_limit = bounds(lv)
        if len(node.splitters) > 2 * weight_cap // group_min:
            raise AssertionError
        total = 0
        prev_key = lo
        children = node.children
        for i, e in enumerate(node.splitters):
            if not (prev_key is None or e.key > prev_key):
                raise AssertionError
            if not (e.home is node and e.weight >= 1 and handles.get(e.key) is e):
                raise AssertionError
            if e.weight >= weight_cap:
                raise AssertionError
            if e.weight >= depth_limit:
                raise AssertionError
            child = children[i]
            cw = 0
            if child is not None:
                if child.level >= lv:
                    raise AssertionError("levels must decrease")
                cw = walk(child, node, prev_key, e.key)
            total += cw + e.weight
            prev_key = e.key
        child = children[-1]
        if child is not None:
            if child.level >= lv:
                raise AssertionError("levels must decrease")
            total += walk(child, node, prev_key, hi)
        if total != node.weight:
            raise AssertionError
        if node.weight >= weight_cap:
            raise AssertionError("condition 1 violated")
        if node.pred.keys != [e.key for e in node.splitters]:
            raise AssertionError
        # condition 4: each group {e_i} u X_i u {e_i+1} is heavy enough
        for i in range(len(node.splitters) - 1):
            x = children[i + 1]
            w = (node.splitters[i].weight + node.splitters[i + 1].weight
                 + (x.weight if x is not None else 0))
            if w <= group_min:
                raise AssertionError("condition 4 violated")
        return total

    if tree.root.parent is not None:
        raise AssertionError
    walk(tree.root, None, None, None)
    if n_elems != len(handles):
        raise AssertionError("key->element map holds a key the tree does not")

