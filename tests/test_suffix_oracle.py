import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import AlphabetOverflowError, MarkOrderViolationError
from triekit.sa import build_suffix_array, build_suffix_tree
from triekit.suffix_oracle import FmaTree, OnlineSuffixTree, _ONode
from triekit.text import Text

from oracles import NaiveSuffixTree, subtree_nodes


def fresh_canonical(codes):
    text = Text(codes)
    return build_suffix_tree(build_suffix_array(text), text).canonical()


def test_prepend_single_letters():
    t = OnlineSuffixTree(sigma=4)
    t.prepend(1)  # text "a"
    t.prepend(2)  # text "ba"
    assert t.text_codes() == [2, 1]
    assert t.canonical() == fresh_canonical([2, 1])
    t.audit_links()
    kids = t.root.children
    assert sorted(kids) == [0, 1, 2]  # "$", "a$", "ba$"


def test_prepend_alphabet_bounds():
    t = OnlineSuffixTree(sigma=4)
    t.prepend(1)
    for bad in (0, 5):
        with pytest.raises(AlphabetOverflowError):
            t.prepend(bad)
    assert t.text_codes() == [1]
    assert t.canonical() == fresh_canonical([1])
    t.audit_links()


def test_prepend_splits_edge():
    t = OnlineSuffixTree(sigma=4)
    t.prepend(1)  # "a"
    t.prepend(2)  # "na"
    t.prepend(1)  # "ana": the old leaf edge "a$" splits
    assert t.canonical() == fresh_canonical([1, 2, 1])
    t.audit_links()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_prepend_stream_matches_oracles(seed):
    rng = random.Random(seed)
    sigma = rng.choice([2, 4, 26])
    n = rng.randrange(1, 120)
    online = OnlineSuffixTree(sigma)
    naive = NaiveSuffixTree()
    for step in range(n):
        a = rng.randint(1, sigma)
        online.prepend(a)
        naive.prepend(a)
        assert online.canonical() == naive.canonical()
        online.audit_links()  # anchored labels: equal forms give equal labels
        if step % 25 == 24:
            assert online.canonical() == fresh_canonical(online.text_codes())
    online.audit_links()
    assert online.canonical() == fresh_canonical(online.text_codes())


def test_repetitive_text():
    online = OnlineSuffixTree(2)
    for step, a in enumerate([1] * 40 + [2, 1, 1, 2] * 5):
        online.prepend(a)
        assert online.canonical() == fresh_canonical(online.text_codes())
        online.audit_links()


def test_link_monotonicity_and_permanence():
    rng = random.Random(99)
    online = OnlineSuffixTree(4)
    hard_seen = {}
    for _ in range(300):
        online.prepend(rng.randint(1, 4))
        for v in subtree_nodes(online.root):
            for b, t in online.links_of(v).items():
                hard = t.sdepth == v.sdepth + 1
                # once hard, a link never changes target or softens
                prev = hard_seen.get((id(v), b))
                assert prev is None or (prev is t and hard)
                if hard:
                    hard_seen[(id(v), b)] = t
    online.audit_links()


def _soft_link(online):
    """Some stored soft link (source, letter, target) whose target's
    parent is not the root."""
    for v in subtree_nodes(online.root):
        for b, t in online.links_of(v).items():
            if t.sdepth != v.sdepth + 1 and t.parent is not online.root:
                return v, b, t
    raise AssertionError("no soft link")


def _grown_tree():
    rng = random.Random(5)
    online = OnlineSuffixTree(2)
    for _ in range(60):
        online.prepend(rng.randint(1, 2))
    online.audit_links()
    return online


def test_audit_links_catches_link_aimed_at_parent():
    online = _grown_tree()
    v, b, t = _soft_link(online)
    t.rev_soft -= {v}
    online.links_of(v)[b] = t.parent
    t.parent.rev_soft |= {v}
    with pytest.raises(AssertionError):
        online.audit_links()


@pytest.mark.parametrize("reverse_entry", [False, True])
def test_audit_links_catches_link_aimed_at_root(reverse_entry):
    # the root has no parent, so the soft-locus check cannot run on it
    online = _grown_tree()
    v, b, t = _soft_link(online)
    t.rev_soft -= {v}
    online.links_of(v)[b] = online.root
    if reverse_entry:
        online.root.rev_soft |= {v}
    with pytest.raises(AssertionError):
        online.audit_links()


def test_audit_links_catches_missing_reverse_entry():
    online = _grown_tree()
    v, _, t = _soft_link(online)
    t.rev_soft -= {v}
    with pytest.raises(AssertionError):
        online.audit_links()


@pytest.mark.parametrize("shift", [-1, 1])
def test_audit_links_catches_shifted_label(shift):
    # a shift that lands on another leaf below the node reads the same
    # letters, so only shifts that name no leaf below are faults
    online = _grown_tree()
    caught = 0
    for v in subtree_nodes(online.root):
        if v.is_leaf or v is online.root:
            continue
        if v.hi + shift + 1 + v.parent.sdepth in {u.leaf_id for u in subtree_nodes(v) if u.is_leaf}:
            continue
        v.hi += shift
        v.lo += shift
        with pytest.raises(AssertionError, match="label names no leaf"):
            online.audit_links()
        v.hi -= shift
        v.lo -= shift
        caught += 1
    assert caught >= 10
    online.audit_links()


def test_audit_links_catches_link_reaimed_at_same_depth():
    # the new target has the old one's string depth and first letter, so
    # only the contents test can tell
    online = _grown_tree()
    nodes = subtree_nodes(online.root)

    def first_letter(u):
        return online.char(u.hi + u.parent.sdepth)

    caught = 0
    for v in nodes:
        if v.is_leaf:
            continue  # a leaf's one link is derived, so it cannot be re-aimed
        links = online.links_of(v)
        for b, t in list(links.items()):
            depth = v.sdepth + 1
            for u in nodes:
                if (u is t or u is online.root or u.sdepth != t.sdepth
                        or first_letter(u) != b or not u.parent.sdepth < depth):
                    continue
                soft = t.sdepth != depth
                if soft:
                    t.rev_soft -= {v}
                    u.rev_soft |= {v}
                links[b] = u
                with pytest.raises(AssertionError, match="link contents"):
                    online.audit_links()
                links[b] = t
                if soft:
                    u.rev_soft -= {v}
                    t.rev_soft |= {v}
                caught += 1
    assert caught >= 10
    online.audit_links()


def test_audit_links_catches_swapped_sibling_keys():
    online = _grown_tree()
    caught = 0
    for v in subtree_nodes(online.root):
        if len(v.children) < 2:
            continue
        c, d = sorted(v.children)[:2]
        kids = v.children
        kids[c], kids[d] = kids[d], kids[c]
        with pytest.raises(AssertionError, match="child key"):
            online.audit_links()
        kids[c], kids[d] = kids[d], kids[c]
        caught += 1
    assert caught >= 10
    online.audit_links()


def test_audit_links_catches_nodes_outside_the_tree():
    # a detached subtree leaves links aiming outside the tree: an
    # AssertionError, not a failed lookup
    online = _grown_tree()
    online.root.children.pop(max(online.root.children))
    with pytest.raises(AssertionError):
        online.audit_links()
    online = _grown_tree()
    v, b, t = _soft_link(online)
    stray = _ONode(t.parent, t.hi, t.lo, t.sdepth)
    t.rev_soft -= {v}
    stray.rev_soft |= {v}
    online.links_of(v)[b] = stray
    with pytest.raises(AssertionError, match="outside the tree"):
        online.audit_links()


def test_audit_links_catches_swapped_leaves():
    # each leaf's derived link reads leaves[leaf_id + 1]
    online = _grown_tree()
    leaves = online.leaves
    for i, j in [(0, 1), (5, 6), (10, 40), (1, len(leaves) - 1), (30, 31)]:
        leaves[i], leaves[j] = leaves[j], leaves[i]
        with pytest.raises(AssertionError, match="leaves"):
            online.audit_links()
        leaves[i], leaves[j] = leaves[j], leaves[i]
    online.audit_links()


def test_audit_links_catches_truncated_leaves():
    online = _grown_tree()
    online.leaves.pop()
    with pytest.raises(AssertionError, match="leaves"):
        online.audit_links()


def test_audit_links_catches_reverse_soft_entry_without_soft_link():
    # a hard source passes every reverse-set test but the softness one,
    # since its link does aim at the node; the root as a source fails the
    # link test or the softness one
    online = _grown_tree()
    nodes = subtree_nodes(online.root)
    caught = 0
    for q in nodes:
        for b, w in online.links_of(q).items():
            if w.sdepth != q.sdepth + 1 or w.rev_soft:
                continue
            w.rev_soft = {q}
            with pytest.raises(AssertionError, match="reverse soft set"):
                online.audit_links()
            w.rev_soft = frozenset()
            caught += 1
    assert caught >= 10
    caught = 0
    for w in nodes:
        if w is online.root or w.rev_soft:
            continue
        w.rev_soft = {online.root}
        with pytest.raises(AssertionError, match="reverse soft set"):
            online.audit_links()
        w.rev_soft = frozenset()
        caught += 1
    assert caught >= 10
    online.audit_links()


@pytest.mark.parametrize("sigma", [2, 4, 26, 65536])
def test_prepend_makes_containers_only_where_used(sigma):
    # a leaf is one collector object: no links map, the shared read-only
    # children map, and rev_soft a real set only once a soft link aims at it
    rng = random.Random(sigma)
    online = OnlineSuffixTree(sigma)
    for step in range(1, 301):
        online.prepend(rng.randint(1, sigma))
        if step % 20:
            continue
        nodes = subtree_nodes(online.root)
        leaf_maps, inner_maps = set(), set()
        for v in nodes:
            if v.is_leaf:
                assert v.links is None
                assert type(v.children) is MappingProxyType and not v.children
                leaf_maps.add(id(v.children))
            else:
                assert type(v.children) is dict and type(v.links) is dict
                inner_maps.add(id(v.children))
            assert type(v.rev_soft) is (set if v.rev_soft else frozenset)
        assert len(leaf_maps) == 1
        assert len(inner_maps) == len(nodes) - (online.n + 1)
        with pytest.raises(TypeError):
            online.active.children[1] = online.root
        online.audit_links()


# ------------------------------------------------------------------- FMA

def test_fma_examples():
    f = FmaTree()
    f.mark(f.ROOT)
    leaf = f.insert_leaf(f.ROOT)
    assert f.query(leaf) == f.ROOT
    x = f.insert_leaf(f.ROOT)
    y = f.insert_leaf(x)
    f.mark(x)
    assert f.query(y) == x
    assert f.query(x) == x


def test_fma_mark_order_enforced():
    f = FmaTree()
    leaf = f.insert_leaf(f.ROOT)
    with pytest.raises(MarkOrderViolationError):
        f.mark(leaf)  # root is not marked yet
    f.mark(f.ROOT)
    f.mark(leaf)


def test_fma_middle_insert_adopts_mark():
    f = FmaTree()
    f.mark(f.ROOT)
    a = f.insert_leaf(f.ROOT)
    b = f.insert_leaf(a)
    f.mark(a)
    m = f.insert_middle(b)  # between a and b: adopts a's marked status
    assert f.query(b) == m
    c = f.insert_leaf(b)
    m2 = f.insert_middle(c)  # between b and c: unmarked (b is unmarked)
    assert f.query(c) == m


class NaiveFma:
    def __init__(self):
        self.parent = [-1]
        self.marked = [False]

    def insert_leaf(self, p):
        self.parent.append(p)
        self.marked.append(False)
        return len(self.parent) - 1

    def insert_middle(self, child):
        p = self.parent[child]
        self.parent.append(p)
        self.marked.append(self.marked[p])
        m = len(self.parent) - 1
        self.parent[child] = m
        return m

    def mark(self, v):
        self.marked[v] = True

    def query(self, v):
        while v != -1 and not self.marked[v]:
            v = self.parent[v]
        return None if v == -1 else v


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fma_random_against_walkup(seed):
    rng = random.Random(seed)
    fast, slow = FmaTree(), NaiveFma()
    nodes = [0]
    mark_root_first = rng.random() < 0.9
    if mark_root_first:
        fast.mark(0)
        slow.mark(0)
    for _ in range(800):
        r = rng.random()
        if r < 0.35:
            p = rng.choice(nodes)
            a, b = fast.insert_leaf(p), slow.insert_leaf(p)
            assert a == b
            nodes.append(a)
        elif r < 0.5 and len(nodes) > 1:
            ch = rng.choice(nodes[1:])
            a, b = fast.insert_middle(ch), slow.insert_middle(ch)
            assert a == b
            nodes.append(a)
        elif r < 0.7:
            v = rng.choice(nodes)
            p = fast.parent[v]
            if v == 0 or fast.marked[p]:
                fast.mark(v)
                slow.mark(v)
            else:
                with pytest.raises(MarkOrderViolationError):
                    fast.mark(v)
        else:
            v = rng.choice(nodes)
            assert fast.query(v) == slow.query(v)
    for v in nodes:
        assert fast.query(v) == slow.query(v)
