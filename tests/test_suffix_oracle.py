import itertools
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import AlphabetOverflowError, InvalidInputError, MarkOrderViolationError
from triekit.instrument import GLOBAL
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


def test_prepend_refuses_a_code_that_is_not_an_int():
    # 2.0 and True were stored, and audit_links accepted the tree
    t = OnlineSuffixTree(sigma=4)
    t.prepend(1)
    for bad in (2.0, True, "a"):
        with pytest.raises(InvalidInputError):
            t.prepend(bad)
    assert t.text_codes() == [1] and t.n == 1
    t.audit_links()


def test_sigma_below_1_refused():
    for sigma in (0, -1):
        with pytest.raises(InvalidInputError):
            OnlineSuffixTree(sigma)


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
    # a key never leaves its map, a None may become a node, and a node
    # value never changes
    rng = random.Random(99)
    online = OnlineSuffixTree(4)
    prev = {}  # (node, letter) -> value
    for _ in range(300):
        online.prepend(rng.randint(1, 4))
        now = {(v, b): t for v in subtree_nodes(online.root) if not v.is_leaf
               for b, t in v.links.items()}
        for key, t in prev.items():
            assert key in now
            assert t is None or now[key] is t
        prev = now
    online.audit_links()


def _node_string(online, v):
    """str(v), read off the labels from the root down."""
    path = []
    while v.parent is not None:
        path.append(v)
        v = v.parent
    return tuple(online.char(pos) for u in reversed(path) for pos in range(u.hi, u.lo - 1, -1))


def _check_links_by_brute_force(online):
    """Each inner node's keys are the letters before an occurrence of its
    string in the text, and letter a's value is the inner node spelling
    a*str(v), or None when there is none; no audit_links involved."""
    text = online.text_codes()
    n = len(text)
    before = {}  # substring -> letters preceding one of its occurrences
    for i in range(n):
        for j in range(i + 1, n + 1):
            letters = before.setdefault(tuple(text[i:j]), set())
            if i:
                letters.add(text[i - 1])
    inner = {_node_string(online, v): v for v in subtree_nodes(online.root) if not v.is_leaf}
    for x, v in inner.items():
        want = before[x] if x else set(text)
        assert set(v.links) == want, (text, x)
        for a, t in v.links.items():
            assert t is inner.get((a, *x)), (text, x, a)


def test_links_match_a_brute_force_scan():
    for text in itertools.product([1, 2], repeat=8):
        online = OnlineSuffixTree(2)
        for a in reversed(text):
            online.prepend(a)
            _check_links_by_brute_force(online)
    rng = random.Random(29)
    for sigma in (3, 26):
        for _ in range(12):
            online = OnlineSuffixTree(sigma)
            for _ in range(rng.randrange(1, 30)):
                online.prepend(rng.randint(1, sigma))
                _check_links_by_brute_force(online)


def test_last_prepend_of_a_n_b_walks_the_whole_chain():
    # the new letter b is at no node, so the walk visits the n ancestors of
    # the active leaf (the root included) and writes a link into each, then
    # hangs one leaf: 2n + 1 steps
    n = 2000
    online = OnlineSuffixTree(2)
    for _ in range(n):
        online.prepend(1)
    before = GLOBAL.oracle_steps
    online.prepend(2)
    assert GLOBAL.oracle_steps - before == 2 * n + 1


def _hard_links(online):
    """Every (source, letter, target) hard link."""
    return [(v, b, t) for v in subtree_nodes(online.root) if not v.is_leaf
            for b, t in v.links.items() if t is not None]


def _grown_tree():
    rng = random.Random(5)
    online = OnlineSuffixTree(2)
    for _ in range(60):
        online.prepend(rng.randint(1, 2))
    online.audit_links()
    return online


def test_audit_links_catches_dropped_and_spurious_letters():
    online = _grown_tree()
    caught = 0
    for v in subtree_nodes(online.root):
        if v.is_leaf:
            continue
        for b in (1, 2):
            if b in v.links:
                t = v.links.pop(b)
                with pytest.raises(AssertionError, match="misses a letter"):
                    online.audit_links()
                v.links[b] = t
            else:
                v.links[b] = None
                with pytest.raises(AssertionError, match="no child has"):
                    online.audit_links()
                del v.links[b]
            caught += 1
    assert caught >= 20
    online.audit_links()


def test_audit_links_catches_hard_link_set_to_none():
    online = _grown_tree()
    hard = _hard_links(online)
    for v, b, t in hard:
        v.links[b] = None
        with pytest.raises(AssertionError, match="None value where"):
            online.audit_links()
        v.links[b] = t
    assert len(hard) >= 10
    online.audit_links()


def test_audit_links_catches_none_aimed_at_a_node():
    online = _grown_tree()
    nodes = subtree_nodes(online.root)
    caught = 0
    for v in nodes:
        if v.is_leaf:
            continue
        for b, t in v.links.items():
            if t is not None:
                continue
            for u in nodes:  # one string-depth deeper, or any other inner node
                if u is v or u.is_leaf:
                    continue
                v.links[b] = u
                with pytest.raises(AssertionError, match="lies inside an edge"):
                    online.audit_links()
                caught += 1
            v.links[b] = None
    assert caught >= 100
    online.audit_links()


def test_audit_links_catches_link_aimed_at_parent():
    online = _grown_tree()
    caught = 0
    for v, b, t in _hard_links(online):
        if t.parent is online.root:
            continue
        v.links[b] = t.parent
        with pytest.raises(AssertionError, match="not one string-depth deeper"):
            online.audit_links()
        v.links[b] = t
        caught += 1
    assert caught >= 10
    online.audit_links()


@pytest.mark.parametrize("hard", [False, True])
def test_audit_links_catches_link_aimed_at_root(hard):
    # the root (numbered 0) is no link's target; a None value aimed at it
    # fails first for its letter, whose string lies inside an edge
    online = _grown_tree()
    caught = 0
    for v in subtree_nodes(online.root):
        if v.is_leaf:
            continue
        for b, t in v.links.items():
            if (t is not None) != hard:
                continue
            v.links[b] = online.root
            with pytest.raises(AssertionError,
                               match="aims at the root" if hard else "lies inside an edge"):
                online.audit_links()
            v.links[b] = t
            caught += 1
    assert caught >= 10
    online.audit_links()


def _same_depth_pairs(online):
    """Pairs of hard links into distinct targets of one string depth."""
    hard = _hard_links(online)
    return [(x, y) for x in hard for y in hard
            if x[2] is not y[2] and x[2].sdepth == y[2].sdepth]


def test_audit_links_catches_second_incoming_hard_link():
    online = _grown_tree()
    pairs = _same_depth_pairs(online)
    for (v, b, t), (_, _, u) in pairs:
        v.links[b] = u
        with pytest.raises(AssertionError, match="second incoming hard link"):
            online.audit_links()
        v.links[b] = t
    assert len(pairs) >= 10
    online.audit_links()


def test_audit_links_catches_unary_node():
    # splitting an edge where no suffix branches gives a node whose letters
    # and None values pass, but no letter's string is that node
    online = _grown_tree()
    caught = 0
    for t in subtree_nodes(online.root):
        if t is online.root or t.label_len < 2:
            continue
        p, hi, lo = t.parent, t.hi, t.lo
        mid = online._split(t, p.sdepth + 1)
        with pytest.raises(AssertionError, match="no incoming hard link"):
            online.audit_links()
        p.children[online.char(hi)] = t
        t.parent, t.hi, t.lo = p, hi, lo
        caught += 1
    assert caught >= 10
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
    # two hard links of one letter swap targets of one string depth: each
    # node keeps one incoming link, so only the contents test can tell
    online = _grown_tree()
    caught = 0
    for (v, b, t), (s, c, u) in _same_depth_pairs(online):
        if b != c:
            continue
        v.links[b], s.links[b] = u, t
        with pytest.raises(AssertionError, match="link contents"):
            online.audit_links()
        v.links[b], s.links[b] = t, u
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
    v, b, t = next(x for x in _hard_links(online) if x[2].parent is not online.root)
    v.links[b] = _ONode(t.parent, t.hi, t.lo, t.sdepth)
    with pytest.raises(AssertionError, match="outside the tree"):
        online.audit_links()


def test_audit_links_catches_duplicated_leaf_id():
    online = _grown_tree()
    leaves = [v for v in subtree_nodes(online.root) if v.is_leaf]
    for leaf, other in [(leaves[0], leaves[1]), (leaves[5], leaves[-1]), (leaves[-1], leaves[3])]:
        k = leaf.leaf_id
        leaf.leaf_id = other.leaf_id
        with pytest.raises(AssertionError, match="leaf id out of range or taken"):
            online.audit_links()
        leaf.leaf_id = k
    online.audit_links()


@pytest.mark.parametrize("sigma", [2, 4, 26, 65536])
def test_prepend_makes_containers_only_where_used(sigma):
    # a leaf is one collector object: no links map and the shared
    # read-only children map
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
