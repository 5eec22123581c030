import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import DuplicateKeyError, InvalidHandleError
from triekit.instrument import GLOBAL
from triekit.predkit import StaticPredecessor
from triekit.wexp import (
    CAPACITY,
    WexpTree,
    _Base,
    _Node,
    audit_wexp,
    capacity,
    splitter_weight_limit,
)

from oracles import WeightedOracle


def _floor_lg(x: int) -> int:
    return x.bit_length() - 1


def min_splitter_level(weight: int) -> int:
    """Lowest level an element of this weight may live at (depth bound)."""
    return max(0, _floor_lg(_floor_lg(max(weight, 4))) - 1)


def test_capacity_values():
    assert CAPACITY[:6] == [2, 2, 4, 10, 33, 193]


def test_capacity_credit_condition():
    # The credit argument needs f(l+2)^2 = O(f(l+1)^3).  For the real-valued
    # capacity function both sides are equal; flooring costs a factor that is
    # below 2 for every level and approaches 1, so assert with constant 2.
    for level in range(1, len(CAPACITY) - 2):
        assert capacity(level + 2) ** 2 <= 2 * capacity(level + 1) ** 3


def test_capacity_nondecreasing():
    assert all(a <= b for a, b in zip(CAPACITY, CAPACITY[1:]))


def test_insert_empty_then_single():
    t = WexpTree(u=2**16)
    h = t.insert(5)
    assert t.root.weight == 1 and h.weight == 1
    assert t.pred(5) == (5, 1)
    assert t.pred(4) is None


def test_split_at_eight():
    t = WexpTree(u=2**16)
    for k in range(1, 8):
        t.insert(k)
        assert isinstance(t.root, _Base)
    t.insert(8)  # W reaches 2*f(2) = 8
    assert isinstance(t.root, _Node) and t.root.level == 2
    assert t.root.weight == 8
    # each resulting side plus the splitter weighs in [2, 6]
    for child in t.root.children:
        w = child.weight if child is not None else 0
        assert 1 <= w + 1 <= 6
    audit_wexp(t)


def test_duplicate_rejected():
    t = WexpTree(u=256)
    t.insert(3)
    with pytest.raises(DuplicateKeyError):
        t.insert(3)
    # a rejected insert leaves the map, the weights and the tree as they were
    for k in range(4, 30):
        t.insert(k)
    t.increase(t.handles[7])
    handles = dict(t.handles)
    weights = {k: h.weight for k, h in handles.items()}
    root, root_weight = t.root, t.root.weight
    with pytest.raises(DuplicateKeyError):
        t.insert(7)
    assert t.handles.keys() == handles.keys()
    assert all(t.handles[k] is h and h.weight == weights[k] for k, h in handles.items())
    assert t.root is root and t.root.weight == root_weight
    audit_wexp(t)


def test_single_element_increase_many():
    t = WexpTree(u=256)
    h = t.insert(7)
    for _ in range(100):
        t.increase(h)
    assert h.weight == 101
    assert t.pred(200) == (7, 101)
    audit_wexp(t)


def test_heavy_element_becomes_splitter():
    t = WexpTree(u=256)
    h = t.insert(50)
    for k in (10, 20, 60, 70):
        t.insert(k)
    for _ in range(40):
        t.increase(h)
        audit_wexp(t)
    # weight 41 >= 2*f(2): the element must be a splitter at level >= 2
    assert isinstance(h.home, _Node)
    assert h.home.level >= 2
    assert h.home.level >= min_splitter_level(h.weight)


def test_splitter_weight_limit_matches_min_splitter_level():
    for level in range(5):
        limit = splitter_weight_limit(level)
        probes = list(range(1, 4096)) + [limit - 2, limit - 1, limit, limit + 1]
        for w in probes:
            assert (level >= min_splitter_level(w)) == (w < limit), (level, w)


def test_audit_rejects_corruption():
    t = WexpTree(u=256)
    for k in range(1, 30):
        t.insert(k)
    audit_wexp(t)
    assert isinstance(t.root, _Node)
    splitter = t.root.splitters[0]
    splitter.weight += 1  # recorded subtree weights no longer add up
    with pytest.raises(AssertionError):
        audit_wexp(t)
    splitter.weight -= 1
    base = t.root
    while isinstance(base, _Node):
        base = next(c for c in base.children if c is not None)
    elem = base.items[0]
    delta = 2 * capacity(2) - elem.weight  # too heavy for a base container
    elem.weight += delta
    node = base
    while node is not None:
        node.weight += delta
        node = node.parent
    with pytest.raises(AssertionError, match="overweight element"):
        audit_wexp(t)


@pytest.mark.parametrize("mutation", ["dropped", "reaimed", "stray"])
def test_audit_checks_key_to_element_map(mutation):
    t = WexpTree(u=256)
    for k in range(1, 30):
        t.insert(k)
    audit_wexp(t)
    if mutation == "dropped":
        del t.handles[12]
    elif mutation == "reaimed":
        t.handles[12] = t.handles[13]
    else:
        t.handles[200] = WexpTree(u=256).insert(200)
    with pytest.raises(AssertionError):
        audit_wexp(t)


def test_stale_handle_rejected():
    t1 = WexpTree(u=256)
    t2 = WexpTree(u=256)
    h = t1.insert(3)
    t2.insert(3)
    with pytest.raises(InvalidHandleError):
        t2.increase(h)
    bogus = object.__new__(type(h))
    bogus.key, bogus.weight, bogus.home = 3, 1, None
    with pytest.raises(InvalidHandleError):
        t1.increase(bogus)


def test_pred_examples():
    t = WexpTree(u=64)
    h3 = t.insert(3)
    h9 = t.insert(9)
    for _ in range(3):
        t.increase(h9)
    assert t.pred(7) == (3, 1)
    assert t.pred(2) is None
    assert t.pred(9) == (9, 4)
    assert t.pred(3) == (3, 1)
    assert h3.weight == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_workload_matches_oracle(seed):
    rng = random.Random(seed)
    u = rng.choice([2**8, 2**16, 2**32])
    t = WexpTree(u)
    oracle = WeightedOracle()
    handles = {}
    for step in range(600):
        r = rng.random()
        if r < 0.45 or not handles:
            k = rng.randrange(u)
            if k not in handles:
                handles[k] = t.insert(k)
                oracle.insert(k)
        elif r < 0.75:
            k = rng.choice(list(handles))
            t.increase(handles[k])
            oracle.increase(k)
        else:
            x = rng.randrange(u)
            assert t.pred(x) == oracle.pred(x)
        if step % 100 == 99:
            audit_wexp(t)
    audit_wexp(t)
    for k, h in handles.items():
        assert h.weight == oracle.weight[k]
        assert t.pred(k) == (k, oracle.weight[k])


def test_insert_sequence_pred_equals_sorted_oracle():
    rng = random.Random(1234)
    t = WexpTree(u=2**20)
    keys = rng.sample(range(2**20), 10000)
    for k in keys:
        t.insert(k)
    keys.sort()
    import bisect

    for _ in range(2000):
        x = rng.randrange(2**20)
        i = bisect.bisect_right(keys, x)
        expect = None if i == 0 else (keys[i - 1], 1)
        assert t.pred(x) == expect
    audit_wexp(t)


def _mixed_workload(u, seed, steps):
    """Acceptance-5-style stream: inserts, weight increases and searches."""
    rng = random.Random(seed)
    t = WexpTree(u)
    keys = []
    for _ in range(steps):
        r = rng.random()
        if r < 0.22 or not keys:
            k = rng.randrange(u)
            if k not in t.handles:
                t.insert(k)
                keys.append(k)
        elif r < 0.72:
            t.increase(t.handles[keys[rng.randrange(len(keys))]])
        else:
            t.pred(rng.randrange(u))
    return t


def _shape(t):
    """Inner nodes, splitter-less inner nodes, base containers, base items
    and the largest level drop from a node to a child in its slots."""
    inner = empty = bases = items = drop = 0
    stack = [t.root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Base):
            bases += 1
            items += len(node.items)
            continue
        inner += 1
        empty += not node.splitters
        for c in node.children:
            if c is not None:
                drop = max(drop, node.level - c.level)
                stack.append(c)
    return inner, empty, bases, items, drop


def test_slots_hold_lower_trees_and_no_level_is_empty():
    before = GLOBAL.splits
    t = _mixed_workload(2**16, 7, 2000)
    audit_wexp(t)
    inner, empty, bases, items, drop = _shape(t)
    assert empty == 0
    assert drop >= 2  # some slot holds a tree two or more levels down
    # A tree that fills such slots with chains of splitter-less nodes makes
    # the same 293 splits and 146 bases with 292 items on this stream; of
    # its 118 inner nodes, 16 hold no splitter, so no element moves.
    assert GLOBAL.splits - before == 293
    assert (bases, items) == (146, 292)
    assert inner == 118 - 16


def test_audit_rejects_splitter_less_node():
    t = WexpTree(u=256)
    for k in range(1, 30):
        t.insert(k)
    root = t.root
    assert isinstance(root, _Node)
    t.root = _Node(root.level + 1, [], [root], t.u)
    assert t.root.weight == root.weight
    with pytest.raises(AssertionError, match="without a splitter"):
        audit_wexp(t)


def test_audit_checks_static_predecessor_keys():
    t = WexpTree(u=256)
    for k in range(1, 30):
        t.insert(k)
    audit_wexp(t)
    root = t.root
    root.pred = StaticPredecessor([e.key + 1 for e in root.splitters], t.u)
    with pytest.raises(AssertionError):
        audit_wexp(t)


def test_audit_rejects_child_at_parent_level():
    t = _mixed_workload(2**16, 7, 2000)
    child = next(c for c in t.root.children if isinstance(c, _Node))
    child.level = t.root.level
    with pytest.raises(AssertionError, match="levels must decrease"):
        audit_wexp(t)
