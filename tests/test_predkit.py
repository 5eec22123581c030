import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import DuplicateKeyError, InvalidInputError
from triekit.instrument import GLOBAL
from triekit.predkit import (
    DetDictionary,
    DynamicPredecessor,
    LayeredStaticPredecessor,
    StaticPredecessor,
)

from oracles import SortedSetOracle


def scan_pred(keys, x):
    best = None
    for k in keys:
        if k <= x and (best is None or k > best):
            best = k
    return best


# ---------------------------------------------------------------- dictionary

def test_dict_basic():
    d = DetDictionary([(0, 10), (5, 11), (9, 12)])
    assert d.lookup(5) == 11
    assert d.lookup(6) is None
    assert d.lookup(0) == 10 and d.lookup(9) == 12


def test_dict_empty():
    d = DetDictionary([])
    assert d.lookup(0) is None


def test_dict_duplicate_rejected():
    with pytest.raises(DuplicateKeyError):
        DetDictionary([(1, "a"), (1, "b")])


def test_dict_random_against_scan():
    rng = random.Random(7)
    keys = rng.sample(range(10**9), 1000)
    d = DetDictionary([(k, i) for i, k in enumerate(keys)])
    table = dict((k, i) for i, k in enumerate(keys))
    for k in keys:
        assert d.lookup(k) == table[k]
    for _ in range(1000):
        probe = rng.randrange(10**9)
        assert d.lookup(probe) == table.get(probe)


def test_dict_probe_bound():
    rng = random.Random(3)
    keys = rng.sample(range(1 << 40), 500)
    d = DetDictionary([(k, k) for k in keys])
    for probe in keys + [rng.randrange(1 << 40) for _ in range(500)]:
        before = d.cell_probes
        d.lookup(probe)
        assert d.cell_probes - before <= 4


def test_dict_deterministic_build():
    pairs = [(k, k * 3) for k in (8, 1, 99, 23, 17)]
    a = DetDictionary(pairs)
    b = DetDictionary(pairs)
    assert a.disp == b.disp and a.slot_keys == b.slot_keys


# ---------------------------------------------------------- static predecessor

def test_static_pred_examples():
    p = StaticPredecessor([2, 5, 9], u=16)
    assert p.query(8) == 5
    assert p.query(2) == 2
    assert p.query(1) is None


def test_static_pred_rejects_unsorted():
    with pytest.raises(InvalidInputError):
        StaticPredecessor([5, 2], u=16)
    with pytest.raises(InvalidInputError):
        StaticPredecessor([2, 2], u=16)


def test_static_pred_exhaustive_small_universe():
    rng = random.Random(11)
    for _ in range(20):
        u = 4096
        keys = sorted(rng.sample(range(u), rng.randint(1, 200)))
        p = StaticPredecessor(keys, u)
        for x in range(u):
            assert p.query(x) == scan_pred(keys, x), (keys, x)


@given(st.sets(st.integers(0, 2**32 - 1), min_size=0, max_size=300),
       st.lists(st.integers(0, 2**32 - 1), max_size=50))
@settings(max_examples=50, deadline=None)
def test_static_pred_random_universe(keys, probes):
    keys = sorted(keys)
    p = StaticPredecessor(keys, u=2**32)
    for x in probes + keys:
        assert p.query(x) == scan_pred(keys, x)


@pytest.mark.parametrize("k", [0, 1, 12, 13])
def test_static_pred_single_sample_is_block_search(k):
    # u = 4096 gives q = 12: at most q keys make one sample and no x-fast levels
    u = 4096
    keys = sorted(random.Random(k).sample(range(u), k))
    p = StaticPredecessor(keys, u)
    assert p.q == 12
    assert (p.levels == []) == (k <= p.q)
    worst = 0
    for x in range(u):
        before = p.elem_probes
        assert p.query(x) == scan_pred(keys, x), (keys, x)
        worst = max(worst, p.elem_probes - before)
    if k <= p.q:
        assert worst <= (p.q - 1).bit_length() + 1  # ceil(lg q) + 1


def test_layered_examples():
    p = LayeredStaticPredecessor(list(range(100)), u=128)
    assert p.query(57) == 57
    squares = [i * i for i in range(32)]
    q = LayeredStaticPredecessor(squares, u=1024)
    assert q.query(50) == 49
    assert q.query(1023) == 961
    assert q.query(0) == 0


@given(st.sets(st.integers(0, 4095), min_size=0, max_size=400), st.data())
@settings(max_examples=50, deadline=None)
def test_layered_matches_flat(keys, data):
    keys = sorted(keys)
    flat = StaticPredecessor(keys, u=4096)
    layered = LayeredStaticPredecessor(keys, u=4096)
    for _ in range(30):
        x = data.draw(st.integers(0, 4095))
        assert layered.query(x) == flat.query(x)


def test_static_pred_probe_budget():
    # elementary probes per query stay within C*lglg(u) + C for C = 8
    rng = random.Random(5)
    u = 2**16
    keys = sorted(rng.sample(range(u), 2000))
    p = StaticPredecessor(keys, u)
    lglg = max(1, (p.w - 1).bit_length())
    budget = 8 * lglg + 8
    worst = 0
    for _ in range(2000):
        before = p.elem_probes
        p.query(rng.randrange(u))
        worst = max(worst, p.elem_probes - before)
    assert worst <= budget, (worst, budget)


# ----------------------------------------------------------- dynamic predecessor

def test_dyn_pred_examples():
    p = DynamicPredecessor(u=2**16)
    for k in (7, 3, 11):
        p.insert(k)
    assert p.query(10) == 7
    assert DynamicPredecessor(u=16).query(3) is None


def test_dyn_pred_idempotent_insert():
    p = DynamicPredecessor(u=64)
    p.insert(9)
    p.insert(9)
    assert len(p) == 1 and p.query(63) == 9


def test_dyn_pred_interleaved_random():
    rng = random.Random(42)
    p = DynamicPredecessor(u=2**32)
    oracle = SortedSetOracle()
    for _ in range(20000):
        if rng.random() < 0.5:
            k = rng.randrange(2**32)
            p.insert(k)
            oracle.insert(k)
        else:
            x = rng.randrange(2**32)
            assert p.query(x) == oracle.pred(x)
