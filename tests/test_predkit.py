import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import DuplicateKeyError, InvalidInputError
from triekit.instrument import GLOBAL
from triekit.predkit import BitPredecessor, DetDictionary, DynamicPredecessor, StaticPredecessor

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
    # 40-bit sparse keys: a hashed table, the same on every build, whose
    # lookups answer as the pairs do
    rng = random.Random(3)
    keys = rng.sample(range(1 << 40), 500)
    truth = {k: i for i, k in enumerate(keys)}
    d = DetDictionary(truth.items())
    assert d.base is None
    fresh = DetDictionary(truth.items())
    assert (fresh.disp, fresh.slot_keys) == (d.disp, d.slot_keys)
    near = [k + 1 for k in keys if k + 1 not in truth]
    for probe in keys + near + [rng.randrange(1 << 40) for _ in range(500)]:
        before = GLOBAL.dict_cell_probes
        assert d.lookup(probe) == truth.get(probe)
        assert 2 <= GLOBAL.dict_cell_probes - before <= 4


def test_dict_deterministic_build():
    pairs = [(k, k * 3) for k in (8, 1, 99, 23, 17)]
    a = DetDictionary(pairs)
    b = DetDictionary(pairs)
    assert a.disp == b.disp and a.slot_keys == b.slot_keys


# Tables of two builds, recorded before keys were mixed once per build: the
# nonzero displacements and, per slot, the index of the key it holds.
_PIN_KEYS = [(k * 2654435761) % (1 << 32) for k in range(100)]
_PIN_DISP = {35: 1, 54: 1, 86: 2, 117: 1, 155: 1, 163: 1, 177: 1, 184: 3, 195: 1,
             220: 2, 231: 2, 254: 1}
_PIN_SLOTS = [
    0, -1, -1, 80, -1, 34, -1, -1, -1, 93, 84, 29, -1, -1, 21, -1, -1, -1, -1, -1,
    36, 23, -1, 4, 33, 79, -1, -1, 38, -1, -1, -1, -1, 62, -1, -1, -1, 26, -1, 12,
    1, 40, -1, -1, 47, -1, 28, 32, 22, 81, 92, -1, -1, 74, -1, -1, 76, -1, -1, 71,
    69, 43, -1, -1, 25, 14, 98, -1, -1, -1, -1, 58, 6, 72, -1, -1, -1, 59, -1, -1,
    -1, -1, -1, -1, -1, 77, -1, 18, 94, -1, -1, -1, -1, -1, 50, 24, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, 39, 44, 49, -1, -1, -1, -1, -1, -1, 53, 35, 16,
    -1, 52, -1, -1, 89, 91, 8, -1, -1, -1, -1, 95, -1, -1, -1, 48, 63, 99, 10, 87,
    -1, 9, -1, -1, -1, 96, -1, 60, 67, 65, -1, 5, 82, -1, 51, -1, -1, -1, -1, -1,
    -1, -1, -1, 7, -1, 68, -1, -1, 15, -1, -1, -1, -1, 66, 86, 45, -1, -1, -1, -1,
    17, -1, -1, 19, 83, -1, 73, -1, 55, 70, -1, 64, 54, -1, 56, -1, -1, -1, -1, -1,
    13, 46, 61, -1, 75, -1, 41, -1, 31, 88, -1, -1, -1, -1, -1, -1, 78, -1, -1, -1,
    -1, -1, -1, -1, 11, 2, -1, -1, -1, -1, -1, -1, -1, 90, 3, 30, -1, -1, 27, 85,
    -1, -1, -1, 57, -1, -1, -1, -1, -1, 42, 97, -1, 37, 20, -1, -1,
]


def test_dict_tables_pinned():
    d = DetDictionary([(3, "a"), (1 << 40, "b")])
    assert (d.shift, d.disp, d.slot_keys) == (62, [1, 0, 0, 0], [1 << 40, 3, -1, -1])
    d = DetDictionary([(k, i) for i, k in enumerate(_PIN_KEYS)])
    assert d.shift == 56
    assert d.disp == [_PIN_DISP.get(b, 0) for b in range(256)]
    assert d.slot_keys == [_PIN_KEYS[i] if i >= 0 else -1 for i in _PIN_SLOTS]


def test_dict_repoint():
    keys = list(range(0, 300, 7))
    d = DetDictionary([(k, k + 1) for k in keys])
    disp, slot_keys = list(d.disp), list(d.slot_keys)
    d.repoint(42, "moved")
    assert d.lookup(42) == "moved"
    for k in keys:
        if k != 42:
            assert d.lookup(k) == k + 1
    assert d.lookup(43) is None
    with pytest.raises(KeyError):
        d.repoint(43, "absent")
    with pytest.raises(KeyError):
        DetDictionary([]).repoint(0, "absent")
    assert d.disp == disp and d.slot_keys == slot_keys


def test_dict_direct_table_pinned():
    # span 12 - 7 + 1 = 6 < 4k = 12: slot = key - base, no displacement
    d = DetDictionary([(12, "c"), (7, "a"), (9, "b")])
    assert (d.base, d.slot_keys) == (7, [7, -1, 9, -1, -1, 12])
    assert d.slot_vals == ["a", None, "b", None, None, "c"]
    cells = {}
    for key in (7, 12, 9, 8, 11, 6, 13, 1 << 40, -1, -7, -(1 << 40)):
        before = GLOBAL.dict_cell_probes
        got = d.lookup(key)
        cells[key] = GLOBAL.dict_cell_probes - before
        assert got == {7: "a", 9: "b", 12: "c"}.get(key), key
    assert cells == {7: 2, 12: 2, 9: 2, 8: 1, 11: 1, 6: 1, 13: 1, 1 << 40: 1,
                     -1: 1, -7: 1, -(1 << 40): 1}
    neg = DetDictionary([(-3, "x"), (0, "z"), (-1, "y")])
    assert (neg.base, neg.slot_keys) == (-3, [-3, -1, -1, 0])
    assert [neg.lookup(k) for k in (-4, -3, -2, -1, 0, 1)] == [None, "x", None, "y", "z", None]
    assert (DetDictionary([]).base, DetDictionary([]).slot_keys) == (0, [])


def test_dict_direct_table_repoint():
    d = DetDictionary([(7, "a"), (9, "b"), (12, "c")])
    d.repoint(9, "moved")
    d.repoint(12, "end")
    assert [d.lookup(k) for k in (7, 9, 12)] == ["a", "moved", "end"]
    for absent in (8, 6, 13, -1):
        with pytest.raises(KeyError):
            d.repoint(absent, "absent")
    assert (d.base, d.slot_keys) == (7, [7, -1, 9, -1, -1, 12])


def test_dict_kind_chosen_by_span():
    # k = 3: a span of 4k - 1 = 11 builds direct, a span of 4k = 12 hashed
    direct = DetDictionary([(0, 0), (5, 1), (10, 2)])
    hashed = DetDictionary([(0, 0), (5, 1), (11, 2)])
    assert direct.base == 0 and len(direct.slot_keys) == 11
    assert hashed.base is None and len(hashed.slot_keys) == len(hashed.disp) == 8
    for d, keys in ((direct, (0, 5, 10)), (hashed, (0, 5, 11))):
        for i, k in enumerate(keys):
            assert d.lookup(k) == i
        assert d.lookup(1) is None and d.lookup(12) is None


# ---------------------------------------------------------- static predecessor

def _key(p, x):
    """The key whose index p.query(x) answers, or None for -1."""
    i = p.query(x)
    return None if i < 0 else p.keys[i]


def test_static_pred_examples():
    p = StaticPredecessor([2, 5, 9], u=16)
    assert _key(p, 8) == 5
    assert _key(p, 2) == 2
    assert _key(p, 1) is None
    assert [p.query(x) for x in (1, 2, 8, 9, 15)] == [-1, 0, 1, 2, 2]


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
            assert _key(p, x) == scan_pred(keys, x), (keys, x)


@given(st.sets(st.integers(0, 2**32 - 1), min_size=0, max_size=300),
       st.lists(st.integers(0, 2**32 - 1), max_size=50))
@settings(max_examples=50, deadline=None)
def test_static_pred_random_universe(keys, probes):
    keys = sorted(keys)
    p = StaticPredecessor(keys, u=2**32)
    for x in probes + keys:
        assert _key(p, x) == scan_pred(keys, x)


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
        before = GLOBAL.static_pred_probes
        assert _key(p, x) == scan_pred(keys, x), (keys, x)
        worst = max(worst, GLOBAL.static_pred_probes - before)
    if k <= p.q:
        assert worst <= (p.q - 1).bit_length() + 1  # ceil(lg q) + 1


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
        before = GLOBAL.static_pred_probes
        p.query(rng.randrange(u))
        worst = max(worst, GLOBAL.static_pred_probes - before)
    assert worst <= budget, (worst, budget)


def _dense_sets():
    """Key sets spanning fewer than 4k values in u = 64: single keys at both
    ends of the universe, the full universe, runs with gaps, and random sets."""
    sets = [[0], [37], [63], list(range(64)), [0, 1, 2, 7], [60, 61, 63],
            [3, 4, 9, 10, 20], [10, 12, 14, 16, 18, 30]]
    rng = random.Random(21)
    for _ in range(40):
        k = rng.randint(1, 20)
        span = rng.randint(k, min(64, 4 * k - 1))
        lo = rng.randrange(64 - span + 1)
        inner = rng.sample(range(lo + 1, lo + span - 1), max(0, k - 2)) if span > 2 else []
        sets.append(sorted({lo, lo + span - 1, *inner}))
    return sets


def test_static_pred_direct_exhaustive():
    u = 64
    for keys in _dense_sets():
        p = StaticPredecessor(keys, u)
        assert p.below is not None and p.levels == [], keys
        assert len(p.below) == keys[-1] - keys[0] < 4 * len(keys)
        assert (p.w, p.q) == (6, 6)
        for x in range(u):
            assert _key(p, x) == scan_pred(keys, x), (keys, x)


def test_static_pred_direct_one_probe():
    u = 64
    for keys in _dense_sets():
        p = StaticPredecessor(keys, u)
        for x in range(u):
            before = GLOBAL.static_pred_probes
            p.query(x)
            inside = keys[0] <= x < keys[-1]
            assert GLOBAL.static_pred_probes - before == (1 if inside else 0), (keys, x)


def test_static_pred_kind_chosen_by_span():
    # k = 16 > q = 12: a span of 4k - 1 = 63 builds direct, a span of 4k = 64
    # takes the sampled x-fast path
    u = 4096
    inner = list(range(101, 129, 2))
    direct = StaticPredecessor([100, *inner, 162], u)
    sparse = StaticPredecessor([100, *inner, 163], u)
    assert direct.below is not None and direct.levels == []
    assert sparse.below is None and sparse.levels != []
    assert direct.q == sparse.q == 12
    for p in (direct, sparse):
        for x in range(90, 180):
            assert _key(p, x) == scan_pred(p.keys, x), x


def test_wexp_dense_splitters_against_sorted_oracle():
    from triekit.wexp import WexpTree, _Node, audit_wexp

    rng = random.Random(8)
    u = 64
    t = WexpTree(u)
    oracle = SortedSetOracle()
    for key in rng.sample(range(u), 56):
        t.insert(key)
        oracle.insert(key)
        for x in range(u):
            hit = t.pred(x)
            assert (None if hit is None else hit[0]) == oracle.pred(x), (key, x)
    audit_wexp(t)
    stack, direct = [t.root], 0
    while stack:
        node = stack.pop()
        if isinstance(node, _Node):
            direct += node.pred.below is not None
            stack.extend(c for c in node.children if c is not None)
    assert direct > 0


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
    assert p.keys() == [9] and p.query(63) == 9


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


# ------------------------------------------------------ bit-word predecessor

@pytest.mark.parametrize("u", [1, 2, 63, 64, 65, 257, 4097, 65537])
def test_bit_pred_against_sorted_list(u):
    rng = random.Random(u)
    p = BitPredecessor(u)
    oracle = SortedSetOracle()
    assert p.query(u - 1) is None and p.keys() == []
    # a repeated key now and then: the insert is idempotent
    pool = [rng.randrange(u) for _ in range(min(u, 600))]
    for step, key in enumerate(pool + rng.sample(pool, len(pool) // 4)):
        p.insert(key)
        oracle.insert(key)
        if step % 97 != 0:
            continue
        xs = range(u) if u <= 257 else [rng.randrange(u) for _ in range(500)]
        for x in xs:
            assert p.query(x) == oracle.pred(x), (u, x)
    xs = range(u) if u <= 257 else [rng.randrange(u) for _ in range(2000)]
    for x in xs:
        assert p.query(x) == oracle.pred(x), (u, x)
    assert p.query(u - 1) == oracle.keys[-1]
    assert p.keys() == oracle.keys
    p.audit()


def test_bit_pred_levels_and_probes():
    assert [len(BitPredecessor(u).levels) for u in (1, 64, 65, 257, 65537, 2**24 + 1)] == \
        [1, 1, 2, 2, 3, 5]
    p = BitPredecessor(4097)
    for k in (4096, 0, 70):
        p.insert(k)
    before = GLOBAL.dyn_pred_probes
    assert [p.query(x) for x in (69, 70, 4095, 4096)] == [0, 70, 70, 4096]
    assert GLOBAL.dyn_pred_probes - before == 4
    # an insert stops at the first word that was already nonzero
    levels = [list(words) for words in p.levels]
    p.insert(71)
    assert p.levels[1:] == levels[1:]
