import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import DuplicateKeyError, InvalidHandleError
from triekit.instrument import GLOBAL
from triekit.predkit import StaticPredecessor
from triekit.wexp import (
    CAPACITY,
    WexpTree,
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
        assert t.root.level == 1
    t.insert(8)  # W reaches 2*f(2) = 8
    assert t.root.level == 2
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
    assert h.home.pred is not None  # an inner node: its static predecessor finds h
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
    assert t.root.level > 1
    splitter = t.root.splitters[0]
    splitter.weight += 1  # recorded subtree weights no longer add up
    with pytest.raises(AssertionError, match="recorded weight differs"):
        audit_wexp(t)
    splitter.weight -= 1
    base = t.root
    while base.level > 1:
        base = next(c for c in base.children if c is not None)
    elem = base.splitters[0]
    delta = 2 * capacity(2) - elem.weight  # too heavy for a level-1 node
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
    message = "map holds a key the tree does not" if mutation == "stray" else "map entry broken"
    with pytest.raises(AssertionError, match=message):
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
    """Inner nodes, splitter-less inner nodes, level-1 nodes, their
    elements and the largest level drop from a node to a child in its slots."""
    inner = empty = bases = items = drop = 0
    stack = [t.root]
    while stack:
        node = stack.pop()
        if node.level == 1:
            bases += 1
            items += len(node.splitters)
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
    assert root.level > 1
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
    with pytest.raises(AssertionError, match="static predecessor keys differ"):
        audit_wexp(t)


def test_audit_rejects_child_at_parent_level():
    t = _mixed_workload(2**16, 7, 2000)
    child = next(c for c in t.root.children if c is not None and c.level > 1)
    child.level = t.root.level
    with pytest.raises(AssertionError, match="levels must decrease"):
        audit_wexp(t)


def test_audit_rejects_splitter_above_its_slot():
    # the last splitter of a level-2 node whose right slot is empty moves to
    # a free key above its slot's upper splitter, with the map and the node's
    # static predecessor kept consistent: only the upper key bound sees it
    t = _mixed_workload(2**16, 7, 2000)
    audit_wexp(t)
    stack = [(t.root, None)]
    while True:
        node, hi = stack.pop()
        if node.level == 2 and node.children[-1] is None and hi is not None:
            break
        uppers = [e.key for e in node.splitters] + [hi]
        stack.extend((c, b) for c, b in zip(node.children, uppers)
                     if c is not None and c.level > 1)
    e = node.splitters[-1]
    key = next(k for k in range(hi + 1, t.u) if k not in t.handles)
    del t.handles[e.key]
    e.key = key
    t.handles[key] = e
    node.pred = StaticPredecessor([x.key for x in node.splitters], t.u)
    with pytest.raises(AssertionError, match="above its slot"):
        audit_wexp(t)


def _preorder(t):
    """(level, keys, weights) of each node in preorder; a node's elements are
    read through the handles' `home` links."""
    homes = {}
    for key in sorted(t.handles):
        h = t.handles[key]
        homes.setdefault(id(h.home), []).append(h)
    out, stack = [], [t.root]
    while stack:
        node = stack.pop()
        elems = homes.get(id(node), [])
        out.append((node.level, [h.key for h in elems], [h.weight for h in elems]))
        if node.level > 1:
            stack.extend(c for c in reversed(node.children) if c is not None)
    return out


_SHAPE_PIN = [  # _preorder(_mixed_workload(2**16, 7, 2000))
    (5, [16226, 28977, 44833, 55642], [11, 14, 14, 15]),
    (4, [3027, 5183, 7727, 9491, 12337, 13393], [10, 4, 9, 5, 10, 7]),
    (3, [376, 1849, 2416], [5, 5, 7]), (2, [342], [6]), (1, [52, 170], [1, 2]),
    (2, [459, 1153], [6, 2]), (1, [515], [2]), (1, [1184, 1235, 1246], [2, 2, 1]),
    (2, [1995], [1]), (1, [1944, 1966], [2, 1]), (1, [2023, 2100, 2330], [2, 3, 2]),
    (2, [2632], [4]), (1, [2438, 2612], [1, 2]), (1, [2721, 2746], [1, 2]),
    (3, [3544, 4124, 4441], [8, 6, 6]), (2, [3306], [4]), (1, [3314, 3526], [1, 4]),
    (1, [3626], [2]), (2, [4438], [4]), (1, [4410], [2]), (2, [4997], [4]),
    (1, [5142, 5173], [2, 3]), (3, [6012], [5]), (2, [5486], [6]),
    (1, [5235, 5319, 5442], [2, 2, 1]), (1, [5589, 5670], [1, 2]), (2, [6366, 7158], [5, 5]),
    (1, [6117], [2]), (1, [6596, 6705, 6832, 7033], [1, 1, 1, 1]), (1, [7451, 7543], [2, 1]),
    (3, [8305, 8643], [7, 4]), (2, [7950], [3]), (1, [8126], [5]), (1, [8494, 8532], [5, 1]),
    (2, [9030], [4]), (1, [8700, 8755], [1, 2]), (1, [9413, 9427, 9436], [1, 1, 1]),
    (3, [11836], [5]), (2, [10585, 11464], [4, 2]), (1, [9854, 9978, 10443], [2, 1, 3]),
    (1, [11146], [1]), (1, [11478, 11567], [4, 1]), (2, [11890, 11939], [6, 5]),
    (1, [11860], [4]), (1, [11923], [2]), (1, [11997], [1]), (3, [12770, 12811], [13, 8]),
    (1, [12644, 12743], [2, 1]), (2, [13035, 13321], [3, 3]), (1, [13194, 13289], [1, 4]),
    (1, [13389], [6]), (3, [13799, 15716], [6, 7]), (2, [13470], [5]), (1, [13751], [3]),
    (2, [14272, 15103], [2, 2]), (1, [13978, 14114], [1, 2]),
    (1, [14463, 14496, 14804], [1, 2, 1]), (1, [15394, 15577], [3, 3]), (2, [15948], [8]),
    (1, [15827, 15905, 15947], [2, 2, 3]), (1, [16094], [1]),
    (4, [17455, 19772, 21007, 23796, 26268, 27363], [14, 11, 6, 6, 2, 7]), (3, [17168], [10]),
    (2, [16651], [7]), (1, [16469], [2]), (1, [16661, 17074, 17107], [1, 4, 1]),
    (3, [18600, 18972], [5, 6]), (2, [17990], [6]), (1, [18323], [2]), (2, [18677], [3]),
    (1, [18698, 18965], [2, 3]), (2, [19186], [4]), (1, [18978, 19014, 19114], [1, 2, 1]),
    (1, [19323, 19452], [2, 4]), (3, [19826, 20349], [9, 3]), (1, [19783, 19786], [1, 3]),
    (1, [19830, 19892, 19951, 20164], [2, 3, 1, 1]), (2, [20445, 20963], [3, 6]),
    (1, [20542, 20935], [2, 3]), (3, [21208, 22272, 23609], [3, 2, 1]), (2, [21188], [7]),
    (1, [21455, 21480, 21512, 21906, 22117], [2, 2, 1, 1, 1]), (2, [22516], [6]),
    (1, [22449], [1]), (1, [22745, 22898, 22983, 23387], [2, 2, 1, 2]), (2, [23683], [3]),
    (1, [23682], [2]), (1, [23763], [4]), (3, [23980, 24185, 25449], [6, 3, 4]),
    (1, [23900], [7]), (1, [24091, 24110], [6, 1]), (2, [24895], [5]), (1, [24655], [4]),
    (1, [24934, 25189, 25443], [1, 3, 1]), (2, [25855], [6]), (1, [26151, 26189], [3, 3]),
    (3, [26665], [4]), (1, [26326, 26541, 26584, 26624], [1, 2, 2, 2]),
    (2, [26868, 26964], [4, 7]), (1, [26861], [2]), (1, [26917], [2]),
    (1, [27016, 27119], [3, 1]), (3, [27618], [9]), (1, [27441], [2]),
    (2, [27889, 28558], [7, 3]), (1, [27878], [3]), (1, [27931, 28524], [1, 1]),
    (1, [28789, 28795, 28928], [1, 2, 1]),
    (4, [31255, 33063, 34625, 37674, 39685, 41123], [3, 7, 8, 12, 4, 12]), (3, [29322], [8]),
    (1, [29151, 29263], [6, 1]), (2, [29818, 30653], [2, 4]), (1, [29348], [1]),
    (1, [29906, 30253, 30360], [3, 1, 2]), (1, [30947, 31018, 31229], [2, 2, 1]),
    (3, [31920, 32455], [4, 6]), (2, [31756], [2]), (1, [31266, 31288, 31289], [1, 1, 2]),
    (1, [31778, 31901], [2, 3]), (2, [32076], [3]), (1, [32091, 32227, 32382], [1, 1, 5]),
    (1, [32565, 32828, 33030], [5, 1, 1]), (3, [34194], [3]), (2, [33501], [6]),
    (1, [33205, 33412], [1, 3]), (1, [33536, 33626, 33821, 34035], [1, 3, 2, 1]),
    (2, [34315], [10]), (1, [34235], [1]), (1, [34349, 34454, 34511], [2, 2, 1]),
    (3, [34899, 35641, 36559], [4, 4, 3]), (2, [34647], [4]), (1, [34835, 34867], [2, 2]),
    (2, [35263], [4]), (1, [35181], [3]), (1, [35345, 35420], [3, 4]), (2, [36043], [6]),
    (1, [35889, 36001], [1, 2]), (1, [36463], [3]), (2, [36858], [2]),
    (1, [36700, 36815], [1, 2]), (1, [36907, 37132, 37170, 37530], [2, 3, 1, 1]),
    (3, [38287, 39354], [4, 7]), (1, [37823, 37935, 38015, 38070, 38102], [2, 2, 1, 1, 1]),
    (2, [38492], [5]), (1, [38472], [6]), (1, [38655, 39089, 39219], [2, 3, 1]),
    (2, [39520], [8]), (1, [39367], [3]), (1, [39676], [1]), (3, [39779, 40893], [3, 2]),
    (1, [39710, 39756], [1, 3]), (2, [39850, 40580], [4, 2]),
    (1, [40053, 40370, 40435], [1, 2, 2]), (1, [40678, 40704, 40799], [2, 1, 2]),
    (2, [40920], [6]), (1, [41120], [4]), (3, [43001], [1]), (2, [41691, 42513], [3, 1]),
    (1, [41483], [1]), (1, [41753, 42032, 42180], [1, 1, 3]),
    (1, [42559, 42624, 42827, 42908], [3, 1, 2, 1]), (2, [43264, 44199, 44442], [3, 2, 2]),
    (1, [43144, 43253], [1, 1]), (1, [43363, 43479], [1, 1]), (1, [44338], [1]),
    (1, [44504, 44716, 44747], [2, 2, 1]), (4, [47278, 48398, 50020, 52754], [3, 9, 6, 3]),
    (3, [45835, 46066], [4, 2]), (2, [45130, 45482], [1, 3]), (1, [45118], [2]),
    (1, [45306], [1]), (1, [45514, 45554, 45770], [1, 1, 2]), (2, [46020], [2]),
    (1, [45905, 45992], [1, 2]), (1, [46062], [2]), (2, [46094, 46812], [2, 3]),
    (1, [46078], [1]), (1, [46222, 46251, 46257, 46746], [1, 1, 2, 1]),
    (1, [47082, 47235], [2, 3]), (3, [47742], [4]), (2, [47415], [5]),
    (1, [47315, 47380], [2, 1]), (1, [47612, 47632, 47722], [1, 3, 2]),
    (2, [47993, 48237], [7, 3]), (1, [47945], [1]), (1, [48327], [5]), (3, [48935], [4]),
    (2, [48649], [3]), (1, [48401, 48448], [1, 2]), (1, [48822, 48902], [1, 3]),
    (2, [49075, 49527], [4, 5]), (1, [48995], [1]), (1, [49282, 49288], [1, 2]),
    (1, [49922], [3]), (3, [51317], [4]), (2, [50541], [3]), (1, [50223], [3]),
    (1, [50948], [3]), (2, [51553, 51903], [4, 1]), (1, [51333, 51375, 51454], [1, 1, 1]),
    (1, [51625, 51809], [2, 2]), (1, [52042, 52294, 52372, 52671], [1, 2, 1, 1]),
    (3, [53600, 54804], [1, 9]), (2, [52883, 53169], [5, 3]), (1, [52851], [1]),
    (1, [52931, 53104], [1, 1]), (1, [53420, 53493], [1, 2]), (2, [53844, 54472], [2, 3]),
    (1, [53676], [2]), (1, [53997, 54299], [1, 2]), (1, [54783], [4]), (2, [55189], [6]),
    (1, [55519], [2]), (4, [58875, 61890, 64089], [8, 3, 10]),
    (3, [55731, 56560, 56838, 57514], [7, 7, 11, 4]), (2, [55909, 56261], [3, 6]),
    (1, [55763, 55785], [2, 1]), (1, [56439], [2]), (1, [56692], [3]), (2, [57049], [4]),
    (1, [56848], [2]), (2, [58394], [2]), (1, [57550, 58089], [1, 1]),
    (1, [58427, 58499, 58503], [1, 2, 3]), (3, [59733, 60994], [6, 6]), (2, [59239], [2]),
    (1, [59013, 59162], [1, 2]), (1, [59308, 59381, 59392], [2, 1, 1]), (2, [59793], [3]),
    (1, [60332, 60527, 60626, 60876], [1, 1, 1, 2]), (2, [61045, 61317], [6, 1]),
    (1, [61222], [2]), (1, [61408, 61632, 61663, 61683], [1, 2, 1, 1]),
    (3, [62061, 62228], [8, 9]), (2, [62057], [6]), (1, [61891], [2]),
    (2, [62928, 63742], [2, 2]), (1, [62246], [1]), (1, [62946, 63365], [1, 1]),
    (1, [63759, 63878, 64077], [1, 2, 2]), (3, [64447, 64589], [6, 8]), (2, [64333], [4]),
    (1, [64281], [2]), (1, [64357], [4]), (1, [64470], [4]), (2, [64980], [5]),
    (1, [64943], [2]), (1, [65028, 65083, 65152], [1, 1, 5]),
]


def test_wexp_shape_pinned():
    t = _mixed_workload(2**16, 7, 2000)
    audit_wexp(t)
    assert _preorder(t) == _SHAPE_PIN
