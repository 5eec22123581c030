import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.cli import main
from triekit.dynamic_index import DynTrieIndex, _Fragment, _HeavyPointer, canonical_level
from triekit.errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError
from triekit.instrument import GLOBAL
from triekit.predkit import BitPredecessor, DetDictionary, DynamicPredecessor, StaticPredecessor
from triekit.text import SENTINEL, ChildArray
from triekit.wexp import WEIGHT_LIMIT, WexpTree, capacity

import families
from oracles import longest_matchable_prefix, string_predecessor


def enc(raw: bytes):
    # letters coded 1..26 so the sigma=26 alphabet fits
    return [b - ord("a") + 1 for b in raw]


def test_promotion_thresholds():
    # levels rise at weight 2*f(level+1): 4, 8, 20, 66
    assert [2 * capacity(l + 1) for l in range(4)] == [4, 8, 20, 66]
    assert WEIGHT_LIMIT == [2 * capacity(l + 1) for l in range(len(WEIGHT_LIMIT))]
    assert canonical_level(1) == 0
    assert canonical_level(4) == 1
    assert canonical_level(8) == 2
    assert canonical_level(20) == 3


def test_small_insert_and_search():
    idx = DynTrieIndex(sigma=26)
    for w in (b"abc", b"abd", b"abe"):
        idx.insert(enc(w))
    # all non-root nodes are light, one small tree below the root
    for v in range(1, len(idx.trie.nodes)):
        assert not idx.heavy[v]
    # a node's small-tree root is the root of its topmost fragment
    roots = {idx._fragments_above(v)[-1].root for v in range(1, len(idx.trie.nodes))}
    assert len(roots) == 1
    r = idx.search(enc(b"ab"))
    assert r.matched and r.occ == 3
    idx.audit()


def test_duplicate_rejected():
    idx = DynTrieIndex(sigma=4)
    idx.insert([1, 2])
    with pytest.raises(DuplicateKeyError):
        idx.insert([1, 2])


@pytest.mark.parametrize("dup", [[1, 2], [1], [1, 2, 3], []])
def test_duplicate_leaves_state_unchanged(dup):
    idx = DynTrieIndex(sigma=4)
    for w in ([1, 2], [1], [1, 2, 3], [], [2, 2, 2]):
        idx.insert(w)
    state = (len(idx.trie.sources), idx.occ[idx.trie.ROOT], len(idx.trie.nodes))
    with pytest.raises(DuplicateKeyError):
        idx.insert(dup)
    assert (len(idx.trie.sources), idx.occ[idx.trie.ROOT], len(idx.trie.nodes)) == state
    idx.insert([3, 1])
    sid = idx.predecessor([3, 1])  # a stored pattern is its own predecessor
    assert sid == state[0] and idx.string_codes(sid) == [3, 1]
    idx.audit()


def test_insert_takes_any_iterable_of_codes():
    # the string is copied once, checked, then stored: an iterator is read
    # only once, so it must be the stored copy that is checked
    idx = DynTrieIndex(sigma=4)
    idx.insert(iter([1, 2, 3]))
    idx.insert((2, 1))
    for w in ([1, 2, 3], [2, 1]):
        assert idx.search(w).occ == 1
        assert idx.string_codes(idx.predecessor(w)) == w
    assert idx.search([]).occ == 2
    idx.audit()


def test_insert_of_an_out_of_range_iterator_stores_nothing():
    idx = DynTrieIndex(sigma=4)
    idx.insert([1, 2])
    state = (len(idx.trie.sources), idx.occ[idx.trie.ROOT], len(idx.trie.nodes))
    with pytest.raises(AlphabetOverflowError):
        idx.insert(iter([1, 5, 2]))
    assert (len(idx.trie.sources), idx.occ[idx.trie.ROOT], len(idx.trie.nodes)) == state
    assert idx.search([1]).occ == 1
    idx.audit()


def test_library_makes_no_audit_under_triekit_audit(monkeypatch):
    # TRIEKIT_AUDIT is a setting of the CLI's commands, not of the library
    monkeypatch.setenv("TRIEKIT_AUDIT", "1")
    calls = []
    real_audit = DynTrieIndex.audit

    def counted_audit(self):
        calls.append(1)
        real_audit(self)

    monkeypatch.setattr(DynTrieIndex, "audit", counted_audit)
    idx = DynTrieIndex(sigma=4)
    for w in ([1], [2, 3], [4, 4]):
        idx.insert(w)
    idx.search([2])
    idx.predecessor([3])
    assert calls == []


@pytest.mark.parametrize("env, audits", [("1", 3), (None, 0)])
def test_audit_setting_read_at_construction(tmp_path, capsys, monkeypatch, env, audits):
    # the CLI reads TRIEKIT_AUDIT once, before its index takes the first insert,
    # and then audits right after each insert
    if env is None:
        monkeypatch.delenv("TRIEKIT_AUDIT", raising=False)
    else:
        monkeypatch.setenv("TRIEKIT_AUDIT", env)
    calls = []
    real_audit, real_insert = DynTrieIndex.audit, DynTrieIndex.insert

    def counted_audit(self):
        calls.append(1)
        real_audit(self)

    def flipping_insert(self, codes):
        real_insert(self, codes)
        monkeypatch.setenv("TRIEKIT_AUDIT", "0" if env else "1")  # read once, before

    monkeypatch.setattr(DynTrieIndex, "audit", counted_audit)
    monkeypatch.setattr(DynTrieIndex, "insert", flipping_insert)
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I a\nI bc\nI dd\n")
    assert main(["dynamic", "--ops", str(ops)]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == audits


def _random_index(seed):
    rng = random.Random(seed)
    idx = DynTrieIndex(sigma=26)
    words = set()
    while len(words) < 80:
        words.add(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6))))
    for w in sorted(words, key=lambda w: rng.random()):
        idx.insert(list(w))
    idx.audit()
    return idx


def test_audit_catches_split_fragment():
    idx = _random_index(4)
    v = next(v for v in range(1, len(idx.trie.nodes))
             if not idx.heavy[v] and idx.frag[v].root != v)
    idx.frag[v] = _Fragment(v)
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_missing_fragment_record():
    idx = _random_index(4)
    v = next(v for v in range(1, len(idx.trie.nodes)) if not idx.heavy[v])
    idx.frag[v] = None
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_fragment_handle_from_another_tree():
    idx = _random_index(4)
    v = next(v for v in range(1, len(idx.trie.nodes))
             if not idx.heavy[v] and idx.frag[v].root == v
             and not idx.heavy[idx.trie.nodes[v].parent])
    f = idx.frag[v]
    h = f.handle
    other = WexpTree(idx.sigma + 1).insert(h.key)
    other.weight = h.weight
    f.handle = other
    with pytest.raises(AssertionError, match="not registered"):
        idx.audit()


@pytest.mark.parametrize("where", ["root", "member", "heavy"])
def test_audit_catches_stale_leaf_count(where):
    # occ is the one leaf count that promotions and rebalances read
    idx = _random_index(4)
    nodes = range(1, len(idx.trie.nodes))
    if where == "heavy":
        v = next(v for v in nodes if idx.heavy[v])
    else:
        v = next(v for v in nodes
                 if not idx.heavy[v] and (idx.frag[v].root == v) == (where == "root"))
    idx.occ[v] += 1
    with pytest.raises(AssertionError):
        idx.audit()


def test_alphabet_overflow():
    idx = DynTrieIndex(sigma=4)
    with pytest.raises(AlphabetOverflowError):
        idx.insert([5])
    with pytest.raises(AlphabetOverflowError):
        idx.search([9])
    for w in ([1, 2], [1, 3], [4]):
        idx.insert(w)
    sources = list(idx.trie.sources)
    # both ends of [1, sigma], as the first and as a later character
    for bad in ([0], [5], [1, 2, 0], [1, 2, 5]):
        for op in (idx.insert, idx.search, idx.predecessor):
            with pytest.raises(AlphabetOverflowError):
                op(bad)
        assert idx.occ[idx.trie.ROOT] == 3 and idx.trie.sources == sources
    idx.audit()


def test_sigma_below_1_refused():
    for sigma in (0, -1):
        with pytest.raises(InvalidInputError):
            DynTrieIndex(sigma)


def test_code_that_is_not_an_int_refused_before_any_wiring():
    # a float once hung its leaf and raised TypeError half-wired
    idx = DynTrieIndex(sigma=4)
    idx.insert([1, 2])
    for bad in ([1.5], [1, 2.0], [True], [1, "b"]):
        for op in (idx.insert, idx.search, idx.predecessor):
            with pytest.raises(InvalidInputError):
                op(bad)
    assert idx.occ[idx.trie.ROOT] == 1 and idx.trie.sources == [[1, 2, SENTINEL]]
    idx.insert([1, 3])
    idx.audit()
    assert idx.search([1]).occ == 2


def test_child_becomes_heavy():
    sigma = 4
    idx = DynTrieIndex(sigma=sigma)
    # strings sharing the first character pile leaves under one root child
    words = []
    rng = random.Random(1)
    while len(words) < 4 * sigma:
        w = [1] + [rng.randint(1, sigma) for _ in range(4)]
        if w not in words:
            words.append(w)
    for w in words:
        idx.insert(w)
    idx.audit()
    root_kids = idx.trie.nodes[idx.trie.ROOT].children
    top = root_kids[1]
    assert idx.heavy[top], "the shared branch must have left its small tree"


def test_search_examples():
    idx = DynTrieIndex(sigma=26)
    idx.insert(enc(b"abc"))
    idx.insert(enc(b"abd"))
    r = idx.search(enc(b"ab"))
    assert r.matched and r.occ == 2
    assert idx.search([]).occ == 2
    r = idx.search(enc(b"abe"))
    assert not r.matched and r.matched_len == 2
    p = idx.predecessor(enc(b"abe"))
    assert idx.string_codes(p) == enc(b"abd")


def test_predecessor_cases():
    idx = DynTrieIndex(sigma=26)
    words = [b"ant", b"bee", b"cow", b"a", b"antelope"]
    for w in words:
        idx.insert(enc(w))

    def pred(wb):
        r = idx.predecessor(enc(wb))
        return None if r is None else bytes(c - 1 + ord("a") for c in idx.string_codes(r))

    assert pred(b"bat") == b"antelope"
    assert pred(b"zebra") == b"cow"
    assert pred(b"a") == b"a"  # stored pattern is its own predecessor
    assert pred(b"ant") == b"ant"
    assert pred(b"anta") == b"ant"
    assert pred(b"") is None  # everything stored sorts above the empty pattern


def test_predecessor_boundary_patterns():
    # the label walk reads code lists directly; check it where a pattern
    # ends or mismatches at a label boundary or at a leaf label's sentinel
    sigma = 4
    rng = random.Random(6)
    idx = DynTrieIndex(sigma=sigma)
    stored = set()
    for _ in range(300):
        w = tuple(rng.randint(1, sigma) for _ in range(rng.randrange(9)))
        if w not in stored:
            stored.add(w)
            idx.insert(list(w))
    oracle = sorted(w + (SENTINEL,) for w in stored)
    pats = set()
    for w in stored:
        pats.update(w + (c,) for c in range(1, sigma + 1))  # extended by every char
        pats.update(w[:k] for k in range(len(w)))  # proper prefixes
        pats.add(w)  # ends on the sentinel of w's leaf label
    assert any(nd.is_leaf and nd.label_len >= 2 for nd in idx.trie.nodes), \
        "no stored string ends inside its leaf label"
    for pat in sorted(pats):
        i = bisect.bisect_right(oracle, pat + (SENTINEL,))
        want = list(oracle[i - 1][:-1]) if i else None
        got = idx.predecessor(list(pat))
        assert (None if got is None else idx.string_codes(got)) == want, pat


def test_predecessor_wide_alphabet():
    # sigma = 2^16 and a few thousand strings: the heavy root has many
    # children, so predecessor ascents are answered by its predecessor slot
    sigma = 1 << 16
    rng = random.Random(16)
    firsts = rng.sample(range(1, sigma + 1), 1500)
    idx = DynTrieIndex(sigma=sigma)
    stored = set()
    while len(stored) < 3000:
        w = (rng.choice(firsts),) + tuple(rng.randint(1, sigma) for _ in range(rng.randrange(3)))
        if w not in stored:
            stored.add(w)
            idx.insert(list(w))
    assert len(idx.trie.nodes[idx.trie.ROOT].children) > 1000
    oracle = sorted(w + (SENTINEL,) for w in stored)
    pats = [list(w) for w in rng.sample(sorted(stored), 1000)]
    pats += [p[:-1] + [max(1, p[-1] - 1)] for p in pats if p]
    pats += [[rng.randint(1, sigma) for _ in range(rng.randrange(4))] for _ in range(1000)]
    for pat in pats:
        i = bisect.bisect_right(oracle, tuple(pat) + (SENTINEL,))
        want = list(oracle[i - 1][:-1]) if i else None
        got = idx.predecessor(pat)
        assert (None if got is None else idx.string_codes(got)) == want, pat
    idx.audit()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_workload_matches_naive_oracle(seed):
    rng = random.Random(seed)
    sigma = rng.choice([4, 26, 256])
    idx = DynTrieIndex(sigma=sigma)
    stored = []
    seen = set()
    for step in range(120):
        w = tuple(rng.randint(1, sigma) for _ in range(rng.randrange(0, 10)))
        if w in seen:
            continue
        seen.add(w)
        stored.append(list(w))
        idx.insert(list(w))
        for _ in range(3):
            pat = [rng.randint(1, sigma) for _ in range(rng.randrange(0, 8))]
            res = idx.search(pat)
            matches = sorted(i for i, s in enumerate(stored)
                             if s[:len(pat)] == pat)
            assert res.matched == bool(matches)
            if matches:
                assert res.occ == len(matches)
                assert sorted(idx.enumerate_match(res)) == matches
            else:
                assert res.matched_len == longest_matchable_prefix(stored, pat)
            want = string_predecessor(stored, pat)
            got = idx.predecessor(pat)
            got_codes = None if got is None else idx.string_codes(got)
            assert got_codes == want
        if step % 40 == 39:
            idx.audit()
    idx.audit()


def test_edge_split_keeps_invariants():
    rng = random.Random(7)
    idx = DynTrieIndex(sigma=4)
    words = set()
    # long shared prefixes force plenty of mid-edge splits
    for _ in range(200):
        w = tuple([1, 1, 1] + [rng.randint(1, 4) for _ in range(rng.randrange(0, 6))])
        if w not in words:
            words.add(w)
            idx.insert(list(w))
            idx.audit()


def _pointer_words():
    # node [1] is heavy with no array at sigma = 100, so its step is a
    # _HeavyPointer to its heavy child on character 2
    return ([[1, 2, 3, 4, 5 + i % 90, 5 + i // 90] for i in range(120)]
            + [[1, c, 1] for c in (7, 8, 9)] + [[10], [11]])


def test_split_below_heavy_pointer_repoints_it():
    # splitting the heavy edge below [1] at [1, 2] must point the step at
    # the new middle node
    idx = DynTrieIndex(sigma=100)
    words = _pointer_words()
    for w in words:
        idx.insert(w)
    u = idx.search([1]).node
    step = idx.child_step[u]
    assert idx.heavy[u] and type(step) is _HeavyPointer and step.heavy_kid[0] == 2
    words.append([1, 2, 9])
    idx.insert(words[-1])
    mid = idx.trie.nodes[u].children[2]
    assert idx.child_step[u] is step and step.heavy_kid == (2, mid)
    assert idx.search([1, 2]).node == mid
    for p in words + [[1, 2], [1, 2, 3, 4]]:
        r = idx.search(p)
        assert r.matched and r.matched_len == len(p), p
        assert r.occ == sum(w[:len(p)] == p for w in words), p
    idx.audit()


def _undo_heavy_pointer_repoint():
    # inserting [1, 2, 9] splits the heavy edge below [1], and the step's
    # pointer is put back on the old child
    idx = DynTrieIndex(sigma=100)
    for w in _pointer_words():
        idx.insert(w)
    step = idx.child_step[idx.search([1]).node]
    old = step.heavy_kid
    idx.insert([1, 2, 9])
    step.heavy_kid = old
    return idx


def _light_child(idx, same_level):
    """(v, c, ch): a light node above level 0 and its child on c, at v's
    level or below it."""
    nodes = idx.trie.nodes
    return next((v, c, ch) for v in range(1, len(nodes))
                if not idx.heavy[v] and idx.level[v]
                for c, ch in nodes[v].children.items()
                if (idx.level[ch] == idx.level[v]) == same_level)


def _light_root():
    idx = _random_index(4)
    idx.heavy[idx.trie.ROOT] = False
    return idx


def _stray_parent_link():
    idx = _random_index(4)
    nodes = idx.trie.nodes
    v = next(v for v in range(1, len(nodes)) if nodes[v].children)
    nodes[next(iter(nodes[v].children.values()))].parent = idx.trie.ROOT
    return idx


def _foreign_fragment():
    idx = _random_index(4)
    v = next(v for v in range(1, len(idx.trie.nodes))
             if not idx.heavy[v] and idx.frag[v].root != v)
    idx.frag[v] = _Fragment(idx.frag[v].root)
    return idx


def _repointed_same_level_entry():
    idx = _random_index(4)
    v, c, ch = _light_child(idx, True)
    idx.child_step[v].same.repoint(c, v)
    return idx


def _lower_child_raised():
    idx = _random_index(4)
    v, c, ch = _light_child(idx, False)
    idx.level[ch] = idx.level[v] + 1
    return idx


@pytest.mark.parametrize("plant, message", [
    (_undo_heavy_pointer_repoint, "heavy pointer does not lead to the heavy child"),
    (_light_root, "the root must be heavy"),
    (_stray_parent_link, "parent link differs from its edge"),
    (_foreign_fragment, "parent is outside its fragment"),
    (_repointed_same_level_entry, "same-level dict entry differs from the child"),
    (_lower_child_raised, "a child off the same-level dict must be lower"),
])
def test_audit_names_the_broken_invariant(plant, message):
    idx = plant()
    with pytest.raises(AssertionError, match=message):
        idx.audit()


def test_deep_promotions():
    # sigma large enough that fragments reach level 3 before rebalancing
    idx = DynTrieIndex(sigma=256)
    rng = random.Random(3)
    words = set()
    while len(words) < 100:
        w = tuple([7] * rng.randrange(1, 12) + [rng.randint(1, 256)])
        if w not in words:
            words.add(w)
            idx.insert(list(w))
    idx.audit()
    levels = {idx.level[v] for v in range(1, len(idx.trie.nodes)) if not idx.heavy[v]}
    assert max(levels) >= 2, "promotions should have raised some levels"


# ------------------------------------------------- heavy-node child arrays

def test_array_search_makes_no_predecessor_query():
    # sigma = 4000 and 1,000 strings: only the root is heavy, and its array
    # (built at the 63rd string, 64 * 63 >= 4001) holds every child
    sigma = 4000
    rng = random.Random(12)
    firsts = rng.sample(range(1, sigma + 1), 300)
    idx = DynTrieIndex(sigma=sigma)
    stored = set()
    for step in range(1000):
        w = (rng.choice(firsts),) + tuple(rng.randint(1, sigma) for _ in range(rng.randrange(4)))
        if w in stored:
            continue
        stored.add(w)
        idx.insert(list(w))
        if step % 100 != 99:
            continue
        assert type(idx.child_step[idx.trie.ROOT]) is ChildArray
        oracle = sorted(stored)
        pats = [list(p[:rng.randrange(len(p) + 1)]) for p in rng.sample(oracle, 50)]
        pats += [list(p) + [rng.randint(1, sigma)] for p in rng.sample(oracle, 50)]
        pats += [[rng.randint(1, sigma) for _ in range(rng.randrange(1, 4))] for _ in range(50)]
        before = GLOBAL.snapshot()
        results = [idx.search(p) for p in pats]
        assert GLOBAL.diff(before)["dyn_pred_probes"] == 0
        for pat, res in zip(pats, results):
            pat = tuple(pat)
            lo = bisect.bisect_left(oracle, pat)
            hi = bisect.bisect_left(oracle, pat + (sigma + 1,))
            assert res.matched == (hi > lo), pat
            if hi > lo:
                assert res.occ == hi - lo
            else:
                # the longest match is with a neighbour in sorted order
                near = oracle[max(0, lo - 1):lo + 1]
                assert res.matched_len == longest_matchable_prefix(near, pat), pat
    idx.audit()


def test_root_array_rule():
    # at sigma = 2^32 - 1 the root array waits for 2^26 strings
    idx = DynTrieIndex(sigma=2**32 - 1)
    for w in ([5], [5, 9], [2**32 - 1], [7, 7, 7]):
        idx.insert(w)
    assert type(idx.child_step[idx.trie.ROOT]) is not ChildArray
    assert idx.search([5]).occ == 2 and not idx.search([6]).matched
    idx.audit()
    # at sigma = 300 it appears at the 5th string: 64 * 4 < 301 <= 64 * 5
    idx = DynTrieIndex(sigma=300)
    for n, w in enumerate(([1], [2, 3], [300], [2, 4], [9, 9], [10]), start=1):
        idx.insert(w)
        assert (type(idx.child_step[idx.trie.ROOT]) is ChildArray) == (n >= 5), n
        idx.audit()


def _array_index():
    idx = DynTrieIndex(sigma=300)
    rng = random.Random(8)
    while idx.occ[idx.trie.ROOT] < 40:
        try:
            idx.insert([rng.randint(1, 300) for _ in range(rng.randint(1, 3))])
        except DuplicateKeyError:
            pass
    idx.audit()
    return idx


def test_audit_catches_cleared_array_cell():
    idx = _array_index()
    root = idx.trie.ROOT
    c, ch = next((c, ch) for c, ch in idx.trie.nodes[root].children.items() if not idx.heavy[ch])
    idx.child_step[root][c] = None
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_extra_array_cell():
    idx = _array_index()
    root = idx.trie.ROOT
    kids = idx.trie.nodes[root].children
    c = next(c for c in range(1, 301) if c not in kids)
    idx.child_step[root][c] = next(iter(kids.values()))
    with pytest.raises(AssertionError):
        idx.audit()


_BENCH_PINS = {  # sigma: fields of the dynamic engine's counter line
    4: ["checksum=1864420888280272836", "dict_probes=623", "rebalance_steps=2435"],
    7: ["checksum=1926378633496758048", "dict_probes=705", "promotions=170",
        "rebalance_steps=1179"],
    256: ["checksum=2246706613913943113", "dict_probes=587"],
    4000: ["checksum=614384522149803998"],
    65536: ["checksum=1765523029328393993"],
}


@pytest.mark.parametrize("sigma", sorted(_BENCH_PINS))
def test_bench_checksum_pinned(capsys, sigma):
    argv = ["bench", "--n", "8000", "--sigma", str(sigma), "--engines", "dynamic",
            "--queries", "2000", "--seed", "3"]
    assert main(argv) == 0
    line = next(l for l in capsys.readouterr().out.split("\n") if "checksum=" in l)
    fields = line.split()
    for pin in _BENCH_PINS[sigma]:
        assert pin in fields
    if sigma == 4000:
        assert not any(f.startswith("dyn_pred_probes=") for f in fields)


# ------------------------------------------- small alphabets (sigma + 1 <= 64)

def _heavy_nodes(idx):
    return [v for v in range(len(idx.trie.nodes)) if idx.heavy[v]]


def _heavy_kids(idx, v):
    return [ch for ch in idx.trie.nodes[v].children.values() if idx.heavy[ch]]


def _check_against_oracle(idx, oracle, pats, sigma):
    """Search and predecessor answers equal a sorted list's."""
    for pat in pats:
        pat = tuple(pat)
        res = idx.search(list(pat))
        lo = bisect.bisect_left(oracle, pat)
        hi = bisect.bisect_left(oracle, pat + (sigma + 1,))
        assert res.matched == (hi > lo), pat
        if hi > lo:
            assert res.occ == hi - lo
        else:
            assert res.matched_len == longest_matchable_prefix(oracle[max(0, lo - 1):lo + 1], pat)
        i = bisect.bisect_right(oracle, pat)
        got = idx.predecessor(list(pat))
        assert (None if got is None else tuple(idx.string_codes(got))) == \
            (oracle[i - 1] if i else None), pat


def test_small_sigma_stream_reads_arrays_only():
    # sigma = 4: every heavy node keeps a 5-cell array and no predecessor,
    # so no search or predecessor makes a predecessor query; every light
    # node has fewer than 2*f(1) = 4 leaves, so it is at level 0 and keeps
    # no same-level dictionary
    sigma = 4
    rng = random.Random(44)
    idx = DynTrieIndex(sigma=sigma)
    oracle = []
    while idx.occ[idx.trie.ROOT] < 1200:
        w = tuple(rng.randint(1, sigma) for _ in range(rng.randrange(12)))
        i = bisect.bisect_left(oracle, w)
        if i < len(oracle) and oracle[i] == w:
            continue
        oracle.insert(i, w)
        idx.insert(list(w))
        pats = [[rng.randint(1, sigma) for _ in range(rng.randrange(10))] for _ in range(2)]
        pats.append(list(w[:rng.randrange(len(w) + 1)]) + [rng.randint(1, sigma)])
        before = GLOBAL.snapshot()
        _check_against_oracle(idx, oracle, pats, sigma)
        assert GLOBAL.diff(before)["dyn_pred_probes"] == 0
        if idx.occ[idx.trie.ROOT] % 100 == 0:
            idx.audit()
            for v in _heavy_nodes(idx):
                step = idx.child_step[v]
                assert len(step) == sigma + 1 and step.pred is None
                assert type(step) is ChildArray  # no heavy pointer
            assert all(idx.child_step[v].same is None
                       for v in range(len(idx.trie.nodes)) if not idx.heavy[v])
    assert len(_heavy_nodes(idx)) > 100
    assert any(len(_heavy_kids(idx, v)) < 2 for v in _heavy_nodes(idx))


def _chain_index(sigma, seed=5):
    """Strings 1 2 x.. outnumber the other strings under 1, so node `1` is
    heavy with one heavy child (`1 2`): a non-branching heavy node."""
    rng = random.Random(seed)
    words = {(1,)}
    while len(words) < 2 * sigma:
        words.add((1, 2) + tuple(rng.randint(1, sigma) for _ in range(rng.randint(1, 3))))
    for y in range(1, sigma + 1):
        if y != 2:
            words.add((1, y) + tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 2))))
    idx = DynTrieIndex(sigma=sigma)
    for w in sorted(words, key=lambda w: rng.random()):
        idx.insert(list(w))
    idx.audit()
    v = idx.trie.nodes[idx.trie.ROOT].children[1]
    assert idx.heavy[v] and v != idx.trie.ROOT
    assert _heavy_kids(idx, v) == [idx.trie.nodes[v].children[2]]
    return idx, sorted(words), v


def _search_probes(idx, pat):
    before = GLOBAL.snapshot()
    res = idx.search(pat)
    return res, GLOBAL.diff(before)["dyn_pred_probes"]


def test_sigma_63_non_branching_heavy_node_has_array():
    idx, oracle, v = _chain_index(63)
    assert len(idx.child_step[v]) == 64 and type(idx.child_step[v]) is ChildArray
    c = next(c for c, ch in idx.trie.nodes[v].children.items() if not idx.heavy[ch])
    res, probes = _search_probes(idx, [1, c])
    assert res.matched and probes == 0
    _check_against_oracle(idx, oracle, [[1, c] for c in range(1, 64)], 63)


def test_sigma_64_non_branching_heavy_node_keeps_pointer():
    idx, oracle, v = _chain_index(64)
    kids = idx.trie.nodes[v].children
    step = idx.child_step[v]
    assert type(step) is not ChildArray and step.heavy_kid == (2, kids[2])
    assert type(idx.child_step[idx.trie.ROOT]) is ChildArray  # 64 * n >= 65 from the 2nd string
    res, probes = _search_probes(idx, [1, 2])
    assert res.matched and probes == 0  # the heavy-child pointer
    c = next(c for c, ch in kids.items() if c and not idx.heavy[ch])
    res, probes = _search_probes(idx, [1, c])
    assert res.matched and probes == 1  # a light child: the dynamic predecessor
    _check_against_oracle(idx, oracle, [[1, c] for c in range(1, 65)], 64)


def test_sigma_6_heavy_nodes_keep_no_dynamic_predecessor():
    idx, oracle, v = _chain_index(6)
    assert len(idx.child_step[v]) == 7
    assert all(idx.child_step[u].pred is None for u in _heavy_nodes(idx))
    pats = [list(w[:k]) + [c] for w in oracle for k in range(len(w) + 1) for c in range(1, 7)]
    before = GLOBAL.snapshot()
    _check_against_oracle(idx, oracle, pats, 6)
    assert GLOBAL.diff(before)["dyn_pred_probes"] == 0


def test_sigma_7_heavy_nodes_keep_dynamic_predecessor():
    # node `1` has the sentinel and all 7 letters as children: 8 >=
    # _PRED_MIN_KIDS, so a predecessor ascent through it asks the bit
    # words that every array node keeps at sigma + 1 >= 8
    idx, oracle, v = _chain_index(7)
    assert len(idx.child_step[v]) == 8 and len(idx.trie.nodes[v].children) == 8
    for u in _heavy_nodes(idx):
        assert isinstance(idx.child_step[u].pred, BitPredecessor)
        assert idx.child_step[u].pred.keys() == sorted(idx.trie.nodes[u].children)
    pats = [list(w[:k]) + [c] for w in oracle for k in range(len(w) + 1) for c in range(1, 8)]
    before = GLOBAL.snapshot()
    _check_against_oracle(idx, oracle, pats, 7)
    assert GLOBAL.diff(before)["dyn_pred_probes"] > 0


def test_audit_catches_cleared_cell_at_non_branching_heavy_node():
    idx, _, v = _chain_index(4)
    c = next(c for c, ch in idx.trie.nodes[v].children.items() if not idx.heavy[ch])
    idx.child_step[v][c] = None
    with pytest.raises(AssertionError):
        idx.audit()


def _plant_predecessor(kind):
    """A sigma = 4 index whose non-branching heavy node holds a predecessor
    of `kind` over its child characters."""
    idx, _, v = _chain_index(4)
    pred = kind(5)
    for c in idx.trie.nodes[v].children:
        pred.insert(c)
    idx.child_step[v].pred = pred
    return idx


def test_audit_catches_planted_dynamic_predecessor():
    idx = _plant_predecessor(DynamicPredecessor)
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_unread_bit_words():
    # at sigma + 1 < 8 no node has 8 children, so no query reads bit words
    idx = _plant_predecessor(BitPredecessor)
    with pytest.raises(AssertionError):
        idx.audit()


# ------------------------------------------ one predecessor per heavy node

def _sigma_256_index():
    """sigma = 256 strings whose root array appears at the 5th string and
    whose node `1` branches into two heavy children (`1 2`, `1 3`)."""
    rng = random.Random(256)
    idx = DynTrieIndex(sigma=256)
    words = set()
    while len(words) < 1200:
        head = rng.choice([(1, 2), (1, 3), (rng.randint(1, 256),)])
        words.add(head + tuple(rng.randint(1, 256) for _ in range(rng.randint(1, 3))))
    for w in sorted(words, key=lambda w: rng.random()):
        idx.insert(list(w))
    idx.audit()
    v = idx.trie.nodes[idx.trie.ROOT].children[1]
    assert len(_heavy_kids(idx, v)) == 2 and type(idx.child_step[v]) is ChildArray
    return idx, v


def test_sigma_256_array_nodes_keep_bit_words_only():
    idx, v = _sigma_256_index()
    for u in _heavy_nodes(idx):
        has_array = type(idx.child_step[u]) is ChildArray
        assert isinstance(idx.child_step[u].pred,
                          BitPredecessor if has_array else DynamicPredecessor)
    assert idx.child_step[v].pred.keys() == sorted(idx.trie.nodes[v].children)
    assert len(idx.child_step[v].pred.levels) == 2  # 257 cells: 5 words and 1 above


def test_audit_catches_bit_for_non_child_character():
    idx, v = _sigma_256_index()
    kids = idx.trie.nodes[v].children
    idx.child_step[v].pred.insert(next(c for c in range(1, 257) if c not in kids))
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_cleared_bit():
    idx, v = _sigma_256_index()
    c = max(idx.trie.nodes[v].children)
    idx.child_step[v].pred.levels[0][c >> 6] &= ~(1 << (c & 63))
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_dynamic_predecessor_beside_array():
    idx, v = _sigma_256_index()
    # a DynamicPredecessor over the right keys in the slot of the bit words
    dynp = DynamicPredecessor(257)
    for c in idx.trie.nodes[v].children:
        dynp.insert(c)
    idx.child_step[v].pred = dynp
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_unmarked_bit_word():
    idx, v = _sigma_256_index()
    levels = idx.child_step[v].pred.levels
    levels[1][0] = 0  # the summary no longer marks the nonzero words below
    with pytest.raises(AssertionError):
        idx.audit()


# -------------------------------------- level-0 light nodes keep no dictionary

def _pooled_words(rng, sigma, count):
    """Distinct words over a pool of at most 6 letters spread across
    1..sigma, so that they share prefixes at every sigma."""
    pool = rng.sample(range(1, sigma + 1), min(sigma, 6))
    words = set()
    while len(words) < count:
        words.add(tuple(rng.choice(pool) for _ in range(rng.randrange(12))))
    return sorted(words, key=lambda w: rng.random()), pool


def _check_same_dicts(idx):
    """No level-0 light node keeps a same-level dictionary, and every node
    at level >= 1 with a same-level child keeps one; returns how many do."""
    kept = 0
    for v in range(len(idx.trie.nodes)):
        if idx.heavy[v]:
            continue
        kids = idx.trie.nodes[v].children.values()
        if idx.level[v] == 0:
            assert idx.child_step[v].same is None and len(kids) <= 3
        elif any(idx.level[ch] == idx.level[v] for ch in kids):
            assert idx.child_step[v].same is not None
            kept += 1
    return kept


def _sigma_256_stream(check_every=0):
    rng = random.Random(2560)
    idx = DynTrieIndex(sigma=256)
    words, _ = _pooled_words(rng, 256, 1500)
    for i, w in enumerate(words, 1):
        idx.insert(list(w))
        if check_every and i % check_every == 0:
            _check_same_dicts(idx)
    idx.audit()
    return idx


def test_sigma_256_stream_keeps_dicts_above_level_0_only():
    idx = _sigma_256_stream(check_every=100)
    assert _check_same_dicts(idx) > 0
    assert any(not idx.heavy[v] and idx.level[v] == 0 and idx.trie.nodes[v].children
               for v in range(len(idx.trie.nodes)))


def test_audit_catches_dict_at_level_0_node():
    idx = _sigma_256_stream()
    v = next(v for v in range(len(idx.trie.nodes))
             if not idx.heavy[v] and idx.level[v] == 0 and idx.trie.nodes[v].children)
    idx.child_step[v].same = DetDictionary(idx.trie.nodes[v].children.items())
    with pytest.raises(AssertionError):
        idx.audit()


def test_audit_catches_missing_dict_above_level_0():
    idx = _sigma_256_stream()
    v = next(v for v in range(len(idx.trie.nodes))
             if not idx.heavy[v] and idx.level[v] >= 1 and idx.child_step[v].same is not None)
    idx.child_step[v].same = None
    with pytest.raises(AssertionError):
        idx.audit()


@pytest.mark.parametrize("sigma", [4, 256, 65536])
def test_dynamic_search_probe_bounds(sigma):
    # a light step makes one dictionary probe, or reads one level-0 children
    # map, and either reads at most 3 cells
    rng = random.Random(sigma)
    words, pool = _pooled_words(rng, sigma, 800)
    idx = DynTrieIndex(sigma=sigma)
    probes = 0
    for w in words:
        idx.insert(list(w))
        pats = [list(w[:rng.randrange(len(w) + 1)]) + [rng.choice(pool)],
                [rng.choice(pool) for _ in range(rng.randrange(12))],
                [rng.randint(1, sigma) for _ in range(rng.randrange(4))]]
        for pat in pats:
            before = GLOBAL.snapshot()
            res = idx.search(pat)
            d = GLOBAL.diff(before)
            assert d["dict_probes"] <= res.matched_len + 1, pat
            assert d["dict_cell_probes"] <= 3 * d["dict_probes"], pat
            probes += d["dict_probes"]
    assert probes > 0


# ------------------------------------- predecessor work, flat in the trie's shape

def _oracle_pred(idx, oracle, pat):
    """(got, want) string codes of pat's predecessor: the index's, and the
    sorted list's by bisect."""
    i = bisect.bisect_right(oracle, tuple(pat) + (SENTINEL,))
    got = idx.predecessor(list(pat))
    return (None if got is None else idx.string_codes(got),
            list(oracle[i - 1][:-1]) if i else None)


@pytest.mark.parametrize("make, sizes", [(families.chain, (250, 500, 1000)),
                                         (families.wide, (1000, 8000))],
                         ids=["chain", "wide"])
def test_predecessor_work_is_the_same_at_every_size(make, sizes):
    # counted work: descent lookups, ascent node visits and keys scanned,
    # and predecessor-structure queries; a rightmost-leaf walk or a scan of
    # every child would grow with L or K
    works = []
    for size in sizes:
        fam = make(size)
        idx = DynTrieIndex(fam.sigma)
        for s in fam.strings:
            idx.insert(s)
        oracle = sorted(tuple(s) + (SENTINEL,) for s in fam.strings)
        descents = []
        plain = idx.trie.descend

        def recorded(step, pat):
            descents.append(plain(step, pat))
            return descents[-1]

        idx.trie.descend = recorded
        before = GLOBAL.snapshot()
        got, want = _oracle_pred(idx, oracle, fam.pattern)
        works.append(GLOBAL.diff(before)["pred_steps"])
        assert got == want
        (descent,) = descents
        assert descent[3] <= len(fam.pattern) + 1  # its lookups
        near = {tuple(s[:k]) + (c,) for s in fam.strings[::max(1, size // 50)]
                for k in range(min(len(s), 3) + 1) for c in range(1, min(fam.sigma, 11) + 1)}
        for pat in sorted(near) + [[], [fam.sigma], fam.strings[-1] + [1]]:
            got, want = _oracle_pred(idx, oracle, pat)
            assert got == want, pat
    assert len(set(works)) == 1, works


def test_wide_light_nodes_ask_their_wexp_tree_and_same_level_keys():
    # the last insert brings [5] to sigma leaves: the rebalance makes it
    # heavy and gives [5, 1] and [5, 2] level 5, with their children of 390
    # leaves at level 5 (same-level keys only) and single leaves at level 0
    # (wexp tree only), so a predecessor below them needs both structures
    sigma = 8192
    stored = [(5, 1, c, d) for c in range(10, 28, 2) for d in range(1, 391)]
    stored += [(5, 1, c) for c in range(11, 27, 2)]
    stored += [(5, 2, c, d) for c in (10, 20) for d in range(1, 391)]
    stored += [(5, 2, c) for c in range(23, 43, 2)]
    stored += [(5, 3, d // 1000 + 1, d % 1000 + 1) for d in range(sigma - len(stored))]
    idx = DynTrieIndex(sigma)
    for w in stored:
        idx.insert(list(w))
    idx.audit()
    nodes = idx.trie.nodes
    five = nodes[idx.trie.ROOT].children[5]
    assert idx.heavy[five]
    for c, same_keys in ((1, 9), (2, 2)):
        v = nodes[five].children[c]
        assert not idx.heavy[v] and idx.level[v] == 5 and len(nodes[v].children) >= 8
        sp = idx.child_step[v].same_pred
        assert type(sp) is StaticPredecessor and len(sp.keys) == same_keys
        assert idx.child_step[v].tree is not None
    oracle = sorted(w + (SENTINEL,) for w in stored)
    for b in (1, 2):
        for c in range(1, 45):
            for pat in ([5, b, c], [5, b, c, 1], [5, b, c, 500]):
                before = GLOBAL.snapshot()
                got, want = _oracle_pred(idx, oracle, pat)
                assert got == want, pat
                # at most m + 1 lookups, then per node visited at most 7
                # keys scanned, or one read and two queries
                assert GLOBAL.diff(before)["pred_steps"] <= len(pat) + 1 + 4 * (1 + 7), pat


@pytest.mark.parametrize("where", ["leaf", "inner", "root"])
def test_audit_catches_wrong_rightmost_entry(where):
    idx = _random_index(4)
    nodes = idx.trie.nodes
    if where == "root":
        v = idx.trie.ROOT
    else:
        v = next(v for v in range(1, len(nodes)) if nodes[v].is_leaf == (where == "leaf"))
    other = next(nd.leaf_id for nd in nodes if nd.is_leaf and nd.leaf_id != idx.rm[v])
    idx.rm[v] = other
    with pytest.raises(AssertionError, match="rightmost"):
        idx.audit()


def test_audit_catches_same_level_keys_that_differ_from_the_dict():
    idx = _sigma_256_stream()
    v = next(v for v in range(len(idx.trie.nodes))
             if not idx.heavy[v] and idx.child_step[v].same_pred is not None)
    keys = idx.child_step[v].same_pred.keys
    idx.child_step[v].same_pred = StaticPredecessor(keys + [idx.sigma], idx.sigma + 1)
    with pytest.raises(AssertionError, match="same-level"):
        idx.audit()


@pytest.mark.parametrize("depth", [50, 200])
def test_ascent_queries_no_node_without_a_child_below_the_path(depth):
    # every node on the path has 9 children and the path takes the smallest:
    # its smallest-child entry rules each one out with one read
    fam = families.ladder(depth)
    idx = DynTrieIndex(fam.sigma)
    for s in fam.strings:
        idx.insert(s)
    idx.audit()
    before = GLOBAL.snapshot()
    assert idx.predecessor(fam.pattern) is None
    d = GLOBAL.diff(before)
    assert d["static_pred_queries"] == d["dyn_pred_probes"] == d["wexp_levels_descended"] == 0
    assert d["pred_steps"] <= 2 * (len(fam.pattern) + 1)


def test_audit_catches_wrong_smallest_child_entry():
    idx = _random_index(5)
    v = next(v for v, nd in enumerate(idx.trie.nodes) if len(nd.children) >= 2)
    idx.min_kid[v] = max(idx.trie.nodes[v].children)
    with pytest.raises(AssertionError, match="smallest-child"):
        idx.audit()
