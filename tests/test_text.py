import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit import cli
from triekit.dynamic_index import DynTrieIndex
from triekit.errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError
from triekit.instrument import GLOBAL
from triekit.static_index import StaticTrieIndex, SuffixTrayIndex, build_index
from triekit.text import SENTINEL, CompactedTrie, Outcome, Text, build_string_trie

from oracles import compress_canonical, expanded_canonical, label_codes


def test_encode_bytes_identity():
    # the CLI encodes a byte as byte + 1, which keeps code 0 free for the
    # sentinel; build_index stores each source with it
    codes = cli._decode_symbols(b"banana", 256)
    assert codes == [c + 1 for c in b"banana"]
    assert build_index(codes, 256, "suffix")[0].trie.sources == [[*codes, SENTINEL]]
    words = [codes, codes[:2]]
    assert build_index(words, 256, "strings")[0].trie.sources == [[*w, SENTINEL] for w in words]


def test_encode_empty():
    for mode, source, stored in (("suffix", [], [[SENTINEL]]), ("strings", [], []),
                                 ("strings", [[]], [[SENTINEL]])):
        (idx,) = build_index(source, 4, mode)
        assert idx.trie.sources == stored
        assert idx.leaf_order == list(range(len(stored)))


def test_encode_overflow():
    for bad, sigma in (([1, 3, 1], 2), ([0], 2), ([3], 2), ([1, 0], 2), ([2, 3], 2),
                       ([-1, 1], 4)):
        for mode, source in (("suffix", bad), ("strings", [[1], bad])):
            with pytest.raises(AlphabetOverflowError):
                build_index(source, sigma, mode)


def test_build_index_refuses_a_code_that_is_not_an_int():
    for bad in (1.0, 2.5, True, "a", None):
        for mode, source in (("suffix", [1, bad]), ("strings", [[1], [1, bad]])):
            with pytest.raises(InvalidInputError):
                build_index(source, 4, mode)


def test_build_index_refuses_an_unknown_mode_engine_or_sigma():
    for args in (([1], 4, "foo"), ([1], 4, "suffix", ("static", "sa")), ([], 0, "suffix")):
        with pytest.raises(InvalidInputError):
            build_index(*args)


def test_insert_pair_splits_once():
    # "abc" then "abd": shared edge "ab", two leaf children
    texts = [Text([1, 2, 3]), Text([1, 2, 4])]
    trie, _ = build_string_trie(texts)
    assert len(trie.nodes) == 4
    root_kids = trie.nodes[trie.ROOT].children
    assert list(root_kids) == [1]
    mid = root_kids[1]
    assert label_codes(trie, mid) == [1, 2]
    assert sorted(trie.nodes[mid].children) == [3, 4]


def test_insert_into_empty():
    trie = CompactedTrie(sources=[[5, 6, SENTINEL]])
    leaf, mid, attach = trie.insert_path(0)
    assert mid is None and attach == trie.ROOT
    assert trie.nodes[leaf].is_leaf


def test_duplicate_insert_rejected():
    trie = CompactedTrie(sources=[[1, 2, 3, SENTINEL], [1, 2, 3, SENTINEL]])
    trie.insert_path(0)
    with pytest.raises(DuplicateKeyError):
        trie.insert_path(1)


@pytest.mark.parametrize("strings", [
    [[1, 2], [1, 2], [3]],   # adjacent in input order
    [[], [2], []],           # the empty string twice
    [[1, 2], [3], [1, 2]],   # not adjacent in input order
])
def test_build_string_trie_rejects_duplicates(strings):
    with pytest.raises(DuplicateKeyError):
        build_string_trie([Text(s) for s in strings])


@st.composite
def distinct_string_sets(draw):
    sigma = draw(st.sampled_from([2, 4, 26]))
    n = draw(st.integers(1, 24))
    seen = set()
    out = []
    for _ in range(n):
        s = tuple(draw(st.lists(st.integers(1, sigma), min_size=0, max_size=10)))
        if s not in seen:
            seen.add(s)
            out.append(list(s))
    return out


@given(distinct_string_sets(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_trie_isomorphic_to_compressed_naive(strings, rng):
    texts = [Text(s) for s in strings]
    shuffled = list(range(len(texts)))
    rng.shuffle(shuffled)
    trie = CompactedTrie(sources=[s + [SENTINEL] for s in strings])
    for sid in shuffled:
        trie.insert_path(sid)
    expected = compress_canonical(strings)
    assert expanded_canonical(trie) == expected
    assert expanded_canonical(build_string_trie(texts)[0]) == expected


@given(distinct_string_sets())
@settings(max_examples=60, deadline=None)
def test_leaf_intervals_partition_and_sorted(strings):
    texts = [Text(s) for s in strings]
    trie, leaf_order = build_string_trie(texts)
    n = len(texts)
    # leaf ranks are consistent with lexicographic sentinel-terminated order
    ranked = sorted(range(n), key=lambda i: texts[i].codes)
    assert leaf_order == ranked
    seen = {}
    for v, nd in enumerate(trie.nodes):
        if nd.is_leaf:
            assert nd.low == nd.high
            seen[nd.low] = nd.leaf_id
    assert sorted(seen) == list(range(n))
    # internal intervals are the union of their children's
    for v, nd in enumerate(trie.nodes):
        if nd.is_leaf or v == trie.ROOT and not nd.children:
            continue
        lows = [trie.nodes[c].low for c in nd.children.values()]
        highs = [trie.nodes[c].high for c in nd.children.values()]
        assert nd.low == min(lows) and nd.high == max(highs)
        covered = sorted(
            r for c in nd.children.values()
            for r in range(trie.nodes[c].low, trie.nodes[c].high + 1)
        )
        assert covered == list(range(nd.low, nd.high + 1))


def test_compactedness():
    texts = [Text(s) for s in ([1], [1, 1], [1, 2], [2, 1])]
    trie, _ = build_string_trie(texts)
    for v, nd in enumerate(trie.nodes):
        if v != trie.ROOT and not nd.is_leaf:
            assert len(nd.children) >= 2


# ------------------------------------------------- the one descent and the edge split

def test_insert_path_attaches_where_a_string_leaves_the_trie():
    words = [[1, 2, 3, 3, 3], [1, 2, 4], [1]]
    trie, _ = build_string_trie([Text(w) for w in words])
    root = trie.ROOT
    n1 = trie.nodes[root].children[1]            # label [1]
    n12 = trie.nodes[n1].children[2]             # label [2]
    leaf_a = trie.nodes[n12].children[3]         # label [3, 3, 3, $]
    leaf_b = trie.nodes[n12].children[4]         # label [4, $]
    leaf_c = trie.nodes[n1].children[SENTINEL]   # label [$]
    assert label_codes(trie, leaf_b) == [4, SENTINEL]
    dyn = DynTrieIndex(8)
    for w in words:
        dyn.insert(w)

    def insert(codes):
        """(attach node, (split offset, the split edge's child) or None)
        of inserting codes into a fresh copy of the trie."""
        fresh, _ = build_string_trie([Text(w) for w in words])
        fresh.sources.append([*codes, SENTINEL])
        leaf, mid, attach = fresh.insert_path(len(words))
        nodes = fresh.nodes
        assert nodes[leaf].leaf_id == len(words)
        if mid is None:
            assert nodes[leaf].parent == attach
            return attach, None
        assert nodes[mid].parent == attach and nodes[leaf].parent == mid
        (child,) = (ch for ch in nodes[mid].children.values() if ch != leaf)
        return attach, (nodes[mid].label_len, child)

    # at a node with no edge for the next character (the sentinel too)
    assert insert([2]) == (root, None) and dyn.predecessor([2]) == 1
    assert insert([1, 2, 5]) == (n12, None) and dyn.predecessor([1, 2, 5]) == 1
    assert insert([1, 2]) == (n12, None) and dyn.predecessor([1, 2]) == 2
    # inside an edge, on a real character
    assert insert([1, 2, 3, 4]) == (n12, (1, leaf_a)) and dyn.predecessor([1, 2, 3, 4]) == 0
    # inside an edge, where the string ends and the label goes on
    assert insert([1, 2, 3, 3]) == (n12, (2, leaf_a)) and dyn.predecessor([1, 2, 3, 3]) == 2
    # at a stored string, the sentinel matched: the walk ends at its leaf
    for codes, leaf, sid in (([1, 2, 4], leaf_b, 1), ([1], leaf_c, 2)):
        assert trie.descend(trie.nodes, [*codes, SENTINEL])[:3] == (leaf, 0, len(codes) + 1)
        with pytest.raises(DuplicateKeyError):
            insert(codes)
        assert dyn.predecessor(codes) == sid
    # at a label that ends in the sentinel before the string ends
    assert insert([1, 2, 4, 4]) == (n12, (1, leaf_b)) and dyn.predecessor([1, 2, 4, 4]) == 1


def test_queries_on_empty_indexes():
    # at sigma = 256 the empty dynamic root steps by its heavy pointer and
    # dynamic predecessor, so a step taken would count a probe
    trie, order = build_string_trie([])
    static = StaticTrieIndex(trie, order, 256, "strings")
    tray = SuffixTrayIndex(trie, order, 256, "strings")
    dyn = DynTrieIndex(256)
    for pat in ([], [1]):
        for query in (static.prefix_query, tray.tray_query, dyn.search):
            before = GLOBAL.snapshot()
            res = query(pat)
            assert res.outcome is Outcome.NOT_FOUND and res.matched_len == 0
            assert not any(GLOBAL.diff(before).values()), query
        for query in (static.predecessor_query, dyn.predecessor):
            before = GLOBAL.snapshot()
            assert query(pat) is None
            assert not any(GLOBAL.diff(before).values()), query


def test_each_query_runs_one_descent(monkeypatch):
    assert not hasattr(CompactedTrie, "locate")
    calls = []
    original = CompactedTrie.descend

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(CompactedTrie, "descend", counted)

    def once(call, arg):
        calls.clear()
        call(arg)
        assert len(calls) == 1, call

    rng = random.Random(23)
    sigma = 4
    words = sorted({tuple(rng.randint(1, sigma) for _ in range(rng.randrange(10)))
                    for _ in range(300)})
    dyn = DynTrieIndex(sigma)
    bare = CompactedTrie(sources=[[*w, SENTINEL] for w in words])
    for sid, w in enumerate(words):
        once(dyn.insert, list(w))
        once(bare.insert_path, sid)
    trie, order = build_string_trie([Text(w) for w in words])
    static = StaticTrieIndex(trie, order, sigma, "strings")
    tray = SuffixTrayIndex(trie, order, sigma, "strings")
    pats = [list(w[:rng.randrange(len(w) + 1)]) + [rng.randint(1, sigma)] * rng.randrange(3)
            for w in words]
    for pat in pats:
        for query in (static.prefix_query, static.predecessor_query, tray.tray_query,
                      dyn.search, dyn.predecessor):
            once(query, pat)


def test_string_trie_stores_texts_with_the_sentinel():
    words = [[1, 2], [1], [2, 1, 1]]
    trie, order = build_string_trie([Text(w) for w in words])
    (idx,) = build_index(words, 2, "strings")
    assert idx.trie.canonical() == trie.canonical()
    assert idx.leaf_order == order == [1, 0, 2]
    assert idx.trie.sources == trie.sources == [[*w, SENTINEL] for w in words]


def test_string_trie_refuses_a_code_below_1():
    # code 0 inside a string would read as its end: [1, 0] and [1] are distinct
    for texts in ([Text([1, 0]), Text([1])], [Text([2, -1])], [Text([1, SENTINEL, 2])]):
        with pytest.raises(InvalidInputError):
            build_string_trie(texts)
