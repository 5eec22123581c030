import random

import pytest
from hypothesis import given, settings, strategies as st

from triekit.dynamic_index import DynTrieIndex
from triekit.errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError
from triekit.instrument import GLOBAL
from triekit.static_index import StaticTrieIndex, SuffixTrayIndex
from triekit.text import (SENTINEL, CompactedTrie, Outcome, Text, build_string_trie,
                          encode_text)

from oracles import compress_canonical, expanded_canonical, label_codes


def test_encode_bytes_identity():
    t = encode_text(b"banana", 256)
    assert len(t.codes) == 6
    assert all(1 <= c <= 256 for c in t.codes)
    assert t.codes == [c + 1 for c in b"banana"]


def test_encode_empty():
    t = encode_text(b"", 4)
    assert t.codes == []


def test_encode_overflow():
    with pytest.raises(AlphabetOverflowError):
        encode_text([1, 3, 1], 2)
    for bad in ([0], [3], [1, 0], [2, 3]):
        with pytest.raises(AlphabetOverflowError):
            encode_text(bad, 2)


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


# ------------------------------------------------- the one descent and locate

def test_locate_reports_where_a_string_leaves_the_trie():
    trie, _ = build_string_trie([Text([1, 2, 3, 3, 3]), Text([1, 2, 4]), Text([1])])
    root = trie.ROOT
    n1 = trie.nodes[root].children[1]            # label [1]
    n12 = trie.nodes[n1].children[2]             # label [2]
    leaf_a = trie.nodes[n12].children[3]         # label [3, 3, 3, $]
    leaf_b = trie.nodes[n12].children[4]         # label [4, $]
    leaf_c = trie.nodes[n1].children[SENTINEL]   # label [$]
    def locate(codes):
        return trie.locate([*codes, SENTINEL])

    # at a node with no edge for the next character (the sentinel too)
    assert locate([2]) == (root, None, 0, 0)
    assert locate([1, 2, 5]) == (n12, None, 0, 2)
    assert locate([1, 2]) == (n12, None, 0, 2)
    # inside an edge, on a real character
    assert locate([1, 2, 3, 4]) == (n12, leaf_a, 1, 2)
    # inside an edge, where the string ends and the label goes on
    assert locate([1, 2, 3, 3]) == (n12, leaf_a, 2, 2)
    # at a stored string: depth + k == len, the sentinel counted
    assert locate([1, 2, 4]) == (n12, leaf_b, 2, 2)
    assert locate([1]) == (n1, leaf_c, 1, 1)
    # at a label that ends in the sentinel before the string ends
    assert locate([1, 2, 4, 4]) == (n12, leaf_b, 1, 2)
    assert label_codes(trie, leaf_b) == [4, SENTINEL]


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
    calls = {}
    for name in ("descend", "locate"):
        original = getattr(CompactedTrie, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(CompactedTrie, name, counted)

    def once(call, arg, name):
        calls.update(descend=0, locate=0)
        call(arg)
        assert calls == {"descend": int(name == "descend"), "locate": int(name == "locate")}

    rng = random.Random(23)
    sigma = 4
    words = sorted({tuple(rng.randint(1, sigma) for _ in range(rng.randrange(10)))
                    for _ in range(300)})
    dyn = DynTrieIndex(sigma)
    bare = CompactedTrie(sources=[[*w, SENTINEL] for w in words])
    for sid, w in enumerate(words):
        once(dyn.insert, list(w), "locate")
        once(bare.insert_path, sid, "locate")
    trie, order = build_string_trie([Text(w) for w in words])
    static = StaticTrieIndex(trie, order, sigma, "strings")
    tray = SuffixTrayIndex(trie, order, sigma, "strings")
    pats = [list(w[:rng.randrange(len(w) + 1)]) + [rng.randint(1, sigma)] * rng.randrange(3)
            for w in words]
    for pat in pats:
        for query in (static.prefix_query, static.predecessor_query, tray.tray_query,
                      dyn.search):
            once(query, pat, "descend")
        once(dyn.predecessor, pat, "locate")


def test_builders_take_texts_or_sentinel_terminated_lists():
    words = [[1, 2], [1], [2, 1, 1]]
    as_texts = build_string_trie([Text(w) for w in words])
    as_lists = build_string_trie([[*w, SENTINEL] for w in words])
    assert as_lists[0].canonical() == as_texts[0].canonical()
    assert as_lists[1] == as_texts[1] == [1, 0, 2]
    assert as_lists[0].sources == as_texts[0].sources == [[*w, SENTINEL] for w in words]
    for bad in ([[1, 2], [1, SENTINEL]], [[]]):  # a list must end in the sentinel
        with pytest.raises(InvalidInputError):
            build_string_trie(bad)
