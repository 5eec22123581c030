import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import AlphabetOverflowError, DuplicateKeyError
from triekit.text import CompactedTrie, Text, build_string_trie, encode_text

from oracles import compress_canonical, expanded_canonical, label_codes


def test_encode_bytes_identity():
    t = encode_text(b"banana", 256)
    assert t.n == 6
    assert all(1 <= c <= 256 for c in t.codes)
    assert t.codes == [c + 1 for c in b"banana"]


def test_encode_empty():
    t = encode_text(b"", 4)
    assert t.n == 0 and t.codes == []


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
    trie = CompactedTrie(sources=[Text([5, 6])])
    leaf, mid, attach = trie.insert_path(0)
    assert mid is None and attach == trie.ROOT
    assert trie.nodes[leaf].is_leaf


def test_duplicate_insert_rejected():
    trie = CompactedTrie(sources=[Text([1, 2, 3]), Text([1, 2, 3])])
    trie.insert_path(0)
    with pytest.raises(DuplicateKeyError):
        trie.insert_path(1)


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
    trie = CompactedTrie(sources=list(texts))
    for sid in shuffled:
        trie.insert_path(sid)
    assert expanded_canonical(trie) == compress_canonical(texts)


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
