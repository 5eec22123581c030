import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from triekit import sa as sa_module
from triekit.errors import InvalidInputError
from triekit.sa import build_suffix_array, build_suffix_tree
from triekit.static_index import validate_intervals
from triekit.text import SENTINEL, CompactedTrie, Text, encode_text

from oracles import (brute_lcp, brute_suffix_array, compress_canonical,
                     expanded_canonical, label_codes, recompute_intervals)


def test_banana_table():
    text = encode_text(b"banana", 256)
    idx = build_suffix_array(text)
    # frozen from the brute-force oracle over "banana" + sentinel
    assert idx.sa == [6, 5, 3, 1, 0, 4, 2]
    assert idx.lcp == [0, 0, 1, 3, 0, 0, 2]
    assert idx.sa == brute_suffix_array(text.codes)


def test_empty_text():
    idx = build_suffix_array(Text([]))
    assert idx.sa == [0] and idx.lcp == [0]


def test_code_below_1_refused_before_it_passes_the_sentinel():
    # -2 would sort below the sentinel and take rank 0 from it
    with pytest.raises(InvalidInputError):
        build_suffix_array(Text([-2, 1, 3]))


def test_code_0_refused_before_the_sentinel_repeats():
    # a second sentinel inside the text broke SA-IS, which left -1 in the SA
    with pytest.raises(InvalidInputError):
        build_suffix_array(Text([0, 2, 0, 1]))


def test_aaa():
    idx = build_suffix_array(Text([1, 1, 1]))
    assert idx.sa == [3, 2, 1, 0]
    assert idx.lcp == [0, 0, 1, 2]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_sa_matches_brute_force(seed):
    rng = random.Random(seed)
    sigma = rng.choice([2, 4, 26, 200])
    n = rng.randrange(0, 160)
    codes = [rng.randint(1, sigma) for _ in range(n)]
    idx = build_suffix_array(Text(codes))
    assert idx.sa == brute_suffix_array(codes)
    assert idx.lcp == brute_lcp(codes, idx.sa)


def _fibonacci_word(n):
    a, b = [1], [1, 2]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


@pytest.mark.parametrize("codes, recurses", [
    (_fibonacci_word(1500), True),
    ([2, 3, 4] * 400, True),
    (random.Random(2000).choices([1, 2], k=2000), True),
    # one LMS position, the sentinel's: the names are unique at once
    ([1] * 1000, False),
], ids=["fibonacci-1500", "abc^400", "sigma2-2000", "a^1000"])
def test_sais_recursion_matches_brute_force(monkeypatch, codes, recurses):
    calls = []
    sais = sa_module._sais

    def counting_sais(summary, sigma):
        calls.append(len(summary))
        return sais(summary, sigma)

    monkeypatch.setattr(sa_module, "_sais", counting_sais)
    idx = build_suffix_array(Text(codes))
    assert (len(calls) > 1) == recurses, calls
    assert idx.sa == brute_suffix_array(codes)
    assert idx.lcp == brute_lcp(codes, idx.sa)


def test_sparse_codes_take_memory_of_the_text_not_the_largest_code():
    tracemalloc.start()
    try:
        idx = build_suffix_array(Text([2**22, 1, 2**22 - 5, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert idx.sa == [4, 3, 1, 2, 0]
    assert idx.lcp == [0, 0, 1, 0, 0]


@pytest.mark.parametrize("seed", range(20))
def test_sparse_codes_match_brute_force(seed):
    rng = random.Random(seed)
    pool = rng.sample(range(1, 2**32), rng.randint(1, 6))
    codes = [rng.choice(pool) for _ in range(rng.randrange(0, 120))]
    idx = build_suffix_array(Text(codes))
    assert idx.sa == brute_suffix_array(codes)
    assert idx.lcp == brute_lcp(codes, idx.sa)


def test_banana_suffix_tree_shape():
    text = encode_text(b"banana", 256)
    idx = build_suffix_array(text)
    tree = build_suffix_tree(idx, text)
    leaves = [nd for nd in tree.nodes if nd.is_leaf]
    assert len(leaves) == 7
    assert len(tree.nodes) == 11  # root + "a" + "ana" + "na" + 7 leaves


def test_banana_ana_interval():
    text = encode_text(b"banana", 256)
    idx = build_suffix_array(text)
    tree = build_suffix_tree(idx, text)
    # locate the node spelling "ana"
    a = ord("a") + 1
    n = ord("n") + 1
    v = tree.nodes[tree.ROOT].children[a]
    assert label_codes(tree, v) == [a]
    v2 = tree.nodes[v].children[n]
    assert label_codes(tree, v2) == [n, a]
    nd = tree.nodes[v2]
    assert (nd.low, nd.high) == (2, 3)


def test_empty_suffix_tree():
    text = Text([])
    tree = build_suffix_tree(build_suffix_array(text), text)
    assert len(tree.nodes) == 2
    (leaf,) = tree.nodes[tree.ROOT].children.values()
    assert tree.nodes[leaf].is_leaf


def _interval_texts():
    rng = random.Random(24)
    texts = [[1] * 500, [1, 2] * 300]
    for sigma in (1, 2, 4, 26, 65536):
        for n in (0, 1, 2, rng.randrange(3, 300), rng.randrange(3, 300)):
            texts.append([rng.randint(1, sigma) for _ in range(n)])
    return texts


@pytest.mark.parametrize("codes", _interval_texts())
def test_suffix_tree_intervals_equal_recomputed_ones(codes):
    text = Text(codes)
    tree = build_suffix_tree(build_suffix_array(text), text)
    shape = tree.canonical()
    built = [(nd.low, nd.high) for nd in tree.nodes]
    validate_intervals(tree, len(codes) + 1, max(codes, default=1))
    recompute_intervals(tree)
    assert [(nd.low, nd.high) for nd in tree.nodes] == built
    assert tree.canonical() == shape
    # the trie of the suffixes, inserted one at a time in position order,
    # has the same shape
    trie = CompactedTrie(sources=[codes[i:] + [SENTINEL] for i in range(len(codes) + 1)])
    for sid in range(len(codes) + 1):
        trie.insert_path(sid)
    assert shape == trie.canonical()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_suffix_tree_isomorphic_to_compressed_suffix_trie(seed):
    rng = random.Random(seed)
    sigma = rng.choice([2, 4, 26])
    n = rng.randrange(0, 70)
    codes = [rng.randint(1, sigma) for _ in range(n)]
    text = Text(codes)
    tree = build_suffix_tree(build_suffix_array(text), text)
    # oracle: compress the naive trie of all suffixes; leaf ids are positions
    suffixes = [codes[i:] for i in range(n + 1)]
    got = _relabel_leaves(expanded_canonical(tree))
    assert got == compress_canonical(suffixes)
    # interval labels equal the rank range of leaves below each node
    ranks = {}
    for v, nd in enumerate(tree.nodes):
        if nd.is_leaf:
            ranks[v] = (nd.low, nd.high)
    for v, nd in enumerate(tree.nodes):
        below = _leaf_ranks_below(tree, v)
        assert (nd.low, nd.high) == (min(below), max(below))
        assert sorted(below) == list(range(nd.low, nd.high + 1))


def _relabel_leaves(canon):
    # suffix-tree leaves carry start positions == suffix ids, so the forms
    # already agree; kept as an explicit hook for clarity
    return canon


def _leaf_ranks_below(tree, v):
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        nd = tree.nodes[u]
        if nd.is_leaf:
            out.append(nd.low)
        stack.extend(nd.children.values())
    return out
