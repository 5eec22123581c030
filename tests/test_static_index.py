import bisect
import contextlib
import functools
import random
import signal
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from triekit.errors import (AlphabetOverflowError, CorruptTrieError, InvalidInputError,
                            TriekitError)
from triekit.instrument import GLOBAL
from triekit.predkit import DetDictionary, StaticPredecessor
from triekit.sa import build_suffix_array, build_suffix_tree
from triekit.serialize import MAGIC, VersionMismatchError, dump_index, load_index
from triekit.static_index import (
    StaticTrieIndex,
    SuffixTrayIndex,
    build_index,
    heavy_threshold,
)
from triekit.text import ARRAY_CELLS, ChildArray, Text, build_string_trie

from oracles import (brute_suffix_array, label_codes, occurrences,
                     longest_matchable_prefix, string_predecessor)


def suffix_index(raw, sigma=256, engine="static"):
    """The `engine` index of `raw`, bytes (code = byte + 1) or a code list,
    and its Text."""
    codes = enc(raw) if isinstance(raw, bytes) else list(raw)
    return build_index(codes, sigma, "suffix", (engine,))[0], Text(codes)


def enc(raw: bytes):
    return [b + 1 for b in raw]


def test_threshold_values():
    assert heavy_threshold(256) == 9
    assert heavy_threshold(2**16) == 16
    assert heavy_threshold(4) == 2


def test_banana_all_light_except_root():
    idx, _ = suffix_index(b"banana")
    assert idx.s == 9
    assert idx.heavy[idx.trie.ROOT]
    assert sum(idx.heavy) == 1  # 7 leaves < s: only the root is heavy


def test_banana_prefix_queries():
    idx, _ = suffix_index(b"banana")
    r = idx.prefix_query(enc(b"ana"))
    assert r.matched and r.interval == (2, 3)
    assert idx.enumerate(r.interval) == [3, 1]
    r = idx.prefix_query([])
    assert r.matched and r.interval == (0, 6)
    r = idx.prefix_query(enc(b"nax"))
    assert not r.matched and r.matched_len == 2
    r = idx.prefix_query(enc(b"banana"))
    assert r.matched and r.interval == (4, 4)


def test_star_trie_heavy_root():
    sigma = 1000
    texts = [Text([c]) for c in range(1, sigma + 1)]
    trie, order = build_string_trie(texts)
    idx = StaticTrieIndex(trie, order, sigma, mode="strings")
    root = trie.ROOT
    assert idx.heavy[root]
    for ch in trie.nodes[root].children.values():
        assert not idx.heavy[ch]
    r = idx.prefix_query([17])
    assert r.matched and r.occ == 1


def test_alphabet_overflow():
    idx, _ = suffix_index(b"banana", sigma=256)
    tray, _ = suffix_index(b"banana", sigma=256, engine="tray")
    with pytest.raises(AlphabetOverflowError):
        idx.prefix_query([400])
    # both ends of [1, sigma], as the first and as a later character
    for query in (idx.prefix_query, idx.predecessor_query, tray.tray_query):
        for bad in ([0], [257], enc(b"an") + [0], enc(b"an") + [257]):
            with pytest.raises(AlphabetOverflowError):
                query(bad)


def test_query_code_that_is_not_an_int_refused():
    # a float pattern once raised TypeError from the walk
    idx, _ = suffix_index(b"banana")
    tray, _ = suffix_index(b"banana", engine="tray")
    for query in (idx.prefix_query, idx.predecessor_query, tray.tray_query):
        for bad in ([1.0], enc(b"an") + [2.5], [True]):
            with pytest.raises(InvalidInputError):
                query(bad)


def test_constructor_refuses_unknown_mode_and_s_below_1():
    idx, _ = suffix_index(b"banana")
    args = (idx.trie, idx.leaf_order, 256)
    for engine in (StaticTrieIndex, SuffixTrayIndex):
        with pytest.raises(InvalidInputError):
            engine(*args, mode="foo")
    for s in (0, -3):
        with pytest.raises(InvalidInputError):
            StaticTrieIndex(*args, mode="suffix", s=s)


def test_enumerate_bad_interval():
    idx, _ = suffix_index(b"banana")
    with pytest.raises(InvalidInputError):
        idx.enumerate((5, 9))


def test_corrupt_trie_rejected():
    text = Text(enc(b"abracadabra"))
    tree = build_suffix_tree(build_suffix_array(text), text)
    leaves = sorted((v for v, nd in enumerate(tree.nodes) if nd.is_leaf),
                    key=lambda v: tree.nodes[v].low)
    order = [tree.nodes[v].leaf_id for v in leaves]
    tree.nodes[leaves[3]].low = tree.nodes[leaves[3]].high = 99
    with pytest.raises(CorruptTrieError):
        StaticTrieIndex(tree, order, 256, mode="suffix")


@pytest.mark.parametrize("codes,sigma", [
    (random.Random(80).choices(range(1, 101), k=400), 80),  # codes up to 100
    ([5, 5, 1], 4),  # a static child array at sigma = 4 has no cell for 5
], ids=["sigma-80", "sigma-4"])
def test_child_key_above_sigma_rejected(codes, sigma):
    text = Text(codes)
    sa_index = build_suffix_array(text)
    tree = build_suffix_tree(sa_index, text)
    for engine in (StaticTrieIndex, SuffixTrayIndex):
        with pytest.raises(CorruptTrieError):
            engine(tree, sa_index.sa, sigma, mode="suffix")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _trie_with_child(raw: bytes, target):
    """Suffix tree of `raw` and its leaf order, the tree's first non-root
    internal node having one child pointer replaced by target(trie)."""
    idx, _ = suffix_index(raw)
    nodes = idx.trie.nodes
    v = next(v for v, nd in enumerate(nodes) if v and nd.children)
    c = next(iter(nodes[v].children))
    nodes[v].children[c] = target(idx.trie)
    return idx.trie, idx.leaf_order


# an index file stores no node or child field: the engine constructors'
# validate_intervals is what rejects a damaged in-memory trie
@pytest.mark.parametrize("target", [
    lambda trie: trie.ROOT,                                   # a cycle
    lambda trie: len(trie.nodes),                             # one past the end
    lambda trie: len(trie.nodes) + 1000,
    lambda trie: next(iter(trie.nodes[trie.ROOT].children.values())),  # shared
], ids=["root", "n_nodes", "far", "shared"])
def test_bad_child_id_rejected(target):
    trie, order = _trie_with_child(b"banana", target)
    for engine in (StaticTrieIndex, SuffixTrayIndex):
        with time_limit(2), pytest.raises(CorruptTrieError):
            engine(trie, order, 256, mode="suffix")


def test_bad_parent_field_rejected():
    idx, _ = suffix_index(b"banana")
    nodes = idx.trie.nodes
    leaf = next(v for v, nd in enumerate(nodes) if nd.leaf_id >= 0 and nd.parent != 0)
    nodes[leaf].parent = 0
    with pytest.raises(CorruptTrieError):
        StaticTrieIndex(idx.trie, idx.leaf_order, 256, mode="suffix")


def test_single_byte_corruptions_load_or_raise_triekit_error():
    idx, _ = suffix_index(b"abracadabra")
    blob = dump_index(idx)
    rng = random.Random(9)
    for _ in range(1000):
        bad = bytearray(blob)
        pos = rng.randrange(len(bad))
        bad[pos] = rng.randrange(256)
        with time_limit(2):
            try:
                load_index(bytes(bad))
            except TriekitError:
                pass


def test_single_byte_corruptions_never_load():
    # the overwrites of the test above; the CRC32 catches every one of them
    idx, _ = suffix_index(b"abracadabra")
    blob = dump_index(idx)
    rng = random.Random(9)
    for _ in range(1000):
        bad = bytearray(blob)
        pos = rng.randrange(len(bad))
        bad[pos] = rng.randrange(256)
        if bad == blob:
            continue  # the byte was overwritten with itself
        with time_limit(2), pytest.raises((InvalidInputError, VersionMismatchError)):
            load_index(bytes(bad))


def _reseal(body: bytes) -> bytes:
    """`body` followed by its own CRC32, as dump_index ends a file."""
    return body + struct.pack("<I", zlib.crc32(body))


def _dump_sealed(idx) -> bytes:
    """dump_index(idx) with a valid CRC and idx.sigma in the header even
    outside [1, 2^32), which dump_index refuses to write, so that
    load_index's own range check meets it.  An `idx.header_n`, set by a
    mutation, replaces the header's n, which dump_index takes from the
    text's length."""
    sigma = idx.sigma
    idx.sigma = 1  # sigma is written only into the header
    try:
        blob = dump_index(idx)
    finally:
        idx.sigma = sigma
    at = len(MAGIC) + 4 + 2  # magic, version, engine and mode precede sigma, then n
    n = getattr(idx, "header_n", None)
    head = struct.pack("<Q", sigma) + (blob[at + 8:at + 16] if n is None
                                       else struct.pack("<Q", n))
    return _reseal(blob[:at] + head + blob[at + 16:-4])


def _swap(order, i, j):
    order[i], order[j] = order[j], order[i]


def _repeat_string(idx):
    """Store string 0 a second time, in place of string 1."""
    idx.trie.sources[1] = list(idx.trie.sources[0])


# name -> (mode, in-memory mutation, the message of the check that rejects it)
FIELD_CORRUPTIONS = {
    "sigma_zero": ("suffix", lambda idx: setattr(idx, "sigma", 0), "sigma"),
    "sigma_2_32": ("suffix", lambda idx: setattr(idx, "sigma", 2**32), "sigma"),
    "s_zero": ("suffix", lambda idx: setattr(idx, "s", 0), "sigma"),
    "n_long": ("suffix", lambda idx: setattr(idx, "header_n", 12), "n disagrees"),
    "n_short": ("suffix", lambda idx: setattr(idx, "header_n", 3), "n disagrees"),
    "code_zero": ("suffix", lambda idx: idx.trie.sources[0].__setitem__(0, 0), "text code"),
    "code_above_sigma": ("strings", lambda idx: idx.trie.sources[0].__setitem__(
        0, idx.sigma + 1), "text code"),
    # a suffix-mode file stores the leaf ids in rank order: the suffix array
    "leaf_id_minus_5": ("suffix", lambda idx: idx.leaf_order.__setitem__(0, -5),
                        "outside"),
    "leaf_id_past_n": ("suffix", lambda idx: idx.leaf_order.__setitem__(
        3, len(idx.trie.sources[0])), "outside"),
    "leaf_id_twice": ("suffix", lambda idx: idx.leaf_order.__setitem__(
        4, idx.leaf_order[5]), "not a permutation"),
    "leaves_swapped": ("suffix", lambda idx: _swap(idx.leaf_order, 4, 5), "puts suffix"),
    "sentinel_not_first": ("suffix", lambda idx: _swap(idx.leaf_order, 0, 11),
                           "puts suffix"),
    "string_twice": ("strings", _repeat_string, "stored twice"),
    "node_count": ("suffix", lambda idx: idx.trie.nodes.pop(), "node count"),
}


def _words_index():
    texts = [Text(enc(w)) for w in (b"abra", b"cad", b"abracadabra", b"bra", b"a")]
    trie, order = build_string_trie(texts)
    return StaticTrieIndex(trie, order, 256, mode="strings")


@pytest.mark.parametrize("case", sorted(FIELD_CORRUPTIONS))
def test_field_out_of_range_rejected(case):
    mode, mutate, message = FIELD_CORRUPTIONS[case]
    idx = suffix_index(b"abracadabra")[0] if mode == "suffix" else _words_index()
    idx = load_index(dump_index(idx))
    mutate(idx)
    blob = _dump_sealed(idx)   # sealed with a valid CRC: the field check must reject it
    with pytest.raises(InvalidInputError, match=message):
        load_index(blob)


@pytest.mark.parametrize("case", ["unknown_code", "past_the_end", "trailing"])
def test_column_framing_rejected(case):
    blob = dump_index(suffix_index(b"abracadabra")[0])
    body = blob[:-4]
    first = len(MAGIC) + 4 + 2 + 4 * 8   # the header; the lengths column's code byte follows
    if case == "unknown_code":
        body = body[:first] + b"x" + body[first + 1:]
        message = "column code"
    elif case == "past_the_end":
        body = body[:-1]
        message = "past the end"
    else:
        body += b"\0"
        message = "trailing"
    assert body != blob[:-4]
    with pytest.raises(InvalidInputError, match=message):
        load_index(_reseal(body))


ABRA_PATTERNS = [enc(p) for p in (b"", b"a", b"abra", b"bra", b"cad", b"ra", b"z",
                                  b"abracadabra", b"aa")]


def _answers(idx):
    return [(idx.prefix_query(p), idx.predecessor_query(p)) for p in ABRA_PATTERNS]


@functools.cache
def _abra_blob():
    return dump_index(suffix_index(b"abracadabra")[0])


@functools.cache
def _abra_answers():
    return _answers(load_index(_abra_blob()))


@given(st.sampled_from(["splice", "truncate", "extend"]), st.data())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_raw_byte_damage_raises_or_answers_identically(kind, data):
    blob = _abra_blob()
    if kind == "splice":
        pos = data.draw(st.integers(0, len(blob)))
        cut = data.draw(st.integers(0, 8))
        bad = blob[:pos] + data.draw(st.binary(max_size=8)) + blob[pos + cut:]
    elif kind == "truncate":
        bad = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        bad = blob + data.draw(st.binary(min_size=1, max_size=16))
    with time_limit(2):
        try:
            idx = load_index(bad)
        except TriekitError:
            return
        assert _answers(idx) == _abra_answers()


@given(st.sampled_from(["order_swap", "order_value", "code", "header"]),
       st.integers(0, 10**6),
       st.sampled_from(["sigma", "s"]),
       st.one_of(st.integers(-3, 30), st.sampled_from([2**15, 2**31 - 1, 2**40])))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_resealed_field_mutation_raises_only_triekit_errors(where, pick, field, value):
    idx = load_index(_abra_blob())
    order = idx.leaf_order
    if where == "order_swap":
        _swap(order, pick % len(order), value % len(order))
    elif where == "order_value":
        order[pick % len(order)] = value
    elif where == "code":
        codes = idx.trie.sources[0]
        codes[pick % (len(codes) - 1)] = value  # a code, not the sentinel
    else:
        setattr(idx, field, abs(value))  # the header holds unsigned fields
    blob = _dump_sealed(idx)
    try:
        with time_limit(2):
            loaded = load_index(blob)
    except TriekitError:
        return
    for p in ABRA_PATTERNS:
        for query in (loaded.prefix_query, loaded.predecessor_query):
            with time_limit(2):
                try:
                    query(p)
                except TriekitError:
                    pass


def test_code_sigma_2_16_keeps_two_byte_columns():
    # codes are stored as c - 1, so the top code of sigma = 2^16 fits two bytes
    rng = random.Random(16)
    codes = [rng.randint(1, 2**16 - 1) for _ in range(300)]
    sizes = []
    for top in (2**16, 2**16 - 1):
        idx, _ = suffix_index(codes[:150] + [top] + codes[150:], sigma=2**16)
        sizes.append(len(dump_index(idx)))
    assert sizes[0] == sizes[1]


def test_predecessor_examples():
    texts = [Text(enc(w)) for w in (b"ant", b"bee", b"cow")]
    trie, order = build_string_trie(texts)
    idx = StaticTrieIndex(trie, order, 256, mode="strings")

    def pred_word(wb):
        r = idx.predecessor_query(enc(wb))
        if r is None:
            return None
        sid = idx.leaf_order[r]
        return bytes(c - 1 for c in texts[sid].codes)

    assert pred_word(b"bat") == b"ant"
    assert pred_word(b"zebra") == b"cow"
    assert pred_word(b"aa") is None
    assert pred_word(b"bee") == b"bee"  # stored pattern is its own predecessor
    assert pred_word(b"beekeeper") == b"bee"


def rand_text(rng, n, sigma):
    return bytes(rng.randrange(sigma) for _ in range(n))


def rand_pattern(rng, text, sigma):
    mode = rng.random()
    if mode < 0.45 and text:
        # a substring: often a present prefix, possibly ending mid-edge
        i = rng.randrange(len(text))
        j = rng.randrange(i, min(len(text), i + 12) + 1)
        return text[i:j]
    if mode < 0.75 and text:
        i = rng.randrange(len(text))
        j = rng.randrange(i, min(len(text), i + 8) + 1)
        return text[i:j] + bytes([rng.randrange(sigma)])
    return rand_text(rng, rng.randrange(0, 8), sigma)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_query_engines_agree_with_scan_oracle(seed):
    rng = random.Random(seed)
    sigma = rng.choice([4, 26, 256])
    n = rng.randrange(0, 300)
    raw = rand_text(rng, n, sigma)
    static, text = suffix_index(raw, sigma, "static")
    tray, _ = suffix_index(raw, sigma, "tray")
    suffixes = [text.codes[i:] + [0] for i in range(n + 1)]
    for _ in range(25):
        pat = rand_pattern(rng, raw, sigma)
        p = enc(pat)
        occ = occurrences(text.codes, p)
        a = static.prefix_query(p)
        b = tray.tray_query(p)
        assert a.matched == b.matched == (len(occ) > 0)
        if occ:
            assert a.occ == b.occ == len(occ)
            assert sorted(static.enumerate(a.interval)) == sorted(occ)
            assert a.interval == b.interval
            assert a.matched_len == b.matched_len == len(p)
        else:
            expect = longest_matchable_prefix(suffixes, p)
            assert a.matched_len == b.matched_len == expect


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_predecessor_matches_sort_scan_oracle(seed):
    rng = random.Random(seed)
    sigma = rng.choice([4, 26])
    n_strings = rng.randrange(1, 60)
    seen = set()
    words = []
    for _ in range(n_strings):
        w = tuple(rng.randint(1, sigma) for _ in range(rng.randrange(0, 9)))
        if w not in seen:
            seen.add(w)
            words.append(list(w))
    texts = [Text(w) for w in words]
    trie, order = build_string_trie(texts)
    idx = StaticTrieIndex(trie, order, sigma, mode="strings")
    for _ in range(30):
        pat = [rng.randint(1, sigma) for _ in range(rng.randrange(0, 10))]
        want = string_predecessor(words, pat)
        got = idx.predecessor_query(pat)
        got_word = None if got is None else texts[idx.leaf_order[got]].codes
        assert got_word == want, (words, pat)


def test_heavy_set_structure():
    rng = random.Random(5)
    raw = rand_text(rng, 3000, 4)
    idx, _ = suffix_index(raw, 4, "static")
    trie = idx.trie
    n_leaves = len(idx.leaf_order)
    childless_heavy = 0
    for v in range(len(trie.nodes)):
        if not idx.heavy[v]:
            continue
        p = trie.nodes[v].parent
        assert p == -1 or idx.heavy[p], "heavy set must be connected"
        if not any(idx.heavy[ch] for ch in trie.nodes[v].children.values()):
            childless_heavy += 1
    assert childless_heavy <= max(1, n_leaves // idx.s)


def test_tray_space_bound():
    rng = random.Random(6)
    for sigma in (4, 26):
        raw = rand_text(rng, 2000, sigma)
        tray, _ = suffix_index(raw, sigma, "tray")
        n_leaves = len(tray.leaf_order)
        arrays = sum(isinstance(step, list) for step in tray.child_step)
        assert arrays <= max(1, 2 * n_leaves // sigma)


def test_probe_accounting():
    rng = random.Random(9)
    raw = rand_text(rng, 4000, 26)
    idx, text = suffix_index(raw, 26, "static")
    for _ in range(300):
        pat = enc(rand_pattern(rng, raw, 26))
        before = GLOBAL.snapshot()
        res = idx.prefix_query(pat)
        d = GLOBAL.diff(before)
        assert d["static_pred_queries"] == 0
        assert d["dict_probes"] <= res.matched_len + 1
        before = GLOBAL.snapshot()
        idx.predecessor_query(pat)
        d = GLOBAL.diff(before)
        assert d["static_pred_queries"] <= 2
        assert d["dict_probes"] <= len(pat) + 1


def _one_static_pred_query_each(idx, keys, patterns):
    """A prefix query makes no static-predecessor query, a predecessor query
    at most one, and the predecessor rank agrees with a bisection of the
    sorted sentinel-terminated keys.  Returns how many predecessor queries
    made one."""
    made_one = 0
    for pat in patterns:
        before = GLOBAL.snapshot()
        idx.prefix_query(pat)
        assert GLOBAL.diff(before)["static_pred_queries"] == 0, pat
        before = GLOBAL.snapshot()
        got = idx.predecessor_query(pat)
        queries = GLOBAL.diff(before)["static_pred_queries"]
        assert queries <= 1, pat
        made_one += queries
        want = bisect.bisect_right(keys, pat + [0]) - 1
        assert got == (want if want >= 0 else None), pat
    return made_one


def test_one_static_pred_query_all_light_root():
    # sigma = 2^16, 500 distinct characters: every child of the root holds
    # fewer than s = 16 suffixes, so a walk that leaves the root does so
    # through its one predecessor over all child characters
    sigma = 1 << 16
    rng = random.Random(16)
    pool = rng.sample(range(1, sigma + 1), 500)
    codes = [rng.choice(pool) for _ in range(2000)]
    idx, text = suffix_index(codes, sigma, "static")
    root = idx.trie.ROOT
    assert not any(idx.heavy[ch] for ch in idx.trie.nodes[root].children.values())
    full = codes + [0]
    sa = brute_suffix_array(codes)
    assert idx.leaf_order == sa
    keys = [full[i:] for i in sa]
    patterns = []
    for _ in range(1500):
        i = rng.randrange(len(codes))
        pat = codes[i:i + rng.randrange(0, 6)]
        if rng.random() < 0.5:
            pat = pat + [rng.randint(1, sigma)]
        patterns.append(pat)
    assert _one_static_pred_query_each(idx, keys, patterns) > 0


def test_one_static_pred_query_suffix_sigma_4():
    # s = 2: nearly every internal node is heavy, with heavy and light
    # children side by side
    rng = random.Random(4)
    sigma = 4
    unit = [rng.randint(1, sigma) for _ in range(9)]
    codes = unit * 8 + [rng.randint(1, sigma) for _ in range(300)]
    idx, _ = suffix_index(codes, sigma, "static")
    assert any(idx.heavy[v] and not all(idx.heavy[ch] for ch in nd.children.values())
               for v, nd in enumerate(idx.trie.nodes))
    full = codes + [0]
    keys = [full[i:] for i in idx.leaf_order]
    patterns = [codes[i:i + rng.randrange(0, 12)] + [rng.randint(1, sigma)]
                for i in (rng.randrange(len(codes)) for _ in range(600))]
    patterns += [[rng.randint(1, sigma) for _ in range(rng.randrange(0, 10))]
                 for _ in range(200)]
    assert _one_static_pred_query_each(idx, keys, patterns) > 0


class _SortedSuffixes:
    """The sentinel-terminated suffixes in rank order, sliced when read, so a
    bisection holds one at a time."""

    def __init__(self, codes, order):
        self.full = codes + [0]
        self.order = order

    def __len__(self):
        return len(self.order)

    def __getitem__(self, r):
        return self.full[self.order[r]:]


def test_heavy_nodes_with_equal_child_sets_share_one_predecessor(monkeypatch):
    # sigma = 4: every child set is a non-empty subset of the five edge
    # characters 0..4, so no more than 2^5 - 1 = 31 predecessors are built
    built = []
    init = StaticPredecessor.__init__

    def counting_init(self, keys, u):
        built.append(tuple(keys))
        init(self, keys, u)

    monkeypatch.setattr(StaticPredecessor, "__init__", counting_init)
    rng = random.Random(3000)
    codes = [rng.randint(1, 4) for _ in range(3000)]
    idx, _ = suffix_index(codes, 4, "static")
    heavy = [v for v, h in enumerate(idx.heavy) if h]
    assert len(heavy) > 31
    assert len(built) <= 31 and len(set(built)) == len(built)
    for v in heavy:
        assert idx.child_pred[v].keys == sorted(idx.trie.nodes[v].children), v
    patterns = [codes[i:i + rng.randrange(0, 16)] + [rng.randint(1, 4)]
                for i in (rng.randrange(len(codes)) for _ in range(600))]
    patterns += [[rng.randint(1, 4) for _ in range(rng.randrange(0, 12))]
                 for _ in range(200)]
    keys = _SortedSuffixes(codes, idx.leaf_order)
    assert _one_static_pred_query_each(idx, keys, patterns) > 0


def test_one_static_pred_query_strings_mode():
    rng = random.Random(26)
    sigma = 26
    words = sorted({tuple(rng.randint(1, sigma) for _ in range(rng.randrange(1, 7)))
                    for _ in range(400)})
    texts = [Text(list(w)) for w in words]
    trie, order = build_string_trie(texts)
    idx = StaticTrieIndex(trie, order, sigma, mode="strings")
    assert sum(idx.heavy) > 1
    keys = [texts[sid].codes + [0] for sid in order]
    patterns = [list(w[:rng.randrange(0, len(w) + 1)]) + [rng.randint(1, sigma)]
                for w in rng.sample(words, 300)]
    patterns += [[rng.randint(1, sigma) for _ in range(rng.randrange(0, 6))]
                 for _ in range(300)]
    assert _one_static_pred_query_each(idx, keys, patterns) > 0


@pytest.mark.parametrize("sigma, step_type", [(63, ChildArray), (64, DetDictionary)])
def test_heavy_step_array_boundary(sigma, step_type):
    # edge characters are 0..sigma: sigma = 63 fills exactly ARRAY_CELLS = 64
    # array cells, and sigma = 64 would need 65, so its heavy nodes keep
    # deterministic dictionaries
    assert ARRAY_CELLS == 64
    rng = random.Random(sigma)
    unit = [rng.randint(1, sigma) for _ in range(12)]
    codes = unit * 12 + [rng.randint(1, sigma) for _ in range(600)] + [sigma, 1, sigma]
    idx, text = suffix_index(codes, sigma, "static")
    heavy = [v for v, h in enumerate(idx.heavy) if h]
    assert len(heavy) > 10
    for v in heavy:
        step = idx.child_step[v]
        assert type(step) is step_type, v
        assert step_type is not ChildArray or len(step) == ARRAY_CELLS
    suffixes = [codes[i:] + [0] for i in range(len(codes) + 1)]
    patterns = [codes[i:i + rng.randrange(0, 16)] for i in range(0, len(codes), 3)]
    patterns += [p + [c] for p in patterns[::4] for c in (1, sigma, rng.randint(1, sigma))]
    patterns += [[rng.randint(1, sigma) for _ in range(rng.randrange(0, 4))]
                 for _ in range(200)]
    for p in patterns:
        occ = occurrences(text.codes, p)
        res = idx.prefix_query(p)
        assert res.matched == bool(occ), p
        if occ:
            assert sorted(idx.enumerate(res.interval)) == occ, p
        else:
            assert res.matched_len == longest_matchable_prefix(suffixes, p), p
    keys = _SortedSuffixes(codes, idx.leaf_order)
    assert _one_static_pred_query_each(idx, keys, patterns) > 0


def _prefix_engines(trie, order, sigma, mode):
    """Static, tray and both loaded from their files, as prefix-query callables."""
    static = StaticTrieIndex(trie, order, sigma, mode=mode)
    tray = SuffixTrayIndex(trie, order, sigma, mode=mode)
    loaded_static = load_index(dump_index(static))
    loaded_tray = load_index(dump_index(tray))
    return static, loaded_static, [static.prefix_query, tray.tray_query,
                                   loaded_static.prefix_query, loaded_tray.tray_query]


def _check_prefix(engines, keys, pattern):
    """Every engine against a scan of the sorted sentinel-terminated keys:
    the rank interval of the keys P prefixes, else the longest matched prefix."""
    ranks = [r for r, key in enumerate(keys) if key[:len(pattern)] == pattern]
    for query in engines:
        res = query(pattern)
        if ranks:
            assert res.matched and res.interval == (ranks[0], ranks[-1]), pattern
            assert res.matched_len == len(pattern)
        else:
            assert not res.matched, pattern
            assert res.matched_len == longest_matchable_prefix(keys, pattern), pattern


def _heavy_edge_last_char_patterns(idx, sigma):
    """For every non-root heavy node with a label of 2+ characters, the path
    to it with the label's last character replaced by each other character."""
    trie = idx.trie
    out = []
    for v, nd in enumerate(trie.nodes):
        if v == trie.ROOT or not idx.heavy[v] or nd.label_len < 2:
            continue
        path = []
        u = v
        while u != trie.ROOT:
            path[:0] = label_codes(trie, u)
            u = trie.nodes[u].parent
        out.extend(path[:-1] + [c] for c in range(1, sigma + 1) if c != path[-1])
    return out


def test_boundary_patterns_suffix_mode():
    rng = random.Random(21)
    sigma = 4
    unit = [rng.randint(1, sigma) for _ in range(7)]
    codes = unit * 12 + [rng.randint(1, sigma) for _ in range(40)] + unit * 3
    text = Text(codes)
    tree = build_suffix_tree(build_suffix_array(text), text)
    order = brute_suffix_array(codes)
    static, loaded, engines = _prefix_engines(tree, order, sigma, "suffix")
    full = codes + [0]
    keys = [full[i:] for i in order]
    # past the end of the text: every suffix, extended by each character, so
    # the leaf compare reads the sentinel
    past_end = [codes[i:] + [c] for i in range(len(codes)) for c in range(1, sigma + 1)]
    edge_last = _heavy_edge_last_char_patterns(static, sigma)
    assert edge_last, "no heavy edge with two or more characters"
    for pattern in past_end + edge_last:
        _check_prefix(engines, keys, pattern)
        res = static.prefix_query(pattern)
        occ = static.enumerate(res.interval) if res.matched else []
        assert sorted(occ) == occurrences(codes, pattern), pattern
        want = bisect.bisect_right(keys, pattern + [0]) - 1
        for idx in (static, loaded):
            assert idx.predecessor_query(pattern) == (want if want >= 0 else None), pattern


def test_boundary_patterns_strings_mode():
    rng = random.Random(22)
    sigma = 4
    words = sorted({tuple(rng.randint(1, sigma) for _ in range(rng.randrange(1, 9)))
                    for _ in range(120)})
    # the second word set starts every word with 3: the root has one child
    for words in ([list(w) for w in words], [[3] + list(w) for w in words]):
        texts = [Text(w) for w in words]
        trie, order = build_string_trie(texts)
        static, loaded, engines = _prefix_engines(trie, order, sigma, "strings")
        keys = [texts[sid].codes + [0] for sid in order]
        # patterns that extend a stored word by one character, and every
        # single character (at a one-child root: below, at and above it)
        extend = [w + [c] for w in words for c in range(1, sigma + 1)]
        extend += [[c] for c in range(1, sigma + 1)]
        edge_last = _heavy_edge_last_char_patterns(static, sigma)
        assert edge_last, "no heavy edge with two or more characters"
        for pattern in extend + edge_last:
            _check_prefix(engines, keys, pattern)
            want = string_predecessor(words, pattern)
            for idx in (static, loaded):
                got = idx.predecessor_query(pattern)
                assert (None if got is None else texts[idx.leaf_order[got]].codes) == want, pattern
    assert len(trie.nodes[trie.ROOT].children) == 1


def _light_top(idx, v):
    """The light child of a heavy node whose subtree holds node v."""
    nodes = idx.trie.nodes
    while not idx.heavy[nodes[v].parent]:
        v = nodes[v].parent
    return v


def _plain_locus(trie, pattern):
    """(node, edge_offset) of a pattern that matches, by a walk down the
    children maps."""
    nodes = trie.nodes
    v = depth = 0
    while depth < len(pattern):
        v = nodes[v].children[pattern[depth]]
        depth += nodes[v].end - nodes[v].start
    offset = len(pattern) - depth + nodes[v].end - nodes[v].start
    return v, 0 if depth == len(pattern) else offset


@pytest.mark.parametrize("mode", ["suffix", "strings"])
def test_match_locus_equals_a_plain_children_walk(mode):
    rng = random.Random(64)
    sigma = 4
    if mode == "suffix":
        codes = [rng.randint(1, sigma) for _ in range(1500)]
        text = Text(codes)
        sa_index = build_suffix_array(text)
        trie, order = build_suffix_tree(sa_index, text), sa_index.sa
        keys = [codes[p:] for p in order]
    else:
        words = sorted({tuple(rng.randint(1, sigma) for _ in range(rng.randrange(1, 12)))
                        for _ in range(800)})
        trie, order = build_string_trie([Text(list(w)) for w in words])
        keys = [list(words[sid]) for sid in order]
    patterns = [key[:rng.randrange(1, len(key) + 1)] for key in rng.sample(keys[1:], 300)]
    for s in (2, 8, 64):
        idx = StaticTrieIndex(trie, order, sigma, mode, s=s)
        light = 0
        for p in patterns:
            res = idx.prefix_query(p)
            assert res.matched, p
            assert (res.node, res.edge_offset) == _plain_locus(trie, p), (p, s)
            light += not idx.heavy[res.node]
        assert light, s  # some loci lie below a light child


def test_multi_leaf_light_subtrees_match_sorted_leaf_oracle():
    rng = random.Random(2021)
    cases = []
    for sigma in (4, 26):
        codes = [rng.randint(1, sigma) for _ in range(2000)]
        text = Text(codes)
        full = codes + [0]
        order = brute_suffix_array(codes)
        cases.append((build_suffix_tree(build_suffix_array(text), text), order, sigma,
                      "suffix", [full[i:] for i in order]))
    words = sorted({tuple(rng.randint(1, 26) for _ in range(rng.randrange(1, 9)))
                    for _ in range(1500)})
    texts = [Text(list(w)) for w in words]
    trie, order = build_string_trie(texts)
    cases.append((trie, order, 26, "strings", [texts[sid].codes + [0] for sid in order]))
    for trie, order, sigma, mode, keys in cases:
        # patterns from sampled leaves: a prefix (a hit), the prefix with its
        # last character replaced, and the prefix extended by one character
        patterns = []
        for key in rng.sample(keys, 150):
            cut = rng.randrange(1, len(key))
            c = rng.randint(1, sigma)
            patterns += [key[:cut], key[:cut - 1] + [c], key[:cut] + [c]]
        for idx in (StaticTrieIndex(trie, order, sigma, mode, s=8),
                    StaticTrieIndex(trie, order, sigma, mode, s=64),
                    SuffixTrayIndex(trie, order, sigma, mode)):
            query = idx.tray_query if isinstance(idx, SuffixTrayIndex) else idx.prefix_query
            seen = {"hit": 0, "miss inside": 0, "miss past an end": 0}
            for p in patterns:
                lo = bisect.bisect_left(keys, p)
                hi = bisect.bisect_left(keys, p + [sigma + 1]) - 1
                res = query(p)
                assert res.matched == (lo <= hi), (p, idx.s)
                if res.matched:
                    assert res.interval == (lo, hi) and res.matched_len == len(p), (p, idx.s)
                else:
                    assert res.matched_len == longest_matchable_prefix(keys, p), (p, idx.s)
                if isinstance(idx, StaticTrieIndex):
                    want = bisect.bisect_right(keys, p + [0]) - 1
                    assert idx.predecessor_query(p) == (want if want >= 0 else None), (p, idx.s)
                if idx.heavy[res.node]:
                    continue
                w = trie.nodes[_light_top(idx, res.node)]
                if w.low == w.high:
                    continue
                if res.matched:
                    seen["hit"] += 1
                elif w.low < lo <= w.high:
                    seen["miss inside"] += 1
                else:
                    seen["miss past an end"] += 1
            assert all(seen.values()), (mode, sigma, idx.s, seen)


def _compares(stored, pattern, start):
    """Characters a left-to-right compare of `stored` (sentinel padded) with
    `pattern` reads from position `start`, up to and including the first
    mismatch."""
    stored = list(stored) + [0] * len(pattern)
    count = 0
    for d in range(start, len(pattern)):
        count += 1
        if stored[d] != pattern[d]:
            break
    return count


def test_chars_compared_counts_each_character_once():
    # s = 2: the root and the node "abcd" (three leaves) are heavy, so the
    # root's edge "abcd" is a heavy edge of four characters; every leaf is a
    # light child holding one leaf
    words = [enc(w) for w in (b"abcdx", b"abcdy", b"abcdz", b"b")]
    trie, order = build_string_trie([Text(w) for w in words])
    idx = StaticTrieIndex(trie, order, 256, mode="strings", s=2)
    abcd = trie.nodes[trie.ROOT].children[enc(b"a")[0]]
    assert idx.heavy[abcd] and trie.nodes[abcd].label_len == 4
    leaf_x = trie.nodes[abcd].children[enc(b"x")[0]]
    assert not idx.heavy[leaf_x] and trie.nodes[leaf_x].low == trie.nodes[leaf_x].high

    def counted(pattern, index=idx):
        before = GLOBAL.chars_compared
        res = index.prefix_query(pattern)
        return res, GLOBAL.chars_compared - before

    # mismatch on the last character of the heavy edge
    p = enc(b"abce")
    res, count = counted(p)
    assert not res.matched and res.matched_len == 3
    assert count == _compares(words[0][:4], p, 1) == 3
    # a single-leaf light child: one compare of the leaf, from after its
    # entry character up to the sentinel
    p = enc(b"abcdxq")
    res, count = counted(p)
    assert not res.matched and res.matched_len == 5
    assert count == _compares(words[0][:4], p[:4], 1) + _compares(words[0], p, 5) == 4
    p = enc(b"abcdy")
    res, count = counted(p)
    assert res.matched and res.interval == (1, 1)
    assert count == _compares(words[1][:4], p[:4], 1) + _compares(words[1], p, 5) == 3

    # s = 8: the root's child "p" is light with six leaves, ranks 0-5, and
    # every probe of its leaf binary search compares from the floor
    # min(lcp at lo - 1, lcp at hi + 1), which starts at 1
    pa, pba, pbb, pbc, pbd, pc = (enc(w) for w in (b"pa", b"pba", b"pbb", b"pbc", b"pbd", b"pc"))
    trie, order = build_string_trie([Text(w) for w in (pa, pba, pbb, pbc, pbd, pc, enc(b"q"))])
    light = StaticTrieIndex(trie, order, 256, mode="strings", s=8)
    p_id = trie.nodes[trie.ROOT].children[enc(b"p")[0]]
    assert not light.heavy[p_id] and (trie.nodes[p_id].low, trie.nodes[p_id].high) == (0, 5)
    # a miss is one search: probes pbb (lo = 3), pbd (hi = 3) and pbc, which
    # starts at the floor min(3, 2) = 2
    p = enc(b"pbbz")
    res, count = counted(p, light)
    assert not res.matched and res.matched_len == 3 and light.predecessor_query(p) == 2
    assert count == _compares(pbb, p, 1) + _compares(pbd, p, 1) + _compares(pbc, p, 2) == 6
    # a match: the first search probes pbb, pa and pba (left = 1), then the
    # strict search over ranks [2, 5] probes pbc, pbd and pc (right = 5)
    p = enc(b"pb")
    res, count = counted(p, light)
    assert res.matched and res.interval == (1, 4)
    assert count == (_compares(pbb, p, 1) + _compares(pa, p, 1) + _compares(pba, p, 1)
                     + _compares(pbc, p, 1) + _compares(pbd, p, 1) + _compares(pc, p, 1)) == 6


def test_match_at_a_light_childs_last_rank_is_one_leaf_search(monkeypatch):
    # s = 8: the root's child "p" is light with six leaves, ranks 0-5; "pc"
    # matches only rank 5, the last, so no rank is left for a strict search
    words = [enc(w) for w in (b"pa", b"pba", b"pbb", b"pbc", b"pbd", b"pc", b"q")]
    trie, order = build_string_trie([Text(w) for w in words])
    idx = StaticTrieIndex(trie, order, 256, mode="strings", s=8)
    pbb, pbd, pc = words[2], words[4], words[5]
    searches = []
    first_geq = StaticTrieIndex._first_geq

    def counted_search(self, *args, **kwargs):
        searches.append(kwargs["strict"])
        return first_geq(self, *args, **kwargs)

    monkeypatch.setattr(StaticTrieIndex, "_first_geq", counted_search)
    p = enc(b"pc")
    before = GLOBAL.chars_compared
    res = idx.prefix_query(p)
    count = GLOBAL.chars_compared - before
    assert res.matched and res.interval == (5, 5) and searches == [False]
    # the search probes pbb (lo = 3), pbd (lo = 5) and pc, each from the floor 1
    assert count == _compares(pbb, p, 1) + _compares(pbd, p, 1) + _compares(pc, p, 1) == 3


def test_chars_compared_counts_the_texts_sentinel_in_suffix_mode():
    # every compare below reads the text's closing sentinel, one count, as a
    # mismatch against a pattern character
    raw = b"banana"
    text = [b + 1 for b in raw] + [0]

    def counted(query, pattern):
        before = GLOBAL.chars_compared
        res = query(pattern)
        return res, GLOBAL.chars_compared - before

    # s = 1: every node is heavy, leaves too, so the walk enters the leaf
    # "anana$" and compares its edge "na$" with "naz": the heavy edges "a"
    # (no compare past the looked-up character), "na" (one) and "na$" (two)
    heavy, _ = suffix_index(raw)
    heavy = StaticTrieIndex(heavy.trie, heavy.leaf_order, 256, mode="suffix", s=1)
    p = enc(b"ananaz")
    res, count = counted(heavy.prefix_query, p)
    assert not res.matched and (res.matched_len, res.edge_offset) == (5, 2)
    assert heavy.heavy[res.node] and label_codes(heavy.trie, res.node) == text[4:]
    assert count == _compares(text[1:3], p[:3], 2) + _compares(text[1:], p, 4) == 3
    assert heavy.predecessor_query(p) == 3  # "anana$" at rank 3
    # s = 9 (sigma = 256), and the tray's threshold sigma: only the root is
    # heavy, and "banana$" is a light child holding one leaf; its leaf search
    # compares "anana" and then the sentinel with "z"
    p = enc(b"bananaz")
    for index in (suffix_index(raw)[0], suffix_index(raw, engine="tray")[0]):
        query = getattr(index, "prefix_query", None) or index.tray_query
        res, count = counted(query, p)
        assert not res.matched and res.matched_len == 6
        assert count == _compares(text, p, 1) == 6
    # the tray at sigma = 1: threshold 1, so every node is heavy; "aaaa"
    # enters the leaf "aaa$" through its edge "a$" and reads the sentinel
    tray, _ = suffix_index(bytes([0, 0, 0]), sigma=1, engine="tray")
    p = [1, 1, 1, 1]
    res, count = counted(tray.tray_query, p)
    assert not res.matched and (res.matched_len, res.edge_offset) == (3, 1)
    assert tray.heavy[res.node] and label_codes(tray.trie, res.node) == [1, 0]
    assert count == _compares([1, 1, 1], p, 3) == 1
