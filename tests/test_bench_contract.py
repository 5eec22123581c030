"""What the benchmark in `perfbench/` reads from the library by name.

The benchmark is versioned apart from the library, so a library refactor
that moves or deletes one of these names must fail here, not crash a
benchmark run.
"""

import dataclasses
import random
import re
import sys
import types
from pathlib import Path

import pytest

from triekit import text
from triekit.cli import suffix_leaf_order
from triekit.instrument import ProbeCounters
from triekit.sa import build_suffix_array, build_suffix_tree
from triekit.serialize import dump_index, load_index
from triekit.static_index import StaticTrieIndex, SuffixTrayIndex, build_index
from triekit.suffix_oracle import OnlineSuffixTree
from triekit.text import SENTINEL, Text, build_string_trie

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_span_entry_points_are_defined_on_their_owner():
    # the tracer reads each original with vars(owner)[attr]
    for owner, attr in spans.ENTRY_POINTS:
        assert attr in vars(owner), spans.span_name(owner, attr)


def test_counters_read_by_name_exist():
    fields = {f.name for f in dataclasses.fields(ProbeCounters)}
    # counter_diff deletes this key from every diff
    assert "dict_cell_probes" in fields
    for names in measure.STEP_COUNTERS.values():
        assert set(names) <= fields
    # per-layer metrics index the counter diffs: st[...], stream[...], counts[...][...]
    source = (PERFBENCH / "measure.py").read_text()
    read = set(re.findall(r'(?:\bst|\bstream|counts\["\w+"\])\["(\w+)"\]', source))
    assert read and read <= fields, read - fields


def test_tree_signatures_read_node_attributes():
    # trie_signature reads string_depths(), .leaf_id and .children of a
    # static trie; online_signature reads .sdepth, .is_leaf, .leaf_id and
    # .children of an online node, and the tree's n
    codes = [2, 1, 3, 1, 3, 1, 2, 2, 1, 3, 1]
    text = Text(codes)
    static = measure.trie_signature(build_suffix_tree(build_suffix_array(text), text))
    tree = OnlineSuffixTree(3)
    for a in reversed(codes):
        tree.prepend(a)
    assert measure.online_signature(tree) == static
    assert len(static) > len(codes) + 1  # internal nodes, not only leaves


@pytest.mark.parametrize("spec", [
    workloads.Spec("tiny-suffix", "suffix", 4, 400, 8, 30, (2, 6), 300),
    workloads.Spec("tiny-strings", "strings", 256, 60, 0, 0, (0, 0), 300),
], ids=lambda spec: spec.mode)
def test_set_up_and_one_round_answer_correctly(spec):
    # measure.set_up hands Text records to build_suffix_array and
    # build_suffix_tree, or to build_string_trie, reads cli.suffix_leaf_order,
    # and dumps and loads; Expected reads trie_signature; a round runs every
    # batch and checks every answer
    tracer = types.SimpleNamespace(phase=None)
    built, _ = measure.set_up(spec, 1, tracer)
    expected = measure.Expected(built)
    if spec.mode == "suffix":
        assert measure.suffix_leaf_order(built.trie) == built.sa_index.sa
    else:
        leaves = [leaf for _, leaf, _ in measure.trie_signature(built.trie) if leaf >= 0]
        assert leaves == built.static.leaf_order
    runner = measure.Runner(built, expected, tracer)
    runner.round()
    assert runner.attempted > 3 * workloads.N_PATTERNS and runner.failed == 0


def _source(mode, sigma=4):
    """A seeded text (suffix mode) or set of distinct words (strings mode)."""
    rng = random.Random(31)
    if mode == "suffix":
        return [rng.randint(1, sigma) for _ in range(400)]
    words = {tuple(rng.randint(1, sigma) for _ in range(rng.randrange(0, 7))) for _ in range(80)}
    return [list(w) for w in sorted(words, key=lambda w: rng.random())]


@pytest.mark.parametrize("mode", ["suffix", "strings"])
def test_build_index_engines_share_one_trie_and_answer_as_the_constructors(mode):
    # the builders and constructors the harness calls, next to build_index
    # (the harness is to move to it)
    sigma = 4
    source = _source(mode, sigma)
    if mode == "suffix":
        txt = Text(source)
        trie = build_suffix_tree(build_suffix_array(txt), txt)
        order = suffix_leaf_order(trie)
    else:
        trie, order = build_string_trie([Text(w) for w in source])
    made_static = StaticTrieIndex(trie, order, sigma, mode)
    made_tray = SuffixTrayIndex(trie, order, sigma, mode)
    static, tray = build_index(source, sigma, mode, engines=("static", "tray"))
    assert static.trie is tray.trie
    assert static.leaf_order == tray.leaf_order == order
    assert static.trie.canonical() == trie.canonical()
    (alone,) = build_index(source, sigma, mode)
    assert type(alone) is StaticTrieIndex and alone.trie.canonical() == trie.canonical()
    rng = random.Random(32)
    for _ in range(300):
        p = [rng.randint(1, sigma) for _ in range(rng.randrange(0, 9))]
        for index in (static, alone):
            assert index.prefix_query(p) == made_static.prefix_query(p)
            assert index.predecessor_query(p) == made_static.predecessor_query(p)
        assert tray.tray_query(p) == made_tray.tray_query(p)


@pytest.mark.parametrize("mode", ["suffix", "strings"])
def test_each_source_passes_the_code_check_once_per_build_and_per_load(mode, monkeypatch):
    checked = []
    original = text.check_codes

    def counted(codes, sigma):
        checked.append(list(codes))
        return original(codes, sigma)

    for name, module in list(sys.modules.items()):
        if name.startswith("triekit") and getattr(module, "check_codes", None) is original:
            monkeypatch.setattr(module, "check_codes", counted)
    source = _source(mode)
    texts = [source] if mode == "suffix" else source
    built = build_index(source, 4, mode, engines=("static", "tray"))
    assert checked == texts
    assert built[0].trie.sources == [[*w, SENTINEL] for w in texts]
    for index in built:
        checked.clear()
        load_index(dump_index(index))
        assert checked == texts
