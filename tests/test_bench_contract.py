"""What the benchmark in `perfbench/` reads from the library by name.

The benchmark is versioned apart from the library, so a library refactor
that moves or deletes one of these names must fail here, not crash a
benchmark run.
"""

import dataclasses
import re
import sys
import types
from pathlib import Path

import pytest

from triekit.instrument import ProbeCounters
from triekit.sa import build_suffix_array, build_suffix_tree
from triekit.suffix_oracle import OnlineSuffixTree
from triekit.text import Text

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
