"""`scripts/answer_digest.py` keeps what the library answers apart from
what it counts and from the bytes it writes."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from triekit import serialize
from triekit.dynamic_index import DynTrieIndex
from triekit.instrument import GLOBAL, ProbeCounters

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("answer_digest", ROOT / "scripts" / "answer_digest.py")
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)


_SPECS = pytest.mark.parametrize("spec", [
    workloads.Spec("tiny-suffix", "suffix", 4, 400, 8, 30, (2, 6), 300),
    workloads.Spec("tiny-strings", "strings", 256, 60, 0, 0, (0, 0), 300),
], ids=lambda spec: spec.mode)


@_SPECS
def test_an_extra_count_changes_the_counters_digest_only(spec, monkeypatch):
    answers, counters, dumps = answer_digest.digest(spec, 1)
    assert answer_digest.digest(spec, 1) == (answers, counters, dumps)
    search = DynTrieIndex.search

    def counted_twice(self, pattern):
        GLOBAL.chars_compared += 1
        return search(self, pattern)

    monkeypatch.setattr(DynTrieIndex, "search", counted_twice)
    planted_answers, planted_counters, planted_dumps = answer_digest.digest(spec, 1)
    assert (planted_answers, planted_dumps) == (answers, dumps) and planted_counters != counters


@_SPECS
def test_a_new_file_format_changes_the_bytes_digest_only(spec, monkeypatch):
    answers, counters, dumps = answer_digest.digest(spec, 1)
    monkeypatch.setattr(serialize, "VERSION", serialize.VERSION + 1)
    new_answers, new_counters, new_dumps = answer_digest.digest(spec, 1)
    assert (new_answers, new_counters) == (answers, counters) and new_dumps != dumps


@dataclasses.dataclass
class _WithUnusedCounter(ProbeCounters):
    unused: int = 0


@_SPECS
def test_a_counter_no_call_counts_changes_no_digest(spec, monkeypatch):
    digests = answer_digest.digest(spec, 1)
    # the one counter object every module increments gains a field
    monkeypatch.setattr(GLOBAL, "__class__", _WithUnusedCounter)
    assert answer_digest.GLOBAL is GLOBAL and "unused" in GLOBAL.snapshot()
    assert answer_digest.digest(spec, 1) == digests
