"""Spans around the public entry points of each triekit module.

The tracer replaces each entry point, on its module or class, with a wrapper
that records a span, and puts the originals back when it is removed, so the
library itself is never edited.  A span's own time is its duration minus the
durations of the spans it directly encloses.  Spans are aggregated in memory
by (phase, entry point, enclosing entry point); the phase is a label the
benchmark sets around each operation.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from triekit import (dynamic_index, predkit, sa, serialize, static_index, suffix_oracle,
                     text, wexp)

ENTRY_POINTS = [
    (sa, "build_suffix_array"),
    (sa, "build_suffix_tree"),
    (text, "build_string_trie"),
    (text.CompactedTrie, "insert_path"),
    (predkit.DetDictionary, "__init__"),
    (predkit.DetDictionary, "lookup"),
    (predkit.StaticPredecessor, "__init__"),
    (predkit.StaticPredecessor, "query"),
    (predkit.DynamicPredecessor, "query"),
    (static_index.StaticTrieIndex, "__init__"),
    (static_index.StaticTrieIndex, "prefix_query"),
    (static_index.StaticTrieIndex, "predecessor_query"),
    (static_index.SuffixTrayIndex, "__init__"),
    (static_index.SuffixTrayIndex, "tray_query"),
    (serialize, "dump_index"),
    (serialize, "load_index"),
    (wexp.WexpTree, "insert"),
    (wexp.WexpTree, "increase"),
    (wexp.WexpTree, "pred"),
    (dynamic_index.DynTrieIndex, "insert"),
    (dynamic_index.DynTrieIndex, "search"),
    (dynamic_index.DynTrieIndex, "predecessor"),
    (suffix_oracle.OnlineSuffixTree, "prepend"),
]


def span_name(owner, attr) -> str:
    """"sa.build_suffix_array" for functions, "DetDictionary.lookup" for methods."""
    if isinstance(owner, type):
        return f"{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Installs span wrappers on every entry point while used as a context."""

    def __init__(self):
        self.phase = None
        self.stack = []   # open spans: [name, child duration in ns]
        self.spans = defaultdict(lambda: [0, 0])  # key -> [calls, own ns]
        self._saved = []

    def __enter__(self):
        for owner, attr in ENTRY_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                parent = None
                if stack:
                    stack[-1][1] += took
                    parent = stack[-1][0]
                rec = spans[(self.phase, name, parent)]
                rec[0] += 1
                rec[1] += took - frame[1]

        return traced

    def _select(self, phases, name, parents):
        for (phase, span, parent), rec in self.spans.items():
            if phase in phases and span == name and (parents is None or parent in parents):
                yield rec

    def calls(self, phases, name, parents=None) -> int:
        """Number of spans of `name` in `phases`, optionally only those
        directly enclosed by one of `parents`."""
        return sum(rec[0] for rec in self._select(phases, name, parents))

    def own_s(self, phases, name, parents=None) -> float:
        """Summed own time in seconds, selected as in `calls`."""
        return sum(rec[1] for rec in self._select(phases, name, parents)) / 1e9
