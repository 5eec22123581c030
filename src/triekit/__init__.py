"""Deterministic compacted-trie indexing toolkit."""

from .dynamic_index import DynTrieIndex
from .predkit import DetDictionary, DynamicPredecessor, StaticPredecessor
from .sa import SuffixArrayIndex, build_suffix_array, build_suffix_tree
from .static_index import StaticTrieIndex, SuffixTrayIndex, build_index
from .suffix_oracle import FmaTree, OnlineSuffixTree
from .text import CompactedTrie, MatchResult, Outcome, Text, build_string_trie, check_codes
from .wexp import CAPACITY, ElementHandle, WexpTree

__all__ = [
    "CompactedTrie", "MatchResult", "Outcome", "Text",
    "build_string_trie", "check_codes",
    "SuffixArrayIndex", "build_suffix_array", "build_suffix_tree",
    "DetDictionary", "StaticPredecessor", "DynamicPredecessor",
    "CAPACITY", "ElementHandle", "WexpTree",
    "StaticTrieIndex", "SuffixTrayIndex", "build_index",
    "DynTrieIndex",
    "FmaTree", "OnlineSuffixTree",
]
