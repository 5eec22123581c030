"""Versioned binary index files.

Layout: a fixed header (magic, format version, engine tag, mode tag, sigma,
n, s) followed by length-prefixed sections: stored texts, the sorted leaf
array, and the trie topology with intervals.  Little-endian fixed-width
integers throughout, so files round-trip bit-exactly.  The per-node search
payloads (dictionaries, predecessor structures) are deterministic functions
of these sections and are rebuilt on load.
"""

from __future__ import annotations

import struct

from .errors import InvalidInputError
from .static_index import StaticTrieIndex, build_static_index, build_suffix_tray
from .text import CompactedTrie, Node, Text

MAGIC = b"TKIX"
VERSION = 1

SEC_TEXTS = 1
SEC_LEAF_ORDER = 2
SEC_TRIE = 3


class VersionMismatchError(InvalidInputError):
    pass


def _pack_section(tag: int, payload: bytes) -> bytes:
    return struct.pack("<BQ", tag, len(payload)) + payload


def dump_index(index) -> bytes:
    engine = 0 if isinstance(index, StaticTrieIndex) else 1
    mode = 0 if index.mode == "suffix" else 1
    trie = index.trie
    n = trie.sources[0].n if index.mode == "suffix" else len(trie.sources)
    head = MAGIC + struct.pack("<IBBQQQ", VERSION, engine, mode, index.sigma, n, index.s)

    texts = bytearray(struct.pack("<Q", len(trie.sources)))
    for t in trie.sources:
        texts += struct.pack("<Q", t.n)
        texts += struct.pack(f"<{t.n}I", *t.codes) if t.n else b""

    order = struct.pack("<Q", len(index.leaf_order))
    order += struct.pack(f"<{len(index.leaf_order)}q", *index.leaf_order) if index.leaf_order else b""

    nodes = bytearray(struct.pack("<Q", len(trie.nodes)))
    for nd in trie.nodes:
        kids = sorted(nd.children.items())
        nodes += struct.pack("<qqQQqqqQ", nd.parent, nd.sid, nd.start, nd.end,
                             nd.low, nd.high, nd.leaf_id, len(kids))
        for c, ch in kids:
            nodes += struct.pack("<IQ", c, ch)

    return (head + _pack_section(SEC_TEXTS, bytes(texts))
            + _pack_section(SEC_LEAF_ORDER, order)
            + _pack_section(SEC_TRIE, bytes(nodes)))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, fmt: str):
        try:
            vals = struct.unpack_from(fmt, self.blob, self.off)
        except struct.error:
            raise InvalidInputError(f"index file truncated at byte {self.off}") from None
        self.off += struct.calcsize(fmt)
        return vals


def load_index(blob: bytes):
    if blob[:4] != MAGIC:
        raise InvalidInputError("not a triekit index file")
    r = _Reader(blob)
    r.off = 4
    version, engine, mode_tag, sigma, _n, s = r.take("<IBBQQQ")
    if version != VERSION:
        raise VersionMismatchError(f"index format version {version}, expected {VERSION}")
    mode = "suffix" if mode_tag == 0 else "strings"

    sections = {}
    while r.off < len(blob):
        tag, length = r.take("<BQ")
        sections[tag] = (r.off, length)
        r.off += length
    for tag in (SEC_TEXTS, SEC_LEAF_ORDER, SEC_TRIE):
        if tag not in sections:
            raise InvalidInputError(f"missing section {tag}")

    r.off = sections[SEC_TEXTS][0]
    (n_texts,) = r.take("<Q")
    sources = []
    for _ in range(n_texts):
        (ln,) = r.take("<Q")
        codes = list(r.take(f"<{ln}I")) if ln else []
        sources.append(Text(codes))

    r.off = sections[SEC_LEAF_ORDER][0]
    (n_leaves,) = r.take("<Q")
    leaf_order = list(r.take(f"<{n_leaves}q")) if n_leaves else []

    r.off = sections[SEC_TRIE][0]
    (n_nodes,) = r.take("<Q")
    trie = CompactedTrie(sources=sources)
    trie.nodes = []
    for _ in range(n_nodes):
        parent, sid, start, end, low, high, leaf_id, n_kids = r.take("<qqQQqqqQ")
        nd = Node(parent=parent, sid=sid, start=start, end=end,
                  low=low, high=high, leaf_id=leaf_id)
        for _ in range(n_kids):
            c, ch = r.take("<IQ")
            nd.children[c] = ch
        trie.nodes.append(nd)

    if engine == 0:
        return build_static_index(trie, leaf_order, sigma, mode=mode, s=s)
    return build_suffix_tray(trie, leaf_order, sigma, mode=mode)
