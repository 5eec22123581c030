"""Versioned binary index files, format 2.

Layout, little-endian throughout:

* a fixed header: magic, format version, engine tag, mode tag, sigma, n, s
  and the node count;
* one column per node field, in node order: parent, sid, start, end, low,
  high, leaf_id and the child count;
* the children as two columns, characters then node ids, node by node and
  sorted by character within a node;
* the text lengths and the concatenated text codes;
* a CRC32 of every byte before it.

A column is one code byte from `bBhHiIqQ` followed by its values packed
with that struct code: the narrowest one that holds them.  Column lengths
follow from the header and from earlier columns.  The leaf order is not
stored: each leaf's rank is its `low`, so load derives it.  The per-node
search payloads (dictionaries, predecessor structures) are deterministic
functions of the stored fields and are rebuilt on load, so a round trip
gives identical answers and identical bytes.

`load_index` checks the magic, then the version (VersionMismatchError),
then the CRC, then every field's range before it builds anything; all of
these raise InvalidInputError.  A child id out of range and two leaves on
one rank raise CorruptTrieError, as `validate_intervals` does for the rest
of the topology.
"""

from __future__ import annotations

import struct
import zlib
from itertools import islice
from operator import gt

from .errors import CorruptTrieError, InvalidInputError
from .static_index import StaticTrieIndex, SuffixTrayIndex
from .text import CompactedTrie, Node, Text

MAGIC = b"TKIX"
VERSION = 2
SIGMA_LIMIT = 1 << 32  # an index file holds a sigma in [1, SIGMA_LIMIT)

# magic, version, engine, mode, sigma, n, s, node count
_HEAD = struct.Struct("<4sIBBQQQQ")
# struct code -> the values it holds, narrowest first
_CODES = {"b": (-2**7, 2**7 - 1), "B": (0, 2**8 - 1),
          "h": (-2**15, 2**15 - 1), "H": (0, 2**16 - 1),
          "i": (-2**31, 2**31 - 1), "I": (0, 2**32 - 1),
          "q": (-2**63, 2**63 - 1), "Q": (0, 2**64 - 1)}
_WIDTH = {ord(code): struct.calcsize(code) for code in _CODES}


class VersionMismatchError(InvalidInputError):
    pass


def _column(values, lo: int, hi: int) -> list[bytes]:
    """The code byte and the values packed with the narrowest code that holds
    [lo, hi].  A value outside [lo, hi] moves them to the next code that
    holds it."""
    k = len(values)
    for code, (c_lo, c_hi) in _CODES.items():
        if c_lo <= lo and hi <= c_hi:
            try:
                return [code.encode(), struct.pack(f"<{k}{code}", *values)]
            except struct.error:
                continue
    raise InvalidInputError("index value outside 64 bits")


def check_sigma(sigma: int):
    """Refuse a sigma an index file cannot hold."""
    if not 1 <= sigma < SIGMA_LIMIT:
        raise InvalidInputError(
            f"sigma {sigma} outside [1, {SIGMA_LIMIT}) cannot be written to an index file")


def dump_index(index) -> bytes:
    check_sigma(index.sigma)
    engine = 0 if isinstance(index, StaticTrieIndex) else 1
    suffix = index.mode == "suffix"
    trie = index.trie
    nodes = trie.nodes
    sources = trie.sources
    n = sources[0].n if suffix else len(sources)
    n_nodes = len(nodes)
    n_leaves = n + 1 if suffix else n
    lens = [len(t.codes) for t in sources]
    top = max(lens, default=0) + 1
    codes = sources[0].codes if suffix else [c for t in sources for c in t.codes]

    # one comprehension per field: no per-node tuple for the collector to track
    counts = [len(nd.children) for nd in nodes]
    chars = []
    ids = []
    for nd in nodes:
        kids = nd.children
        if kids:
            keys = sorted(kids)
            chars += keys
            ids += map(kids.__getitem__, keys)

    parts = [_HEAD.pack(MAGIC, VERSION, engine, 0 if suffix else 1,
                        index.sigma, n, index.s, n_nodes)]
    for values, lo, hi in (
            ([nd.parent for nd in nodes], -1, n_nodes - 1),
            ([nd.sid for nd in nodes], -1, len(sources) - 1),
            ([nd.start for nd in nodes], 0, top),
            ([nd.end for nd in nodes], 0, top),
            ([nd.low for nd in nodes], 0, n_leaves - 1),
            ([nd.high for nd in nodes], min(0, n_leaves - 1), n_leaves - 1),
            ([nd.leaf_id for nd in nodes], -1, n_leaves - 1),
            (counts, 0, max(counts)),
            (chars, 0, max(chars, default=0)),
            (ids, 1, n_nodes - 1),
            (lens, 0, top - 1),
            (codes, 1, max(codes, default=1))):
        parts += _column(values, lo, hi)
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    """Reads the columns that follow the header, one at a time."""

    def __init__(self, blob: bytes, end: int):
        self.blob = blob
        self.off = _HEAD.size
        self.end = end

    def column(self, count: int) -> tuple:
        off = self.off
        width = _WIDTH.get(self.blob[off]) if off < self.end else 0
        if not width:
            raise InvalidInputError(f"no known column code at byte {off}")
        if off + 1 + count * width > self.end:
            raise InvalidInputError(f"column at byte {off} runs past the end of the file")
        self.off = off + 1 + count * width
        return struct.unpack_from(f"<{count}{chr(self.blob[off])}", self.blob, off + 1)


def _check(ok: bool, what: str):
    if not ok:
        raise InvalidInputError(f"corrupt index file: {what}")


def load_index(blob: bytes):
    if blob[:4] != MAGIC:
        raise InvalidInputError("not a triekit index file")
    if len(blob) < 8:
        raise InvalidInputError("index file truncated at byte 4")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise VersionMismatchError(
            f"index format version {version}, expected {VERSION}: rebuild the index")
    end = len(blob) - 4
    crc = int.from_bytes(blob[end:], "little")
    if end < _HEAD.size or zlib.crc32(memoryview(blob)[:end]) != crc:
        raise InvalidInputError("index file checksum mismatch")
    _, _, engine, mode_tag, sigma, n, s, n_nodes = _HEAD.unpack_from(blob)
    _check(engine <= 1 and mode_tag <= 1, "unknown engine or mode tag")
    _check(1 <= sigma < SIGMA_LIMIT and s >= 1, f"sigma {sigma} or s {s} out of range")
    _check(n_nodes >= 1, "no root node")
    suffix = mode_tag == 0
    n_texts = 1 if suffix else n
    n_leaves = n + 1 if suffix else n

    r = _Reader(blob, end)
    parent, sid, start, stop, low, high, leaf_id, counts = (r.column(n_nodes) for _ in range(8))
    chars = r.column(sum(counts))
    ids = r.column(len(chars))
    lens = r.column(n_texts)
    codes = r.column(sum(lens))
    _check(r.off == end, f"trailing bytes after byte {r.off}")

    _check(not suffix or lens == (n,), "n disagrees with the text")
    _check(not codes or (min(codes) >= 1 and max(codes) <= sigma),
           f"text code outside [1, {sigma}]")
    _check(not chars or (min(chars) >= 0 and max(chars) <= sigma),
           f"child character outside [0, {sigma}]")
    if ids and (min(ids) < 1 or max(ids) >= n_nodes):
        raise CorruptTrieError("child id out of range")  # as validate_intervals
    sids = sid[1:]
    _check(not sids or (min(sids) >= 0 and max(sids) < n_texts), "source id out of range")
    _check(min(start) >= 0 and not any(map(gt, start, stop)), "a label starts after its end")
    limit = [ln + 1 for ln in lens]
    _check(not any(map(gt, stop[1:], map(limit.__getitem__, sids))),
           "a label ends past its text")
    _check(min(leaf_id) >= -1 and max(leaf_id) < n_leaves and leaf_id[0] == -1,
           "leaf id out of range, or the root is a leaf")

    it = iter(codes)
    trie = CompactedTrie(sources=[Text(islice(it, ln)) for ln in lens])
    pairs = zip(chars, ids)
    kids = [dict(islice(pairs, k)) if k else {} for k in counts]
    trie.nodes = list(map(Node, parent, sid, start, stop, kids, low, high, leaf_id))
    leaf_order = trie.leaf_order(n_leaves)

    mode = "suffix" if suffix else "strings"
    if engine == 0:
        return StaticTrieIndex(trie, leaf_order, sigma, mode=mode, s=s)
    return SuffixTrayIndex(trie, leaf_order, sigma, mode=mode)
