"""Versioned binary index files, format 3.

A static index is a deterministic function of its text: the suffix tree is
the lcp-interval tree of the suffix array and its LCPs, and a string-set
trie that of its sorted strings.  So a file stores the text and, in suffix
mode, its suffix array, and load rebuilds the trie from them.  Layout,
little-endian throughout:

* a fixed header: magic, format version, engine tag, mode tag, sigma, n, s
  and the node count;
* the text lengths, then the concatenated text codes, each stored as c - 1
  so that codes up to sigma = 2^16 fit two bytes;
* in suffix mode, the suffix array: the leaf order, suffix positions by rank;
* a CRC32 of every byte before it.

A column is one code byte from `bBhHiIqQ` followed by its values packed
with that struct code: the narrowest one that holds them.  Column lengths
follow from the header and from earlier columns.

`load_index` checks the magic, then the version (VersionMismatchError),
then the CRC, the header fields and the columns' framing, and then runs
the path of `static_index.build_index`: each text passes the one alphabet
check, and in suffix mode `sa.check_suffix_array` proves the stored order
is the text's suffix array in place of SA-IS, so no file can describe a
wrong trie; in strings mode the strings are re-sorted and a repeated one
refused.  All of these raise InvalidInputError.  The trie, its leaf-rank
intervals and the per-node search payloads are rebuilt, so a round trip
gives identical answers and identical bytes.
"""

from __future__ import annotations

import struct
import zlib
from itertools import islice

from .errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError
from .static_index import ENGINES, MODES, StaticTrieIndex, build_engines
from .text import checked

MAGIC = b"TKIX"
VERSION = 3
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


def _column(values: list[int]) -> list[bytes]:
    """The code byte and the values packed with the narrowest code that
    holds them all."""
    lo = min(values, default=0)
    hi = max(values, default=0)
    for code, (c_lo, c_hi) in _CODES.items():
        if c_lo <= lo and hi <= c_hi:
            return [code.encode(), struct.pack(f"<{len(values)}{code}", *values)]
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
    texts = [t[:-1] for t in index.trie.sources]  # without their sentinels
    lens = [len(t) for t in texts]
    parts = [_HEAD.pack(MAGIC, VERSION, engine, 0 if suffix else 1, index.sigma,
                        lens[0] if suffix else len(texts), index.s,
                        len(index.trie.nodes))]
    parts += _column(lens)
    parts += _column([c - 1 for t in texts for c in t])
    if suffix:
        parts += _column(index.leaf_order)
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
    suffix = mode_tag == 0

    r = _Reader(blob, end)
    lens = r.column(1 if suffix else n)
    _check(not suffix or lens == (n,), "n disagrees with the text")
    stored = r.column(sum(lens))
    order = list(r.column(n + 1)) if suffix else None
    _check(r.off == end, f"trailing bytes after byte {r.off}")

    codes = map((1).__add__, stored)  # the file stores each code c as c - 1
    try:
        sources = [checked(islice(codes, ln), sigma) for ln in lens]
        trie, index = build_engines(sources, sigma, MODES[mode_tag], (ENGINES[engine],), order, s)
    except AlphabetOverflowError as e:
        raise InvalidInputError(f"corrupt index file: text {e}") from None
    except DuplicateKeyError as e:
        raise InvalidInputError(f"corrupt index file: {e}") from None
    # with this, every file that loads dumps back to the same bytes
    _check(len(trie.nodes) == n_nodes, "node count disagrees with the rebuilt trie")
    return index
