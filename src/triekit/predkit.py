"""Deterministic dictionary and predecessor structures.

Building blocks used everywhere else: a constant-probe deterministic
dictionary, a static predecessor (a direct table for dense keys, sampled
x-fast otherwise) and two insert-only dynamic predecessors: a wexponential
search tree, and a tree of 64-bit words for nodes that already pay for a
universe-sized array.
No randomized seeds anywhere; identical inputs always produce identical
tables.  Callers count each dictionary lookup (`dict_probes`) where they make
it; a lookup counts the table cells it reads (`dict_cell_probes`).
"""

from __future__ import annotations

from .errors import DuplicateKeyError, InvalidInputError
from .instrument import GLOBAL

_M64 = (1 << 64) - 1
_EMPTY = -1


def _dense(span: int, k: int) -> bool:
    """True when k keys spanning `span` values take a direct table."""
    return span < 4 * k


def _mix(x: int) -> int:
    """64-bit bijective mixer (splitmix64 finalizer, fixed constants)."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class DetDictionary:
    """Static dictionary with a deterministic build and O(1)-probe lookups.

    The table kind is chosen from the keys alone.  Dense keys, whose span
    max - min + 1 is below 4k, get a direct table: slot = key - base, no
    mixing and no displacement search, never larger than the hashed table
    (2^bits in [2k, 4k) slot cells plus as many displacement cells).  A
    lookup reads the slot key, and on a hit the slot value.

    Other keys get a hashed table with two levels: keys are split into
    buckets by a fixed mixing function, then each bucket deterministically
    searches a displacement d so that the multiply-shift with multiplier
    2d+1 places its keys on distinct free slots.  A lookup touches the
    displacement cell and one slot cell.  Construction may retry with a
    doubled table in adversarial cases.
    """

    __slots__ = ("base", "shift", "mask", "disp", "slot_keys", "slot_vals")

    def __init__(self, pairs):
        items = list(pairs)
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise DuplicateKeyError("duplicate key in dictionary build")
        k = len(items)
        lo = min(keys, default=0)
        span = max(keys, default=-1) - lo + 1
        if not items or _dense(span, k):
            self.base = lo
            self.slot_keys = [_EMPTY] * span
            self.slot_vals = [None] * span
            for key, val in items:
                self.slot_keys[key - lo] = key
                self.slot_vals[key - lo] = val
            return
        self.base = None
        bits = max(2, (2 * k - 1).bit_length())
        mixed = [(_mix(key), key, val) for key, val in items]  # once, for every try
        while not self._try_build(mixed, bits):
            bits += 1

    def _try_build(self, mixed, bits) -> bool:
        m = 1 << bits
        self.shift = 64 - bits
        self.mask = m - 1
        buckets: dict[int, list] = {}
        for item in mixed:
            buckets.setdefault(item[0] & self.mask, []).append(item)
        disp = [0] * m
        slot_keys = [_EMPTY] * m
        slot_vals = [None] * m
        cap = 4 * m + 64
        for b in sorted(buckets, key=lambda b: (-len(buckets[b]), b)):
            group = buckets[b]
            for d in range(cap):
                mult = 2 * d + 1
                slots = [((mx * mult) & _M64) >> self.shift for mx, _, _ in group]
                if len(set(slots)) == len(slots) and all(slot_keys[s] == _EMPTY for s in slots):
                    disp[b] = d
                    for s, (_, key, val) in zip(slots, group):
                        slot_keys[s] = key
                        slot_vals[s] = val
                    break
            else:
                return False
        self.disp = disp
        self.slot_keys = slot_keys
        self.slot_vals = slot_vals
        return True

    def lookup(self, key: int):
        """Stored value for `key`, or None when absent."""
        base = self.base
        if base is not None:
            s = key - base
            slot_keys = self.slot_keys
            if 0 <= s < len(slot_keys) and slot_keys[s] == key:
                GLOBAL.dict_cell_probes += 2  # the slot key and the slot value
                return self.slot_vals[s]
            GLOBAL.dict_cell_probes += 1
            return None
        mx = _mix(key)
        s = ((mx * (2 * self.disp[mx & self.mask] + 1)) & _M64) >> self.shift
        if self.slot_keys[s] != key:
            GLOBAL.dict_cell_probes += 2  # the displacement cell and one slot key
            return None
        GLOBAL.dict_cell_probes += 3  # ... plus the slot value
        return self.slot_vals[s]

    def repoint(self, key: int, val):
        """Replace the value stored for `key` in place; KeyError if absent."""
        if self.base is not None:
            s = key - self.base
            if not 0 <= s < len(self.slot_keys):
                raise KeyError(key)
        else:
            mx = _mix(key)
            s = ((mx * (2 * self.disp[mx & self.mask] + 1)) & _M64) >> self.shift
        if self.slot_keys[s] != key:
            raise KeyError(key)
        self.slot_vals[s] = val


class StaticPredecessor:
    """Static predecessor over sorted keys: a direct table for dense keys,
    sampled x-fast plus block search for the rest.

    A query answers a rank: the index in `keys` of the largest key <= x, or
    -1 below the minimum, so a caller indexes its own per-key lists with it
    and keeps no key->index map.

    Dense keys, whose span keys[-1] - keys[0] + 1 is below 4k (the same rule
    as `DetDictionary`), get one list `below`: below[x - keys[0]] is the
    index of the largest key <= x for x in [keys[0], keys[-1]).  No samples
    and no x-fast levels are built, and a query that passes the end checks
    reads one cell.

    For other keys, every q-th key, q = ceil(lg u), goes into an x-fast table
    of bit prefixes held in deterministic dictionaries; a query binary-searches
    the prefix lengths, then binary-searches the block of keys between two
    adjacent samples.  With a single sample (at most q keys) every query that
    passes the end checks lies in block 0, so no x-fast levels are built and
    the query is the block search alone: at most ceil(lg q) + 1 probes, within
    the O(lg lg u) bound.  Each direct-table read, x-fast lookup and block
    comparison adds one to `static_pred_probes`.
    """

    __slots__ = ("keys", "w", "q", "below", "levels")

    def __init__(self, keys, u: int):
        keys = self.keys = list(keys)
        for a, b in zip(keys, keys[1:]):
            if a >= b:
                raise InvalidInputError("keys must be strictly increasing")
        if keys and (keys[0] < 0 or keys[-1] >= u):
            raise InvalidInputError("keys must lie in [0, u)")
        self.w = self.q = max(1, (u - 1).bit_length())
        self.below = None
        # levels[l] maps the l-bit prefix to the (lo, hi) sample index range
        self.levels = []
        if keys and _dense(keys[-1] - keys[0] + 1, len(keys)):
            below = self.below = []
            for i in range(len(keys) - 1):
                below += [i] * (keys[i + 1] - keys[i])
            return
        samples = keys[:: self.q]
        if len(samples) > 1:
            for level in range(self.w + 1):
                table: dict[int, tuple[int, int]] = {}
                for i, key in enumerate(samples):
                    p = key >> (self.w - level)
                    lo, hi = table.get(p, (i, i))
                    table[p] = (min(lo, i), max(hi, i))
                self.levels.append(DetDictionary(table.items()))

    def query(self, x: int) -> int:
        """Index of max{y <= x | y stored} in `keys`, or -1 below the minimum."""
        GLOBAL.static_pred_queries += 1
        if not self.keys or x < self.keys[0]:
            return -1
        if x >= self.keys[-1]:
            return len(self.keys) - 1
        if self.below is not None:
            GLOBAL.static_pred_probes += 1
            return self.below[x - self.keys[0]]
        if not self.levels:
            return self._block_pred(0, x)
        # longest stored prefix of x, by binary search over prefix lengths
        lo_lv, hi_lv = 0, self.w  # level 0 always present
        GLOBAL.static_pred_probes += 1
        best = self.levels[0].lookup(0)
        while lo_lv < hi_lv:
            mid = (lo_lv + hi_lv + 1) // 2
            GLOBAL.static_pred_probes += 1
            hit = self.levels[mid].lookup(x >> (self.w - mid))
            if hit is not None:
                best = hit
                lo_lv = mid
            else:
                hi_lv = mid - 1
        level = lo_lv
        lo, hi = best
        if level == self.w:
            i = lo  # x itself is a sample
        elif (x >> (self.w - level - 1)) & 1:
            i = hi  # samples under this prefix all start with bit 0 here
        else:
            i = lo - 1  # they all start with bit 1, hence exceed x
        return self._block_pred(i, x)

    def _block_pred(self, i: int, x: int) -> int:
        """Index of the largest key <= x among the keys between samples i
        and i+1."""
        lo_k = i * self.q
        hi_k = min(lo_k + self.q, len(self.keys)) - 1
        while lo_k < hi_k:
            mid = (lo_k + hi_k + 1) // 2
            GLOBAL.static_pred_probes += 1
            if self.keys[mid] <= x:
                lo_k = mid
            else:
                hi_k = mid - 1
        return lo_k


class DynamicPredecessor:
    """Insert-only predecessor over [0, u), realized as a wexponential
    search tree with every weight forced to one.
    """

    __slots__ = ("_tree",)

    def __init__(self, u: int):
        from .wexp import WexpTree

        self._tree = WexpTree(u)

    def insert(self, key: int):
        """Idempotent insert of `key`."""
        if key not in self._tree.handles:
            self._tree.insert(key)

    def query(self, x: int):
        GLOBAL.dyn_pred_probes += 1
        hit = self._tree.pred(x)
        return None if hit is None else hit[0]

    def keys(self) -> list[int]:
        return sorted(self._tree.handles)


class BitPredecessor:
    """Insert-only predecessor over [0, u), a 64-ary tree of 64-bit words.

    Bit i of level-0 word j marks key 64j + i; bit i of word j at a higher
    level marks a nonzero word 64j + i on the level below.  There are
    max(1, ceil(log_64 u)) levels, at most 6 for u <= 2^32, and the words
    number at most u/63 + 6.  An insert sets at most one bit per level and
    stops at the first word that was already nonzero; a query reads at most
    two words per level, one going up and one coming down, and adds one to
    `dyn_pred_probes` as `DynamicPredecessor.query` does.
    """

    __slots__ = ("levels",)

    def __init__(self, u: int):
        self.levels = []
        n = u
        while True:
            n = -(-n // 64)
            self.levels.append([0] * max(1, n))
            if n <= 1:
                return

    def insert(self, key: int):
        """Idempotent insert of `key`."""
        for words in self.levels:
            j = key >> 6
            w = words[j]
            words[j] = w | (1 << (key & 63))
            if w:
                return  # the levels above already mark word j
            key = j

    def query(self, x: int):
        """max{y <= x | y stored} for x < u, or None below the minimum."""
        GLOBAL.dyn_pred_probes += 1
        if x < 0:
            return None
        levels = self.levels
        # up: the first level with a marked position at or left of x; the
        # top level is one word, so the loop breaks or returns
        for depth, words in enumerate(levels):
            w = words[x >> 6] & ((2 << (x & 63)) - 1)
            if w:
                break
            x = (x >> 6) - 1
            if x < 0:
                return None
        x = (x & ~63) + w.bit_length() - 1
        # down: the highest marked position in each word below
        for words in reversed(levels[:depth]):
            x = (x << 6) + words[x].bit_length() - 1
        return x

    def keys(self) -> list[int]:
        """Stored keys in increasing order, read off the level-0 words."""
        out = []
        for j, w in enumerate(self.levels[0]):
            while w:
                low = w & -w
                out.append((j << 6) + low.bit_length() - 1)
                w ^= low
        return out

    def audit(self):
        """Raise AssertionError unless each higher-level bit marks exactly
        a nonzero word below it."""
        for below, words in zip(self.levels, self.levels[1:]):
            marks = sum(1 << j for j, w in enumerate(below) if w)
            if marks != sum(w << (j * 64) for j, w in enumerate(words)):
                raise AssertionError("bit-word summary differs from the words below")
