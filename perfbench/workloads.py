"""Seeded inputs for the benchmark workloads, and the answers they must give.

Everything here is plain Python over lists of integer codes; nothing imports
triekit, so the expected answers do not depend on the code under test.
Codes follow triekit's convention: real characters are 1..sigma and code 0
is the sentinel, which sorts below every real character.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

INSERT_SHARE = 0.6   # of the dynamic stream; searches and predecessors split the rest
N_PATTERNS = 2000    # static, tray and (words) final-batch queries per round
LETTERS = range(98, 124)  # "a".."z" as byte codes (byte value + 1)
SEPARATOR = 11            # "\n" as a byte code


@dataclass(frozen=True)
class Spec:
    name: str
    mode: str            # "suffix" (one text) or "strings" (a word set)
    sigma: int
    n: int               # text length, or number of distinct words
    pattern_len: int     # longest substring a pattern copies from the text
    reads: int           # distinct strings the dynamic stream inserts (suffix mode)
    read_len: tuple      # (shortest, longest) read (suffix mode)
    prepend_n: int       # length of the text built by prepending


SPECS = {
    spec.name: spec for spec in (
        Spec("dna-repeats", "suffix", 4, 12_000, 64, 4000, (8, 32), 12_000),
        Spec("codes-64k", "suffix", 65_536, 50_000, 16, 4000, (2, 6), 25_000),
        Spec("words-dynamic", "strings", 256, 10_000, 0, 0, (0, 0), 20_000),
    )
}


@dataclass
class Inputs:
    """Everything one workload hands to the library."""

    spec: Spec
    text: list        # suffix mode: the text; strings mode: unused (empty)
    words: list       # strings mode: the word list in insertion order
    patterns: list    # the static / tray query batch
    stream: list      # dynamic stream: ("insert" | "search" | "pred", codes)
    prepend_text: list

    @property
    def symbols(self) -> int:
        """Input symbols the static index covers."""
        if self.spec.mode == "suffix":
            return len(self.text)
        return sum(len(w) for w in self.words)


# ----------------------------------------------------------------- inputs

def _repeats_text(rng, n, sigma):
    """Half uniform chunks, half 1 %-mutated copies of earlier 50-500 runs."""
    out = []
    while len(out) < n:
        length = rng.randint(50, 500)
        if len(out) < length or rng.random() < 0.5:
            out.extend(rng.randint(1, sigma) for _ in range(length))
        else:
            i = rng.randrange(len(out) - length + 1)
            out.extend(c if rng.random() >= 0.01 else rng.randint(1, sigma)
                       for c in out[i:i + length])
    return out[:n]


def _text_patterns(rng, text, sigma, max_len, count):
    """50 % substrings, 30 % a substring plus a random char, 20 % random."""
    n = len(text)
    pats = []
    for _ in range(count):
        r = rng.random()
        if r < 0.8:
            length = rng.randint(1, max_len)
            i = rng.randrange(n - length + 1)
            pat = text[i:i + length]
            if r >= 0.5:
                pat = pat + [rng.randint(1, sigma)]
        else:
            pat = [rng.randint(1, sigma) for _ in range(rng.randint(1, 8))]
        pats.append(pat)
    return pats


def _distinct_substrings(rng, text, count, lo, hi):
    seen = set()
    out = []
    while len(out) < count:
        length = rng.randint(lo, hi)
        i = rng.randrange(len(text) - length + 1)
        key = tuple(text[i:i + length])
        if key not in seen:
            seen.add(key)
            out.append(list(key))
    return out


_ZIPF = list(itertools.accumulate(1 / (i + 1) for i in range(len(LETTERS))))


def _letters(rng, k):
    return rng.choices(LETTERS, cum_weights=_ZIPF, k=k)


def _words(rng, count):
    seen = set()
    out = []
    while len(out) < count:
        key = tuple(_letters(rng, rng.randint(3, 12)))
        if key not in seen:
            seen.add(key)
            out.append(list(key))
    return out


def _word_patterns(rng, words, count):
    """50 % word prefixes, 30 % a prefix plus a letter, 20 % random letters."""
    pats = []
    for _ in range(count):
        r = rng.random()
        if r < 0.8:
            w = rng.choice(words)
            pat = w[:rng.randint(1, len(w))]
            if r >= 0.5:
                pat = pat + _letters(rng, 1)
        else:
            pat = _letters(rng, rng.randint(1, 8))
        pats.append(pat)
    return pats


def _stream(rng, inserts, read_patterns):
    """Interleave every insert, in order, with searches and predecessors."""
    out = []
    reads = iter(read_patterns)
    for codes in inserts:
        while rng.random() >= INSERT_SHARE:
            kind = "search" if rng.random() < 0.5 else "pred"
            out.append((kind, next(reads)))
        out.append(("insert", codes))
    return out


def generate(spec: Spec, seed: int) -> Inputs:
    """The workload's inputs; the same seed always gives the same inputs."""
    rng = random.Random(f"{spec.name}:{seed}")
    # the stream draws 2/3 of a read per insert on average; 4 per insert is
    # far beyond that, and running out raises instead of changing the mix
    if spec.mode == "suffix":
        if spec.sigma == 4:
            text = _repeats_text(rng, spec.n, spec.sigma)
        else:
            text = [rng.randint(1, spec.sigma) for _ in range(spec.n)]
        patterns = _text_patterns(rng, text, spec.sigma, spec.pattern_len, N_PATTERNS)
        inserts = _distinct_substrings(rng, text, spec.reads, *spec.read_len)
        read_patterns = _text_patterns(rng, text, spec.sigma, spec.pattern_len,
                                       4 * len(inserts))
        return Inputs(spec, text, [], patterns, _stream(rng, inserts, read_patterns),
                      text[:spec.prepend_n])
    words = _words(rng, spec.n)
    patterns = _word_patterns(rng, words, N_PATTERNS)
    read_patterns = _word_patterns(rng, words, 4 * len(words))
    joined = []
    for w in words:
        if len(joined) >= spec.prepend_n:
            break
        joined.extend(w)
        joined.append(SEPARATOR)
    return Inputs(spec, [], words, patterns, _stream(rng, words, read_patterns),
                  joined[:spec.prepend_n])


# ---------------------------------------------------------------- oracles

def check_suffix_array(text, sa):
    """True iff `sa` lists every suffix of text + sentinel in sorted order."""
    n = len(text)
    if sorted(sa) != list(range(n + 1)):
        return False
    for a, b in zip(sa, sa[1:]):
        k = 0
        while True:
            x, y = text[a + k:a + k + 64], text[b + k:b + k + 64]
            if x != y:
                if not x < y:   # a proper prefix (sentinel first) sorts lower
                    return False
                break
            if len(x) < 64:
                return False    # two equal suffixes at distinct positions
            k += 64
    return True


def suffix_answers(text, sa, patterns):
    """(prefix interval or None, predecessor rank or None) per pattern, by
    binary search over the suffix array."""
    def first_rank(pred):
        lo, hi = 0, len(sa)
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(sa[mid]):
                hi = mid
            else:
                lo = mid + 1
        return lo

    out = []
    for p in patterns:
        m = len(p)
        lo = first_rank(lambda s: text[s:s + m] >= p)
        hi = first_rank(lambda s: text[s:s + m] > p)
        below = first_rank(lambda s: text[s:s + m + 1] > p)
        out.append(((lo, hi - 1) if hi > lo else None, below - 1 if below else None))
    return out


class SortedSet:
    """Stored strings in sorted order with their insertion ids."""

    def __init__(self, sigma):
        self.top = [sigma + 1]   # above every real character
        self.keys = []
        self.ids = []

    def add(self, codes, sid):
        i = bisect.bisect_left(self.keys, codes)
        self.keys.insert(i, codes)
        self.ids.insert(i, sid)

    def interval(self, p):
        """Rank interval of the stored strings that start with p, or None."""
        lo = bisect.bisect_left(self.keys, p)
        hi = bisect.bisect_left(self.keys, p + self.top)
        return (lo, hi - 1) if hi > lo else None

    def occ(self, p):
        iv = self.interval(p)
        return 0 if iv is None else iv[1] - iv[0] + 1

    def pred_id(self, p):
        """Id of the largest stored string <= p; a stored prefix of p sorts
        below it, as sentinel termination implies."""
        i = bisect.bisect_right(self.keys, p) - 1
        return self.ids[i] if i >= 0 else None


def stream_answers(sigma, stream):
    """Expected result of each stream op (inserts expect None), and the
    final stored set."""
    stored = SortedSet(sigma)
    out = []
    sid = 0
    for kind, codes in stream:
        if kind == "insert":
            stored.add(codes, sid)
            sid += 1
            out.append(None)
        elif kind == "search":
            out.append(stored.occ(codes))
        else:
            out.append(stored.pred_id(codes))
    return out, stored
