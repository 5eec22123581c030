#!/usr/bin/env python3
"""Three SHA-256 digests per benchmark workload and seed: `answers=` over
everything the library answers, `counters=` over everything it counts and
`bytes=` over the index files it writes, to show that a refactor changed
none of them, or only what it counts or stores.

Per workload and seed, `answers` covers, in this order:

* the answers of the static prefix and predecessor batches, of the same
  batches on the index loaded back from its bytes, of the tray batch and
  of the same batch on the tray loaded back from its bytes;
* the answers of the dynamic stream, then of its final search and
  predecessor batch;
* the prepended suffix tree's `canonical()` form.

`counters` covers the nonzero entries of each of those calls' probe-counter
diffs, in the same order, so a new counter changes the digest only where a
call counts it.  `bytes` covers the `dump_index` bytes of the static index
and of the tray, so a new file format changes that digest alone.

Inputs come from `perfbench/workloads.py`, and only public library calls
are made, so the same script can digest another checkout's library:

    python scripts/answer_digest.py --seeds 1-2
    PYTHONPATH=/other/checkout/src python scripts/answer_digest.py --seeds 1-2

A `triekit` on PYTHONPATH is used first; otherwise this checkout's `src`.
Equal `answers=` means equal answers and trees, equal `counters=` equal
counts, and equal `bytes=` equal index files.  The library location goes
to stderr, so stdout compares directly.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which wins
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
import triekit  # noqa: E402
from triekit import sa, serialize, text  # noqa: E402
from triekit.cli import suffix_leaf_order  # noqa: E402
from triekit.dynamic_index import DynTrieIndex  # noqa: E402
from triekit.instrument import GLOBAL  # noqa: E402
from triekit.static_index import StaticTrieIndex, SuffixTrayIndex  # noqa: E402
from triekit.suffix_oracle import OnlineSuffixTree  # noqa: E402


def _answer(r):
    """A comparable form of a query's answer: every MatchResult field, or
    the rank / string id / None itself."""
    if hasattr(r, "outcome"):
        return (r.outcome.value, r.node, r.edge_offset, r.interval, r.matched_len)
    return r


def _feed(answers, counters, label, fn, args):
    """Hash each call's answer into `answers` and the nonzero entries of its
    probe-counter diff into `counters`, in order."""
    answers.update(label.encode())
    counters.update(label.encode())
    for arg in args:
        before = GLOBAL.snapshot()
        r = fn(arg)
        answers.update(repr(_answer(r)).encode())
        counters.update(repr(sorted((k, v) for k, v in GLOBAL.diff(before).items()
                                    if v)).encode())


def digest(spec, seed) -> tuple[str, str, str]:
    """(answers, counters, bytes) digests of one workload and seed."""
    inp = workloads.generate(spec, seed)
    if spec.mode == "suffix":
        txt = text.Text(inp.text)
        trie = sa.build_suffix_tree(sa.build_suffix_array(txt), txt)
        order = suffix_leaf_order(trie)
    else:
        trie, order = text.build_string_trie([text.Text(w) for w in inp.words])
    static = StaticTrieIndex(trie, order, spec.sigma, spec.mode)
    tray = SuffixTrayIndex(trie, order, spec.sigma, spec.mode)
    blob = serialize.dump_index(static)
    loaded = serialize.load_index(blob)
    tray_blob = serialize.dump_index(tray)
    loaded_tray = serialize.load_index(tray_blob)
    pats = inp.patterns

    answers = hashlib.sha256()
    counters = hashlib.sha256()
    for label, index in (("static", static), ("loaded", loaded)):
        _feed(answers, counters, f"{label} prefix", index.prefix_query, pats)
        _feed(answers, counters, f"{label} pred", index.predecessor_query, pats)
    _feed(answers, counters, "tray", tray.tray_query, pats)
    _feed(answers, counters, "loaded tray", loaded_tray.tray_query, pats)
    dumps = hashlib.sha256(blob)
    dumps.update(b"tray dump")
    dumps.update(tray_blob)

    dyn = DynTrieIndex(spec.sigma)
    fns = {"insert": dyn.insert, "search": dyn.search, "pred": dyn.predecessor}
    answers.update(b"stream")
    for kind, codes in inp.stream:
        _feed(answers, counters, kind, fns[kind], [codes])
    _feed(answers, counters, "final search", dyn.search, pats)
    _feed(answers, counters, "final pred", dyn.predecessor, pats)

    tree = OnlineSuffixTree(spec.sigma)
    for a in reversed(inp.prepend_text):
        tree.prepend(a)
    answers.update(b"prepend")
    answers.update(repr(tree.canonical()).encode())
    return answers.hexdigest(), counters.hexdigest(), dumps.hexdigest()


def _seeds(arg: str) -> list[int]:
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-2", help="a seed or an inclusive range, e.g. 1-2")
    ap.add_argument("--workloads", default=",".join(workloads.SPECS),
                    help="comma-separated workload names")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    for name in names:
        if name not in workloads.SPECS:
            ap.error(f"unknown workload {name!r}")
    print(f"triekit from {Path(triekit.__file__).parent}", file=sys.stderr)
    for name in names:
        for seed in _seeds(args.seeds):
            answers, counters, dumps = digest(workloads.SPECS[name], seed)
            print(f"{name} seed={seed} answers={answers} counters={counters} bytes={dumps}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
