"""Command-line front end: build and query static indexes, drive dynamic
and prepend-stream workloads, and run deterministic benchmarks.

Reports on stdout are deterministic functions of (inputs, flags, seed); the
wall-clock timings go to stderr so identical seeds yield byte-identical
reports.  Exit codes: 0 ok, 2 I/O failure, 3 alphabet overflow, 4 index
version mismatch, 5 malformed input/unknown option value, 6 verification
failure.  A command raises, and `main` alone maps the error to its code by
`_EXIT_CODES` and prints it as the one `error:` line.  TRIEKIT_AUDIT=1,
read by `main`, makes `dynamic` audit after every insert and
`prepend-stream` after every prepend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .dynamic_index import DynTrieIndex
from .errors import AlphabetOverflowError, DuplicateKeyError, InvalidInputError, TriekitError
from .instrument import GLOBAL
from .serialize import VersionMismatchError, check_sigma, dump_index, load_index
from .static_index import StaticTrieIndex, build_engines, build_index
from .suffix_oracle import OnlineSuffixTree
from .text import SENTINEL, check_codes


class VerificationError(TriekitError):
    """A structural audit or a checkpoint of a command failed."""


# Checked first to last: the exit code of the first class an error is an
# instance of.  VersionMismatchError is an InvalidInputError, so it precedes
# TriekitError.
_EXIT_CODES = (
    (OSError, 2),
    (AlphabetOverflowError, 3),
    (VersionMismatchError, 4),
    (VerificationError, 6),
    (TriekitError, 5),
)


def _decode_symbols(raw: bytes, sigma: int) -> list[int]:
    """Byte values + 1 when sigma fits a byte alphabet, else decimal codes."""
    if sigma <= 256:
        return [b + 1 for b in raw]
    try:
        return [int(tok) for tok in raw.split()]
    except ValueError as e:
        raise InvalidInputError(f"symbols above sigma 256 are decimal codes: {e}") from None


def _pattern_text(codes: list[int], sigma: int) -> str:
    if sigma <= 256:
        return bytes(c - 1 for c in codes).decode("latin-1")
    return " ".join(str(c) for c in codes)


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def suffix_leaf_order(tree) -> list[int]:
    """A suffix tree's suffix array, read off its leaves, which the bench
    harness and `scripts/answer_digest.py` check a tree's leaves against."""
    order = [0] * len(tree.sources[0])
    for nd in tree.nodes:
        if nd.leaf_id >= 0:
            order[nd.low] = nd.leaf_id
    return order


def _build_index(data: bytes, sigma: int, mode: str, engine: str):
    if mode == "suffix":
        source = _decode_symbols(data, sigma)
    else:  # distinct non-empty lines, in input order
        source = list(dict.fromkeys(tuple(_decode_symbols(line, sigma))
                                    for line in data.split(b"\n") if line))
    return build_index(source, sigma, mode, (engine,))[0]


def cmd_build(args) -> int:
    data = _read_file(args.input)
    t0 = time.perf_counter()
    check_sigma(args.sigma)  # before building what could not be written
    index = _build_index(data, args.sigma, args.mode, args.engine)
    elapsed = time.perf_counter() - t0
    blob = dump_index(index)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    heavy_count = sum(index.heavy)
    print(f"engine={args.engine} mode={args.mode} sigma={args.sigma} "
          f"leaves={len(index.leaf_order)} nodes={len(index.trie.nodes)} "
          f"s={index.s} heavy={heavy_count} bytes={len(blob)}")
    print(f"build_time={elapsed:.3f}s", file=sys.stderr)
    return 0


def _query_rows(index, patterns: list[list[int]], mode: str):
    rows = []
    for codes in patterns:
        before = GLOBAL.snapshot()
        extra = None
        if mode == "predecessor":
            if not isinstance(index, StaticTrieIndex):
                raise InvalidInputError("predecessor queries need the static engine")
            rank = index.predecessor_query(codes)
            d = GLOBAL.diff(before)
            rows.append({
                "pattern": codes,
                "outcome": "PRED_NONE" if rank is None else "PRED_FOUND",
                "l": rank, "r": rank, "matched_len": None,
                "probes": d, "extra": None,
            })
            continue
        res = (index.prefix_query(codes) if isinstance(index, StaticTrieIndex)
               else index.tray_query(codes))
        d = GLOBAL.diff(before)
        if mode == "count":
            extra = res.occ
        elif mode == "enumerate":
            extra = index.enumerate(res.interval) if res.matched else []
        rows.append({
            "pattern": codes,
            "outcome": res.outcome.value,
            "l": res.interval[0] if res.matched else None,
            "r": res.interval[1] if res.matched else None,
            "matched_len": res.matched_len,
            "probes": d, "extra": extra,
        })
    return rows


def _probes_cell(d: dict) -> str:
    return (f"dict={d['dict_probes']};pred={d['static_pred_queries']};"
            f"chars={d['chars_compared']}")


def _emit_tsv(rows, mode, sigma, out):
    cols = ["pattern", "outcome", "l", "r", "matched_len", "probes"]
    if mode == "count":
        cols.append("count")
    elif mode == "enumerate":
        cols.append("positions")
    print("\t".join(cols), file=out)
    for row in rows:
        cells = [
            _pattern_text(row["pattern"], sigma),
            row["outcome"],
            "-" if row["l"] is None else str(row["l"]),
            "-" if row["r"] is None else str(row["r"]),
            "-" if row["matched_len"] is None else str(row["matched_len"]),
            _probes_cell(row["probes"]),
        ]
        if mode == "count":
            cells.append(str(row["extra"]))
        elif mode == "enumerate":
            # the API yields rank order; the report column sorts positions
            cells.append(",".join(str(p) for p in sorted(row["extra"])))
        print("\t".join(cells), file=out)


def cmd_query(args) -> int:
    blob = _read_file(args.index)
    pattern_data = _read_file(args.patterns)
    index = load_index(blob)
    patterns = [_decode_symbols(line, index.sigma)
                for line in pattern_data.split(b"\n") if line]
    rows = _query_rows(index, patterns, args.mode)
    if args.report == "tsv":
        _emit_tsv(rows, args.mode, index.sigma, sys.stdout)
    else:
        doc = {"mode": args.mode, "sigma": index.sigma, "rows": [
            {**{k: row[k] for k in ("outcome", "l", "r", "matched_len", "extra")},
             "pattern": _pattern_text(row["pattern"], index.sigma),
             "probes": row["probes"]}
            for row in rows]}
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


def cmd_dynamic(args) -> int:
    data = _read_file(args.ops)
    idx = DynTrieIndex(sigma=args.sigma)
    audit_every = args.audit_every
    ops = 0
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        kind, _, rest = line.partition(b" ")
        try:
            codes = _decode_symbols(rest, args.sigma)
            if kind == b"I":
                idx.insert(codes)
                if args.audit_each:
                    idx.audit()
            elif kind == b"Q":
                res = idx.search(codes)
                print(f"Q\t{_pattern_text(codes, args.sigma)}\t{res.outcome.value}"
                      f"\t{res.occ}\t{res.matched_len}")
            elif kind == b"P":
                sid = idx.predecessor(codes)
                word = "-" if sid is None else _pattern_text(idx.string_codes(sid), args.sigma)
                print(f"P\t{_pattern_text(codes, args.sigma)}\t{word}")
            else:
                raise InvalidInputError(f"unknown op {kind!r}")
            ops += 1
            if audit_every and ops % audit_every == 0:
                idx.audit()
        except TriekitError as e:
            e.args = (f"line {lineno}: {e}",)
            raise
        except AssertionError:  # from an audit
            raise VerificationError(f"line {lineno}: verification failed") from None
    return 0


def cmd_prepend_stream(args) -> int:
    codes = _decode_symbols(_read_file(args.text), args.sigma)
    check_codes(codes, args.sigma)
    tree = OnlineSuffixTree(args.sigma)
    for step, a in enumerate(reversed(codes), start=1):
        tree.prepend(a)
        if args.inject_corruption == step:
            tree.root.children.pop(max(tree.root.children))  # test hook
        checkpoint = step % args.check_every == 0
        try:
            if args.audit_each or checkpoint:
                tree.audit_links()
            if checkpoint:
                form = tree.canonical()
                # the prepended letters passed the check, so the text goes in as it is
                fresh = build_engines([[*tree.text_codes(), SENTINEL]], args.sigma, "suffix", ())
                if form != fresh[0].canonical():
                    raise AssertionError("tree differs from a fresh build")
                print(f"step={step} nodes={len(form)} oracle_steps={GLOBAL.oracle_steps}")
        except AssertionError:
            raise VerificationError(f"verification failed at step {step}") from None
    return 0


def _sa_baseline_query(codes: list[int], sa: list[int], pattern: list[int]):
    """Plain suffix-array binary search over `codes`, which ends in SENTINEL,
    the bench baseline."""

    def cmp(pos):
        for k, pc in enumerate(pattern):
            GLOBAL.chars_compared += 1
            tc = codes[pos + k]
            if tc != pc:
                return -1 if tc < pc else 1
        return 0

    lo, hi = 0, len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        if cmp(sa[mid]) < 0:
            lo = mid + 1
        else:
            hi = mid
    left = lo
    hi = len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        if cmp(sa[mid]) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return (left, lo - 1) if lo > left else None


def _bench_patterns(rng, text_codes, sigma, count):
    pats = []
    n = len(text_codes)
    for _ in range(count):
        r = rng.random()
        if r < 0.5 and n:
            i = rng.randrange(n)
            j = rng.randrange(i, min(n, i + 16) + 1)
            pats.append(list(text_codes[i:j]))
        elif r < 0.8 and n:
            i = rng.randrange(n)
            j = rng.randrange(i, min(n, i + 10) + 1)
            pats.append(list(text_codes[i:j]) + [rng.randint(1, sigma)])
        else:
            pats.append([rng.randint(1, sigma) for _ in range(rng.randrange(0, 9))])
    return pats


def cmd_bench(args) -> int:
    import math
    import random

    engines = args.engines.split(",")
    for e in engines:
        if e not in ("static", "tray", "dynamic", "sa"):
            raise InvalidInputError(f"unknown engine {e!r}")
    if args.n <= 0 or args.queries < 0:
        raise InvalidInputError("parameters must be positive")
    words = max(1, args.n // 8)  # distinct 8-letter words the dynamic engine inserts
    if "dynamic" in engines and words > args.sigma ** 8:
        raise InvalidInputError(f"--n {args.n} asks for {words} distinct 8-letter words, "
                                f"but sigma={args.sigma} has only {args.sigma ** 8}")
    rng = random.Random(args.seed)
    text_codes = [rng.randint(1, args.sigma) for _ in range(args.n)]
    patterns = _bench_patterns(random.Random(args.seed + 1), text_codes,
                               args.sigma, args.queries)
    # static, tray and the sa baseline, which reads its suffix array, share one build
    tries = [e for e in ("static", "tray") if e in engines]
    if "sa" in engines and not tries:
        tries = ["static"]
    t0 = time.perf_counter()
    built = dict(zip(tries, build_index(text_codes, args.sigma, "suffix", tries) if tries else ()))
    shared_t = time.perf_counter() - t0
    lglg = max(1, math.ceil(math.log2(max(2, math.log2(max(args.sigma, 4))))))
    print(f"bench n={args.n} sigma={args.sigma} queries={args.queries} seed={args.seed}")
    probes = {}
    for engine in engines:
        GLOBAL.reset()
        t0 = time.perf_counter()
        checksum = 0
        build_t = shared_t
        if engine == "sa":
            base = built[tries[0]]
            for p in patterns:
                hit = _sa_baseline_query(base.trie.sources[0], base.leaf_order, p)
                checksum = (checksum * 31 + (hit[1] - hit[0] + 1 if hit else 0)) % (1 << 61)
        elif engine == "dynamic":
            idx = DynTrieIndex(sigma=args.sigma)
            wrng = random.Random(args.seed + 2)
            inserted = 0
            while inserted < words:
                w = [wrng.randint(1, args.sigma) for _ in range(8)]
                try:
                    idx.insert(w)
                    inserted += 1
                except DuplicateKeyError:
                    pass
            build_t = time.perf_counter() - t0
            t0 = time.perf_counter()
            for p in patterns:
                res = idx.search(p)
                checksum = (checksum * 31 + res.occ) % (1 << 61)
        else:
            idx = built[engine]
            for p in patterns:
                res = idx.prefix_query(p) if engine == "static" else idx.tray_query(p)
                checksum = (checksum * 31 + res.occ) % (1 << 61)
        query_t = time.perf_counter() - t0
        snap = GLOBAL.snapshot()
        probes[engine] = snap
        counters = " ".join(f"{k}={v}" for k, v in sorted(snap.items()) if v)
        print(f"engine={engine} checksum={checksum} {counters}".rstrip())
        if engine == "static":  # a prefix query makes no static-predecessor query
            before = GLOBAL.snapshot()
            for p in patterns:
                idx.predecessor_query(p)
            pred_probes = GLOBAL.diff(before)["static_pred_probes"]
        if engine == "dynamic":
            steps = snap["promote_steps"] + snap["rebalance_steps"]
            denom = max(1, inserted) * lglg
            print(f"engine=dynamic amortized_steps={steps} "
                  f"per_insert_lglg={steps / denom:.2f} budget_c=64")
        print(f"engine={engine} build_time={build_t:.3f}s query_time={query_t:.3f}s",
              file=sys.stderr)
    if "static" in probes and "tray" in probes:
        tray_steps = probes["tray"]["tray_bsearch_steps"]
        print(f"static_pred_probes<=tray_bsearch_steps: {pred_probes}<={tray_steps} "
              f"{'pass' if pred_probes <= tray_steps else 'FAIL'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="triekit",
                                 description="deterministic compacted-trie indexing")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and serialize a static index")
    b.add_argument("--input", required=True,
                   help="the text (suffix mode), or one string per line (strings mode, "
                        "which drops blank and repeated lines, so it cannot index the "
                        "empty string)")
    b.add_argument("--sigma", type=int, default=256)
    b.add_argument("--mode", choices=["suffix", "strings"], default="suffix")
    b.add_argument("--engine", choices=["static", "tray"], default="static")
    b.add_argument("--output", required=True)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="run a pattern batch against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--patterns", required=True)
    q.add_argument("--mode", choices=["prefix", "predecessor", "count", "enumerate"],
                   default="prefix")
    q.add_argument("--report", choices=["tsv", "json"], default="tsv")
    q.set_defaults(fn=cmd_query)

    d = sub.add_parser("dynamic", help="drive a dynamic-trie op stream")
    d.add_argument("--ops", required=True)
    d.add_argument("--sigma", type=int, default=256)
    d.add_argument("--audit-every", type=int, default=0)
    d.set_defaults(fn=cmd_dynamic)

    p = sub.add_parser("prepend-stream", help="prepend a text letter by letter")
    p.add_argument("--text", required=True)
    p.add_argument("--sigma", type=int, default=256)
    p.add_argument("--check-every", type=int, default=100)
    p.add_argument("--inject-corruption", type=int, default=0, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_prepend_stream)

    e = sub.add_parser("bench", help="deterministic benchmark report")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--sigma", type=int, required=True)
    e.add_argument("--engines", default="static,tray")
    e.add_argument("--queries", type=int, default=1000)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    args.audit_each = os.environ.get("TRIEKIT_AUDIT") == "1"
    try:
        for flag, low in (("sigma", 1), ("check_every", 1), ("audit_every", 0)):
            value = getattr(args, flag, low)
            if value < low:
                raise InvalidInputError(
                    f"--{flag.replace('_', '-')} must be at least {low}, got {value}")
        return args.fn(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
