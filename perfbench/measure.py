"""One benchmark run: set-up, a counting round, the timed rounds, metrics.

A run is a closed loop with one caller on one thread: each operation starts
when the previous one has returned.  Set-up generates the inputs and builds,
dumps and loads the static index; it is repeated and its median reported.
A round runs every batch once in sequence: the static prefix and predecessor
batches, the tray batch, the dynamic stream on a fresh DynTrieIndex and a
prepend pass on a fresh OnlineSuffixTree, and takes the exact counter diffs
of each batch.  The first round counts and warms up; timed rounds repeat it
until the run length is used up.  Every answer is checked, outside the
timed call.

Times are reported at reference speed.  The host this was written on drifts
in speed by 20-40 % over tens of seconds, with no steal time visible to the
guest, so raw timings of identical runs spread too far to bound a change.
A fixed reference loop therefore runs between chunks of a timed round and
between set-up steps, and each time is scaled by REF_NS over the reference
times taken around it.  The raw times go to the run's context line.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import time
import traceback
from statistics import median

from triekit import dynamic_index, sa, serialize, static_index, suffix_oracle, text
from triekit.cli import suffix_leaf_order
from triekit.instrument import GLOBAL

import workloads
from spans import Tracer

SETUPS = 5
CHUNK_NS = 2_000_000  # a timed round takes a reference time about this often
REF_NS = 400_000      # nominal reference time: latencies are reported at this speed
FAILED = object()    # stands in for the result of an operation that raised
STREAM_KIND = {"insert": "insert", "search": "search", "pred": "predecessor"}
PHASE = {"prefix": "static_prefix", "pred": "static_pred", "tray": "tray_prefix",
         "insert": "insert", "search": "search", "predecessor": "predecessor",
         "prepend": "prepend"}
STATIC_PHASES = ("static_prefix", "static_pred")
# per-op counter diffs whose maximum a traced round records
STEP_COUNTERS = {"insert": ("promote_steps", "rebalance_steps"), "prepend": ("oracle_steps",)}


class Built:
    """What one set-up hands to the timed phase."""

    def __init__(self, inputs, sa_index, trie, static, tray, loaded, blob_len):
        self.inputs = inputs
        self.sa_index = sa_index
        self.trie = trie
        self.static = static
        self.tray = tray
        self.loaded = loaded
        self.blob_len = blob_len


class Steps:
    """Times consecutive steps.  Each step's time is also scaled to
    reference speed by the reference times taken just before and after it."""

    def __init__(self):
        self.raw = {}
        self.scaled = {}
        self._ref = reference_sample()
        self.refs = [self._ref]
        self._t = time.perf_counter()

    def lap(self, name):
        took = time.perf_counter() - self._t
        ref = reference_sample()
        self.refs.append(ref)
        self.raw[name] = took
        self.scaled[name] = took * 2 * REF_NS / (self._ref + ref)
        self._ref = ref
        self._t = time.perf_counter()


def set_up(spec, seed, tracer):
    """Generate inputs, build static and tray, dump and load the static index.
    Returns what was built and the Steps that timed it.

    The cyclic garbage collector stays on, as in the program.  Every set-up
    starts from the same heap state: the collector has just run and what
    the harness holds is frozen, so the collections inside set-up walk only
    what set-up itself allocates."""
    gc.collect()
    gc.freeze()
    steps = Steps()
    inputs = workloads.generate(spec, seed)
    steps.lap("inputs")
    tracer.phase = "build"
    if spec.mode == "suffix":
        txt = text.Text(inputs.text)
        sa_index = sa.build_suffix_array(txt)
        trie = sa.build_suffix_tree(sa_index, txt)
        order = suffix_leaf_order(trie)
    else:
        sa_index = None
        trie, order = text.build_string_trie([text.Text(w) for w in inputs.words])
    static = static_index.StaticTrieIndex(trie, order, spec.sigma, spec.mode)
    steps.lap("build")
    tracer.phase = "tray_build"
    tray = static_index.SuffixTrayIndex(trie, order, spec.sigma, spec.mode)
    steps.lap("tray")
    tracer.phase = "dump"
    blob = serialize.dump_index(static)
    steps.lap("dump")
    tracer.phase = "load"
    loaded = serialize.load_index(blob)
    steps.lap("load")
    return Built(inputs, sa_index, trie, static, tray, loaded, len(blob)), steps


# ---------------------------------------------------------------- checking

def trie_signature(trie):
    """Preorder (string depth, leaf id, child count), children by first char."""
    depth = trie.string_depths()
    out = []
    stack = [trie.ROOT]
    while stack:
        v = stack.pop()
        nd = trie.nodes[v]
        out.append((depth[v], nd.leaf_id, len(nd.children)))
        stack.extend(ch for _, ch in sorted(nd.children.items(), reverse=True))
    return out


def online_signature(tree):
    """trie_signature of an OnlineSuffixTree; its leaf ids count from the
    right end, so they are turned into start positions."""
    out = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        out.append((v.sdepth, tree.n - v.leaf_id if v.is_leaf else -1, len(v.children)))
        stack.extend(ch for _, ch in sorted(v.children.items(), reverse=True))
    return out


class Expected:
    """Answers every checked operation must give, from the workloads oracles."""

    def __init__(self, built):
        inp = built.inputs
        spec = inp.spec
        self.index_ok = True
        if spec.mode == "suffix":
            self.index_ok = workloads.check_suffix_array(inp.text, built.sa_index.sa)
            pairs = workloads.suffix_answers(inp.text, built.sa_index.sa, inp.patterns)
            self.intervals = [iv for iv, _ in pairs]
            self.preds = [rank for _, rank in pairs]
        else:
            final = workloads.SortedSet(spec.sigma)
            for sid, w in enumerate(inp.words):
                final.add(w, sid)
            self.intervals = [final.interval(p) for p in inp.patterns]
            self.preds = [final.pred_id(p) for p in inp.patterns]
        self.stream, final_dyn = workloads.stream_answers(spec.sigma, inp.stream)
        self.final_occ = [final_dyn.occ(p) for p in inp.patterns]
        self.final_pred = [final_dyn.pred_id(p) for p in inp.patterns]
        if inp.prepend_text == inp.text:
            offline = built.trie
        else:
            txt = text.Text(inp.prepend_text)
            offline = sa.build_suffix_tree(sa.build_suffix_array(txt), txt)
        self.prepend_signature = trie_signature(offline)


def counter_diff(before):
    """GLOBAL's change since `before`, without dict_cell_probes, which no
    structure increments."""
    diff = GLOBAL.diff(before)
    del diff["dict_cell_probes"]
    return diff


def _interval(res):
    return getattr(res, "interval", FAILED)


def _occ(res):
    return getattr(res, "occ", FAILED)


_REF_TABLE = {i: [i, i * 7 % 1000, str(i)] for i in range(1024)}


def reference_ns(clock=time.perf_counter_ns):
    """Nanoseconds a fixed piece of interpreted work takes (dict and list
    lookups, integer arithmetic, comparisons): the machine's current speed."""
    t0 = clock()
    acc = 0
    table = _REF_TABLE
    for i in range(3000):
        row = table[i & 1023]
        if row[1] < 500:
            acc += row[0]
        else:
            acc ^= len(row[2])
    return clock() - t0


def reference_sample():
    return median(reference_ns() for _ in range(3))


def _call(fn, arg, clock=time.perf_counter_ns):
    """fn(arg) and its latency in ns; FAILED and None if it raised."""
    t0 = clock()
    try:
        r = fn(arg)
    except Exception:   # a raising operation is a failed operation
        traceback.print_exc()
        return FAILED, None
    return r, clock() - t0


# ------------------------------------------------------------------ rounds

class Runner:
    """Runs operations against one set-up and accumulates what they measure."""

    KINDS = ("prefix", "pred", "tray", "insert", "search", "predecessor", "prepend")

    def __init__(self, built, expected, tracer):
        self.b = built
        self.exp = expected
        self.tracer = tracer
        self.attempted = 1   # the suffix array check
        self.failed = 0 if expected.index_ok else 1
        self.steps_max = {kind: 0 for kind in STEP_COUNTERS}
        self.rounds = 0
        self.round_refs = []   # each timed round's median reference time, ns
        spec = built.inputs.spec
        order = built.static.leaf_order
        if spec.mode == "suffix":
            pred_id = lambda r: r
        else:
            pred_id = lambda r: order[r] if isinstance(r, int) else r
        self.answer = {"prefix": _interval, "pred": pred_id, "tray": _interval,
                       "search": _occ}

    def _expect(self, got, want):
        self.attempted += 1
        if got is FAILED or got != want:
            self.failed += 1

    def same_counts(self, got, counts):
        """One more check: a round's counter diffs must repeat exactly."""
        self.attempted += 1
        if got != counts:
            print("error: counts differ between rounds or under tracing", file=sys.stderr)
            self.failed += 1

    def round(self, lat=None, traced=False):
        """Every batch once, in sequence; returns the exact counter diffs of
        each batch.  With `lat`, each operation's latency at reference speed
        is appended to lat[kind].  With `traced`, per-op counter diffs of
        inserts and prepends update the steps maxima."""
        b, exp = self.b, self.exp
        inp = b.inputs
        pats = inp.patterns
        first = self.rounds == 0
        self.rounds += 1
        clock = Clock(lat) if lat is not None else None
        run = lambda parts: self._batch(parts, clock, traced, labelled=True)
        counts = {}

        before = GLOBAL.snapshot()
        run([("prefix", b.static.prefix_query, pats, exp.intervals),
             ("pred", b.static.predecessor_query, pats, exp.preds)])
        counts["static"] = counter_diff(before)
        before = GLOBAL.snapshot()
        run([("tray", b.tray.tray_query, pats, exp.intervals)])
        counts["tray"] = counter_diff(before)
        if first:   # the loaded index must answer like the built one
            self._batch([("prefix", b.loaded.prefix_query, pats, exp.intervals),
                         ("pred", b.loaded.predecessor_query, pats, exp.preds)])

        dyn = dynamic_index.DynTrieIndex(inp.spec.sigma)
        fns = {"insert": dyn.insert, "search": dyn.search, "pred": dyn.predecessor}
        before = GLOBAL.snapshot()
        run([(STREAM_KIND[kind], fns[kind], [codes], [want])
             for (kind, codes), want in zip(inp.stream, exp.stream)])
        counts["stream"] = counter_diff(before)
        if first:   # after the stream: the final batch against the final set
            self._batch([("search", dyn.search, pats, exp.final_occ),
                         ("predecessor", dyn.predecessor, pats, exp.final_pred)])

        tree = suffix_oracle.OnlineSuffixTree(inp.spec.sigma)
        letters = inp.prepend_text[::-1]
        before = GLOBAL.snapshot()
        run([("prepend", tree.prepend, letters, None)])
        counts["prepend"] = counter_diff(before)
        # a pass of n prepends is right iff the tree matches the offline one
        self.attempted += len(letters)
        if tree.n != len(letters) or online_signature(tree) != exp.prepend_signature:
            self.failed += len(letters)

        self.tracer.phase = None
        if clock is not None:
            clock.scale()
            self.round_refs.append(median(clock.refs))
        del run, dyn, fns, tree
        gc.collect()   # outside the timed calls: the round's structures hold cycles
        return counts

    def _batch(self, parts, clock=None, traced=False, labelled=False):
        """Runs each (kind, fn, args, wants) part in order, one call per arg,
        and checks each answer against its want; parts without wants are
        checked by the caller.  Only round batches set the tracer's phase,
        so the extra checks of the first round stay out of every layer."""
        tracer = self.tracer
        for kind, fn, args, wants in parts:
            tracer.phase = PHASE[kind] if labelled else None
            answer = self.answer.get(kind)
            counters = STEP_COUNTERS.get(kind) if traced else None
            for i, arg in enumerate(args):
                if counters:
                    steps = sum(getattr(GLOBAL, c) for c in counters)
                r, ns = _call(fn, arg)
                if counters:
                    steps = sum(getattr(GLOBAL, c) for c in counters) - steps
                    self.steps_max[kind] = max(self.steps_max[kind], steps)
                if wants is not None:
                    self._expect(answer(r) if answer else r, wants[i])
                if clock is not None:
                    clock.record(kind, ns)

    def timed(self, seconds, counts):
        """Timed rounds until `seconds` have passed; each must reproduce
        `counts`.  Returns every kind's latencies at reference speed, pooled
        over the rounds."""
        lat = {kind: [] for kind in self.KINDS}
        deadline = time.perf_counter() + seconds
        while not self.round_refs or time.perf_counter() < deadline:
            self.same_counts(self.round(lat), counts)
        return lat


class Clock:
    """Scales a timed round's latencies to reference speed.  It takes a
    reference time about every CHUNK_NS and scales the latencies recorded
    since the previous one by REF_NS over the mean of the two."""

    def __init__(self, lat):
        self.lat = lat
        self.refs = [reference_ns()]
        self.pending = []   # (kind, ns) not yet scaled
        self._due = time.perf_counter_ns() + CHUNK_NS

    def record(self, kind, ns):
        if ns is not None:
            self.pending.append((kind, ns))
        if time.perf_counter_ns() >= self._due:
            self.scale()

    def scale(self):
        self.refs.append(reference_ns())
        factor = 2 * REF_NS / (self.refs[-2] + self.refs[-1])
        for kind, ns in self.pending:
            self.lat[kind].append(ns * factor)
        self.pending = []
        self._due = time.perf_counter_ns() + CHUNK_NS


# ----------------------------------------------------------------- metrics

def percentile(values, q):
    """Nearest-rank percentile of an already sorted list."""
    return values[max(1, math.ceil(q / 100 * len(values))) - 1]


LATENCY_NAMES = {"prefix": "prefix_us", "pred": "pred_us", "tray": "tray_prefix_us",
                 "insert": "insert_us", "search": "dyn_search_us",
                 "predecessor": "dyn_pred_us", "prepend": "prepend_us"}
WITH_P99 = {"prefix", "pred", "insert", "prepend"}
UNITS = {"setup_s": "s", "index_bytes_per_symbol": "B", "peak_rss_mb": "MB"}


def latency_metrics(lat):
    """p50 (and p99 where named) of each kind, in us at reference speed."""
    out = {}
    for kind, name in LATENCY_NAMES.items():
        vals = sorted(lat[kind])
        out[f"{name}_p50"] = percentile(vals, 50) / 1e3
        if kind in WITH_P99:
            # p99 is reported only with at least ten samples beyond it
            if len(vals) - math.ceil(0.99 * len(vals)) < 10:
                raise RuntimeError(f"too few {kind} samples for p99: {len(vals)}")
            out[f"{name}_p99"] = percentile(vals, 99) / 1e3
    return out


def settle():
    """Exempt everything built so far from garbage collection.  The harness
    keeps several engines and all expected answers alive at once, which no
    single user of one engine would; without this every full collection in
    a timed call would traverse them all."""
    gc.collect()
    gc.freeze()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def noise_floor_ns(refs):
    """Fastest and slowest reference time the run saw: the host's speed range."""
    return [min(refs), max(refs)]


def run_plain(spec, seed, seconds):
    """End-to-end metrics, measured with tracing off.  Set-up times are the
    median over the set-ups, and like the latencies at reference speed."""
    tracer = Tracer()   # never installed: only its phase label is set
    setups = []
    built = None
    for _ in range(SETUPS):
        built = None   # free the previous set-up before building the next
        built, steps = set_up(spec, seed, tracer)
        setups.append(steps)
    runner = Runner(built, Expected(built), tracer)
    settle()
    counts = runner.round()   # counts, checks, and warms up before timing
    lat = runner.timed(seconds, counts)
    metrics = {
        "setup_s": median(sum(s.scaled.values()) for s in setups),
        "index_bytes_per_symbol": built.blob_len / built.inputs.symbols,
    }
    metrics.update(latency_metrics(lat))
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: {"value": value, "unit": UNITS.get(name, "us_ref")}
               for name, value in metrics.items()}
    refs = runner.round_refs + [r for s in setups for r in s.refs]
    context = {"setups_raw_s": [s.raw for s in setups], "round_ref_ns": runner.round_refs,
               "ref_ns": REF_NS, "noise_floor_ns": noise_floor_ns(refs), "counts": counts,
               "samples": {kind: len(vals) for kind, vals in lat.items()}}
    return runner, metrics, context


def run_traced(spec, seed, seconds):
    """Per-layer metrics: rounds alternate plain and traced, so the traced
    run also measures its own overhead and checks that tracing leaves every
    count unchanged."""
    tracer = Tracer()
    built, steps = set_up(spec, seed, tracer)
    plain_time = sum(steps.scaled.values())
    whole = {"build_s": (steps.scaled["build"], "s"), "load_s": (steps.scaled["load"], "s")}
    refs = steps.refs
    built = None
    with tracer:
        built, steps = set_up(spec, seed, tracer)
    traced_time = sum(steps.scaled.values())
    refs += steps.refs
    runner = Runner(built, Expected(built), tracer)
    settle()
    counts = runner.round()   # the first round also checks the loaded index
    deadline = time.perf_counter() + seconds
    traced_rounds = 0
    while traced_rounds == 0 or time.perf_counter() < deadline:
        steps = Steps()
        runner.same_counts(runner.round(), counts)
        steps.lap("plain")
        with tracer:
            runner.same_counts(runner.round(traced=True), counts)
        steps.lap("traced")
        plain_time += steps.scaled["plain"]
        traced_time += steps.scaled["traced"]
        refs += steps.refs
        traced_rounds += 1
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in whole.items()}
    metrics.update(layer_metrics(runner, tracer, counts, traced_rounds,
                                 100 * (traced_time / plain_time - 1)))
    return runner, metrics, {"counts": counts, "noise_floor_ns": noise_floor_ns(refs)}


def layer_metrics(runner, tr, counts, rounds, overhead_pct):
    inp = runner.b.inputs
    n_pat = len(inp.patterns)
    kinds = [kind for kind, _ in inp.stream]
    n_ins = kinds.count("insert")
    n_search = kinds.count("search")
    n_pre = len(inp.prepend_text)
    build = {"build"}
    static = set(STATIC_PHASES)
    queries = {"StaticTrieIndex.prefix_query", "StaticTrieIndex.predecessor_query"}
    # span totals cover every traced round; counter diffs cover one round
    per_query_us = 1e6 / (2 * n_pat * rounds)
    per_insert_us = 1e6 / (n_ins * rounds)
    per_search_us = 1e6 / (n_search * rounds)
    st = counts["static"]
    stream = counts["stream"]
    m = {
        "sa.suffix_array_s": (tr.own_s(build, "sa.build_suffix_array"), "s"),
        "sa.suffix_tree_s": (tr.own_s(build, "sa.build_suffix_tree"), "s"),
        "text.string_trie_s": (
            tr.own_s(build, "text.build_string_trie")
            + tr.own_s(build, "CompactedTrie.insert_path", {"text.build_string_trie"}), "s"),
        "text.insert_path_us": (
            tr.own_s({"insert"}, "CompactedTrie.insert_path") * per_insert_us, "us/insert"),
        "predkit.dict_builds": (tr.calls(build, "DetDictionary.__init__"), "count"),
        "predkit.dict_build_s": (tr.own_s(build, "DetDictionary.__init__"), "s"),
        "predkit.dict_lookups_per_query": (st["dict_probes"] / (2 * n_pat), "count/query"),
        "predkit.dict_lookup_us": (
            tr.own_s(static, "DetDictionary.lookup", queries) * per_query_us, "us/query"),
        "predkit.static_pred_builds": (tr.calls(build, "StaticPredecessor.__init__"), "count"),
        "predkit.static_pred_build_s": (
            tr.own_s(build, "StaticPredecessor.__init__")
            + tr.own_s(build, "DetDictionary.__init__", {"StaticPredecessor.__init__"}), "s"),
        "predkit.static_pred_queries_per_query": (
            st["static_pred_queries"] / (2 * n_pat), "count/query"),
        "predkit.static_pred_probes_per_query": (
            st["static_pred_probes"] / (2 * n_pat), "count/query"),
        "predkit.static_pred_query_us": (
            (tr.own_s(static, "StaticPredecessor.query")
             + tr.own_s(static, "DetDictionary.lookup", {"StaticPredecessor.query"}))
            * per_query_us, "us/query"),
        "predkit.dyn_pred_calls_per_search": (
            stream["dyn_pred_probes"] / n_search, "count/search"),
        "predkit.dict_builds_per_insert": (
            tr.calls({"insert"}, "DetDictionary.__init__") / (n_ins * rounds), "count/insert"),
        "predkit.dict_build_us_per_insert": (
            tr.own_s({"insert"}, "DetDictionary.__init__") * per_insert_us, "us/insert"),
        "static_index.payload_s": (tr.own_s(build, "StaticTrieIndex.__init__"), "s"),
        "static_index.tray_payload_s": (
            tr.own_s({"tray_build"}, "SuffixTrayIndex.__init__"), "s"),
        "static_index.prefix_self_us": (
            tr.own_s({"static_prefix"}, "StaticTrieIndex.prefix_query") * 2 * per_query_us,
            "us/query"),
        "static_index.pred_self_us": (
            tr.own_s({"static_pred"}, "StaticTrieIndex.predecessor_query") * 2 * per_query_us,
            "us/query"),
        "static_index.chars_compared_per_query": (
            st["chars_compared"] / (2 * n_pat), "count/query"),
        "static_index.tray_self_us": (
            tr.own_s({"tray_prefix"}, "SuffixTrayIndex.tray_query") * 2 * per_query_us,
            "us/query"),
        "static_index.tray_bsearch_steps_per_query": (
            counts["tray"]["tray_bsearch_steps"] / n_pat, "count/query"),
        "serialize.dump_s": (tr.own_s({"dump"}, "serialize.dump_index"), "s"),
        "serialize.parse_s": (tr.own_s({"load"}, "serialize.load_index"), "s"),
        "wexp.inserts_per_insert": (
            tr.calls({"insert"}, "WexpTree.insert") / (n_ins * rounds), "count/insert"),
        "wexp.increases_per_insert": (
            tr.calls({"insert"}, "WexpTree.increase") / (n_ins * rounds), "count/insert"),
        "wexp.splits_per_insert": (stream["splits"] / n_ins, "count/insert"),
        "wexp.update_us_per_insert": (
            (tr.own_s({"insert"}, "WexpTree.insert") + tr.own_s({"insert"}, "WexpTree.increase"))
            * per_insert_us, "us/insert"),
        "wexp.levels_per_search": (stream["wexp_levels_descended"] / n_search, "count/search"),
        "wexp.pred_us_per_search": (
            tr.own_s({"search"}, "WexpTree.pred") * per_search_us, "us/search"),
        "dynamic_index.insert_self_us": (
            tr.own_s({"insert"}, "DynTrieIndex.insert") * per_insert_us, "us/insert"),
        "dynamic_index.promotions_per_insert": (stream["promotions"] / n_ins, "count/insert"),
        "dynamic_index.promote_steps_per_insert": (
            stream["promote_steps"] / n_ins, "count/insert"),
        "dynamic_index.rebalance_steps_per_insert": (
            stream["rebalance_steps"] / n_ins, "count/insert"),
        "dynamic_index.steps_max_per_insert": (runner.steps_max["insert"], "count/insert"),
        "dynamic_index.search_self_us": (
            tr.own_s({"search"}, "DynTrieIndex.search") * per_search_us, "us/search"),
        "dynamic_index.pred_self_us": (
            tr.own_s({"predecessor"}, "DynTrieIndex.predecessor")
            * 1e6 / (kinds.count("pred") * rounds), "us/pred"),
        "suffix_oracle.prepend_self_us": (
            tr.own_s({"prepend"}, "OnlineSuffixTree.prepend") * 1e6 / (n_pre * rounds),
            "us/prepend"),
        "suffix_oracle.oracle_steps_per_prepend": (
            counts["prepend"]["oracle_steps"] / n_pre, "count/prepend"),
        "suffix_oracle.oracle_steps_max_per_prepend": (
            runner.steps_max["prepend"], "count/prepend"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
