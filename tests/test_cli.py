import io
import json
import random
import re
import struct
import sys
import time

import pytest

from triekit import cli, sa, static_index
from triekit.errors import (AlphabetOverflowError, CorruptTrieError, DuplicateKeyError,
                            InvalidInputError, TriekitError)
from triekit.cli import main
from triekit.dynamic_index import DynTrieIndex
from triekit.serialize import VersionMismatchError, dump_index, load_index
from triekit.static_index import build_index
from triekit.text import build_sorted_trie


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def banana_index(tmp_path, capsys):
    text = tmp_path / "text.bin"
    text.write_bytes(b"banana")
    idx = tmp_path / "banana.tkix"
    code, out, _ = run_cli(["build", "--input", str(text), "--sigma", "256",
                            "--mode", "suffix", "--engine", "static",
                            "--output", str(idx)], capsys)
    assert code == 0 and "leaves=7" in out
    return idx


def test_build_and_query_tsv(banana_index, tmp_path, capsys):
    pats = tmp_path / "pats.txt"
    pats.write_bytes(b"ana\nnax\n")
    code, out, _ = run_cli(["query", "--index", str(banana_index),
                            "--patterns", str(pats)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["pattern", "outcome", "l", "r", "matched_len", "probes"]
    ana = lines[1].split("\t")
    assert ana[0] == "ana" and ana[1].startswith("MATCHED") and ana[2:5] == ["2", "3", "3"]
    nax = lines[2].split("\t")
    assert nax[1] == "NOT_FOUND" and nax[2:5] == ["-", "-", "2"]


def test_query_enumerate_column(banana_index, tmp_path, capsys):
    pats = tmp_path / "pats.txt"
    pats.write_bytes(b"ana\n")
    code, out, _ = run_cli(["query", "--index", str(banana_index),
                            "--patterns", str(pats), "--mode", "enumerate"], capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split("\t")
    assert row[-1] == "1,3"


def test_query_empty_pattern_file(banana_index, tmp_path, capsys):
    pats = tmp_path / "empty.txt"
    pats.write_bytes(b"")
    code, out, _ = run_cli(["query", "--index", str(banana_index),
                            "--patterns", str(pats)], capsys)
    assert code == 0
    assert out.strip().split("\n") == ["pattern\toutcome\tl\tr\tmatched_len\tprobes"]


def test_query_json(banana_index, tmp_path, capsys):
    pats = tmp_path / "pats.txt"
    pats.write_bytes(b"ana\n")
    code, out, _ = run_cli(["query", "--index", str(banana_index),
                            "--patterns", str(pats), "--report", "json"], capsys)
    doc = json.loads(out)
    assert doc["rows"][0]["l"] == 2 and doc["rows"][0]["r"] == 3


def test_query_count_column(banana_index, tmp_path, capsys):
    pats = tmp_path / "pats.txt"
    pats.write_bytes(b"a\nan\nnab\n")
    argv = ["query", "--index", str(banana_index), "--patterns", str(pats), "--mode", "count"]
    code, out, _ = run_cli(argv, capsys)
    lines = out.strip().split("\n")
    assert code == 0 and lines[0].split("\t")[-1] == "count"
    assert [(row.split("\t")[0], row.split("\t")[-1]) for row in lines[1:]] == [
        ("a", "3"), ("an", "2"), ("nab", "0")]
    code, out, _ = run_cli(argv + ["--report", "json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["mode"] == "count"
    assert [(row["pattern"], row["extra"]) for row in doc["rows"]] == [
        ("a", 3), ("an", 2), ("nab", 0)]


def test_version_mismatch_exit_code(banana_index, tmp_path, capsys):
    blob = bytearray(banana_index.read_bytes())
    blob[4] = 99  # bump the version field
    bad = tmp_path / "bad.tkix"
    bad.write_bytes(bytes(blob))
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"a\n")
    code, _, err = run_cli(["query", "--index", str(bad), "--patterns", str(pats)], capsys)
    assert code == 4 and "version" in err


def test_truncated_index_exits_5(banana_index, tmp_path, capsys):
    # every proper prefix of a valid index, the empty file included
    blob = banana_index.read_bytes()
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"a\n")
    bad = tmp_path / "cut.tkix"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        code, out, err = run_cli(["query", "--index", str(bad), "--patterns", str(pats)],
                                 capsys)
        assert (code, out) == (5, ""), cut
        assert err.startswith("error: ") and err.count("\n") == 1, (cut, err)


def _query_fails_cleanly(blob, tmp_path, capsys, patterns=b"a\n"):
    """Query a damaged index file: exit 5, one error line, no report."""
    bad = tmp_path / "bad.tkix"
    bad.write_bytes(blob)
    pats = tmp_path / "p.txt"
    pats.write_bytes(patterns)
    code, out, err = run_cli(["query", "--index", str(bad), "--patterns", str(pats)], capsys)
    assert (code, out) == (5, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("corrupt", ["text_code"])
def test_corrupted_index_exits_5(corrupt, banana_index, tmp_path, capsys):
    # dump_index seals each file with a valid CRC.  A file stores only its
    # text, so "banana" stored as "bananb" loads as the index of "bananb";
    # a code outside [1, sigma] fails the alphabet check and exits 5
    idx = load_index(banana_index.read_bytes())
    idx.trie.sources[0][-2] += 1  # the last code before the sentinel
    bad = tmp_path / "bananb.tkix"
    bad.write_bytes(dump_index(idx))
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"a\nan\nnab\nb\n")
    fresh = tmp_path / "bananb.bin"
    fresh.write_bytes(b"bananb")
    fresh_idx = tmp_path / "fresh.tkix"
    assert run_cli(["build", "--input", str(fresh), "--output", str(fresh_idx)], capsys)[0] == 0
    reports = [run_cli(["query", "--index", str(f), "--patterns", str(pats), "--mode", "count"],
                       capsys) for f in (bad, fresh_idx)]
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert "\nnab\t" in reports[0][1]
    idx.trie.sources[0][-2] = 257  # above sigma = 256
    err = _query_fails_cleanly(dump_index(idx), tmp_path, capsys)
    assert "text code" in err


def test_string_stored_twice_exits_5(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_bytes(b"ant\nbee\ncow\n")
    path = tmp_path / "w.tkix"
    code, _, _ = run_cli(["build", "--input", str(words), "--mode", "strings",
                          "--output", str(path)], capsys)
    assert code == 0
    idx = load_index(path.read_bytes())
    idx.trie.sources[2] = list(idx.trie.sources[0])  # "ant" twice
    err = _query_fails_cleanly(dump_index(idx), tmp_path, capsys)
    assert "stored twice" in err


def _suffix_static(codes, sigma):
    return build_index(codes, sigma, "suffix")[0]


@pytest.mark.parametrize("sigma", [4, 2**16])
def test_resealed_suffix_array_and_code_mutations(sigma, tmp_path, capsys):
    # 100 files per text, each sealed with a valid CRC and one text code
    # changed.  A file stores only its text, so each loads only as the index
    # of the text it stores, or exits 5 where the header's node count is
    # not that of the text's trie
    rng = random.Random(sigma)
    codes = [rng.randint(1, sigma) for _ in range(300)]
    blob = dump_index(_suffix_static(codes, sigma))
    patterns = b"\x00\x01\n" if sigma <= 256 else b"1 2\n"
    loaded_codes = 0
    for _ in range(100):
        idx = load_index(blob)
        stored = idx.trie.sources[0]
        i = rng.randrange(len(stored) - 1)  # not the sentinel
        c = rng.randint(1, sigma - 1)  # any code but the stored one
        stored[i] = c if c < stored[i] else c + 1
        bad = dump_index(idx)
        try:
            loaded = load_index(bad)
        except InvalidInputError as e:
            assert "node count" in str(e)
            _query_fails_cleanly(bad, tmp_path, capsys, patterns)
            continue
        loaded_codes += 1
        stored = stored[:-1]  # the text the file stores
        fresh = _suffix_static(stored, sigma)
        pats = [stored[k:k + rng.randrange(0, 8)] + [rng.randint(1, sigma)]
                for k in (rng.randrange(len(stored)) for _ in range(50))]
        for p in pats + [stored[k:k + 6] for k in range(0, len(stored), 20)]:
            assert loaded.prefix_query(p) == fresh.prefix_query(p), p
            assert loaded.predecessor_query(p) == fresh.predecessor_query(p), p
    assert 0 < loaded_codes < 100


# a format-3 index of "banana" as format 3 wrote it: the header, the text
# and its suffix array, which format 4 no longer stores
_FORMAT_3_BANANA = bytes.fromhex(
    "544b49580300000000000001000000000000060000000000000009000000000000000b0000000000"
    "000062066262616e616e61620605030100040220fa3bf3")


def _old_format_exits_4(version, tmp_path, capsys):
    # a format-1 header (magic, version, engine, mode, sigma, n, s) and one
    # empty section, a format-2 header (the same and a node count), or a
    # whole format-3 file
    head = struct.pack("<IBBQQQ", version, 0, 0, 256, 6, 2)
    old = {1: b"TKIX" + head + struct.pack("<BQ", 1, 0),
           2: b"TKIX" + head + struct.pack("<Q", 1),
           3: _FORMAT_3_BANANA}[version]
    bad = tmp_path / "old.tkix"
    bad.write_bytes(old)
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"a\n")
    code, out, err = run_cli(["query", "--index", str(bad), "--patterns", str(pats)], capsys)
    assert (code, out) == (4, "")
    assert f"version {version}" in err and "rebuild" in err


def test_format_1_index_exits_4(tmp_path, capsys):
    _old_format_exits_4(1, tmp_path, capsys)


def test_format_2_index_exits_4(tmp_path, capsys):
    _old_format_exits_4(2, tmp_path, capsys)


def test_format_3_index_exits_4(tmp_path, capsys):
    _old_format_exits_4(3, tmp_path, capsys)


@pytest.mark.parametrize("command", ["build", "query"])
@pytest.mark.parametrize("error, code", [
    (OSError, 2), (AlphabetOverflowError, 3), (VersionMismatchError, 4),
    (cli.VerificationError, 6), (TriekitError, 5), (InvalidInputError, 5),
    (DuplicateKeyError, 5), (CorruptTrieError, 5),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_main_maps_each_error_a_command_raises_to_its_code(command, error, code, tmp_path,
                                                           capsys, monkeypatch):
    def raising(*args):
        raise error("planted")

    data = tmp_path / "in.txt"
    data.write_bytes(b"ab\n")
    if command == "build":
        monkeypatch.setattr(cli, "_build_index", raising)
        argv = ["build", "--input", str(data), "--output", str(tmp_path / "o.tkix")]
    else:
        monkeypatch.setattr(cli, "load_index", raising)
        argv = ["query", "--index", str(data), "--patterns", str(data)]
    assert run_cli(argv, capsys) == (code, "", "error: planted\n")


def test_build_missing_input_is_io_error(tmp_path, capsys):
    code, _, _ = run_cli(["build", "--input", str(tmp_path / "nope"),
                          "--output", str(tmp_path / "o")], capsys)
    assert code == 2


def test_build_alphabet_overflow(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(b"hello")
    code, _, _ = run_cli(["build", "--input", str(text), "--sigma", "4",
                          "--output", str(tmp_path / "o")], capsys)
    assert code == 3


def test_build_empty_file(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(b"")
    out_file = tmp_path / "o.tkix"
    code, out, _ = run_cli(["build", "--input", str(text), "--output", str(out_file)], capsys)
    assert code == 0 and "leaves=1" in out


def test_strings_mode_build_and_predecessor(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_bytes(b"ant\nbee\ncow\n")
    idx = tmp_path / "w.tkix"
    code, out, _ = run_cli(["build", "--input", str(words), "--mode", "strings",
                            "--output", str(idx)], capsys)
    assert code == 0 and "leaves=3" in out
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"bat\n")
    code, out, _ = run_cli(["query", "--index", str(idx), "--patterns", str(pats),
                            "--mode", "predecessor"], capsys)
    row = out.strip().split("\n")[1].split("\t")
    assert row[1] == "PRED_FOUND" and row[2] == "0"  # "ant" has rank 0


def test_strings_mode_drops_blank_and_repeated_lines(tmp_path, capsys):
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"\nb\nbe\nco\ncow\nx\n")
    reports = []
    for name, data in (("messy", b"bee\nant\n\ncow\nbee\nbat\n"),
                       ("clean", b"bee\nant\ncow\nbat\n")):
        words = tmp_path / f"{name}.txt"
        words.write_bytes(data)
        path = tmp_path / f"{name}.tkix"
        code, out, _ = run_cli(["build", "--input", str(words), "--mode", "strings",
                                "--output", str(path)], capsys)
        assert code == 0 and "leaves=4" in out  # the distinct non-empty lines
        for mode in ("prefix", "predecessor", "enumerate", "count"):
            code, out, _ = run_cli(["query", "--index", str(path), "--patterns", str(pats),
                                    "--mode", mode], capsys)
            assert code == 0
            reports.append(out)
    assert reports[:4] == reports[4:]


@pytest.mark.parametrize("mode, source", [
    ("suffix", b"abracadabra"),
    ("strings", [b"abra", b"", b"cad", b"ab", b"abracadabra", b"bra", b"c"]),
    ("strings", []),
], ids=["suffix", "strings", "strings-no-string"])
def test_round_trip_identical_answers(mode, source):
    codes = [b + 1 for b in source] if mode == "suffix" else [[b + 1 for b in w] for w in source]
    (idx,) = build_index(codes, 256, mode)
    tree = idx.trie
    blob = dump_index(idx)
    loaded = load_index(blob)
    if not source:
        for trie in (tree, loaded.trie):
            root = trie.nodes[trie.ROOT]
            assert (root.low, root.high) == (0, -1)
    for pat in (b"ab", b"bra", b"xyz", b"a", b""):
        codes = [b + 1 for b in pat]
        a = idx.prefix_query(codes)
        b_ = loaded.prefix_query(codes)
        assert (a.outcome, a.interval, a.matched_len) == (b_.outcome, b_.interval, b_.matched_len)
        assert idx.predecessor_query(codes) == loaded.predecessor_query(codes)
    assert dump_index(loaded) == blob


def test_tray_round_trip(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(b"mississippi")
    idx = tmp_path / "m.tkix"
    code, _, _ = run_cli(["build", "--input", str(text), "--engine", "tray",
                          "--output", str(idx)], capsys)
    assert code == 0
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"issi\nssi\nzz\n")
    code, out, _ = run_cli(["query", "--index", str(idx), "--patterns", str(pats)], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert rows[0][1].startswith("MATCHED") and rows[1][1].startswith("MATCHED")
    assert rows[2][1] == "NOT_FOUND"
    # the tray has no predecessor query: a clean exit 5, not a traceback
    code, out, err = run_cli(["query", "--index", str(idx), "--patterns", str(pats),
                              "--mode", "predecessor"], capsys)
    assert code == 5 and out == ""
    assert err == "error: predecessor queries need the static engine\n"


def test_dynamic_command(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\nI abd\nQ ab\nP abe\n")
    code, out, _ = run_cli(["dynamic", "--ops", str(ops)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    q = lines[0].split("\t")
    assert q[0] == "Q" and q[2] == "MATCHED_AT_NODE" and q[3] == "2"
    p = lines[1].split("\t")
    assert p[0] == "P" and p[2] == "abd"


def test_dynamic_malformed_line(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\nX what\n")
    code, _, err = run_cli(["dynamic", "--ops", str(ops)], capsys)
    assert code == 5 and "line 2" in err


def test_dynamic_empty_ops(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"")
    code, out, _ = run_cli(["dynamic", "--ops", str(ops)], capsys)
    assert code == 0 and out == ""


def test_dynamic_with_forced_audit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRIEKIT_AUDIT", "1")
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\nI abd\nI ax\nQ ab\n")
    code, _, _ = run_cli(["dynamic", "--ops", str(ops)], capsys)
    assert code == 0


@pytest.mark.parametrize("env, flags, lineno", [("1", [], 1), (None, ["--audit-every", "2"], 3)],
                         ids=["TRIEKIT_AUDIT", "audit-every"])
def test_dynamic_audit_failure_exits_6(tmp_path, capsys, monkeypatch, env, flags, lineno):
    # a failed audit is one error line naming the op's line, not a traceback
    if env is None:
        monkeypatch.delenv("TRIEKIT_AUDIT", raising=False)
    else:
        monkeypatch.setenv("TRIEKIT_AUDIT", env)

    def failing_audit(self):
        raise AssertionError("planted")

    monkeypatch.setattr(DynTrieIndex, "audit", failing_audit)
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\n\nI abd\nQ ab\n")
    code, out, err = run_cli(["dynamic", "--ops", str(ops)] + flags, capsys)
    assert code == 6 and out == ""
    assert err == f"error: line {lineno}: verification failed\n"


def test_forced_audit_once_per_insert(tmp_path, capsys, monkeypatch):
    # TRIEKIT_AUDIT=1 audits each mutation once; a query mutates nothing
    calls = []
    real_audit = DynTrieIndex.audit

    def counted_audit(self):
        calls.append(1)
        real_audit(self)

    monkeypatch.setattr(DynTrieIndex, "audit", counted_audit)
    monkeypatch.setenv("TRIEKIT_AUDIT", "1")
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\nI abd\nI ax\nQ ab\n")
    code, _, _ = run_cli(["dynamic", "--ops", str(ops)], capsys)
    assert code == 0 and len(calls) == 3


def test_prepend_stream(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(b"banana")
    code, out, _ = run_cli(["prepend-stream", "--text", str(text),
                            "--check-every", "1"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 6  # one verification per letter


def test_prepend_stream_detects_corruption(tmp_path, capsys):
    text = tmp_path / "t.bin"
    text.write_bytes(b"mississippi")
    code, _, err = run_cli(["prepend-stream", "--text", str(text),
                            "--check-every", "2", "--inject-corruption", "4"], capsys)
    assert code == 6 and "step 4" in err


def test_prepend_stream_audit_failure_exits_6(tmp_path, capsys, monkeypatch):
    # under TRIEKIT_AUDIT=1 the audit right after step 4 finds the detached
    # subtree, long before the first checkpoint at step 100
    monkeypatch.setenv("TRIEKIT_AUDIT", "1")
    text = tmp_path / "t.bin"
    text.write_bytes(b"mississippi")
    code, out, err = run_cli(["prepend-stream", "--text", str(text),
                              "--inject-corruption", "4"], capsys)
    assert code == 6 and out == ""
    assert err == "error: verification failed at step 4\n"


def test_prepend_stream_audit_checks_under_optimize(tmp_path, run_in_checkout):
    # the audit raises through explicit checks, not `assert`, so `python -O`
    # still catches the corruption at step 4 instead of failing later
    text = tmp_path / "mississippi.txt"
    text.write_bytes(b"mississippi")
    res = run_in_checkout([sys.executable, "-O", "-m", "triekit.cli", "prepend-stream",
                           "--text", str(text), "--sigma", "256", "--inject-corruption", "4"],
                          TRIEKIT_AUDIT="1")
    assert res.returncode == 6 and res.stdout == b""
    assert res.stderr == b"error: verification failed at step 4\n"


@pytest.mark.parametrize("data, check_every", [(b"a" * 400, 1), (b"b" + b"a" * 2000, 667)],
                         ids=["a400", "b-a2000"])
def test_prepend_stream_repetitive_text(tmp_path, capsys, data, check_every):
    # the flat forms compare without recursion, however deep the tree; 667
    # puts the last checkpoint on the final prepend, of b
    text = tmp_path / "t.bin"
    text.write_bytes(data)
    code, out, err = run_cli(["prepend-stream", "--text", str(text),
                              "--check-every", str(check_every)], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(data) // check_every
    assert lines[-1].startswith(f"step={len(data)} ")


def test_prepend_stream_scales_to_8000_symbols(tmp_path, capsys):
    # a checkpoint costs O(n): no label is expanded, so default flags on
    # 8,000 symbols make 80 checkpoints of at most 13,000 nodes each
    rng = random.Random(8)
    text = tmp_path / "t.bin"
    text.write_bytes(bytes(rng.choice(b"ACGT") for _ in range(8000)))
    t0 = time.perf_counter()
    code, out, err = run_cli(["prepend-stream", "--text", str(text)], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 80
    assert elapsed < 120, f"took {elapsed:.1f} s against a 120 s budget"


def test_bench_deterministic(run_in_checkout):
    cmd = [sys.executable, "-m", "triekit.cli", "bench", "--n", "2000",
           "--sigma", "256", "--engines", "static,tray,sa,dynamic",
           "--queries", "200", "--seed", "7"]
    a = run_in_checkout(cmd)
    b = run_in_checkout(cmd)
    assert a.returncode == 0, a.stderr.decode()
    assert a.stdout == b.stdout  # byte-identical deterministic report
    compared = re.search(rb"static_pred_probes<=tray_bsearch_steps: (\d+)<=(\d+) pass",
                         a.stdout)
    assert compared and int(compared[1]) > 0  # the static side measured something


def test_bench_static_pred_probes_stay_below_tray_steps_at_sigma_4(capsys):
    # the tray keeps its own array rule, so at sigma = 4 its non-branching
    # heavy nodes still binary-search their children
    code, out, _ = run_cli(["bench", "--n", "3000", "--sigma", "4",
                            "--engines", "static,tray", "--queries", "300"], capsys)
    assert code == 0
    line = out.splitlines()[-1]
    compared = re.fullmatch(r"static_pred_probes<=tray_bsearch_steps: (\d+)<=(\d+) pass", line)
    assert compared and int(compared[2]) > 0, line


def test_bench_builds_one_trie_for_static_tray_and_sa(capsys, monkeypatch):
    # the engines share one build, which the sa baseline reads too
    built = []

    def counted(*args):
        built.append(args)
        return build_sorted_trie(*args)

    for module in (sa, static_index):
        monkeypatch.setattr(module, "build_sorted_trie", counted, raising=False)
    for engines in ("static,tray,sa", "sa", "tray,static"):
        built.clear()
        code, _, _ = run_cli(["bench", "--n", "300", "--sigma", "4",
                              "--engines", engines, "--queries", "50"], capsys)
        assert code == 0 and len(built) == 1, (engines, len(built))
    built.clear()
    assert run_cli(["bench", "--n", "300", "--sigma", "4", "--engines", "dynamic"], capsys)[0] == 0
    assert built == []


def test_bench_unknown_engine(capsys):
    code, _, err = run_cli(["bench", "--n", "10", "--sigma", "4",
                            "--engines", "warp"], capsys)
    assert code == 5


def test_bench_rejects_more_dynamic_words_than_exist(capsys):
    # sigma = 1 has one 8-letter word: n = 16 asks for two, n = 8 for one
    t0 = time.perf_counter()
    code, out, err = run_cli(["bench", "--n", "16", "--sigma", "1",
                              "--engines", "dynamic", "--queries", "5"], capsys)
    assert code == 5 and out == "" and err.startswith("error:")
    assert time.perf_counter() - t0 < 5
    code, out, _ = run_cli(["bench", "--n", "8", "--sigma", "1",
                            "--engines", "dynamic", "--queries", "5"], capsys)
    assert code == 0
    assert "engine=dynamic checksum=954305" in out


def test_bench_build_only(capsys):
    code, out, _ = run_cli(["bench", "--n", "500", "--sigma", "26",
                            "--engines", "static", "--queries", "0"], capsys)
    assert code == 0 and "engine=static" in out


def _wide_index(tmp_path, capsys):
    """A static index over decimal codes (sigma > 256)."""
    text = tmp_path / "codes.txt"
    text.write_bytes(b"5 700 5 700 9")
    idx = tmp_path / "codes.tkix"
    code, _, _ = run_cli(["build", "--input", str(text), "--sigma", "1000",
                          "--output", str(idx)], capsys)
    assert code == 0
    return idx


@pytest.mark.parametrize("command", ["build", "query", "dynamic", "prepend-stream"])
def test_bad_symbol_token_exits_5(command, tmp_path, capsys):
    # above sigma = 256 symbols are decimal codes; "abc" is none
    bad = tmp_path / "bad.txt"
    if command == "build":
        bad.write_bytes(b"5 abc 7")
        argv = ["build", "--input", str(bad), "--sigma", "1000",
                "--output", str(tmp_path / "o.tkix")]
    elif command == "query":
        bad.write_bytes(b"5 700\nabc\n")
        argv = ["query", "--index", str(_wide_index(tmp_path, capsys)),
                "--patterns", str(bad)]
    elif command == "dynamic":
        bad.write_bytes(b"I 5 700\nI abc\n")
        argv = ["dynamic", "--ops", str(bad), "--sigma", "1000"]
    else:
        bad.write_bytes(b"5 abc")
        argv = ["prepend-stream", "--text", str(bad), "--sigma", "1000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 5 and out == ""
    assert err.count("error:") == 1 and "'abc'" in err
    if command == "dynamic":
        assert "line 2" in err


@pytest.mark.parametrize("kind", [b"I", b"Q", b"P"])
def test_dynamic_symbol_outside_sigma_exits_3(kind, tmp_path, capsys):
    # sigma = 4: bytes 0..3 are codes 1..4, byte 7 is code 8
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I \x00\x01\n" + kind + b" \x00\x07\n")
    code, out, err = run_cli(["dynamic", "--ops", str(ops), "--sigma", "4"], capsys)
    assert code == 3 and out == ""
    assert err.count("error:") == 1 and err.startswith("error: line 2: ")


@pytest.mark.parametrize("argv, flag", [
    (["build", "--mode", "suffix", "--sigma", "0"], "--sigma"),
    (["build", "--mode", "strings", "--sigma", "-3"], "--sigma"),
    (["dynamic", "--sigma", "0"], "--sigma"),
    (["prepend-stream", "--sigma", "0"], "--sigma"),
    (["prepend-stream", "--check-every", "0"], "--check-every"),
    (["prepend-stream", "--check-every", "-1"], "--check-every"),
])
def test_bad_flag_values_exit_5(argv, flag, tmp_path, capsys):
    data = tmp_path / "in.txt"
    data.write_bytes(b"I ab\n" if argv[0] == "dynamic" else b"ab")
    io_flag = {"build": "--input", "dynamic": "--ops", "prepend-stream": "--text"}[argv[0]]
    argv = argv + [io_flag, str(data)]
    if argv[0] == "build":
        argv += ["--output", str(tmp_path / "o.tkix")]
    code, out, err = run_cli(argv, capsys)
    assert code == 5 and out == ""
    assert err.startswith(f"error: {flag} must be at least 1")


@pytest.mark.parametrize("sigma", [2**32, 2**70])
def test_build_sigma_beyond_index_range_exits_5(sigma, tmp_path, capsys):
    # an index file holds a sigma in [1, 2^32), the range load_index accepts
    text = tmp_path / "codes.txt"
    text.write_bytes(b"5 700 5 700 9")
    out_path = tmp_path / "o.tkix"
    code, out, err = run_cli(["build", "--input", str(text), "--sigma", str(sigma),
                              "--output", str(out_path)], capsys)
    assert code == 5 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(sigma) in err
    assert not out_path.exists()


def test_build_checks_sigma_before_building(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("built an index for a sigma no file can hold")

    monkeypatch.setattr(cli, "_build_index", no_build)
    text = tmp_path / "codes.txt"
    text.write_bytes(b"5 700 5 700 9")
    out_path = tmp_path / "o.tkix"
    code, out, err = run_cli(["build", "--input", str(text), "--sigma", str(2**32),
                              "--output", str(out_path)], capsys)
    assert code == 5 and out == ""
    assert err == f"error: sigma {2**32} outside [1, {2**32}) cannot be written to an index file\n"
    assert not out_path.exists()


def test_build_largest_sigma_round_trips(tmp_path, capsys):
    text = tmp_path / "codes.txt"
    text.write_bytes(b"5 700 5 700 9")
    idx = tmp_path / "o.tkix"
    code, out, _ = run_cli(["build", "--input", str(text), "--sigma", str(2**32 - 1),
                            "--output", str(idx)], capsys)
    assert code == 0 and f"sigma={2**32 - 1}" in out
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"5 700\n4294967295\n")
    code, out, _ = run_cli(["query", "--index", str(idx), "--patterns", str(pats)], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[1:4] for r in rows] == [["MATCHED_AT_NODE", "1", "2"], ["NOT_FOUND", "-", "-"]]


def test_build_suffix_mode_with_codes_near_2_32(tmp_path, capsys):
    # SA-IS arrays follow the distinct codes, not the largest one
    text = tmp_path / "codes.txt"
    text.write_bytes(b"4294967295 1 4294967290")
    idx = tmp_path / "o.tkix"
    code, out, _ = run_cli(["build", "--input", str(text), "--sigma", str(2**32 - 1),
                            "--mode", "suffix", "--output", str(idx)], capsys)
    assert code == 0 and "leaves=4" in out


def test_negative_audit_every_exits_5(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I ab\n")
    code, out, err = run_cli(["dynamic", "--ops", str(ops), "--audit-every", "-1"], capsys)
    assert code == 5 and out == ""
    assert err == "error: --audit-every must be at least 0, got -1\n"


def test_audit_every_counts_ops(tmp_path, capsys, monkeypatch):
    # every second op is audited, queries included
    calls = []
    real_audit = DynTrieIndex.audit

    def counted_audit(self):
        calls.append(1)
        real_audit(self)

    monkeypatch.setattr(DynTrieIndex, "audit", counted_audit)
    monkeypatch.delenv("TRIEKIT_AUDIT", raising=False)
    ops = tmp_path / "ops.txt"
    ops.write_bytes(b"I abc\nI abd\nI ax\nQ ab\nP b\n")
    code, _, _ = run_cli(["dynamic", "--ops", str(ops), "--audit-every", "2"], capsys)
    assert code == 0 and len(calls) == 2
