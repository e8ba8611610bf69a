import hashlib
import json
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtlab import cache as cache_module
from rtlab import cli
from rtlab.cache import ResultCache, fingerprint


# ---------------------------------------------------------------------------
# Oracle: the full-parse loop that indexed every record before a lookup.
# The last well-formed record of a fingerprint wins; every other non-blank
# line is corrupt.


def oracle_index(path) -> tuple:
    index, bad = {}, 0
    if not os.path.exists(path):
        return index, bad
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                index[rec["fingerprint"]] = rec["payload"]
            except (ValueError, KeyError, TypeError):
                bad += 1
    return index, bad


def _record(fp, payload, op="count"):
    return {
        "fingerprint": fp,
        "op": op,
        "payload": payload,
        "version": "0.1.0",
        "timestamp": "2026-01-01T00:00:00Z",
    }


def _canonical(rec) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


GARBAGE = [
    "{not json}",
    "[1, 2]",
    '"a string"',
    "42",
    "null",
    '{"payload": {"count": "1"}}',
    '{"fingerprint": ["unhashable"], "payload": 1}',
    '{"fingerprint": 7, "payload": {"count": "7"}}',  # well-formed, never asked for
    '{"fingerprint":"',
]


def _seeded_lines(rng: random.Random) -> tuple:
    """Cache lines mixing every layout a file can hold, and the
    fingerprints they use."""
    fps = ["%032x" % rng.getrandbits(128) for _ in range(12)]
    lines = []
    for _ in range(rng.randint(20, 60)):
        fp = rng.choice(fps)
        payload = rng.choice([{"count": str(rng.getrandbits(40))}, {"n": rng.randint(0, 9)}, None])
        rec = _record(fp, payload)
        kind = rng.choice(["canonical"] * 4 + ["spaced", "reordered", "padded", "trailing",
                                              "blank", "garbage", "torn", "no-payload",
                                              "other-key-in-payload", "escaped-key"])
        if kind == "canonical":
            lines.append(_canonical(rec))
        elif kind == "other-key-in-payload":
            # the payload holds another fingerprint, also in the key's own layout
            other = rng.choice(fps)
            rec["payload"] = rng.choice([{"fingerprint": other}, {"note": other}, other])
            lines.append(_canonical(rec))
        elif kind == "escaped-key":
            cut = rng.randint(1, 32)
            escaped = "".join("\\u%04x" % ord(c) for c in fp[:cut]) + fp[cut:]
            lines.append(_canonical(rec).replace(fp, escaped, 1))
        elif kind == "spaced":
            lines.append(json.dumps(rec, sort_keys=True))
        elif kind == "reordered":
            lines.append(json.dumps(dict(reversed(list(rec.items())))))
        elif kind == "padded":
            lines.append(" \t" + _canonical(rec) + "  ")
        elif kind == "trailing":
            lines.append(_canonical(rec) + " \t")
        elif kind == "blank":
            lines.append(rng.choice(["", "   ", "\t"]))
        elif kind == "garbage":
            lines.append(rng.choice(GARBAGE))
        elif kind == "torn":
            text = _canonical(rec)
            lines.append(text[: rng.randrange(1, len(text))])
        else:
            del rec["payload"]
            lines.append(_canonical(rec))
    return lines, fps


def _write(path, lines, rng):
    ends = [rng.choice(["\n", "\n", "\n", "\r\n", "\r"]) for _ in lines]
    data = "".join(line + end for line, end in zip(lines, ends))
    if lines and rng.random() < 0.3:
        data = data.rstrip("\r\n")  # no final newline
    path.write_bytes(data.encode())


def _slow_layout_bad(lines) -> int:
    """Corrupt lines the index warns about: those that do not begin the way
    `store` writes a line and fail to parse as a record."""
    bad = 0
    for line in lines:
        if not line.strip():
            continue
        fast = line.startswith('{"fingerprint":"') and line[48:49] == '"' and line[16:48].isalnum()
        if fast:
            continue
        try:
            rec = json.loads(line)
            hash(rec["fingerprint"])
            rec["payload"]
        except (ValueError, KeyError, TypeError):
            bad += 1
    return bad


# (seed, batched) cases: a batched case asks its first lookup to answer
# every key in one pass
SEEDS = [pytest.param(seed, batched, id=f"{seed}-batched" if batched else str(seed))
         for batched in (False, True) for seed in range(40)]


@pytest.mark.parametrize("seed, batched", SEEDS)
def test_lookup_matches_full_parse_oracle(seed, batched, tmp_path, capsys):
    rng = random.Random(seed)
    lines, fps = _seeded_lines(rng)
    path = tmp_path / "c.jsonl"
    _write(path, lines, rng)
    expected, _ = oracle_index(path)
    cache = ResultCache(str(path))
    absent = "%032x" % rng.getrandbits(128)
    asked = rng.sample(fps, len(fps)) + [absent, "7", "short-key"]
    if batched:
        cache.lookup(asked[0], asked)
        assert set(asked) <= set(cache._known)
    for fp in asked:
        assert cache.lookup(fp) == expected.get(fp), fp
    bad = _slow_layout_bad(lines)
    err = capsys.readouterr().err
    if bad:
        assert err == f"# cache: skipped {bad} corrupt line(s) in {path}\n"
    else:
        assert err == ""


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("seed, batched", SEEDS)
def test_lookup_matches_the_oracle_across_read_boundaries(seed, block, batched, tmp_path,
                                                         capsys, monkeypatch):
    # reads this short make a line, a "\r\n" pair and a 32-byte key each
    # cross a boundary between two reads
    monkeypatch.setattr(cache_module, "_BLOCK", block)
    test_lookup_matches_full_parse_oracle(seed, batched, tmp_path, capsys)


def test_grouped_keys_match_like_one_flat_alternation(tmp_path):
    # keys over three characters share long prefixes, fall into few
    # first-byte groups, and some are prefixes of others
    rng = random.Random(22)
    words = lambda: "".join(rng.choice("ab7") for _ in range(rng.randint(1, 8))).encode()
    keys = list({words() for _ in range(120)})
    grouped = re.compile(cache_module._alternation(keys))
    flat = re.compile(b"|".join(keys))
    text = b" ".join(words() for _ in range(2000))
    assert [m[0] for m in grouped.finditer(text)] == [m[0] for m in flat.finditer(text)]
    for probe in keys + [words() for _ in range(2000)]:
        assert bool(grouped.fullmatch(probe)) == bool(flat.fullmatch(probe)) == (probe in keys)
    assert not re.search(cache_module._alternation([]), text)
    # in the cache: stored keys one character apart, asked in one batch
    # with absent keys that share all but their last character
    near = ["0" * 30 + a + b for a in "01z" for b in "09aZ"]
    cache = ResultCache(str(tmp_path / "c.jsonl"))
    cache.store("count", [(fp, {"n": i}) for i, fp in enumerate(near) if i % 3], "0.1.0")
    fresh = ResultCache(cache.path)
    fresh.lookup(near[0], near + ["0" * 31 + "y"])
    assert [fresh.lookup(fp) for fp in near] == [None if i % 3 == 0 else {"n": i}
                                                 for i in range(len(near))]


def test_absent_lookup_holds_a_block_not_the_file(tmp_path):
    rng = random.Random(3)
    lines = [
        _canonical(_record("%032x" % rng.getrandbits(128), {"count": str(rng.getrandbits(120))}))
        for _ in range(25000)
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    del lines
    assert path.stat().st_size > 4_000_000
    cache = ResultCache(str(path))
    tracemalloc.start()
    try:
        assert cache.lookup("%032x" % rng.getrandbits(128)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_torn_newest_line_serves_the_previous_record(tmp_path, capsys):
    fp = fingerprint("count", {"graph": "C~", "r": 6, "k": 4}, "0.1.0")
    good = _canonical(_record(fp, {"count": "45936"}))
    newer = _canonical(_record(fp, {"count": "1"}))
    path = tmp_path / "c.jsonl"
    path.write_text(good + "\n" + newer[:-7])  # a writer died mid-line
    assert ResultCache(str(path)).lookup(fp) == {"count": "45936"}
    assert oracle_index(path)[0][fp] == {"count": "45936"}
    path.write_text(good + "\n" + newer + "\n")
    assert ResultCache(str(path)).lookup(fp) == {"count": "1"}  # the last one wins
    assert capsys.readouterr().err == ""


def test_store_after_a_torn_last_line_starts_a_new_line(tmp_path):
    fp = "c" * 32
    good = _canonical(_record(fp, {"count": "1"}))
    path = tmp_path / "c.jsonl"
    path.write_text(good + "\n" + good[:-7])  # a writer died mid-line
    cache = ResultCache(str(path))
    assert cache.lookup(fp) == {"count": "1"}
    cache.store("count", [(fp, {"count": "2"})], "0.1.0")
    cache.store("count", [("d" * 32, {"count": "3"})], "0.1.0")
    assert oracle_index(path) == ({fp: {"count": "2"}, "d" * 32: {"count": "3"}}, 1)
    assert path.read_text().count("\n\n") == 0
    for reader in (cache, ResultCache(str(path))):
        assert reader.lookup(fp) == {"count": "2"}


@pytest.mark.parametrize("end, gap", [("", b"\n"), ("\n", b""), ("\r\n", b""), ("\r", b"")])
def test_store_without_a_read_ends_a_torn_last_line(end, gap, tmp_path):
    good = _canonical(_record("c" * 32, {"count": "1"}))
    path = tmp_path / "c.jsonl"
    before = (good + "\n" + good[:-7] + end).encode()  # a writer died mid-line
    path.write_bytes(before)
    ResultCache(str(path)).store("count", [("d" * 32, {"count": "3"})], "0.1.0")
    data = path.read_bytes()
    assert data.startswith(before + gap + b'{"fingerprint":"' + b"d" * 32)
    assert ResultCache(str(path)).lookup("d" * 32) == {"count": "3"}
    assert oracle_index(path) == ({"c" * 32: {"count": "1"}, "d" * 32: {"count": "3"}}, 1)


def test_invalid_utf8_line_is_corrupt_not_fatal(tmp_path, capsys):
    # the full-parse loop decoded the whole file and failed on any bad byte
    good = _canonical(_record("b" * 32, {"count": "2"}))
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xff\xfe garbage\n" + good.encode() + b"\n" + good[:60].encode() + b"\xff\n")
    cache = ResultCache(str(path))
    assert cache.lookup("b" * 32) == {"count": "2"}
    assert capsys.readouterr().err == f"# cache: skipped 1 corrupt line(s) in {path}\n"


def test_missing_file_is_empty_and_store_creates_it(tmp_path, capsys):
    path = tmp_path / "sub" / "c.jsonl"
    cache = ResultCache(str(path))
    assert cache.lookup("0" * 32) is None
    assert cache.lookup("short-key") is None
    assert not path.parent.exists()  # looking up creates nothing
    cache.store("count", [("0" * 32, {"count": "3"})], "0.1.0")
    assert cache.lookup("0" * 32) == {"count": "3"}
    assert oracle_index(path) == ({"0" * 32: {"count": "3"}}, 0)
    assert capsys.readouterr().err == ""


def test_store_after_load_is_seen_and_readable_by_the_oracle(tmp_path):
    path = tmp_path / "c.jsonl"
    rng = random.Random(5)
    lines, fps = _seeded_lines(rng)
    _write(path, lines, rng)
    cache = ResultCache(str(path))
    cache.lookup(fps[0])  # loads the index
    for i, fp in enumerate(fps[:4] + ["short-key"]):
        cache.store("count", [(fp, {"i": i})], "0.1.0")
    expected, _ = oracle_index(path)
    fresh = ResultCache(str(path))
    for fp in fps + ["short-key"]:
        assert cache.lookup(fp) == fresh.lookup(fp) == expected.get(fp)
    assert expected["short-key"] == {"i": 4}


def test_index_stays_unloaded_until_the_first_read(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(cache_module, "open",
                        lambda path, mode="r", **kw: opened.append(mode) or open(path, mode, **kw),
                        raising=False)
    cache = ResultCache(str(tmp_path / "c.jsonl"))
    cache.store("count", [("a" * 32, {})], "0.1.0")
    assert opened == ["ab"]  # storing reads nothing
    assert cache.lookup("a" * 32) == {}
    assert cache.lookup("b" * 32) is None
    assert opened == ["ab", "rb"]  # the first lookup reads the file, once


# JSON values as parameters hold them, and more: unicode, nesting, ints past
# 64 bits, and empty strings, lists and dicts.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 200), 2 ** 200) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(), st.dictionaries(st.text(), _VALUES, max_size=5), st.text())
def test_fingerprint_is_hashlib_sha256_of_the_key(op, params, version):
    # the key's digest comes from CPython's built-in module; it must be the
    # bytes hashlib gives, or every stored record stops matching
    blob = json.dumps(
        {"op": op, "params": params, "version": version}, sort_keys=True, separators=(",", ":")
    )
    assert fingerprint(op, params, version) == hashlib.sha256(blob.encode()).hexdigest()[:32]


# Lines as the previous release's `store` wrote them.
OLDER_FILE = """\
{"fingerprint":"1deab113f314144b771b99c1f955ad60","op":"count","payload":{"count":"45936","graph":"C~","k":4,"op":"count","r":6},"timestamp":"2026-10-18T14:46:25Z","version":"0.1.0"}
{"fingerprint":"67ca5ae2c26f7a72564822b1cd3c3dd3","op":"poly","payload":{"coefficients":["1","31","90","65","15","0"],"edges":6,"graph":"C~","k":4,"op":"poly"},"timestamp":"2026-10-18T14:46:25Z","version":"0.1.0"}
{"fingerprint":"73d16521801d352623a637d3c150577b","op":"closeness","payload":{"exact":true,"graph":"E~~w","internal_edges":3,"k":3,"op":"closeness","partition":[0,0,1,1,2,2]},"timestamp":"2026-10-18T14:46:26Z","version":"0.1.0"}
"""


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "C~", "-r", "6"],
    ["poly", "--graph", "C~"],
    ["closeness", "--graph", "E~~w", "-k", "3"],
])
def test_file_from_the_previous_release_reads_the_same(argv, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(OLDER_FILE)
    assert cli.main(argv + ["--no-cache"]) == 0
    fresh = capsys.readouterr()
    assert cli.main(argv + ["--cache", str(path)]) == 0
    cached = capsys.readouterr()
    assert cached.out == fresh.out
    assert cached.err.startswith("# cache hit ")
    assert path.read_text() == OLDER_FILE  # served, nothing appended
