import concurrent.futures
import io
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rtlab import cache as cache_module
from rtlab import cli, records
from rtlab.cache import ResultCache, fingerprint
from rtlab.counting import count_colorings
from rtlab.graphs import complete_graph, enumerate_graphs, parse_graph6, write_graph6
from rtlab.templates import Template, complete_template, template_to_json

K4_G6 = write_graph6(complete_graph(4))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("RTL_CACHE", str(tmp_path / "cache.jsonl"))
    yield tmp_path / "cache.jsonl"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return [json.loads(line) for line in out.splitlines()], err


# ---------------------------------------------------------------------------
# basic subcommands


def test_count_record(capsys):
    recs, _ = run_json(["count", "--graph", K4_G6, "-r", "6", "-k", "4"], capsys)
    assert recs == [{"op": "count", "graph": K4_G6, "r": 6, "k": 4, "count": "45936"}]


def test_count_decimal_strings_roundtrip(capsys):
    recs, _ = run_json(["count", "--graph", K4_G6, "-r", "13"], capsys)
    n = int(recs[0]["count"])
    assert str(n) == recs[0]["count"]
    assert n == count_colorings(complete_graph(4), 13, 4)


def test_poly_record(capsys):
    recs, _ = run_json(["poly", "--graph", K4_G6], capsys)
    assert recs[0]["coefficients"] == ["1", "31", "90", "65", "15", "0"]


def test_search_names_argmax_and_turan(capsys):
    recs, _ = run_json(["search", "-n", "4", "-r", "12"], capsys)
    rec = recs[0]
    assert rec["best_graph6"] == K4_G6
    assert rec["best_count"] == "2320704"
    assert rec["turan_count"] == str(12 ** 5)
    assert len(rec["table"]) == 11
    counts = {g: int(c) for g, c in rec["table"]}
    assert counts[K4_G6] == 2320704


def test_csv_format_same_numbers(capsys):
    code, out, _ = run_cli(["count", "--graph", K4_G6, "-r", "6", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert dict(zip(header, row))["count"] == "45936"


def test_closeness_cliques_supersat_bounds(capsys):
    recs, _ = run_json(["closeness", "--graph", K4_G6, "-k", "3"], capsys)
    assert recs[0]["internal_edges"] == 1 and recs[0]["exact"] is True
    recs, _ = run_json(["cliques", "--graph", K4_G6, "-k", "3", "--list"], capsys)
    assert recs[0]["count"] == "4" and len(recs[0]["cliques"]) == 4
    recs, _ = run_json(["supersat", "-n", "6", "-t", "1", "-k", "3", "-e", "15"], capsys)
    assert recs[0]["positive"] is True
    lb = recs[0]["lower_bound"]
    assert int(lb["num"]) > 0 and int(lb["den"]) > 0
    recs, _ = run_json(["bounds-compare", "-r", "11"], capsys)
    assert recs[0]["verdict"] == "clique-coloring"
    recs, _ = run_json(["bounds-compare", "-r", "12"], capsys)
    assert recs[0]["verdict"] == "turan"


def test_container_stats_and_threshold(capsys):
    recs, _ = run_json(["container-stats", "--graph", K4_G6, "-r", "6"], capsys)
    rec = recs[0]
    assert rec["vertex_count"] == 36
    assert rec["edge_count"] == "720"
    assert rec["average_degree"] == {"num": "120", "den": "1"}
    assert rec["max_codegrees"] == ["24", "6", "2", "1", "1"]
    recs, _ = run_json(["container-threshold", "-r", "12"], capsys)
    rec = recs[0]
    assert rec["tau_ok_at_min"] and rec["delta_ok_at_min"] and not rec["passes_below"]
    assert int(rec["min_n"]) > 10 ** 40


def test_template_commands(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(template_to_json(complete_template(complete_graph(4), 12)))
    recs, _ = run_json(["template-stats", "--template", str(path)], capsys)
    assert recs[0]["rainbow_copies"] == "665280"
    assert recs[0]["list_histogram"][12] == 6
    recs, _ = run_json(["clean", "--template", str(path), "--xi", "1/100"], capsys)
    assert recs[0]["steps"] == [] and recs[0]["stop_reason"] == "no operation applicable"
    recs, _ = run_json(["critical", "--template", str(path)], capsys)
    assert len(recs[0]["triangles"]) == 4


@pytest.mark.parametrize("n", ["0", "-5"])
def test_critical_nonpositive_original_n_is_usage_error(n, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(template_to_json(Template(complete_graph(4), 6, [0b11] * 6)))
    code, out, err = run_cli(["critical", "--template", str(path), "--original-n", n], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid-argument"


def test_critical_nonpositive_original_n_skips_the_cache(isolated_cache, tmp_path, capsys):
    # a record stored under this fingerprint (as an older build did) must
    # not be served: the argument is refused before the cache is read
    t = Template(complete_graph(4), 6, [0b11] * 6)
    path = tmp_path / "t.json"
    path.write_text(template_to_json(t))
    fp = fingerprint(
        "critical", {"template": template_to_json(t), "original_n": -5}, cli.__version__
    )
    stale = {"op": "critical", "triangles": [], "edges": [], "vertices": [],
             "current_n": 4, "original_n": -5}
    ResultCache(str(isolated_cache)).store("critical", [(fp, stale)], cli.__version__)
    code, out, err = run_cli(["critical", "--template", str(path), "--original-n", "-5"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid-argument"


def test_clean_with_delta(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(template_to_json(complete_template(complete_graph(4), 12)))
    recs, _ = run_json(["clean", "--template", str(path), "--delta", "1/100"], capsys)
    assert "/" in recs[0]["xi"]  # derived exact rational


def test_stdin_inputs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(K4_G6 + "\n"))
    recs, _ = run_json(["count", "--graph", "-", "-r", "6"], capsys)
    assert recs[0]["count"] == "45936"
    monkeypatch.setattr(sys, "stdin", io.StringIO(K4_G6 + "\n" + K4_G6 + "\n"))
    recs, _ = run_json(["count", "--input", "-", "-r", "6"], capsys)
    assert len(recs) == 2


def test_graph_from_stdin_skips_a_graph6_header(monkeypatch, capsys):
    # the same stream filter as `--input -`: blank lines and a bare header
    monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<\n\n" + K4_G6 + "\n"))
    recs, _ = run_json(["count", "--graph", "-", "-r", "6", "--no-cache"], capsys)
    assert recs == [{"count": "45936", "graph": K4_G6, "k": 4, "op": "count", "r": 6}]


# ---------------------------------------------------------------------------
# batch mode


def test_batch_matches_single_shot(tmp_path, capsys):
    stream = tmp_path / "classes5.g6"
    graphs = list(enumerate_graphs(5))
    stream.write_text("\n".join(write_graph6(g) for g in graphs) + "\n")
    recs, _ = run_json(["count", "--input", str(stream), "-r", "6", "--no-cache"], capsys)
    assert len(recs) == 34
    for rec, g in zip(recs, graphs):
        assert rec["graph"] == write_graph6(g)
        assert int(rec["count"]) == count_colorings(g, 6, 4)


def test_search_with_external_stream(tmp_path, capsys):
    stream = tmp_path / "pair.g6"
    from rtlab.graphs import turan_graph

    codes = [write_graph6(complete_graph(5)), write_graph6(turan_graph(5, 3))]
    stream.write_text("\n".join(codes) + "\n")
    recs, _ = run_json(["search", "-n", "5", "-r", "6", "--input", str(stream)], capsys)
    rec = recs[0]
    assert rec["classes"] == 2
    assert {g for g, _ in rec["table"]} == set(codes)
    assert int(rec["best_count"]) >= 6 ** 8


def test_batch_deterministic_across_workers(tmp_path, capsys):
    stream = tmp_path / "classes4.g6"
    stream.write_text("\n".join(write_graph6(g) for g in enumerate_graphs(4)) + "\n")
    argv = ["count", "--input", str(stream), "-r", "7", "--no-cache"]
    _, out1, _ = run_cli(argv + ["--workers", "1"], capsys)
    _, out2, _ = run_cli(argv + ["--workers", "2"], capsys)
    assert out1 == out2


def test_repeat_run_byte_identical_with_cache(capsys):
    argv = ["count", "--graph", K4_G6, "-r", "6"]
    code1, out1, err1 = run_cli(argv, capsys)
    code2, out2, err2 = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2)
    assert "cache hit" not in err1
    assert "cache hit" in err2  # flagged on stderr, stdout unchanged


# ---------------------------------------------------------------------------
# cache behavior

# the README's example template
TEMPLATE_JSON = '{"graph": "C~", "r": 6, "lists": [[1,2],[1],[2,3],[1,2,3,4,5,6],[4],[5,6]]}'

# Every cached subcommand with its pinned fingerprint: a changed key would
# orphan the records that existing caches hold.
CACHED_RUNS = [
    (["count", "--graph", "C~", "-r", "6"], "1deab113f314144b771b99c1f955ad60"),
    (["poly", "--graph", "C~"], "67ca5ae2c26f7a72564822b1cd3c3dd3"),
    (["cliques", "--graph", "C~", "-k", "3", "--list"], "7dc0b89021dedc282799144402d33c96"),
    (["closeness", "--graph", "E~~w", "-k", "3"], "73d16521801d352623a637d3c150577b"),
    (["container-stats", "--graph", "C~", "-r", "6"], "f6452601d052abcb1d65d1c6382a2396"),
    (["search", "-n", "4", "-r", "6"], "1172fb9ed958539877d3b6cea5ee5f9d"),
    (["template-stats", "--template", "T"], "94fcf3b9f6447b6fab2969a5dc1b92ce"),
    (["container-threshold", "-r", "12"], "c3217f44f868a0bad2333e61bc9bdf43"),
    (["clean", "--template", "T", "--xi", "1/100"], "ccd71c2eefaac520cbbaefb7487a094d"),
    (["critical", "--template", "T"], "6600bfb0b9417c3187acac59e778a609"),
    (["supersat", "-n", "6", "-t", "1", "-k", "3", "-e", "15"], "26712852699bf09a6fc544a075596129"),
]


@pytest.mark.parametrize("argv,fp", CACHED_RUNS, ids=[argv[0] for argv, _ in CACHED_RUNS])
def test_cached_subcommand_hits_on_repeat(argv, fp, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(TEMPLATE_JSON)
    argv = [str(path) if a == "T" else a for a in argv]
    code1, out1, err1 = run_cli(argv, capsys)
    code2, out2, err2 = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert "cache hit" not in err1
    assert err2 == f"# cache hit {fp}\n"
    assert out1 == out2


def test_search_input_order_is_part_of_the_key(tmp_path, capsys):
    # the table lists the classes in input order, so a reordered input is
    # another record, not a cache hit on the first order's table
    path = str(tmp_path / "c.jsonl")
    fresh = []
    for codes in (["C~", "CF", "C^"], ["C^", "CF", "C~"]):
        stream = tmp_path / "classes.g6"
        stream.write_text("\n".join(codes) + "\n")
        argv = ["search", "-n", "4", "-r", "6", "--input", str(stream)]
        code, out, err = run_cli(argv + ["--cache", path], capsys)
        assert code == 0 and "cache hit" not in err
        fresh.append(run_cli(argv + ["--no-cache"], capsys)[1])
        assert out == fresh[-1]
    assert fresh[0] != fresh[1]


def test_search_input_counts_repeated_codes_once(monkeypatch, capsys):
    # a stream without repeats answers as before; repeats, blank lines and
    # stray whitespace change nothing on stdout
    outs = []
    for text in ("C~\nCF\n", "C~\nC~\nCF\n", "CF \n\n C~\nCF\nC~\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ["search", "-n", "4", "-r", "6", "--input", "-", "--no-cache"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[0]["classes"] == 2
    assert outs[0]["table"] == [["C~", "45936"], ["CF", "216"]]
    assert outs[2]["table"] == outs[0]["table"][::-1]


def test_search_input_with_repeats_shares_the_record(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "c.jsonl")
    errs = []
    for text in ("C~\nCF\n", "C~\nC~\nCF\nCF\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ["search", "-n", "4", "-r", "6", "--input", "-", "--cache", path]
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        errs.append(err)
    assert "cache hit" not in errs[0] and "cache hit" in errs[1]


def test_search_saves_table_on_cache_hit(tmp_path, capsys):
    argv = ["search", "-n", "4", "-r", "6", "--save-table"]
    run_json(argv + [str(tmp_path / "t1.jsonl")], capsys)
    recs, err = run_json(argv + [str(tmp_path / "t2.jsonl")], capsys)
    assert "cache hit" in err
    saved = (tmp_path / "t2.jsonl").read_text()
    assert saved == (tmp_path / "t1.jsonl").read_text()
    assert [json.loads(line) for line in saved.splitlines()] == [
        {"graph": g, "count": c} for g, c in recs[0]["table"]
    ]


def test_cache_version_bump_invalidates(isolated_cache, monkeypatch, capsys):
    argv = ["count", "--graph", K4_G6, "-r", "6"]
    run_cli(argv, capsys)
    monkeypatch.setattr(cli, "__version__", "99.0.0")
    _, _, err = run_cli(argv, capsys)
    assert "cache hit" not in err
    lines = isolated_cache.read_text().splitlines()
    assert len(lines) == 2  # recomputed and stored under the new fingerprint


def test_cache_corrupt_line_skipped(isolated_cache, capsys):
    argv = ["count", "--graph", K4_G6, "-r", "6"]
    run_cli(argv, capsys)
    with open(isolated_cache, "a") as fh:
        fh.write("{not json}\n")
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert "cache hit" in err
    assert "corrupt" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_duplicates_computed_and_stored_once(workers, isolated_cache, tmp_path, capsys,
                                                   monkeypatch):
    codes = ["C~", "Bw", "C~", "C~", "Bw"]
    stream = tmp_path / "dups.g6"
    stream.write_text("\n".join(codes) + "\n")
    single = {c: run_cli(["count", "--graph", c, "-r", "6", "--no-cache"], capsys)[1]
              for c in set(codes)}
    built = []
    if workers == "1":  # a wrapped builder cannot be sent to worker processes
        build = records.count
        monkeypatch.setattr(records, "count",
                            lambda p, **caps: built.append(p["graph"]) or build(p, **caps))
    code, out, _ = run_cli(["count", "--input", str(stream), "-r", "6", "--workers", workers],
                           capsys)
    assert code == 0
    assert out == "".join(single[c] for c in codes)
    stored = [json.loads(line)["payload"]["graph"]
              for line in isolated_cache.read_text().splitlines()]
    assert stored == ["C~", "Bw"]
    assert built == ([] if workers == "2" else ["C~", "Bw"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_refused_batch_item_keeps_the_finished_results(workers, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "f.jsonl")
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nE~~w\n"))  # E~~w: over the work cap
    code, out, err = run_cli(["count", "--input", "-", "-r", "12", "--workers", workers,
                              "--cache", path], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "cap-exceeded"
    single = run_cli(["count", "--graph", "C~", "-r", "12", "--no-cache"], capsys)[1]
    code, out, err = run_cli(["count", "--graph", "C~", "-r", "12", "--cache", path], capsys)
    assert (code, out) == (0, single)
    assert err.startswith("# cache hit ")


def test_batch_reads_the_cache_file_once(tmp_path, capsys, monkeypatch):
    codes = [write_graph6(g) for g in enumerate_graphs(4)]
    stream = tmp_path / "classes.g6"
    stream.write_text("\n".join(codes) + "\n")
    argv = ["count", "--input", str(stream), "-r", "5"]
    run_json(argv, capsys)  # every class stored
    opened = []
    monkeypatch.setattr(cache_module, "open",
                        lambda path, mode="r", **kw: opened.append(mode) or open(path, mode, **kw),
                        raising=False)
    recs, err = run_json(argv, capsys)
    assert len(recs) == len(codes) == err.count("# cache hit")
    assert opened == ["rb"]


def test_batch_appends_its_new_records_with_one_open(isolated_cache, tmp_path, capsys,
                                                     monkeypatch):
    codes = [write_graph6(g) for g in enumerate_graphs(4)]
    stream = tmp_path / "classes.g6"
    stream.write_text("\n".join(codes) + "\n")
    opened = []
    monkeypatch.setattr(cache_module, "open",
                        lambda path, mode="r", **kw: opened.append(mode) or open(path, mode, **kw),
                        raising=False)
    recs, _ = run_json(["count", "--input", str(stream), "-r", "5"], capsys)
    assert len(codes) == 11
    assert opened == ["ab"]
    # whole lines in input order, each one record as sorted compact JSON
    lines = isolated_cache.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == len(codes)
    for code, rec, line in zip(codes, recs, lines):
        expect = {
            "fingerprint": fingerprint("count", {"graph": code, "r": 5, "k": 4}, cli.__version__),
            "op": "count",
            "payload": rec,
            "version": cli.__version__,
            "timestamp": json.loads(line)["timestamp"],
        }
        assert line == json.dumps(expect, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cached_payload_that_is_not_an_object_is_a_miss(fmt, isolated_cache, capsys):
    argv = ["count", "--graph", "C~", "-r", "6", "--format", fmt]
    expect = run_cli([*argv, "--no-cache"], capsys)[1]
    fp = fingerprint("count", {"graph": "C~", "r": 6, "k": 4}, cli.__version__)
    ResultCache(str(isolated_cache)).store("count", [(fp, [1, 2])], cli.__version__)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, expect) and "cache hit" not in err
    # recomputed and appended, so the next call is a hit on the new record
    payloads = [json.loads(line)["payload"] for line in isolated_cache.read_text().splitlines()]
    assert payloads == [[1, 2], {"op": "count", "graph": "C~", "r": 6, "k": 4, "count": "45936"}]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, expect) and err.startswith("# cache hit ")



@pytest.mark.parametrize("payload", [{}, {"op": "poly", "graph": "C~", "k": 4, "edges": 6,
                                          "coefficients": ["1"]}], ids=["empty", "other-op"])
def test_cached_payload_of_another_record_is_a_miss(payload, isolated_cache, capsys):
    argv = ["count", "--graph", "C~", "-r", "6"]
    expect = run_cli([*argv, "--no-cache"], capsys)[1]
    fp = fingerprint("count", {"graph": "C~", "r": 6, "k": 4}, cli.__version__)
    ResultCache(str(isolated_cache)).store("count", [(fp, payload)], cli.__version__)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, expect) and "cache hit" not in err
    payloads = [json.loads(line)["payload"] for line in isolated_cache.read_text().splitlines()]
    assert payloads == [payload, json.loads(expect)]

def _stress_writer(args):
    path, worker = args
    cache = ResultCache(path)
    for i in range(25):
        fp = fingerprint("stress", {"worker": worker, "i": i}, "0")
        cache.store("stress", [(fp, {"worker": worker, "i": i})], "0")
    return worker


def test_cache_concurrent_append_atomicity(tmp_path):
    path = str(tmp_path / "stress.jsonl")
    with multiprocessing.Pool(4) as pool:
        pool.map(_stress_writer, [(path, w) for w in range(4)])
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 100
    recs = [json.loads(line) for line in lines]  # no torn lines
    assert len({r["fingerprint"] for r in recs}) == 100


def test_rtl_cache_env_is_honored(isolated_cache, capsys):
    assert not os.path.exists(isolated_cache)
    run_cli(["count", "--graph", K4_G6, "-r", "6"], capsys)
    assert os.path.exists(isolated_cache)


# ---------------------------------------------------------------------------
# exit codes and error JSON


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(["count", "--graph", "D", "-r", "6"], capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"]["type"] == "parse-error"


def test_exit_code_cap_exceeded(tmp_path, capsys):
    big = write_graph6(parse_graph6(write_graph6(complete_graph(6))))
    code, _, err = run_cli(["poly", "--graph", big], capsys)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "cap-exceeded"
    code, _, err = run_cli(["count", "--graph", big, "-r", "12", "--work-cap", "100"], capsys)
    assert code == 3


def test_closeness_above_the_exact_cap_is_refused(capsys):
    # T3(15) and one edge inside a class: one vertex over the default cap
    argv = ["closeness", "--graph", "N_B~vrw}F~~}~{~{^}?", "-k", "3", "--no-cache"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "type": "cap-exceeded", "message": "15 vertices exceeds exact cap 14"
    }
    recs, _ = run_json([*argv, "--exact-cap", "15"], capsys)
    assert recs[0]["internal_edges"] == 1 and recs[0]["exact"] is True


def test_work_cap_counts_blocks(capsys):
    # two K4s sharing a vertex: the blocks cost 2 * 2 inclusion-exclusion leaves
    recs, _ = run_json(["count", "--graph", "F~CWw", "-r", "12", "--work-cap", "1000"], capsys)
    assert recs[0]["count"] == str(count_colorings(complete_graph(4), 12, 4) ** 2)


def test_search_empty_input_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, out, err = run_cli(["search", "-n", "5", "-r", "6", "--input", str(empty)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "invalid-argument", "message": "no graphs to search"}


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "-n", "4", "-r", "6", "--save-table", "{tmp}/missing/x.jsonl"],
        ["count", "--graph", "C~", "-r", "6", "--cache", "{tmp}/file/c.jsonl"],
    ],
    ids=["save-table", "cache"],
)
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid-argument"
    assert "Traceback" not in err


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(["count", "--graph", K4_G6, "-r", "99"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "invalid-argument"
    with pytest.raises(SystemExit) as exc:
        cli.main(["definitely-not-a-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("r", ["-3", "0", "65"])
@pytest.mark.parametrize("materialize", [[], ["--materialize"]])
def test_out_of_range_color_count_is_one_usage_error(r, materialize, capsys):
    argv = ["container-stats", "--graph", "C~", "-r", r, *materialize, "--no-cache"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "invalid-argument", "message": f"color count {r} outside 1..64"
    }


def test_supersat_impossible_edge_count_is_usage_error(capsys):
    for e in ("-5", "16"):
        code, out, err = run_cli(["supersat", "-n", "6", "-t", "1", "-k", "3", "-e", e], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "invalid-argument"


@pytest.mark.parametrize(
    "argv",
    [[sub, "--graph", "C~", "--input", "classes.g6", *rest] for sub, *rest in (
        ["count", "-r", "6"], ["poly"], ["cliques", "-k", "3"], ["closeness", "-k", "3"],
        ["container-stats", "-r", "6"])]
    + [["clean", "--template", "t.json", "--xi", "1/100", "--delta", "1/2"]],
    ids=["count", "poly", "cliques", "closeness", "container-stats", "clean"],
)
def test_conflicting_inputs_are_usage_errors(argv, capsys):
    # neither input is dropped in favour of the other: both is refused
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_usage_error(workers, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--graph", "C~", "-r", "6", "--workers", workers, "--no-cache"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --workers: must be at least 1" in err


def test_pools_start_no_more_workers_than_items(capsys, monkeypatch):
    # a fork pool starts max_workers processes up front; this stand-in
    # records the size asked for and maps in this process, starting none
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nBw\n"))
    recs, _ = run_json(["count", "--input", "-", "-r", "6", "--workers", "64", "--no-cache"],
                       capsys)
    assert [rec["graph"] for rec in recs] == ["C~", "Bw"]
    recs, _ = run_json(["search", "-n", "3", "-r", "6", "--workers", "64", "--no-cache"], capsys)
    assert recs[0]["classes"] == 4
    assert sizes == [2, 4]


def test_missing_graph_input_is_parse_error(capsys):
    code, _, err = run_cli(["count", "-r", "6"], capsys)
    assert code == 4


def test_empty_graph_is_a_graph6_error_not_a_missing_one(capsys):
    code, out, err = run_cli(["count", "--graph", "", "-r", "6"], capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == {
        "type": "parse-error", "message": "empty graph6 string (byte offset 0)"
    }


@pytest.mark.parametrize("argv", [["count", "-r", "6"], ["search", "-n", "4", "-r", "6"]],
                         ids=["count", "search"])
def test_empty_input_path_is_a_read_error(argv, capsys):
    # an empty path is a path that cannot be read, not a missing --input
    code, out, err = run_cli([*argv, "--input", ""], capsys)
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "parse-error" and error["message"].startswith("cannot read : ")


def test_template_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"graph\": \"C~\", \"r\": 6}")
    code, _, err = run_cli(["template-stats", "--template", str(bad)], capsys)
    assert code == 4
    for r, color in ((12.7, 1), ("7", 1), (12, True), (12, 1.0)):
        bad.write_text(json.dumps({"graph": "C~", "r": r, "lists": [[color]] * 6}))
        code, out, err = run_cli(["template-stats", "--template", str(bad), "--no-cache"], capsys)
        assert code == 4 and out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("bad template JSON: ") and "must be an integer" in message


@pytest.mark.parametrize("graph", [5, None, ["C~"]], ids=["number", "null", "list"])
@pytest.mark.parametrize("argv", [["template-stats"], ["clean", "--xi", "1/100"], ["critical"]],
                         ids=["template-stats", "clean", "critical"])
def test_template_graph_that_is_not_a_string_is_parse_error(graph, argv, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"graph": graph, "r": 6, "lists": []}))
    code, out, err = run_cli([*argv, "--template", str(path), "--no-cache"], capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == {
        "type": "parse-error",
        "message": f"bad template JSON: graph must be a graph6 string, not {graph!r}",
    }


# ---------------------------------------------------------------------------
# documentation

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """Argument lists of the README's command-line block, with each
    [optional part] both left out and put in."""
    block = README.split("## Command line", 1)[1].split("```")[1]
    runs = []
    for line in block.splitlines():
        if not line.startswith("rtl "):
            continue
        for variant in (re.sub(r"\[[^]]*\]", "", line), re.sub(r"\[([^]]*)\]", r"\1", line)):
            argv = shlex.split(variant, comments=True)[1:]
            if argv not in runs:
                runs.append(argv)
    return runs


README_RUNS = _readme_commands()


def test_readme_lists_every_subcommand():
    cached = {argv[0] for argv, _ in CACHED_RUNS}
    assert {argv[0] for argv in README_RUNS} == cached | {"bounds-compare"}


@pytest.mark.parametrize("argv", README_RUNS, ids=[" ".join(a) for a in README_RUNS])
def test_readme_command_runs(argv, tmp_path, capsys):
    files = {
        "classes.g6": ">>graph6<<\n" + "\n".join(write_graph6(g) for g in enumerate_graphs(4)),
        "t.json": README.split("```json", 1)[1].split("```")[0],
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out


# ---------------------------------------------------------------------------
# console script wiring


def _child_env(**extra):
    """The environment of a child that imports the same rtlab as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_console_script_subprocess(tmp_path):
    env = _child_env(RTL_CACHE=str(tmp_path / "c.jsonl"))
    proc = subprocess.run(
        [sys.executable, "-m", "rtlab.cli", "count", "--graph", K4_G6, "-r", "6"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "45936"


def test_cli_import_starts_no_process_machinery():
    # the process pool is imported only where --workers > 1 starts one, and
    # csv only where --format csv writes
    code = (
        "import sys, rtlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'csv')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_single_count_runs_in_one_process():
    # --workers parallelizes batch items only; one graph is counted in the
    # calling process, so no pool machinery is even imported
    code = (
        "import sys; from rtlab import cli; "
        "rc = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')), file=sys.stderr); "
        "sys.exit(rc)"
    )
    outs = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code, "count", "--graph", "D~{", "-r", "12",
             "--workers", workers, "--no-cache"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["count"] == str(count_colorings(complete_graph(5), 12))


def test_console_script_runs_the_process_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"\[project\.scripts\]\n(.*?)\n\n", pyproject, re.S)
    assert scripts.group(1) == 'rtl = "rtlab.cli:run"'


# what `python -m rtlab.cli` ran before it had a process entry of its own
_MAIN_ONLY = "import sys; from rtlab import cli; sys.exit(cli.main())"


# K12's 792 5-cliques: more output than one buffer of stdout holds
_LARGE = ["cliques", "--graph", "K~~~~~~~~~~~", "-k", "5", "--list"]
# the one field of a cache line that differs between two runs
_STAMP = re.compile(r'"timestamp":"[^"]*"')


@pytest.mark.parametrize("argv, code, hit", [
    (["count", "--graph", "C~", "-r", "6"], 0, False),
    (["--version"], 0, False),
    (["count", "--graph", "C~"], 2, False),  # -r is required
    (["count", "--graph", "C~", "-r", "6", "--work-cap", "1"], 3, False),
    (["count", "--graph", "", "-r", "6"], 4, False),
    (["--help"], 0, False),
    (["count", "--graph", "C~", "-r", "6"], 0, True),
    (_LARGE, 0, False),
    ([*_LARGE, "--format", "csv"], 0, False),
    (["search", "-n", "5", "-r", "6", "--save-table", "table.jsonl"], 0, False),
], ids=["record", "version", "usage", "cap", "parse", "help", "hit", "large", "large-csv",
        "save-table"])
def test_process_entry_keeps_output_and_exit_code(argv, code, hit, tmp_path):
    runs, files = [], []
    for name, head in (("entry", ["-m", "rtlab.cli"]), ("main", ["-c", _MAIN_ONLY])):
        cwd = tmp_path / name
        cwd.mkdir()
        env = _child_env(RTL_CACHE=str(cwd / "cache.jsonl"))
        for _ in range(1 + hit):  # a hit is the second call on one cache
            proc = subprocess.run([sys.executable, *head, *argv], capture_output=True,
                                  text=True, env=env, cwd=cwd)
        runs.append(proc)
        files.append({f.name: _STAMP.sub("", f.read_text()) for f in cwd.iterdir()})
    entry, main = runs
    assert (entry.returncode, entry.stdout, entry.stderr) == (main.returncode, main.stdout,
                                                              main.stderr)
    assert files[0] == files[1]
    assert entry.returncode == code
    if argv == ["--version"]:
        assert entry.stdout == f"rtl {cli.__version__}\n"
    elif argv == ["--help"]:
        assert entry.stdout.startswith("usage: rtl ")
    elif code:
        assert entry.stdout == "" and entry.stderr
    elif argv[0] == "cliques":
        assert len(entry.stdout) > 8192
    elif argv[0] == "search":
        table = files[0]["table.jsonl"].splitlines()
        assert len(table) == json.loads(entry.stdout)["classes"] == 34
        assert set(files[0]) == {"cache.jsonl", "table.jsonl"}
    else:
        assert json.loads(entry.stdout)["count"] == "45936"
        fp = fingerprint("count", {"graph": "C~", "r": 6, "k": 4}, cli.__version__)
        assert entry.stderr == (f"# cache hit {fp}\n" if hit else "")


@pytest.mark.parametrize("argv, stdin", [
    (["count", "--input", "-", "-r", "6", "--workers", "2"], "C~\nBw\n"),
    (["search", "-n", "4", "-r", "6", "--workers", "2"], ""),
], ids=["count", "search"])
def test_no_process_outlives_the_process_entry(argv, stdin):
    # run() ends the process without joining anything, so a pool worker left
    # running would hold stdout's pipe open and the read would never see EOF
    proc = subprocess.run([sys.executable, "-m", "rtlab.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    if argv[0] == "count":
        assert [rec["count"] for rec in records] == ["45936", "216"]
    else:
        assert [(rec["classes"], rec["best_count"]) for rec in records] == [(11, "45936")]


@pytest.mark.parametrize("argv, stdin", [
    (["count", "--graph", "C~", "-r", "6", "--no-cache"], ""),
    (["count", "--input", "-", "-r", "6", "--workers", "2", "--no-cache"], "C~\nBw\n"),
], ids=["one", "pool"])
def test_process_entry_freezes_at_the_end_and_runs_atexit_handlers(argv, stdin):
    code = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        "runpy.run_module('rtlab.cli', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert json.loads(proc.stdout.splitlines()[0])["count"] == "45936"


def test_main_in_process_never_freezes_the_collector():
    # library callers, the tests and the traced bench call main() many
    # times in one process: their cyclic garbage must stay collectable
    code = (
        "import gc, sys; from rtlab import cli\n"
        "assert cli.main(['count', '--graph', 'C~', '-r', '6', '--no-cache']) == 0\n"
        "try:\n"
        "    cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print('frozen', gc.get_freeze_count(), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "frozen 0\n"
    assert proc.stdout.splitlines()[1] == f"rtl {cli.__version__}"


def _unwritable_stdout_exit(argv, target, unbuffered):
    """(exit code, stderr) of `rtl ARGV` with stdout on a full device
    (ENOSPC) or a pipe without a reader (EPIPE); buffered, the write fails
    at the final flush, unbuffered in the write."""
    if target == "/dev/full":
        if not os.path.exists(target):
            pytest.skip("no /dev/full")
        fd = os.open(target, os.O_WRONLY)
    else:
        reader, fd = os.pipe()
        os.close(reader)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "rtlab.cli", *argv],
                              stdout=fd, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(fd)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_is_one_usage_error(target, unbuffered):
    code, err = _unwritable_stdout_exit(["count", "--graph", "C~", "-r", "6", "--no-cache"],
                                        target, unbuffered)
    assert code == 2, err
    assert json.loads(err)["error"]["type"] == "invalid-argument"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_unwritable_stdout_after_argparse_output_is_one_usage_error(flag, unbuffered):
    # argparse writes these and exits 0; on its own it drops a failed write
    code, err = _unwritable_stdout_exit([flag], "/dev/full", unbuffered)
    assert code == 2, err
    assert json.loads(err)["error"]["type"] == "invalid-argument"


# run `rtl ARGV` as the console script does, then list the loaded modules on
# stderr's last line
_LOAD_SET = (
    "import atexit, json, runpy, sys; "
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr)); "
    "runpy.run_module('rtlab.cli', run_name='__main__')"
)


def _loaded(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_SET, *argv],
        capture_output=True,
        text=True,
        env=_child_env(RTL_CACHE=str(tmp_path / "c.jsonl")),
    )
    assert proc.returncode == 0, proc.stderr
    *diagnostics, modules = proc.stderr.splitlines()
    return set(json.loads(modules)), diagnostics


# a keyed command hashes its key with CPython's built-in SHA-256 (_sha2 on
# 3.12+, _sha256 before), never through hashlib, which loads OpenSSL
_BUILTIN_SHA = {"_sha2", "_sha256"}
_OPENSSL = {"hashlib", "_hashlib"}


@pytest.fixture(scope="module")
def startup_modules(tmp_path_factory):
    """What `rtl --version` loads: the interpreter, numpy and `random`, which
    takes its SHA-512 from _sha2 on 3.12+."""
    return _loaded(["--version"], tmp_path_factory.mktemp("version"))[0]


# numpy and rows load at start, because bench/run.py::import_times reads
# numpy's line from `import rtlab.cli`; containers, and fractions and decimal
# with it, load only where a container record or a rational is built
_START = {"numpy", "rtlab.errors", "rtlab.rows"}
_NOT_RUN = {"rtlab.containers", "fractions", "decimal"}


@pytest.mark.parametrize("argv, loads, skips", [
    (["--version"], _START,
     {"rtlab.cleaning", "rtlab.counting", "rtlab.cache", "rtlab.graphs", "rtlab.templates",
      "rtlab.exactmath", "rtlab.records", *_NOT_RUN, *_OPENSSL}),
    (["count", "--graph", "C~", "-r", "6", "--no-cache"],
     {*_START, "rtlab.records", "rtlab.counting", "rtlab.graphs"},
     {"rtlab.cleaning", "rtlab.templates", "rtlab.exactmath", *_NOT_RUN, *_OPENSSL}),
    # counting and templates hold their own combinatorial helpers; only the
    # certified arithmetic of cleaning and the container thresholds loads exactmath
    (["poly", "--graph", "C~", "--no-cache"], {*_START, "rtlab.counting"},
     {"rtlab.exactmath", *_NOT_RUN}),
    (["search", "-n", "4", "-r", "6", "--no-cache"], {*_START, "rtlab.counting"},
     {"rtlab.exactmath", *_NOT_RUN}),
    # bounds-compare computes its record directly and reads no cache
    (["bounds-compare", "-r", "12", "-k", "4"], {"rtlab.counting"},
     {"rtlab.exactmath", "rtlab.cache"}),
    (["container-stats", "--graph", "C~", "-r", "6", "--no-cache"],
     {"rtlab.containers", "rtlab.graphs"}, {"rtlab.exactmath"}),
    (["container-stats", "--graph", "C~", "-r", "6", "--materialize", "--no-cache"],
     {"rtlab.containers", "rtlab.templates"}, {"rtlab.exactmath"}),
    (["container-threshold", "-r", "6", "--no-cache"], {"rtlab.containers", "rtlab.exactmath"},
     {"rtlab.counting"}),
    (["supersat", "-n", "6", "-t", "1", "-k", "3", "-e", "15", "--no-cache"], {"rtlab.cleaning"},
     {"rtlab.counting", *_OPENSSL}),
], ids=["version", "count", "poly", "search", "bounds-compare", "container-stats",
        "container-stats-materialize", "container-threshold", "supersat"])
def test_command_loads_only_the_modules_it_runs(argv, loads, skips, tmp_path, startup_modules):
    loaded, _ = _loaded(argv, tmp_path)
    assert loads <= loaded
    assert not skips & loaded
    if "--no-cache" in argv:
        # keys that only deduplicate the batch are not hashed, and no cache is read
        assert "rtlab.cache" not in loaded
        assert not (_BUILTIN_SHA | _OPENSSL) & (loaded - startup_modules)


def test_cache_hit_loads_no_compute_module(tmp_path):
    argv = ["count", "--graph", "C~", "-r", "6"]
    loaded, diagnostics = _loaded(argv, tmp_path)
    assert "rtlab.counting" in loaded and diagnostics == []
    assert _BUILTIN_SHA & loaded and not _OPENSSL & loaded
    loaded, diagnostics = _loaded(argv, tmp_path)
    assert diagnostics[0].startswith("# cache hit ")
    assert {*_START, "rtlab.cache"} <= loaded
    assert _BUILTIN_SHA & loaded
    assert not {"rtlab.counting", "rtlab.cleaning", "rtlab.graphs", "rtlab.templates",
                "rtlab.exactmath", "rtlab.records", *_NOT_RUN, *_OPENSSL} & loaded
