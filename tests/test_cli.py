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
from rtlab import cli
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
        build = cli._payload_count
        monkeypatch.setattr(cli, "_payload_count",
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
    lines = open(path).read().splitlines()
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


def test_missing_graph_input_is_parse_error(capsys):
    code, _, err = run_cli(["count", "-r", "6"], capsys)
    assert code == 4


def test_template_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"graph\": \"C~\", \"r\": 6}")
    code, _, err = run_cli(["template-stats", "--template", str(bad)], capsys)
    assert code == 4


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


def test_console_script_subprocess(tmp_path):
    # the child imports the same rtlab as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, RTL_CACHE=str(tmp_path / "c.jsonl"), PYTHONPATH=path)
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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, rtlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'csv')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_single_count_runs_in_one_process():
    # --workers parallelizes batch items only; one graph is counted in the
    # calling process, so no pool machinery is even imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
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
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["count"] == str(count_colorings(complete_graph(5), 12))
