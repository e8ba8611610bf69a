"""Tests of the benchmark itself: the answer gate, span self-time
arithmetic, and that a run emits every metric BENCHMARK.json names."""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import gate
import run
import spans
import workloads
from workloads import Job


def _cli(argv) -> str:
    from rtlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--no-cache"]) == 0
    return out.getvalue()


def _corrupt(stdout: str, edit) -> str:
    rec = json.loads(stdout)
    edit(rec)
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def test_gate_rejects_corrupted_answers(tmp_path):
    count = Job("count", ("count",), ("count", workloads.K4_R12 ** 2))
    assert gate.check(count, '{"count":"%d"}\n' % workloads.K4_R12 ** 2) is None
    assert gate.check(count, '{"count":"%d"}\n' % (workloads.K4_R12 ** 2 + 1))

    digest = Job("d", (), ("digest", gate.sha256('{"a":1}\n')))
    assert gate.check(digest, '{"a":1}\n') is None
    assert gate.check(digest, '{"a":2}\n')

    threshold = workloads.fixed("container-threshold -r 12")
    good = '{"min_n":"%d"}\n' % workloads.MIN_N
    assert gate.check(Job("t", (), ("threshold", workloads.MIN_N, gate.sha256(good))), good) is None
    assert gate.check(threshold, '{"min_n":"%d"}\n' % (workloads.MIN_N - 1))

    codegrees = Job("c", (), ("codegrees", 4, 6))
    stdout = _cli(["container-stats", "--graph", "C~", "-r", "6", "--materialize"])
    assert gate.check(codegrees, stdout) is None
    assert gate.check(codegrees, _corrupt(stdout, lambda r: r["max_codegrees"].__setitem__(0, "25")))

    path = tmp_path / "t.json"
    path.write_text(json.dumps(workloads.make_template(random.Random(5), 8, 8, 0.3, 2, 6, (3,))))
    for sub, edit in (
        ("template-stats", lambda r: r.__setitem__("rainbow_copies", str(int(r["rainbow_copies"]) + 1))),
        ("critical", lambda r: r["triangles"].pop()),
    ):
        argv = (sub, "--template", str(path))
        job = Job(sub, argv, (sub,))
        stdout = _cli(argv)
        assert gate.check(job, stdout) is None, sub
        assert gate.check(job, _corrupt(stdout, edit)), sub
    assert gate.Gate()(Job("x", (), ("count", 1)), "not json\n")


def test_gate_rejects_an_unexpected_clean_trace(tmp_path):
    # full lists but at vertices 2 and 5, whose lists have one colour:
    # operation 1 removes 2, then 5, and then nothing applies
    path = tmp_path / "clean.json"
    path.write_text(json.dumps(workloads.make_template(random.Random(5), 8, 8, 1.0, 8, 8, (2, 5), (1, 1))))
    argv = ("clean", "--template", str(path), "--xi", workloads.XI)
    stdout = _cli(argv)
    assert gate.check(Job("clean", argv, ("clean", (2, 5))), stdout) is None
    # a trace that replays but is not the one the template was built for
    assert gate.check(Job("clean", argv, ("clean", (2,))), stdout)
    assert gate.check(Job("clean", argv, ("clean", ())), stdout)
    # a trace edited to remove a different vertex does not replay
    step = lambda r: r["steps"][0].__setitem__("removed", [3])
    assert gate.check(Job("clean", argv, ("clean", (3, 5))), _corrupt(stdout, step))


def test_oracle_counts_distinct_choices():
    full = (1 << 12) - 1
    assert gate.distinct_choices([full] * 6) == 12 * 11 * 10 * 9 * 8 * 7
    assert gate.distinct_choices([0b1, 0b1]) == 0
    assert gate.distinct_choices([0b11, 0b11, 0b110]) == 2


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 3.0, 0, "j"],
        ["b", 4.0, 8.0, 0, "j"],
        ["c", 5.0, 6.0, 2, "j"],
        ["a", 8.5, 9.0, 0, "j"],
    ]
    totals = spans.span_totals(tree)
    assert totals["root"] == (1, 10.0, 10.0 - 2.0 - 4.0 - 0.5)
    assert totals["a"] == (2, 2.5, 2.5)
    assert totals["b"] == (1, 4.0, 3.0)
    assert totals["c"] == (1, 1.0, 1.0)
    # overlapping children are counted once, and only inside the parent
    overlap = [["p", 0.0, 4.0, -1, "j"], ["x", 1.0, 3.0, 0, "j"], ["y", 2.0, 5.0, 0, "j"]]
    assert spans.span_totals(overlap)["p"][2] == 1.0


def _small(name, seed, tmp):
    """Five short jobs that together call into every traced layer."""
    rng = random.Random(seed)
    path = tmp / "small.json"
    low = rng.sample(range(8), 2)
    path.write_text(json.dumps(workloads.make_template(rng, 8, 8, 1.0, 8, 8, low, (1, 1))))
    jobs = [workloads.fixed(cmd) for cmd in (
        "count --graph C~ -r 6", "container-stats --graph C~ -r 6 --materialize", "container-threshold -r 6")]
    jobs += [
        Job("clean", ("clean", "--template", str(path), "--xi", workloads.XI), ("clean", tuple(sorted(low)))),
        Job("critical", ("critical", "--template", str(path)), ("critical",)),
    ]
    return workloads.Workload(name, jobs)


def test_every_named_metric_is_emitted(monkeypatch, tmp_path, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(workloads, "build", _small)
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        argv = ["--workload", "compute", "--seed", "3", "--seconds", "0.1", "--trace", trace]
        assert run.main(argv) == 0
        res = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 5 + workloads.HIT_PROBES
        assert list(res["metrics"]) == [m["name"] for m in spec[section]]
        for m in spec[section]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    layer = res["metrics"]
    for name, entry in layer.items():
        if name.endswith(".self_s") or name.endswith(".calls"):
            assert entry["value"] > 0, name
    assert list(tmp_path.glob("spans-compute-3.jsonl.gz"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_latencies_are_per_invocation_medians():
    fast, slow = Job("fast", (), ("count", 1)), Job("slow", (), ("count", 1))
    passes = [
        [run.Sample(fast, "miss", 1.0 * k), run.Sample(slow, "miss", 3.0 * k), run.Sample(fast, "probe", 0.5)]
        for k in (1.0, 1.1, 0.9)
    ]
    m = run.end_to_end([0.2, 0.3, 0.25], passes)
    assert m["setup_s"] == 0.25
    assert m["wall_s"] == 4.0  # medians 1.0 + 3.0; the probe is not a job
    assert m["hit_s.p50"] == 0.5 and m["miss_s.p50"] == 2.0
    assert m["job_s.p50"] == 2.0  # between the two jobs' medians, not between samples


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # both reference tasks ran at half the reference speed, so the child's times halve
    monkeypatch.setattr(run, "_reference", lambda: (2 * run.REF_LOOP_S, 2 * run.REF_SPAWN_S))
    monkeypatch.setattr(run, "_child", lambda *args: (3.0, 2.5, 100, 0, "", ""))
    scale, got = run._scaled_child(["--version"], {}, None, 0.0)
    assert scale == 0.5 and got[0] == 3.0

    job = Job("j", (), ("count", 1))
    passes = [
        [run.Sample(job, "miss", wall, 0.9 * wall, scale=scale), run.Sample(job, "probe", wall, scale=scale)]
        for wall, scale in ((2.0, 0.5), (1.0, 1.0), (4.0, 0.25))
    ]
    m = run.end_to_end([0.2], passes)
    assert m["wall_s"] == 1.0 and m["cpu_s"] == 0.9 and m["job_s.p50"] == 1.0 and m["hit_s.p50"] == 1.0
