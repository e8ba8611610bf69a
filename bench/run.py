"""rtlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/rtlab; rtlab need not be
installed.  Inputs come from --seed (see workloads.py).  Each pass runs
every job of the workload against a fresh copy of the seeded cache file,
so each misses and stores; then the jobs are asked again and answered from
the cache: all of them on a workload that repeats its queries, else the
first workloads.HIT_PROBES of them as probes of the cache path.  Passes
repeat, one client at a time, until --seconds would be exceeded (at least
one pass).  Every answer goes through the gate.

--trace 0: jobs are `python -m rtlab.cli` subprocesses with
  PYTHONPATH=<checkout>/src, --workers 1 and an explicit --cache inside a
  temporary directory.  Prints the end-to-end metrics of BENCHMARK.json,
  in reference seconds (see below).
--trace 1: the same jobs call rtlab.cli.main in this process, alternating
  an untraced pass with a traced one (spans.py); prints the per-layer metrics of
  BENCHMARK.json (medians over traced passes) and writes the spans of the
  last traced pass to .bench_run/spans-<workload>-<seed>.jsonl.gz.

Reference seconds.  A small shared VM runs the same code up to half again
as fast in one minute as in the next, in CPU time as much as in wall
time, which no run length averages out.  So right before and right after
each child the driver times two reference tasks, REF_REPEATS times each:
a fixed pure-Python loop, which tracks how fast Python code runs, and
starting and reaping a process that runs `true`, which tracks process
start, the larger part of a short query.  The child's wall and CPU times
are multiplied by the geometric mean of REF_LOOP_S / (median loop time)
and REF_SPAWN_S / (median spawn time): a time in reference seconds is
what the child would have taken on a machine that does the two tasks in
REF_LOOP_S and REF_SPAWN_S.  The tasks are benchmark code that calls
nothing in rtlab, so a change to the program moves the child's time and
not the scale.  Memory is not scaled.  The per-layer metrics of --trace 1
are plain seconds.

The last stdout line is the result object; progress goes to stderr.
Everything is written under <checkout>/.bench_run and the temporary
directory is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PER_PASS = 3
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every job must finish inside this, from the start of the run
REF_ITERATIONS = 50_000  # one reference loop: 3-5 ms of CPython 3.11 on a 2-vCPU x86-64 VM
REF_REPEATS = 4  # times each reference task runs before, and again after, each child
REF_LOOP_S = 0.003  # the reference speed: one loop in this many seconds
REF_SPAWN_S = 0.0008  # and one start of `true` in this many
TRUE = shutil.which("true") or "/bin/true"


@dataclass
class Sample:
    job: workloads.Job
    round: str  # "miss" (first round), "hit" (repeated query) or "probe" (hit, not a job)
    wall: float
    cpu: float = 0.0
    maxrss_kb: int = 0
    error: str = None  # None when the job exited 0 and passed the gate
    stdout: str = ""
    scale: float = 1.0  # reference seconds per second, around this invocation


def _reference() -> tuple:
    """Wall times of the two reference tasks: a fixed loop of pure-Python
    integer arithmetic, and starting and reaping a process that runs `true`."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    looped = time.perf_counter()
    os.waitpid(os.posix_spawn(TRUE, [TRUE], {}), 0)
    return looped - start, time.perf_counter() - looped


def _scaled_child(argv, env, cwd: Path, deadline: float):
    """_child, timed between two sets of reference tasks; returns
    (scale, _child's result)."""
    refs = [_reference() for _ in range(REF_REPEATS)]
    got = _child(argv, env, cwd, deadline)
    refs += [_reference() for _ in range(REF_REPEATS)]
    loop = statistics.median(r[0] for r in refs)
    spawn = statistics.median(r[1] for r in refs)
    return math.sqrt(REF_LOOP_S / loop * REF_SPAWN_S / spawn), got


# ---------------------------------------------------------------------------
# subprocess runs

def _child(argv, env, cwd: Path, deadline: float):
    """Run `rtl argv`; returns (wall, cpu, maxrss_kb, exit code, stdout, stderr)
    with cpu and maxrss taken from the child's wait4 rusage."""
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rtlab.cli", *argv], stdout=out, stderr=err, env=env, cwd=cwd
        )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _cache_args(cache: Path):
    return ["--workers", "1", "--cache", str(cache)]


def plan(wl: workloads.Workload) -> list:
    """(job, round) for every invocation of one pass, in order."""
    again = [(job, "hit") for job in wl.jobs] if wl.repeat else [
        (job, "probe") for job in wl.jobs[: workloads.HIT_PROBES]]
    return [(job, "miss") for job in wl.jobs] + again


def subprocess_pass(wl, tmp: Path, seed_cache: Path, env, deadline: float) -> list:
    cache = tmp / "cache.jsonl"
    shutil.copyfile(seed_cache, cache)
    samples = []
    for job, rnd in plan(wl):
        if time.monotonic() >= deadline:
            samples.append(Sample(job, rnd, 0.0, error="run time limit reached"))
            continue
        scale, (wall, cpu, rss, code, out, err) = _scaled_child(
            [*job.argv, *_cache_args(cache)], env, tmp, deadline)
        error = f"exit {code}: {err.strip()[-300:]}" if code else None
        samples.append(Sample(job, rnd, wall, cpu, rss, error, out, scale))
    return samples


# ---------------------------------------------------------------------------
# in-process runs (trace 1)

def inprocess_pass(wl, tmp: Path, seed_cache: Path, tracer=None) -> list:
    from rtlab import cli

    cache = tmp / "cache.jsonl"
    shutil.copyfile(seed_cache, cache)
    samples = []
    for i, (job, rnd) in enumerate(plan(wl)):
        if tracer:
            tracer.job = f"{i}:{rnd}:{job.name}"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*job.argv, *_cache_args(cache)])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing job is a failed job, not a crashed benchmark
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        error = f"exit {code}: {err.getvalue().strip()[-300:]}" if code else None
        samples.append(Sample(job, rnd, wall, error=error, stdout=out.getvalue()))
    return samples


def import_times(env, cwd: Path) -> dict:
    """Cumulative import time of rtlab and numpy from `python -X importtime`
    in a fresh interpreter, median of IMPORT_SAMPLES."""
    got = {"import.rtlab_s": [], "import.numpy_s": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rtlab.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("rtlab", "numpy"):
                got[f"import.{fields[2].strip()}_s"].append(int(fields[1]) / 1e6)
    return {k: statistics.median(v) for k, v in got.items()}


# ---------------------------------------------------------------------------
# metrics

def _quantile(values, which):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[which]


def end_to_end(setup, passes) -> dict:
    """Times are in reference seconds; setup holds them already.  Every time
    but setup_s is taken from each invocation's median over the run's
    passes.  wall_s and cpu_s sum those over the workload's jobs; job_s
    quantiles are across them; probes count only in hit_s."""
    rounds = [s.round for s in passes[0]]
    wall = [statistics.median(p[i].wall * p[i].scale for p in passes) for i in range(len(rounds))]
    cpu = [statistics.median(p[i].cpu * p[i].scale for p in passes) for i in range(len(rounds))]
    jobs = [i for i, rnd in enumerate(rounds) if rnd != "probe"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(wall[i] for i in jobs),
        "cpu_s": sum(cpu[i] for i in jobs),
        "peak_rss_mb": max(s.maxrss_kb for p in passes for s in p) / 1024,
        "job_s.p50": _quantile([wall[i] for i in jobs], 1),
        "job_s.p75": _quantile([wall[i] for i in jobs], 2),
        "hit_s.p50": statistics.median(w for w, rnd in zip(wall, rounds) if rnd != "miss"),
        "miss_s.p50": statistics.median(w for w, rnd in zip(wall, rounds) if rnd == "miss"),
    }


def per_layer(per_pass: list, plain_walls, traced_walls, imports: dict) -> dict:
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    # each traced pass runs next to its untraced twin, first and second in
    # turn, so the pairwise difference cancels most of the machine's slow
    # speed drift
    out["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain_walls, traced_walls))
    out.update(imports)
    return out


def report(samples) -> None:
    """Median wall time per job and round, in seconds and in reference
    seconds, to stderr."""
    times = {}
    for s in samples:
        times.setdefault((s.job.name, s.round), []).append(s)
    for (name, rnd), got in times.items():
        wall = statistics.median(s.wall for s in got)
        ref = statistics.median(s.wall * s.scale for s in got)
        print(f"{wall:8.3f} s {ref:8.3f} ref-s  {rnd:5}  {name}", file=sys.stderr)


def apply_gate(samples, check) -> None:
    for s in samples:
        if s.error is None:
            s.error = check(s.job, s.stdout)
        if s.error:
            print(f"FAIL {s.job.name} ({s.round}): {s.error}", file=sys.stderr)


def result(spec_metrics, values: dict, samples) -> dict:
    failed = sum(1 for s in samples if s.error)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


# ---------------------------------------------------------------------------

def _repeat(seconds: float, one_pass):
    """Run passes until another would end past `seconds`; at least one."""
    t0 = time.perf_counter()
    out = []
    while True:
        out.append(one_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(out) > seconds:
            return out


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RTL_CACHE", None)
    wl = workloads.build(workload, seed, tmp)
    seed_cache = tmp / "seed-cache.jsonl"
    workloads.write_cache_file(seed_cache, random.Random(f"cache:{seed}"), wl.cache_records)
    check = gate.Gate()

    if not trace:
        _child(["--version"], env, tmp, deadline)  # compiles bytecode; not timed
        setup = []

        def one_pass():
            # set-up samples are spread over the run, SETUP_PER_PASS before each pass
            for _ in range(SETUP_PER_PASS):
                scale, got = _scaled_child(["--version"], env, tmp, deadline)
                setup.append(got[0] * scale)
            return subprocess_pass(wl, tmp, seed_cache, env, deadline)

        passes = _repeat(seconds, one_pass)
        samples = [s for p in passes for s in p]
        report(samples)
        apply_gate(samples, check)
        return result(spec["end_to_end"], end_to_end(setup, passes), samples)

    imports = import_times(env, tmp)
    plain_walls, traced_walls, per_pass, samples = [], [], [], []
    tracer = None

    def traced_pass():
        nonlocal tracer
        tracer = spans.Tracer()
        tracer.install()
        try:
            return inprocess_pass(wl, tmp, seed_cache, tracer)
        finally:
            tracer.uninstall()

    def pair():
        if len(plain_walls) % 2:
            traced = traced_pass()
            plain = inprocess_pass(wl, tmp, seed_cache)
        else:
            plain = inprocess_pass(wl, tmp, seed_cache)
            traced = traced_pass()
        plain_walls.append(sum(s.wall for s in plain))
        traced_walls.append(sum(s.wall for s in traced))
        per_pass.append(spans.layer_metrics(tracer.spans, tracer.counters))
        samples.extend(plain + traced)

    _repeat(seconds, pair)
    RUN_DIR.mkdir(exist_ok=True)
    tracer.write(RUN_DIR / f"spans-{workload}-{seed}.jsonl.gz")
    report(samples)
    apply_gate(samples, check)
    return result(spec["per_layer"], per_layer(per_pass, plain_walls, traced_walls, imports), samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rtlab" / "cli.py").is_file():
        print(f"bench: no rtlab sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    # rtlab calls no BLAS routine, but numpy's OpenBLAS starts a worker per
    # CPU at import; on two shared CPUs those workers compete with the main
    # thread and made interpreter start vary twofold under outside load.
    # Children inherit the setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a terminated run still removes its directory and its child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
