"""Workload definitions and seeded input generation.

Every input a run uses is made here from the run's seed: vertex
relabelings of the named hosts, colour-list templates and the cache file.
A job is one `rtl` invocation plus the answer check the gate applies to
its stdout.  Jobs run in a closed loop with one client and `--workers 1`.

Why each workload exists (also recorded in BENCHMARK.json):

* compute: the long exact computations, one group of jobs per layer.
  - counting: set-partition enumeration.  The pendant-path host has free
    edges, the two-K4 host splits into two blocks, K5 does not split, and
    the n=5 search covers all 34 classes, so a free-edge,
    block-factorization or inclusion-exclusion engine, or a cost model that
    picks the wrong one, each shows on some job.
  - containers: row materialization and co-degree counting (K5, K6-e),
    the structural path (K6) and the threshold search (plus `exactmath`
    intervals); peak memory is set here.
  - cleaning: `templates.count_distinct_choices` called from the `cleaning`
    triangle scans; the stepped template rebuilds state on every step.
* interactive: short queries whose time is interpreter start, imports,
  `cli` and `cache`; the bypass prediction for every compute-layer change.

Both workloads touch every layer, so every per-layer metric is measured on
each.  Jobs take a few seconds at most, so one run repeats each of them
several times and reports medians.

On interactive every query runs twice per pass, a miss that stores and a
hit that reads.  On compute every job runs once; HIT_PROBES of them are
then asked again, and those cache hits measure interpreter start plus a
lookup in a small cache, nothing of the compute layers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

R_CLEAN = 12
XI = "1/100"

# Hosts of the count-engine workload with their exact counts at r=12.
# count(K4, 12) = 2320704; a pendant path of 5 free edges multiplies it by
# 12^5, and two K4s sharing a vertex give count(K4, 12)^2.  The K5 count was
# computed by the partition engine of rtlab 0.1.0 and is pinned.
K4_R12 = 2320704
COUNT_HOSTS = (
    ("H~CGGC@", K4_R12 * 12 ** 5),
    ("F~CWw", K4_R12 ** 2),
    ("D~{", 21960647424),
)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple  # arguments after `rtl`, without the cache flag
    check: tuple  # (kind, *params), interpreted by gate.check


HIT_PROBES = 3


@dataclass
class Workload:
    name: str
    jobs: list
    cache_records: int = 0  # size of the seeded cache file each pass starts from
    repeat: bool = False  # every job runs a second time per pass (else HIT_PROBES do)


# ---------------------------------------------------------------------------
# graph6 and templates, written without rtlab so inputs do not depend on the
# code under test.

def graph6(n: int, edges) -> str:
    eset = {tuple(sorted(e)) for e in edges}
    bits = [1 if (u, v) in eset else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def parse_graph6(code: str):
    n = ord(code[0]) - 63
    bits = []
    for ch in code[1:]:
        val = ord(ch) - 63
        bits.extend(val >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    edges, i = [], 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return n, edges


def relabel(code: str, rng: random.Random) -> str:
    """The same graph under a random vertex permutation."""
    n, edges = parse_graph6(code)
    perm = list(range(n))
    rng.shuffle(perm)
    return graph6(n, [(perm[u], perm[v]) for u, v in edges])


def make_template(rng, n, r, full_share, lo, hi, low_vertices=(), low_sizes=(1, 2)):
    """Colour lists on K_n, indexed like rtlab's EdgeIds (lexicographic).

    Edges at a low vertex get a list size drawn from the low_sizes range.
    The other edges get a fixed multiset of list sizes, placed at random: a
    full_share of full lists and the rest cycling through lo..hi.  Fixing
    the sizes keeps the total distinct-choice work nearly the same for
    every seed.
    """
    low = set(low_vertices)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    free = [i for i, (u, v) in enumerate(edges) if u not in low and v not in low]
    n_full = round(full_share * len(free))
    sizes = [r] * n_full + [lo + i % (hi - lo + 1) for i in range(len(free) - n_full)]
    rng.shuffle(sizes)
    size_of = dict(zip(free, sizes))
    lists = [
        sorted(rng.sample(range(1, r + 1), size_of[i] if i in size_of else rng.randint(*low_sizes)))
        for i in range(len(edges))
    ]
    return {"graph": graph6(n, edges), "r": r, "lists": lists}


def write_cache_file(path: Path, rng: random.Random, records: int) -> None:
    """A result cache of count records for random graphs, in the JSONL layout
    the program writes (fingerprint, op, payload, version, timestamp)."""
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(records):
            n = rng.randint(4, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
            r = rng.randint(4, 16)
            rec = {
                "fingerprint": "%032x" % rng.getrandbits(128),
                "op": "count",
                "payload": {
                    "op": "count",
                    "graph": graph6(n, edges),
                    "r": r,
                    "k": 4,
                    "count": str(rng.getrandbits(rng.randint(8, 120))),
                },
                "version": "0.1.0",
                "timestamp": "2026-01-01T00:00:00Z",
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# sha256 digests of stdout for jobs whose input does not depend on the seed,
# pinned from rtlab 0.1.0.

DIGESTS = {
    "search -n 5 -r 12": "641df104da73fb5a13675949500ff2d2b5c63be7544853d22bf5334bce4584ac",
    "container-stats --graph E~~w -r 12": "202675bea2744adb2ff5784db15765b18132e22be5eb44a3865a5182fcd648be",
    "container-threshold -r 12": "4399ae28d6047de2eebb51d0628532402e853340ca78ae835a03d1cd8be5b530",
    "count --graph C~ -r 6": "bca702313ee68a431fe830e242719ebe3574ae4267d9f9d61b4fcf0250f13550",
    "container-stats --graph C~ -r 6 --materialize": "928d9114c1be693cef1e9cfb0c827a62081c8f8a6547a97922904c9c92f8f899",
    "container-threshold -r 6": "6b379c29b2c8ad0aac35aaa379a1106dbc6e2274d896b96bafd935b922a66bf5",
    "count --graph D~{ -r 6": "ce87b30c2726baa74535995afb3796fe79f55c7fe04937fce090b923c612b9a1",
    "search -n 4 -r 6": "10b577c7c3782dcb5d892800cf7bb56d2530afba42d19815e088f641a4f3a8bf",
    "cliques --graph E~~w -k 3 --list": "dd1748ecde1d6f1c1a7b1f1a1fd1547e455acee9265aec6f86b263d4199f68da",
    "closeness --graph E~~w -k 3": "409d9465dbbc92986b2e97ecfde8d2bf790a738467f2cbfe755b852c30499a1b",
}


INTERACTIVE_QUERIES = (
    "count --graph C~ -r 6",
    "count --graph D~{ -r 6",
    "search -n 4 -r 6",
    "cliques --graph E~~w -k 3 --list",
    "closeness --graph E~~w -k 3",
    "container-stats --graph C~ -r 6 --materialize",
    "container-threshold -r 6",
)


# Least n passing both container conditions; the tau condition binds, so it
# is the same for every r >= 6 (ROADMAP anchor MIN_N_CONTAINER_R12).
MIN_N = 25948915593563941081964526723956484834936


def fixed(cmd: str) -> Job:
    if cmd.startswith("container-threshold"):
        return Job(cmd, tuple(cmd.split()), ("threshold", MIN_N, DIGESTS[cmd]))
    return Job(cmd, tuple(cmd.split()), ("digest", DIGESTS[cmd]))


# Answers for K6 minus an edge at r=8 (the materialized path, since the
# template is not complete), pinned from rtlab 0.1.0; they do not depend on
# the vertex labelling.
K6E_R8 = {
    "vertex_count": 112,
    "edge_count": "181440",
    "average_degree": {"den": "1", "num": "9720"},
    "max_codegrees": ["1080", "180", "12", "3", "1"],
    "materialized": False,
}


def _template_job(name, sub, path, *extra, check=None):
    """Checked by the gate from the template file named in argv."""
    return Job(name, (sub, "--template", str(path), *extra), check or (sub,))


def _clean_job(name, template, *extra):
    """A clean job whose trace the generator knows: operation 1 removes the
    low vertices one per step, least index first, then nothing applies."""
    path, low = template
    return _template_job(name, "clean", path, *extra, check=("clean", tuple(sorted(low))))


def _write_templates(specs, rng, tmp: Path) -> dict:
    """specs: name -> (n, r, full_share, lo, hi, number of low vertices,
    low_sizes); returns name -> (path of the written template, low vertices)."""
    out = {}
    for key, (n, r, full, lo, hi, low, low_sizes) in specs.items():
        path = tmp / f"{key}.json"
        low_vertices = rng.sample(range(n), low)
        path.write_text(json.dumps(make_template(rng, n, r, full, lo, hi, low_vertices, low_sizes)))
        out[key] = (path, low_vertices)
    return out


def build(name: str, seed: int, tmp: Path) -> Workload:
    """The workload's jobs, with every input generated into tmp from seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "compute":
        counting = [
            Job(f"count {code}", ("count", "--graph", relabel(code, rng), "-r", "12"), ("count", answer))
            for code, answer in COUNT_HOSTS
        ] + [fixed("search -n 5 -r 12")]
        containers = [
            Job("container-stats K5 r9", ("container-stats", "--graph", "D~{", "-r", "9", "--materialize"),
                ("codegrees", 5, 9)),
            Job("container-stats K6-e r8", ("container-stats", "--graph", relabel("E^~w", rng), "-r", "8"),
                ("fields", K6E_R8)),
            fixed("container-stats --graph E~~w -r 12"),
            fixed("container-threshold -r 12"),
        ]
        # The clean traces hold by construction, whatever the seed.  Operation 1
        # fires at a vertex whose list-size product is at most
        # 12^((2-xi^2)(n_i-1)/3), about 6.2e10 at n_i=16.  Dense16: the 15
        # smallest of its sizes give 5^9 6^6 = 9.1e10, so no vertex fires.
        # Stepped16: a low vertex has 2^15, and a high one at least 2^4 8^11 =
        # 1.4e11, a margin that grows as n_i falls.  Operation 2 needs a
        # non-critical triangle (fewer than 11 rainbow copies) with a full list;
        # choosing colours smallest list first gives every K4 on such a
        # triangle at least 5*4*3*2*1*7 copies, and triangles at a low vertex
        # hold two lists of size 2, which operation 2 skips.
        t = _write_templates({
            "dense16": (16, R_CLEAN, 0.5, 5, 11, 0, (1, 2)),
            "stepped16": (16, R_CLEAN, 0.5, 8, 11, 4, (2, 2)),
            "dense14": (14, R_CLEAN, 0.5, 3, 11, 0, (1, 2)),
        }, rng, tmp)
        cleaning = [
            _clean_job("clean dense16", t["dense16"], "--xi", XI),
            _clean_job("clean stepped16", t["stepped16"], "--xi", XI),
            _template_job("critical dense14", "critical", t["dense14"][0]),
        ]
        return Workload(name, counting + containers + cleaning)
    if name == "interactive":
        # clean10: the low vertices' lists have one colour, so they are isolated
        # in the state graph and fire operation 1; a high vertex has 8^6 >
        # 8^((2-xi^2)(n_i-1)/3) for n_i <= 10, and every triangle of full lists
        # has 4 * 8!/2 rainbow copies, so it is critical.
        t = _write_templates({
            "stats8": (8, 10, 0.2, 1, 9, 0, (1, 2)),
            "clean10": (10, 8, 1.0, 8, 8, 3, (1, 1)),
            "critical8": (8, 8, 0.5, 3, 7, 0, (1, 2)),
        }, rng, tmp)
        jobs = [fixed(cmd) for cmd in INTERACTIVE_QUERIES] + [
            _template_job("template-stats stats8", "template-stats", t["stats8"][0]),
            _clean_job("clean clean10", t["clean10"], "--delta", "1/2", "--priority", "2,1"),
            _template_job("critical critical8", "critical", t["critical8"][0]),
        ]
        return Workload(name, jobs, cache_records=20000, repeat=True)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("compute", "interactive")
