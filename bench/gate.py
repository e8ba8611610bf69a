"""Answer gate: every job's stdout is checked before its time counts.

Checks, by kind:

* count: the exact count equals the pinned value for the host's class.
* digest: sha256 of stdout equals the digest pinned from rtlab 0.1.0
  (for inputs that do not depend on the run's seed).
* threshold: min_n equals the pinned anchor, and the digest matches.
* codegrees: materialized co-degrees of a complete template equal the
  structural closed form, computed here independently of rtlab.
* fields: invariant fields of a relabelled host equal pinned values.
* template-stats / critical: recomputed here by an independent oracle that
  counts distinct-colour choices by Moebius inversion over set partitions.
* clean: the trace is the one the generator built the template for
  (operation 1 removes the given low vertices one per step, least index
  first, then nothing applies), and it replays under
  rtlab.cleaning.verify_trace.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

from workloads import parse_graph6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _arg(argv, flag, default=None):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def _falling(r: int, j: int) -> int:
    return factorial(r) // factorial(r - j) if 0 <= j <= r else 0


# ---------------------------------------------------------------------------
# Independent distinct-choice oracle.

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


_PARTITIONS = {q: list(_set_partitions(list(range(q)))) for q in range(7)}


def distinct_choices(masks) -> int:
    """Number of pairwise-distinct colour picks, one from each mask:
    sum over set partitions pi of prod over blocks B of
    (-1)^(|B|-1) (|B|-1)! |intersection of the lists in B|."""
    total = 0
    for part in _PARTITIONS[len(masks)]:
        term = 1
        for block in part:
            inter = -1
            for i in block:
                inter &= masks[i]
            term *= (-1) ** (len(block) - 1) * factorial(len(block) - 1) * bin(inter).count("1")
            if not term:
                break
        total += term
    return total


class _Template:
    def __init__(self, data: dict):
        self.code = data["graph"]
        self.n, edges = parse_graph6(self.code)
        self.r = data["r"]
        self.masks = {}
        for (u, v), colours in zip(sorted(edges), data["lists"]):  # EdgeIds are lexicographic
            self.masks[(u, v)] = sum(1 << (c - 1) for c in colours)
        self.lists = data["lists"]
        self._k4 = {}

    def k4_count(self, quad):
        """Rainbow selections on the K4 with sorted vertex tuple quad."""
        if quad not in self._k4:
            pairs = itertools.combinations(quad, 2)
            self._k4[quad] = distinct_choices([self.masks[e] for e in pairs])
        return self._k4[quad]


def oracle_template_stats(data: dict) -> dict:
    t = _Template(data)
    total = 0
    for quad in itertools.combinations(range(t.n), 4):
        if all(e in t.masks for e in itertools.combinations(quad, 2)):
            total += t.k4_count(quad)
    hist = [0] * (t.r + 1)
    for colours in t.lists:
        hist[len(colours)] += 1
    return {
        "op": "template-stats",
        "graph": t.code,
        "r": t.r,
        "edges": len(t.lists),
        "rainbow_copies": str(total),
        "list_histogram": hist,
        "small_lists": sum(hist[s] for s in range(2, min(5, t.r) + 1)),
    }


def oracle_critical(data: dict) -> dict:
    t = _Template(data)
    n = t.n
    alive = list(range(t.n))
    live = {e for e, m in t.masks.items() if bin(m).count("1") >= 2}

    def has(u, v):
        return (min(u, v), max(u, v)) in live

    tris = []
    for a, b, c in itertools.combinations(alive, 3):
        if not (has(a, b) and has(a, c) and has(b, c)):
            continue
        cnt = sum(
            t.k4_count(tuple(sorted((a, b, c, w))))
            for w in alive
            if w not in (a, b, c) and has(a, w) and has(b, w) and has(c, w)
        )
        if cnt ** 6 >= n ** 5:
            tris.append([a, b, c])
    edge_hits, vert_hits = {}, {}
    for a, b, c in tris:
        for e in ((a, b), (a, c), (b, c)):
            edge_hits[e] = edge_hits.get(e, 0) + 1
        for v in (a, b, c):
            vert_hits[v] = vert_hits.get(v, 0) + 1
    n_p = len(alive)
    return {
        "op": "critical",
        "triangles": tris,
        "edges": sorted(list(e) for e, k in edge_hits.items() if k ** 12 >= n_p ** 11),
        "vertices": sorted(v for v, k in vert_hits.items() if k ** 12 >= n_p ** 23),
        "current_n": n_p,
        "original_n": n,
    }


def structural_record(n: int, r: int) -> dict:
    """container-stats fields of the complete template on K_n (r >= 6)."""
    edges = _falling(r, 6) * comb(n, 4)
    vertices = comb(n, 2) * r
    avg = Fraction(6 * edges, vertices)
    return {
        "vertex_count": vertices,
        "edge_count": str(edges),
        "average_degree": {"num": str(avg.numerator), "den": str(avg.denominator)},
        "max_codegrees": [
            str(x)
            for x in (
                (n - 3) * _falling(r - 2, 4),
                (n - 3) * _falling(r - 3, 3),
                _falling(r - 4, 2),
                r - 5,
                1,
            )
        ],
    }


# ---------------------------------------------------------------------------
# clean: replay with the program's own trace verifier.

def _replays(argv, rec: dict) -> bool:
    from rtlab.cleaning import CleaningConfig, CleaningTrace, CleanStep, verify_trace, xi_from_delta
    from rtlab.templates import template_from_dict

    with open(_arg(argv, "--template"), encoding="utf-8") as fh:
        t = template_from_dict(json.load(fh))
    xi_text = _arg(argv, "--xi")
    xi = Fraction(xi_text) if xi_text else xi_from_delta(Fraction(_arg(argv, "--delta")))
    priority = tuple(int(x) for x in _arg(argv, "--priority", "1,2").split(","))
    cfg = CleaningConfig(r=t.r, xi=xi, original_n=t.graph.n, priority=priority)
    trace = CleaningTrace(
        r=rec["r"],
        xi=Fraction(rec["xi"]),
        original_n=rec["original_n"],
        priority=tuple(rec["priority"]),
        steps=tuple(
            CleanStep(
                op=s["op"],
                removed=tuple(s["removed"]),
                n_before=s["n_before"],
                n_after=s["n_after"],
                witness=s["witness"],
                survivors=tuple(s["survivors"]),
            )
            for s in rec["steps"]
        ),
        final_vertices=tuple(rec["final_vertices"]),
        stop_reason=rec["stop_reason"],
    )
    return verify_trace(t, cfg, trace)


# ---------------------------------------------------------------------------

def check(job, stdout: str):
    """None when the job's stdout is a correct answer, else the reason."""
    kind, *params = job.check
    if kind in ("digest", "threshold"):
        if kind == "threshold":
            rec = json.loads(stdout)
            if int(rec["min_n"]) != params[0]:
                return f"min_n {rec['min_n']} != anchor {params[0]}"
        digest = params[-1]
        got = sha256(stdout)
        return None if got == digest else f"stdout sha256 {got} != pinned {digest}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one record, got {len(lines)} lines"
    rec = json.loads(lines[0])
    if kind == "count":
        return None if int(rec["count"]) == params[0] else f"count {rec['count']} != {params[0]}"
    if kind == "codegrees":
        want = structural_record(*params)
        got = {k: rec.get(k) for k in want}
        return None if got == want else f"{got} != structural {want}"
    if kind == "fields":
        got = {k: rec.get(k) for k in params[0]}
        return None if got == params[0] else f"{got} != pinned {params[0]}"
    if kind in ("template-stats", "critical"):
        with open(_arg(job.argv, "--template"), encoding="utf-8") as fh:
            data = json.load(fh)
        want = oracle_template_stats(data) if kind == "template-stats" else oracle_critical(data)
        return None if rec == want else f"{kind} record differs from the oracle"
    if kind == "clean":
        got = ([(s["op"], s["removed"]) for s in rec["steps"]], rec["stop_reason"])
        want = ([(1, [v]) for v in params[0]], "no operation applicable")
        if got != want:
            return f"clean steps and stop {got} != expected {want}"
        return None if _replays(job.argv, rec) else "clean trace does not replay"
    raise ValueError(f"unknown check kind {kind!r}")


class Gate:
    """Checks each distinct (job, stdout) once; later identical outputs
    reuse the verdict, so replays are not repeated every pass."""

    def __init__(self):
        self._verdicts = {}

    def __call__(self, job, stdout: str):
        key = (job.name, sha256(stdout))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = check(job, stdout)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return self._verdicts[key]
