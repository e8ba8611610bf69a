"""Single command-line entry point for every module.

Counting output is exact: counts are serialized as decimal strings and
rationals as {num, den} string pairs, never as native JSON numbers.
Records go to stdout, one JSON object per line (or CSV with --format csv);
diagnostics such as cache hits go to stderr so stdout stays byte-identical
across runs and worker counts.

Exit codes: 0 success, 2 usage error, 3 cap exceeded, 4 input parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .cache import ResultCache, fingerprint
from .cleaning import (
    CleaningConfig,
    clean,
    critical_sets,
    list_size_histogram,
    supersaturation_interval,
    trace_to_dict,
    xi_from_delta,
)
from .containers import (
    C_ELL_BOUND,
    DEFAULT_MATERIALIZE_CAP,
    TAU_THRESHOLD,
    build_rainbow_hypergraph,
    hypothesis_flags,
    min_n_for_container,
)
from .counting import (
    DEFAULT_WORK_CAP,
    bounds_compare,
    count_colorings,
    partition_polynomial,
    rho_max_search,
)
from .errors import CapExceeded, Graph6ParseError
from .graphs import (
    cliques,
    closeness_to_kpartite,
    count_cliques,
    graph6_codes,
    parse_graph6,
    write_graph6,
)
from .templates import (
    Template,
    complete_template,
    count_rainbow_copies,
    template_from_json,
    template_to_json,
)

DEFAULT_CACHE = os.path.join("~", ".cache", "rtl", "results.jsonl")


class InputError(ValueError):
    """Malformed user-supplied input (graph6, JSON, template structure)."""


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _interval(iv) -> dict:
    return {"lo": _rat(iv[0]), "hi": _rat(iv[1])}


# ---------------------------------------------------------------------------
# input plumbing ('-' means stdin everywhere)

def _read_graph_arg(value: str) -> str:
    if value == "-":
        for line in sys.stdin:
            line = line.strip()
            if line:
                return line
        raise InputError("no graph6 line on stdin")
    return value.strip()


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_stream(path: str) -> list:
    return list(graph6_codes(_read_text(path).splitlines()))


def _load_template(path: str) -> Template:
    text = _read_text(path)
    try:
        return template_from_json(text)
    except Graph6ParseError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad template JSON: {exc}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# payload builders (top level so worker processes can import them).  Each
# takes the parameter dict its record is keyed by, and only that: caps and
# worker counts, which never change a result, are bound beforehand.

def _payload_count(p, *, work_cap):
    count = count_colorings(parse_graph6(p["graph"]), p["r"], p["k"], work_cap=work_cap)
    return {"op": "count", **p, "count": str(count)}


def _payload_poly(p, *, work_cap):
    g = parse_graph6(p["graph"])
    poly = partition_polynomial(g, p["k"], work_cap=work_cap)
    return {"op": "poly", **p, "edges": g.edge_count, "coefficients": [str(c) for c in poly.coeffs]}


def _payload_cliques(p):
    g = parse_graph6(p["graph"])
    payload = {"op": "cliques", "graph": p["graph"], "k": p["k"], "count": str(count_cliques(g, p["k"]))}
    if p["list"]:
        payload["cliques"] = [list(q) for q in cliques(g, p["k"])]
    return payload


def _payload_closeness(p):
    res = closeness_to_kpartite(parse_graph6(p["graph"]), p["k"], exact_cap=p["exact_cap"])
    return {
        "op": "closeness",
        "graph": p["graph"],
        "k": p["k"],
        "internal_edges": res.internal_edges,
        "partition": list(res.partition),
        "exact": res.exact,
    }


def _payload_container_stats(p, *, materialize_cap):
    t = complete_template(parse_graph6(p["graph"]), p["r"])
    stats, _rows = build_rainbow_hypergraph(t, materialize=p["materialize"], cap=materialize_cap)
    return {
        "op": "container-stats",
        "graph": p["graph"],
        "r": p["r"],
        "vertex_count": stats.vertex_count,
        "edge_count": str(stats.edge_count),
        "average_degree": _rat(stats.average_degree),
        "max_codegrees": [str(d) for d in stats.max_codegrees],
        "materialized": p["materialize"],
    }


def _payload_template_stats(p):
    t = template_from_json(p["template"])
    hist = list_size_histogram(t)
    return {
        "op": "template-stats",
        "graph": write_graph6(t.graph),
        "r": t.r,
        "edges": t.graph.edge_count,
        "rainbow_copies": str(count_rainbow_copies(t)),
        "list_histogram": list(hist.counts),
        "small_lists": hist.small,
    }


def _payload_search(p, *, workers, work_cap):
    graphs = None if p["input"] is None else [parse_graph6(code) for code in p["input"]]
    report = rho_max_search(
        p["n"], p["r"], p["k"], graphs=graphs, workers=workers, work_cap=work_cap
    )
    return {
        "op": "search",
        "n": report.n,
        "r": report.r,
        "k": report.k,
        "classes": len(report.table),
        "best_graph6": report.best_graph6,
        "best_count": str(report.best_count),
        "turan_exponent": report.turan_exponent,
        "turan_count": str(report.turan_count),
        "best_attains_turan_bound": report.best_attains_turan_bound,
        "table": [[code, str(cnt)] for code, cnt in report.table],
    }


def _payload_container_threshold(p):
    r = p["r"]
    n_min = min_n_for_container(r)
    _, tau_ok, delta_ok = hypothesis_flags(n_min, r)
    return {
        "op": "container-threshold",
        "r": r,
        "min_n": str(n_min),
        "tau_ok_at_min": tau_ok,
        "delta_ok_at_min": delta_ok,
        "passes_below": n_min > 1 and all(hypothesis_flags(n_min - 1, r)[1:]),
        "tau_threshold": _rat(TAU_THRESHOLD),
        "c_ell_bound": str(C_ELL_BOUND),
    }


def _clean_config(t: Template, p) -> CleaningConfig:
    return CleaningConfig(r=t.r, xi=p["xi"], original_n=t.graph.n, priority=p["priority"])


def _payload_clean(p):
    t = template_from_json(p["template"])
    return {"op": "clean", **trace_to_dict(clean(t, _clean_config(t, p)))}


def _payload_critical(p):
    cs = critical_sets(template_from_json(p["template"]), original_n=p["original_n"])
    return {
        "op": "critical",
        "triangles": [list(x) for x in cs.triangles],
        "edges": [list(x) for x in cs.edges],
        "vertices": list(cs.vertices),
        "current_n": cs.current_n,
        "original_n": cs.original_n,
    }


def _payload_supersat(p):
    iv = supersaturation_interval(p["n"], p["t"], p["k"], p["e"])
    return {
        "op": "supersat",
        "n": p["n"],
        "t": p["t"],
        "k": p["k"],
        "edges": p["e"],
        "lower_bound": _rat(iv[0]),
        "interval": _interval(iv),
        "positive": iv[0] > 0,
    }


# ---------------------------------------------------------------------------
# emission

def _emit(records, fmt: str):
    if fmt == "json":
        for rec in records:
            sys.stdout.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if not records:
        return
    import csv  # its only user; the import costs about 2 ms per call

    keys = sorted({k for rec in records for k in rec})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        row = []
        for k in keys:
            v = rec.get(k, "")
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            row.append(v)
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _cache_from_args(args) -> ResultCache:
    if args.no_cache:
        return None
    path = args.cache or os.environ.get("RTL_CACHE") or os.path.expanduser(DEFAULT_CACHE)
    return ResultCache(path)


def _run_batch(op: str, params, build, cache, workers: int):
    """Map `build` over the parameter dicts with bounded parallelism; output
    order is input order regardless of completion order.  Each dict is both
    the record's cache key and the builder's whole input, so a cached record
    cannot depend on anything its key leaves out.  Items that share a
    fingerprint are looked up, computed and stored once; the new records of
    a batch are appended together."""
    fps = [fingerprint(op, p, __version__) for p in params]
    payloads = {}
    todo = {}  # fingerprint -> its first parameters, for the misses
    for fp, p in zip(fps, params):
        if fp in payloads or fp in todo:
            continue
        hit = cache.lookup(fp) if cache else None
        if hit is not None:
            payloads[fp] = hit
            print(f"# cache hit {fp}", file=sys.stderr)
        else:
            todo[fp] = p
    if todo:
        tasks = list(todo.values())
        results = []
        try:
            if workers > 1 and len(tasks) > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results.extend(pool.map(build, tasks))
            else:
                results.extend(map(build, tasks))
        except BaseException:
            # store what finished before the failing item, then report the
            # failure itself rather than an error of the store
            if cache and results:
                with contextlib.suppress(OSError):
                    cache.store(op, list(zip(todo, results)), __version__)
            raise
        payloads.update(zip(todo, results))
        if cache:
            cache.store(op, list(zip(todo, results)), __version__)
    return [payloads[fp] for fp in fps]


# ---------------------------------------------------------------------------
# subcommand handlers.  Each parser names the arguments that key its records
# (`keys`) and those bound into the builder outside the key (`caps`).

def _keyed(args) -> dict:
    return {key: getattr(args, key) for key in args.keys}


def _batch(args, params, cache):
    build = functools.partial(args.build, **{cap: getattr(args, cap) for cap in args.caps})
    return _run_batch(args.command, params, build, cache, args.workers)


def _cmd_keyed(args, cache):
    return _batch(args, [_keyed(args)], cache)


def _cmd_graphs(args, cache):
    if args.input:
        codes = _read_stream(args.input)
    elif args.graph:
        codes = [_read_graph_arg(args.graph)]
    else:
        raise InputError("need --graph or --input")
    return _batch(args, [{"graph": code, **_keyed(args)} for code in codes], cache)


def _cmd_search(args, cache):
    # a repeated code is one class, so it is left out of the key as well
    codes = list(dict.fromkeys(_read_stream(args.input))) if args.input else None
    records = _batch(args, [{**_keyed(args), "input": codes}], cache)
    if args.save_table:
        with open(args.save_table, "w", encoding="utf-8") as fh:
            for code, cnt in records[0]["table"]:
                fh.write(json.dumps({"graph": code, "count": cnt}) + "\n")
    return records


def _cmd_template_stats(args, cache):
    t = _load_template(args.template)
    return _batch(args, [{"template": template_to_json(t)}], cache)


def _cmd_clean(args, cache):
    t = _load_template(args.template)
    if args.xi is not None:
        xi = _parse_fraction(args.xi)
    elif args.delta is not None:
        xi = xi_from_delta(_parse_fraction(args.delta))
    else:
        raise InputError("need --xi or --delta")
    priority = [int(x) for x in args.priority.split(",")]
    params = {"template": template_to_json(t), "xi": str(xi), "priority": priority}
    _clean_config(t, params)  # refuse a bad xi or template before the cache is read
    return _batch(args, [params], cache)


def _cmd_critical(args, cache):
    t = _load_template(args.template)
    original_n = t.graph.n if args.original_n is None else args.original_n
    if original_n < 1:
        raise ValueError("original_n must be >= 1")
    return _batch(args, [{"template": template_to_json(t), "original_n": original_n}], cache)


def _cmd_bounds_compare(args, cache):
    verdict = bounds_compare(args.r, args.k)
    return [
        {
            "op": "bounds-compare",
            "r": args.r,
            "k": args.k,
            "verdict": verdict.verdict,
            "clique_side": str(verdict.clique_side),
            "turan_side": str(verdict.turan_side),
        }
    ]


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtl",
        description="Exact-counting laboratory for rainbow-K4-free edge colorings.",
    )
    parser.add_argument("--version", action="version", version=f"rtl {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--cache", default=None, help="cache file path (JSONL)")
    common.add_argument("--no-cache", action="store_true")
    common.set_defaults(caps=())
    graph = argparse.ArgumentParser(add_help=False)
    one = graph.add_mutually_exclusive_group()
    one.add_argument("--graph", help="graph6 code or '-'")
    one.add_argument("--input", help="graph6 stream file or '-'")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, parents=(common,), **defaults):
        p = sub.add_parser(name, parents=list(parents), help=summary)
        p.set_defaults(**defaults)
        return p

    p = add("count", "rainbow-free coloring count", (common, graph), func=_cmd_graphs,
            build=_payload_count, keys=("r", "k"), caps=("work_cap",))
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)

    p = add("poly", "partition polynomial", (common, graph), func=_cmd_graphs,
            build=_payload_poly, keys=("k",), caps=("work_cap",))
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)

    p = add("search", "maximize the count over n-vertex classes", func=_cmd_search,
            build=_payload_search, keys=("n", "r", "k"), caps=("workers", "work_cap"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--input", help="graph6 stream of candidate classes")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    p.add_argument("--save-table", help="persist the per-class table as JSONL")

    p = add("template-stats", "template summary", func=_cmd_template_stats,
            build=_payload_template_stats)
    p.add_argument("--template", required=True, help="template JSON file or '-'")

    p = add("container-stats", "rainbow hypergraph stats", (common, graph), func=_cmd_graphs,
            build=_payload_container_stats, keys=("r", "materialize"), caps=("materialize_cap",))
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--materialize-cap", type=int, default=DEFAULT_MATERIALIZE_CAP)

    p = add("container-threshold", "least n passing the hypothesis", func=_cmd_keyed,
            build=_payload_container_threshold, keys=("r",))
    p.add_argument("-r", type=int, required=True)

    p = add("clean", "run the cleaning procedure", func=_cmd_clean, build=_payload_clean)
    p.add_argument("--template", required=True)
    xi = p.add_mutually_exclusive_group()
    xi.add_argument("--xi", help="exact rational, e.g. 1/100")
    xi.add_argument("--delta", help="derive xi = delta/(300 e^6)")
    p.add_argument("--priority", default="1,2", choices=("1,2", "2,1"))

    p = add("critical", "critical triangles/edges/vertices", func=_cmd_critical,
            build=_payload_critical)
    p.add_argument("--template", required=True)
    p.add_argument("--original-n", type=int, default=None)

    p = add("closeness", "distance to k-partite", (common, graph), func=_cmd_graphs,
            build=_payload_closeness, keys=("k", "exact_cap"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--exact-cap", type=int, default=14)

    p = add("cliques", "count/list k-cliques", (common, graph), func=_cmd_graphs,
            build=_payload_cliques, keys=("k", "list"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = add("supersat", "supersaturation lower bound", func=_cmd_keyed,
            build=_payload_supersat, keys=("n", "t", "k", "e"))
    for flag in ("-n", "-t", "-k", "-e"):
        p.add_argument(flag, type=int, required=True)

    p = add("bounds-compare", "which lower bound dominates", func=_cmd_bounds_compare)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)

    return parser


def _error_json(kind: str, exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": kind, "message": str(exc)}}, sort_keys=True
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache = _cache_from_args(args)
    try:
        records = args.func(args, cache)
    except CapExceeded as exc:
        print(_error_json("cap-exceeded", exc), file=sys.stderr)
        return 3
    except (Graph6ParseError, InputError, json.JSONDecodeError) as exc:
        print(_error_json("parse-error", exc), file=sys.stderr)
        return 4
    except (ValueError, RuntimeError, OSError) as exc:
        print(_error_json("invalid-argument", exc), file=sys.stderr)
        return 2
    _emit(records, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
