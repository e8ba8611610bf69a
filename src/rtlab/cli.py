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
    supersaturation_bound,
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
    template_from_dict,
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
        return template_from_dict(json.loads(text))
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
# payload builders (top level so worker processes can import them)

def _payload_count(args):
    code, r, k, work_cap = args
    g = parse_graph6(code)
    return {
        "op": "count",
        "graph": code,
        "r": r,
        "k": k,
        "count": str(count_colorings(g, r, k, work_cap=work_cap)),
    }


def _payload_poly(args):
    code, k, work_cap = args
    g = parse_graph6(code)
    poly = partition_polynomial(g, k, work_cap=work_cap)
    return {
        "op": "poly",
        "graph": code,
        "k": k,
        "edges": g.edge_count,
        "coefficients": [str(c) for c in poly.coeffs],
    }


def _payload_cliques(args):
    code, k, want_list = args
    g = parse_graph6(code)
    payload = {
        "op": "cliques",
        "graph": code,
        "k": k,
        "count": str(count_cliques(g, k)),
    }
    if want_list:
        payload["cliques"] = [list(q) for q in cliques(g, k)]
    return payload


def _payload_closeness(args):
    code, k, exact_cap = args
    g = parse_graph6(code)
    res = closeness_to_kpartite(g, k, exact_cap=exact_cap)
    return {
        "op": "closeness",
        "graph": code,
        "k": k,
        "internal_edges": res.internal_edges,
        "partition": list(res.partition),
        "exact": res.exact,
    }


def _payload_container_stats(args):
    code, r, materialize, cap = args
    g = parse_graph6(code)
    t = complete_template(g, r)
    stats, _rows = build_rainbow_hypergraph(t, materialize=materialize, cap=cap)
    return {
        "op": "container-stats",
        "graph": code,
        "r": r,
        "vertex_count": stats.vertex_count,
        "edge_count": str(stats.edge_count),
        "average_degree": _rat(stats.average_degree),
        "max_codegrees": [str(d) for d in stats.max_codegrees],
        "materialized": bool(materialize),
    }


def _payload_template_stats(t: Template) -> dict:
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


def _payload_search(args):
    n, r, k, codes, workers, work_cap = args
    graphs = None if codes is None else [parse_graph6(code) for code in codes]
    report = rho_max_search(n, r, k, graphs=graphs, workers=workers, work_cap=work_cap)
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


def _payload_container_threshold(r: int) -> dict:
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


def _payload_clean(args):
    t, cfg = args
    return {"op": "clean", **trace_to_dict(clean(t, cfg))}


def _payload_critical(args):
    t, original_n = args
    cs = critical_sets(t, original_n=original_n)
    return {
        "op": "critical",
        "triangles": [list(x) for x in cs.triangles],
        "edges": [list(x) for x in cs.edges],
        "vertices": list(cs.vertices),
        "current_n": cs.current_n,
        "original_n": cs.original_n,
    }


def _payload_supersat(args):
    n, t, k, e = args
    iv = supersaturation_interval(n, t, k, e)
    bound = supersaturation_bound(n, t, k, e)
    return {
        "op": "supersat",
        "n": n,
        "t": t,
        "k": k,
        "edges": e,
        "lower_bound": _rat(bound),
        "interval": _interval(iv),
        "positive": bound > 0,
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


def _run_batch(op: str, items, fp_params, build, cache, workers: int):
    """Map payload builders over inputs with bounded parallelism; output
    order is input order regardless of completion order.  Fingerprints use
    only result-determining parameters, never worker counts or caps, and
    items that share a fingerprint are looked up, computed and stored once;
    the new records of a batch are appended together."""
    fps = [fingerprint(op, params, __version__) for params in fp_params]
    payloads = {}
    todo = {}  # fingerprint -> its first item, for the misses
    for fp, item in zip(fps, items):
        if fp in payloads or fp in todo:
            continue
        hit = cache.lookup(fp) if cache else None
        if hit is not None:
            payloads[fp] = hit
            print(f"# cache hit {fp}", file=sys.stderr)
        else:
            todo[fp] = item
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
# subcommand handlers

def _graph_items(args) -> list:
    if getattr(args, "input", None):
        return _read_stream(args.input)
    if getattr(args, "graph", None):
        return [_read_graph_arg(args.graph)]
    raise InputError("need --graph or --input")


def _cmd_count(args, cache):
    codes = _graph_items(args)
    items = [(code, args.r, args.k, args.work_cap) for code in codes]
    fps = [{"graph": c, "r": args.r, "k": args.k} for c in codes]
    return _run_batch("count", items, fps, _payload_count, cache, args.workers)


def _cmd_poly(args, cache):
    codes = _graph_items(args)
    items = [(code, args.k, args.work_cap) for code in codes]
    fps = [{"graph": c, "k": args.k} for c in codes]
    return _run_batch("poly", items, fps, _payload_poly, cache, args.workers)


def _cmd_cliques(args, cache):
    codes = _graph_items(args)
    items = [(code, args.k, args.list) for code in codes]
    fps = [{"graph": c, "k": args.k, "list": bool(args.list)} for c in codes]
    return _run_batch("cliques", items, fps, _payload_cliques, cache, args.workers)


def _cmd_closeness(args, cache):
    codes = _graph_items(args)
    items = [(code, args.k, args.exact_cap) for code in codes]
    fps = [{"graph": c, "k": args.k, "exact_cap": args.exact_cap} for c in codes]
    return _run_batch("closeness", items, fps, _payload_closeness, cache, args.workers)


def _cmd_container_stats(args, cache):
    codes = _graph_items(args)
    items = [(code, args.r, args.materialize, args.materialize_cap) for code in codes]
    fps = [
        {"graph": c, "r": args.r, "materialize": bool(args.materialize)} for c in codes
    ]
    return _run_batch("container-stats", items, fps, _payload_container_stats, cache, args.workers)


def _cmd_search(args, cache):
    codes = _read_stream(args.input) if args.input else None
    params = {
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "input": sorted(codes) if codes is not None else None,
    }
    item = (args.n, args.r, args.k, codes, args.workers, args.work_cap)
    records = _run_batch("search", [item], [params], _payload_search, cache, args.workers)
    if args.save_table:
        with open(args.save_table, "w", encoding="utf-8") as fh:
            for code, cnt in records[0]["table"]:
                fh.write(json.dumps({"graph": code, "count": cnt}) + "\n")
    return records


def _cmd_template_stats(args, cache):
    t = _load_template(args.template)
    params = {"template": template_to_json(t)}
    return _run_batch("template-stats", [t], [params], _payload_template_stats, cache, args.workers)


def _cmd_container_threshold(args, cache):
    params = {"r": args.r}
    return _run_batch(
        "container-threshold", [args.r], [params], _payload_container_threshold, cache, args.workers
    )


def _resolve_xi(args) -> Fraction:
    if args.xi is not None:
        return _parse_fraction(args.xi)
    if args.delta is not None:
        return xi_from_delta(_parse_fraction(args.delta))
    raise InputError("need --xi or --delta")


def _cmd_clean(args, cache):
    t = _load_template(args.template)
    xi = _resolve_xi(args)
    priority = tuple(int(x) for x in args.priority.split(","))
    cfg = CleaningConfig(r=t.r, xi=xi, original_n=t.graph.n, priority=priority)
    params = {"template": template_to_json(t), "xi": str(xi), "priority": list(priority)}
    return _run_batch("clean", [(t, cfg)], [params], _payload_clean, cache, args.workers)


def _cmd_critical(args, cache):
    t = _load_template(args.template)
    original_n = t.graph.n if args.original_n is None else args.original_n
    if original_n < 1:
        raise ValueError("original_n must be >= 1")
    item = (t, original_n)
    params = {"template": template_to_json(t), "original_n": original_n}
    return _run_batch("critical", [item], [params], _payload_critical, cache, args.workers)


def _cmd_supersat(args, cache):
    item = (args.n, args.t, args.k, args.e)
    params = {"n": args.n, "t": args.t, "k": args.k, "e": args.e}
    return _run_batch("supersat", [item], [params], _payload_supersat, cache, args.workers)


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="rainbow-free coloring count")
    p.add_argument("--graph", help="graph6 code or '-'")
    p.add_argument("--input", help="graph6 stream file or '-'")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("poly", parents=[common], help="partition polynomial")
    p.add_argument("--graph", help="graph6 code or '-'")
    p.add_argument("--input", help="graph6 stream file or '-'")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("search", parents=[common], help="maximize the count over n-vertex classes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--input", help="graph6 stream of candidate classes")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    p.add_argument("--save-table", help="persist the per-class table as JSONL")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("template-stats", parents=[common], help="template summary")
    p.add_argument("--template", required=True, help="template JSON file or '-'")
    p.set_defaults(func=_cmd_template_stats)

    p = sub.add_parser("container-stats", parents=[common], help="rainbow hypergraph stats")
    p.add_argument("--graph", help="graph6 code or '-'")
    p.add_argument("--input", help="graph6 stream file or '-'")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--materialize-cap", type=int, default=DEFAULT_MATERIALIZE_CAP)
    p.set_defaults(func=_cmd_container_stats)

    p = sub.add_parser("container-threshold", parents=[common], help="least n passing the hypothesis")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(func=_cmd_container_threshold)

    p = sub.add_parser("clean", parents=[common], help="run the cleaning procedure")
    p.add_argument("--template", required=True)
    p.add_argument("--xi", help="exact rational, e.g. 1/100")
    p.add_argument("--delta", help="derive xi = delta/(300 e^6)")
    p.add_argument("--priority", default="1,2", choices=("1,2", "2,1"))
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("critical", parents=[common], help="critical triangles/edges/vertices")
    p.add_argument("--template", required=True)
    p.add_argument("--original-n", type=int, default=None)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("closeness", parents=[common], help="distance to k-partite")
    p.add_argument("--graph", help="graph6 code or '-'")
    p.add_argument("--input", help="graph6 stream file or '-'")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--exact-cap", type=int, default=14)
    p.set_defaults(func=_cmd_closeness)

    p = sub.add_parser("cliques", parents=[common], help="count/list k-cliques")
    p.add_argument("--graph", help="graph6 code or '-'")
    p.add_argument("--input", help="graph6 stream file or '-'")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser("supersat", parents=[common], help="supersaturation lower bound")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-e", type=int, required=True)
    p.set_defaults(func=_cmd_supersat)

    p = sub.add_parser("bounds-compare", parents=[common], help="which lower bound dominates")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.set_defaults(func=_cmd_bounds_compare)

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
