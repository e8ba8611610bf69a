"""Single command-line entry point for every module.

Counting output is exact: counts are serialized as decimal strings and
rationals as {num, den} string pairs, never as native JSON numbers.
Records go to stdout, one JSON object per line (or CSV with --format csv);
diagnostics such as cache hits go to stderr so stdout stays byte-identical
across runs and worker counts.

Exit codes: 0 success, 2 usage error, 3 cap exceeded, 4 input parse error.
`run()` is the process entry of the console script and `python -m
rtlab.cli`, and it never returns: it runs the atexit handlers, flushes
stdout and stderr and ends the process with `os._exit`, so the
interpreter's teardown is skipped.  Library callers and tests call
`main(argv)`, which returns the exit code.

Only errors and rows, with numpy, are imported at start; every other
module is imported inside the functions that call it, so a command loads
only the modules it runs: `--version` loads no more, a `count` hit adds
cache, and a miss records, counting and graphs.  `records` holds the
builder of each subcommand's record and loads only when an item misses
the cache; `containers` loads only in the builders of the two container
commands, and fractions only where a rational is parsed.  Cache keys are
SHA-256 from CPython's built-in module, so no command loads hashlib or
OpenSSL; under --no-cache nothing is hashed and cache is not loaded.
"""

import argparse
import atexit
import contextlib
import functools
import gc
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .errors import DEFAULT_WORK_CAP, CapExceeded, Graph6ParseError
# eager, numpy with it: bench/run.py::import_times needs numpy in `import rtlab.cli`
from .rows import DEFAULT_MATERIALIZE_CAP

DEFAULT_CACHE = "~/.cache/rtl/results.jsonl"  # expanduser reads "~/" on every platform


class InputError(ValueError):
    """Malformed user-supplied input (graph6, JSON, template structure)."""


# ---------------------------------------------------------------------------
# input plumbing ('-' means stdin everywhere)

def _read_graph_arg(value: str) -> str:
    if value == "-":
        from .graphs import graph6_codes

        for code in graph6_codes(sys.stdin):
            return code
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
    from .graphs import graph6_codes

    return list(graph6_codes(_read_text(path).splitlines()))


def _load_template(path: str) -> tuple:
    """The template at `path` and its canonical JSON, which keys its records."""
    from .templates import template_from_json, template_to_json

    text = _read_text(path)
    try:
        t = template_from_json(text)
    except Graph6ParseError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad template JSON: {exc}") from exc
    return t, template_to_json(t)


def _parse_fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# emission

# compact with sorted keys: a record's line, a CSV cell holding a dict or list,
# and an item's key in a batch run without a cache
_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _emit(records, fmt: str):
    if fmt == "json":
        sys.stdout.writelines(_dumps(rec) + "\n" for rec in records)
    elif records:
        import csv  # its only user; the import costs about 2 ms per call

        keys = sorted({k for rec in records for k in rec})
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            values = (rec.get(k, "") for k in keys)
            writer.writerow(_dumps(v) if isinstance(v, (dict, list)) else v for v in values)


def _batch(args, params):
    """Map the builder of `args.command` over the parameter dicts with
    bounded parallelism; output order is input order regardless of
    completion order.  Each dict is both the record's cache key and the
    builder's whole input, so a cached record cannot depend on anything its
    key leaves out.  Items that share a fingerprint are looked up, computed
    and stored once; the first lookup reads the records of the whole batch,
    and its new records are appended together.  Every builder's record is a
    JSON object naming its command in "op", so a cached payload that is not
    such an object for `args.command` is a miss.  `records` is
    imported only for the misses.  Without a cache the keys only deduplicate
    the batch, so they are the canonical parameter JSON, and `cache` is not
    imported."""
    op = args.command
    if args.no_cache:
        cache = None
        fps = [_dumps(p) for p in params]
    else:
        from .cache import ResultCache, fingerprint

        cache = ResultCache(
            args.cache or os.environ.get("RTL_CACHE") or os.path.expanduser(DEFAULT_CACHE)
        )
        fps = [fingerprint(op, p, __version__) for p in params]
    distinct = set(fps)
    payloads = {}
    todo = {}  # fingerprint -> its first parameters, for the misses
    for fp, p in zip(fps, params):
        if fp in payloads or fp in todo:
            continue
        hit = cache.lookup(fp, distinct) if cache else None
        if isinstance(hit, dict) and hit.get("op") == op:
            payloads[fp] = hit
            print(f"# cache hit {fp}", file=sys.stderr)
        else:
            todo[fp] = p
    if todo:
        from . import records

        caps = {cap: getattr(args, cap) for cap in args.caps}
        build = functools.partial(getattr(records, op.replace("-", "_")), **caps)
        tasks = list(todo.values())
        results = []
        try:
            if args.workers > 1 and len(tasks) > 1:
                from concurrent.futures import ProcessPoolExecutor

                # a fork pool starts all its workers up front, needed or not
                with ProcessPoolExecutor(max_workers=min(args.workers, len(tasks))) as pool:
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


def _cmd_keyed(args):
    return _batch(args, [_keyed(args)])


def _cmd_graphs(args):
    if args.input is not None:
        codes = _read_stream(args.input)
    elif args.graph is not None:
        codes = [_read_graph_arg(args.graph)]
    else:
        raise InputError("need --graph or --input")
    return _batch(args, [{"graph": code, **_keyed(args)} for code in codes])


def _cmd_search(args):
    # a repeated code is one class, so it is left out of the key as well
    codes = None if args.input is None else list(dict.fromkeys(_read_stream(args.input)))
    records = _batch(args, [{**_keyed(args), "input": codes}])
    if args.save_table:
        with open(args.save_table, "w", encoding="utf-8") as fh:
            for code, cnt in records[0]["table"]:
                fh.write(json.dumps({"graph": code, "count": cnt}) + "\n")
    return records


def _cmd_template_stats(args):
    _, text = _load_template(args.template)
    return _batch(args, [{"template": text}])


def _cmd_clean(args):
    from .records import _clean_config

    t, text = _load_template(args.template)
    if args.xi is not None:
        xi = _parse_fraction(args.xi)
    elif args.delta is not None:
        from .cleaning import xi_from_delta

        xi = xi_from_delta(_parse_fraction(args.delta))
    else:
        raise InputError("need --xi or --delta")
    priority = [int(x) for x in args.priority.split(",")]
    params = {"template": text, "xi": str(xi), "priority": priority}
    _clean_config(t, params)  # refuse a bad xi or template before the cache is read
    return _batch(args, [params])


def _cmd_critical(args):
    t, text = _load_template(args.template)
    original_n = t.graph.n if args.original_n is None else args.original_n
    if original_n < 1:
        raise ValueError("original_n must be >= 1")
    return _batch(args, [{"template": text, "original_n": original_n}])


def _cmd_bounds_compare(args):
    from .counting import bounds_compare

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

class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of its output; a failed write of
    --help or --version to stdout is raised instead, for run() to report."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            keys=("r", "k"), caps=("work_cap",))
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)

    p = add("poly", "partition polynomial", (common, graph), func=_cmd_graphs,
            keys=("k",), caps=("work_cap",))
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)

    p = add("search", "maximize the count over n-vertex classes", func=_cmd_search,
            keys=("n", "r", "k"), caps=("workers", "work_cap"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--input", help="graph6 stream of candidate classes")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    p.add_argument("--save-table", help="persist the per-class table as JSONL")

    p = add("template-stats", "template summary", func=_cmd_template_stats)
    p.add_argument("--template", required=True, help="template JSON file or '-'")

    p = add("container-stats", "rainbow hypergraph stats", (common, graph), func=_cmd_graphs,
            keys=("r", "materialize"), caps=("materialize_cap",))
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--materialize-cap", type=int, default=DEFAULT_MATERIALIZE_CAP)

    p = add("container-threshold", "least n passing the hypothesis", func=_cmd_keyed, keys=("r",))
    p.add_argument("-r", type=int, required=True)

    p = add("clean", "run the cleaning procedure", func=_cmd_clean)
    p.add_argument("--template", required=True)
    xi = p.add_mutually_exclusive_group()
    xi.add_argument("--xi", help="exact rational, e.g. 1/100")
    xi.add_argument("--delta", help="derive xi = delta/(300 e^6)")
    p.add_argument("--priority", default="1,2", choices=("1,2", "2,1"))

    p = add("critical", "critical triangles/edges/vertices", func=_cmd_critical)
    p.add_argument("--template", required=True)
    p.add_argument("--original-n", type=int, default=None)

    p = add("closeness", "distance to k-partite", (common, graph), func=_cmd_graphs,
            keys=("k", "exact_cap"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--exact-cap", type=int, default=14,
                   help="most vertices answered (default %(default)s); a larger host exits 3")

    p = add("cliques", "count/list k-cliques", (common, graph), func=_cmd_graphs,
            keys=("k", "list"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = add("supersat", "supersaturation lower bound", func=_cmd_keyed, keys=("n", "t", "k", "e"))
    for flag in ("-n", "-t", "-k", "-e"):
        p.add_argument(flag, type=int, required=True)

    p = add("bounds-compare", "which lower bound dominates", func=_cmd_bounds_compare)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=4)

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report `exc` on stderr as one JSON object; returns the exit code."""
    error = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, not {args.workers}")
    try:
        records = args.func(args)
    except CapExceeded as exc:
        return _fail("cap-exceeded", exc, 3)
    except (Graph6ParseError, InputError, json.JSONDecodeError) as exc:
        return _fail("parse-error", exc, 4)
    except (ValueError, RuntimeError, OSError) as exc:
        return _fail("invalid-argument", exc, 2)
    _emit(records, args.format)
    return 0


def run() -> NoReturn:
    """The `rtl` process, as the console script and `python -m rtlab.cli`
    run it; it never returns.  The exit code is main's, or argparse's exit
    (--version, --help, a usage error), once stdout is flushed; 2 when
    stdout cannot be written, whose pending output is then dropped so no
    later flush fails again.  The import-time heap is frozen first, so the
    collections inside main skip it.  The process then runs its atexit
    handlers, flushes stdout and stderr and ends with `os._exit`: module
    teardown and the interpreter's exit collections never run.  Any other
    exception reaches the interpreter's traceback and exit 1.  main()
    called in-process freezes nothing and skips no teardown."""
    gc.freeze()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse exits with an int status or none
            code = 0 if exc.code is None else exc.code
        sys.stdout.flush()
    except OSError as exc:  # from writing stdout; main reports every other OSError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _fail("invalid-argument", exc, 2)
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
