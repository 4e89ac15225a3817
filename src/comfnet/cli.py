"""Command-line surface: analyze, hicom, verify, oracle, gen, bench.

Output is JSON on stdout with sorted keys, so fixed inputs and seeds give
byte-identical bytes across runs (bench wall-clock fields excepted).
Exit codes: 0 success, 1 usage/parse problems and inputs too large for
memory, 2 infeasible (no team / no optimum exists), 3 internal errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import corpus as corpus_mod
from .criteria import check_hc, parse_l
from .generators import connected_gnp, generate
from .graphs import (
    EdgeListParseError,
    Graph,
    all_pairs_distances,
    eccentricity_profile,
    induced_subgraph,
    iter_components,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from .hicom import HicomError, extend_to_max, hicom, verify_k_bound
from .oracle import (
    bound_sweep,
    exact_max_team,
    exact_min_cds,
    exact_min_team,
    oracle_cap,
    ratio_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; remap to exit 1 so
    code 2 stays reserved for 'no team exists'."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_components(entries, counted=bool, **fields) -> int:
    """Write ``{"components": [*entries], **fields}`` as ``_emit`` would, keeping
    only each entry's text until one ``writelines`` after the last, so a failure
    on the way leaves stdout to the error object. Keys of ``fields`` sort after
    "components". Returns how many entries are ``counted``."""
    pieces, count = ['{\n  "components": [\n    '], 0
    for entry in entries:
        count += counted(entry)
        # indented two levels down; JSON strings escape "\n"
        pieces += (json.dumps(entry, indent=2, sort_keys=True).replace("\n", "\n    "), ",\n    ")
    pieces[-1] = "\n  ]," + json.dumps(fields, indent=2, sort_keys=True)[1:] + "\n"
    sys.stdout.writelines(pieces)
    return count


def _emit_error(code: str, message: str, exit_code: int) -> int:
    _emit({"error": {"code": code, "message": message}})
    return exit_code


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _vertex(g: Graph, by_label: dict[str, int], token: str, where: str) -> int:
    """The vertex ``token`` names as a label (``by_label`` is
    ``_by_label(g)``), else as a 0-based index; a usage error that starts
    with ``where`` when it is neither."""
    index = by_label.get(token)
    if index is not None:
        return index
    try:
        index = int(token)
    except ValueError:
        index = -1
    if not 0 <= index < g.n:
        raise ValueError(f"{where} {token!r}: no vertex has this label or index 0..{g.n - 1}")
    return index


def _by_label(g: Graph) -> dict[str, int]:
    return {label: v for v, label in enumerate(g.labels)}


def _read_team(path: str, g: Graph) -> frozenset[int]:
    """Team file: one vertex label (or 0-based index) per line, '#' comments."""
    by_label = _by_label(g)
    members = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            members.append(_vertex(g, by_label, line.split()[0], f"team file line {lineno}: vertex"))
    if not members:
        raise ValueError("team file lists no vertices")
    return frozenset(members)


def _components(g: Graph, solve):
    """``{"vertices": labels, **solve(sub)}`` per component ``sub`` of ``g``,
    in order; each is built and solved only when its turn comes."""
    whole = g.is_connected()
    for sub in [g] if whole else (induced_subgraph(g, p).graph for p in iter_components(g)):
        yield {"vertices": list(sub.labels), **solve(sub)}


# --- commands ---------------------------------------------------------------

def cmd_analyze(args, l: Fraction | None) -> int:
    g = _load_graph(args.graph)
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
        return EXIT_OK
    entries = _components(g, lambda sub: eccentricity_profile(sub).to_json_dict(sub.labels))
    if args.format == "text":
        sys.stdout.writelines([
            f"component {i}: n={len(entry['vertices'])} radius={entry['radius']} "
            f"diameter={entry['diameter']} class={entry['class']} "
            f"center={','.join(entry['center'])}\n"
            for i, entry in enumerate(entries)
        ])
    else:
        _emit_components(entries, connected=g.is_connected(), m=g.m, n=g.n)
    return EXIT_OK


def _hicom_payload(sub: Graph, args, l: Fraction) -> dict:
    """``args.start`` is a label: the component that holds it runs from it,
    every other from its own centres."""
    start = sub.labels.index(args.start) if args.start in sub.labels else None
    result = hicom(sub, l, start=start, allow_large_l=args.allow_large_l)
    payload = result.to_json_dict()
    payload["bounds"] = [b.to_json_dict() for b in verify_k_bound(result, sub)]
    if args.max:
        biggest = extend_to_max(sub, result, result.l)
        payload["max_team"] = [sub.labels[v] for v in sorted(biggest.members)]
    if args.dot:
        Path(args.dot).write_text(to_dot(sub, team=result.team.members))
    return payload


def cmd_hicom(args, l: Fraction | None) -> int:
    g = _load_graph(args.graph)
    if args.start is not None:  # resolved once on the whole input, as a label
        args.start = g.labels[_vertex(g, _by_label(g), args.start, "--start")]
    if g.is_connected():
        _emit(_hicom_payload(g, args, l))
        return EXIT_OK
    if args.dot:
        raise ValueError("--dot draws one team and needs a connected input; this one is disconnected")

    def solve(sub: Graph) -> dict:  # the run applies to each component
        try:
            return {"result": _hicom_payload(sub, args, l)}
        except (HicomError, ValueError) as exc:
            return {"error": str(exc)}

    successes = _emit_components(_components(g, solve), lambda e: "result" in e, connected=False)
    return EXIT_OK if successes else EXIT_INFEASIBLE


def cmd_verify(args, l: Fraction | None) -> int:
    if args.graph == "-" and args.team == "-":
        raise ValueError("--team - and the graph cannot both read stdin; give one of them as a file")
    g = _load_graph(args.graph)
    members = _read_team(args.team, g)
    if not g.is_connected():
        # a team lives inside one component; evaluate it there
        part = next((p for p in iter_components(g) if members.issubset(p)), None)
        if part is None:
            return _emit_error(
                "infeasible", "team spans multiple components", EXIT_INFEASIBLE
            )
        g, _, host_index = induced_subgraph(g, part)
        members = frozenset(host_index[v] for v in members)
    report = check_hc(g, members, l)
    _emit(report.to_json_dict(g.labels))
    return EXIT_OK if report.verdict != "none" else EXIT_INFEASIBLE


def _oracle_per_component(args, solve) -> int:
    """Emit ``solve(component)`` for each component; exit 2 unless every
    component has an optimum."""
    g = _load_graph(args.graph)
    entries = _components(g, lambda sub: solve(sub).to_json_dict(sub.labels))
    if g.is_connected():
        (entry,) = entries
        _emit(entry)
        return EXIT_INFEASIBLE if entry["optimum"] is None else EXIT_OK
    missing = _emit_components(entries, lambda e: e["optimum"] is None, connected=False)
    return EXIT_INFEASIBLE if missing else EXIT_OK


def cmd_oracle_min(args, l: Fraction | None) -> int:
    return _oracle_per_component(args, lambda sub: exact_min_team(sub, args.kind, l, cap=args.cap))


def cmd_oracle_max(args, l: Fraction | None) -> int:
    return _oracle_per_component(args, lambda sub: exact_max_team(sub, l, cap=args.cap))


def cmd_oracle_cds(args, l: Fraction | None) -> int:
    return _oracle_per_component(args, lambda sub: exact_min_cds(sub, cap=args.cap))


def cmd_oracle_ratio(args, l: Fraction | None) -> int:
    graphs = corpus_mod.parse_corpus_spec(args.corpus)
    records, summary, skipped = ratio_experiment(graphs, l, cap=args.cap)
    _emit(
        {
            "l": args.l,
            "records": [r.to_json_dict() for r in records],
            "summary": summary,
            "skipped": skipped,
        }
    )
    return EXIT_OK


def cmd_oracle_bounds(args, l: Fraction | None) -> int:
    graphs = corpus_mod.parse_corpus_spec(args.corpus)
    checks, skipped = bound_sweep(graphs, l, cap=args.cap)
    _emit(
        {
            "l": args.l,
            "checks": [c.to_json_dict() for c in checks],
            "all_hold": all(c.holds for c in checks),
            "skipped": skipped,
        }
    )
    return EXIT_OK


def cmd_gen(args, l: Fraction | None) -> int:
    g = generate(
        args.kind,
        args.n,
        p=args.p,
        seed=args.seed,
        require_connected=args.connected,
    )
    text = f"# connected: {str(g.is_connected()).lower()}\n" + serialize_edge_list(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _time_best_of(fn) -> float:
    best = math.inf
    for _ in range(3):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def cmd_bench(args, l: Fraction | None) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes {args.sizes!r}: give one or more integers of at least 1")
    runs = []
    for n in sizes:
        p = 2.5 * math.log(n) / n if args.p is None else args.p
        g = connected_gnp(n, p, seed=args.seed)
        apsp_seconds = _time_best_of(lambda: all_pairs_distances(g))
        eccentricity_profile(g)  # warm; apsp_seconds times only the uncached all-pairs matrix
        begin = time.perf_counter()
        hicom(g, l)
        hicom_seconds = time.perf_counter() - begin
        runs.append(
            {
                "n": n,
                "m": g.m,
                "p": p,
                "apsp_seconds": apsp_seconds,
                "hicom_seconds": hicom_seconds,
                "total_seconds": apsp_seconds + hicom_seconds,
            }
        )
    slopes = {}
    if len(set(sizes)) >= 2:  # a slope needs two distinct sizes
        logs = [math.log(run["n"]) for run in runs]
        for key in ("apsp_seconds", "hicom_seconds", "total_seconds"):
            times = [math.log(max(run[key], 1e-9)) for run in runs]
            slopes[key.replace("_seconds", "")] = statistics.linear_regression(logs, times).slope
    _emit({"l": args.l, "seed": args.seed, "runs": runs, "slopes": slopes})
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="comfnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", nargs="?", default="-", help="edge-list file ('-' = stdin)")

    p = sub.add_parser("analyze", help="eccentricity profile per component")
    add_graph_arg(p)
    p.add_argument("--format", choices=("json", "text", "dot"), default="json")
    p.set_defaults(handler="cmd_analyze")

    p = sub.add_parser("hicom", help="construct a highly comfortable team")
    add_graph_arg(p)
    p.add_argument("--l", default="3/2", help="reduction factor, e.g. 3/2 or 1.6")
    p.add_argument("--start", default=None, help="central start vertex label")
    p.add_argument("--max", action="store_true", help="also grow a maximal team")
    p.add_argument("--allow-large-l", action="store_true", help="permit l > 2")
    p.add_argument("--dot", default=None, help="write DOT with the team highlighted")
    p.set_defaults(handler="cmd_hicom")

    p = sub.add_parser("verify", help="evaluate a team file against every condition")
    add_graph_arg(p)
    p.add_argument("--l", default="3/2")
    p.add_argument("--team", required=True, help="file with one vertex label per line")
    p.set_defaults(handler="cmd_verify")

    oracle = sub.add_parser("oracle", help="exhaustive exact answers on small graphs")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("min", help="minimum team of a kind")
    add_graph_arg(p)
    p.add_argument("--kind", choices=("comfortable", "bc", "hc"), required=True)
    p.add_argument("--l", default="3/2")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler="cmd_oracle_min")

    p = osub.add_parser("max", help="maximum team meeting the HC conditions")
    add_graph_arg(p)
    p.add_argument("--l", default="3/2")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler="cmd_oracle_max")

    p = osub.add_parser("cds", help="minimum connected dominating set")
    add_graph_arg(p)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler="cmd_oracle_cds")

    p = osub.add_parser("ratio", help="heuristic size vs exact optimum over a corpus")
    p.add_argument("--corpus", required=True, help="e.g. cycles:7-12 or trees:4-9+cycles:7-12")
    p.add_argument("--l", default="3/2")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler="cmd_oracle_ratio")

    p = osub.add_parser("bounds", help="dispersion-index sandwich over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--l", default="3/2")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler="cmd_oracle_bounds")

    p = sub.add_parser("gen", help="emit a generated graph as edge-list text")
    p.add_argument("kind", choices=("path", "cycle", "tree", "gnp"))
    p.add_argument("n", type=int)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true", help="retry gnp until connected")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler="cmd_gen")

    p = sub.add_parser("bench", help="wall-clock scaling of all-pairs BFS and hicom")
    p.add_argument("--sizes", default="100,200,400")
    p.add_argument("--p", type=float, default=None, help="fixed edge probability (default: auto)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--l", default="3/2")
    p.set_defaults(handler="cmd_bench")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``run``;
    parsing leaves no state in it, as each call gets a fresh namespace."""
    return build_parser()


def _handle(args) -> int:
    """Run the chosen handler; every failure but a closed stdout ends in an
    error object and its exit code."""
    try:
        l = parse_l(args.l) if getattr(args, "l", None) is not None else None
        if hasattr(args, "cap"):
            args.cap = oracle_cap(args.cap)  # checked up front
        # looked up at call time, so a handler replaced after the parser
        # was built is the one that runs
        return globals()[args.handler](args, l)
    except BrokenPipeError:
        raise
    except EdgeListParseError as exc:
        return _emit_error("parse", str(exc), EXIT_USAGE)
    except HicomError as exc:
        return _emit_error("infeasible", str(exc), EXIT_INFEASIBLE)
    except (ValueError, KeyError) as exc:
        return _emit_error("usage", str(exc), EXIT_USAGE)
    except OSError as exc:
        return _emit_error("io", str(exc), EXIT_USAGE)
    except MemoryError:
        return _emit_error("resource", "out of memory; the input is too large", EXIT_USAGE)
    except Exception as exc:  # pragma: no cover - defensive envelope
        return _emit_error("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _handle(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: what is left, and the flush at exit, go to devnull
        with contextlib.suppress(OSError, ValueError):  # stdout has no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


main = run


if __name__ == "__main__":
    sys.exit(main())
