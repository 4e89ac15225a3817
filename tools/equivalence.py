#!/usr/bin/env python3
"""One digest over the CLI's answers to a fixed set of commands and inputs.

Run it in two checkouts whose outputs should agree; the same digest in both
shows byte-identical behaviour over everything listed below:

    PYTHONPATH=src python tools/equivalence.py

It prints ``<commands> <sha1>``: the number of commands run and the SHA-1
over each command's argv, exit code, stdout and stderr, in order. Every
command runs in-process through ``comfnet.cli.run`` on edge-list files
written to a temporary directory under fixed names, so no path enters the
digest. It needs only the standard library and comfnet; it took 5-7 s on
one core of a shared 2-core x86-64 machine (CPython 3.10 and 3.11).

Inputs: the 310 graphs of ``standard_corpus()``; ``random_tree(n, 3)`` for
n = 20, 60, 150, 400; ``connected_gnp(n, 2.5 ln n / n, seed=5)`` for n = 30,
80, 200, 500; both ``tests/data/no_team_*`` fixtures; and the standard
corpus joined into one disconnected input.

Commands on each input: ``hicom`` at ``--l`` 3/2, 2 and 1.6 and at
``--l 5/2 --allow-large-l``; ``hicom --max --l 2`` for n <= 200; ``analyze``
in json and text; ``verify --l 3/2`` of the ``--l 3/2`` team (of a
disconnected input, its last component's team), where one exists; and for
n <= 12, ``oracle min --kind`` hc, comfortable and bc, ``oracle max`` and
``oracle cds``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from comfnet import Graph, connected_gnp, parse_edge_list, random_tree, serialize_edge_list
from comfnet.cli import run
from comfnet.corpus import standard_corpus

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def disjoint_union(graphs) -> Graph:
    """The graphs side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, w + offset) for u, w in g.edges)
        offset += g.n
    return Graph(offset, edges)


def inputs() -> list[tuple[str, int, str]]:
    """``(name, n, edge-list text)`` of every input, in a fixed order."""
    corpus = standard_corpus()
    graphs = [(f"corpus-{i:03d}", g) for i, g in enumerate(corpus)]
    graphs += [(f"tree-{n}", random_tree(n, 3)) for n in (20, 60, 150, 400)]
    graphs += [
        (f"gnp-{n}", connected_gnp(n, 2.5 * math.log(n) / n, seed=5)) for n in (30, 80, 200, 500)
    ]
    graphs.append(("corpus-union", disjoint_union(corpus)))
    found = [(name, g.n, serialize_edge_list(g)) for name, g in graphs]
    for path in sorted(DATA.glob("no_team_*.txt")):
        text = path.read_text()
        found.append((path.stem, parse_edge_list(text).n, text))
    return found


def call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command. Each warning goes to
    stderr as its category and message, every time it is raised: the file
    and line the interpreter would print move with any edit above them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), notes + err.getvalue()


def first_team(code: int, out: str) -> list[str] | None:
    """The team of a ``hicom`` answer: the team of a connected input, or
    of the last component that has one, whose vertices are renumbered."""
    if code != 0:
        return None
    payload = json.loads(out)
    if "team" in payload:
        return payload["team"]
    return [entry["result"]["team"] for entry in payload["components"] if "result" in entry][-1]


def main() -> None:
    digest, count = hashlib.sha1(), 0

    def record(argv: list[str]) -> tuple[int, str, str]:
        nonlocal count
        code, out, err = call(argv)
        for part in (json.dumps(argv), str(code), out, err):
            digest.update(part.encode() + b"\0")
        count += 1
        return code, out, err

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative names keep the temporary path out of argv
        try:
            for name, n, text in inputs():
                graph, team = f"{name}.txt", f"{name}.team"
                Path(graph).write_text(text)
                code, out, _ = record(["hicom", "--l", "3/2", graph])
                members = first_team(code, out)
                for l in ("2", "1.6"):
                    record(["hicom", "--l", l, graph])
                record(["hicom", "--l", "5/2", "--allow-large-l", graph])
                if n <= 200:
                    record(["hicom", "--max", "--l", "2", graph])
                for fmt in ("json", "text"):
                    record(["analyze", "--format", fmt, graph])
                if members is not None:
                    Path(team).write_text("\n".join(members) + "\n")
                    record(["verify", "--l", "3/2", "--team", team, graph])
                if n <= 12:
                    for kind in ("hc", "comfortable", "bc"):
                        record(["oracle", "min", "--kind", kind, "--l", "3/2", graph])
                    record(["oracle", "max", "--l", "3/2", graph])
                    record(["oracle", "cds", graph])
        finally:
            os.chdir(here)
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
