"""The CLI on disconnected inputs: one component at a time, the same bytes.

The sha1 digests below were taken from the whole-payload ``json.dumps``
output of the CLI before components were streamed, so the per-component
driver has to reproduce those bytes exactly. The digests of the relabelled
corpus were taken before ``hicom``'s repair became one walk: its ties follow
vertex indices, so they pin which vertex each tie gives up. The digest of
the diameter-two input was taken before the dominating-clique search moved
onto the connected-set walk.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import comfnet.cli as cli
from comfnet import Graph, cycle_graph, parse_edge_list, serialize_edge_list
from comfnet.corpus import small_corpus, standard_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def disjoint_union(graphs) -> Graph:
    """The graphs side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, w + offset) for u, w in g.edges)
        offset += g.n
    return Graph(offset, edges)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("union") / "corpus.txt"
    path.write_text(serialize_edge_list(disjoint_union(standard_corpus())))
    return str(path)


def relabelled_corpus_file(tmp_path_factory, seed):
    """The corpus union with its vertices shuffled by ``random.Random(seed)``:
    repair's ties follow vertex indices, so this pins them under new ones."""
    union = disjoint_union(standard_corpus())
    perm = list(range(union.n))
    random.Random(seed).shuffle(perm)
    path = tmp_path_factory.mktemp("union") / f"corpus-seed{seed}.txt"
    path.write_text(serialize_edge_list(Graph(union.n, [(perm[u], perm[w]) for u, w in union.edges])))
    return str(path)


@pytest.fixture(scope="module")
def corpus_seed1_file(tmp_path_factory):
    return relabelled_corpus_file(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def corpus_seed2_file(tmp_path_factory):
    return relabelled_corpus_file(tmp_path_factory, 2)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("union") / "small.txt"
    path.write_text(serialize_edge_list(disjoint_union(small_corpus())))
    return str(path)


@pytest.fixture(scope="module")
def some_fail_file(tmp_path_factory):
    """C7, a graph where no team exists, then K2: the middle and last fail."""
    no_team = parse_edge_list((DATA / "no_team_n15.txt").read_text())
    path = tmp_path_factory.mktemp("union") / "some_fail.txt"
    union = disjoint_union([cycle_graph(7), no_team, Graph(2, [(0, 1)])])
    path.write_text(serialize_edge_list(union))
    return str(path)


@pytest.fixture(scope="module")
def diameter_two_file(tmp_path_factory):
    """C4, C5, K4 - e, K3,3 and the Petersen graph: every component has
    diameter <= 2, so hicom takes its dominating-clique fallback on each."""
    k4_minus_edge = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    petersen = Graph(10, [(i, j) for i in range(5) for j in ((i + 1) % 5, i + 5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    path = tmp_path_factory.mktemp("union") / "diameter_two.txt"
    union = disjoint_union([cycle_graph(4), cycle_graph(5), k4_minus_edge, k33, petersen])
    path.write_text(serialize_edge_list(union))
    return str(path)


@pytest.fixture(scope="module")
def none_succeed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("union") / "none_succeed.txt"
    path.write_text("5 2\n0 1\n2 3\n")  # K2, K2 and a lone vertex: no team anywhere
    return str(path)


def call(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(argv)
    return code, out.getvalue()


# --- byte identity ------------------------------------------------------------------------

GOLDEN_SHA1 = {
    "analyze-corpus": (0, "1002f994618a8a3226c4be7b9bee783d20f9360e"),
    "hicom-corpus": (0, "db32ad2f1bad3eb47198ba94e98400ecdc8326db"),
    "hicom-max-corpus": (0, "4ecffdca2f34a4bcce5911cd42dc5b485655d593"),
    "hicom-corpus-seed1": (0, "9d5dbd4c091bb9c119032cc6ccb9270662d62ed7"),
    "hicom-corpus-seed2": (0, "c6f08bf8bbd26df7070687f12e364df4e501e6ff"),
    "hicom-max-corpus-seed1": (0, "1c832aed739382cfea946844a79c8b76abd218b3"),
    "hicom-max-corpus-seed2": (0, "7728fed3d65f08416f8d226cda79a950d3a7ccdb"),
    "oracle-min-small": (2, "20cedff3ea4deec13c0014c5aecc1a75fe06f1a7"),
    "oracle-max-small": (0, "a57e7de69806406c1c66b2f8614467057b07197a"),
    "oracle-cds-small": (0, "c4e7082ff19f55fa81e0199f0c02cd5c79ed2370"),
    "hicom-some-fail": (0, "7c4421d46b2a1fad05ad8c68fd54b490258190d4"),
    "hicom-none-succeed": (2, "928529d5f647a66bfbefc7b5ce1c47d052655f52"),
    "hicom-diameter-two": (0, "90cedfba23f403b23d8b5d3661dce327b2f8d297"),
    "oracle-min-some-fail": (1, "30521e54c37172457d8fa0c1d211f8cd3c9cb432"),
}

CASES = {
    "analyze-corpus": (["analyze"], "corpus_file"),
    "hicom-corpus": (["hicom", "--l", "3/2"], "corpus_file"),
    "hicom-max-corpus": (["hicom", "--max", "--l", "2"], "corpus_file"),
    "hicom-corpus-seed1": (["hicom", "--l", "3/2"], "corpus_seed1_file"),
    "hicom-corpus-seed2": (["hicom", "--l", "3/2"], "corpus_seed2_file"),
    "hicom-max-corpus-seed1": (["hicom", "--max", "--l", "2"], "corpus_seed1_file"),
    "hicom-max-corpus-seed2": (["hicom", "--max", "--l", "2"], "corpus_seed2_file"),
    "oracle-min-small": (["oracle", "min", "--kind", "comfortable"], "small_file"),
    "oracle-max-small": (["oracle", "max"], "small_file"),
    "oracle-cds-small": (["oracle", "cds"], "small_file"),
    "hicom-some-fail": (["hicom"], "some_fail_file"),
    "hicom-none-succeed": (["hicom"], "none_succeed_file"),
    "hicom-diameter-two": (["hicom"], "diameter_two_file"),
    "oracle-min-some-fail": (["oracle", "min", "--kind", "hc"], "some_fail_file"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(request, name):
    argv, fixture = CASES[name]
    code, out = call([*argv, request.getfixturevalue(fixture)])
    assert (code, hashlib.sha1(out.encode()).hexdigest()) == GOLDEN_SHA1[name]


# --- failures and closed pipes ------------------------------------------------------------

def test_a_failure_on_the_way_leaves_only_the_error_object(capsys, monkeypatch, tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(serialize_edge_list(disjoint_union([cycle_graph(n) for n in range(7, 12)])))
    real_hicom, calls = cli.hicom, []

    def third_runs_out(g, *args, **kwargs):
        calls.append(g.n)
        if len(calls) == 3:
            raise MemoryError
        return real_hicom(g, *args, **kwargs)

    monkeypatch.setattr(cli, "hicom", third_runs_out)
    code = cli.main(["hicom", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and calls == [7, 8, 9]
    message = "out of memory; the input is too large"
    assert payload == {"error": {"code": "resource", "message": message}}

    def fails(g, *args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "eccentricity_profile", fails)
    code = cli.main(["analyze", str(path)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "internal"


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    """Exit 1 and a quiet stderr whether the reader goes mid-output or has
    gone before the first byte, also when the run ends in an error object."""
    path = tmp_path / "pairs.txt"  # 3 000 components: far more output than a pipe holds
    path.write_text("6000 3000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(3000)))
    env = {"PYTHONPATH": str(SRC)}
    child = subprocess.Popen(
        [sys.executable, "-m", "comfnet.cli", "analyze", str(path)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    star = tmp_path / "star.txt"  # diameter 2 and its dominating clique is no team
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("4 3\n0 1\n0 x\n")
    for graph in (star, bad):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            done = subprocess.run(
                [sys.executable, "-m", "comfnet.cli", "hicom", str(graph)], env=env,
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = done.stderr.decode()
        assert done.returncode == 1, (graph.name, stderr)
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_output_goes_only_to_the_current_stdout(tmp_path, corpus_file):
    """Every byte of a call reaches the ``sys.stdout`` of the moment it
    runs, as a caller that captures the output with ``redirect_stdout``
    expects; nothing is left to reach the process's own stdout later."""
    connected = tmp_path / "c7.txt"
    connected.write_text(serialize_edge_list(cycle_graph(7)))
    script = (
        "import contextlib, io, json, sys\n"
        "from comfnet.cli import run\n"
        "for argv in (['hicom'], ['analyze'], ['oracle', 'cds']):\n"
        "    for path in sys.argv[1:]:\n"
        "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "            code = run([*argv, path])\n"
        "        assert code in (0, 1, 2), (argv, path, code)\n"
        "        json.loads(out.getvalue())\n"
        "print('sentinel')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(connected), corpus_file],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "sentinel\n"


# --- options that name a vertex or a file ------------------------------------------------

@pytest.fixture
def p5_p7(tmp_path):
    """P5 on v1-v5 (centre v3) beside P7 on v6-v12 (centre v9)."""
    path = tmp_path / "p5-p7.txt"
    path.write_text(serialize_edge_list(disjoint_union([Graph(5, [(i, i + 1) for i in range(4)]),
                                                       Graph(7, [(i, i + 1) for i in range(6)])])))
    return str(path)


@pytest.mark.parametrize("start, starts", [
    ("v3", ["v3", "v9"]), ("2", ["v3", "v9"]), ("v9", ["v3", "v9"]), ("8", ["v3", "v9"]),
])
def test_hicom_start_is_one_vertex_of_the_whole_input(p5_p7, start, starts):
    """``--start`` names one vertex of the input, as a label or a host
    index; its component runs from it, the other from its own centre."""
    code, out = call(["hicom", "--start", start, p5_p7])
    entries = json.loads(out)["components"]
    assert code == 0 and all("result" in e for e in entries), out
    assert [e["result"]["start"] for e in entries] == starts


def test_hicom_start_that_is_not_central_is_named_by_its_label(tmp_path):
    path = tmp_path / "p5-p5.txt"
    p5 = Graph(5, [(i, i + 1) for i in range(4)])
    path.write_text(serialize_edge_list(disjoint_union([p5, p5])))
    code, out = call(["hicom", "--start", "v2", str(path)])
    first, second = json.loads(out)["components"]
    assert code == 0
    assert first["error"] == "start vertex v2 is not central (eccentricity 3 != radius 2)"
    assert second["result"]["start"] == "v8"


@pytest.mark.parametrize("start", ["v13", "12", "-1", "x"])
def test_hicom_start_that_names_no_vertex_is_a_usage_error(monkeypatch, p5_p7, start):
    def never(*args, **kwargs):
        raise AssertionError("hicom ran before --start was checked")

    monkeypatch.setattr(cli, "hicom", never)
    code, out = call(["hicom", f"--start={start}", p5_p7])
    error = json.loads(out)["error"]
    assert (code, error["code"]) == (1, "usage")
    assert repr(start) in error["message"]


def test_hicom_dot_on_a_disconnected_input_is_a_usage_error(p5_p7, tmp_path):
    """One DOT file cannot hold a team per component, so the flag is
    refused before any component runs."""
    dot = tmp_path / "team.dot"
    code, out = call(["hicom", "--dot", str(dot), p5_p7])
    error = json.loads(out)["error"]
    assert (code, error["code"]) == (1, "usage")
    assert "--dot" in error["message"]
    assert not dot.exists()


# --- memory -------------------------------------------------------------------------------

def test_hicom_on_the_corpus_union_holds_one_component_at_a_time(corpus_file):
    """The 310 corpus graphs as one input: the input graph, one component
    and the finished entries' text (about 0.9 MB) are what a call holds."""
    argv = ["hicom", "--l", "3/2", corpus_file]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli.run(argv)  # imports and the parser are not the call's
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3.5 * 2**20, peak
