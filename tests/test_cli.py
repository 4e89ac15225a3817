import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from comfnet import cycle_graph, parse_edge_list, serialize_edge_list
from comfnet.cli import main
from conftest import P6_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(serialize_edge_list(cycle_graph(6)))
    return str(path)


@pytest.fixture
def p6_file(tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# --- analyze -------------------------------------------------------------------

def test_analyze_p6(capsys, p6_file):
    code, payload = run_json(capsys, "analyze", p6_file)
    assert code == 0
    assert payload["connected"] is True
    component = payload["components"][0]
    assert component["radius"] == 3
    assert component["diameter"] == 5
    assert component["class"] == "tri-eccentric"
    assert component["center"] == ["v3", "v4"]


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n0 1\n1 2\n0 2\n"))
    code, payload = run_json(capsys, "analyze")
    assert code == 0
    assert payload["components"][0]["class"] == "self-centered"


def test_analyze_disconnected_components(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("5 3\n0 1\n1 2\n3 4\n")
    code, payload = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert payload["connected"] is False
    assert [c["vertices"] for c in payload["components"]] == [
        ["v1", "v2", "v3"],
        ["v4", "v5"],
    ]


def test_analyze_text_format(capsys, c6_file):
    code, out = run_cli(capsys, "analyze", "--format", "text", c6_file)
    assert code == 0
    assert "radius=3" in out and "self-centered" in out


def test_analyze_dot_format(capsys, c6_file):
    code, out = run_cli(capsys, "analyze", "--format", "dot", c6_file)
    assert code == 0
    assert out.startswith("graph G {")


# --- gen ------------------------------------------------------------------------

def test_gen_cycle_roundtrip(capsys):
    code, out = run_cli(capsys, "gen", "cycle", "6")
    assert code == 0
    assert out.startswith("# connected: true\n")
    assert parse_edge_list(out) == cycle_graph(6)


def test_gen_pipe_into_analyze(capsys, monkeypatch):
    code, out = run_cli(capsys, "gen", "cycle", "6")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, payload = run_json(capsys, "analyze", "-")
    assert code == 0
    assert payload["components"][0]["diameter"] == 3
    assert payload["components"][0]["class"] == "self-centered"


def test_gen_gnp_deterministic(capsys, tmp_path):
    code, first = run_cli(capsys, "gen", "gnp", "20", "--p", "0.2", "--seed", "7")
    code, second = run_cli(capsys, "gen", "gnp", "20", "--p", "0.2", "--seed", "7")
    assert first == second
    out = tmp_path / "g.txt"
    assert main(["gen", "gnp", "20", "--p", "0.2", "--seed", "7", "-o", str(out)]) == 0
    assert out.read_text() == first


def test_gen_usage_error(capsys):
    code, payload = run_json(capsys, "gen", "gnp", "20")  # missing --p
    assert code == 1
    assert payload["error"]["code"] == "usage"


# --- hicom ----------------------------------------------------------------------

def test_hicom_c6(capsys, c6_file):
    code, payload = run_json(capsys, "hicom", "--l", "3/2", c6_file)
    assert code == 0
    assert payload["team"] == ["v1", "v2", "v6"]
    assert payload["d1"] == 2
    assert payload["k"] == 2
    assert payload["report"]["verdict"] == "3/2-HC"
    assert [b["name"] for b in payload["bounds"]][0] == "construction k <= r(G) - x"
    assert all(b["holds"] for b in payload["bounds"])


def test_hicom_start_and_max_and_dot(capsys, c6_file, tmp_path):
    dot_path = tmp_path / "team.dot"
    code, payload = run_json(
        capsys, "hicom", "--l", "3/2", "--start", "v2", "--max", "--dot", str(dot_path), c6_file
    )
    assert code == 0
    assert payload["start"] == "v2"
    assert payload["team"] == ["v1", "v2", "v3"]
    assert payload["max_team"] == ["v1", "v2", "v3"]
    dot = dot_path.read_text()
    assert '"v1" [style=filled, fillcolor=lightblue, team=true];' in dot


def test_hicom_degenerate_l_is_infeasible_exit(capsys, c6_file):
    code, payload = run_json(capsys, "hicom", "--l", "1.05", c6_file)
    assert code == 2
    assert payload["error"]["code"] == "infeasible"


def test_hicom_bad_l_is_usage_exit(capsys, c6_file):
    code, payload = run_json(capsys, "hicom", "--l", "0.9", c6_file)
    assert code == 1
    assert payload["error"]["code"] == "usage"


def test_hicom_disconnected_runs_per_component(capsys, tmp_path):
    path = tmp_path / "two.txt"
    # a 6-cycle plus an isolated edge: the cycle yields a team, the edge cannot
    path.write_text("8 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n6 7\n")
    code, payload = run_json(capsys, "hicom", "--l", "3/2", str(path))
    assert code == 0
    cycle_entry, edge_entry = payload["components"]
    assert cycle_entry["result"]["team"] == ["v1", "v2", "v6"]
    assert "error" in edge_entry


def test_hicom_single_start_failure_is_infeasible_exit(capsys):
    code, payload = run_json(capsys, "hicom", "--start", "v1", str(DATA / "no_team_n15.txt"))
    assert code == 2
    assert payload["error"]["code"] == "infeasible"


# --- verify ------------------------------------------------------------------------

def test_verify_round_trip(capsys, c6_file, tmp_path):
    code, payload = run_json(capsys, "hicom", "--l", "3/2", c6_file)
    team_file = tmp_path / "team.txt"
    team_file.write_text("# winning team\n" + "\n".join(payload["team"]) + "\n")
    code, report = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), c6_file)
    assert code == 0
    assert report == payload["report"]


def test_verify_rejects_whole_graph(capsys, c6_file, tmp_path):
    team_file = tmp_path / "team.txt"
    team_file.write_text("".join(f"v{i}\n" for i in range(1, 7)))
    code, report = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), c6_file)
    assert code == 2
    assert report["verdict"] == "none"


def test_verify_accepts_indices(capsys, c6_file, tmp_path):
    team_file = tmp_path / "team.txt"
    team_file.write_text("5\n0\n1\n")
    code, report = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), c6_file)
    assert code == 0
    assert report["verdict"] == "3/2-HC"


def test_verify_team_spanning_components(capsys, tmp_path):
    graph_file = tmp_path / "two.txt"
    graph_file.write_text("4 2\n0 1\n2 3\n")
    team_file = tmp_path / "team.txt"
    team_file.write_text("v1\nv3\n")
    code, payload = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), str(graph_file))
    assert code == 2
    assert "components" in payload["error"]["message"]


@pytest.mark.parametrize("team", ["v9\nv4\nv5\n", "8\n3\n4\n"], ids=["labels", "host-indices"])
def test_verify_team_in_second_component(capsys, tmp_path, team):
    # a triangle, then a 6-cycle on v4..v9 whose team {v4, v5, v9} is 3/2-HC
    graph_file = tmp_path / "two.txt"
    graph_file.write_text("9 9\n0 1\n1 2\n0 2\n3 4\n4 5\n5 6\n6 7\n7 8\n3 8\n")
    team_file = tmp_path / "team.txt"
    team_file.write_text(team)
    code, report = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), str(graph_file))
    assert code == 0
    assert report["team"] == ["v4", "v5", "v9"]
    assert report["verdict"] == "3/2-HC"


def test_verify_refuses_team_and_graph_both_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
    code, payload = run_json(capsys, "verify", "--team", "-")
    assert code == 1
    assert payload["error"]["code"] == "usage"
    assert "stdin" in payload["error"]["message"]


def test_verify_unknown_vertex(capsys, c6_file, tmp_path):
    team_file = tmp_path / "team.txt"
    team_file.write_text("v99\n")
    code, payload = run_json(capsys, "verify", "--l", "3/2", "--team", str(team_file), c6_file)
    assert code == 1
    assert payload["error"]["code"] == "usage"


def test_verify_reads_a_long_team_file_in_linear_time(capsys, tmp_path):
    """A 10 000-line team on a 20 000-vertex path, labels and indices
    alternating. Resolving each line by a scan of the labels took 1.1-2.0 s
    here; the output is pinned by its sha1."""
    n = 20_000
    graph = tmp_path / "path.txt"
    graph.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    lines = ["# the middle half of the path"]
    lines += [f"v{v + 1}" if v % 2 else str(v) for v in range(5_000, 15_000)]
    team = tmp_path / "team.txt"
    team.write_text("\n".join(lines) + "\n")
    started = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--l", "3/2", "--team", str(team), str(graph))
    elapsed = time.perf_counter() - started
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "a70b7ef1aa4fc2c0bdf8b647e48ab2f306c753f5"
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


# --- oracle ---------------------------------------------------------------------------

def test_oracle_min_comfortable_infeasible(capsys, c6_file):
    code, payload = run_json(capsys, "oracle", "min", "--kind", "comfortable", c6_file)
    assert code == 2
    assert payload["optimum"] is None
    assert payload["enumerated"] == 62


def test_oracle_min_bc(capsys, c6_file):
    code, payload = run_json(capsys, "oracle", "min", "--kind", "bc", "--l", "2", c6_file)
    assert code == 0
    assert payload["optimum"] == 3
    assert payload["witness"] == ["v1", "v2", "v3"]


def test_oracle_max(capsys, c6_file):
    code, payload = run_json(capsys, "oracle", "max", "--l", "3/2", c6_file)
    assert code == 0
    assert payload["optimum"] == 3


def test_oracle_cds(capsys, p6_file):
    code, payload = run_json(capsys, "oracle", "cds", p6_file)
    assert code == 0
    assert payload["optimum"] == 4
    assert payload["witness"] == ["v2", "v3", "v4", "v5"]


def test_oracle_ratio(capsys):
    code, payload = run_json(capsys, "oracle", "ratio", "--corpus", "cycles:7-9", "--l", "3/2")
    assert code == 0
    assert payload["summary"]["count"] == 3
    assert payload["summary"]["max_ratio"] >= 1.0


def test_oracle_bounds(capsys):
    code, payload = run_json(capsys, "oracle", "bounds", "--corpus", "cycles:6-8", "--l", "3/2")
    assert code == 0
    assert payload["all_hold"] is True
    assert len(payload["checks"]) == 6


def test_oracle_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(serialize_edge_list(cycle_graph(20)))
    code, payload = run_json(capsys, "oracle", "min", "--kind", "hc", "--l", "3/2", str(path))
    assert code == 1
    assert "cap" in payload["error"]["message"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (("oracle", "min", "--kind", "comfortable", "--cap", "-3"), "cap=-3"),
        (("oracle", "cds", "--cap", "0"), "cap=0"),
        (("bench", "--sizes", "0"), "--sizes '0'"),
        (("bench", "--sizes", "40,-2"), "--sizes '40,-2'"),
        (("bench", "--sizes", "1e3"), "--sizes '1e3'"),
    ],
    # fixed ids: the names earlier runs of the suite report for these rows
    ids=["argv0-None-cap=-3", "argv1-None-cap=0", "argv4-None---sizes '0'",
         "argv5-None---sizes '40,-2'", "argv6-None---sizes '1e3'"],
)
def test_bad_cap_and_sizes_are_usage_errors(capsys, c6_file, argv, named):
    if argv[0] == "oracle":
        argv = (*argv, c6_file)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["error"]["code"] == "usage"
    assert named in payload["error"]["message"]


# --- error envelope and exit codes ------------------------------------------------------

def test_missing_file_is_io_error(capsys):
    code, payload = run_json(capsys, "analyze", "/does/not/exist.txt")
    assert code == 1
    assert payload["error"]["code"] == "io"


def test_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n")
    code, payload = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert payload["error"]["code"] == "parse"
    assert "line 2" in payload["error"]["message"]


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 1


def test_oversized_input_is_a_resource_error():
    resource = pytest.importorskip("resource")  # POSIX only
    limit = 512 * 2**20  # 10^8 vertices need far more address space than this

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "comfnet.cli", "analyze", "-"],
        input="100000000 0\n", env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert json.loads(done.stdout)["error"]["code"] == "resource"


def test_internal_error_exits_three(capsys, monkeypatch, c6_file):
    import comfnet.cli as cli

    def boom(args, config):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_analyze", boom)
    code, payload = run_json(capsys, "analyze", c6_file)
    assert code == 3
    assert payload["error"]["code"] == "internal"


# --- one parser per process ----------------------------------------------------------------

def test_parser_is_built_once_per_process(capsys, monkeypatch, c6_file):
    import comfnet.cli as cli

    built = []

    def counted_build_parser():
        built.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    assert run_cli(capsys, "analyze", c6_file)[0] == 0
    assert run_cli(capsys, "oracle", "cds", c6_file)[0] == 0
    assert len(built) == 1


def test_no_option_leaks_into_the_next_call(capsys, c6_file, tmp_path):
    code, payload = run_json(capsys, "hicom", "--max", "--l", "3/2", c6_file)
    assert code == 0 and "max_team" in payload
    code, payload = run_json(capsys, "hicom", c6_file)
    assert code == 0 and "max_team" not in payload

    big = tmp_path / "c16.txt"
    big.write_text(serialize_edge_list(cycle_graph(16)))
    code, payload = run_json(capsys, "oracle", "min", "--kind", "bc", "--cap", "16", str(big))
    assert code == 0 and payload["enumerated"] > 0
    code, payload = run_json(capsys, "oracle", "min", "--kind", "bc", str(big))
    assert code == 1 and "cap" in payload["error"]["message"]  # the default cap is back


def test_a_usage_error_leaves_the_parser_usable(capsys, c6_file):
    with pytest.raises(SystemExit) as exc:
        main(["hicom", "--no-such-flag", c6_file])
    assert exc.value.code == 1
    capsys.readouterr()
    code, payload = run_json(capsys, "analyze", c6_file)
    assert code == 0
    assert payload["components"][0]["class"] == "self-centered"


# --- determinism --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("analyze",),
        ("hicom", "--l", "3/2", "--max"),
        ("oracle", "min", "--kind", "hc", "--l", "3/2"),
        ("oracle", "max", "--l", "3/2"),
    ],
)
def test_byte_identical_reruns(capsys, c6_file, argv):
    code1, first = run_cli(capsys, *argv, c6_file)
    code2, second = run_cli(capsys, *argv, c6_file)
    assert code1 == code2 == 0
    assert first == second


def test_bench_smoke(capsys, monkeypatch):
    import comfnet.cli
    import comfnet.graphs

    real_apsp, real_hicom = comfnet.graphs.all_pairs_distances, comfnet.cli.hicom
    apsp_calls = []
    apsp_calls_per_hicom = []
    profiles_cached = []

    def counted_apsp(g):
        apsp_calls.append(g.n)
        return real_apsp(g)

    def watched_hicom(g, l):
        before = len(apsp_calls)
        profiles_cached.append(g._profile is not None)
        result = real_hicom(g, l)
        apsp_calls_per_hicom.append(len(apsp_calls) - before)
        return result

    monkeypatch.setattr(comfnet.graphs, "all_pairs_distances", counted_apsp)
    monkeypatch.setattr(comfnet.cli, "hicom", watched_hicom)
    code, payload = run_json(capsys, "bench", "--sizes", "30,40", "--seed", "3")
    assert code == 0
    assert [run["n"] for run in payload["runs"]] == [30, 40]
    assert "apsp" in payload["slopes"]
    # the timed hicom runs no all-pairs BFS and finds the host profile warm
    assert apsp_calls_per_hicom == [0, 0]
    assert profiles_cached == [True, True]


def test_analyze_and_oracle_scans_load_no_hashlib(c6_file):
    """Only ``graph_digest`` needs hashlib, and loading it (OpenSSL) costs
    megabytes of RSS, so ``analyze`` and the three oracle scans never
    import it."""
    script = (
        "import sys, contextlib, io\n"
        "from comfnet.cli import run\n"
        "g = sys.argv[1]\n"
        "commands = [\n"
        "    ['analyze', g], ['oracle', 'min', '--kind', 'comfortable', g],\n"
        "    ['oracle', 'min', '--kind', 'hc', '--l', '3/2', g],\n"
        "    ['oracle', 'max', '--l', '3/2', g], ['oracle', 'cds', g],\n"
        "]\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        code = run(argv)\n"
        "    assert code in (0, 2), (argv, code, text.getvalue())\n"
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, c6_file],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_hicom_loads_no_hashlib(c6_file, p6_file):
    """``graph_digest`` hashes with the builtin ``_sha1``, so a ``hicom``
    run, whose bounds name the graph by its digest, loads no OpenSSL."""
    script = (
        "import sys, contextlib, io\n"
        "from comfnet.cli import run\n"
        "for g in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        code = run(['hicom', '--l', '3/2', g])\n"
        "    assert code == 0 and '\"bounds\"' in text.getvalue(), (g, code)\n"
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, c6_file, p6_file],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
