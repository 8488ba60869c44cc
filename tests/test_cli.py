import json
import shlex
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

from lcamatch.cli import build_parser, main
from lcamatch.graph import dump_graph, gen_random_bounded
from lcamatch.lca import Engine
from lcamatch.ordering import init_seeds, seedset_to_blob

from conftest import path_graph


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(dump_graph(path_graph(4)))
    return str(f)


@pytest.fixture
def k2_file(tmp_path):
    f = tmp_path / "k2.txt"
    f.write_text(dump_graph(path_graph(2)))
    return str(f)


@pytest.fixture
def g64_file(tmp_path):
    # At eps 0.5, edge 0 34 answers true under seed 0 and false under 9.
    f = tmp_path / "g64.txt"
    f.write_text(dump_graph(gen_random_bounded(64, 3, 1)))
    return str(f)


def test_query_true(k2_file, capsys):
    rc = main(["query", "--graph", k2_file, "--eps", "1.0",
               "--edge", "0 1", "--rng-seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "true"


def test_query_false_for_middle_edge(p4_file, capsys):
    rc = main(["query", "--graph", p4_file, "--eps", "0.5",
               "--edge", "1 2", "--rng-seed", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "false"


def test_query_verbose_stats_on_stderr(g64_file, capsys):
    rc = main(["query", "--graph", g64_file, "--eps", "0.5",
               "--edge", "0 34", "--rng-seed", "0", "--verbose"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "true\n"
    record = json.loads(captured.err)
    eng = Engine(gen_random_bounded(64, 3, 1), eps=0.5, rng_seed=0)
    eng.query((0, 34))
    s = eng.last_stats
    assert set(record) == {"f", "f_by_phase", "decisions", "relevant_max", "wall_time"}
    assert record["f"] == s.f > 0
    assert record["f_by_phase"] == {str(ell): c for ell, c in s.f_by_phase.items()}
    assert record["decisions"] == len(s.relevant_set_sizes) > 0
    assert record["relevant_max"] == max(s.relevant_set_sizes)
    assert record["wall_time"] > 0


def test_query_rejects_unknown_edge(p4_file, capsys):
    rc = main(["query", "--graph", p4_file, "--eps", "1.0",
               "--edge", "0 3", "--rng-seed", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text(dump_graph(path_graph(3)))
    return str(f)


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_query_rejects_non_finite_eps(p3_file, eps, capsys):
    rc = main(["query", "--graph", p3_file, f"--eps={eps}",
               "--edge", "0 1", "--rng-seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "eps" in err


def test_query_with_overflowing_inverse_eps_answers_as_k1(p3_file, capsys):
    for edge in ("0 1", "1 2"):
        answers = []
        for eps in ("1e-320", "1.0"):
            rc = main(["query", "--graph", p3_file, "--eps", eps,
                       "--edge", edge, "--rng-seed", "7"])
            assert rc == 0
            answers.append(capsys.readouterr().out.strip())
        assert answers[0] == answers[1]
        assert answers[0] in {"true", "false"}


def test_query_rejects_malformed_edge(p4_file):
    with pytest.raises(SystemExit) as exc:
        main(["query", "--graph", p4_file, "--eps", "1.0", "--edge", "zero one"])
    assert exc.value.code == 2


def test_malformed_graph_reports_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3 1 2\n0 zero\n")
    rc = main(["query", "--graph", str(f), "--eps", "1.0", "--edge", "0 1"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_materialize_text(p4_file, capsys):
    rc = main(["materialize", "--graph", p4_file, "--eps", "0.5",
               "--rng-seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 1" in out
    assert "2 3" in out
    assert "size=2" in out
    assert "k=2" in out
    assert "valid=true" in out
    assert "no_short_augmenting_path=true" in out


def test_materialize_huge_declared_vertex_count(tmp_path, capsys):
    # Storage follows the edges read: 2*10^9 declared vertices cost nothing.
    f = tmp_path / "huge.txt"
    f.write_text("2000000000 1 1\n0 1\n")
    rc = main(["materialize", "--graph", str(f), "--eps", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0 1"
    assert "size=1" in out
    assert "no_short_augmenting_path=true" in out


@pytest.mark.parametrize("command", [
    ["query", "--graph", "{graph}", "--eps", "1", "--edge", "0 1"],
    ["bench", "--n", str(10**30), "--d", "3", "--eps", "0.5"],
])
def test_vertex_count_past_maxsize_is_an_error_not_a_traceback(tmp_path, command):
    # Unrefused, the query drew about 31.8M seed coefficients and the bench
    # overflowed a list size.  The child runs under a 1 GiB address cap.
    f = tmp_path / "vast.txt"
    f.write_text(f"{10**300} 1 1\n0 1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "sys.path.insert(0, sys.argv[1]); "
        "from lcamatch.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    args = [a.format(graph=f) for a in command]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "vertex count must be at most" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_materialize_records(p4_file, capsys):
    rc = main(["materialize", "--graph", p4_file, "--eps", "0.5",
               "--rng-seed", "1", "--format", "records"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    kinds = {r["type"] for r in records}
    assert kinds == {"edge", "summary"}
    edges = {(r["u"], r["v"]) for r in records if r["type"] == "edge"}
    assert edges == {(0, 1), (2, 3)}
    (summary,) = [r for r in records if r["type"] == "summary"]
    assert summary["size"] == 2
    assert summary["valid"] is True
    assert summary["no_short_augmenting_path"] is True
    assert summary["checked_length"] == 3


def test_bench_deterministic(capsys):
    args = ["bench", "--n", "12", "--d", "3", "--eps", "0.5",
            "--trials", "2", "--queries", "6", "--rng-seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    records = [json.loads(line) for line in first.strip().splitlines()]
    assert len(records) == 2
    for r in records:
        assert r["valid"] is True
        assert r["no_short_augmenting_path"] is True
        assert r["f_max"] >= r["f_mean"] > 0
        assert r["refused"] == 0
        assert r["decisions_max"] >= 1
    # --queries past the edge count queries all 95 edges, enough for a fit.
    rc = main(["bench", "--n", "64", "--d", "3", "--eps", "0.5",
               "--queries", "1000", "--rng-seed", "5"])
    assert rc == 0
    (r,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert r["queries"] == r["edges"]
    assert r["tail_slope"] < 0
    assert 0.0 <= r["tail_r_squared"] <= 1.0


def test_bench_counts_refused_queries(capsys):
    rc = main(["bench", "--n", "1024", "--d", "3", "--eps", "0.34", "--trials", "1",
               "--queries", "50", "--budget", "100", "--rng-seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"tail_slope": null' in out
    (r,) = [json.loads(line) for line in out.splitlines()]
    assert r["k"] == 3
    assert r["queries"] == r["refused"] == 50
    # A refused query spends budget + 1 checks and counts in f_mean/f_max ...
    assert r["f_mean"] == r["f_max"] == 101
    # ... but not in the decision tail.
    assert r["decisions_max"] == 0
    assert r["tail_slope"] is None and r["tail_r_squared"] is None
    # The validity check materializes under the default budget.
    assert r["valid"] is True
    assert r["no_short_augmenting_path"] is True


def test_bench_zero_trials(capsys):
    rc = main(["bench", "--n", "8", "--d", "2", "--eps", "1.0", "--trials", "0"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_bench_prints_json_only():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "8", "--d", "2", "--eps", "1.0", "--format", "text"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--trials", "--queries", "--rng-seed"])
def test_bench_rejects_negative_counts(flag, capsys):
    rc = main(["bench", "--n", "8", "--d", "2", "--eps", "1.0", flag, "-1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_bench_refuses_an_empty_size_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", ",", "--d", "2", "--eps", "1.0"])
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


def test_seed_defaults_to_zero_whatever_the_environment(g64_file, capsys, monkeypatch):
    query = ["query", "--graph", g64_file, "--eps", "0.5", "--edge", "0 34"]
    answers = []
    for seed in ("0", "9"):
        assert main(query + ["--rng-seed", seed]) == 0
        answers.append(capsys.readouterr().out)
    assert answers == ["true\n", "false\n"]
    monkeypatch.setenv("LCAMATCH_RNG_SEED", "9")
    assert main(query) == 0
    assert capsys.readouterr().out == answers[0]


def test_seed_blob_reproduces_rng_seed(p4_file, capsys):
    blob = seedset_to_blob(init_seeds(2, 4, 7))
    rc = main(["materialize", "--graph", p4_file, "--eps", "0.5",
               "--rng-seed", "7"])
    assert rc == 0
    by_seed = capsys.readouterr().out
    rc = main(["materialize", "--graph", p4_file, "--eps", "0.5",
               "--seed-blob", blob])
    assert rc == 0
    assert capsys.readouterr().out == by_seed


def test_seed_blob_from_file_carries_benchmark_scale_seeds(tmp_path, capsys):
    # At n=1024, k=3 the blob is longer than the 128 KiB Linux allows in one
    # command-line argument, so it travels in a file.
    graph = tmp_path / "g.txt"
    graph.write_text(dump_graph(gen_random_bounded(1024, 3, 1)))
    blob = seedset_to_blob(init_seeds(3, 1024, 1))
    assert len(blob) > 131_072
    blob_file = tmp_path / "seeds.hex"
    blob_file.write_text(blob + "\n")
    common = ["materialize", "--graph", str(graph), "--eps", "0.34"]
    assert main(common + ["--rng-seed", "1"]) == 0
    by_seed = capsys.readouterr().out
    assert "k=3" in by_seed.splitlines()
    assert main(common + ["--seed-blob", f"@{blob_file}"]) == 0
    assert capsys.readouterr().out == by_seed


def test_seed_blob_file_missing_is_an_error(p4_file, tmp_path, capsys):
    rc = main(["query", "--graph", p4_file, "--eps", "0.5", "--edge", "0 1",
               "--seed-blob", f"@{tmp_path / 'absent.hex'}"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_seed_flags_mutually_exclusive(p4_file):
    # argparse lets a flag that repeats its default through, so an explicit
    # "--rng-seed 0" is refused only while the default is None.
    for seed in ("1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--graph", p4_file, "--eps", "0.5", "--edge", "0 1",
                  "--rng-seed", seed, "--seed-blob", "00"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [["bench", "--n", "16", "--d", "3", "--eps", "0.5"]],
    ids=["bench"],
)
def test_seed_blob_is_only_for_query_and_materialize(command):
    # bench draws graphs of several sizes, so a blob would be ignored;
    # argparse refuses it instead.
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed-blob", "zz-not-hex"])
    assert exc.value.code == 2


def test_seed_blob_file_that_is_not_hex_is_refused_before_it_is_read_whole(
    p4_file, tmp_path, capsys
):
    blob_file = tmp_path / "zeros.hex"
    blob_file.write_bytes(bytes(16 * 2**20))
    tracemalloc.start()
    try:
        rc = main(["query", "--graph", p4_file, "--eps", "0.5", "--edge", "0 1",
                   "--seed-blob", f"@{blob_file}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: malformed seed blob")
    assert peak < 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_hex_seed_blob_file_is_inflated_as_it_is_read(p4_file, tmp_path):
    # Hex digits pass any per-chunk character test, so only inflating the
    # file piece by piece refuses it before it is held whole (32 MiB of
    # text, 16 MiB once decoded).
    blob_file = tmp_path / "zeros.hex"
    with open(blob_file, "w") as fh:
        for _ in range(32):
            fh.write("0" * 2**20)
    src = Path(__file__).resolve().parents[1] / "src"
    # VmHWM is the peak RSS of this process image; ru_maxrss would also
    # count the forked test runner's.
    code = (
        "import re, sys; sys.path.insert(0, sys.argv[1]); "
        "from lcamatch.cli import main; rc = main(sys.argv[2:]); "
        "status = open('/proc/self/status').read(); "
        "print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), "query", "--graph", p4_file,
         "--eps", "0.5", "--edge", "0 1", "--seed-blob", f"@{blob_file}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rc, peak_kib = proc.stdout.split()
    assert rc == "1"
    assert proc.stderr.startswith("error: malformed seed blob")
    assert int(peak_kib) < 24 * 1024


def test_garbage_seed_blob(p4_file, capsys):
    rc = main(["query", "--graph", p4_file, "--eps", "0.5",
               "--edge", "0 1", "--seed-blob", "zz"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_seed_blob_missing_mode_is_an_error_not_a_traceback(p4_file, capsys):
    blob = zlib.compress(b'{"version":1,"k":1,"n":4}').hex()
    rc = main(["query", "--graph", p4_file, "--eps", "0.5",
               "--edge", "0 1", "--seed-blob", blob])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_seed_blob_with_modulus_zero_is_an_error_not_a_traceback(p4_file, capsys):
    payload = json.loads(zlib.decompress(bytes.fromhex(seedset_to_blob(init_seeds(2, 4, 7)))))
    payload["phases"]["1"]["modulus"] = 0
    blob = zlib.compress(json.dumps(payload).encode("ascii")).hex()
    rc = main(["query", "--graph", p4_file, "--eps", "0.5",
               "--edge", "0 1", "--seed-blob", blob])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_import_and_querytree_load_no_numpy():
    # bench fits its decision tail with querytree.tail_ccdf.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lcamatch, lcamatch.cli; "
        "rc = lcamatch.cli.main(['bench', '--n', '64', '--d', '3', '--eps', '0.5', "
        "'--rng-seed', '1']); "
        "assert rc == 0; print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_import_loads_only_what_a_query_runs():
    # Cold start: none of these may join the modules a bare interpreter has
    # loaded.  The oracles load on demand, and so do statistics (bench) and
    # json (seed blobs, materialize and bench output); `lcamatch query`
    # itself starts without any of them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import lcamatch; print(' '.join(sorted(set(sys.modules) - before))); "
        "import lcamatch.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added, cli_added = (set(line.split()) for line in proc.stdout.strip().splitlines()[-2:])
    assert "lcamatch.lca" in added and added <= cli_added
    assert not cli_added & {"dataclasses", "inspect", "statistics", "json", "lcamatch.oracles"}


def test_readme_cli_block_parses():
    # Every command line the README shows must still parse: a doc naming a
    # deleted command or flag fails here.  Nothing is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("lcamatch ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
