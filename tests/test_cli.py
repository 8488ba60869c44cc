import json
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from lcamatch.cli import main
from lcamatch.graph import dump_graph, gen_random_bounded
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


def test_query_verbose_stats_on_stderr(p4_file, capsys):
    rc = main(["query", "--graph", p4_file, "--eps", "0.5",
               "--edge", "0 1", "--rng-seed", "0", "--verbose"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.strip() in {"true", "false"}
    assert "f=" in captured.err


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


def test_bench_zero_trials(capsys):
    rc = main(["bench", "--n", "8", "--d", "2", "--eps", "1.0", "--trials", "0"])
    assert rc == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--trials", "--queries"])
def test_bench_rejects_negative_counts(flag, capsys):
    rc = main(["bench", "--n", "8", "--d", "2", "--eps", "1.0", flag, "-1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_querytree_csv(capsys):
    rc = main(["querytree", "--d", "2", "--trials", "2000", "--cap", "40",
               "--rng-seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,ccdf"
    assert lines[1] == "1,1"
    assert lines[-1].startswith("# d=2 ")


def test_querytree_text(capsys):
    rc = main(["querytree", "--d", "3", "--trials", "2000", "--cap", "60",
               "--rng-seed", "2", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=" in out
    assert "r_squared=" in out


def test_env_seed_fallback(k2_file, capsys, monkeypatch):
    monkeypatch.setenv("LCAMATCH_RNG_SEED", "9")
    rc = main(["query", "--graph", k2_file, "--eps", "1.0", "--edge", "0 1"])
    assert rc == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("LCAMATCH_RNG_SEED")
    rc = main(["query", "--graph", k2_file, "--eps", "1.0",
               "--edge", "0 1", "--rng-seed", "9"])
    assert rc == 0
    assert capsys.readouterr().out == with_env


def test_env_seed_must_be_integer(k2_file, capsys, monkeypatch):
    monkeypatch.setenv("LCAMATCH_RNG_SEED", "not-a-number")
    rc = main(["query", "--graph", k2_file, "--eps", "1.0", "--edge", "0 1"])
    assert rc == 1
    assert "LCAMATCH_RNG_SEED" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as exc:
        main(["query", "--graph", p4_file, "--eps", "0.5", "--edge", "0 1",
              "--rng-seed", "1", "--seed-blob", "00"])
    assert exc.value.code == 2


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
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lcamatch, lcamatch.cli; "
        "rc = lcamatch.cli.main(['querytree', '--d', '3', '--trials', '1000', "
        "'--cap', '50', '--rng-seed', '1', '--format', 'text']); "
        "assert rc == 0; print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "False"
