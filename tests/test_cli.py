"""End-to-end command-line behavior: determinism, exit codes, formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvowf
from mvowf import cli, field, wreath
from mvowf.cli import main
from mvowf.field import identity
from mvowf.formats import dump_graph, matrix_to_text, parse_instance, parse_matrix
from mvowf.graphs import SimpleGraph, brute_force_iso, is_isomorphism
from mvowf.permstats import transposition_poly_enumerated


def run(args):
    return main(args)


def test_keygen_eval_invert_round_trip(tmp_path, capsys):
    key_file = tmp_path / "k.json"
    assert run(["keygen", "--q", "2", "--n", "3", "--delta", "6", "--seed", "7", "--out", str(key_file)]) == 0
    first = key_file.read_bytes()
    assert run(["keygen", "--q", "2", "--n", "3", "--delta", "6", "--seed", "7", "--out", str(key_file)]) == 0
    assert key_file.read_bytes() == first  # bit-reproducible

    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(matrix_to_text(((0, 1, 0), (1, 0, 0), (1, 1, 1))))
    inst_file = tmp_path / "inst.json"
    assert run(["eval", str(key_file), str(matrix_file), "--out", str(inst_file)]) == 0
    key, image = parse_instance(inst_file.read_text())
    assert image is not None and len(image) == key.m

    assert run(["invert", str(inst_file)]) == 0
    out = capsys.readouterr().out
    recovered = parse_matrix(out, 2)
    from mvowf.owf import evaluate

    assert evaluate(key, recovered) == image


def test_eval_rejects_singular_matrix(tmp_path, capsys):
    key_file = tmp_path / "k.json"
    run(["keygen", "--q", "2", "--n", "2", "--delta", "2", "--seed", "1", "--out", str(key_file)])
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n1 1\n")
    assert run(["eval", str(key_file), str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: evaluation domain is GL_n; matrix is singular\n")


def test_eval_rejects_non_string_key_vectors(tmp_path, capsys):
    key_file = tmp_path / "k.json"
    run(["keygen", "--q", "2", "--n", "2", "--delta", "1", "--seed", "1", "--out", str(key_file)])
    doc = json.loads(key_file.read_text())
    doc["V"] = [[0, 1], [1, 0], [1, 1]]
    key_file.write_text(json.dumps(doc))
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(matrix_to_text(identity(2)))
    assert run(["eval", str(key_file), str(matrix_file)]) == 2
    assert "expected a string" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_perm_stats", boom)
    assert run(["perm-stats", "--k", "2"]) == 4
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_invert_not_in_image_exit_code(tmp_path):
    key_file = tmp_path / "k.json"
    run(["keygen", "--q", "2", "--n", "2", "--delta", "1", "--seed", "3", "--out", str(key_file)])
    key, _ = parse_instance(key_file.read_text())
    doc = json.loads(key_file.read_text())
    doc["W"] = ["0 0"] * key.m  # zero vector is unreachable
    inst = tmp_path / "w.json"
    inst.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert run(["invert", str(inst)]) == 1


def test_invert_without_image_exits_2(tmp_path, capsys):
    key_file = tmp_path / "k.json"
    assert run(["keygen", "--q", "2", "--n", "3", "--seed", "1", "--out", str(key_file)]) == 0
    assert run(["invert", str(key_file)]) == 2
    assert capsys.readouterr() == ("", "error: instance file has no image W to invert\n")


def test_invert_budget_exit_code(tmp_path):
    key_file = tmp_path / "k.json"
    run(["keygen", "--q", "2", "--n", "4", "--delta", "8", "--seed", "5", "--out", str(key_file)])
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(matrix_to_text(identity(4)))
    inst = tmp_path / "inst.json"
    run(["eval", str(key_file), str(matrix_file), "--out", str(inst)])
    assert run(["invert", str(inst), "--budget", "2"]) == 3


def test_usage_error_exit_code(tmp_path):
    assert run(["invert", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["keygen", "--q", "2", "--n", "4"])  # --seed is required
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["invert", "eval-key", "eval-matrix", "gi-solve"])
def test_directory_argument_is_usage_error(command, tmp_path, capsys):
    key_file, matrix_file, graph_file = tmp_path / "k.json", tmp_path / "m.txt", tmp_path / "g.txt"
    run(["keygen", "--q", "2", "--n", "3", "--seed", "1", "--out", str(key_file)])
    matrix_file.write_text(matrix_to_text(identity(3)))
    graph_file.write_text(dump_graph(SimpleGraph.from_edges(3, [(0, 1)])))
    args = {
        "invert": ["invert", str(tmp_path)],
        "eval-key": ["eval", str(tmp_path), str(matrix_file)],
        "eval-matrix": ["eval", str(key_file), str(tmp_path)],
        "gi-solve": ["gi-solve", str(graph_file), str(tmp_path), "--q", "2"],
    }[command]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Is a directory" in err


def test_directory_out_is_usage_error(tmp_path, capsys):
    """Every subcommand writes through one --out path."""
    assert run(["keygen", "--q", "2", "--n", "3", "--seed", "1", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize("q", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["keygen", "--n", "4", "--delta", "2"],
        ["hsp-check", "--n", "2", "--delta", "1"],
        ["hardcore-trace", "--n", "2", "--delta", "1"],
        ["hardcore-bilinear", "--n", "3", "--delta", "2"],
    ],
)
def test_empty_modulus_range_exits_2(command, q, capsys):
    """A modulus below 1 fails at the first draw with exit 2, not a hang."""
    assert run(command + ["--q", q, "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: empty range for randrange()\n")


@pytest.mark.parametrize(
    "command",
    [
        ["keygen", "--n", "3"],
        ["hsp-check", "--n", "2"],
        ["hardcore-trace", "--n", "2"],
        ["hardcore-bilinear", "--n", "3"],
    ],
)
def test_modulus_one_without_delta_exits_2(command, capsys):
    """The default delta divides by ln^2 q, so it checks the modulus first."""
    assert run(command + ["--q", "1", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: modulus 1 is not prime\n")


@pytest.mark.parametrize("q", ["1", "4", "6", "257"])
def test_gi_solve_rejects_bad_modulus(q, tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(dump_graph(SimpleGraph.from_edges(3, [(0, 1)])))
    assert run(["gi-solve", str(graph_file), str(graph_file), "--q", q]) == 2
    reason = "too large (need q < 256)" if q == "257" else "is not prime"
    assert capsys.readouterr() == ("", f"error: modulus {q} {reason}\n")


def test_gi_solve_fixture(tmp_path, capsys):
    g1 = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    g2 = SimpleGraph.from_edges(5, [(2, 4), (4, 0), (0, 3), (3, 1)])  # relabeled path
    f1, f2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    f1.write_text(dump_graph(g1))
    f2.write_text(dump_graph(g2))
    assert brute_force_iso(g1, g2) is not None  # fixture sanity
    for q in ("2", "3"):
        assert run(["gi-solve", str(f1), str(f2), "--q", q, "--seed", "1"]) == 0
        pi = tuple(int(x) for x in capsys.readouterr().out.split())
        assert is_isomorphism(pi, g1, g2)


def test_gi_solve_negative(tmp_path):
    path4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star4 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    f1, f2 = tmp_path / "p.txt", tmp_path / "s.txt"
    f1.write_text(dump_graph(path4))
    f2.write_text(dump_graph(star4))
    assert run(["gi-solve", str(f1), str(f2), "--q", "3", "--seed", "1"]) == 1


def test_gi_solve_empty_graphs(tmp_path, capsys):
    """Two graphs with no vertices are isomorphic by the empty permutation."""
    f = tmp_path / "empty.txt"
    f.write_text("0 0\n")
    for q in ("2", "3"):
        assert run(["gi-solve", str(f), str(f), "--q", q]) == 0
        assert capsys.readouterr() == ("\n", "")


def test_keygen_reports_m_below_n_before_drawing(capsys):
    """m = n + delta is checked before any vector is drawn, so the message
    names m itself, negative too."""
    assert run(["keygen", "--q", "2", "--n", "2", "--delta", "-3", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: need m >= n, got m = -1, n = 2\n")


def test_gi_encode_rejects_empty_graph(tmp_path, capsys):
    """An instance with n = 0 could not be read back, so none is written."""
    f = tmp_path / "empty.txt"
    f.write_text("0 0\n")
    out = tmp_path / "inst.json"
    assert run(["gi-encode", str(f), "--q", "2", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: n must be a positive integer, got 0\n")
    assert not out.exists()


def test_gi_encode(tmp_path):
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    f = tmp_path / "g.txt"
    f.write_text(dump_graph(g))
    out = tmp_path / "inst.json"
    assert run(["gi-encode", str(f), "--q", "3", "--out", str(out)]) == 0
    key, image = parse_instance(out.read_text())
    assert image is None
    assert key.q == 3 and key.n == 3 and key.m == 5
    assert key.vectors[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_perm_stats_matches_enumeration(capsys):
    assert run(["perm-stats", "--k", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = [int(c) for c in transposition_poly_enumerated(6)]
    assert doc["coefficients"] == expected


def test_injectivity_csv_deterministic(capsys):
    args = ["injectivity", "--q", "2", "--n", "3", "--deltas", "0,2", "--trials", "20",
            "--seed", "4", "--format", "csv"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    header = first.splitlines()[0]
    assert header == "delta,m,trials,injective,probability,std_error"


@pytest.mark.parametrize(
    "q, n, deltas, stdout",
    [
        (
            "3", "4", "2,4",
            '[\n  {\n    "delta": 2,\n    "injective": 0,\n    "m": 6,\n    "probability": 0.0,\n'
            '    "trials": 20\n  },\n  {\n    "delta": 4,\n    "injective": 10,\n    "m": 8,\n'
            '    "probability": 0.5,\n    "trials": 20\n  }\n]\n',
        ),
        (
            "5", "3", "1,3",
            '[\n  {\n    "delta": 1,\n    "injective": 3,\n    "m": 4,\n    "probability": 0.15,\n'
            '    "trials": 20\n  },\n  {\n    "delta": 3,\n    "injective": 14,\n    "m": 6,\n'
            '    "probability": 0.7,\n    "trials": 20\n  }\n]\n',
        ),
    ],
    ids=["q3n4", "q5n3"],
)
def test_injectivity_seeded_stdout(q, n, deltas, stdout, capsys):
    """Seeded injectivity runs at q > 2, where the refinement's relations
    carry a coefficient beta."""
    args = ["injectivity", "--q", q, "--n", n, "--deltas", deltas, "--trials", "20", "--seed", "1"]
    assert run(args) == 0
    assert capsys.readouterr().out == stdout


def test_hsp_check_cli(capsys):
    assert run(["hsp-check", "--q", "2", "--n", "2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["promise_holds"] is True


@pytest.mark.parametrize(
    "q, n, stdout",
    [
        ("3", "2", '{\n  "m": 4,\n  "n": 2,\n  "promise_holds": true,\n  "q": 3\n}\n'),
        ("2", "3", '{\n  "m": 16,\n  "n": 3,\n  "promise_holds": true,\n  "q": 2\n}\n'),
    ],
    ids=["q3n2", "q2n3"],
)
def test_hsp_check_seeded_stdout(q, n, stdout, capsys):
    assert run(["hsp-check", "--q", q, "--n", n, "--seed", "1"]) == 0
    assert capsys.readouterr().out == stdout


def test_hsp_check_too_large_exits_2_before_building_a_table(capsys):
    tables = (field._gl_table, wreath._wreath_table)
    before = [t.cache_info().currsize for t in tables]
    assert run(["hsp-check", "--q", "3", "--n", "3", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: group order 252315648 too large for exhaustive check\n")
    assert [t.cache_info().currsize for t in tables] == before


def test_hardcore_trace_cli(capsys):
    assert run(["hardcore-trace", "--q", "2", "--n", "2", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["recovered"] is True


def test_hardcore_bilinear_cli(capsys):
    assert run(["hardcore-bilinear", "--q", "2", "--n", "4", "--delta", "4", "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["recovered"] is True


@pytest.mark.parametrize(
    "args, stdout",
    [
        (
            ["hardcore-trace", "--q", "2", "--n", "4", "--seed", "1"],
            '{\n  "candidates": 1,\n  "epsilon": 0.5,\n  "invertible_queries": 2420,\n'
            '  "m": 24,\n  "matches_planted": true,\n  "n": 4,\n  "predictor_queries": 2312,\n'
            '  "q": 2,\n  "recovered": true,\n  "rounds": 1,\n  "singular_queries": 5539\n}\n',
        ),
        (
            ["hardcore-trace", "--q", "3", "--n", "3", "--seed", "1"],
            '{\n  "candidates": 1,\n  "epsilon": 0.6666666666666667,\n'
            '  "invertible_queries": 266,\n  "m": 8,\n  "matches_planted": true,\n  "n": 3,\n'
            '  "predictor_queries": 261,\n  "q": 3,\n  "recovered": true,\n  "rounds": 1,\n'
            '  "singular_queries": 232\n}\n',
        ),
        (
            ["hardcore-bilinear", "--q", "2", "--n", "4", "--delta", "4", "--seed", "11"],
            '{\n  "assignments_tried": 6,\n  "epsilon": 0.5,\n  "m": 8,\n'
            '  "matches_planted": true,\n  "n": 4,\n  "predictor_queries": 60,\n  "q": 2,\n'
            '  "recovered": true,\n  "t_queries": 60\n}\n',
        ),
    ],
    ids=["trace-gl", "trace-sampled", "bilinear-exact"],
)
def test_hardcore_seeded_stdout(args, stdout, capsys):
    """One seeded run down each decoder path: Goldreich-Levin (q = 2, k = 16),
    sampled scoring (q = 3, k = 9) and exact scoring (q = 2, k = 4)."""
    assert run(args) == 0
    assert capsys.readouterr().out == stdout


def test_hardcore_bilinear_budget_exit_code(capsys):
    """A run that breaks --budget still prints its report; the engine counts
    the node that breaks the budget, so assignments_tried is budget + 1."""
    args = ["hardcore-bilinear", "--q", "2", "--n", "4", "--delta", "4", "--seed", "11"]
    assert run(args + ["--budget", "3"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["assignments_tried"] == 4
    assert doc["recovered"] is False


@pytest.mark.parametrize(
    "args",
    [
        ["hardcore-trace", "--q", "2", "--n", "2", "--seed", "9"],
        ["hardcore-bilinear", "--q", "2", "--n", "4", "--delta", "4", "--seed", "11"],
    ],
    ids=["trace", "bilinear"],
)
def test_hardcore_rejects_zero_epsilon(args, capsys):
    assert run(args + ["--epsilon", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon must be positive" in captured.err


def test_ig_stats_cli(capsys):
    assert run(["ig-stats", "--n", "8", "--m", "16", "--q", "2", "--trials", "30",
                "--seed", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n,m,q,trials,mean,max")
    assert len(lines) == 2


def _usage_exit_code(args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    return exc.value.code


def test_injectivity_rejects_zero_trials():
    args = ["injectivity", "--q", "2", "--n", "3", "--deltas", "2", "--trials", "0", "--seed", "4"]
    assert _usage_exit_code(args) == 2


def test_injectivity_rejects_negative_trials(capsys):
    args = ["injectivity", "--q", "2", "--n", "3", "--deltas", "2", "--trials", "-5", "--seed", "4"]
    assert _usage_exit_code(args) == 2
    assert capsys.readouterr().out == ""


def test_perm_stats_rejects_negative_k(capsys):
    assert _usage_exit_code(["perm-stats", "--k", "-2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["invert", "unused.json"],
        ["gi-solve", "g1.txt", "g2.txt", "--q", "2"],
        ["hardcore-bilinear", "--q", "2", "--n", "4", "--seed", "11"],
    ],
    ids=["invert", "gi-solve", "hardcore-bilinear"],
)
def test_negative_budget_rejected(args):
    assert _usage_exit_code(args + ["--budget", "-1"]) == 2


def _python_m(args):
    """`python -m mvowf args` in a fresh interpreter, stopped after 60 s."""
    src = str(Path(mvowf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "mvowf", *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_cli():
    done = _python_m(["--help"])
    assert done.returncode == 0, done.stderr
    assert "hardcore-trace" in done.stdout


@pytest.mark.parametrize(
    "n, m, q, code",
    [("-2", "4", "2", 2), ("0", "4", "2", 2), ("3", "0", "2", 2), ("3", "4", "4", 2), ("3", "1", "3", 0)],
    ids=["negative-n", "zero-n", "zero-m", "composite-q", "no-projections-q3"],
)
def test_ig_stats_validates_arguments(n, m, q, code):
    # a negative n used to loop for ever, so each run has a timeout
    done = _python_m(["ig-stats", "--n", n, "--m", m, "--q", q, "--trials", "3", "--seed", "1"])
    assert done.returncode == code, done.stderr
    assert "internal error" not in done.stderr
