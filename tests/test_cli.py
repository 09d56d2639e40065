"""Command line behaviour and exit codes."""

from pgtrees.cli import main
from pgtrees.game import parse_pgsolver, random_game, serialize_pgsolver
from pgtrees.solver import solve, zielonka


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_single_vertex(tmp_path, capsys):
    path = tmp_path / "game.pg"
    path.write_text("parity 0;\n0 2 0 0;\n")
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["EVEN: 0", "ODD:"]


def test_solve_verbose_stats(tmp_path, capsys):
    path = tmp_path / "game.pg"
    path.write_text("parity 1;\n0 1 0 1;\n1 2 1 0;\n")
    code, out, _ = run(["solve", "--verbose", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "EVEN: 0 1"
    assert lines[1] == "ODD:"
    assert lines[2].startswith("stats: player=")


def test_solve_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.pg"
    path.write_text("parity 1;\n0 2 0 ;\n")
    code, _, err = run(["solve", str(path)], capsys)
    assert code == 2
    assert "vertex 0 has no successors" in err
    assert "line 2" in err


def test_solve_missing_file(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.pg")], capsys)
    assert code == 1
    assert "error" in err


def test_solve_oracle_corpus(tmp_path, capsys):
    for seed in range(10):
        g = random_game(8, 4, (1, 3), seed=seed)
        path = tmp_path / f"g{seed}.pg"
        path.write_text(serialize_pgsolver(g))
        code, out, _ = run(["solve", "--oracle", str(path)], capsys)
        assert code == 0
        assert "oracle: regions agree" in out


def test_solve_oracle_deep_priority(tmp_path, capsys):
    # d = 5000 asks for a tree of height 2500, far past the recursion limit
    path = tmp_path / "deep.pg"
    path.write_text("parity 1;\n0 5000 0 1;\n1 1 1 0;\n")
    code, out, err = run(["solve", "--oracle", str(path)], capsys)
    assert code == 0, err
    assert "oracle: regions agree" in out


def test_widths_stdout(capsys):
    code, out, _ = run(["widths", "--n", "3", "--h", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,h,f,bound_binomial,bound_old,bound_exponential,ratio_old_new,ratio_half"
    assert lines[1].startswith("3,2,5,6,12,")


def test_widths_file_and_old_gap(tmp_path, capsys):
    out_path = tmp_path / "w.csv"
    code, _, _ = run(["widths", "--n", "5", "--h", "9", "--out", str(out_path)], capsys)
    assert code == 0
    row = out_path.read_text().strip().splitlines()[1].split(",")
    assert row[:5] == ["5", "9", "109", "225", "1320"]


def test_widths_unwritable(tmp_path, capsys):
    code, _, err = run(
        ["widths", "--n", "3", "--h", "2", "--out", str(tmp_path / "no" / "w.csv")],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_verify_universal_ok(capsys):
    code, out, _ = run(["verify-universal", "3", "2"], capsys)
    assert code == 0
    assert out.strip() == "UNIVERSAL (width=5, trees checked=7)"


def test_verify_universal_counterexample(capsys):
    code, out, _ = run(["verify-universal", "2", "1", "--tree", "(.)"], capsys)
    assert code == 3
    assert out.strip() == "NOT UNIVERSAL: counterexample (..)"


def test_verify_universal_guard(capsys):
    code, _, err = run(["verify-universal", "20", "10"], capsys)
    assert code == 2
    assert "--force" in err


def test_verify_universal_force_overrides_guard(capsys):
    code, out, _ = run(["verify-universal", "7", "1", "--force"], capsys)
    assert code == 0
    assert "UNIVERSAL" in out


def test_verify_universal_tree_height_mismatch(capsys):
    code, _, err = run(["verify-universal", "2", "2", "--tree", "(.)"], capsys)
    assert code == 2
    assert "height" in err


def test_gen_then_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "gen.pg"
    code, _, _ = run(["gen", "9", "4", "--seed", "5", "--out", str(path)], capsys)
    assert code == 0
    g = parse_pgsolver(path.read_text())
    assert g.n == 9
    assert solve(g).regions == zielonka(g)
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == 0
    assert out.startswith("EVEN:")


def test_gen_deterministic(capsys):
    code, out1, _ = run(["gen", "5", "4", "--seed", "42"], capsys)
    assert code == 0
    _, out2, _ = run(["gen", "5", "4", "--seed", "42"], capsys)
    assert out1 == out2


def test_malformed_arguments_exit_2(capsys):
    code, _, err = run(["widths", "--n", "3;4", "--h", "2"], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run(["verify-universal", "2", "1", "--tree", "((."], capsys)
    assert code == 2
    code, _, err = run(["verify-universal", "0", "1"], capsys)
    assert code == 2
    assert err == "error: n must be positive\n"


def test_bench_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(
        ["bench", "--n", "12", "--d", "2,4", "--games", "3", "--seed", "1",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,d,seed,eta,tree_width,lifts,changes,wall_seconds"
    assert len(lines) == 7
    for line in lines[1:]:
        parts = line.split(",")
        assert int(parts[0]) == 12
        assert int(parts[1]) in (2, 4)
        float(parts[7])
