"""Command line behaviour and exit codes."""

import sys

import pytest

from pgtrees import cli
from pgtrees.cli import main
from pgtrees.game import EVEN, GameGraph, parse_pgsolver, random_game, serialize_pgsolver
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
    assert lines[2].endswith(" subgames=0")


def test_solve_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.pg"
    path.write_text("parity 1;\n0 2 0 ;\n")
    code, _, err = run(["solve", str(path)], capsys)
    assert code == 2
    assert "vertex 0 has no successors" in err
    assert "line 2" in err


def test_solve_reports_an_overlong_number_as_a_parse_error(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    path = tmp_path / "long.pg"
    path.write_text(f"parity 1;\n0 2 0 1;\n  1 1 1 {'9' * (limit + 1)};\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: number has more than {limit} digits (line 3, column 3)\n"


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


def test_solve_oracle_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    # an oracle that swaps the two regions disagrees with every solve
    def swapped(g):
        regions = zielonka(g)
        return type(regions)(even=regions.odd, odd=regions.even)

    monkeypatch.setattr(cli, "zielonka", swapped)
    path = tmp_path / "game.pg"
    path.write_text("parity 1;\n0 1 0 1;\n1 2 1 0;\n")
    code, out, err = run(["solve", "--oracle", str(path)], capsys)
    assert code == 4
    assert out == "EVEN: 0 1\nODD:\n"
    assert err == "error: oracle disagreement\n"


def test_solve_oracle_deep_priority(tmp_path, capsys):
    # priority 1 is the only odd one, so Even is measured over a tree of
    # height 1 whatever d is
    path = tmp_path / "deep.pg"
    path.write_text("parity 1;\n0 5000 0 1;\n1 1 1 0;\n")
    code, out, err = run(["solve", "--oracle", str(path)], capsys)
    assert code == 0, err
    assert "oracle: regions agree" in out


def test_solve_oracle_deep_priority_path(tmp_path, capsys):
    # 1,000 distinct priorities peel 1,000 attractors, one inside the other
    n = 1000
    g = GameGraph([EVEN] * n, range(1, n + 1), [[max(i - 1, 0)] for i in range(n)], d=n)
    path = tmp_path / "path.pg"
    path.write_text(serialize_pgsolver(g))
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


def test_widths_deep_height(capsys):
    code, out, err = run(["widths", "--n", "3", "--h", "500"], capsys)
    assert code == 0, err
    assert out.splitlines()[1].startswith("3,500,")


def test_widths_rejects_sizes_below_one(capsys):
    for n, h in (("0", "2"), ("-3", "2"), ("3", "0")):
        code, out, err = run(["widths", "--n", n, "--h", h], capsys)
        assert (code, out, err) == (2, "", "error: closed form requires n >= 1 and h >= 1\n")


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


def test_verify_universal_deep_and_wide_force(capsys):
    # at two Python frames per level or per root child, either run would
    # pass the interpreter's recursion limit
    code, out, err = run(["verify-universal", "1", "900", "--force"], capsys)
    assert (code, out, err) == (0, "UNIVERSAL (width=1, trees checked=1)\n", "")
    code, out, err = run(["verify-universal", "1000", "1", "--force"], capsys)
    assert (code, out, err) == (0, "UNIVERSAL (width=1000, trees checked=1000)\n", "")


def test_verify_universal_from_deep_caller(capsys):
    # main stays the error boundary when its caller already uses most of
    # the interpreter's stack
    def at_depth(frames):
        if frames:
            return at_depth(frames - 1)
        path = "(" * 400 + "." + ")" * 400
        return main(["verify-universal", "2", "400", "--force", "--tree", path])

    assert at_depth(900) == 3
    out = capsys.readouterr().out
    assert out == "NOT UNIVERSAL: counterexample " + "(" * 399 + "(..)" + ")" * 399 + "\n"


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
    code, out, err = run(["gen", "4", "2", "--degree", "3:1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out-degree range 3:1 is reversed\n"
    code, out, err = run(["bench", "--n", "4", "--d", "2", "--games", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --games must be nonnegative\n"
    code, out, _ = run(["bench", "--n", "4", "--d", "2", "--games", "0"], capsys)
    assert code == 0
    assert out == "n,d,seed,eta,tree_width,lifts,changes,wall_seconds\n"


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
