"""End-to-end command-line behavior, run in process via main(argv)."""

from __future__ import annotations

import inspect

import pytest

from rabinindex import cli
from rabinindex.cli import main
from rabinindex.cycles import DEFAULT_BUDGET
from rabinindex.pgsolver import parse_pgsolver, parse_solution
from rabinindex.reduction import rabin


@pytest.fixture
def fig1_path(tmp_path, fig1_text):
    path = tmp_path / "fig1.gm"
    path.write_text(fig1_text)
    return path


def test_gen_output_parses_back(capsys):
    assert main(["gen", "clique", "5"]) == 0
    game = parse_pgsolver(capsys.readouterr().out)
    assert game.arena.node_count == 5


def test_gen_random_with_seed(capsys):
    assert main(["gen", "random", "8/1/3/4", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "8/1/3/4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_gen_to_file(tmp_path, capsys):
    out = tmp_path / "game.gm"
    assert main(["gen", "ladder", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_pgsolver(out.read_text()).arena.node_count == 6


def test_gen_usage_errors(capsys):
    assert main(["gen", "random", "nonsense"]) == 2
    assert "error: usage:" in capsys.readouterr().err
    assert main(["gen", "clique", "1"]) == 2
    assert main(["gen", "jurdzinski", "2"]) == 2


def test_gen_and_bench_word_a_bad_parameter_alike(tmp_path, capsys):
    # One grammar for a named game: the command line and a bench spec
    # report the same mistake in the same words.
    assert main(["gen", "ladder", "abc"]) == 2
    assert capsys.readouterr().err == "error: usage: bad parameter in 'ladder abc'\n"
    spec = tmp_path / "bench.txt"
    spec.write_text("ladder abc\n")
    assert main(["bench", "--spec", str(spec)]) == 3
    assert capsys.readouterr().err == "error: parse: line 1: bad parameter in 'ladder abc'\n"


def test_index_exact(fig1_path, capsys):
    assert main(["index", str(fig1_path)]) == 0
    assert capsys.readouterr().out == "index: 3 -> 2, iterations: 2\n"


def test_index_alpha(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--mode", "alpha"]) == 0
    assert capsys.readouterr().out == "index: 3 -> 3\n"


def test_index_static(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--mode", "static"]) == 0
    assert capsys.readouterr().out == "index: 3 -> 3\n"


def test_index_writes_reduced_game(fig1_path, tmp_path, capsys):
    out = tmp_path / "reduced.gm"
    assert main(["index", str(fig1_path), "-o", str(out)]) == 0
    capsys.readouterr()
    reduced = parse_pgsolver(out.read_text())
    assert reduced.arena.colors == (1, 2, 2, 1, 1)
    assert reduced.names == ("v0", "v1", "v2", "v3", "v4")


def test_index_budget_exhaustion(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--budget", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: budget: exact reduction aborted: budget exhausted at node ")
    # The run's budget ran out in its first query.
    assert err.endswith(" after 3 expanded nodes (limit 2) over 1 exact queries\n")


def test_index_rejects_a_negative_budget(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--budget", "-3"]) == 2
    assert capsys.readouterr().err == "error: usage: --budget must be at least 0, got -3\n"


def test_index_zero_budget_is_a_budget(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--budget", "0"]) == 4
    assert "(limit 0)" in capsys.readouterr().err


def test_index_exact_budget_defaults_to_the_package_default(fig1_path, monkeypatch, capsys):
    budgets = []

    def spy(*args, **kwargs):
        bound = inspect.signature(rabin).bind(*args, **kwargs)
        bound.apply_defaults()
        budgets.append(bound.arguments["budget_limit"])
        return rabin(*args, **kwargs)

    monkeypatch.setattr(cli, "rabin", spy)
    assert main(["index", str(fig1_path)]) == 0
    assert budgets == [DEFAULT_BUDGET]


def test_index_budget_fallback(fig1_path, capsys):
    assert main(["index", str(fig1_path), "--budget", "2", "--fallback", "alpha"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "index: 3 -> 3\n"
    # The warning keeps what the abort said: the query, the budget spent and
    # its limit, and the queries so far.
    assert captured.err == (
        "warning: budget: exact reduction aborted: budget exhausted at node 2, color 1 "
        "after 3 expanded nodes (limit 2) over 1 exact queries; falling back to alpha\n"
    )


def test_solve_and_verify_roundtrip(fig1_path, tmp_path, capsys):
    assert main(["solve", str(fig1_path)]) == 0
    solution_text = capsys.readouterr().out
    sol_path = tmp_path / "fig1.sol"
    sol_path.write_text(solution_text)
    assert main(["verify", str(fig1_path), str(sol_path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_solve_and_verify_print_a_parse_warning_as_one_line(tmp_path, capsys):
    game = tmp_path / "dup.gm"
    game.write_bytes(
        b'-- sparse ids\nparity 30;\n\n30 2 1 10 "top";\r\n10 1 0 20,30,20;\n20 0 0 10;\n'
    )
    warning = f"warning: parse: {game}: line 5: node 10 lists successor 20 twice\n"
    assert main(["solve", str(game)]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    solution = tmp_path / "dup.sol"
    solution.write_text(captured.out)
    assert main(["verify", str(game), str(solution)]) == 0
    assert capsys.readouterr() == ("ok\n", warning)


def test_solve_pre_variants_agree(fig1_path, fig1_game, capsys):
    winners = []
    for pre in ("none", "static", "alpha"):
        assert main(["solve", str(fig1_path), "--pre", pre]) == 0
        solution = parse_solution(capsys.readouterr().out, fig1_game)
        winners.append(solution.winner)
    assert winners[0] == winners[1] == winners[2] == (1, 0, 0, 1, 1)


def test_verify_rejects_tampered_solution(fig1_path, fig1_game, tmp_path, capsys):
    assert main(["solve", str(fig1_path)]) == 0
    tampered = capsys.readouterr().out.replace("1 0 2;", "1 1 2;")
    sol_path = tmp_path / "bad.sol"
    sol_path.write_text(tampered)
    assert main(["verify", str(fig1_path), str(sol_path)]) == 6
    assert "error: verify:" in capsys.readouterr().err


def test_equiv_equivalent(fig1_path, tmp_path, capsys):
    reduced_path = tmp_path / "reduced.gm"
    assert main(["index", str(fig1_path), "-o", str(reduced_path)]) == 0
    capsys.readouterr()
    assert main(["equiv", str(fig1_path), str(reduced_path)]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equiv_inequivalent_alpha(tmp_path, capsys):
    first = tmp_path / "a.gm"
    second = tmp_path / "b.gm"
    first.write_text("0 2 0 1,2;\n1 1 0 0;\n2 2 0 0;\n")
    second.write_text("0 2 0 1,2;\n1 1 0 0;\n2 0 0 0;\n")
    assert main(["equiv", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["equiv", str(first), str(second), "--relation", "alpha"]) == 6
    out = capsys.readouterr().out
    assert out == "inequivalent: closed walk through [0, 1, 2] separates the colorings\n"


def test_equiv_rejects_different_graphs(fig1_path, tmp_path, capsys):
    other = tmp_path / "other.gm"
    other.write_text("0 1 0 1;\n1 2 1 0;\n")
    assert main(["equiv", str(fig1_path), str(other)]) == 3
    assert "different edge structure" in capsys.readouterr().err


def test_equiv_node_cap(tmp_path, capsys):
    lines = [f"{v} 0 0 {(v + 1) % 20};" for v in range(20)]
    big = tmp_path / "big.gm"
    big.write_text("\n".join(lines) + "\n")
    assert main(["equiv", str(big), str(big), "--cap", "10"]) == 5
    assert "error: cap:" in capsys.readouterr().err


def test_node_cap_defaults_to_the_library_cap_of_the_relation(tmp_path, capsys):
    # Ladder 7 has 14 nodes: within the simple-cycle cap of 15, above the
    # closed-walk cap of 12.
    ladder7, ladder8 = tmp_path / "l7.gm", tmp_path / "l8.gm"
    assert main(["gen", "ladder", "7", "-o", str(ladder7)]) == 0
    assert main(["gen", "ladder", "8", "-o", str(ladder8)]) == 0
    assert main(["equiv", str(ladder7), str(ladder7)]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["equiv", str(ladder7), str(ladder7), "--relation", "alpha"]) == 5
    assert "capped at 12" in capsys.readouterr().err
    assert main(["oracle", "rabin-index", str(ladder8)]) == 5
    assert capsys.readouterr().err == "error: cap: arena has 16 nodes, enumeration capped at 15\n"


def test_oracle_rabin_index(fig1_path, capsys):
    assert main(["oracle", "rabin-index", str(fig1_path)]) == 0
    assert capsys.readouterr().out == "rabin index: 2\n"


def test_oracle_rabin_index_on_a_long_ring(tmp_path, capsys):
    # A 1 100-node ring colored v mod 3: the search assigns one node per
    # step, deeper than Python's default recursion limit.
    n = 1100
    lines = [f"parity {n - 1};"] + [f"{v} {v % 3} 0 {(v + 1) % n};" for v in range(n)]
    ring = tmp_path / "ring.gm"
    ring.write_text("\n".join(lines) + "\n")
    assert main(["oracle", "rabin-index", str(ring), "--cap", "2000"]) == 0
    assert capsys.readouterr().out == "rabin index: 0\n"


def test_negative_cap_is_a_usage_error(fig1_path, capsys):
    for argv in (
        ["equiv", str(fig1_path), str(fig1_path), "--cap", "-1"],
        ["oracle", "rabin-index", str(fig1_path), "--cap", "-1"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: usage: --cap must be at least 0, got -1\n"


def test_oracle_node_cap(fig1_path, capsys):
    assert main(["oracle", "rabin-index", str(fig1_path), "--cap", "3"]) == 5
    assert capsys.readouterr().err == "error: cap: arena has 5 nodes, enumeration capped at 3\n"


def test_member(fig1_path, capsys):
    assert main(["member", str(fig1_path), "-k", "4"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["member", str(fig1_path), "-k", "3"]) == 6
    assert capsys.readouterr().out == "no\n"


def test_member_all_even_colors(tmp_path, capsys):
    game = tmp_path / "even.gm"
    game.write_text("0 2 0 1;\n1 4 1 0,1;\n")
    assert main(["member", str(game), "-k", "1"]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_member_rejects_k_below_one(fig1_path, capsys):
    assert main(["member", str(fig1_path), "-k", "0"]) == 2
    assert capsys.readouterr().err == "error: usage: -k must be at least 1, got 0\n"


def test_bench_rejects_runs_below_one(tmp_path, capsys):
    spec = tmp_path / "bench.txt"
    spec.write_text("ladder 2\n")
    out = tmp_path / "out.csv"
    for runs in ("0", "-2"):
        assert main(["bench", "--spec", str(spec), "--runs", runs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: usage: --runs must be at least 1, got {runs}\n"
    assert not out.exists()


def test_bench_csv(tmp_path, capsys):
    spec = tmp_path / "bench.txt"
    spec.write_text("ladder 2 runs=2\n")
    assert main(["bench", "--spec", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("game,mu_c,mu_s_c,ri_alpha,")
    assert lines[1].startswith("ladder[2],2,2,2,")


def test_bench_bad_spec(tmp_path, capsys):
    spec = tmp_path / "bench.txt"
    for text, message in (
        ("clique ten\n", "error: parse: line 1: bad parameter"),
        ("foo 3\n", "error: parse: line 1: unknown family 'foo'"),
        ("jurdzinski 2\n", "error: parse: line 1: family 'jurdzinski' takes 2 parameter(s)"),
        ("ladder 2\nclique 3 runs=2 runs=5\n", "error: parse: line 2: repeated option 'runs'"),
    ):
        spec.write_text(text)
        assert main(["bench", "--spec", str(spec)]) == 3
        assert message in capsys.readouterr().err


def test_bench_rejects_a_family_its_builder_refuses(tmp_path, capsys):
    # A one-node clique has no moves.  The spec is checked as gen checks
    # its words, in the builder's own message, before any batch runs.
    assert main(["gen", "clique", "1"]) == 2
    assert capsys.readouterr().err == "error: usage: clique needs at least 2 nodes, got 1\n"
    spec = tmp_path / "bench.txt"
    spec.write_text("ladder 2\nclique 1\n")
    out = tmp_path / "out.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: parse: line 2: clique needs at least 2 nodes, got 1\n"
    assert not out.exists()


def test_gen_refuses_a_priority_no_record_holds(tmp_path, capsys):
    # The random model draws colors up to cc; a file with a priority of
    # 2^62 or more would not parse back, so gen writes none.
    out = tmp_path / "huge.gm"
    argv = ["gen", "random", "3/1/2/99999999999999999999", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage: node ") and err.endswith(" is not below 2^62\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()
    assert main(["gen", "random", f"3/1/2/{2**62 - 1}", "--seed", "1"]) == 0
    assert parse_pgsolver(capsys.readouterr().out).node_count == 3


def test_parse_failures(tmp_path, capsys):
    missing = tmp_path / "missing.gm"
    assert main(["index", str(missing)]) == 3
    assert "error: parse:" in capsys.readouterr().err
    bad = tmp_path / "bad.gm"
    bad.write_text("0 1 0 1\n")  # missing semicolon
    assert main(["index", str(bad)]) == 3
    assert "error: parse:" in capsys.readouterr().err
    bad.write_text("0 1 0 -1;\n")
    assert main(["solve", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: parse:")
    assert err.endswith("line 1: negative successor id -1\n")


def test_non_utf8_input_is_a_parse_error(fig1_path, tmp_path, capsys):
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"\xff\xfe0 1 0 1;\n")
    assert main(["index", str(garbage)]) == 3
    assert "error: parse:" in capsys.readouterr().err
    assert main(["verify", str(fig1_path), str(garbage)]) == 3
    assert "error: parse:" in capsys.readouterr().err
    assert main(["bench", "--spec", str(garbage)]) == 3
    assert "error: parse:" in capsys.readouterr().err


def test_verify_rejects_a_solution_record_with_a_name_for_a_move(fig1_path, tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("paritysol 3;\n0 x;\n")
    assert main(["verify", str(fig1_path), str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: parse:")


def test_oversized_integer_is_a_parse_error(tmp_path, capsys):
    big = tmp_path / "big.gm"
    big.write_text("0 1 0 " + "9" * 5000 + ";\n")
    assert main(["index", str(big)]) == 3
    assert "error: parse:" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error(fig1_path, tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.txt")
    spec = tmp_path / "bench.txt"
    spec.write_text("ladder 2\n")
    for argv in (
        ["gen", "clique", "3", "-o", target],
        ["index", str(fig1_path), "--mode", "alpha", "-o", target],
        ["bench", "--spec", str(spec), "--out", target],
    ):
        assert main(argv) == 2
        assert f"error: usage: cannot write {target}: " in capsys.readouterr().err


def test_usage_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["index"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "moebius_strip", "3"])
    assert excinfo.value.code == 2
