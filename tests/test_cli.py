import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contestq
from contestq import build, random_game, save_game, serialize_game
from contestq.cli import main, make_parser
from contestq.instances import INSTANCE_IDS

from conftest import (
    FIXTURES,
    alone_at_a_quality_game,
    beyond_cap_table_games,
    random_invariant_table_game,
)


@pytest.fixture
def ce1_path(tmp_path):
    path = tmp_path / "ce1.json"
    save_game(build("ce1").game, path)
    return str(path)


@pytest.fixture
def wow_path(tmp_path):
    path = tmp_path / "wow.json"
    save_game(build("fip_mandatory", n=2, Q=2).game, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_elapsed(result):
    """A `run` result with solve's timing line dropped from stderr."""
    code, out, err = result
    return code, out, "".join(line for line in err.splitlines(keepends=True)
                              if not line.startswith("elapsed:"))


def run_fresh(*argv):
    """`run` in a fresh interpreter, as a shell user would run it."""
    env = dict(os.environ)
    src = str(Path(contestq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    shell = subprocess.run([sys.executable, "-m", "contestq.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    return shell.returncode, shell.stdout, shell.stderr


def test_solve_brute_no_pne(ce1_path, capsys):
    code, out, _ = run(capsys, "solve", "--game", ce1_path, "--method", "brute")
    assert code == 1
    assert "no pure Nash equilibrium (9 profiles scanned)" in out


def test_solve_brute_finds_unique_pne(wow_path, capsys):
    code, out, _ = run(capsys, "solve", "--game", wow_path, "--method", "brute")
    assert code == 0
    assert "pure Nash equilibrium: 1,1" in out
    assert "L:2,0" in out


def test_verify_pne_and_deviation(wow_path, capsys):
    code, out, _ = run(capsys, "verify", "--game", wow_path, "--profile", "1,1")
    assert code == 0 and out.startswith("PNE:")
    code, out, _ = run(capsys, "verify", "--game", wow_path, "--profile", "2,2")
    assert code == 1 and "not a PNE" in out


def test_solve_json_round_trips_into_verify(wow_path, tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--game", wow_path,
                       "--method", "brute", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pne"
    profile_file = tmp_path / "solution.json"
    profile_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--game", wow_path,
                       "--profile-file", str(profile_file))
    assert code == 0


def test_text_output_is_byte_identical(wow_path, capsys):
    _, out1, _ = run(capsys, "solve", "--game", wow_path, "--method", "brute")
    _, out2, _ = run(capsys, "solve", "--game", wow_path, "--method", "brute")
    assert out1 == out2


def test_dynamics_converges_and_cycles(tmp_path, wow_path, ce1_path, capsys):
    code, out, _ = run(capsys, "dynamics", "--game", wow_path,
                       "--start", "2,2", "--policy", "best")
    assert code == 0 and out.startswith("converged")
    code, out, _ = run(capsys, "dynamics", "--game", ce1_path,
                       "--start", "1,2", "--policy", "best")
    assert code == 1
    assert "period 6" in out


def test_dynamics_random_seeded_identical(ce1_path, capsys):
    _, out1, _ = run(capsys, "dynamics", "--game", ce1_path,
                     "--policy", "random", "--seed", "42")
    _, out2, _ = run(capsys, "dynamics", "--game", ce1_path,
                     "--policy", "random", "--seed", "42")
    assert out1 == out2


def test_graph_command_writes_dot(tmp_path, capsys):
    path = tmp_path / "fip.json"
    save_game(build("fip_voluntary", n=3, Q=3).game, path)
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, "graph", "--game", str(path),
                       "--anonymous", "--dot", str(dot))
    assert code == 0
    assert "acyclic: yes" in out
    assert "sinks (2):" in out
    text = dot.read_text()
    assert text.count("doublecircle") == 2


FIP_VOLUNTARY_3x2_DOT = """digraph improvement {
  "L:3,0" [shape=doublecircle];
  "L:2,1" [shape=doublecircle];
  "L:1,2" [shape=circle];
  "L:0,3" [shape=circle];
  "L:1,2" -> "L:2,1" [label="2->1"];
  "L:0,3" -> "L:1,2" [label="2->1"];
}
"""


# ce2 --k 2 in profile mode; the DFS witness follows this move order.
CE2_K2_DOT = """digraph improvement {
  "1,1" [shape=circle];
  "1,2" [shape=circle];
  "1,3" [shape=circle];
  "2,1" [shape=circle];
  "2,2" [shape=circle];
  "2,3" [shape=circle];
  "3,1" [shape=circle];
  "3,2" [shape=circle];
  "3,3" [shape=circle];
  "1,1" -> "2,1" [label="1->2"];
  "1,1" -> "1,2" [label="1->2"];
  "1,1" -> "1,3" [label="1->3"];
  "1,2" -> "2,2" [label="1->2"];
  "1,3" -> "1,2" [label="3->2"];
  "2,1" -> "2,2" [label="1->2"];
  "2,1" -> "2,3" [label="1->3"];
  "2,2" -> "2,3" [label="2->3"];
  "2,3" -> "1,3" [label="2->1"];
  "3,1" -> "1,1" [label="3->1"];
  "3,1" -> "2,1" [label="3->2"];
  "3,1" -> "3,2" [label="1->2"];
  "3,1" -> "3,3" [label="1->3"];
  "3,2" -> "1,2" [label="3->1"];
  "3,2" -> "2,2" [label="3->2"];
  "3,2" -> "3,3" [label="2->3"];
  "3,3" -> "1,3" [label="3->1"];
  "3,3" -> "2,3" [label="3->2"];
}
"""


def test_graph_dot_builds_once_with_unchanged_output(tmp_path, capsys, monkeypatch):
    import contestq.cli as cli

    builds = []
    real_build = cli.build_improvement_graph

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_improvement_graph", counting_build)
    path = tmp_path / "fip.json"
    save_game(build("fip_voluntary", n=3, Q=2).game, path)
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, "graph", "--game", str(path), "--dot", str(dot))
    assert (code, len(builds)) == (0, 1)
    assert out == ("mode: anonymous; nodes: 4; edges: 2\n"
                   "sinks (2): L:2,1 L:3,0\n"
                   "acyclic: yes (finite improvement property holds)\n")
    assert dot.read_text(encoding="utf-8") == FIP_VOLUNTARY_3x2_DOT

    cyclic = tmp_path / "ce2.json"
    save_game(build("ce2", k=2).game, cyclic)
    code, out, _ = run(capsys, "graph", "--game", str(cyclic), "--dot", str(dot))
    assert (code, len(builds)) == (1, 2)
    assert out == ("mode: profile; nodes: 9; edges: 18\n"
                   "sinks (0): \n"
                   "acyclic: no; witness cycle: 2,2 -> 2,3 -> 1,3 -> 1,2 -> 2,2\n")
    assert dot.read_text(encoding="utf-8") == CE2_K2_DOT


def test_graph_detects_cycle(tmp_path, capsys):
    path = tmp_path / "ce2.json"
    save_game(build("ce2", k=2).game, path)
    code, out, _ = run(capsys, "graph", "--game", str(path))
    assert code == 1
    assert "witness cycle" in out


def test_concavity_command(tmp_path, capsys):
    from contestq import random_game

    path = tmp_path / "concave.json"
    save_game(random_game(0, 3, 2, "concave-specific"), path)
    code, out, _ = run(capsys, "concavity", "--game", str(path))
    assert code == 0 and "yes" in out

    path2 = tmp_path / "mp.json"
    save_game(build("matching_pennies").game, path2)
    code, out, err = run(capsys, "concavity", "--game", str(path2))
    assert (code, out) == (2, "")  # profile-keyed table: neither definition applies
    assert err.startswith("error:")


def test_concavity_takes_no_form_option(ce1_path, capsys):
    """The payment's kind picks the definition, so there is nothing to choose."""
    with pytest.raises(SystemExit) as exc:
        main(["concavity", "--game", ce1_path, "--form", "specific"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: contestq")
    assert "unrecognized arguments: --form" in captured.err


def test_instance_emit_and_verify(tmp_path, capsys):
    out_path = tmp_path / "ce1.json"
    code, out, _ = run(capsys, "instance", "ce1", "--emit", str(out_path))
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "instance", "ce1", "--verify")
    assert code == 0
    assert out.count("PASS") == 3


@pytest.mark.parametrize("iid", INSTANCE_IDS)
def test_instance_with_degenerate_sizes_exits_cleanly(iid, capsys):
    """Sizes outside the game's domain end in an `error:` line, never a traceback."""
    for flag in ("--n", "--Q", "--k"):
        for value in ("0", "1", "-2"):
            for extra in ([], ["--verify"]):
                argv = ["instance", iid, flag, value, *extra]
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2), argv
                assert (code == 2) == err.startswith("error: "), (argv, err)


def test_instance_prints_game_json(capsys):
    code, out, _ = run(capsys, "instance", "matching_pennies")
    assert code == 0
    assert json.loads(out)["Q"] == 2


def test_classify_command(tmp_path, capsys):
    path = tmp_path / "prop.json"
    save_game(build("fip_mandatory", n=2, Q=3).game, path)
    code, out, _ = run(capsys, "classify", "--game", str(path))
    assert code == 0
    assert "oblivious: no" in out
    assert "player-invariant: yes" in out


def test_a_payment_of_their_own_for_a_player_alone(tmp_path, capsys):
    path = tmp_path / "alone.json"
    save_game(alone_at_a_quality_game(), path)
    code, out, _ = run(capsys, "classify", "--game", str(path))
    assert (code, out) == (0, "oblivious: yes\nplayer-invariant: no\n")
    code, out, err = run(capsys, "solve", "--game", str(path), "--method", "potential")
    assert code == 2 and out == ""
    assert "not player-invariant" in err


def test_missing_game_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--game", "/nonexistent.json",
                       "--method", "brute")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["graph", "--game", "{ce2}", "--dot", "{dir}"],
    ["instance", "ce1", "--emit", "{dir}"],
    ["solve", "--game", "{dir}", "--method", "brute"],
    ["solve", "--game", "{utf16}", "--method", "brute"],
    ["verify", "--game", "{ce2}", "--profile-file", "{utf16}"],
], ids=["graph-dot-dir", "instance-emit-dir", "solve-game-dir", "solve-game-utf16",
        "verify-profile-file-utf16"])
def test_unreadable_or_unwritable_path_is_usage_error(tmp_path, capsys, argv):
    ce2 = tmp_path / "ce2.json"
    save_game(build("ce2", k=2).game, ce2)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{")
    paths = {"ce2": ce2, "dir": tmp_path, "utf16": utf16}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_cap_env_var_respected(ce1_path, capsys, monkeypatch):
    monkeypatch.setenv("CONTESTQ_CAP", "4")
    code, _, err = run(capsys, "solve", "--game", ce1_path, "--method", "brute")
    assert code == 2
    assert "cap" in err


def test_the_profile_cap_bounds_only_brute_force(tmp_path, capsys, monkeypatch):
    from fractions import Fraction as F
    from contestq import compositions, player_invariant_table
    from conftest import make_game

    # a table is not declared oblivious, so classify and the ascent walk its keys
    table = {(q, v): F(1, 3 * v[q - 1]) for v in compositions(2, 3)
             for q in (1, 2, 3) if v[q - 1] > 0}
    path = tmp_path / "invariant.json"
    save_game(make_game(2, 3, (1, 1), (1, 2, 3), player_invariant_table(table)), path)
    solve = ("solve", "--game", str(path), "--method")
    uncapped = {argv: run(capsys, *argv) for argv in (("classify", "--game", str(path)),
                                                      (*solve, "potential"))}
    assert [code for code, _, _ in uncapped.values()] == [0, 0]
    assert run(capsys, *solve, "potential", "--max-profiles", "4")[:2] == \
        uncapped[(*solve, "potential")][:2]
    monkeypatch.setenv("CONTESTQ_CAP", "4")
    code, out, err = run(capsys, *solve, "brute")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap" in err
    for argv, (code, out, _) in uncapped.items():
        assert run(capsys, *argv)[:2] == (code, out), argv
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--game", str(path), "--max-profiles", "4"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --max-profiles" in captured.err


@pytest.mark.parametrize("command,flag,needed", [
    (("solve", "--method", "brute"), "--max-profiles", 27),  # 3^3 profiles
    (("graph", "--mode", "profile"), "--max-nodes", 27),
    (("graph", "--anonymous"), "--max-nodes", 10),  # C(5, 2) load vectors
])
def test_cap_flags_bound_their_command_and_override_the_env_var(
        tmp_path, capsys, monkeypatch, command, flag, needed):
    path = tmp_path / "fip.json"
    save_game(build("fip_voluntary", n=3, Q=3).game, path)
    argv = (command[0], "--game", str(path), *command[1:])
    uncapped = run(capsys, *argv)
    assert uncapped[0] in (0, 1)
    for cap in (str(needed - 1), str(needed)):
        monkeypatch.setenv("CONTESTQ_CAP", cap)
        assert without_elapsed(run(capsys, *argv, flag, str(needed))) == \
            without_elapsed(uncapped)
        code, out, err = run(capsys, *argv, flag, str(needed - 1))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"cap {needed - 1}" in err
    monkeypatch.setenv("CONTESTQ_CAP", str(needed - 1))
    assert run(capsys, *argv)[:2] == (2, "")


def test_solve_brute_all_prints_every_equilibrium(tmp_path, capsys):
    from contestq import brute_force_pne

    game = random_game(3, 4, 3, "oblivious-invariant")
    every = brute_force_pne(game, find_all=True).all
    assert len(every) > 1
    path = tmp_path / "many.json"
    save_game(game, path)
    code, out, _ = run(capsys, "solve", "--game", str(path), "--method", "brute", "--all")
    lines = out.splitlines()
    assert code == 0
    assert lines[:len(every)] == [f"pne: {','.join(map(str, p))}" for p in every]
    assert lines[len(every)] == f"pure Nash equilibrium: {','.join(map(str, every[0]))}"


def test_solve_brute_all_json_carries_every_equilibrium(tmp_path, capsys):
    """`--all` adds the list "all" to the JSON object, empty on "none";
    without `--all` the object is unchanged."""
    path = tmp_path / "fip.json"
    save_game(build("fip_voluntary", n=3, Q=3).game, path)
    solve = ("solve", "--game", str(path), "--method", "brute", "--format", "json")
    code, out, _ = run(capsys, *solve, "--all")
    payload = json.loads(out)
    assert code == 0 and payload.pop("all") == [[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1]]
    code, plain, _ = run(capsys, *solve)
    assert code == 0 and json.loads(plain) == payload and "all" not in plain
    text = run(capsys, *solve[:-2], "--all")[1]
    assert text.count("pne: ") == 4
    save_game(build("ce1").game, path)
    code, out, _ = run(capsys, *solve, "--all")
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "none" and payload.pop("all") == []
    assert json.loads(run(capsys, *solve)[1]) == payload


@pytest.mark.parametrize("method", ["contiguous", "all-at-one", "potential"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_all_needs_the_brute_method(wow_path, capsys, method, fmt):
    code, out, err = run(capsys, "solve", "--game", wow_path, "--method", method,
                         "--all", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: --all needs --method brute, not {method}\n"
    assert run(capsys, "solve", "--game", wow_path, "--method", method,
               "--format", fmt)[0] in (0, 1)


@pytest.mark.parametrize("flag", ["verify --profile", "dynamics --start"])
@pytest.mark.parametrize("text,count", [("1", "1 entry"), ("1,1,1", "3 entries")])
def test_a_profile_of_the_wrong_length_names_its_entries(wow_path, capsys, flag, text, count):
    command, option = flag.split()
    code, out, err = run(capsys, command, "--game", wow_path, option, text)
    assert (code, out) == (2, "")
    assert err == f"error: profile has {count}; the game has 2 players\n"


@pytest.mark.parametrize("rising,code,verdict", [
    (False, 0, "three-discrete-concave: yes\n"),
    (True, 1, "three-discrete-concave: no (player 1, loads L:2,1, qualities 1,2,2)\n"),
])
def test_per_player_matrices_take_the_player_specific_definition(
        tmp_path, capsys, rising, code, verdict):
    """Oblivious matrices of a player's own are neither profile-keyed nor
    player-invariant, so `concavity` and `solve --method contiguous` use the
    player-specific checker and solver."""
    from fractions import Fraction as F
    from contestq import brute_force_pne, oblivious_table
    from conftest import make_game

    mats = tuple(tuple(tuple(F(q * load, m) if rising else F(q, m * load)
                             for load in (1, 2, 3)) for q in (1, 2)) for m in (1, 2, 3))
    game = make_game(3, 2, (1, F(1, 2), F(1, 3)), (1, 2), oblivious_table(matrices=mats))
    path = tmp_path / "matrices.json"
    save_game(game, path)
    assert run(capsys, "concavity", "--game", str(path)) == (code, verdict, "")
    solved, out, _ = run(capsys, "solve", "--game", str(path), "--method", "contiguous")
    assert (solved, out.startswith("pure Nash equilibrium: ")) == (0, True)
    assert brute_force_pne(game).found is not None


def test_no_recursion_limit_at_a_thousand_qualities_or_players(tmp_path, capsys):
    """Load vectors and the brute-force backtracking are loops, not recursion:
    n = 2, Q = 1200 and n = 1200, Q = 2 keep the exit-code contract."""
    from contestq import proportional
    from conftest import make_game

    wide = tmp_path / "wide.json"
    save_game(make_game(2, 1200, (1, 1), range(1, 1201), proportional()), wide)
    for argv, want in ((("classify",), 0), (("concavity",), 1),
                       (("solve", "--method", "contiguous"), 0),
                       (("solve", "--method", "potential"), 2)):
        code, _, err = run(capsys, argv[0], "--game", str(wide), *argv[1:])
        assert code == want and "Traceback" not in err, argv
    many = tmp_path / "many.json"
    save_game(make_game(1200, 2, (1,) * 1200, (1, 2), proportional()), many)
    code, out, _ = run(capsys, "solve", "--game", str(many), "--method", "brute",
                       "--max-profiles", str(10**400))
    assert code == 0 and out.startswith(f"pure Nash equilibrium: {','.join(['1'] * 1200)}\n")


def test_classify_and_potential_decide_tables_beyond_the_profile_cap(tmp_path, capsys):
    paths = {}
    for name, game in beyond_cap_table_games().items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_game(game, paths[name])
    assert run(capsys, "classify", "--game", paths["invariant"])[:2] == \
        (0, "oblivious: yes\nplayer-invariant: yes\n")
    assert run(capsys, "classify", "--game", paths["specific"])[:2] == \
        (0, "oblivious: yes\nplayer-invariant: no\n")
    code, out, _ = run(capsys, "solve", "--game", paths["invariant"], "--method", "potential")
    assert code == 0 and out.startswith("pure Nash equilibrium: ")
    code, out, err = run(capsys, "solve", "--game", paths["specific"], "--method", "potential")
    assert (code, out) == (2, "") and "not player-invariant" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--profile", "1,1", "--profile-file", "solution.json"],
    ["verify"],
    ["graph", "--anonymous", "--mode", "profile"],
    ["graph", "--mode", "auto", "--anonymous"],
])
def test_conflicting_or_missing_flags_are_usage_errors(wow_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--game", wow_path, *argv[1:]])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: contestq {argv[0]}")
    assert ("not allowed with argument" if len(argv) > 1 else "is required") in captured.err


def test_non_integer_cap_env_var_is_usage_error(ce1_path, capsys, monkeypatch):
    monkeypatch.setenv("CONTESTQ_CAP", "abc")
    code, _, err = run(capsys, "solve", "--game", ce1_path, "--method", "brute")
    assert code == 2
    assert err.startswith("error:") and "CONTESTQ_CAP" in err


@pytest.mark.parametrize("command,flag", [
    (("solve", "--method", "brute"), "--max-profiles"),
    (("graph",), "--max-nodes"),
])
def test_negative_cap_is_usage_error(ce1_path, capsys, monkeypatch, command, flag):
    argv = (command[0], "--game", ce1_path, *command[1:])
    code, out, err = run(capsys, *argv, flag, "-5")
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -5\n")
    monkeypatch.setenv("CONTESTQ_CAP", "-3")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: CONTESTQ_CAP must be >= 0, got -3\n")
    # the flag still overrides the variable, and a cap of 0 is legal: it only binds
    code, out, err = run(capsys, *argv, flag, "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "cap 0" in err and ">= 0" not in err


@pytest.mark.parametrize("skill", [0.5, "1.5", "1e99999999"])
def test_non_rational_skill_is_usage_error(ce1_path, capsys, skill):
    with open(ce1_path, encoding="utf-8") as fh:
        blob = json.load(fh)
    blob["skills"][0] = skill
    with open(ce1_path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
    code, out, err = run(capsys, "verify", "--game", ce1_path, "--profile", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("content", ['{"profile": [1.9, "2"]}', '{"profile": [true, 1]}',
                                     '{"profile": "12"}', '[1, 1]', '{"profile": [1, 1'])
def test_malformed_profile_file_is_usage_error(wow_path, tmp_path, capsys, content):
    profile_file = tmp_path / "solution.json"
    profile_file.write_text(content)
    code, out, err = run(capsys, "verify", "--game", wow_path,
                         "--profile-file", str(profile_file))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _bad_game_texts():
    """Malformed rows, entries, table keys and a duplicate key, by name."""
    from contestq import random_game, serialize_game

    def two_by_two(**fields):
        blob = {"n": 2, "Q": 2, "skills": ["1", "1"], "efforts": ["1", "2"],
                "participation": "mandatory", "cost": {"kind": "product"},
                "payment": {"type": "proportional"}}
        blob.update(fields)
        return json.dumps(blob)

    profile_keyed = serialize_game(build("matching_pennies").game)
    profile_keyed["payment"]["table"].append({"player": 1, "profile": [1, 5], "pay": "1"})
    loads_keyed = serialize_game(random_game(1, 2, 2, "concave-specific"))
    loads_keyed["payment"]["table"].append({"player": 1, "q": 1, "loads": [3, -1], "pay": "0"})
    invariant = serialize_game(random_game(1, 2, 2, "concave-invariant"))
    invariant["payment"]["table"].append({"q": 1, "loads": [3, -1], "pay": "5"})
    return {
        "string-cost-row": two_by_two(cost={"kind": "table", "values": [["1", "2"], "34"]}),
        "string-oblivious-row": two_by_two(payment={"type": "oblivious", "table": ["12", "34"]}),
        "specific-entry-not-object": two_by_two(payment={"type": "player_specific", "table": [1]}),
        "invariant-entry-not-object": two_by_two(payment={"type": "player_invariant", "table": [5]}),
        "profile-quality-out-of-range": json.dumps(profile_keyed),
        "negative-loads": json.dumps(loads_keyed),
        "invariant-negative-loads": json.dumps(invariant),
        "duplicate-key": '{"efforts": ["1", "3"], ' + two_by_two()[1:],
    }


@pytest.mark.parametrize("name", sorted(_bad_game_texts()))
def test_rejected_game_file_is_usage_error(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(_bad_game_texts()[name])
    code, out, err = run(capsys, "verify", "--game", str(path), "--profile", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


HOLED_COMMANDS = (("solve", "--method", "brute"), ("classify",), ("dynamics",),
                  ("graph",))


def _run_on_holed_file(tmp_path, capsys, game, entry, *commands):
    """Delete one entry from the serialized, complete `game` and run every
    command on the file: each exits 2 with an error line and nothing else."""
    blob = serialize_game(game)
    blob["payment"]["table"].remove(entry)
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(blob))
    for command in commands:
        code, out, err = run(capsys, command[0], "--game", str(path), *command[1:])
        assert (code, out) == (2, ""), command
        assert err.startswith("error:") and "Traceback" not in err, command


def test_verify_table_hole_is_usage_error(tmp_path, capsys):
    from fractions import Fraction as F
    from itertools import product
    from contestq import ContestGame, CostFunction, Participation
    from contestq import player_specific_table

    table = {(i, p): F(0) for i in (1, 2) for p in product((1, 2), repeat=2)}
    game = ContestGame(n=2, Q=2, skills=(F(1), F(1)), efforts=(F(1), F(2)),
                       participation=Participation.MANDATORY,
                       cost=CostFunction("product"),
                       payment=player_specific_table(profile_table=table))
    _run_on_holed_file(tmp_path, capsys, game,
                       {"player": 1, "profile": [2, 2], "pay": "0"},
                       ("verify", "--profile", "1,2"), *HOLED_COMMANDS)


def test_all_at_one_declines_scaled_efforts(tmp_path, capsys):
    from contestq import parse_game

    path = tmp_path / "scaled.json"
    save_game(parse_game({
        "n": 2, "Q": 2, "skills": ["2", "2"], "efforts": ["1/100", "2/100"],
        "participation": "mandatory", "cost": {"kind": "product"},
        "payment": {"type": "proportional"}}), path)
    code, out, _ = run(capsys, "solve", "--game", str(path), "--method", "all-at-one")
    assert code == 1
    assert out == "no pure Nash equilibrium under this method's guarantee\n"


def test_solve_contiguous_cli(tmp_path, capsys):
    from contestq import random_game

    path = tmp_path / "concave.json"
    save_game(random_game(1, 4, 3, "concave-specific"), path)
    code, out, _ = run(capsys, "solve", "--game", str(path),
                       "--method", "contiguous")
    assert code == 0
    assert "candidates checked: 15" in out


MISSED_TABLE = str(FIXTURES / "nonconcave_contiguous_miss.json")


@pytest.mark.parametrize("fixture,error,found", [
    ("nonconcave_contiguous_miss.json", "payments are not three-discrete-concave: "
     "ConcavityViolation(player=None, loads=(3, 1, 0), q_i=1, q_k=2, q=2)", "1,1,2,2"),
    ("tablecost_contiguous_miss.json",
     "costs are not of product form s_i*f_q, so a contiguous miss proves nothing", "1,2,2,2"),
])
def test_solve_contiguous_on_an_unproved_miss_exits_2(fixture, error, found, capsys):
    """No contiguous profile is stable, and the payments are not concave or
    the costs are not s_i*f_q, so "none" would be unproved (brute force finds
    an equilibrium): an error, not exit 1."""
    path = str(FIXTURES / fixture)
    argv = ["solve", "--game", path, "--method", "contiguous"]
    assert run(capsys, *argv) == run_fresh(*argv) == (2, "", f"error: {error}\n")
    code, out, _ = run(capsys, "solve", "--game", path, "--method", "brute")
    assert code == 0 and out.startswith(f"pure Nash equilibrium: {found}\n")


def test_solve_contiguous_returns_a_hit_on_a_non_concave_table(tmp_path, capsys):
    path = tmp_path / "table.json"
    save_game(random_invariant_table_game(0), path)
    assert run(capsys, "concavity", "--game", str(path))[0] == 1
    code, out, _ = run(capsys, "solve", "--game", str(path), "--method", "contiguous")
    assert code == 0
    assert out.startswith("pure Nash equilibrium: 1,1,1\nloads: L:3,0,0\n")
    assert out.endswith("candidates checked: 10\n")


def test_solve_takes_no_trust_concavity_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--game", MISSED_TABLE, "--method", "contiguous",
              "--trust-concavity"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --trust-concavity" in captured.err


def test_solve_all_at_one_cli(tmp_path, capsys):
    path = tmp_path / "natasa.json"
    save_game(build("natasa", n=3, Q=3).game, path)
    code, out, _ = run(capsys, "solve", "--game", str(path),
                       "--method", "all-at-one")
    assert code == 0
    assert "1,1,1" in out


def test_verify_accepts_load_vector_syntax(tmp_path, capsys):
    path = tmp_path / "fip.json"
    save_game(build("fip_voluntary", n=3, Q=3).game, path)
    code, out, _ = run(capsys, "verify", "--game", str(path),
                       "--profile", "L:2,1,0")
    assert code == 0 and out.startswith("PNE:")
    code, out, _ = run(capsys, "verify", "--game", str(path),
                       "--profile", "L:0,0,3")
    assert code == 1
    code, _, err = run(capsys, "verify", "--game", str(path),
                       "--profile", "L:1,1,0")  # does not sum to n
    assert code == 2


@pytest.mark.parametrize("text", ["\u0661,\u0662", " 1,2", "1,2 ", "+1,2", "1_0,2",
                                  "1,,2", "", "L:+2,0", "L: 2,0", "L:1_0,0"])
@pytest.mark.parametrize("flag", ["verify --profile", "dynamics --start"])
def test_profile_text_takes_only_ascii_digits(wow_path, flag, text, capsys):
    command, option = flag.split()
    code, out, err = run(capsys, command, "--game", wow_path, f"{option}={text}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad profile ")


def test_solve_json_reports_none(ce1_path, capsys):
    code, out, _ = run(capsys, "solve", "--game", ce1_path,
                       "--method", "brute", "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_dynamics_truncation_exit(ce1_path, capsys):
    code, out, _ = run(capsys, "dynamics", "--game", ce1_path,
                       "--start", "1,1", "--max-steps", "1")
    assert code == 1 and "truncated" in out


def test_dynamics_converging_on_the_last_allowed_step_exits_0(tmp_path, capsys):
    path = tmp_path / "prop.json"
    save_game(random_game(5, 4, 3, "proportional"), path)
    code, out, _ = run(capsys, "dynamics", "--game", str(path),
                       "--start", "3,3,3,3", "--max-steps", "5")
    assert (code, out) == (0, "converged in 5 steps: 1,2,1,2\n")
    code, out, _ = run(capsys, "dynamics", "--game", str(path),
                       "--start", "3,3,3,3", "--max-steps", "4")
    assert (code, out) == (1, "truncated after 4 steps\n")
    code, out, _ = run(capsys, "dynamics", "--game", str(path),
                       "--start", "1,2,1,2", "--max-steps", "0")
    assert (code, out) == (0, "converged in 0 steps: 1,2,1,2\n")


def test_negative_max_steps_is_usage_error(ce1_path, capsys):
    code, out, err = run(capsys, "dynamics", "--game", ce1_path, "--max-steps", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "max_steps" in err


def test_concavity_violation_exit(tmp_path, capsys):
    from fractions import Fraction as F
    from contestq import ContestGame, CostFunction, Participation
    from contestq import player_invariant_table

    table = {(1, (2, 0)): F(1), (1, (1, 1)): F(0),
             (2, (1, 1)): F(0), (2, (0, 2)): F(1)}
    game = ContestGame(n=2, Q=2, skills=(F(1), F(1)), efforts=(F(1), F(2)),
                       participation=Participation.MANDATORY,
                       cost=CostFunction("product"),
                       payment=player_invariant_table(table))
    path = tmp_path / "bad.json"
    save_game(game, path)
    code, out, _ = run(capsys, "concavity", "--game", str(path))
    assert code == 1
    assert "no" in out and "L:1,1" in out


@pytest.mark.parametrize("form", ["invariant", "specific"])
def test_concavity_on_a_holed_table_exits_2(tmp_path, capsys, form):
    from fractions import Fraction as F
    from contestq import ContestGame, CostFunction, Participation, compositions
    from contestq import player_invariant_table, player_specific_table

    shared = {(q, v): F(v[q - 1] - 1) for v in compositions(2, 3)
              for q in (1, 2, 3) if v[q - 1] > 0}
    payment = (player_invariant_table(shared) if form == "invariant" else
               player_specific_table(loads_table={
                   (i, q, v): pay for i in (1, 2) for (q, v), pay in shared.items()}))
    game = ContestGame(n=2, Q=3, skills=(F(1), F(1)), efforts=(F(1), F(2), F(3)),
                       participation=Participation.MANDATORY,
                       cost=CostFunction("product"), payment=payment)
    hole = {"q": 3, "loads": [1, 0, 1], "pay": "0"}
    if form == "specific":
        hole = {"player": 1, **hole}
    _run_on_holed_file(tmp_path, capsys, game, hole, ("concavity",),
                       ("solve", "--method", "contiguous"), *HOLED_COMMANDS)


# --- one parser per process ---------------------------------------------------

def test_main_builds_its_parser_once(ce1_path, wow_path, capsys, monkeypatch):
    make_parser.cache_clear()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "solve", "--game", ce1_path, "--method", "brute")[0] == 1
    once = len(built)
    assert built.count("contestq") == 1
    for argv in (("verify", "--game", wow_path, "--profile", "1,1"),
                 ("dynamics", "--game", ce1_path, "--start", "1,2"),
                 ("graph", "--game", wow_path),
                 ("concavity", "--game", wow_path),
                 ("classify", "--game", ce1_path),
                 ("instance", "ce1"),
                 ("solve", "--game", wow_path, "--method", "brute")):
        run(capsys, *argv)
    assert len(built) == once
    assert make_parser.cache_info().misses == 1


def test_main_calls_a_replaced_command_through_the_built_parser(wow_path, capsys,
                                                                monkeypatch):
    assert run(capsys, "classify", "--game", wow_path)[0] == 0
    seen = []
    monkeypatch.setattr("contestq.cli.cmd_classify",
                        lambda args: seen.append(args.game) or 7)
    assert run(capsys, "classify", "--game", wow_path)[0] == 7
    assert seen == [wow_path]


def test_a_usage_error_leaks_nothing_into_the_next_call(wow_path, capsys):
    first = run(capsys, "solve", "--game", wow_path, "--method", "brute")
    json_out = run(capsys, "solve", "--game", wow_path, "--method", "brute",
                   "--format", "json")
    assert json.loads(json_out[1])["status"] == "pne"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--game", wow_path])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: contestq solve")
    assert "--method" in captured.err
    again = run(capsys, "solve", "--game", wow_path, "--method", "brute")
    assert again[:2] == first[:2]
    assert first[0] == 0 and first[1].startswith("pure Nash equilibrium: 1,1\n")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_prints_the_same_text_twice(argv, capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        texts.append(captured.out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: contestq")


def test_a_fresh_process_matches_main_in_process(ce1_path, wow_path, tmp_path, capsys):
    table_path = str(tmp_path / "specific.json")  # 13 players: 3^13 profiles
    save_game(beyond_cap_table_games()["specific"], table_path)
    for argv, want in ((["solve", "--game", wow_path, "--method", "brute"], 0),
                       (["solve", "--game", ce1_path, "--method", "brute"], 1),
                       (["dynamics", "--game", ce1_path, "--max-steps", "-1"], 2),
                       (["classify", "--game", table_path], 0)):
        shell_code, shell_out, shell_err = run_fresh(*argv)
        code, out, _ = run(capsys, *argv)
        assert (shell_code, shell_out) == (code, out) and code == want
        assert "Traceback" not in shell_err
