"""Fast tests of the benchmark itself: workloads, oracle and tracer.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import contestq as cq
import contestq.cli as cli
import oracle
import run
import tracer as tracing
import workloads

# The two operations that fail today, and why (see cli-corpus in the README).
KNOWN_FAULTS = {"solve-all-at-one/scaled-efforts": "AssertionError",
                "verify/float-skill": "RationalParseError"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_every_workload_checks_out(name, tmp_path):
    setup, make_ops = workloads.WORKLOADS[name]
    ops = make_ops(setup(7, tmp_path), tmp_path, 7)
    tally = run.Tally()
    tally.run_pass(ops)
    assert tally.wrong == {}
    want = KNOWN_FAULTS if name == "cli-corpus" else {}
    assert {label: text.split(":")[0] for label, text in tally.errors.items()} == want
    assert (tally.attempted, tally.failed) == (len(ops), len(want))
    assert not [path for op in ops for path in op.leaves if Path(path).exists()]


def test_workload_names_match():
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_op_lists_have_a_fixed_length(tmp_path):
    for name, (setup, make_ops) in workloads.WORKLOADS.items():
        sizes = {len(make_ops(setup(seed, tmp_path), tmp_path, seed)) for seed in (1, 2)}
        assert len(sizes) == 1, name


def test_main_prints_the_result_as_the_last_line(capsys, tmp_path):
    assert run.main(["--workload", "cli-corpus", "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    per_pass = len(workloads.ops_cli(workloads.setup_cli(3, tmp_path), tmp_path, 3))
    assert result["failed"] * per_pass == len(KNOWN_FAULTS) * result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _game(n, Q, skills, efforts, payment):
    return workloads._game(n, Q, [F(s) for s in skills], [F(f) for f in efforts], payment)


def test_oracle_utility_by_hand():
    game = _game(2, 2, (1, 1), (1, 2), cq.proportional())
    # f = (1, 2): at (1, 2) the pot splits 1/3 and 2/3; costs are 1 and 2.
    assert oracle.utility(game, (1, 2), 1) == F(1, 3) - 1
    assert oracle.utility(game, (1, 2), 2) == F(2, 3) - 2
    shared = _game(2, 3, (1, 1), (1, 2, 3), cq.equal_sharing())
    # The largest payout sum is 3 + 2, so c = 1/5; two players share quality 3.
    assert oracle.payment(shared, (3, 3), 1) == F(1, 5) * 3 / 2


def test_oracle_ce1_has_the_six_cycle_and_no_pne():
    game = cq.build("ce1").game
    assert oracle.ProfileScan(game).equilibria() == []
    cycle = [(1, 2), (3, 2), (3, 1), (2, 1), (2, 3), (1, 3)]
    assert all(oracle.improves(game, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_oracle_ce2_has_the_four_cycle_and_no_pne(k):
    game = cq.build("ce2", k=k).game
    assert oracle.ProfileScan(game).equilibria() == []
    cycle = [(k, k + 1), (k - 1, k + 1), (k - 1, k), (k, k)]
    assert all(oracle.improves(game, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_oracle_matching_pennies_has_no_pne():
    assert oracle.ProfileScan(cq.build("matching_pennies").game).equilibria() == []


@pytest.mark.parametrize("name", ["fip_voluntary", "fip_mandatory"])
def test_oracle_fip_sink_sets(name):
    for n in range(2, 7):
        for Q in range(2, 5):
            moves = oracle.anonymous_moves(cq.build(name, n=n, Q=Q).game)
            sinks = sorted(v for v, pairs in moves.items() if not pairs)
            assert sinks == oracle.fip_sinks(n, Q, name == "fip_voluntary")
            assert all(b < a for pairs in moves.values() for a, b in pairs)


def test_oracle_colex_order():
    assert oracle.load_vectors(2, 3) == ((2, 0, 0), (1, 1, 0), (0, 2, 0),
                                         (1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert oracle.load_vectors(2, 3) == tuple(cq.compositions(2, 3))


def _library_names():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "contestq" or name.startswith("contestq.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_rebound_name():
    before = _library_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cq.solvers.is_pne is not before[("contestq.solvers", "is_pne")]
        assert cq.game.utility is not before[("contestq.game", "utility")]
        assert cq.is_pne is cq.solvers.is_pne is cq.game.is_pne
        cq.brute_force_pne(cq.build("ce1").game)
    finally:
        tracer.remove()
    after = _library_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    stats, pairs = tracer.summary()
    assert stats["game.is_pne"]["calls"] == 9
    assert pairs[("game.is_pne", "game.utility")] == 9 * 2 * 3
    assert 0 <= stats["solvers.brute_force_pne"]["self_s"] <= stats["solvers.brute_force_pne"]["total_s"]


def _stdout_of_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracing_leaves_the_stdout_of_main_unchanged(tmp_path):
    path = str(tmp_path / "g.json")
    cq.save_game(cq.random_game(5, 3, 3, "proportional"), path)
    commands = [["instance", "ce1", "--verify"], ["instance", "fip_voluntary", "--n", "4"],
                ["solve", "--game", path, "--method", "brute", "--all"],
                ["graph", "--game", path, "--mode", "profile"], ["classify", "--game", path]]
    plain = [_stdout_of_main(argv) for argv in commands]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_stdout_of_main(argv) for argv in commands]
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.summary()[0]["cli.main"]["calls"] == len(commands)
