import json
from itertools import product

import pytest

from contestq import (
    ContestError,
    ContestGame,
    CostFunction,
    GameValidationError,
    Participation,
    build,
    compositions,
    equal_sharing,
    ktop,
    load_game,
    oblivious_table,
    parse_game,
    player_invariant_table,
    player_specific_table,
    random_game,
    save_game,
    serialize_game,
)
from contestq.rationals import RationalParseError, format_rational, parse_rational
from fractions import Fraction as F

from conftest import make_game


def test_rational_parsing():
    assert parse_rational("3/19") == F(3, 19)
    assert parse_rational("2") == F(2)
    assert parse_rational(5) == F(5)
    assert format_rational(F(3, 19)) == "3/19"
    assert format_rational(F(4, 2)) == "2"
    with pytest.raises(RationalParseError):
        parse_rational(0.5)
    with pytest.raises(RationalParseError):
        parse_rational("1/0")
    with pytest.raises(RationalParseError):
        parse_rational(True)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("+2") == F(2)


@pytest.mark.parametrize("text", ["1.5", "1e-3", "1e99999999", " 1", "1/", "/2",
                                  "1/-2", "0x10", ""])
def test_rational_strings_are_p_over_q_only(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


def test_rational_parse_error_is_a_contest_error():
    assert issubclass(RationalParseError, ContestError)


@pytest.mark.parametrize("iid,kwargs", [
    ("ce1", {}), ("ce2", {"k": 2}), ("matching_pennies", {}),
    ("fip_voluntary", {"n": 3, "Q": 3}), ("natasa", {"n": 2, "Q": 2}),
])
def test_round_trip_catalog_games(iid, kwargs):
    game = build(iid, **kwargs).game
    assert parse_game(json.loads(json.dumps(serialize_game(game)))) == game


# the payment kinds no random family draws, on a voluntary 3-player game
CLOSED_AND_MATRIX_PAYMENTS = {
    "equal_sharing": equal_sharing(),
    "ktop": ktop(1),
    "per-player-matrices": oblivious_table(matrices=tuple(
        tuple(tuple(F(q + i, load) for load in (1, 2, 3)) for q in (1, 2)) for i in (1, 2, 3))),
}


@pytest.mark.parametrize("family", [
    "oblivious-invariant", "concave-specific", "concave-invariant",
    "proportional", *CLOSED_AND_MATRIX_PAYMENTS,
])
def test_round_trip_random_games(family):
    if family in CLOSED_AND_MATRIX_PAYMENTS:
        game = make_game(3, 2, (1, F(1, 2), F(2, 3)), (0, F(3, 2)),
                         CLOSED_AND_MATRIX_PAYMENTS[family])
    else:
        game = random_game(7, 3, 2, family)
    assert parse_game(json.loads(json.dumps(serialize_game(game)))) == game


def test_file_round_trip(tmp_path):
    game = build("ce2", k=2).game
    path = tmp_path / "game.json"
    save_game(game, path)
    assert load_game(path) == game


def test_unknown_top_level_key_rejected():
    blob = serialize_game(build("ce1").game)
    blob["extra"] = 1
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_missing_key_rejected():
    blob = serialize_game(build("ce1").game)
    del blob["skills"]
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_unknown_payment_type_rejected():
    blob = serialize_game(build("ce1").game)
    blob["payment"] = {"type": "mystery"}
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_float_rationals_rejected():
    blob = serialize_game(build("ce1").game)
    blob["skills"] = [0.333, 0.333]
    with pytest.raises(RationalParseError):
        parse_game(blob)


@pytest.mark.parametrize("field", ["skills", "efforts"])
def test_rational_lists_must_be_json_lists(field):
    # iterated as a string, "12" would read as the skills (1, 2) and
    # "123" as the efforts (1, 2, 3): both a valid game
    blob = serialize_game(build("ce2", k=2).game)
    blob[field] = "12" if field == "skills" else "123"
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_unknown_entry_key_rejected():
    blob = serialize_game(build("ce1").game)
    blob["payment"]["table"][0]["why"] = 1
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_duplicate_table_entry_rejected():
    blob = serialize_game(build("ce1").game)
    blob["payment"]["table"].append(dict(blob["payment"]["table"][0]))
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_participation_effort_mismatch_rejected():
    blob = serialize_game(build("ce1").game)
    blob["participation"] = "voluntary"  # but f_1 = 1
    with pytest.raises(GameValidationError):
        parse_game(blob)


def test_oblivious_needs_exactly_one_table_form():
    blob = {
        "n": 2, "Q": 2, "skills": ["1", "1"], "efforts": ["1", "2"],
        "participation": "mandatory", "cost": {"kind": "product"},
        "payment": {"type": "oblivious"},
    }
    with pytest.raises(GameValidationError):
        parse_game(blob)


def _two_by_two(cost=None, payment=None):
    return {
        "n": 2, "Q": 2, "skills": ["1", "1"], "efforts": ["1", "2"],
        "participation": "mandatory", "cost": cost or {"kind": "product"},
        "payment": payment or {"type": "proportional"},
    }


@pytest.mark.parametrize("blob", [
    # each string row would iterate as the row (3, 4)
    _two_by_two(cost={"kind": "table", "values": [["1", "2"], "34"]}),
    _two_by_two(payment={"type": "oblivious", "table": ["12", "34"]}),
    _two_by_two(payment={"type": "oblivious", "tables": [[["1", "2"], ["3", "4"]],
                                                         [["1", "2"], "34"]]}),
    _two_by_two(payment={"type": "oblivious", "tables": "ab"}),
    _two_by_two(cost={"kind": "table", "values": "12"}),
])
def test_rows_must_be_json_lists(blob):
    with pytest.raises(GameValidationError):
        parse_game(blob)


@pytest.mark.parametrize("payment", [
    {"type": "player_specific", "table": [1]},
    {"type": "player_invariant", "table": [5]},
    {"type": "player_specific", "table": "x"},
    {"type": "player_invariant", "table": {"q": 1}},
])
def test_table_entries_must_be_json_objects(payment):
    with pytest.raises(GameValidationError):
        parse_game(_two_by_two(payment=payment))


def test_profile_table_keys_need_qualities_in_range():
    blob = serialize_game(build("matching_pennies").game)
    assert "profile" in blob["payment"]["table"][0]
    blob["payment"]["table"].append({"player": 1, "profile": [1, 5], "pay": "1"})
    with pytest.raises(GameValidationError, match="bad profile-table key"):
        parse_game(blob)


@pytest.mark.parametrize("loads", [[3, -1], [2, 1], [1, 0]])
def test_loads_table_keys_need_loads_summing_to_n(loads):
    blob = serialize_game(random_game(1, 2, 2, "concave-specific"))
    blob["payment"]["table"].append({"player": 1, "q": 1, "loads": loads, "pay": "0"})
    with pytest.raises(GameValidationError, match="bad loads-table key"):
        parse_game(blob)


def test_duplicate_json_keys_rejected(tmp_path):
    # last-wins would silently read the second efforts
    path = tmp_path / "dup.json"
    path.write_text('{"efforts": ["1", "3"], ' + json.dumps(_two_by_two())[1:])
    with pytest.raises(GameValidationError, match="duplicate JSON key 'efforts'"):
        load_game(path)


def _complete_table(form, n, Q):
    """Every entry of one table form, all paying 0."""
    qualities = range(1, Q + 1)
    if form == "profile_table":
        return {(i, p): F(0) for i in range(1, n + 1)
                for p in product(qualities, repeat=n)}
    occupied = [(q, v) for v in compositions(n, Q) for q in qualities if v[q - 1] > 0]
    if form == "loads_table":
        return {(i, q, v): F(0) for i in range(1, n + 1) for q, v in occupied}
    return {key: F(0) for key in occupied}


def _table_game(form, n, Q, table):
    payment = (player_invariant_table(table) if form == "invariant_table"
               else player_specific_table(**{form: table}))
    return ContestGame(n=n, Q=Q, skills=(F(1),) * n,
                       efforts=tuple(F(f) for f in range(1, Q + 1)),
                       participation=Participation.MANDATORY,
                       cost=CostFunction("product"), payment=payment)


@pytest.mark.parametrize("n, Q", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("form", ["invariant_table", "loads_table", "profile_table"])
def test_a_table_missing_any_entry_is_rejected(form, n, Q):
    table = _complete_table(form, n, Q)
    blob = serialize_game(_table_game(form, n, Q, table))
    entries = blob["payment"]["table"]
    assert len(entries) == len(table)
    for k, key in enumerate(sorted(table)):
        holed = dict(table)
        del holed[key]
        with pytest.raises(GameValidationError, match="incomplete"):
            _table_game(form, n, Q, holed)
        blob["payment"]["table"] = entries[:k] + entries[k + 1:]
        with pytest.raises(GameValidationError, match="incomplete"):
            parse_game(blob)


@pytest.mark.parametrize("kind", ["player_invariant", "player_specific"])
def test_an_empty_table_is_incomplete(kind):
    with pytest.raises(GameValidationError, match="incomplete"):
        parse_game(_two_by_two(payment={"type": kind, "table": []}))


def test_loads_table_keys_at_an_unoccupied_quality_are_not_entries():
    table = _complete_table("loads_table", 2, 3)
    spare = {(i, q, v): F(0) for i in (1, 2) for v in compositions(2, 3)
             for q in (1, 2, 3) if v[q - 1] == 0}
    _table_game("loads_table", 2, 3, {**table, **spare})  # a complete table with spares
    del table[(2, 3, (0, 1, 1))]
    with pytest.raises(GameValidationError, match="incomplete"):
        _table_game("loads_table", 2, 3, {**table, **spare})


def test_invariant_table_keys_need_non_negative_loads():
    # (1, (3, -1)) sums to n = 2 with quality 1 occupied
    blob = serialize_game(_table_game("invariant_table", 2, 2,
                                      _complete_table("invariant_table", 2, 2)))
    blob["payment"]["table"].append({"q": 1, "loads": [3, -1], "pay": "5"})
    with pytest.raises(GameValidationError, match="bad invariant-table key"):
        parse_game(blob)
