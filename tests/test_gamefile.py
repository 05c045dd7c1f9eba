import json

import pytest

from contestq import (
    ContestError,
    GameValidationError,
    build,
    load_game,
    parse_game,
    random_game,
    save_game,
    serialize_game,
)
from contestq.rationals import RationalParseError, format_rational, parse_rational
from fractions import Fraction as F


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


@pytest.mark.parametrize("family", [
    "oblivious-invariant", "concave-specific", "concave-invariant",
    "proportional",
])
def test_round_trip_random_games(family):
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
