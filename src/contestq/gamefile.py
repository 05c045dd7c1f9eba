"""Strict JSON (de)serialization of games.

A game file is a single JSON object::

    {
      "n": 2, "Q": 3,
      "skills": ["1/3", "1/3"],
      "efforts": ["1", "2", "3"],
      "participation": "mandatory",
      "cost": {"kind": "product"} | {"kind": "table", "values": [[...]]},
      "payment": {"type": "proportional"}
               | {"type": "equal_sharing"}
               | {"type": "ktop", "K": 2}
               | {"type": "oblivious", "table": [[...]]}      # shared Q x n
               | {"type": "oblivious", "tables": [[[...]]]}   # one per player
               | {"type": "player_invariant",
                  "table": [{"q": 1, "loads": [2,0], "pay": "1/2"}, ...]}
               | {"type": "player_specific",
                  "table": [{"player": 1, "profile": [1,2], "pay": "1"}, ...]}
               | {"type": "player_specific",
                  "table": [{"player": 1, "q": 1, "loads": [2,0], "pay": "1"}, ...]}

Rationals are "p/q" strings or JSON integers; floats, unknown keys and
tables that miss an entry are rejected.  Parsing is strict so that a
file accepted here is a faithful, exact description of one game.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Union

from .errors import GameValidationError
from .game import ContestGame, CostFunction, Participation
from .payments import (
    PaymentFunction,
    PaymentKind,
    equal_sharing,
    ktop,
    oblivious_table,
    player_invariant_table,
    player_specific_table,
    proportional,
)
from .rationals import format_rational, parse_rational


def _require_keys(obj: object, required: set[str], optional: set[str],
                  where: str) -> None:
    if not isinstance(obj, Mapping):
        raise GameValidationError(f"{where}: expected an object")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise GameValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise GameValidationError(f"{where}: missing keys {sorted(missing)}")


def _int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GameValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise GameValidationError(f"{where}: expected a list")
    return value


def _int_list(value: object, where: str) -> list[int]:
    return [_int(v, where) for v in _list(value, where)]


def _rational_rows(value: object, where: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(parse_rational(v) for v in _list(row, f"{where} row"))
                 for row in _list(value, where))


def parse_game(obj: Mapping) -> ContestGame:
    _require_keys(obj, {"n", "Q", "skills", "efforts", "participation",
                        "cost", "payment"}, set(), "game")
    n = _int(obj["n"], "n")
    Q = _int(obj["Q"], "Q")
    skills = tuple(parse_rational(v) for v in _list(obj["skills"], "skills"))
    efforts = tuple(parse_rational(v) for v in _list(obj["efforts"], "efforts"))
    mode = obj["participation"]
    if mode not in ("voluntary", "mandatory"):
        raise GameValidationError(f"participation must be voluntary|mandatory, got {mode!r}")
    cost = _parse_cost(obj["cost"])
    payment = _parse_payment(obj["payment"])
    return ContestGame(
        n=n, Q=Q, skills=skills, efforts=efforts,
        participation=Participation(mode), cost=cost, payment=payment,
    )


def _parse_cost(obj: object) -> CostFunction:
    if not isinstance(obj, Mapping):
        raise GameValidationError("cost: expected an object")
    kind = obj.get("kind")
    if kind == "product":
        _require_keys(obj, {"kind"}, set(), "cost")
        return CostFunction("product")
    if kind == "table":
        _require_keys(obj, {"kind", "values"}, set(), "cost")
        return CostFunction("table", _rational_rows(obj["values"], "cost.values"))
    raise GameValidationError(f"cost kind must be product|table, got {kind!r}")


def _parse_payment(obj: object) -> PaymentFunction:
    if not isinstance(obj, Mapping):
        raise GameValidationError("payment: expected an object")
    kind = obj.get("type")
    if kind == "proportional":
        _require_keys(obj, {"type"}, set(), "payment")
        return proportional()
    if kind == "equal_sharing":
        _require_keys(obj, {"type"}, set(), "payment")
        return equal_sharing()
    if kind == "ktop":
        _require_keys(obj, {"type", "K"}, set(), "payment")
        return ktop(_int(obj["K"], "payment.K"))
    if kind == "oblivious":
        _require_keys(obj, {"type"}, {"table", "tables"}, "payment")
        if ("table" in obj) == ("tables" in obj):
            raise GameValidationError(
                "oblivious payment needs exactly one of 'table' or 'tables'"
            )
        if "table" in obj:
            return oblivious_table(matrix=_rational_rows(obj["table"], "payment.table"))
        return oblivious_table(matrices=tuple(
            _rational_rows(m, "payment.tables") for m in _list(obj["tables"], "payment.tables")))
    if kind == "player_invariant":
        _require_keys(obj, {"type", "table"}, set(), "payment")
        table = {}
        for entry in _list(obj["table"], "payment.table"):
            _require_keys(entry, {"q", "loads", "pay"}, set(),
                          "player_invariant entry")
            key = (_int(entry["q"], "q"), tuple(_int_list(entry["loads"], "loads")))
            if key in table:
                raise GameValidationError(f"duplicate invariant entry {key}")
            table[key] = parse_rational(entry["pay"])
        return player_invariant_table(table)
    if kind == "player_specific":
        _require_keys(obj, {"type", "table"}, set(), "payment")
        entries = _list(obj["table"], "payment.table")
        by_profile = entries and isinstance(entries[0], Mapping) and "profile" in entries[0]
        profile_table: dict = {}
        loads_table: dict = {}
        for entry in entries:
            if by_profile:
                _require_keys(entry, {"player", "profile", "pay"}, set(),
                              "player_specific entry")
                key = (_int(entry["player"], "player"),
                       tuple(_int_list(entry["profile"], "profile")))
                target: dict = profile_table
            else:
                _require_keys(entry, {"player", "q", "loads", "pay"}, set(),
                              "player_specific entry")
                key = (_int(entry["player"], "player"), _int(entry["q"], "q"),
                       tuple(_int_list(entry["loads"], "loads")))
                target = loads_table
            if key in target:
                raise GameValidationError(f"duplicate player_specific entry {key}")
            target[key] = parse_rational(entry["pay"])
        if by_profile:
            return player_specific_table(profile_table=profile_table)
        return player_specific_table(loads_table=loads_table)
    raise GameValidationError(f"unknown payment type {kind!r}")


def serialize_game(game: ContestGame) -> dict:
    """Inverse of parse_game; emits canonical 'p/q' strings."""
    cost: dict
    if game.cost.kind == "product":
        cost = {"kind": "product"}
    else:
        assert game.cost.table is not None
        cost = {"kind": "table", "values": [
            [format_rational(v) for v in row] for row in game.cost.table]}
    return {
        "n": game.n,
        "Q": game.Q,
        "skills": [format_rational(s) for s in game.skills],
        "efforts": [format_rational(f) for f in game.efforts],
        "participation": game.participation.value,
        "cost": cost,
        "payment": _serialize_payment(game.payment),
    }


def _serialize_payment(pf: PaymentFunction) -> dict:
    kind = pf.kind
    if kind is PaymentKind.PROPORTIONAL:
        return {"type": "proportional"}
    if kind is PaymentKind.EQUAL_SHARING:
        return {"type": "equal_sharing"}
    if kind is PaymentKind.KTOP:
        return {"type": "ktop", "K": pf.K}
    if kind is PaymentKind.OBLIVIOUS_TABLE:
        if pf.matrix is not None:
            return {"type": "oblivious", "table": [
                [format_rational(v) for v in row] for row in pf.matrix]}
        assert pf.matrices is not None
        return {"type": "oblivious", "tables": [
            [[format_rational(v) for v in row] for row in mat]
            for mat in pf.matrices]}
    if kind is PaymentKind.PLAYER_INVARIANT_TABLE:
        assert pf.invariant_table is not None
        entries = [
            {"q": q, "loads": list(loads), "pay": format_rational(pay)}
            for (q, loads), pay in sorted(pf.invariant_table.items())
        ]
        return {"type": "player_invariant", "table": entries}
    assert kind is PaymentKind.PLAYER_SPECIFIC_TABLE
    if pf.profile_table is not None:
        entries = [
            {"player": i, "profile": list(prof), "pay": format_rational(pay)}
            for (i, prof), pay in sorted(pf.profile_table.items())
        ]
    else:
        assert pf.loads_table is not None
        entries = [
            {"player": i, "q": q, "loads": list(loads),
             "pay": format_rational(pay)}
            for (i, q, loads), pay in sorted(pf.loads_table.items())
        ]
    return {"type": "player_specific", "table": entries}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        names = [key for key, _ in pairs]
        duplicate = next(key for key in names if names.count(key) > 1)
        raise GameValidationError(f"duplicate JSON key {duplicate!r}")
    return obj


def _load_object(path: Union[str, Path]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise GameValidationError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise GameValidationError(f"{path}: not UTF-8: {exc}") from None
    if not isinstance(obj, dict):
        raise GameValidationError(f"{path}: top level must be an object")
    return obj


def load_game(path: Union[str, Path]) -> ContestGame:
    return parse_game(_load_object(path))


def load_profile(path: Union[str, Path]) -> tuple[int, ...]:
    """The 'profile' list of integers in a JSON object (solve --format json)."""
    obj = _load_object(path)
    if "profile" not in obj:
        raise GameValidationError(f"{path}: no 'profile' key")
    return tuple(_int_list(obj["profile"], f"{path}: profile"))


def save_game(game: ContestGame, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_game(game), fh, indent=2, sort_keys=True)
        fh.write("\n")
