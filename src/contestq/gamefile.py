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
    proportional,
)
from .rationals import format_rational, parse_rational


# each table field of PaymentFunction: its entries' keys in key order, True for a list
_TABLE_KEYS = {
    "invariant_table": {"q": False, "loads": True},
    "profile_table": {"player": False, "profile": True},
    "loads_table": {"player": False, "q": False, "loads": True},
}


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
    if kind in ("player_invariant", "player_specific"):
        _require_keys(obj, {"type", "table"}, set(), "payment")
        entries = _list(obj["table"], "payment.table")
        if kind == "player_invariant":
            field = "invariant_table"
        elif entries and isinstance(entries[0], Mapping) and "profile" in entries[0]:
            field = "profile_table"
        else:
            field = "loads_table"
        names = _TABLE_KEYS[field]
        required, where = {*names, "pay"}, f"{kind} entry"
        table: dict = {}
        for entry in entries:
            _require_keys(entry, required, set(), where)
            key = tuple([tuple(_int_list(entry[name], name)) if is_list
                         else _int(entry[name], name) for name, is_list in names.items()])
            if key in table:
                raise GameValidationError(f"duplicate {kind} entry {key}")
            table[key] = parse_rational(entry["pay"])
        return PaymentFunction(kind=PaymentKind(kind), **{field: table})
    raise GameValidationError(f"unknown payment type {kind!r}")


def serialize_game(game: ContestGame) -> dict:
    """Inverse of parse_game; emits canonical 'p/q' strings."""
    cost: dict = {"kind": game.cost.kind}
    if game.cost.table is not None:
        cost["values"] = _format_rows(game.cost.table)
    return {
        "n": game.n,
        "Q": game.Q,
        "skills": [format_rational(s) for s in game.skills],
        "efforts": [format_rational(f) for f in game.efforts],
        "participation": game.participation.value,
        "cost": cost,
        "payment": _serialize_payment(game.payment),
    }


def _format_rows(rows: tuple[tuple[Fraction, ...], ...]) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in rows]


def _serialize_payment(pf: PaymentFunction) -> dict:
    """The payment's type and each of its non-None fields, under its file name."""
    out: dict = {"type": pf.kind.value}
    if pf.K is not None:
        out["K"] = pf.K
    if pf.matrix is not None:
        out["table"] = _format_rows(pf.matrix)
    if pf.matrices is not None:
        out["tables"] = [_format_rows(mat) for mat in pf.matrices]
    for field, names in _TABLE_KEYS.items():
        table = getattr(pf, field)
        if table is not None:
            layout = tuple(names.items())
            out["table"] = entries = []
            for key, pay in sorted(table.items()):
                entry = {name: list(part) if is_list else part
                         for (name, is_list), part in zip(layout, key)}
                entry["pay"] = format_rational(pay)
                entries.append(entry)
    return out


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
