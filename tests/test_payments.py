import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from contestq import (
    build,
    classify,
    equal_sharing,
    evaluate_payment,
    ktop,
    normalization_constant,
    oblivious_table,
    payment_on_loads,
    player_invariant_table,
    player_specific_table,
    proportional,
    random_game,
    utilities,
    utility,
)
import contestq.payments as payments
from contestq.errors import GameValidationError, PreconditionError
from contestq.payments import (
    PaymentKind,
    compositions,
    load_of,
    payer,
    specific_payment_on_loads,
)

from conftest import (
    alone_at_a_quality_game,
    beyond_cap_table_games,
    make_game,
    normalization_constant_bruteforce,
    payout_sum_bound_holds,
)


def test_proportional_symmetric_profile(prop_2x2):
    assert evaluate_payment(prop_2x2, (2, 2), 1) == F(2, 4) == F(1, 2)


def test_proportional_voluntary_all_at_one_is_zero():
    game = make_game(2, 2, (1, 1), (0, 1), proportional())
    assert evaluate_payment(game, (1, 1), 1) == 0
    assert evaluate_payment(game, (1, 1), 2) == 0
    # and on loads too
    assert payment_on_loads(game, 1, (2, 0)) == 0


def test_equal_sharing_uses_normalization_constant(es_2x2):
    # C_ES = 1/3: the payout sum peaks at 3 on the split profile (1,2)
    assert evaluate_payment(es_2x2, (2, 2), 1) == F(1, 3) * F(2, 2) == F(1, 3)


def test_es_constant_closed_form_vs_bruteforce(es_2x2):
    closed = normalization_constant(es_2x2)
    brute = normalization_constant_bruteforce(es_2x2, "equal_sharing")
    assert closed == brute == F(1, 3)


def test_es_constant_when_players_cover_all_qualities():
    # n >= Q: every quality occupiable at once, so the max is sum(f)
    game = make_game(3, 2, (1, 1, 1), (1, 2), equal_sharing())
    closed = normalization_constant(game)
    assert closed == normalization_constant_bruteforce(game, "equal_sharing")
    assert closed == F(1, 3)


@pytest.mark.parametrize("n,Q,efforts", [
    (2, 3, (1, 2, 3)), (4, 2, (2, 5)), (3, 4, (0, 1, 3, 7)), (5, 3, (1, 3, 4)),
])
def test_es_constant_closed_form_matches_bruteforce(n, Q, efforts):
    game = make_game(n, Q, (1,) * n, efforts, equal_sharing())
    assert normalization_constant(game) == \
        normalization_constant_bruteforce(game, "equal_sharing")


@pytest.mark.parametrize("n,Q,K,efforts", [
    (2, 3, 1, (1, 2, 3)), (2, 3, 2, (1, 2, 3)), (4, 3, 2, (0, 1, 2)),
    (3, 4, 3, (1, 2, 3, 9)),
])
def test_ktop_constant_closed_form_matches_bruteforce(n, Q, K, efforts):
    game = make_game(n, Q, (1,) * n, efforts, ktop(K))
    assert normalization_constant(game) == \
        normalization_constant_bruteforce(game, "ktop")


def test_ktop_with_full_K_equals_equal_sharing_constant(es_2x2):
    game = make_game(2, 2, (1, 1), (1, 2), ktop(2))
    assert normalization_constant(game) == normalization_constant(es_2x2)


def test_normalization_constant_needs_equal_sharing_or_ktop(prop_2x2):
    with pytest.raises(PreconditionError, match="proportional"):
        normalization_constant(prop_2x2)


def test_ktop_pays_zero_below_threshold(ktop1_2x3):
    assert evaluate_payment(ktop1_2x3, (2, 3), 1) == 0
    assert evaluate_payment(ktop1_2x3, (2, 3), 2) > 0


def test_classify_proportional():
    game = make_game(2, 3, (1, 1), (1, 2, 3), proportional())
    verdict = classify(game)
    assert verdict.player_invariant
    assert not verdict.oblivious


def test_classify_equal_sharing(es_2x2):
    verdict = classify(es_2x2)
    assert verdict.oblivious and verdict.player_invariant


def test_classify_matching_pennies():
    # Not player-invariant.  At n = Q = 2 every (player, quality, load)
    # key pins down the full profile, so the extensional obliviousness
    # check is vacuously satisfied.
    verdict = classify(build("matching_pennies").game)
    assert not verdict.player_invariant
    assert verdict.oblivious


@pytest.mark.parametrize("seed", range(6))
def test_classify_random_small_games(seed):
    prop = random_game(seed, 2 + seed % 2, 3, "proportional")
    verdict = classify(prop)
    assert verdict.player_invariant
    assert not verdict.oblivious
    es = make_game(2 + seed % 3, 2 + seed % 2, (1,) * (2 + seed % 3),
                   tuple(range(1, 3 + seed % 2)), equal_sharing())
    assert classify(es) == (True, True)


@pytest.mark.parametrize("payment", [proportional(), equal_sharing(), ktop(2)])
@pytest.mark.parametrize("n,Q,efforts", [
    (4, 3, (1, 2, 4)),
    (5, 4, (1, 2, 4, 5)),   # the largest desk-scale shape, 4^5 profiles
    (3, 4, (0, 2, 3, 7)),
])
def test_normalization_sum_at_most_one(payment, n, Q, efforts):
    skills = tuple(1 + (i % 3) for i in range(n))
    game = make_game(n, Q, skills, efforts, payment)
    assert payout_sum_bound_holds(game)


def test_proportional_sums_to_exactly_one_unless_indeterminate():
    mand = make_game(3, 2, (1, 1, 1), (1, 2), proportional())
    for profile in product((1, 2), repeat=3):
        total = sum(evaluate_payment(mand, profile, i) for i in (1, 2, 3))
        assert total == 1
    vol = make_game(3, 2, (1, 1, 1), (0, 2), proportional())
    for profile in product((1, 2), repeat=3):
        total = sum(evaluate_payment(vol, profile, i) for i in (1, 2, 3))
        assert total == (0 if profile == (1, 1, 1) else 1)


# every loads-keyed kind on n = Q = 2; the table kinds pay 1 alone and 1/3 together
SHARED = {(q, v): F(1, 3) if v[q - 1] == 2 else F(1)
          for v in compositions(2, 2) for q in (1, 2) if v[q - 1] > 0}
LOADS_KINDS = {
    "proportional": proportional(),
    "equal_sharing": equal_sharing(),
    "ktop": ktop(2),
    "oblivious": oblivious_table(matrix=((F(1), F(1, 3)), (F(1), F(1, 3)))),
    "player_invariant": player_invariant_table(SHARED),
    "player_specific": player_specific_table(loads_table={
        (i, q, v): pay for i in (1, 2) for (q, v), pay in SHARED.items()}),
}


def _loads_reader(kind):
    """`payment_on_loads`, or player 1's `specific_payment_on_loads`."""
    game = make_game(2, 2, (1, 1), (1, 2), LOADS_KINDS[kind])
    if kind == "player_specific":
        def read(q, loads):
            return specific_payment_on_loads(game, 1, q, loads)
    else:
        def read(q, loads):
            return payment_on_loads(game, q, loads)
    return game, read


@pytest.mark.parametrize("kind", sorted(LOADS_KINDS))
def test_payment_on_loads_rejects_an_unoccupied_own_quality(kind):
    game, read = _loads_reader(kind)
    assert read(2, (0, 2)) == evaluate_payment(game, (2, 2), 1)
    for q, loads in ((1, (0, 2)), (2, (2, 0))):
        with pytest.raises(PreconditionError, match="unoccupied"):
            read(q, loads)


@pytest.mark.parametrize("kind", sorted(LOADS_KINDS))
@pytest.mark.parametrize("quality, loads", [
    (0, (1, 1)),      # quality below 1..Q; loads[-1] is quality 2's load
    (3, (1, 1)),      # quality above 1..Q
    (1, (5, 0)),      # sums to 5, not n = 2
    (1, (3, -1)),     # a negative entry
    (1, (2,)),        # one entry short
    (1, (1, 1, 0)),   # one entry too many
])
def test_payment_on_loads_rejects_a_key_outside_the_game(kind, quality, loads):
    _, read = _loads_reader(kind)
    with pytest.raises(GameValidationError):
        read(quality, loads)


@pytest.mark.parametrize("player", [0, 3])
def test_specific_payment_on_loads_rejects_a_player_outside_the_game(player):
    game = make_game(2, 2, (1, 1), (1, 2), LOADS_KINDS["player_specific"])
    with pytest.raises(GameValidationError):
        specific_payment_on_loads(game, player, 1, (1, 1))


@pytest.mark.parametrize("kind", sorted(LOADS_KINDS) + ["player_specific_profiles"])
@pytest.mark.parametrize("profile, player", [
    ((1, 2), 0),      # player below 1..n; profile[-1] is player 2's quality
    ((1, 2), 3),      # player above 1..n
    ((0, 2), 1),      # a quality below 1..Q
    ((1, 3), 1),      # a quality above 1..Q; no profile-table key
    ((1,), 1),        # one entry short
    ((1, 2, 1), 1),   # one entry too many
])
def test_evaluate_payment_rejects_a_player_or_profile_outside_the_game(kind, profile,
                                                                      player):
    payment = (player_specific_table(profile_table={
        (i, p): F(1) for i in (1, 2) for p in product((1, 2), repeat=2)})
        if kind == "player_specific_profiles" else LOADS_KINDS[kind])
    game = make_game(2, 2, (1, 1), (1, 2), payment)
    with pytest.raises(GameValidationError):
        evaluate_payment(game, profile, player)


@pytest.mark.parametrize("replaced", [None, (2, (0, 2))])
def test_invariant_table_rejects_a_negative_load(replaced):
    # (1, (3, -1)) sums to n = 2 with quality 1 occupied; in place of a real
    # entry it would also make the entry count come out right
    table = {key: pay for key, pay in SHARED.items() if key != replaced}
    table[(1, (3, -1))] = F(5)
    with pytest.raises(GameValidationError, match="bad invariant-table key"):
        make_game(2, 2, (1, 1), (1, 2), player_invariant_table(table))


@pytest.mark.parametrize("efforts", [(F(1, 3), F(2, 7), F(5, 11)), (0, F(2, 7), F(13, 17))])
def test_proportional_payment_is_the_effort_share(efforts):
    efforts = tuple(sorted(efforts))
    game = make_game(4, 3, (1, 1, 1, 1), efforts, proportional())
    for loads in compositions(4, 3):
        total = sum(m * f for m, f in zip(loads, game.efforts))
        for q in (1, 2, 3):
            if loads[q - 1]:
                share = game.efforts[q - 1] / total if total else 0
                assert payment_on_loads(game, q, loads) == share


# --- payment classes ---------------------------------------------------------

def _reference_classes(game):
    """(oblivious, player-invariant) read off the definitions: every
    player's payment is one function of (player, own quality, load on
    it), and one function of (own quality, load vector) for all players."""
    by_own, by_loads = defaultdict(set), defaultdict(set)
    for profile in product(game.qualities(), repeat=game.n):
        loads = load_of(profile, game.Q)
        for i, q in enumerate(profile, 1):
            pay = evaluate_payment(game, profile, i)
            by_own[(i, q, loads[q - 1])].add(pay)
            by_loads[(q, loads)].add(pay)
    return (all(len(pays) == 1 for pays in by_own.values()),
            all(len(pays) == 1 for pays in by_loads.values()))


# how a drawn table's payment depends on (player, own quality, loads, profile)
PAYMENT_SHAPES = {
    "quality-load": lambda i, q, v, p: (q, v[q - 1]),
    "quality-loads": lambda i, q, v, p: (q, v),
    "player-quality-load": lambda i, q, v, p: (i, q, v[q - 1]),
    "player-quality-loads": lambda i, q, v, p: (i, q, v),
    "player-profile": lambda i, q, v, p: (i, p),
}


def _seeded_payment(rng, n, Q, kind, shape):
    """A payment of `kind`; tables draw from {0, 1/2, 1} by `shape`."""
    drawn = defaultdict(lambda: F(rng.randint(0, 2), 2))
    at = PAYMENT_SHAPES[shape]
    if kind == "proportional":
        return proportional()
    if kind == "equal_sharing":
        return equal_sharing()
    if kind == "ktop":
        return ktop(rng.randint(1, Q))
    if kind == "oblivious":  # (m,) * Q: the load on any own quality is m
        mats = tuple(tuple(tuple(drawn[at(i, q, (m,) * Q, None)] for m in range(1, n + 1))
                           for q in range(1, Q + 1)) for i in range(1, n + 1))
        return oblivious_table(matrix=mats[0]) if rng.random() < 0.5 else \
            oblivious_table(matrices=mats)
    profiles = list(product(range(1, Q + 1), repeat=n))
    if kind == "player_invariant":
        return player_invariant_table({
            (q, load_of(p, Q)): drawn[at(None, q, load_of(p, Q), p)]
            for p in profiles for q in set(p)})
    if kind == "profile":
        return player_specific_table(profile_table={
            (i, p): drawn[at(i, p[i - 1], load_of(p, Q), p)]
            for p in profiles for i in range(1, n + 1)})
    return player_specific_table(loads_table={
        (i, p[i - 1], load_of(p, Q)): drawn[at(i, p[i - 1], load_of(p, Q), p)]
        for p in profiles for i in range(1, n + 1)})


CLASS_CASES = [
    ("proportional", "quality-load"), ("equal_sharing", "quality-load"),
    ("ktop", "quality-load"),
    ("oblivious", "quality-load"), ("oblivious", "player-quality-load"),
    ("player_invariant", "quality-load"), ("player_invariant", "quality-loads"),
] + [(form, shape) for form in ("loads", "profile") for shape in PAYMENT_SHAPES
     if (form, shape) != ("loads", "player-profile")]


@pytest.mark.parametrize("kind,shape", CLASS_CASES)
def test_classify_agrees_with_the_definitions(kind, shape):
    seen = set()
    for seed in range(20):
        rng = random.Random(f"{kind}/{shape}/{seed}")
        # seeds 12..19 draw the larger shapes, up to 4^5 profiles
        n, Q = (rng.randint(2, 4), rng.randint(2, 3)) if seed < 12 else \
            (rng.randint(3, 5), rng.randint(3, 4))
        first = rng.randint(0, 1)  # voluntary or mandatory
        efforts = tuple(range(first, first + Q))
        payment = _seeded_payment(rng, n, Q, kind, shape)
        game = make_game(n, Q, (1,) * n, efforts, payment)
        verdict = classify(game)
        assert verdict == _reference_classes(game), (kind, shape, seed)
        seen.add(tuple(verdict))
    if shape == "player-quality-loads":
        assert (False, False) in seen


TABLE_FIELDS = ("matrices", "invariant_table", "loads_table", "profile_table")


@pytest.mark.parametrize("kind", ["oblivious", "player_invariant", "loads", "profile"])
def test_classify_finds_one_changed_entry(kind):
    # an oblivious, player-invariant table with one entry raised by 1/7
    changed = 0
    for seed in range(10):
        rng = random.Random(f"changed/{kind}/{seed}")
        n, Q = rng.randint(2, 4), rng.randint(2, 4)
        efforts = tuple(range(1, Q + 1))
        pf = _seeded_payment(rng, n, Q, kind, "quality-load")
        field = next((f for f in TABLE_FIELDS if getattr(pf, f) is not None), None)
        if field is None:
            continue
        if field == "matrices":
            i, q, m = rng.randrange(n), rng.randrange(Q), rng.randrange(n)
            mats = [[list(row) for row in mat] for mat in pf.matrices]
            mats[i][q][m] += F(1, 7)
            value = tuple(tuple(map(tuple, mat)) for mat in mats)
        else:
            table = dict(getattr(pf, field))
            key = rng.choice(sorted(table))
            table[key] += F(1, 7)
            value = table
        game = make_game(n, Q, (1,) * n, efforts, replace(pf, **{field: value}))
        verdict = classify(game)
        assert verdict == _reference_classes(game), (kind, seed)
        changed += verdict != (True, True)
    assert changed  # some seed's change flips a verdict


def _count_reads(monkeypatch):
    """Every key `classify` reads from the payer, in order."""
    reads = []
    real = payments.payer

    def counting_payer(game):
        pay = real(game)

        def counted(*key):
            reads.append(key)
            return pay(*key)
        return counted

    monkeypatch.setattr(payments, "payer", counting_payer)
    return reads


@pytest.mark.parametrize("payment", [
    equal_sharing(), ktop(2),
    oblivious_table(matrix=((F(1), F(1, 3), F(1, 4)),) * 3),
    oblivious_table(matrices=(((F(1), F(1, 3), F(1, 4)),) * 3,) * 2
                    + (((F(1), F(1, 2), F(1, 4)),) * 3,)),
], ids=["equal_sharing", "ktop", "shared-matrix", "per-player-matrices"])
def test_classify_reads_no_payment_of_a_declared_oblivious_kind(payment, monkeypatch):
    game = make_game(3, 3, (1, 1, 1), (1, 2, 3), payment)
    want = _reference_classes(game)
    reads = _count_reads(monkeypatch)
    assert classify(game) == want == (True, payment.matrices is None)
    assert reads == []


@pytest.mark.parametrize("first", [0, 1])  # voluntary or mandatory
def test_classify_reads_proportional_in_linear_time(first, monkeypatch):
    n, Q = 40, 6
    game = make_game(n, Q, (1,) * n, tuple(range(first, first + Q)), proportional())
    reads = _count_reads(monkeypatch)
    assert classify(game) == (False, True)
    assert 0 < len(reads) <= 3 * (n + 3)
    assert {player for player, _, _ in reads} == {None}


@pytest.mark.parametrize("kind,shape", [case for case in CLASS_CASES
                                        if case[0] in ("player_invariant", "loads",
                                                       "profile")])
def test_classify_reads_a_table_no_more_often_than_it_holds_keys(kind, shape,
                                                               monkeypatch):
    reads = _count_reads(monkeypatch)
    for seed in range(6):
        rng = random.Random(f"reads/{kind}/{shape}/{seed}")
        n, Q = rng.randint(2, 5), rng.randint(2, 3)
        pf = _seeded_payment(rng, n, Q, kind, shape)
        game = make_game(n, Q, (1,) * n, tuple(range(1, Q + 1)), pf)
        held = len(pf.invariant_table or pf.loads_table or pf.profile_table)
        reads.clear()
        classify(game)
        assert 0 < len(reads) <= held and len(set(reads)) == len(reads), seed


def test_classify_decides_tables_beyond_the_profile_cap(monkeypatch):
    games = beyond_cap_table_games()
    reads = _count_reads(monkeypatch)
    assert classify(games["invariant"]) == (True, True)
    assert len(reads) == len(games["invariant"].payment.invariant_table)
    reads.clear()
    assert classify(games["specific"]) == (True, False)
    assert len(reads) == len(games["specific"].payment.loads_table)


def _defined_payment(game, i, profile):
    """Player i's payment under `profile`, read off the definition of its kind."""
    pf, q, efforts = game.payment, profile[i - 1], game.efforts
    loads = load_of(profile, game.Q)
    if pf.kind is PaymentKind.PROPORTIONAL:
        total = sum(m * f for m, f in zip(loads, efforts))
        return efforts[q - 1] / total if total else F(0)
    if pf.kind in (PaymentKind.EQUAL_SHARING, PaymentKind.KTOP):
        if pf.K is not None and q <= game.Q - pf.K:
            return F(0)
        c = normalization_constant_bruteforce(game, pf.kind.value)
        return c * efforts[q - 1] / loads[q - 1]
    if pf.matrix is not None:
        return pf.matrix[q - 1][loads[q - 1] - 1]
    if pf.matrices is not None:
        return pf.matrices[i - 1][q - 1][loads[q - 1] - 1]
    if pf.invariant_table is not None:
        return pf.invariant_table[(q, loads)]
    if pf.profile_table is not None:
        return pf.profile_table[(i, profile)]
    return pf.loads_table[(i, q, loads)]


@pytest.mark.parametrize("kind,shape", CLASS_CASES)
def test_payer_gives_each_payment_as_its_integer_ratio(kind, shape):
    met = set()  # closed-form kinds whose zero-payment edge case was drawn
    for seed in range(12):
        rng = random.Random(f"payer/{kind}/{shape}/{seed}")
        n, Q = rng.randint(2, 4), rng.randint(2, 3)
        efforts = [F(0) if rng.random() < 0.5 else F(rng.randint(1, 5), rng.randint(1, 4))]
        for _ in range(Q - 1):
            efforts.append(efforts[-1] + F(rng.randint(1, 5), rng.randint(1, 4)))
        game = make_game(n, Q, (1,) * n, efforts, _seeded_payment(rng, n, Q, kind, shape))
        pay = payer(game)
        by_profile = game.payment.profile_table is not None
        for profile in product(game.qualities(), repeat=n):
            key = profile if by_profile else load_of(profile, Q)
            for i, q in enumerate(profile, 1):
                got = pay(i, q, key)
                want = F(_defined_payment(game, i, profile)).as_integer_ratio()
                assert got == want and got[1] > 0, (seed, i, profile)
        occupied = [(q, v) for v in compositions(n, Q) for q in range(1, Q + 1) if v[q - 1]]
        if kind == "proportional" and efforts[0] == 0:  # everyone at quality 1
            met.add(kind)
            assert pay(None, 1, (n,) + (0,) * (Q - 1)) == (0, 1)
        if kind == "equal_sharing" and efforts[0] == 0:
            met.add(kind)
            assert all(pay(None, q, v) == (0, 1) for q, v in occupied if q == 1)
        if kind == "ktop" and game.payment.K < Q:  # qualities 1..Q-K are unpaid
            met.add(kind)
            assert all(pay(None, q, v) == (0, 1) for q, v in occupied
                       if q <= Q - game.payment.K)
        assert classify(game) == _reference_classes(game), seed
    assert met == {kind} & {"proportional", "equal_sharing", "ktop"}


@pytest.mark.parametrize("kind,shape", CLASS_CASES)
def test_utilities_is_every_players_utility(kind, shape):
    for seed in range(4):
        rng = random.Random(f"utilities/{kind}/{shape}/{seed}")
        n, Q = rng.randint(2, 4), rng.randint(2, 3)
        first = rng.randint(0, 1)  # voluntary or mandatory
        efforts = tuple(range(first, first + Q))
        skills = tuple(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n))
        game = make_game(n, Q, skills, efforts, _seeded_payment(rng, n, Q, kind, shape))
        for profile in product(game.qualities(), repeat=n):
            assert utilities(game, profile) == \
                [utility(game, profile, i) for i in game.players()], (kind, shape, seed)


@pytest.mark.parametrize("profile", [(1,), (1, 3), (0, 1), (1, 2.0)])
def test_utilities_checks_the_profile(prop_2x2, profile):
    with pytest.raises(GameValidationError):
        utilities(prop_2x2, profile)


def test_classify_a_payment_of_their_own_for_a_player_alone():
    game = alone_at_a_quality_game()
    assert _reference_classes(game) == (True, False)
    assert classify(game) == (True, False)


STRAY_FIELDS = {
    "K": 1,
    "matrix": ((F(1), F(1, 3)), (F(1), F(1, 3))),
    "matrices": (((F(1), F(1, 3)), (F(1), F(1, 3))),) * 2,
    "invariant_table": SHARED,
    "profile_table": {(i, p): F(1) for i in (1, 2) for p in product((1, 2), repeat=2)},
    "loads_table": LOADS_KINDS["player_specific"].loads_table,
}


@pytest.mark.parametrize("kind,field", [
    (kind, field) for kind in sorted(LOADS_KINDS) for field in sorted(STRAY_FIELDS)
    if getattr(LOADS_KINDS[kind], field) is None])
def test_every_kind_rejects_a_field_it_does_not_carry(kind, field):
    # evaluate_payment keys by profile whenever a profile table is present:
    # with a stray one, an oblivious matrix [[1, 1/3], ...] would pay the
    # load-1 entry 1 at (1, 1) where the load-2 entry 1/3 is due
    stray = replace(LOADS_KINDS[kind], **{field: STRAY_FIELDS[field]})
    with pytest.raises(GameValidationError):
        make_game(2, 2, (1, 1), (1, 2), stray)
