"""Exact oracle for the benchmark, written from the model's definitions.

Utility is payment minus cost, with the payment of every kind read off
its definition: proportional allocation f_{q_i} / sum_k f_{q_k} (0 when
every effort is 0), equal sharing and K-Top c * f_q / load_q with c the
inverse of the largest payout sum, oblivious tables by (own quality, own
load), player-invariant tables by (own quality, load vector), and
player-specific tables by (player, profile) or (player, own quality,
load vector).  Cost is s_i * f_q or the cost table entry.

Nothing here calls the library's utility, is_pne, evaluate_payment or
payment_on_loads; only the game's data fields are read.  Every check of
the benchmark is decided by these functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

ZERO = Fraction(0)


def loads_of(profile, Q):
    counts = [0] * Q
    for q in profile:
        counts[q - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=64)
def load_vectors(n, Q):
    """Every load vector of n players over Q qualities, in colex order.

    Colex order compares the last coordinate first: (n, 0, 0) comes
    before (n-1, 1, 0), which comes before (n-1, 0, 1).
    """
    vectors = [v for v in product(range(n + 1), repeat=Q) if sum(v) == n]
    return tuple(sorted(vectors, key=lambda v: v[::-1]))


def colex_rank(loads):
    """0-based position of `loads` in colex order (see load_vectors)."""
    return load_vectors(sum(loads), len(loads)).index(tuple(loads))


@lru_cache(maxsize=64)
def _normalizer(efforts, n, eligible):
    """Inverse of the largest payout sum over all load vectors."""
    best = max(sum((efforts[q - 1] for q in eligible if v[q - 1] > 0), ZERO)
               for v in load_vectors(n, len(efforts)))
    return 1 / best


def payment(game, profile, i):
    """Payment to player i (1-indexed) under `profile`, from the definitions."""
    pf = game.payment
    kind = pf.kind.value
    q = profile[i - 1]
    f = game.efforts
    if kind == "proportional":
        total = sum((f[p - 1] for p in profile), ZERO)
        return ZERO if total == 0 else f[q - 1] / total
    loads = loads_of(profile, game.Q)
    if kind == "equal_sharing":
        c = _normalizer(f, game.n, tuple(range(1, game.Q + 1)))
        return c * f[q - 1] / loads[q - 1]
    if kind == "ktop":
        top = tuple(range(game.Q - pf.K + 1, game.Q + 1))
        if q not in top:
            return ZERO
        return _normalizer(f, game.n, top) * f[q - 1] / loads[q - 1]
    if kind == "oblivious":
        matrix = pf.matrix if pf.matrix is not None else pf.matrices[i - 1]
        return matrix[q - 1][loads[q - 1] - 1]
    if kind == "player_invariant":
        return pf.invariant_table[(q, loads)]
    if kind == "player_specific":
        if pf.profile_table is not None:
            return pf.profile_table[(i, tuple(profile))]
        return pf.loads_table[(i, q, loads)]
    raise ValueError(f"unknown payment kind {kind!r}")


def cost(game, i, q):
    if game.cost.kind == "product":
        return game.skills[i - 1] * game.efforts[q - 1]
    return game.cost.table[i - 1][q - 1]


def utility(game, profile, i):
    return payment(game, profile, i) - cost(game, i, profile[i - 1])


def moved(profile, i, q):
    return profile[: i - 1] + (q,) + profile[i:]


def gain(game, profile, i, q):
    """Utility change of player i switching to quality q."""
    return utility(game, moved(profile, i, q), i) - utility(game, profile, i)


def is_pne(game, profile):
    profile = tuple(profile)
    return all(gain(game, profile, i, q) <= 0
               for i in range(1, game.n + 1)
               for q in range(1, game.Q + 1) if q != profile[i - 1])


def improves(game, a, b):
    """b differs from a in exactly one player, who strictly gains by it."""
    diff = [i for i in range(1, game.n + 1) if a[i - 1] != b[i - 1]]
    return len(diff) == 1 and gain(game, tuple(a), diff[0], b[diff[0] - 1]) > 0


class ProfileScan:
    """Every profile's utilities, computed once; the Q^n ground truth."""

    def __init__(self, game):
        self.game = game
        self.profiles = list(product(range(1, game.Q + 1), repeat=game.n))
        self.util = {p: tuple(utility(game, p, i) for i in range(1, game.n + 1))
                     for p in self.profiles}

    def improving_moves(self, profile):
        here = self.util[profile]
        return [(i, q) for i in range(1, self.game.n + 1)
                for q in range(1, self.game.Q + 1)
                if q != profile[i - 1]
                and self.util[moved(profile, i, q)][i - 1] > here[i - 1]]

    def equilibria(self):
        """Every PNE, in lexicographic profile order."""
        return [p for p in self.profiles if not self.improving_moves(p)]

    def edge_count(self):
        return sum(len(self.improving_moves(p)) for p in self.profiles)

    def acyclic(self):
        """Kahn's algorithm on the improvement graph over profiles."""
        succ = {p: [moved(p, i, q) for i, q in self.improving_moves(p)]
                for p in self.profiles}
        indeg = dict.fromkeys(self.profiles, 0)
        for outs in succ.values():
            for t in outs:
                indeg[t] += 1
        ready = [p for p, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            p = ready.pop()
            seen += 1
            for t in succ[p]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        return seen == len(self.profiles)


def block_profile(game, loads):
    """The contiguous profile of a load vector: players in non-increasing
    skill order (ties by index) fill quality 1 first, then 2, and so on."""
    order = sorted(range(1, game.n + 1), key=lambda i: (-game.skills[i - 1], i))
    choice = [0] * game.n
    qualities = [q for q in range(1, game.Q + 1) for _ in range(loads[q - 1])]
    for i, q in zip(order, qualities):
        choice[i - 1] = q
    return tuple(choice)


def is_contiguous(game, profile):
    """Higher skill never sits at a strictly higher quality."""
    return all(not (game.skills[i] > game.skills[k] and profile[i] > profile[k])
               for i in range(game.n) for k in range(game.n))


def first_contiguous_pne(game):
    """First load vector in colex order whose block profile is a PNE."""
    for loads in load_vectors(game.n, game.Q):
        if is_pne(game, block_profile(game, loads)):
            return loads
    return None


def anonymous_moves(game):
    """Improving moves between load vectors of an anonymous game.

    Maps each load vector to the (from, to) quality pairs along which
    one player strictly gains; players are interchangeable, so the
    block profile stands for every profile with these loads.
    """
    moves = {}
    for loads in load_vectors(game.n, game.Q):
        profile = block_profile(game, loads)
        pairs = []
        for a in range(1, game.Q + 1):
            if loads[a - 1] == 0:
                continue
            i = profile.index(a) + 1
            pairs += [(a, b) for b in range(1, game.Q + 1)
                      if b != a and gain(game, profile, i, b) > 0]
        moves[loads] = pairs
    return moves


def fip_sinks(n, Q, voluntary):
    """The equilibrium load vectors the FIP theorem names."""
    all_low = (n,) + (0,) * (Q - 1)
    if not voluntary:
        return [all_low]
    return sorted([all_low, (n - 1, 1) + (0,) * (Q - 2)])


def _shift(loads, down, up):
    out = list(loads)
    out[down - 1] -= 1
    out[up - 1] += 1
    return tuple(out)


def concavity_violation(game):
    """First violated three-discrete-concavity inequality, or None.

    For every load vector L, player i (all players share one payment
    when it is player-invariant), occupied qualities a != b, and every
    quality c outside {a, b}:
      swap:     p(b, L - e_a + e_b) + p(a, L - e_b + e_a) <= p(a, L) + p(b, L)
      exchange: p(c, L - e_b + e_c) + p(c, L - e_a + e_c) <= 2 p(a, L)
    where p is player i's payment as a function of own quality and
    loads.  Returns (player or None, L, a, b, c) with c == b for a swap.
    """
    specific = game.payment.kind.value == "player_specific"
    players = range(1, game.n + 1) if specific else [None]

    def p(i, q, loads):
        if specific:
            return game.payment.loads_table[(i, q, loads)]
        profile = block_profile(game, loads)
        return payment(game, profile, profile.index(q) + 1)

    for loads in load_vectors(game.n, game.Q):
        occupied = [q for q in range(1, game.Q + 1) if loads[q - 1] > 0]
        for i in players:
            for a in occupied:
                for b in occupied:
                    if a == b:
                        continue
                    if (p(i, b, _shift(loads, a, b)) + p(i, a, _shift(loads, b, a))
                            > p(i, a, loads) + p(i, b, loads)):
                        return (i, loads, a, b, b)
                    for c in range(1, game.Q + 1):
                        if c in (a, b):
                            continue
                        if (p(i, c, _shift(loads, b, c)) + p(i, c, _shift(loads, a, c))
                                > 2 * p(i, a, loads)):
                            return (i, loads, a, b, c)
    return None



def classify(game):
    """(oblivious, player_invariant) of the payment, over every profile.

    Oblivious: each player's payment is a function of her own quality
    and its load.  Player-invariant: one function of (own quality, load
    vector) gives every player's payment.
    """
    own, shared = {}, {}
    oblivious = invariant = True
    for profile in product(range(1, game.Q + 1), repeat=game.n):
        loads = loads_of(profile, game.Q)
        for i in range(1, game.n + 1):
            q = profile[i - 1]
            pay = payment(game, profile, i)
            oblivious &= own.setdefault((i, q, loads[q - 1]), pay) == pay
            invariant &= shared.setdefault((q, loads), pay) == pay
    return oblivious, invariant
