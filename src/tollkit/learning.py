"""Learning dynamics: best-response descent and multiplicative weights.

Best-response dynamics walks the potential downhill to a pure equilibrium.
Multiplicative-weights play is the no-regret route: players sample from
private weight vectors, observe the perceived cost of each own strategy
against the realised play of the others (full-information feedback), and
exponentiate. The trace keeps everything needed to compute external regret
afterwards, the cheapest profile encountered, and the play itself as the
distinct profiles visited, in first-visit order, plus each round's number
among them. That index gives the empirical distribution over visited
profiles, which approximates a coarse correlated equilibrium as regret
decays; ``oracle.coarse_correlated_check`` checks the smoothness
certificate in expectation over it. Trace files are written from the index
too: each distinct profile is serialised once.

A run plays its rounds in speculative windows: it guesses a block of
rounds' profiles, plays them in numpy, and keeps the rounds up to the first
guessed wrong. Every weight, sum and pick equals the round-by-round loop's
to the last bit, so the window length changes speed only, never a trace.
A window finds its guessed profiles' numbers in numpy: by code, the
profile's number in product order modulo 2^64, among the priced profiles'
sorted codes, checked against the choices stored at the number found. Only
new profiles, and ones whose code another profile holds, are looked up by
tuple. Where windows would play too few rounds to pay, rounds are stepped
one at a time instead (``_Pace``).

Runs of one game share their pricing. Each thread keeps its last run's
compiled game and memo of priced profiles (``_LastRun``). A run on the
same ``instance`` and ``taxes`` objects reuses the game, and at the same
per-player rates also the memo, so the seeds of one ``learn`` call price
each profile once between them. A profile's prices do not depend on
which run priced it, so this changes speed only, never a trace. Trace
files of one round count share their per-round line heads (``_heads``).

Randomness comes from numpy's counter-based Philox generator keyed by the
seed, so identical inputs reproduce traces bit-exactly within one build.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidParams, KernelOverflow, NotConverged, TooLarge
from .game import Allocation, CompiledGame, GameInstance, TaxProfile, seeded_rng
from .oracle import (DEFAULT_ENUMERATION_CAP, IMPROVEMENT_THRESHOLD,
                     brute_force_min_sc)


def best_response_dynamics(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                           seed: int = 0, max_steps: int = 100_000,
                           start: Optional[Allocation] = None) -> tuple[Allocation, int]:
    """Round-robin best-improvement descent to a pure Nash equilibrium.

    Each player in turn moves to the strategy that most reduces their
    perceived cost (ties to the lowest index), if the reduction beats the
    relative improvement threshold. Every accepted move strictly lowers the
    potential, so the walk terminates; ``max_steps`` bounds accepted moves
    and overrunning it raises ``NotConverged`` with the move trace attached.
    Returns the equilibrium and the number of accepted moves (0 when the
    start already is one).
    """
    if max_steps < 1:
        raise InvalidParams(f"max_steps must be >= 1, got {max_steps}")
    game = CompiledGame(instance, taxes)
    n = instance.num_players
    if start is None:
        rng = seeded_rng(seed)
        choices = [int(rng.integers(instance.num_strategies(i))) for i in range(n)]
    else:
        instance.validate_allocation(start)
        choices = list(start.choices)

    # The profile is priced once at the start and once per accepted move;
    # an inspection that moves nobody reads the current profile's costs.
    _, costs = game.price(choices)
    steps = 0
    trace = []
    quiet = 0  # players inspected since the last accepted move
    player = 0
    while quiet < n:
        k = choices[player]
        own = costs[player]
        current = own[k]
        threshold = current - IMPROVEMENT_THRESHOLD * max(1.0, abs(current))
        best_alt, best_cost = None, threshold
        for alt, cost in enumerate(own):
            if alt != k and cost < best_cost:
                best_alt, best_cost = alt, cost
        if best_alt is None:
            quiet += 1
        else:
            if steps >= max_steps:
                raise NotConverged(
                    f"no equilibrium within {max_steps} moves", trace=trace)
            trace.append((player, k, best_alt))
            choices[player] = best_alt
            steps += 1
            quiet = 0
            _, costs = game.price(choices)
        player = (player + 1) % n
    return Allocation(tuple(choices)), steps


@dataclass(frozen=True)
class RunTrace:
    """Everything a multiplicative-weights run produced.

    The play is kept as the distinct profiles the run visited, in
    first-visit order, with their untaxed social costs, and one number a
    round: ``index[t]`` is round ``t``'s profile in ``distinct_profiles``.
    ``profiles``, ``social_costs`` and ``empirical_distribution`` are
    derived from them; the distribution's keys are in first-visit order.

    ``strategy_costs_total[i][k]`` accumulates what player ``i`` would have
    paid by playing ``k`` in every round against the realised play of the
    others; external regret is the gap between the incurred total and the
    best fixed strategy in hindsight, all measured on perceived costs.
    """

    seed: int
    rounds: int
    eta: tuple[float, ...]
    distinct_profiles: tuple[tuple[int, ...], ...]
    distinct_social_costs: tuple[float, ...]
    index: tuple[int, ...]
    incurred_total: tuple[float, ...]
    strategy_costs_total: tuple[tuple[float, ...], ...]
    best_profile: Allocation
    best_sc: float

    @property
    def profiles(self) -> tuple[tuple[int, ...], ...]:
        """Each round's profile."""
        return tuple(map(self.distinct_profiles.__getitem__, self.index))

    @property
    def social_costs(self) -> tuple[float, ...]:
        """Each round's untaxed social cost."""
        return tuple(map(self.distinct_social_costs.__getitem__, self.index))

    @property
    def regrets(self) -> tuple[float, ...]:
        return tuple(inc - min(alts) for inc, alts
                     in zip(self.incurred_total, self.strategy_costs_total))

    @property
    def average_regrets(self) -> tuple[float, ...]:
        return tuple(r / self.rounds for r in self.regrets)

    @property
    def empirical_distribution(self) -> dict[tuple[int, ...], float]:
        counts = np.bincount(self.index, minlength=len(self.distinct_profiles))
        return {profile: c / self.rounds
                for profile, c in zip(self.distinct_profiles, counts.tolist())}

    def save_jsonl(self, path) -> None:
        """One round per line plus a summary footer.

        A round's line differs from another's with the same profile only in
        ``"t"``, so each distinct profile's rest of the line is serialised
        once, and a round's line is its ``{"t": <t>`` head (``_heads``,
        shared by every trace of that many rounds) and its profile's rest,
        read through the index. Heads and rests are interleaved in one list
        and joined once.
        """
        tails = [f', "profile": {json.dumps(list(profile))}, "sc": {json.dumps(sc)}}}\n'
                 for profile, sc in zip(self.distinct_profiles, self.distinct_social_costs)]
        parts = [""] * (2 * len(self.index))
        parts[0::2] = _heads(len(self.index))
        parts[1::2] = map(tails.__getitem__, self.index)
        with open(path, "w") as fh:
            fh.write("".join(parts))
            fh.write(json.dumps({
                "seed": self.seed, "rounds": self.rounds, "eta": list(self.eta),
                "regrets": list(self.regrets),
                "average_regrets": list(self.average_regrets),
                "best_profile": list(self.best_profile.choices),
                "best_sc": self.best_sc,
            }))
            fh.write("\n")


@functools.lru_cache(maxsize=1)
def _heads(rounds: int) -> list[str]:
    """Each round's ``{"t": <t>`` line head, for a trace of ``rounds``
    rounds. The seeds of one ``learn`` call share a round count, so the
    last list built is kept: ``rounds`` short strings, about 60 bytes a
    round."""
    return [f'{{"t": {t}' for t in range(rounds)]


# Rounds whose uniforms are drawn at once, whose cost rows are summed at
# once after the run, and that one window of rounds spans at most.
ROUND_BLOCK = 1024

# Doubles in one window's (widest, players, rounds) arrays, at most.
WINDOW_ENTRIES = 1 << 15
# The window a run tries first, and the shortest it tries after a miss.
FIRST_WINDOW = 16
# A window costs about as much as stepping this many rounds one at a time.
WINDOW_COST = 16
# Windows end where weights renormalise; renormalising more often than
# every this many rounds, they hardly pay.
RENORM_SPACING = 2 * WINDOW_COST

# A player's weights are divided by the largest once that falls below this,
# so later products stay representable.
RENORMALISE = 1e-150
UNDERFLOW = "weights underflowed to zero; eta too aggressive"


def _totals_in_round_order(rows: list[list[float]], order: np.ndarray) -> list[float]:
    """Column totals of ``rows[j]`` over ``j`` in ``order``.

    Each column is summed from 0.0 one round at a time, exactly as a
    running ``total += cost`` in the round loop would sum it:
    ``np.add.accumulate`` is defined to add one row after another, where a
    reduction such as ``np.sum`` may pair terms and round differently.
    Totals past the double range raise ``KernelOverflow``.
    """
    rows = np.array(rows)
    totals = np.zeros(rows.shape[1])
    with np.errstate(over="ignore"):  # raised below as KernelOverflow
        for start in range(0, len(order), ROUND_BLOCK):
            block = rows[order[start:start + ROUND_BLOCK]]
            block[0] += totals
            totals = np.add.accumulate(block)[-1]
    if not np.isfinite(totals).all():
        raise KernelOverflow("the perceived costs summed over the rounds leave the double range")
    return totals.tolist()


def _renormalised(row: list[float]) -> list[float]:
    """``row`` divided by its largest weight once that falls below
    ``RENORMALISE``."""
    top = max(row)
    if top == 0.0:
        raise InvalidParams(UNDERFLOW)
    if top < RENORMALISE:
        return [w / top for w in row]
    return row


class _PricedProfiles:
    """Every profile the runs sharing it have priced, numbered in order of
    pricing.

    A profile's costs and update factors depend on the profile and the
    rates alone, so each is priced once per memo, however many runs of one
    game at one set of rates share it (``_LastRun``), with the other new
    profiles of its call (``CompiledGame.price_many``). Per profile it
    keeps the choices, the untaxed social cost, the flat row of every
    player's own-strategy costs followed by the played costs (``rows``,
    summed over the rounds by ``_totals_in_round_order``), and every
    player's update factors ``exp(-rate * cost)``, as lists for the round
    loop and, for windows, as column ``j`` of ``factors()``. Windows price
    profiles they only guessed, so it holds profiles never played too.

    Windows find profiles through a numpy index (``numbers``): each
    profile's code, ``sum_i choices[i] * multipliers[i]`` in wrapping
    ``uint64`` arithmetic, which is unique below 2^64 profiles; the codes
    sorted beside their numbers; and the choices as a ``(players,
    profiles)`` array. Profiles priced since the index was last brought up
    to date wait in ``_fresh`` as the arrays ``ids`` priced them from, and
    join the index at the next window's lookup.
    """

    def __init__(self, game: CompiledGame, rates: list[float]):
        radices = game.radices
        self.game = game
        self.index = {}
        self.profiles = []
        self.social = []
        self.rows = []
        self.factor_lists = []
        self._flat_factors = []
        bounds = list(accumulate(radices, initial=0))
        self._starts = bounds[:-1]
        self._spans = list(zip(bounds, bounds[1:]))
        self._rates = [rates[i] for i, s in enumerate(radices) for _ in range(s)]
        # Where each strategy's factor goes in a padded column.
        self._padded_at = (np.array([a for s in radices for a in range(s)]),
                           np.array([i for i, s in enumerate(radices) for _ in range(s)]))
        self._factors = np.ones((max(radices), len(radices), 0))
        self._filled = 0
        # A profile's code is its number in product order modulo 2^64.
        multipliers, step = [], 1
        for s in reversed(radices):
            multipliers.append(step)
            step = step * s % 2 ** 64
        self._multipliers = np.array(multipliers[::-1], dtype=np.uint64)
        self._fresh = []  # choice arrays priced since the index was built
        # Every priced profile's choices are stored, so in the smallest type
        # that holds every strategy index.
        self._choices = np.empty((len(radices), 0),
                                 dtype=np.min_scalar_type(max(radices)))
        self._codes = np.empty(0, dtype=np.uint64)  # sorted
        self._numbers = np.empty(0, dtype=np.intp)  # each code's profile

    def ids(self, profiles: list[tuple[int, ...]]) -> list[int]:
        """The numbers of ``profiles``, pricing the new ones in one
        ``price_many`` call."""
        index = self.index
        new = [p for p in profiles if p not in index]
        if new:
            new = list(dict.fromkeys(new))
            choices = np.array(new).T
            social, costs = self.game.price_many(choices)
            for profile, sc, flat in zip(new, social.tolist(), costs.tolist()):
                self._add(profile, sc, flat)
            self._fresh.append(choices)
        return [index[p] for p in profiles]

    def numbers(self, profiles: np.ndarray) -> np.ndarray:
        """The numbers of the columns of ``profiles`` (``(players, m)``).

        Each column's code is found among the sorted codes, and its number
        kept where the stored choices at that number equal the column's.
        The other columns, new profiles or ones whose code another profile
        holds, take the tuple path (``ids``)."""
        if self._fresh:
            self._index_fresh()
        codes = self._multipliers @ profiles.view(np.uint64)
        found = self._numbers.take(self._codes.searchsorted(codes), mode="clip")
        miss = (self._choices.take(found, axis=1) != profiles).any(axis=0)
        if miss.any():
            found[miss] = self.ids(list(map(tuple, profiles[:, miss].T.tolist())))
        return found

    def _index_fresh(self) -> None:
        """Add the profiles priced since the last call to the stored
        choices and the sorted codes.

        The new codes are ordered in Python and merged in by
        ``searchsorted``, with no numpy sort: the first in a process faults
        in a few hundred KB of code pages that nothing else in a run
        touches."""
        fresh = np.concatenate(self._fresh, axis=1)
        self._fresh.clear()
        start = len(self._codes)
        count = start + fresh.shape[1]
        if self._choices.shape[1] < count:
            grown = np.empty((len(fresh), 2 * count), dtype=self._choices.dtype)
            grown[:, :start] = self._choices[:, :start]
            self._choices = grown
        self._choices[:, start:count] = fresh
        codes = self._multipliers @ fresh.view(np.uint64)
        ranked = np.array(sorted(range(len(codes)), key=codes.tolist().__getitem__))
        codes = codes[ranked]
        new_at = self._codes.searchsorted(codes, side="right") + np.arange(len(codes))
        old_at = np.ones(count, dtype=bool)
        old_at[new_at] = False
        merged = np.empty(count, dtype=np.uint64)
        merged[new_at] = codes
        merged[old_at] = self._codes
        numbers = np.empty(count, dtype=np.intp)
        numbers[new_at] = ranked + start
        numbers[old_at] = self._numbers
        self._codes, self._numbers = merged, numbers

    def _add(self, profile: tuple[int, ...], social: float, costs: list[float]) -> None:
        self.index[profile] = len(self.profiles)
        self.profiles.append(profile)
        self.social.append(social)
        self.rows.append(costs + [costs[s + k] for s, k in zip(self._starts, profile)])
        factors = [math.exp(-rate * c) for rate, c in zip(self._rates, costs)]
        self.factor_lists.append([factors[a:b] for a, b in self._spans])
        self._flat_factors.append(factors)

    def factors(self) -> np.ndarray:
        """Every priced profile's factors as a ``(widest, players,
        profiles)`` array padded with 1.0; it grows by doubling."""
        count = len(self.profiles)
        if self._filled < count:
            if self._factors.shape[2] < count:
                grown = np.ones(self._factors.shape[:2] + (2 * count,))
                grown[:, :, :self._filled] = self._factors[:, :, :self._filled]
                self._factors = grown
            at = self._padded_at + (slice(self._filled, count),)
            self._factors[at] = np.array(self._flat_factors[self._filled:count]).T
            self._filled = count
        return self._factors


def _step_rounds(weights: np.ndarray, draws: np.ndarray, memo: _PricedProfiles,
                 order: np.ndarray) -> tuple[np.ndarray, int]:
    """Play the rounds of ``draws`` (``(players, rounds)``) one at a time
    from the ``(widest, players)`` padded ``weights``, writing each round's
    profile number to ``order``; returns the weights after them and the
    number of rounds that renormalised them.

    A player picks the first strategy whose running weight sum exceeds
    ``u`` times the full sum, the last entry of that running sum, or the
    last strategy if none does."""
    radices = memo.game.radices
    rows = [row[:s] for row, s in zip(weights.T.tolist(), radices)]
    index = memo.index
    factor_lists = memo.factor_lists
    mul = operator.mul
    renormalised = 0
    played = []
    for us in draws.T.tolist():
        choices = []
        for row, u in zip(rows, us):
            sums = list(accumulate(row))
            choices.append(bisect_right(sums, u * sums.pop()))
        choices = tuple(choices)
        j = index.get(choices)
        if j is None:
            j = memo.ids([choices])[0]
        played.append(j)
        rows = [list(map(mul, row, factors))
                for row, factors in zip(rows, factor_lists[j])]
        for top in map(max, rows):
            if top < RENORMALISE:
                rows = [_renormalised(row) for row in rows]
                renormalised += 1
                break
    order[:] = played
    padded = np.zeros_like(weights)
    for i, row in enumerate(rows):
        padded[:len(row), i] = row
    return padded, renormalised


class _Windows:
    """Blocks of rounds played at once in numpy, speculatively.

    Given the exact weights before a window's first round, it guesses every
    round's profile, multiplies the guessed profiles' factors up along the
    rounds (``np.multiply.accumulate``), and from each round's weights
    takes the exact picks from running sums along the strategies. The
    rounds up to the first whose exact profile differs from the guess are
    played: each one's weights come from rounds guessed right only. A
    window also ends at the first round whose weights need renormalising.
    Both running products and sums fold one element after another, so
    every weight, sum and pick equals the round loop's.

    Arrays are ``(widest, players, rounds)``: the folds then run along
    contiguous rows or across whole planes, where numpy's per-row loops
    over a short strategy axis would cost more than the arithmetic.
    """

    def __init__(self, memo: _PricedProfiles):
        radices = memo.game.radices
        self.memo = memo
        self._shape = (max(radices), len(radices))
        self._plane = math.prod(self._shape)
        self.longest = min(ROUND_BLOCK, max(1, WINDOW_ENTRIES // self._plane))
        self._lasts = np.array(radices)[:, None] - 1
        self._path = np.empty(self._plane * (self.longest + 1))
        self._sums = np.empty(self._plane * self.longest)

    def picks(self, sums: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Each player's pick in each round from the running weight sums
        ``(widest, players, rounds)`` and the uniforms ``(players,
        rounds)``: the first strategy whose running sum exceeds ``u`` times
        the last one."""
        cut = draws * sums[-1]
        return np.minimum((sums[:-1] <= cut).sum(axis=0), self._lasts)

    def play(self, weights: np.ndarray, draws: np.ndarray, ahead: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Play at least the first round of ``draws``, guessing the profiles
        ``ahead`` (``(players, rounds)``) for the first rounds and from
        ``weights`` for the rest. Returns the played rounds' profile
        numbers, the weights after them, the picks known for the rounds
        after them (the next window's guesses: the exact picks computed
        for rounds not played, then the rest of ``ahead``), and whether
        the weights were renormalised.

        The guesses' profile numbers come from the memo's numpy index
        (``_PricedProfiles.numbers``): one matrix-vector product gives their
        codes, one ``searchsorted`` their numbers, and one comparison with
        the choices stored at those numbers confirms them. Only rounds that
        fail it, new profiles or ones whose code another holds, are looked
        up by tuple."""
        memo = self.memo
        size = draws.shape[1]
        known = min(ahead.shape[1], size)
        if known == size:
            guess = ahead[:, :size]
        else:
            guess = self.picks(np.add.accumulate(weights)[:, :, None], draws)
            guess[:, :known] = ahead[:, :known]
        ids = memo.numbers(guess)

        path = self._path[:self._plane * (size + 1)].reshape(self._shape + (size + 1,))
        path[:, :, 0] = weights
        memo.factors().take(ids, axis=2, out=path[:, :, 1:])
        np.multiply.accumulate(path, axis=2, out=path)
        sums = self._sums[:self._plane * size].reshape(self._shape + (size,))
        sums[0] = path[0, :, :size]
        for k in range(1, len(sums)):
            np.add(sums[k - 1], path[k, :, :size], out=sums[k])
        exact = self.picks(sums, draws)

        # The last round played: the first miss, or the last before weights
        # that need renormalising. No factor exceeds 1, so a player's largest
        # weight never grows and the window's last weights tell whether any
        # need it.
        stop = (exact != guess).any(axis=0)
        if path[:, :, size].max(axis=0).min() < RENORMALISE:
            stop |= path[:, :, 1:].max(axis=0).min(axis=0) < RENORMALISE
        last = int(stop.argmax())
        if not stop[last]:
            last = size - 1
        played = ids[:last + 1]
        pick = exact[:, last].tolist()
        if pick != guess[:, last].tolist():
            pick = tuple(pick)
            j = memo.index.get(pick)
            played[last] = memo.ids([pick])[0] if j is None else j
            after = path[:, :, last] * memo.factors()[:, :, played[last]]
        else:
            after = path[:, :, last + 1].copy()
        tops = after.max(axis=0)
        renormalised = tops.min() < RENORMALISE
        if renormalised:
            if tops.min() == 0.0:
                raise InvalidParams(UNDERFLOW)
            low = tops < RENORMALISE
            after[:, low] /= tops[low]
        ahead = (exact[:, last + 1:] if ahead.shape[1] <= size else
                 np.concatenate((exact[:, last + 1:], ahead[:, size:]), axis=1))
        return played, after, ahead, renormalised


class _Pace:
    """When a run tries a window and when it steps rounds one at a time.

    Windows pay where they play many rounds each. They play few where
    weights renormalise often, since a window ends there, or where even a
    retry's guesses miss early. A run then steps a stretch of rounds one at
    a time, twice as long as the last, before it tries a window again; a
    stretch whose weights renormalised more often than every
    ``RENORM_SPACING`` rounds is followed by another straight away. A run
    starts with a stretch, which tells whether that is so. A window that
    plays at least ``WINDOW_COST`` rounds ends the backoff. A window spans
    twice as many rounds as the last after playing all of them, and twice
    the rounds it played otherwise.
    """

    def __init__(self, longest: int):
        self.longest = longest
        self.size = min(FIRST_WINDOW, longest)  # rounds the next window spans
        self.stretch = self.stepped = FIRST_WINDOW  # the stretch, rounds left in it
        self.renormalised = 0  # rounds of the stretch that renormalised
        self.short = 0  # windows in a row that played under WINDOW_COST rounds

    def stepped_rounds(self, count: int, renormalised: int) -> None:
        self.stepped -= count
        self.renormalised += renormalised
        if not self.stepped and RENORM_SPACING * self.renormalised > self.stretch:
            self._back_off()

    def window(self, spanned: int, played: int, known: int, renormalised: bool) -> None:
        if played == spanned:
            self.size = min(2 * self.size, self.longest)
        else:
            self.size = min(max(2 * played, FIRST_WINDOW, known), self.longest)
        if renormalised and played < RENORM_SPACING:
            self._back_off()
        elif played >= WINDOW_COST:
            self.short = self.stretch = 0
        else:
            # A first try guesses from stale weights and may miss early; a
            # retry guesses the first try's exact picks.
            self.short += 1
            if self.short == 2:
                self._back_off()

    def _back_off(self) -> None:
        self.stretch = self.stepped = max(FIRST_WINDOW, 2 * self.stretch)
        self.renormalised = self.short = 0


class _LastRun(NamedTuple):
    """What a thread's last multiplicative-weights run built, for the next
    run on the same ``instance`` and ``taxes`` objects (matched by
    identity; the entry keeps them alive) and, for the memo, the same
    per-player rates ``eta_i / K_i``. Window buffers are not kept: a run's
    windows are a few numpy allocations, and keeping them past the run
    raised the process's peak memory."""

    instance: GameInstance
    taxes: Optional[TaxProfile]
    game: CompiledGame
    scale: list[float]  # K_i per player
    rates: list[float]
    memo: _PricedProfiles


# Per thread, the last run's entry, or none while a run is in progress and
# after one raised.
_last_run = threading.local()


def multiplicative_weights_run(instance: GameInstance, taxes: TaxProfile,
                               rounds: int, eta: float | str = "auto",
                               seed: int = 0) -> RunTrace:
    """Simultaneous multiplicative-weights play for ``rounds`` rounds.

    Per round every player samples a strategy from their weights
    (independently, in player order, from the seeded generator), then
    observes the perceived cost of each own strategy against the others'
    realised play and updates ``w_{i,k} *= exp(-eta_i * cost / K_i)``, where
    ``K_i`` bounds any perceived cost player ``i`` can face. ``eta="auto"``
    sets the classic ``sqrt(8 ln s_i / rounds)`` rate per player. ``rounds``
    must be an integer >= 1 and ``eta`` a number or ``"auto"``, else
    ``InvalidParams`` is raised. The losses must lie in ``[0, K_i]`` with
    ``K_i > 0``: a negative perceived cost, or a player whose ``K_i`` is 0,
    raises ``InvalidParams``; cost totals over the rounds past the double
    range raise ``KernelOverflow``.

    A player picks the first strategy whose running weight sum exceeds
    ``u`` times the sum's last entry. Taking the total from the running sum,
    not from ``sum``, which compensates its additions from Python 3.12 on,
    keeps picks the same on every Python version.

    A profile's costs and update factors depend on the profile and the
    rates alone, so each distinct profile is priced once, and later
    visits, in this run or a later one sharing its memo, reuse the result
    (``_PricedProfiles``). Rounds are played in windows (``_Windows``) of
    up to ``ROUND_BLOCK`` rounds and ``WINDOW_ENTRIES`` doubles: a window
    guesses its rounds' profiles, prices the new ones together, and plays
    in numpy the rounds up to the first one guessed wrong, with the
    weights, sums and picks of the round-by-round loop to the last bit. A
    window also ends where weights must be renormalised. The memo
    therefore also holds profiles that were guessed and never played; only
    played ones reach ``distinct_profiles``. It grows with the distinct
    profiles guessed or played by the runs sharing it (typically a few
    dozen), not with the game's profile count. Where weights renormalise
    every few rounds (a high ``eta``) or guesses keep missing, windows play
    too few rounds to pay; the run then steps rounds one at a time in
    stretches that double, so its worst case costs about what the
    round-by-round loop costs (``_Pace``).

    After a run returns, its thread keeps the compiled game and the memo,
    with strong references to ``instance`` and ``taxes``, until the
    thread's next run. That run reuses the game if it is handed the same
    two objects (by identity; equal copies compile their own), and the
    memo too if its rates ``eta_i / K_i`` are equal, so later seeds price
    only profiles no earlier seed priced. A run that raises keeps nothing.
    Threads share nothing, so concurrent runs need no coordination.
    """
    last = getattr(_last_run, "entry", None)
    _last_run.entry = None  # kept again only if this run returns
    try:
        rounds = operator.index(rounds)
    except TypeError:
        raise InvalidParams(f"rounds must be an integer, got {rounds!r}") from None
    if rounds < 1:
        raise InvalidParams(f"rounds must be >= 1, got {rounds}")
    n = instance.num_players
    if last is not None and last.instance is instance and last.taxes is taxes:
        game, scale = last.game, last.scale
    else:
        last = None
        game = CompiledGame(instance, taxes)
        # A player faces perceived costs at loads 1..N only. K_i is the
        # largest a strategy can carry: every resource at the all-player load.
        reachable = game.perceived[:, 1:]
        if (reachable < 0).any():
            raise InvalidParams(
                f"perceived costs at loads 1..{n} must be >= 0, "
                f"got {reachable.min()}")
        full = game.perceived[:, n].tolist()
        scale = [max(sum(full[r] for r in strat) for strat in strats)
                 for strats in instance.strategies]
        if 0.0 in scale:
            raise InvalidParams(f"player {scale.index(0.0)}: every strategy "
                                "costs 0 at the all-player load")
    if eta == "auto":
        etas = [math.sqrt(8.0 * math.log(instance.num_strategies(i)) / rounds)
                for i in range(n)]
    else:
        try:
            etas = [float(eta)] * n
        except (TypeError, ValueError):
            raise InvalidParams(f"eta must be 'auto' or a number, got {eta!r}") from None
    if any(not math.isfinite(e) or e < 0 for e in etas):
        raise InvalidParams(f"eta must be finite and >= 0, got {eta}")

    rng = seeded_rng(seed)
    rates = [e / s for e, s in zip(etas, scale)]
    if last is not None and last.rates == rates:
        memo = last.memo
    else:
        memo = _PricedProfiles(game, rates)
    windows = _Windows(memo)
    weights = np.zeros((max(game.radices), n))
    for i, s in enumerate(game.radices):
        weights[:s, i] = 1.0
    order = np.empty(rounds, dtype=np.intp)  # per round, its profile's number in memo
    pace = _Pace(windows.longest)
    for start in range(0, rounds, ROUND_BLOCK):
        block = rng.random((min(ROUND_BLOCK, rounds - start), n)).T
        t, ahead = 0, block[:, :0]
        while t < block.shape[1]:
            if pace.stepped:
                stop = min(t + pace.stepped, block.shape[1])
                weights, renormalised = _step_rounds(
                    weights, block[:, t:stop], memo, order[start + t:start + stop])
                pace.stepped_rounds(stop - t, renormalised)
                t, ahead = stop, block[:, :0]
                continue
            draws = block[:, t:t + pace.size]
            played, weights, ahead, renormalised = windows.play(weights, draws, ahead)
            order[start + t:start + t + len(played)] = played
            t += len(played)
            pace.window(draws.shape[1], len(played), ahead.shape[1], renormalised)

    # Memo numbers in first-visit order, and each round's place among them:
    # the rounds that visit a number first, picked in round order. The first
    # strict minimum over the rounds is the first distinct profile with the
    # least cost; a trace shares its profiles and costs with the memo. (No
    # np.unique: numpy's first sort faults in a few hundred KB of code pages
    # that nothing else in a run touches.)
    totals = iter(_totals_in_round_order(memo.rows, order))
    first = np.full(len(memo.profiles), rounds)  # each number's first round
    np.minimum.at(first, order, np.arange(rounds))
    visits = np.zeros(rounds, dtype=bool)
    visits[first[first < rounds]] = True
    visited = order[visits]
    place = np.empty(len(memo.profiles), dtype=np.intp)
    place[visited] = np.arange(len(visited))
    visited = visited.tolist()
    distinct = tuple([memo.profiles[j] for j in visited])
    costs = tuple([memo.social[j] for j in visited])
    best_sc = min(costs)
    alt_totals = tuple(tuple(islice(totals, instance.num_strategies(i)))
                       for i in range(n))
    _last_run.entry = _LastRun(instance, taxes, game, scale, rates, memo)
    return RunTrace(
        seed=seed, rounds=rounds, eta=tuple(etas),
        distinct_profiles=distinct, distinct_social_costs=costs,
        index=tuple(place[order].tolist()),
        incurred_total=tuple(totals),
        strategy_costs_total=alt_totals,
        best_profile=Allocation(distinct[costs.index(best_sc)]),
        best_sc=best_sc)


def best_profile_approximation(instance: GameInstance, taxes: Optional[TaxProfile],
                               trace: RunTrace, cap: int = DEFAULT_ENUMERATION_CAP
                               ) -> tuple[Allocation, Optional[float]]:
    """Cheapest visited profile and its ratio to the exact minimum.

    The ratio is omitted (None) when the instance is too large to
    enumerate.
    """
    if not trace.index:
        raise InvalidParams("empty trace")
    best = trace.best_profile
    try:
        _, min_cost = brute_force_min_sc(instance, cap)
    except TooLarge:
        return best, None
    return best, trace.best_sc / min_cost
