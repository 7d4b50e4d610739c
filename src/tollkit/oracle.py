"""Exhaustive ground truth on small instances.

Exact social-cost minimisation, pure Nash enumeration under perceived
(taxed) costs, the per-instance price of anarchy, and the smoothness
certificate that links a designed tax profile, a fractional relaxation
solution, and an efficiency factor ``rho``:

    sum_i sum_k y_{i,k} * [Cbar_i(a) - Cbar_i(a'_{i,k}, a_{-i})]
        >= SC(a) - rho * SC(a_opt)          for every profile a,

where ``Cbar`` is the perceived cost under the taxes. When the certificate
holds, every pure Nash equilibrium (where the left side is non-positive)
costs at most ``rho`` times the optimum, and the same bound extends in
expectation to any distribution over profiles: ``coarse_correlated_check``
checks it over the play of a learning run.

Every exhaustive pass is one sweep over the profile tensor of a
``CompiledGame``, whose axes are the players' strategy counts, in blocks
(``_Blocks``). A block fixes the choices of the leading players and spans
every choice of the trailing ones, the longest suffix of players with at
most ``BLOCK_PROFILES`` profiles (the last player always trails). A
block's flat C order is ``itertools.product`` order, the last player's
choice varying fastest, and blocks come in that order. Player ``i``'s cost
on moving to ``k`` at profile ``a`` is its played cost at ``(k, a_{-i})``:
a trailing player reads its deviation costs off its own axis of the block,
so each of its costs is priced once per profile of the others, not once
per profile. A sweep's memory is a block times a size of the game, never
the number of profiles: at most about ``32 * num_resources + 16 * R + 60``
bytes a profile of a block, ``R`` being the largest strategy count of a
leading player (1 with none), besides numpy's fixed iteration buffers.
``poa_and_smoothness`` sweeps once in that memory at every size: a
profile's margin ``(lhs(a) - SC(a)) + rho * SC(a_opt)`` is its excess
``lhs(a) - SC(a)`` plus one constant, so the blocks offer excesses and the
constant is added once the sweep has found ``SC(a_opt)``. Chosen
profiles, those of ``coarse_correlated_check``, are priced by
``CompiledGame.price_many``, and their left sides formed over its arrays.
Each block is reduced with first-occurrence ``argmin``/``argmax`` and later
ones must be strictly lower, so witnesses are the lexicographically first
ones, and every sum adds its terms in the scalar order, so every value is
bit-identical to a profile-by-profile loop.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from .errors import (GameValidationError, InvalidParams, KernelOverflow,
                     TooLarge, require_finite_nonnegative)
from .game import (Allocation, CompiledGame, GameInstance, TaxProfile,
                   ordered_sums, scratch_array)
from .relaxation import FractionalProfile, check_feasible

if TYPE_CHECKING:
    from .learning import RunTrace

DEFAULT_ENUMERATION_CAP = 10_000_000

# A deviation counts as improving only past this relative threshold; exact
# float comparisons would make equilibrium sets depend on rounding noise.
IMPROVEMENT_THRESHOLD = 1e-12

# Profiles in one block of an exhaustive sweep, at most, unless the last
# player alone has more strategies. A block costs a few numpy calls per
# player and strategy whatever its width, and its arrays take at most about
# 32 * num_resources + 16 * R + 60 bytes a profile (module docstring): 4.2
# MiB for 6 resources and R = 1.
BLOCK_PROFILES = 1 << 14


def _enumeration_size(instance: GameInstance, cap: int) -> int:
    size = math.prod(map(len, instance.strategies))
    if size > cap:
        raise TooLarge(size, cap)
    return size


def _load_table(game: CompiledGame, first: int) -> np.ndarray:
    """``(num_resources, m)`` rows ``r * (n + 1) + load_r`` over every
    choice of players ``first..``, in ``itertools.product`` order, the
    players before ``first`` choosing nothing. Players of one strategy add
    their resources to every row; the others add theirs as outer sums from
    the last player out, one ``add`` a player, in this thread's buffer for
    the role, alternating with the buffer of a block's loads so that no sum
    writes over its operand."""
    num_r = len(game.perceived)
    width = math.prod(game.radices[first:])
    buffers = scratch_array("block.loads", (2, num_r, width), np.intp)
    later = game._system_at
    fixed = [start for start, stop in game._spans[first:] if stop - start == 1]
    if fixed:
        later = later + game.incidence[:, fixed].sum(axis=1, keepdims=True)
    spans = [(start, stop) for start, stop in game._spans[first:] if stop - start > 1]
    for j, (start, stop) in enumerate(spans[::-1], start=1 - len(spans)):
        done = later.shape[1]
        grown = buffers[j % 2][:, :(stop - start) * done]
        np.add(game.incidence[:, start:stop, None], later[:, None],
               out=grown.reshape(num_r, stop - start, done))
        later = grown
    return later


def _mark_improving(played: np.ndarray, least: np.ndarray, bar: np.ndarray,
                    improving: np.ndarray, any_: np.ndarray) -> None:
    """Add to ``any_`` the profiles where the player's ``least`` cost lies
    below its improvement bar, ``played - IMPROVEMENT_THRESHOLD * max(1,
    |played|)``, formed in ``bar``."""
    np.abs(played, out=bar)
    np.maximum(bar, 1.0, out=bar)
    bar *= IMPROVEMENT_THRESHOLD
    np.subtract(played, bar, out=bar)
    np.less(least, bar, out=improving)
    np.logical_or(any_, improving, out=any_)


class _Player:
    """A trailing player's views of a block's buffers: its cost of each
    strategy, per profile of the others, as a ``(pre, radix, post)``
    tensor, which is its played cost along its own axis of the block, and
    the temporaries of its step. ``first`` marks player 0, whose part of
    the left side starts the sum."""

    def __init__(self, blocks: "_Blocks", shape: tuple[int, int, int],
                 strategies: tuple[tuple[int, ...], ...],
                 support: Optional[list[tuple[int, float]]], first: bool):
        pre, radix, post = shape
        one = (pre, 1, post)
        self.costs = blocks._costs[:pre * radix * post].reshape(shape)
        self.slices = [self.costs[:, k:k + 1] for k in range(radix)]
        perceived = blocks._perceived.reshape(len(blocks._perceived), *shape)
        self.sums = [(out, [perceived[r, :, k:k + 1] for r in strat])
                     for k, (out, strat) in enumerate(zip(self.slices, strategies))]
        self.least = blocks._least[:pre * post].reshape(one)
        self.bar = blocks._bar.reshape(shape)
        self.improving = blocks._improving.reshape(shape)
        self.any = blocks._any.reshape(shape)
        self.support = support
        if support:
            self.mixed = blocks._mixed[:pre * post].reshape(one)
            self.step = blocks._step[:pre * post].reshape(one)
            self.total = blocks.lhs.reshape(shape)
        self.first = first

    def price(self) -> None:
        """Mark the block's profiles where the player has an improving
        move in ``any`` and, given its support, add its part of the left
        side to ``total``."""
        for out, rows in self.sums:
            if len(rows) == 1:
                np.copyto(out, rows[0])
                continue
            np.add(rows[0], rows[1], out=out)
            for row in rows[2:]:
                out += row
        slices, least = self.slices, self.least
        np.fmin(slices[0], slices[1], out=least)
        for costs in slices[2:]:
            np.fmin(least, costs, out=least)
        _mark_improving(self.costs, least, self.bar, self.improving, self.any)
        if self.support:
            (k, w), *rest = self.support
            mixed = np.multiply(slices[k], w, out=self.mixed)
            for k, w in rest:
                mixed += np.multiply(slices[k], w, out=self.step)
            if self.first:
                np.subtract(self.costs, mixed, out=self.total)
            else:
                self.total += np.subtract(self.costs, mixed, out=self.bar)


class _Leading:
    """A leading player, whose choice ``a`` is fixed within a block. Its
    cost of moving to ``k`` sums, in strategy order, its resources' rows of
    the block's ``stack``: the perceived cost at the load where strategy
    ``a`` uses the resource, and one past it elsewhere, the others' load
    plus one. The strategies are summed position by position
    (``ordered_sums``), so a block costs a few numpy calls per resource
    position and per support weight, not per strategy."""

    def __init__(self, blocks: "_Blocks", span: tuple[int, int],
                 strategies: tuple[tuple[int, ...], ...],
                 support: Optional[list[tuple[int, float]]], first: bool):
        width, radix = blocks.width, len(strategies)
        order, positions = ordered_sums(strategies)
        self.stack = blocks._stack
        self.positions = [np.array(rows) for rows in positions]
        # Strategy k's costs are row row_of[k].
        self.row_of = np.argsort(order)
        self.incidence = blocks.game.incidence[:, span[0]:span[1]]
        self.num_r = len(blocks._perceived)
        self.costs = blocks._costs[:radix * width].reshape(radix, width)
        self.terms = blocks._terms[:radix * width].reshape(radix, width)
        self.least, self.bar = blocks._least, blocks._bar
        self.improving, self.any = blocks._improving, blocks._any
        self.support = support
        if support:
            self.support_rows = self.row_of[[k for k, _ in support]]
            self.weights = np.array([[w] for _, w in support])
            self.total = blocks.lhs
        self.first = first

    def choose(self, a: int) -> None:
        """Take choice ``a`` for the next block."""
        own = self.incidence[:, a] * self.num_r
        self.rows = [rows + own.take(rows) for rows in self.positions]
        self.played = self.costs[self.row_of[a]]

    def price(self) -> None:
        """As ``_Player.price``."""
        costs, terms = self.costs, self.terms
        first, *rest = self.rows
        self.stack.take(first, axis=0, out=costs, mode="clip")
        for rows in rest:
            costs[:len(rows)] += self.stack.take(rows, axis=0, out=terms[:len(rows)],
                                                  mode="clip")
        least = np.fmin.reduce(costs, axis=0, out=self.least)
        _mark_improving(self.played, least, self.bar, self.improving, self.any)
        if self.support:
            # The weighted costs, summed row after row.
            products = costs.take(self.support_rows, axis=0,
                                  out=terms[:len(self.support_rows)], mode="clip")
            products *= self.weights
            mixed, *rest = products
            for product in rest:
                mixed += product
            if self.first:
                np.subtract(self.played, mixed, out=self.total)
            else:
                self.total += np.subtract(self.played, mixed, out=self.bar)


class _Fixed:
    """A player of one strategy, which has no move: its played cost is the
    sum of its resources' perceived costs at the block's loads, and only
    the left side reads it."""

    def __init__(self, blocks: "_Blocks", strategy: tuple[int, ...],
                 support: Optional[list[tuple[int, float]]], first: bool):
        self.support = support
        if support:
            self.rows = [blocks._perceived[r] for r in strategy]
            self.played, self.mixed = blocks._bar, blocks._mixed
            self.weight = support[0][1]
            self.total = blocks.lhs
            self.first = first

    def price(self) -> None:
        """Add the player's part of the left side to ``total``."""
        if not self.support:
            return
        rows, played = self.rows, self.rows[0]
        if len(rows) > 1:
            played = np.add(rows[0], rows[1], out=self.played)
            for row in rows[2:]:
                played += row
        mixed = np.multiply(played, self.weight, out=self.mixed)
        if self.first:
            np.subtract(played, mixed, out=self.total)
        else:
            self.total += np.subtract(played, mixed, out=mixed)


class _Blocks:
    """Every profile of a compiled game, a block of the profile tensor at a
    time (see the module docstring). Iterating fills a block's loads and
    yields the index of its first profile; ``social`` and ``nash`` then
    price it. ``supports``, each player's nonzero weights ``(k, y_ik)`` of
    a ``FractionalProfile`` in strategy order, make ``nash`` also give the
    certificate's left side."""

    def __init__(self, game: CompiledGame,
                 supports: Optional[list[list[tuple[int, float]]]] = None):
        radices = game.radices
        num_r = len(game.perceived)
        # suffix[i]: the profiles of players i.. alone.
        suffix = list(itertools.accumulate(radices[::-1], operator.mul))[::-1]
        lead = len(radices) - 1
        while lead and suffix[lead - 1] <= BLOCK_PROFILES:
            lead -= 1
        self.game = game
        self.width = width = suffix[lead]
        self._lead = lead
        self.table = _load_table(game, lead)
        if lead:
            self.at = scratch_array("block.loads", (2, num_r, width), np.intp)[1]
        else:
            self.at = self.table
        # Social costs first, then the perceived cost one past each load,
        # which leading players read beside the perceived cost at it: the
        # stack's rows r and num_resources + r.
        costs = scratch_array("block.costs", (2, num_r, width), float)
        self._system = self._next = costs[0]
        self._perceived = costs[1]
        self._stack = costs.reshape(2 * num_r, width)
        # Per profile, and the players' temporaries, one player at a time.
        self._social, lhs, self._least, self._bar, self._mixed, self._step = (
            scratch_array("block.values", (6, width), float))
        self.lhs = None if supports is None else lhs
        self._any, self._improving = scratch_array("block.flags", (2, width), bool)
        self._costs, self._terms = scratch_array(
            "block.strategies", (2, max(radices[:lead], default=1) * width), float)
        self._players, self._leading = [], []
        for i, (radix, strategies) in enumerate(zip(radices, game.strategies)):
            support = supports and supports[i]
            if radix == 1:
                player = _Fixed(self, strategies[0], support, i == 0)
            elif i < lead:
                player = _Leading(self, game._spans[i], strategies, support, i == 0)
                self._leading.append((i, player))
            else:
                shape = (width // suffix[i], radix, suffix[i] // radix)
                player = _Player(self, shape, strategies, support, i == 0)
            self._players.append(player)

    def __iter__(self) -> Iterator[int]:
        game = self.game
        spans = game._spans[:self._lead]
        leading = itertools.product(*map(range, game.radices[:self._lead]))
        for block, choices in enumerate(leading):
            if choices:
                column = sum(game.incidence[:, start + a] for (start, _), a
                             in zip(spans, choices))
                np.add(self.table, column[:, None], out=self.at)
            for i, player in self._leading:
                player.choose(choices[i])
            yield block * self.width

    def social(self) -> np.ndarray:
        """``(width,)`` untaxed system cost of the block's profiles, summed
        over resources in index order. An unused resource adds an exact
        zero."""
        terms = self.game._system.take(self.at, out=self._system, mode="clip")
        total = self._social
        np.copyto(total, terms[0])
        for term in terms[1:]:
            total += term
        return total

    def nash(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``(width,)`` mask of the block's profiles where no strategy costs
        its player less than the improvement threshold below their played
        cost, and, given supports, ``(width,)`` certificate left sides

            lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(k, a_{-i})],

        weights in strategy order and players by index. The played strategy
        never lies below its own threshold, and NaN never counts as
        improving (``fmin``). Call ``social`` first, if at all."""
        flat = self.game.perceived.ravel()
        flat.take(self.at, out=self._perceived, mode="clip")
        if self._leading:
            flat[1:].take(self.at, out=self._next, mode="clip")
        self._any.fill(False)
        for player in self._players:
            player.price()
        return np.logical_not(self._any, out=self._any), self.lhs


@dataclass
class _Least:
    """The least value offered so far over the profiles of ``game`` and
    the number of the first profile, in sweep order, that has it:
    ``argmin`` takes a block's first minimum, and a later block must be
    strictly lower. The witness is built when it is read."""

    game: CompiledGame
    value: float = math.inf
    at: Optional[int] = None

    def offer(self, start: int, values: np.ndarray) -> None:
        """Profiles ``start, start + 1, ...`` with ``values``."""
        j = int(values.argmin())
        if values[j] < self.value:
            self.value = float(values[j])
            self.at = start + j

    @property
    def witness(self) -> Optional[Allocation]:
        return None if self.at is None else Allocation(self.game.choices(self.at))


def _min_social_cost(game: CompiledGame) -> tuple[Allocation, float]:
    least = _Least(game)
    blocks = _Blocks(game)
    for start in blocks:
        least.offer(start, blocks.social())
    return least.witness, least.value


def brute_force_min_sc(instance: GameInstance,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Allocation, float]:
    """Exact social-cost minimiser from one sweep of social costs; ties go
    to the first profile in lexicographic choice order."""
    _enumeration_size(instance, cap)
    return _min_social_cost(CompiledGame(instance))


def enumerate_pure_nash(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Allocation]:
    """All profiles with no strictly improving unilateral deviation under
    the perceived costs, from one sweep, in lexicographic choice order.
    Nonempty for every valid instance: the dynamics descend a potential, so
    a minimiser of it is always an equilibrium."""
    _enumeration_size(instance, cap)
    game = CompiledGame(instance, taxes)
    out = []
    blocks = _Blocks(game)
    for start in blocks:
        found = np.flatnonzero(blocks.nash()[0]) + start
        choices = np.unravel_index(found, game.radices)
        out.extend(map(Allocation, zip(*(c.tolist() for c in choices))))
    return out


@dataclass(frozen=True)
class PoaReport:
    """Exact per-instance price of anarchy with witnesses."""

    min_cost: float
    min_witness: Allocation
    worst_ne_cost: float
    worst_ne_witness: Allocation
    poa: float
    num_pure_ne: int
    enumerated_profiles: int

    def to_json(self) -> dict:
        return {**vars(self), "min_witness": list(self.min_witness.choices),
                "worst_ne_witness": list(self.worst_ne_witness.choices)}

    @classmethod
    def from_json(cls, data: dict) -> "PoaReport":
        return cls(
            min_cost=float(data["min_cost"]),
            min_witness=Allocation.of(data["min_witness"]),
            worst_ne_cost=float(data["worst_ne_cost"]),
            worst_ne_witness=Allocation.of(data["worst_ne_witness"]),
            poa=float(data["poa"]),
            num_pure_ne=int(data["num_pure_ne"]),
            enumerated_profiles=int(data["enumerated_profiles"]),
        )


def empirical_poa(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> PoaReport:
    """Worst equilibrium social cost over the exact minimum, from one sweep.

    Equilibria are detected under the perceived (taxed) costs but their
    social cost is always the untaxed system cost. Both witnesses are the
    first profile in lexicographic choice order that attains the value.
    """
    size = _enumeration_size(instance, cap)
    return _sweep(CompiledGame(instance, taxes), size)[0]


@dataclass(frozen=True)
class SmoothnessResult:
    passed: bool
    worst_margin: float
    witness: Allocation

    def to_json(self) -> dict:
        return {**vars(self), "witness": list(self.witness.choices)}

    @classmethod
    def from_json(cls, data: dict) -> "SmoothnessResult":
        return cls(passed=bool(data["passed"]),
                   worst_margin=float(data["worst_margin"]),
                   witness=Allocation.of(data["witness"]))


def _supports(profile: FractionalProfile) -> list[list[tuple[int, float]]]:
    """Each player's nonzero weights ``(k, y_ik)`` in strategy order."""
    return [[(k, w) for k, w in enumerate(row) if w] for row in profile.weights]


def _sweep(game: CompiledGame, size: int,
           supports: Optional[list[list[tuple[int, float]]]] = None,
           rho: float = 0.0, tol: float = 0.0
           ) -> tuple[PoaReport, Optional[SmoothnessResult]]:
    """One pass over every profile for the price of anarchy and, given
    ``supports`` (``_supports``), the smoothness certificate, whose margin
    ``(lhs(a) - SC(a)) + rho * SC(a_opt)`` must stay above
    ``-tol * max(1, SC(a))``. Each block offers its excesses ``lhs(a) -
    SC(a)``, whose least is the worst margin's, and its floors ``excess +
    tol * max(1, SC(a))``; ``rho * SC(a_opt)`` is added to both least
    values after the pass. Float addition of one constant is monotone, so
    the certificate passes exactly when every profile's ``floor + rho *
    SC(a_opt)`` is nonnegative."""
    least, worst_ne, excess, floor = (_Least(game) for _ in range(4))
    num_ne = 0
    blocks = _Blocks(game, supports)
    spare = scratch_array("sweep.values", (blocks.width,), float)
    for start in blocks:
        costs = blocks.social()
        least.offer(start, costs)
        nash, sides = blocks.nash()
        count = int(np.count_nonzero(nash))
        if count:
            num_ne += count
            # The worst equilibrium has the least negated cost.
            spare.fill(math.inf)
            np.negative(costs, out=spare, where=nash)
            worst_ne.offer(start, spare)
        if sides is not None:
            sides -= costs
            excess.offer(start, sides)
            np.maximum(costs, 1.0, out=spare)
            spare *= tol
            spare += sides
            floor.offer(start, spare)
    if worst_ne.at is None:
        raise GameValidationError("no pure equilibrium found; instance invalid")
    poa = PoaReport(
        min_cost=least.value, min_witness=least.witness,
        worst_ne_cost=-worst_ne.value, worst_ne_witness=worst_ne.witness,
        poa=-worst_ne.value / least.value, num_pure_ne=num_ne,
        enumerated_profiles=size)
    smoothness = None
    if supports is not None:
        bound = rho * least.value
        smoothness = SmoothnessResult(passed=floor.value + bound >= 0,
                                      worst_margin=excess.value + bound,
                                      witness=excess.witness)
    # Costs are finite (CompiledGame); their ratio and rho * SC(a_opt) need not be.
    if not math.isfinite(poa.poa) or smoothness and not math.isfinite(smoothness.worst_margin):
        raise KernelOverflow("the PoA or the smoothness margin leaves the double range")
    return poa, smoothness


def check_smoothness(instance: GameInstance, taxes: TaxProfile,
                     profile: FractionalProfile, rho: float,
                     cap: int = DEFAULT_ENUMERATION_CAP,
                     tol: float = 1e-7) -> SmoothnessResult:
    """Verify the smoothness certificate on every pure profile.

    The margin of a profile is the left side minus the right side of the
    certificate inequality; the check passes when every margin stays above
    ``-tol * max(1, SC(a))``. Returns the smallest margin and its witness,
    the first such profile in lexicographic choice order.
    """
    return poa_and_smoothness(instance, taxes, profile, rho, cap, tol)[1]


def poa_and_smoothness(instance: GameInstance, taxes: TaxProfile,
                       profile: FractionalProfile, rho: float,
                       cap: int = DEFAULT_ENUMERATION_CAP, tol: float = 1e-7
                       ) -> tuple[PoaReport, SmoothnessResult]:
    """``empirical_poa`` and ``check_smoothness`` from one compiled game and
    one sweep that prices each profile once, at every size: equilibria,
    ``SC(a_opt)`` and the certificate's excesses from the same priced
    costs, in block memory."""
    require_finite_nonnegative("rho", rho)
    require_finite_nonnegative("smoothness tol", tol)
    size = _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    return _sweep(CompiledGame(instance, taxes), size, _supports(profile), rho, tol)


@dataclass(frozen=True)
class CoarseCorrelatedReport:
    """Expectation form of the smoothness certificate on an empirical
    distribution of play."""

    passed: bool
    slack: float
    expected_sc: float
    expected_lhs: float
    rho_bound: float
    min_sc: float
    eps_regret: float

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, data: dict) -> "CoarseCorrelatedReport":
        # ``passed``, then floats.
        return cls(bool(data["passed"]), *(float(data[f.name]) for f in fields(cls)[1:]))


def _play(instance: GameInstance, trace: RunTrace) -> tuple[np.ndarray, np.ndarray]:
    """The trace's distinct profiles as a ``(players, distinct)`` array and
    how many rounds played each. Raises ``InvalidParams`` unless every
    profile is a valid choice for every player and the index numbers a
    distinct profile for each of ``rounds >= 1`` rounds."""
    n = instance.num_players
    distinct = trace.distinct_profiles
    if any(len(profile) != n for profile in distinct):
        raise InvalidParams(f"every trace profile must have {n} choices")
    visited = np.array(distinct).reshape(-1, n).T
    radices = np.array(list(map(len, instance.strategies)))[:, None]
    if visited.size and (visited.dtype.kind not in "iu"
                         or ((visited < 0) | (visited >= radices)).any()):
        raise InvalidParams("a trace profile has a choice not an integer in 0..s_i-1")
    index = np.array(trace.index)
    if trace.rounds < 1 or len(index) != trace.rounds:
        raise InvalidParams(f"the trace index must number the profile of each of "
                            f"rounds >= 1 rounds, got {len(index)} for {trace.rounds}")
    if index.dtype.kind not in "iu" or index.min() < 0 or index.max() >= len(distinct):
        raise InvalidParams(f"the trace index must hold integers in 0..{len(distinct) - 1}")
    return visited.astype(np.intp), np.bincount(index, minlength=len(distinct))


def coarse_correlated_check(instance: GameInstance, taxes: TaxProfile,
                            profile: FractionalProfile, rho: float,
                            trace: RunTrace, slack_factor: float = 0.05,
                            cap: int = DEFAULT_ENUMERATION_CAP) -> CoarseCorrelatedReport:
    """Plug the empirical distribution of a run into the certificate.

    Averages both sides of the smoothness inequality over the visited
    profiles: the check passes when

        E[lhs] >= E[SC] - rho * SC(a_opt) - slack_factor * SC(a_opt).

    ``eps_regret`` reports the summed positive average regrets, which upper
    bound ``E[lhs]`` for the trace's own distribution; as regret decays the
    certificate therefore pins ``E[SC]`` below ``rho * SC(a_opt)`` plus a
    vanishing term. The trace's profiles and index are validated
    (``_play``) and the profiles re-priced: no cost stored in the trace is
    read.
    """
    require_finite_nonnegative("rho", rho)
    require_finite_nonnegative("slack_factor", slack_factor)
    _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    visited, counts = _play(instance, trace)
    game = CompiledGame(instance, taxes)
    min_cost = _min_social_cost(game)[1]
    starts = game.offsets.tolist()
    # Each player's weights (column of its strategy in ``costs``, y_ik) in
    # strategy order.
    supports = [[(start + k, w) for k, w in row]
                for start, row in zip(starts, _supports(profile))]
    social, costs = game.price_many(visited)
    rows = np.arange(len(social))
    # lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(k, a_{-i})],
    # weights in strategy order and players by index.
    nets = []
    for start, played, ((alt, w), *rest) in zip(starts, visited, supports):
        mixed = costs[:, alt] * w
        for alt, w in rest:
            mixed += costs[:, alt] * w
        nets.append(costs[rows, start + played] - mixed)
    sides = sum(nets[1:], nets[0])
    expected_sc = expected_lhs = 0.0
    weights = (counts / trace.rounds).tolist()
    for weight, sc, side in zip(weights, social.tolist(), sides.tolist()):
        expected_sc += weight * sc
        expected_lhs += weight * side

    rho_bound = rho * min_cost
    slack = expected_lhs - (expected_sc - rho_bound)
    eps_regret = sum(max(0.0, r) for r in trace.average_regrets)
    return CoarseCorrelatedReport(
        passed=slack >= -slack_factor * min_cost, slack=slack,
        expected_sc=expected_sc, expected_lhs=expected_lhs,
        rho_bound=rho_bound, min_sc=min_cost, eps_regret=eps_regret)
