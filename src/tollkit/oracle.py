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

Every pass is one numpy sweep over a ``CompiledGame``. Profiles are
numbered in ``itertools.product`` order (the last player's choice varies
fastest), or given as an array of choices, and priced ``CHUNK_PROFILES``
at a time, so a sweep's memory is a chunk times a size of the game, never
the number of profiles: its largest arrays have ``CHUNK_PROFILES`` columns
and a row per resource and player, or per strategy-resource pair. A chunk costs about the same number of numpy
calls at any width, so on mid-size games the width sets how many such
calls a sweep makes; 1024 was the fastest width on 8-player games of 3^8
profiles. The one exception is ``poa_and_smoothness`` on a game of at most
``STORED_PROFILES`` profiles: to price each profile once, it keeps every
profile's social cost and certificate left side, and forms the margins
once the sweep has found ``SC(a_opt)``. That is 25 bytes a profile, at most
25 MiB; a larger game is swept twice, ``SC(a_opt)`` first, in chunk memory.
Each chunk is reduced with first-occurrence
``argmin``/``argmax`` and chunks are compared strictly, so witnesses are
the lexicographically first ones, and every sum adds its terms in the
scalar order, so every value is bit-identical to a profile-by-profile loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

import numpy as np

from .errors import (GameValidationError, KernelOverflow, TooLarge,
                     require_finite_nonnegative)
from .game import (Allocation, CompiledGame, GameInstance, ProfileBatch,
                   TaxProfile, ordered_sums, scratch_array)
from .relaxation import FractionalProfile, check_feasible

if TYPE_CHECKING:
    from .learning import RunTrace

DEFAULT_ENUMERATION_CAP = 10_000_000

# A deviation counts as improving only past this relative threshold; exact
# float comparisons would make equilibrium sets depend on rounding noise.
IMPROVEMENT_THRESHOLD = 1e-12

# Profiles priced per sweep step. A chunk's arrays are this many columns by
# at most (resources x players) rows, and a ProfileBatch keeps them for the
# whole sweep: the largest, the incidence gather, is resources x players x
# 1024 intp, 384 KiB for 6 resources and 8 players. A sweep costs ~40 numpy
# calls per chunk whatever its width; at 3^8 profiles 1024 took 19-24% less
# time than 256, while 2048 and one chunk of all 6561 profiles took more.
CHUNK_PROFILES = 1024

# Games of at most this many profiles get their smoothness margins from the
# one sweep that finds SC(a_opt): it keeps each profile's social cost and
# certificate left side (16 bytes), and the margin step adds 9 bytes a
# profile of temporaries. Larger games are swept twice, SC(a_opt) first.
STORED_PROFILES = 1 << 20

# A certificate's left side on a batch, from its strategy and played costs.
_Lhs = Callable[[ProfileBatch, np.ndarray, np.ndarray], np.ndarray]


def _enumeration_size(instance: GameInstance, cap: int) -> int:
    size = math.prod(map(len, instance.strategies))
    if size > cap:
        raise TooLarge(size, cap)
    return size


def _profile_chunks(game: CompiledGame, profiles: Union[int, np.ndarray]
                    ) -> Iterator[ProfileBatch]:
    """Profiles ``0..profiles-1`` in ``itertools.product`` order, or the
    columns of a ``(num_players, m)`` array of choices, ``CHUNK_PROFILES``
    at a time with their loads priced. Every chunk but a shorter last one
    comes in the same batch, refilled: price it before taking the next."""
    chosen = isinstance(profiles, np.ndarray)
    size = profiles.shape[1] if chosen else profiles
    batch = None
    for start in range(0, size, CHUNK_PROFILES):
        width = min(CHUNK_PROFILES, size - start)
        if batch is None or batch.width != width:
            batch = game.batch(width)
        if chosen:
            batch.choose(profiles[:, start:start + width])
        else:
            batch.enumerate(start)
        batch.price_loads()
        yield batch


@dataclass
class _Least:
    """The least value offered so far and the first profile, in sweep
    order, that has it: ``argmin`` takes a chunk's first minimum, and a
    later chunk must be strictly lower."""

    value: float = math.inf
    witness: Optional[Allocation] = None

    def offer(self, batch: ProfileBatch, values: np.ndarray) -> None:
        j = int(values.argmin())
        if values[j] < self.value:
            self.value = float(values[j])
            self.witness = Allocation(
                tuple((batch.rows[:, j] - batch.game.offsets).tolist()))


class _Margins:
    """The smoothness margins ``lhs(a) - (SC(a) - bound)`` of enumerated
    profiles, offered in sweep order: the least one and the first profile
    that has it, and whether every margin stayed above
    ``-tol * max(1, SC(a))``."""

    def __init__(self, game: CompiledGame, tol: float):
        self.game = game
        self.tol = tol
        self.worst = _Least()
        self.passed = True

    def offer(self, start: int, costs: np.ndarray, sides: np.ndarray,
              bound: float) -> None:
        """Profiles ``start, start + 1, ...`` given their social costs and
        left sides, which become their margins."""
        excess = scratch_array("smooth.excess", costs.shape, float)
        np.subtract(costs, bound, out=excess)
        sides -= excess
        j = int(sides.argmin())
        if sides[j] < self.worst.value:
            self.worst = _Least(float(sides[j]),
                                Allocation(self.game.choices(start + j)))
        if self.passed:
            # -tol * max(1, SC(a)), in the excess's array
            floor = np.maximum(costs, 1.0, out=excess)
            floor *= -self.tol
            below = scratch_array("smooth.below", costs.shape, bool)
            self.passed = not np.less(sides, floor, out=below).any()


def _min_social_cost(game: CompiledGame, size: int) -> tuple[Allocation, float]:
    least = _Least()
    for batch in _profile_chunks(game, size):
        least.offer(batch, batch.price_social())
    return least.witness, least.value


def brute_force_min_sc(instance: GameInstance,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Allocation, float]:
    """Exact social-cost minimiser from one sweep of social costs; ties go
    to the first profile in lexicographic choice order."""
    size = _enumeration_size(instance, cap)
    return _min_social_cost(CompiledGame(instance), size)


def _nash(batch: ProfileBatch, costs: np.ndarray, played: np.ndarray) -> np.ndarray:
    """``(width,)`` mask of the profiles where no strategy costs its player
    less than the improvement threshold below their current cost, given
    the batch's ``price_strategies`` and ``price_played``. The current
    strategy never lies below its own threshold, and NaN never counts as
    improving."""
    n = len(played)
    strategies = len(costs)
    # played - IMPROVEMENT_THRESHOLD * max(1, |played|)
    threshold = batch.scratch("nash.threshold", n)
    np.abs(played, out=threshold)
    np.maximum(threshold, 1.0, out=threshold)
    threshold *= IMPROVEMENT_THRESHOLD
    np.subtract(played, threshold, out=threshold)
    bar = threshold.take(batch.game.owners, axis=0, mode="clip",
                         out=batch.scratch("nash.bar", strategies))
    improving = np.less(costs, bar, out=batch.scratch("nash.improving", strategies, bool))
    nash = batch.scratch("nash.mask", 1, bool)[0]
    np.logical_or.reduce(improving, axis=0, out=nash)
    return np.logical_not(nash, out=nash)


def enumerate_pure_nash(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Allocation]:
    """All profiles with no strictly improving unilateral deviation under
    the perceived costs, from one sweep, in lexicographic choice order.
    Nonempty for every valid instance: the dynamics descend a potential, so
    a minimiser of it is always an equilibrium."""
    size = _enumeration_size(instance, cap)
    game = CompiledGame(instance, taxes)
    out = []
    for batch in _profile_chunks(game, size):
        nash = _nash(batch, batch.price_strategies(), batch.price_played())
        choices = (batch.rows[:, nash] - game.offsets[:, None]).T.tolist()
        out.extend(Allocation(tuple(c)) for c in choices)
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


def certificate_lhs(game: CompiledGame, profile: FractionalProfile) -> _Lhs:
    """The certificate's left side on a batch, given the batch, its
    ``price_strategies`` and its ``price_played``:

        lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(a'_{i,k}, a_{-i})].

    Only strategies with nonzero weight in ``profile`` are priced, in weight
    order, and players are summed by index.
    """
    n = len(game.radices)
    supports = [[(int(game.offsets[i]) + a, w) for a, w in enumerate(row) if w]
                for i, row in enumerate(profile.weights)]
    order, positions = ordered_sums(supports)
    steps = [(len(entries), np.array([alt for alt, _ in entries]),
              np.array([[w] for _, w in entries])) for entries in positions]
    # Player i's weighted sum is row position[i] of the sums in ``order``.
    position = np.argsort(order)

    def lhs(batch: ProfileBatch, costs: np.ndarray, played: np.ndarray) -> np.ndarray:
        _, first, weight = steps[0]
        mixed = costs.take(first, axis=0, mode="clip",
                           out=batch.scratch("lhs.mixed", n))
        mixed *= weight
        product = batch.scratch("lhs.product", n)
        for count, alts, weight in steps[1:]:
            step = costs.take(alts, axis=0, out=product[:count], mode="clip")
            step *= weight
            mixed[:count] += step
        net = mixed.take(position, axis=0, out=batch.scratch("lhs.net", n),
                         mode="clip")
        np.subtract(played, net, out=net)
        total = batch.scratch("lhs.total", 1)[0]
        np.copyto(total, net[0])
        for row in net[1:]:
            total += row
        return total

    return lhs


def _sweep(game: CompiledGame, size: int, lhs: Optional[_Lhs] = None,
           rho: float = 0.0, tol: float = 0.0
           ) -> tuple[PoaReport, Optional[SmoothnessResult]]:
    """One pass over every profile for the price of anarchy and, given
    ``lhs`` (a ``certificate_lhs``), the smoothness certificate, whose
    margin ``lhs(a) - (SC(a) - rho * SC(a_opt))`` must stay above
    ``-tol * max(1, SC(a))``. Both read one ``price_strategies`` and
    ``price_played`` a chunk. Up to ``STORED_PROFILES`` profiles the
    margins are formed after the pass, from the kept ``SC(a)`` and
    ``lhs(a)``: a game of one chunk keeps them in the chunk's own arrays.
    A larger game first takes ``SC(a_opt)`` from a sweep of social costs
    and forms its margins chunk by chunk."""
    least, worst_ne = _Least(), _Least()
    num_ne = 0
    margins = None if lhs is None else _Margins(game, tol)
    one_pass = size <= STORED_PROFILES
    store = None
    if margins is not None and not one_pass:
        bound = rho * _min_social_cost(game, size)[1]
    elif margins is not None and size > CHUNK_PROFILES:
        store = (scratch_array("smooth.social", (size,), float),
                 scratch_array("smooth.lhs", (size,), float))
    start = 0
    for batch in _profile_chunks(game, size):
        costs = batch.price_social()
        least.offer(batch, costs)
        strategies = batch.price_strategies()
        played = batch.price_played()
        nash = _nash(batch, strategies, played)
        count = int(np.count_nonzero(nash))
        if count:
            num_ne += count
            # The worst equilibrium has the least negated cost.
            negated = batch.scratch("poa.ne_costs", 1)[0]
            negated.fill(math.inf)
            np.negative(costs, out=negated, where=nash)
            worst_ne.offer(batch, negated)
        if margins is not None:
            sides = lhs(batch, strategies, played)
            stop = start + batch.width
            if not one_pass:
                margins.offer(start, costs, sides, bound)
            elif store is not None:
                store[0][start:stop] = costs
                store[1][start:stop] = sides
            start = stop
    if worst_ne.witness is None:
        raise GameValidationError("no pure equilibrium found; instance invalid")
    poa = PoaReport(
        min_cost=least.value, min_witness=least.witness,
        worst_ne_cost=-worst_ne.value, worst_ne_witness=worst_ne.witness,
        poa=-worst_ne.value / least.value, num_pure_ne=num_ne,
        enumerated_profiles=size)
    smoothness = None
    if margins is not None:
        if one_pass:
            margins.offer(0, *(store or (costs, sides)), rho * least.value)
        smoothness = SmoothnessResult(passed=margins.passed,
                                      worst_margin=margins.worst.value,
                                      witness=margins.worst.witness)
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
    one sweep that prices each profile once: equilibria, ``SC(a_opt)`` and
    the certificate's left sides from the same priced strategies, then the
    margins. Past ``STORED_PROFILES`` profiles a sweep of social costs for
    ``SC(a_opt)`` comes first."""
    require_finite_nonnegative("rho", rho)
    require_finite_nonnegative("smoothness tol", tol)
    size = _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    game = CompiledGame(instance, taxes)
    return _sweep(game, size, certificate_lhs(game, profile), rho, tol)


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
    vanishing term.
    """
    size = _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    game = CompiledGame(instance, taxes)
    lhs = certificate_lhs(game, profile)
    min_cost = _min_social_cost(game, size)[1]
    distribution = trace.empirical_distribution
    visited = np.array(list(distribution), dtype=np.intp).reshape(
        -1, instance.num_players).T
    weights = list(distribution.values())
    expected_sc = expected_lhs = 0.0
    start = 0
    for batch in _profile_chunks(game, visited):
        costs = batch.price_social().tolist()
        sides = lhs(batch, batch.price_strategies(), batch.price_played()).tolist()
        for weight, sc, side in zip(weights[start:start + batch.width], costs, sides):
            expected_sc += weight * sc
            expected_lhs += weight * side
        start += batch.width

    rho_bound = rho * min_cost
    slack = expected_lhs - (expected_sc - rho_bound)
    eps_regret = sum(max(0.0, r) for r in trace.average_regrets)
    return CoarseCorrelatedReport(
        passed=slack >= -slack_factor * min_cost, slack=slack,
        expected_sc=expected_sc, expected_lhs=expected_lhs,
        rho_bound=rho_bound, min_sc=min_cost, eps_regret=eps_regret)
