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
expectation to any distribution over profiles.

Every pass is one numpy sweep over a ``CompiledGame``. Profiles are
numbered in ``itertools.product`` order (the last player's choice varies
fastest) and priced ``CHUNK_PROFILES`` at a time, so memory is a chunk
times a size of the game, never the number of profiles. Each chunk is
reduced with first-occurrence ``argmin``/``argmax`` and chunks are compared
strictly, so witnesses are the lexicographically first ones, and every sum
adds its terms in the scalar order, so every value is bit-identical to a
profile-by-profile loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import GameValidationError, TooLarge, require_finite_nonnegative
from .game import Allocation, CompiledGame, GameInstance, ProfileBatch, TaxProfile
from .relaxation import FractionalProfile, check_feasible

DEFAULT_ENUMERATION_CAP = 10_000_000

# A deviation counts as improving only past this relative threshold; exact
# float comparisons would make equilibrium sets depend on rounding noise.
IMPROVEMENT_THRESHOLD = 1e-12

# Profiles priced per sweep step. A chunk's arrays are this many columns by
# at most (resources x players) rows, and a ProfileBatch keeps them for the
# whole sweep.
CHUNK_PROFILES = 256


def _enumeration_size(instance: GameInstance, cap: int) -> int:
    size = 1
    for i in range(instance.num_players):
        size *= instance.num_strategies(i)
        if size > cap:
            raise TooLarge(size, cap)
    return size


def _profile_chunks(game: CompiledGame, size: int) -> Iterator[ProfileBatch]:
    """Profiles ``0..size-1`` in ``itertools.product`` order,
    ``CHUNK_PROFILES`` at a time. Every chunk but a shorter last one comes
    in the same batch, refilled: price it before taking the next."""
    batch = None
    for start in range(0, size, CHUNK_PROFILES):
        width = min(CHUNK_PROFILES, size - start)
        if batch is None or batch.width != width:
            batch = game.batch(width)
        batch.enumerate(start)
        yield batch


def _allocation(batch: ProfileBatch, column: int) -> Allocation:
    return Allocation(tuple((batch.rows[:, column] - batch.game.offsets).tolist()))


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
            self.witness = _allocation(batch, j)


def _min_social_cost(game: CompiledGame, size: int) -> tuple[Allocation, float]:
    least = _Least()
    for batch in _profile_chunks(game, size):
        batch.price_loads()
        least.offer(batch, batch.price_social())
    return least.witness, least.value


def brute_force_min_sc(instance: GameInstance,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Allocation, float]:
    """Exact social-cost minimiser from one sweep of social costs; ties go
    to the first profile in lexicographic choice order."""
    size = _enumeration_size(instance, cap)
    return _min_social_cost(CompiledGame(instance), size)


def _nash(batch: ProfileBatch, costs: np.ndarray) -> np.ndarray:
    """``(width,)`` mask of the profiles where no strategy costs its player
    less than the improvement threshold below their current cost. The
    current strategy never lies below its own threshold, and NaN never
    counts as improving."""
    n, width = batch.rows.shape
    strategies = len(costs)
    at = batch.scratch("nash.at", n, np.intp)
    np.multiply(batch.rows, width, out=at)
    at += batch.columns
    current = costs.take(at, out=batch.scratch("nash.current", n), mode="clip")
    # current - IMPROVEMENT_THRESHOLD * max(1, |current|)
    threshold = batch.scratch("nash.threshold", n)
    np.abs(current, out=threshold)
    np.maximum(threshold, 1.0, out=threshold)
    threshold *= IMPROVEMENT_THRESHOLD
    np.subtract(current, threshold, out=threshold)
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
        batch.price_loads()
        nash = _nash(batch, batch.price_strategies())
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
        return {
            "min_cost": self.min_cost,
            "min_witness": list(self.min_witness.choices),
            "worst_ne_cost": self.worst_ne_cost,
            "worst_ne_witness": list(self.worst_ne_witness.choices),
            "poa": self.poa,
            "num_pure_ne": self.num_pure_ne,
            "enumerated_profiles": self.enumerated_profiles,
        }

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
        return {"passed": self.passed, "worst_margin": self.worst_margin,
                "witness": list(self.witness.choices)}

    @classmethod
    def from_json(cls, data: dict) -> "SmoothnessResult":
        return cls(passed=bool(data["passed"]),
                   worst_margin=float(data["worst_margin"]),
                   witness=Allocation.of(data["witness"]))


def certificate_lhs(game: CompiledGame, profile: FractionalProfile
                    ) -> Callable[[ProfileBatch, np.ndarray], np.ndarray]:
    """The certificate's left side on a batch, given the batch and its
    ``price_strategies``:

        lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(a'_{i,k}, a_{-i})].

    Only strategies with nonzero weight in ``profile`` are priced, in weight
    order, and players are summed by index.
    """
    n = len(game.radices)
    supports = [[(int(game.offsets[i]) + a, w) for a, w in enumerate(row) if w]
                for i, row in enumerate(profile.weights)]
    # Players with the most support entries first, so the players with a
    # q-th entry are a prefix of this order.
    order = sorted(range(n), key=lambda i: -len(supports[i]))
    steps = []
    for q in range(len(supports[order[0]])):
        players = [i for i in order if len(supports[i]) > q]
        steps.append((len(players),
                      np.array([supports[i][q][0] for i in players]),
                      np.array([[supports[i][q][1]] for i in players])))
    position = [order.index(i) for i in range(n)]
    order = np.array(order)

    def lhs(batch: ProfileBatch, costs: np.ndarray) -> np.ndarray:
        at = batch.rows.take(order, axis=0, mode="clip",
                             out=batch.scratch("lhs.at", n, np.intp))
        at *= batch.width
        at += batch.columns
        net = costs.take(at, out=batch.scratch("lhs.net", n), mode="clip")
        count, first, weight = steps[0]
        mixed = costs.take(first, axis=0, mode="clip",
                           out=batch.scratch("lhs.mixed", n)[:count])
        mixed *= weight
        product = batch.scratch("lhs.product", n)
        for count, alts, weight in steps[1:]:
            step = costs.take(alts, axis=0, out=product[:count], mode="clip")
            step *= weight
            mixed[:count] += step
        net -= mixed
        total = batch.scratch("lhs.total", 1)[0]
        np.copyto(total, net[position[0]])
        for p in position[1:]:
            total += net[p]
        return total

    return lhs


def _sweep(game: CompiledGame, size: int,
           lhs: Optional[Callable[[ProfileBatch, np.ndarray], np.ndarray]] = None,
           bound: float = 0.0, tol: float = 0.0
           ) -> tuple[PoaReport, Optional[SmoothnessResult]]:
    """One pass over every profile for the price of anarchy and, given
    ``lhs`` (a ``certificate_lhs``), the smoothness certificate, whose
    margin ``lhs(a) - (SC(a) - bound)`` must stay above
    ``-tol * max(1, SC(a))``. Both read one ``price_strategies`` a chunk."""
    least, worst_ne, worst_margin = _Least(), _Least(), _Least()
    num_ne = 0
    passed = True
    for batch in _profile_chunks(game, size):
        batch.price_loads()
        costs = batch.price_social()
        least.offer(batch, costs)
        strategies = batch.price_strategies()
        nash = _nash(batch, strategies)
        count = int(np.count_nonzero(nash))
        if count:
            num_ne += count
            # The worst equilibrium has the least negated cost.
            negated = batch.scratch("poa.ne_costs", 1)[0]
            negated.fill(math.inf)
            np.negative(costs, out=negated, where=nash)
            worst_ne.offer(batch, negated)
        if lhs is not None:
            margin = lhs(batch, strategies)
            excess = batch.scratch("smooth.excess", 1)[0]
            np.subtract(costs, bound, out=excess)
            margin -= excess
            worst_margin.offer(batch, margin)
            if passed:
                # -tol * max(1, SC(a))
                floor = batch.scratch("smooth.floor", 1)[0]
                np.maximum(costs, 1.0, out=floor)
                floor *= -tol
                below = batch.scratch("smooth.below", 1, bool)[0]
                passed = not np.less(margin, floor, out=below).any()
    if worst_ne.witness is None:
        raise GameValidationError("no pure equilibrium found; instance invalid")
    poa = PoaReport(
        min_cost=least.value, min_witness=least.witness,
        worst_ne_cost=-worst_ne.value, worst_ne_witness=worst_ne.witness,
        poa=-worst_ne.value / least.value, num_pure_ne=num_ne,
        enumerated_profiles=size)
    smoothness = None
    if lhs is not None:
        smoothness = SmoothnessResult(passed=passed, worst_margin=worst_margin.value,
                                      witness=worst_margin.witness)
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
    two sweeps: social costs alone for ``SC(a_opt)``, then equilibria and
    margins from the same priced strategies."""
    require_finite_nonnegative("rho", rho)
    require_finite_nonnegative("smoothness tol", tol)
    size = _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    game = CompiledGame(instance, taxes)
    lhs = certificate_lhs(game, profile)
    bound = rho * _min_social_cost(game, size)[1]
    return _sweep(game, size, lhs, bound, tol)
