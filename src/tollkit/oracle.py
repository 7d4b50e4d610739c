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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import GameValidationError, TooLarge
from .game import (Allocation, GameInstance, TaxProfile, deviation_moves,
                   loads_of, move_cost, perceived_tables, system_cost,
                   system_cost_tables)
from .relaxation import FractionalProfile, check_feasible

DEFAULT_ENUMERATION_CAP = 10_000_000

# A deviation counts as improving only past this relative threshold; exact
# float comparisons would make equilibrium sets depend on rounding noise.
IMPROVEMENT_THRESHOLD = 1e-12


def _enumeration_size(instance: GameInstance, cap: int) -> int:
    size = 1
    for i in range(instance.num_players):
        size *= instance.num_strategies(i)
        if size > cap:
            raise TooLarge(size, cap)
    return size


def _iter_profiles(instance: GameInstance) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(instance.num_strategies(i))
                               for i in range(instance.num_players)))


def brute_force_min_sc(instance: GameInstance,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Allocation, float]:
    """Exact social-cost minimiser; ties go to the first profile in
    lexicographic choice order."""
    _enumeration_size(instance, cap)
    sc_tables = system_cost_tables(instance)
    best_choices = None
    best_cost = math.inf
    for choices in _iter_profiles(instance):
        cost = system_cost(sc_tables, loads_of(instance, choices))
        if cost < best_cost:
            best_cost = cost
            best_choices = choices
    return Allocation(best_choices), best_cost


def _is_pure_nash(moves, tables: list[list[float]],
                  choices: tuple[int, ...], loads: list[int]) -> bool:
    for i, k in enumerate(choices):
        own_moves = moves[i][k]
        current = move_cost(tables, loads, own_moves[k])
        threshold = current - IMPROVEMENT_THRESHOLD * max(1.0, abs(current))
        for alt, move in enumerate(own_moves):
            if alt != k and move_cost(tables, loads, move) < threshold:
                return False
    return True


def enumerate_pure_nash(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Allocation]:
    """All profiles with no strictly improving unilateral deviation under
    the perceived costs. Nonempty for every valid instance: the dynamics
    descend a potential, so a minimiser of it is always an equilibrium."""
    _enumeration_size(instance, cap)
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    out = []
    for choices in _iter_profiles(instance):
        loads = loads_of(instance, choices)
        if _is_pure_nash(moves, tables, choices, loads):
            out.append(Allocation(choices))
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
    """Worst equilibrium social cost over the exact minimum.

    Equilibria are detected under the perceived (taxed) costs but their
    social cost is always the untaxed system cost.
    """
    size = _enumeration_size(instance, cap)
    sc_tables = system_cost_tables(instance)
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    best_choices = None
    best_cost = math.inf
    worst_ne = None
    worst_ne_cost = -math.inf
    num_ne = 0
    for choices in _iter_profiles(instance):
        loads = loads_of(instance, choices)
        cost = system_cost(sc_tables, loads)
        if cost < best_cost:
            best_cost = cost
            best_choices = choices
        if _is_pure_nash(moves, tables, choices, loads):
            num_ne += 1
            if cost > worst_ne_cost:
                worst_ne_cost = cost
                worst_ne = choices
    if worst_ne is None:
        raise GameValidationError("no pure equilibrium found; instance invalid")
    return PoaReport(
        min_cost=best_cost, min_witness=Allocation(best_choices),
        worst_ne_cost=worst_ne_cost, worst_ne_witness=Allocation(worst_ne),
        poa=worst_ne_cost / best_cost, num_pure_ne=num_ne,
        enumerated_profiles=size)


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


def smoothness_lhs(instance: GameInstance, taxes: TaxProfile,
                   profile: FractionalProfile
                   ) -> Callable[[Sequence[int], Sequence[int]], float]:
    """The certificate's left side as a function of a profile and its loads:

        lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(a'_{i,k}, a_{-i})].

    Only strategies with nonzero weight in ``profile`` are priced.
    """
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    supports = [[(a, w) for a, w in enumerate(row) if w]
                for row in profile.weights]

    def lhs(choices: Sequence[int], loads: Sequence[int]) -> float:
        total = 0.0
        for i, k in enumerate(choices):
            own_moves = moves[i][k]
            mixed = 0.0
            for alt, w in supports[i]:
                mixed += w * move_cost(tables, loads, own_moves[alt])
            total += move_cost(tables, loads, own_moves[k]) - mixed
        return total

    return lhs


def check_smoothness(instance: GameInstance, taxes: TaxProfile,
                     profile: FractionalProfile, rho: float,
                     cap: int = DEFAULT_ENUMERATION_CAP,
                     tol: float = 1e-7) -> SmoothnessResult:
    """Verify the smoothness certificate on every pure profile.

    The margin of a profile is the left side minus the right side of the
    certificate inequality; the check passes when every margin stays above
    ``-tol * max(1, SC(a))``. Returns the smallest margin and its witness.
    """
    _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    sc_tables = system_cost_tables(instance)
    lhs = smoothness_lhs(instance, taxes, profile)
    _, min_cost = brute_force_min_sc(instance, cap)
    bound = rho * min_cost

    worst_margin = math.inf
    witness = None
    passed = True
    for choices in _iter_profiles(instance):
        loads = loads_of(instance, choices)
        sc = system_cost(sc_tables, loads)
        margin = lhs(choices, loads) - (sc - bound)
        if margin < worst_margin:
            worst_margin = margin
            witness = choices
        if margin < -tol * max(1.0, sc):
            passed = False
    return SmoothnessResult(passed=passed, worst_margin=worst_margin,
                            witness=Allocation(witness))
