"""Profile-by-profile reference for the compiled pricing engine.

The scalar game core below (``perceived_tables``, ``system_cost_tables``,
``system_cost``, ``deviation_moves``, ``move_cost``) and the scalar
``social_cost``, ``player_cost`` and ``rosenthal_potential`` are the code
``tollkit.game`` priced with before ``CompiledGame`` became its only
pricing engine. The loops after them are the ones ``tollkit.oracle`` and
``tollkit.learning.coarse_correlated_check`` ran before they became numpy
sweeps over a ``CompiledGame``. They walk ``itertools.product`` and price
every profile with ``loads_of``/``system_cost``/``move_cost``, so they
share no code with ``CompiledGame`` beyond ``GameInstance.ell_tables``.
The engine adds the same terms in the same order, so the tests require
exact equality.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

from tollkit import (Allocation, CoarseCorrelatedReport, GameInstance,
                     GameValidationError, PoaReport, SmoothnessResult,
                     TaxProfile)
from tollkit.game import check_tax_cover, loads_of
from tollkit.oracle import (DEFAULT_ENUMERATION_CAP, IMPROVEMENT_THRESHOLD,
                            _enumeration_size)
from tollkit.relaxation import FractionalProfile, check_feasible

# A unilateral deviation as (resource, extra_load) pairs; see deviation_moves.
Move = list[tuple[int, int]]


def perceived_tables(instance: GameInstance,
                     taxes: Optional[TaxProfile]) -> list[list[float]]:
    """``tables[r][x] = ell_r(x) + tau_r(x)`` for loads ``0..N``; the
    untaxed costs when ``taxes`` is None."""
    tables = instance.ell_tables(instance.num_players)
    if taxes is not None:
        check_tax_cover(instance, taxes)
        tables = [[cost + taxes.tau[r][x] for x, cost in enumerate(row)]
                  for r, row in enumerate(tables)]
    return tables


def system_cost_tables(instance: GameInstance) -> list[list[float]]:
    """``tables[r][x] = x * ell_r(x)`` for loads ``0..N``: what resource
    ``r`` costs the system under load ``x``. Taxes never enter it."""
    return [[x * cost for x, cost in enumerate(row)]
            for row in instance.ell_tables(instance.num_players)]


def system_cost(tables: list[list[float]], loads: Sequence[int]) -> float:
    """Social cost of ``loads`` priced on ``system_cost_tables``."""
    return sum([tables[r][x] for r, x in enumerate(loads) if x])


def deviation_moves(instance: GameInstance) -> list[list[list[Move]]]:
    """``moves[i][k][a]``: player ``i``'s move from strategy ``k`` to ``a``.

    A move lists ``(resource, extra_load)`` pairs over the resources of
    ``a``: ``extra_load`` is 0 on resources ``k`` already uses (the player's
    own unit is already in the load) and 1 on the others. Priced with
    ``move_cost``, ``moves[i][k][k]`` is the player's current cost.
    """
    moves = []
    for strats in instance.strategies:
        by_current = []
        for current in strats:
            members = set(current)
            by_current.append([[(r, 0 if r in members else 1) for r in alt]
                               for alt in strats])
        moves.append(by_current)
    return moves


def move_cost(tables: list[list[float]], loads: Sequence[int],
              move: Move) -> float:
    """Cost of ``move`` (from ``deviation_moves``) against ``loads``, priced
    on ``tables``: what the mover pays after a unilateral deviation."""
    return sum([tables[r][loads[r] + d] for r, d in move])


def social_cost(instance: GameInstance, allocation: Allocation) -> float:
    """System cost ``sum_r load_r * ell_r(load_r)``.

    Taxes never enter this value: they reshape incentives, not the cost the
    system actually pays.
    """
    loads = instance.loads(allocation)
    return system_cost(system_cost_tables(instance), loads)


def player_cost(instance: GameInstance, taxes: Optional[TaxProfile],
                allocation: Allocation, player: int) -> float:
    """Perceived cost of ``player``: selected resources' cost plus tax."""
    if player < 0 or player >= instance.num_players:
        raise GameValidationError(f"player index {player} out of range")
    tables = perceived_tables(instance, taxes)
    loads = instance.loads(allocation)
    return sum(tables[r][loads[r]]
               for r in instance.strategies[player][allocation.choices[player]])


def rosenthal_potential(instance: GameInstance, taxes: Optional[TaxProfile],
                        allocation: Allocation) -> float:
    """Potential ``sum_r sum_{u=1}^{load_r} ell_bar_r(u)``.

    Any unilateral deviation changes this by exactly the deviator's
    perceived-cost change, which is what makes best-response dynamics
    terminate.
    """
    tables = perceived_tables(instance, taxes)
    loads = instance.loads(allocation)
    total = 0.0
    for r, x in enumerate(loads):
        for u in range(1, x + 1):
            total += tables[r][u]
    return total


def iter_profiles(instance: GameInstance) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(instance.num_strategies(i))
                               for i in range(instance.num_players)))


def brute_force_min_sc(instance: GameInstance,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Allocation, float]:
    _enumeration_size(instance, cap)
    sc_tables = system_cost_tables(instance)
    best_choices = None
    best_cost = math.inf
    for choices in iter_profiles(instance):
        cost = system_cost(sc_tables, loads_of(instance, choices))
        if cost < best_cost:
            best_cost = cost
            best_choices = choices
    return Allocation(best_choices), best_cost


def is_pure_nash(moves, tables: list[list[float]],
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
    _enumeration_size(instance, cap)
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    out = []
    for choices in iter_profiles(instance):
        loads = loads_of(instance, choices)
        if is_pure_nash(moves, tables, choices, loads):
            out.append(Allocation(choices))
    return out


def empirical_poa(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> PoaReport:
    size = _enumeration_size(instance, cap)
    sc_tables = system_cost_tables(instance)
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    best_choices = None
    best_cost = math.inf
    worst_ne = None
    worst_ne_cost = -math.inf
    num_ne = 0
    for choices in iter_profiles(instance):
        loads = loads_of(instance, choices)
        cost = system_cost(sc_tables, loads)
        if cost < best_cost:
            best_cost = cost
            best_choices = choices
        if is_pure_nash(moves, tables, choices, loads):
            num_ne += 1
            if cost > worst_ne_cost:
                worst_ne_cost = cost
                worst_ne = choices
    return PoaReport(
        min_cost=best_cost, min_witness=Allocation(best_choices),
        worst_ne_cost=worst_ne_cost, worst_ne_witness=Allocation(worst_ne),
        poa=worst_ne_cost / best_cost, num_pure_ne=num_ne,
        enumerated_profiles=size)


def smoothness_lhs(instance: GameInstance, taxes: Optional[TaxProfile],
                   profile: FractionalProfile
                   ) -> Callable[[Sequence[int], Sequence[int]], float]:
    """lhs(a) = sum_i [Cbar_i(a) - sum_k y_{i,k} * Cbar_i(a'_{i,k}, a_{-i})]."""
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


def check_smoothness(instance: GameInstance, taxes: Optional[TaxProfile],
                     profile: FractionalProfile, rho: float,
                     cap: int = DEFAULT_ENUMERATION_CAP,
                     tol: float = 1e-7) -> SmoothnessResult:
    _enumeration_size(instance, cap)
    check_feasible(instance, profile)
    sc_tables = system_cost_tables(instance)
    lhs = smoothness_lhs(instance, taxes, profile)
    _, min_cost = brute_force_min_sc(instance, cap)
    bound = rho * min_cost

    worst_margin = math.inf
    witness = None
    passed = True
    for choices in iter_profiles(instance):
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


def coarse_correlated_check(instance: GameInstance, taxes: Optional[TaxProfile],
                            profile: FractionalProfile, rho: float, trace,
                            slack_factor: float = 0.05,
                            cap: int = DEFAULT_ENUMERATION_CAP
                            ) -> CoarseCorrelatedReport:
    check_feasible(instance, profile)
    lhs = smoothness_lhs(instance, taxes, profile)
    sc_tables = system_cost_tables(instance)
    _, min_cost = brute_force_min_sc(instance, cap)

    expected_sc = 0.0
    expected_lhs = 0.0
    for choices, weight in trace.empirical_distribution.items():
        loads = loads_of(instance, choices)
        expected_sc += weight * system_cost(sc_tables, loads)
        expected_lhs += weight * lhs(choices, loads)

    rho_bound = rho * min_cost
    slack = expected_lhs - (expected_sc - rho_bound)
    eps_regret = sum(max(0.0, r) for r in trace.average_regrets)
    return CoarseCorrelatedReport(
        passed=slack >= -slack_factor * min_cost, slack=slack,
        expected_sc=expected_sc, expected_lhs=expected_lhs,
        rho_bound=rho_bound, min_sc=min_cost, eps_regret=eps_regret)
