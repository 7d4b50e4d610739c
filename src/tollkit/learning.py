"""Learning dynamics: best-response descent and multiplicative weights.

Best-response dynamics walks the potential downhill to a pure equilibrium.
Multiplicative-weights play is the no-regret route: players sample from
private weight vectors, observe the perceived cost of each own strategy
against the realised play of the others (full-information feedback), and
exponentiate. The trace keeps everything needed to compute external regret
afterwards, the cheapest profile encountered, and the empirical distribution
over visited profiles, which approximates a coarse correlated equilibrium
as regret decays.

Randomness comes from numpy's counter-based Philox generator keyed by the
seed, so identical inputs reproduce traces bit-exactly within one build.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParams, NotConverged, TooLarge
from .game import (Allocation, CompiledGame, GameInstance, TaxProfile,
                   deviation_moves, loads_of, move_cost, perceived_tables,
                   seeded_rng, system_cost, system_cost_tables)
from .oracle import (CHUNK_PROFILES, IMPROVEMENT_THRESHOLD, brute_force_min_sc,
                     certificate_lhs)
from .relaxation import FractionalProfile, check_feasible


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
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    n = instance.num_players
    if start is None:
        rng = seeded_rng(seed)
        choices = [int(rng.integers(instance.num_strategies(i))) for i in range(n)]
    else:
        instance.validate_allocation(start)
        choices = list(start.choices)
    loads = loads_of(instance, choices)

    strategies = instance.strategies
    steps = 0
    trace = []
    quiet = 0  # players inspected since the last accepted move
    player = 0
    while quiet < n:
        k = choices[player]
        own_moves = moves[player][k]
        current = move_cost(tables, loads, own_moves[k])
        threshold = current - IMPROVEMENT_THRESHOLD * max(1.0, abs(current))
        best_alt, best_cost = None, threshold
        for alt, move in enumerate(own_moves):
            if alt == k:
                continue
            cost = move_cost(tables, loads, move)
            if cost < best_cost:
                best_alt, best_cost = alt, cost
        if best_alt is None:
            quiet += 1
        else:
            if steps >= max_steps:
                raise NotConverged(
                    f"no equilibrium within {max_steps} moves", trace=trace)
            for r in strategies[player][k]:
                loads[r] -= 1
            for r in strategies[player][best_alt]:
                loads[r] += 1
            trace.append((player, k, best_alt))
            choices[player] = best_alt
            steps += 1
            quiet = 0
        player = (player + 1) % n
    return Allocation(tuple(choices)), steps


@dataclass(frozen=True)
class RunTrace:
    """Everything a multiplicative-weights run produced.

    ``strategy_costs_total[i][k]`` accumulates what player ``i`` would have
    paid by playing ``k`` in every round against the realised play of the
    others; external regret is the gap between the incurred total and the
    best fixed strategy in hindsight, all measured on perceived costs.
    ``social_costs`` are untaxed.
    """

    seed: int
    rounds: int
    eta: tuple[float, ...]
    profiles: tuple[tuple[int, ...], ...]
    social_costs: tuple[float, ...]
    incurred_total: tuple[float, ...]
    strategy_costs_total: tuple[tuple[float, ...], ...]
    best_profile: Allocation
    best_sc: float

    @property
    def regrets(self) -> tuple[float, ...]:
        return tuple(inc - min(alts) for inc, alts
                     in zip(self.incurred_total, self.strategy_costs_total))

    @property
    def average_regrets(self) -> tuple[float, ...]:
        return tuple(r / self.rounds for r in self.regrets)

    @property
    def empirical_distribution(self) -> dict[tuple[int, ...], float]:
        counts = Counter(self.profiles)
        return {profile: c / self.rounds for profile, c in counts.items()}

    def save_jsonl(self, path) -> None:
        """One round per line plus a summary footer."""
        with open(path, "w") as fh:
            for t, (profile, sc) in enumerate(zip(self.profiles, self.social_costs)):
                fh.write(json.dumps({"t": t, "profile": list(profile), "sc": sc}))
                fh.write("\n")
            fh.write(json.dumps({
                "seed": self.seed, "rounds": self.rounds, "eta": list(self.eta),
                "regrets": list(self.regrets),
                "average_regrets": list(self.average_regrets),
                "best_profile": list(self.best_profile.choices),
                "best_sc": self.best_sc,
            }))
            fh.write("\n")


def multiplicative_weights_run(instance: GameInstance, taxes: TaxProfile,
                               rounds: int, eta: float | str = "auto",
                               seed: int = 0) -> RunTrace:
    """Simultaneous multiplicative-weights play for ``rounds`` rounds.

    Per round every player samples a strategy from their weights
    (independently, in player order, from the seeded generator), then
    observes the perceived cost of each own strategy against the others'
    realised play and updates ``w_{i,k} *= exp(-eta_i * cost / K_i)``, where
    ``K_i`` bounds any perceived cost player ``i`` can face. ``eta="auto"``
    sets the classic ``sqrt(8 ln s_i / rounds)`` rate per player.
    """
    if rounds < 1:
        raise InvalidParams(f"rounds must be >= 1, got {rounds}")
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    n = instance.num_players
    strategies = instance.strategies

    # Largest perceived cost a strategy can carry: every resource at the
    # all-player load. Bounds the losses fed to the exponential update.
    scale = []
    for i in range(n):
        scale.append(max(sum(tables[r][instance.num_players] for r in strat)
                         for strat in strategies[i]))
    if eta == "auto":
        etas = [math.sqrt(8.0 * math.log(instance.num_strategies(i)) / rounds)
                for i in range(n)]
    else:
        etas = [float(eta)] * n
    if any(not math.isfinite(e) or e < 0 for e in etas):
        raise InvalidParams(f"eta must be finite and >= 0, got {eta}")

    sc_tables = system_cost_tables(instance)
    rng = seeded_rng(seed)
    weights = [[1.0] * instance.num_strategies(i) for i in range(n)]
    profiles = []
    social_costs = []
    incurred = [0.0] * n
    alt_totals = [[0.0] * instance.num_strategies(i) for i in range(n)]
    best_profile, best_sc = None, math.inf

    for _ in range(rounds):
        choices = []
        for i in range(n):
            row = weights[i]
            total = sum(row)
            u = rng.random() * total
            acc = 0.0
            pick = len(row) - 1
            for k, w in enumerate(row):
                acc += w
                if u < acc:
                    pick = k
                    break
            choices.append(pick)
        choices = tuple(choices)
        loads = loads_of(instance, choices)
        sc = system_cost(sc_tables, loads)
        profiles.append(choices)
        social_costs.append(sc)
        if sc < best_sc:
            best_sc = sc
            best_profile = choices

        for i, played in enumerate(choices):
            row = weights[i]
            rate = etas[i] / scale[i]
            for k, move in enumerate(moves[i][played]):
                cost = move_cost(tables, loads, move)
                alt_totals[i][k] += cost
                if k == played:
                    incurred[i] += cost
                row[k] *= math.exp(-rate * cost)
            top = max(row)
            if top == 0.0:
                raise InvalidParams("weights underflowed to zero; eta too aggressive")
            if top < 1e-150:
                for k in range(len(row)):
                    row[k] /= top

    return RunTrace(
        seed=seed, rounds=rounds, eta=tuple(etas),
        profiles=tuple(profiles), social_costs=tuple(social_costs),
        incurred_total=tuple(incurred),
        strategy_costs_total=tuple(tuple(row) for row in alt_totals),
        best_profile=Allocation(best_profile), best_sc=best_sc)


def best_profile_approximation(instance: GameInstance, taxes: Optional[TaxProfile],
                               trace: RunTrace,
                               cap: int = 10_000_000) -> tuple[Allocation, Optional[float]]:
    """Cheapest visited profile and its ratio to the exact minimum.

    The ratio is omitted (None) when the instance is too large to
    enumerate.
    """
    if not trace.profiles:
        raise InvalidParams("empty trace")
    best = trace.best_profile
    try:
        _, min_cost = brute_force_min_sc(instance, cap)
    except TooLarge:
        return best, None
    return best, trace.best_sc / min_cost


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
        return {"passed": self.passed, "slack": self.slack,
                "expected_sc": self.expected_sc, "expected_lhs": self.expected_lhs,
                "rho_bound": self.rho_bound, "min_sc": self.min_sc,
                "eps_regret": self.eps_regret}

    @classmethod
    def from_json(cls, data: dict) -> "CoarseCorrelatedReport":
        return cls(passed=bool(data["passed"]), slack=float(data["slack"]),
                   expected_sc=float(data["expected_sc"]),
                   expected_lhs=float(data["expected_lhs"]),
                   rho_bound=float(data["rho_bound"]),
                   min_sc=float(data["min_sc"]),
                   eps_regret=float(data["eps_regret"]))


def coarse_correlated_check(instance: GameInstance, taxes: TaxProfile,
                            profile: FractionalProfile, rho: float,
                            trace: RunTrace, slack_factor: float = 0.05,
                            cap: int = 10_000_000) -> CoarseCorrelatedReport:
    """Plug the empirical distribution of a run into the certificate.

    Averages both sides of the smoothness inequality over the visited
    profiles: the check passes when

        E[lhs] >= E[SC] - rho * SC(a_opt) - slack_factor * SC(a_opt).

    ``eps_regret`` reports the summed positive average regrets, which upper
    bound ``E[lhs]`` for the trace's own distribution; as regret decays the
    certificate therefore pins ``E[SC]`` below ``rho * SC(a_opt)`` plus a
    vanishing term.
    """
    check_feasible(instance, profile)
    game = CompiledGame(instance, taxes)
    lhs = certificate_lhs(game, profile)
    _, min_cost = brute_force_min_sc(instance, cap)

    distribution = trace.empirical_distribution
    visited = np.array(list(distribution), dtype=np.intp).reshape(
        -1, instance.num_players).T
    expected_sc = 0.0
    expected_lhs = 0.0
    weights = list(distribution.values())
    batch = None
    for start in range(0, len(weights), CHUNK_PROFILES):
        stop = start + CHUNK_PROFILES
        choices = visited[:, start:stop]
        if batch is None or batch.width != choices.shape[1]:
            batch = game.batch(choices.shape[1])
        batch.choose(choices)
        batch.price_loads()
        costs = batch.price_social().tolist()
        sides = lhs(batch, batch.price_strategies()).tolist()
        for weight, sc, side in zip(weights[start:stop], costs, sides):
            expected_sc += weight * sc
            expected_lhs += weight * side

    rho_bound = rho * min_cost
    slack = expected_lhs - (expected_sc - rho_bound)
    eps_regret = sum(max(0.0, r) for r in trace.average_regrets)
    return CoarseCorrelatedReport(
        passed=slack >= -slack_factor * min_cost, slack=slack,
        expected_sc=expected_sc, expected_lhs=expected_lhs,
        rho_bound=rho_bound, min_sc=min_cost, eps_regret=eps_regret)
