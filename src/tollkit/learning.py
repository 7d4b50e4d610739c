"""Learning dynamics: best-response descent and multiplicative weights.

Best-response dynamics walks the potential downhill to a pure equilibrium.
Multiplicative-weights play is the no-regret route: players sample from
private weight vectors, observe the perceived cost of each own strategy
against the realised play of the others (full-information feedback), and
exponentiate. The trace keeps everything needed to compute external regret
afterwards, the cheapest profile encountered, and the empirical distribution
over visited profiles, which approximates a coarse correlated equilibrium
as regret decays; ``oracle.coarse_correlated_check`` checks the smoothness
certificate in expectation over it.

Randomness comes from numpy's counter-based Philox generator keyed by the
seed, so identical inputs reproduce traces bit-exactly within one build.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .errors import InvalidParams, NotConverged, TooLarge
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
        """One round per line plus a summary footer.

        A round's line differs from another's with the same profile and
        social cost only in ``"t"``, so each distinct pair is serialised
        once and the rounds go out in one write.
        """
        tails = {}
        lines = []
        for t, key in enumerate(zip(self.profiles, self.social_costs)):
            tail = tails.get(key)
            if tail is None:
                profile, sc = key
                tail = tails[key] = (f', "profile": {json.dumps(list(profile))}'
                                     f', "sc": {json.dumps(sc)}}}\n')
            lines.append('{"t": %d' % t + tail)
        with open(path, "w") as fh:
            fh.write("".join(lines))
            fh.write(json.dumps({
                "seed": self.seed, "rounds": self.rounds, "eta": list(self.eta),
                "regrets": list(self.regrets),
                "average_regrets": list(self.average_regrets),
                "best_profile": list(self.best_profile.choices),
                "best_sc": self.best_sc,
            }))
            fh.write("\n")


# Rounds whose uniforms are drawn at once, and whose cost rows are summed at
# once after the run.
ROUND_BLOCK = 1024


def _totals_in_round_order(rows: list[list[float]], order: list[int]) -> list[float]:
    """Column totals of ``rows[j]`` over ``j`` in ``order``.

    Each column is summed from 0.0 one round at a time, exactly as a
    running ``total += cost`` in the round loop would sum it:
    ``np.add.accumulate`` is defined to add one row after another, where a
    reduction such as ``np.sum`` may pair terms and round differently.
    """
    rows = np.array(rows)
    order = np.array(order, dtype=np.intp)
    totals = np.zeros(rows.shape[1])
    for start in range(0, len(order), ROUND_BLOCK):
        block = rows[order[start:start + ROUND_BLOCK]]
        block[0] += totals
        totals = np.add.accumulate(block)[-1]
    return totals.tolist()


def _renormalised(row: list[float]) -> list[float]:
    """``row`` divided by its largest weight once that falls below 1e-150,
    so later products stay representable."""
    top = max(row)
    if top == 0.0:
        raise InvalidParams("weights underflowed to zero; eta too aggressive")
    if top < 1e-150:
        return [w / top for w in row]
    return row


def multiplicative_weights_run(instance: GameInstance, taxes: TaxProfile,
                               rounds: int, eta: float | str = "auto",
                               seed: int = 0) -> RunTrace:
    """Simultaneous multiplicative-weights play for ``rounds`` rounds.

    Per round every player samples a strategy from their weights
    (independently, in player order, from the seeded generator), then
    observes the perceived cost of each own strategy against the others'
    realised play and updates ``w_{i,k} *= exp(-eta_i * cost / K_i)``, where
    ``K_i`` bounds any perceived cost player ``i`` can face. ``eta="auto"``
    sets the classic ``sqrt(8 ln s_i / rounds)`` rate per player. The
    losses must lie in ``[0, K_i]`` with ``K_i > 0``: a negative perceived
    cost, or a player whose ``K_i`` is 0, raises ``InvalidParams``.

    A profile's costs and update factors depend on the profile alone, so
    each distinct profile is priced once per run, on its first visit, and
    later visits reuse the result. The memo holds, per distinct profile,
    its social cost and every player's own-strategy costs and factors: it
    grows with the distinct profiles visited (at most ``rounds``, typically
    a few dozen), not with the game's profile count.
    """
    if rounds < 1:
        raise InvalidParams(f"rounds must be >= 1, got {rounds}")
    game = CompiledGame(instance, taxes)
    n = instance.num_players

    # A player faces perceived costs at loads 1..N only. K_i is the largest
    # a strategy can carry: every resource at the all-player load.
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
        etas = [float(eta)] * n
    if any(not math.isfinite(e) or e < 0 for e in etas):
        raise InvalidParams(f"eta must be finite and >= 0, got {eta}")
    rates = [e / s for e, s in zip(etas, scale)]

    rng = seeded_rng(seed)
    weights = [[1.0] * instance.num_strategies(i) for i in range(n)]
    mul = operator.mul
    # Per distinct profile, in order of first visit: the profile, its social
    # cost, every player's own-strategy costs followed by the played costs
    # (one flat row), and every player's update factors.
    seen = {}
    visited = []
    social = []
    cost_rows = []
    factors = []
    order = []  # per round, the position of its profile in the lists above

    for start in range(0, rounds, ROUND_BLOCK):
        block = rng.random((min(ROUND_BLOCK, rounds - start), n)).tolist()
        for draws in block:
            choices = []
            for row, u in zip(weights, draws):
                u *= sum(row)
                acc = 0.0
                pick = len(row) - 1
                for k, w in enumerate(row):
                    acc += w
                    if u < acc:
                        pick = k
                        break
                choices.append(pick)
            choices = tuple(choices)
            j = seen.get(choices)
            if j is None:
                j = seen[choices] = len(visited)
                sc, own = game.price(choices)
                visited.append(choices)
                social.append(sc)
                cost_rows.append([c for row in own for c in row]
                                 + [row[k] for row, k in zip(own, choices)])
                factors.append([[math.exp(-rate * c) for c in row]
                                for rate, row in zip(rates, own)])
            order.append(j)

            weights = [list(map(mul, row, factor))
                       for row, factor in zip(weights, factors[j])]
            for top in map(max, weights):
                if top < 1e-150:
                    weights = [_renormalised(row) for row in weights]
                    break

    # A repeat visit cannot undercut the running minimum its first visit
    # set, so the first strict minimum over distinct profiles in visit order
    # is the first over rounds.
    best_profile, best_sc = None, math.inf
    for choices, sc in zip(visited, social):
        if sc < best_sc:
            best_sc = sc
            best_profile = choices

    totals = iter(_totals_in_round_order(cost_rows, order))
    alt_totals = tuple(tuple(islice(totals, instance.num_strategies(i)))
                       for i in range(n))

    return RunTrace(
        seed=seed, rounds=rounds, eta=tuple(etas),
        profiles=tuple([visited[j] for j in order]),
        social_costs=tuple([social[j] for j in order]),
        incurred_total=tuple(totals),
        strategy_costs_total=alt_totals,
        best_profile=Allocation(best_profile), best_sc=best_sc)


def best_profile_approximation(instance: GameInstance, taxes: Optional[TaxProfile],
                               trace: RunTrace, cap: int = DEFAULT_ENUMERATION_CAP
                               ) -> tuple[Allocation, Optional[float]]:
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
