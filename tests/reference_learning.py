"""Scalar references for the learning dynamics.

``best_response_dynamics`` is the descent ``tollkit.learning`` ran before it
priced through ``CompiledGame``: it keeps the loads by hand and prices every
deviation with ``move_cost``. ``multiplicative_weights_run`` is the loop it
ran before it priced each distinct profile once per run and played rounds
in speculative windows: it draws one uniform at a time, plays one round at
a time, and prices every own strategy of every player in every round with
``loads_of``/``system_cost``/``move_cost``. A pick compares against the
running weight sum, whose last entry is the total. ``save_jsonl``
writes each round with its own ``json.dumps``. The library adds the same
terms in the same order and writes the same bytes, so the tests require
exact equality.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from reference_oracle import (deviation_moves, move_cost, perceived_tables,
                              system_cost, system_cost_tables)
from tollkit import (Allocation, GameInstance, InvalidParams, NotConverged,
                     RunTrace, TaxProfile)
from tollkit.game import loads_of, seeded_rng
from tollkit.oracle import IMPROVEMENT_THRESHOLD


def best_response_dynamics(instance: GameInstance, taxes: Optional[TaxProfile] = None,
                           seed: int = 0, max_steps: int = 100_000,
                           start: Optional[Allocation] = None) -> tuple[Allocation, int]:
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


def save_jsonl(trace: RunTrace, path) -> None:
    with open(path, "w") as fh:
        for t, (profile, sc) in enumerate(zip(trace.profiles, trace.social_costs)):
            fh.write(json.dumps({"t": t, "profile": list(profile), "sc": sc}))
            fh.write("\n")
        fh.write(json.dumps({
            "seed": trace.seed, "rounds": trace.rounds, "eta": list(trace.eta),
            "regrets": list(trace.regrets),
            "average_regrets": list(trace.average_regrets),
            "best_profile": list(trace.best_profile.choices),
            "best_sc": trace.best_sc,
        }))
        fh.write("\n")


def multiplicative_weights_run(instance: GameInstance, taxes: TaxProfile,
                               rounds: int, eta: float | str = "auto",
                               seed: int = 0) -> RunTrace:
    if rounds < 1:
        raise InvalidParams(f"rounds must be >= 1, got {rounds}")
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    n = instance.num_players
    strategies = instance.strategies

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
            sums = []
            acc = 0.0
            for w in row:
                acc += w
                sums.append(acc)
            u = rng.random() * acc
            pick = len(row) - 1
            for k, total in enumerate(sums):
                if u < total:
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

    # The distinct profiles in first-visit order, each with its first
    # visit's cost, and each round's place among them.
    first_visits = {}
    for choices, sc in zip(profiles, social_costs):
        first_visits.setdefault(choices, sc)
    place = {choices: j for j, choices in enumerate(first_visits)}
    return RunTrace(
        seed=seed, rounds=rounds, eta=tuple(etas),
        distinct_profiles=tuple(first_visits),
        distinct_social_costs=tuple(first_visits.values()),
        index=tuple(place[choices] for choices in profiles),
        incurred_total=tuple(incurred),
        strategy_costs_total=tuple(tuple(row) for row in alt_totals),
        best_profile=Allocation(best_profile), best_sc=best_sc)
